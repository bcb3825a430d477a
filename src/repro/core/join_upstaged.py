"""Algorithm 3 — joinUpFDs: per-side upstaged FDs at a join node.

Lemma 2: the upstaged FDs of side ``I`` are the new FDs of
``I ⋈ π_K(J)`` — the semijoin-reduced instance. Implemented with a
``left_semi`` join against the distinct join-key projection of the other
side, so the reduction job reads only the join columns of ``J``
(partition-pruned scan).

Side behaviour per join operator (see DESIGN.md "Interpretation
decisions"):

- ``inner``/``semi``: a side can only *lose* tuples → its FDs are
  preserved (Theorem 1) and new ones are mined iff the reduction dropped
  rows (Alg. 3 line 14).
- ``left``/``right``: the preserved side is untouched; the other side
  both loses tuples and gains NULL padding → inherited FDs are
  *validated* on the side projection of the join and new ones mined.
- ``full``: no side loses tuples; padding can only break FDs →
  validation only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from pyspark.sql import DataFrame

from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds
from repro.fd.model import FD


@dataclass
class SideOutcome:
    """Result of processing one side of a join."""

    kept: set[FD]  # inherited FDs still valid on the view's side projection
    upstaged: set[FD]  # newly valid FDs on the side
    dropped: set[FD]  # inherited FDs invalidated by NULL padding (outer only)


def process_side(
    side_df: DataFrame,
    side_n: int,
    side_fds: Iterable[FD],
    other_df: DataFrame,
    join_df: DataFrame,
    K: tuple[str, ...],
    scope_attrs: frozenset[str],
    *,
    loses: bool,
    padded: bool,
    make_engine: Callable[..., FDEngine],
    join_n: int | None = None,
) -> SideOutcome:
    """Compute the side's effective instance and its complete FD set.

    ``make_engine`` gets the instance pruned to the side's attributes in
    ``scope_attrs``, with its row count (``join_n`` for a padded side,
    which is the side projection of the join) or its bound ``side_n``."""
    side_fds = set(side_fds)
    if not loses and not padded:
        return SideOutcome(kept=side_fds, upstaged=set(), dropped=set())

    cols = [c for c in side_df.columns if c in scope_attrs and c in join_df.columns]
    if padded:
        # Outer join: the honest side instance is the side projection of
        # the join itself (matched rows, duplicated, plus NULL padding).
        eff, n_rows, max_rows = join_df.select(*cols), join_n, None
    else:
        eff = side_df.join(
            other_df.select(*K).distinct(), on=list(K), how="left_semi"
        ).select(*cols)
        n_rows, max_rows = None, side_n
    engine = make_engine(eff, n_rows=n_rows, max_rows=max_rows)

    kept, dropped = side_fds, set()
    if padded:
        checks = engine.check_fds(sorted(side_fds))
        kept = {d for d, ok in checks.items() if ok}
        dropped = side_fds - kept

    upstaged: set[FD] = set()
    if loses and (padded or engine.n_rows() < side_n):
        upstaged = mine_fds(engine, frozenset(cols), known=kept)
    return SideOutcome(kept=kept, upstaged=upstaged, dropped=dropped)

"""Algorithm 3 — joinUpFDs: per-side upstaged FDs at a join node.

Lemma 2: the upstaged FDs of side ``I`` are the new FDs of
``I ⋉ π_K(J)``, the semijoin-reduced instance. FD validity depends only
on the *set* of tuples, and over the side's attributes that set is the
side's projection of ``I ⋈ J``: a side tuple reaches an inner or semi
join iff its key matches, and neither join matches a NULL key. So each
side is mined on the join's own engine, over the side's attributes; no
reduced instance is built.

Side behaviour per join operator (see DESIGN.md "Interpretation
decisions"):

- ``inner``/``semi``: a side can only *lose* tuples → its FDs are
  preserved (Theorem 1) and new ones are mined iff the set of side
  tuples shrank (Alg. 3 line 14): fewer distinct side tuples on the join
  than on the side.
- ``left``/``right``: the preserved side is untouched; the other side
  both loses tuples and gains NULL padding → inherited FDs are
  *validated* on the side projection of the join and new ones mined.
- ``full``: no side loses tuples, both are padded → both are validated.
  A side that only gains padding rows gains no FD while every inherited
  FD holds; padding can break one, whose specializations may then hold
  → only then is the side mined.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds
from repro.fd.model import FD


@dataclass
class SideOutcome:
    """Result of processing one side of a join."""

    kept: set[FD]  # inherited FDs still valid on the view's side projection
    upstaged: set[FD]  # newly valid FDs on the side


def process_side(
    side_engine: FDEngine,
    side_fds: Iterable[FD],
    join_engine: FDEngine,
    cols: frozenset[str],
    *,
    loses: bool,
    padded: bool,
) -> SideOutcome:
    """The side's complete FD set on the join. ``cols`` are the side's
    attributes in the mining scope; both engines' instances hold them."""
    kept = set(side_fds)
    broke = False  # padding broke an inherited FD
    if padded:
        checks = join_engine.check_fds(sorted(kept))
        kept = {d for d, ok in checks.items() if ok}
        broke = len(kept) < len(checks)

    upstaged: set[FD] = set()
    if broke or loses and (
        padded or join_engine.distinct_count(cols) < side_engine.distinct_count(cols)
    ):
        upstaged = mine_fds(join_engine, cols, known=kept)
    return SideOutcome(kept=kept, upstaged=upstaged)

"""Algorithm 5 — mineFDs: selective mining of the remaining join FDs.

Theorem 4 says a join FD ``C -> b`` (with ``b`` on side J) can only be
valid if ``K ∪ (C ∩ atts(J)) -> b`` already holds on side J's reduced
instance; Lemma 3 is the special case where ``C`` lies entirely on the
other side. Both become one sound ``plausible`` pruning rule plugged
into the generic lattice miner, which then validates the surviving
candidates with distinct-count checks over the (column-pruned, partial)
join instance — never the fully materialized wide view.

``plausible`` is monotone in the lhs, so an rhs it vetoes with the
*maximal* lhs (every other attribute of the join) is vetoed with every
lhs. If it vetoes every rhs, the search is skipped with no distinct
count — the paper's "mineFDs executed but returns no FD" cases cost
nothing here. This happens when one side brings only ``K`` into the
mining scope (every candidate then lies on one side), or when no side
FD backs any rhs.
"""
from __future__ import annotations

from typing import Iterable

from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds
from repro.fd.model import FD, by_rhs, has_subset_fd


def mine_join_fds(
    join_engine: FDEngine,
    K: frozenset[str],
    atts_left: frozenset[str],
    atts_right: frozenset[str],
    fds_left: Iterable[FD],
    fds_right: Iterable[FD],
    known: Iterable[FD],
) -> set[FD]:
    """All minimal view FDs over ``atts_left | atts_right`` not already in
    ``known`` (which must contain both sides' complete single-side FD
    sets and the inferred FDs)."""
    idx_l, idx_r = by_rhs(fds_left), by_rhs(fds_right)
    attrs = atts_left | atts_right

    def plausible(lhs: frozenset[str], y: str) -> bool:
        s = lhs | {y}
        if s <= atts_left or s <= atts_right:
            return False  # single-side FDs are complete in `known`
        if y in atts_right - K:
            return has_subset_fd(idx_r, K | (lhs & atts_right), y)
        if y in atts_left - K:
            return has_subset_fd(idx_l, K | (lhs & atts_left), y)
        return True  # y ∈ K with a mixed lhs: no Theorem-4 pruning applies

    rhs_pool = frozenset(y for y in attrs if plausible(attrs - {y}, y))
    if not rhs_pool:
        return set()
    return mine_fds(
        join_engine, attrs, known=known, rhs_pool=rhs_pool, plausible=plausible
    )

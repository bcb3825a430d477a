"""Algorithm 4 — inferFDs: cross-table FDs via Armstrong transitivity
through the join attributes, then minimality refinement on a partial join.

Theorem 2: if ``A → K`` holds on one side and ``K → b`` on the other,
then ``A → b`` holds on the (inner) join. The ``infer`` subroutine
enumerates those; ``refine`` then searches the lhs subsets on the
*partial* join — each distinct count reads only the columns of its
candidate set, which is the paper's "horizontal partition with only the
necessary attributes". ``atts_left`` and ``atts_right`` are the sides'
attributes in the mining scope, as the driver's nodes hold them, so
every raw FD is in scope.

``refine`` is the shared lattice miner over the union of the raw lhs's,
with each candidate ``C → b`` kept plausible only while ``C`` lies
inside some raw lhs of ``b``. The raw FDs are checked as ordinary
candidates, so no join operator needs Theorem 2's premise to hold: an
FD the miner emits is valid on the join instance.
"""
from __future__ import annotations

from typing import Iterable

from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds
from repro.fd.model import FD, by_rhs, determines, has_subset_fd


def infer_join_fds(
    join_engine: FDEngine,
    K: frozenset[str],
    atts_left: frozenset[str],
    atts_right: frozenset[str],
    fds_left: Iterable[FD],
    fds_right: Iterable[FD],
) -> set[FD]:
    """Both directions of Algorithm 4 (lines 3-4) plus ``refine``."""
    fds_left, fds_right = set(fds_left), set(fds_right)
    idx_l, idx_r = by_rhs(fds_left), by_rhs(fds_right)
    raw = _infer_one_direction(K, atts_left, atts_right, fds_left, idx_l, idx_r)
    raw |= _infer_one_direction(K, atts_right, atts_left, fds_right, idx_r, idx_l)
    if not raw:
        return set()
    # Subroutine ``refine``: the minimal valid lhs subsets of every raw FD.
    raw_lhs = by_rhs(raw)
    return mine_fds(
        join_engine,
        frozenset().union(*(d.lhs_set() for d in raw)),
        known=fds_left | fds_right,
        rhs_pool=raw_lhs.keys(),
        plausible=lambda lhs, y: any(lhs <= a for a in raw_lhs[y]),
    )


def _infer_one_direction(K, atts_src, atts_dst, fds_src, idx_src, idx_dst):
    """lhs candidates from the source side that determine K; rhs from the
    destination side determined by K (subroutine ``infer``)."""
    rhs_pool = sorted(
        b for b in atts_dst - K - atts_src if has_subset_fd(idx_dst, K, b)
    )
    if not rhs_pool:
        return set()
    lhs_cands = {frozenset(K)}
    for d in fds_src:
        a = d.lhs_set()
        if determines(idx_src, a, K):
            lhs_cands.add(a)
    return {
        FD(a, b) for a in lhs_cands for b in rhs_pool if b not in a
    }

"""FUN baseline (Novelli & Cicchetti, ICDT'01).

Level-wise search over *free sets* only: a non-free set (one whose
cardinality equals a subset's) cannot be the lhs of a minimal FD and its
whole subtree is pruned — FUN's core improvement over TANE. Cardinality
comparisons reuse the same batched distinct-count engine.
"""
from __future__ import annotations

from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds
from repro.fd.model import FD


def fun_on_engine(engine: FDEngine, attrs) -> set[FD]:
    return mine_fds(engine, attrs, free_set_pruning=True)

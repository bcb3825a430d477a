"""TANE baseline (Huhtala et al., ICDE'98).

Level-wise search with rhs-candidate (minimality) pruning and key
pruning, driven by partition cardinalities — here the batched
distinct-count engine (``|distinct(X)| == |distinct(X∪{y})|`` is TANE's
exact-FD test ``e(X → y) = 0``). Free-set pruning is disabled: that is
FUN's contribution, keeping the two baselines distinct.
"""
from __future__ import annotations

from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds
from repro.fd.model import FD


def tane_on_engine(engine: FDEngine, attrs) -> set[FD]:
    return mine_fds(engine, attrs, free_set_pruning=False)

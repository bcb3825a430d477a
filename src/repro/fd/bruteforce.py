"""Brute-force minimal-FD miner over a pandas frame — the test oracle.

Exhaustively checks every (lhs, rhs) pair over the powerset of attributes.
Exponential; only for instances with ≤ ~10 attributes in tests.
"""
from __future__ import annotations

from itertools import combinations

import pandas as pd

from repro.fd.engine import FDEngine
from repro.fd.model import FD, has_subset_fd


def brute_force_fds(pdf: pd.DataFrame, attrs=None) -> set[FD]:
    """All minimal FDs of ``pdf`` restricted to ``attrs`` (default: all
    columns). Each candidate is checked on the pandas reference engine, so
    NULL equals NULL, NaN equals NaN, and NULL differs from NaN."""
    attrs = sorted(attrs) if attrs is not None else sorted(pdf.columns)
    engine = FDEngine(pdf)
    found: set[FD] = set()
    idx: dict[str, list[frozenset[str]]] = {}
    # Levels go up in size, so a found FD has no valid proper sub-FD.
    for k in range(0, len(attrs)):
        for lhs_t in combinations(attrs, k):
            lhs = frozenset(lhs_t)
            for rhs in attrs:
                if rhs in lhs or has_subset_fd(idx, lhs, rhs):
                    continue
                if engine.holds(lhs, rhs):
                    found.add(FD(lhs, rhs))
                    idx.setdefault(rhs, []).append(lhs)
    return found

"""The reference that tests and the benchmark's gate check both
``FDEngine`` kernels against: a distinct counter over an Arrow table that
shares no code with them, and the brute-force minimal-FD miner on it.

A cell is None (NULL), one stand-in for every NaN, or its ``to_pylist()``
value; Python gives -0.0 and 0.0 equal values and hashes. So NULL equals
NULL, NaN equals NaN, -0.0 equals 0.0, and NULL differs from NaN, as in
both kernels. Brute force is exponential: ≤ ~10 attributes.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable

import pyarrow as pa

from repro.fd.model import FD, has_subset_fd

_NAN = object()  # the cell of every NaN


class ReferenceCounter:
    """Memoized distinct counts over ``table``: |distinct(X)| is the size
    of the set of rows zipped from the sorted columns of ``X``."""

    def __init__(self, table: pa.Table):
        self.table = table
        self._cells: dict[str, list] = {}
        self._cache: dict[frozenset[str], int] = {}

    def _column(self, name: str) -> list:
        if name not in self._cells:
            cells = self.table.column(name).to_pylist()
            self._cells[name] = [_NAN if v != v else v for v in cells]  # v != v: NaN
        return self._cells[name]

    def prefetch(self, attr_sets: Iterable[frozenset[str]]) -> None:
        for s in map(frozenset, attr_sets):
            if s and s not in self._cache:
                self._cache[s] = len(set(zip(*(self._column(a) for a in sorted(s)))))

    def distinct_count(self, attrs: Iterable[str]) -> int:
        s = frozenset(attrs)
        if not s:  # |distinct(∅)| is 1 on a non-empty instance, 0 on an empty one
            return min(self.table.num_rows, 1)
        self.prefetch([s])
        return self._cache[s]

    def holds(self, lhs: Iterable[str], rhs: str) -> bool:
        lhs = frozenset(lhs)
        return self.distinct_count(lhs) == self.distinct_count(lhs | {rhs})


def brute_force_fds(table: pa.Table, attrs=None) -> set[FD]:
    """All minimal FDs of ``table`` over ``attrs`` (default: all columns),
    each candidate checked on ``ReferenceCounter``."""
    attrs = sorted(attrs) if attrs is not None else sorted(table.column_names)
    ref = ReferenceCounter(table)
    found: set[FD] = set()
    idx: dict[str, list[frozenset[str]]] = {}
    # Levels go up in size, so a found FD has no valid proper sub-FD.
    for k in range(0, len(attrs)):
        for lhs_t in combinations(attrs, k):
            lhs = frozenset(lhs_t)
            for rhs in attrs:
                if rhs in lhs or has_subset_fd(idx, lhs, rhs):
                    continue
                if ref.holds(lhs, rhs):
                    found.add(FD(lhs, rhs))
                    idx.setdefault(rhs, []).append(lhs)
    return found

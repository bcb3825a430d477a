"""FastFDs baseline (Wyss, Giannella, Robertson, DaWaK'01).

Tuple-pair oriented: compute the *difference sets* (attributes on which
a tuple pair disagrees), then for each rhs attribute find all minimal
covers of the difference-set family by depth-first search — those covers
are exactly the minimal lhs's.

The instance is projected to the relevant attributes and read once as
the engine's dictionary codes (``Encoded.of``), so two values agree iff
the engine counts them as one: NULL equals NULL, NaN equals NaN, and
NULL differs from NaN. Agree sets are then enumerated pair-wise within
attribute equivalence classes — inherently quadratic, which is why the
paper measures FastFDs at >2000 s on larger views. ``max_pairs`` bounds
the work: an instance whose classes hold more pairs raises
:class:`PairBudgetExceeded` before any pair is compared, so harnesses
can report a lower bound instead of hanging.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame

from repro.fd.engine import Encoded
from repro.fd.lattice import subset_minimal
from repro.fd.model import FD, minimize


class PairBudgetExceeded(RuntimeError):
    """Raised when the agree-set pair enumeration exceeds ``max_pairs``."""


def agree_sets(enc: np.ndarray, *, max_pairs: int | None = None) -> set[frozenset[int]]:
    """Distinct agree sets (as frozensets of column indices) over all
    tuple pairs. Duplicate rows are collapsed first (identical rows agree
    everywhere and violate nothing). Pairs agreeing on at least one
    attribute are enumerated within attribute equivalence classes; if any
    pair agrees *nowhere*, the empty agree set (= full difference set) is
    included — each such pair is counted exactly once at its first
    agreeing column, so existence is detected by comparing against the
    total pair count. The classes are known before any pair is compared,
    so ``max_pairs`` is checked against their total pair count first."""
    n, k = enc.shape
    if n == 0 or k == 0:
        return set()
    enc = np.unique(enc, axis=0)
    n = enc.shape[0]
    # Per column, its classes as runs [s, e) of the rows sorted on it.
    classes = []
    for col in range(k):
        order = np.argsort(enc[:, col], kind="stable")
        vals = enc[order, col]
        starts = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
        classes.append((order, starts, np.r_[starts[1:], n]))
    sizes = np.concatenate([e - s for _, s, e in classes])
    if max_pairs is not None and int((sizes * (sizes - 1) // 2).sum()) > max_pairs:
        raise PairBudgetExceeded(f"agree-set enumeration exceeds {max_pairs} pairs")
    out: set[frozenset[int]] = set()
    agreeing_pairs = 0
    for col, (order, starts, ends) in enumerate(classes):
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            block = enc[order[s:e]]
            for i in range(m - 1):
                eq = block[i + 1 :] == block[i]  # (m-i-1, k) bool
                # only record pairs whose *smallest* agreeing column is
                # `col` to avoid re-enumerating the same pair per column
                first = eq.argmax(axis=1)
                mask = eq[np.arange(eq.shape[0]), first] & (first == col)
                agreeing_pairs += int(mask.sum())
                if not mask.any():
                    continue
                for row in eq[mask]:
                    out.add(frozenset(np.flatnonzero(row)))
    if agreeing_pairs < n * (n - 1) // 2:
        out.add(frozenset())  # some pair differs on every attribute
    return out


def _minimal_covers(
    diff_sets: list[frozenset[int]], universe: list[int]
) -> set[frozenset[int]]:
    """All minimal hitting sets ("covers") of the difference-set family —
    FastFDs' depth-first search with the standard order-by-coverage
    heuristic."""
    if not diff_sets:
        return {frozenset()}
    results: set[frozenset[int]] = set()

    def dfs(
        remaining: list[frozenset[int]],
        chosen: frozenset[int],
        excluded: frozenset[int],
    ) -> None:
        if not remaining:
            # minimality: every chosen attribute must uniquely hit some set
            for a in chosen:
                if all(d & (chosen - {a}) for d in diff_sets):
                    return
            results.add(chosen)
            return
        target = min(remaining, key=len)
        branch = [a for a in sorted(target) if a not in excluded]
        # Branch-and-exclude: after exploring attribute a, later siblings
        # may never use a, so each minimal transversal is generated once.
        for i, a in enumerate(branch):
            dfs(
                [d for d in remaining if a not in d],
                chosen | {a},
                excluded | frozenset(branch[:i]),
            )

    dfs(diff_sets, frozenset(), frozenset())
    return subset_minimal(results)


def fastfds(
    df: DataFrame | pa.Table,
    attrs=None,
    *,
    max_pairs: int | None = None,
) -> set[FD]:
    """All minimal FDs of the instance restricted to ``attrs``."""
    attrs = list(attrs) if attrs is not None else list(df.schema.names)
    ag = agree_sets(Encoded.of(df, attrs).rows(attrs), max_pairs=max_pairs)
    k = len(attrs)
    full = frozenset(range(k))
    diffs = [full - a for a in ag]
    fds: set[FD] = set()
    for y in range(k):
        d_y = [d - {y} for d in diffs if y in d]
        if any(len(d) == 0 for d in d_y):
            continue  # some pair differs only on y: no lhs can determine y
        universe = [a for a in range(k) if a != y]
        for cover in _minimal_covers(sorted(set(d_y), key=sorted), universe):
            fds.add(FD((attrs[i] for i in cover), attrs[y]))
    return minimize(fds)

"""HyFD baseline (Papenbrock & Naumann, SIGMOD'16) — hybrid discovery.

The instance is read once as the engine's dictionary codes
(``Encoded.of``): HyFD's compressed records. Two values agree iff the
engine counts them as one (NULL equals NULL, NaN equals NaN, NULL
differs from NaN), and a pair's agree set is ``rows[p] == rows[q]``.

Phase 1 (tuple-pair sampling): a bounded sample of rows is compared
pair-wise under one sort order per attribute (neighbouring rows are
likely to agree somewhere — HyFD's focused sampling); each pair's agree
set refutes candidate FDs, specializing a negative-cover-complement
lattice of candidate minimal FDs.

Phase 2 (validation): surviving candidates are validated with batched
distinct counts on an engine over the same codes. Every violated
candidate yields a real violating pair whose agree set drives further
specialization — the hybrid back-and-forth of the original algorithm.
Terminates when all candidates validate; the result is exactly the
minimal FD set.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.fd.engine import Encoded, FDEngine
from repro.fd.model import FD, minimize

SAMPLE_SIZE = 500  # rows compared pair-wise in phase 1
MAX_ROUNDS = 10_000  # validation rounds before giving up


class _Candidates:
    """Per-rhs sets of candidate minimal lhs's, specialized by non-FDs."""

    def __init__(self, attrs: list[str]):
        self.attrs = attrs
        self.lhss: dict[str, set[frozenset[str]]] = {
            y: {frozenset()} for y in attrs
        }

    def specialize(self, eq: np.ndarray) -> None:
        """A pair whose agree set is ``agree`` (``eq[i]``: the pair agrees
        on ``attrs[i]``) refutes X -> y for every X ⊆ agree, y ∉ agree."""
        agree = frozenset(a for a, e in zip(self.attrs, eq) if e)
        for y in self.attrs:
            if y in agree:
                continue
            hit = {x for x in self.lhss[y] if x <= agree}
            if not hit:
                continue
            pool = self.lhss[y] - hit
            for x in hit:
                for a in self.attrs:
                    if a == y or a in x or a in agree:
                        continue
                    nx = x | {a}
                    if not any(p <= nx for p in pool):
                        pool = {p for p in pool if not nx <= p} | {nx}
            self.lhss[y] = pool

    def all_fds(self) -> list[FD]:
        return [FD(x, y) for y, xs in self.lhss.items() for x in xs]


def _sample_agree_sets(rows: np.ndarray, n: int, window: int = 4) -> np.ndarray:
    """The distinct agree sets, as rows of a bool matrix, of neighbouring
    pairs of a deterministic sample of up to ``n`` rows, under one sort
    order per attribute."""
    if len(rows) > n:
        rows = rows[np.random.default_rng(0).choice(len(rows), n, replace=False)]
    m, k = rows.shape
    ps, qs = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for a in range(k):
        order = np.argsort(rows[:, a], kind="stable")
        for w in range(1, min(window, m - 1) + 1):
            ps.append(order[:-w])
            qs.append(order[w:])
    p, q = np.concatenate(ps), np.concatenate(qs)
    return np.unique(rows[p] == rows[q], axis=0)


def _violating_pair(
    rows: np.ndarray, lhs_idx: list[int], rhs_idx: int
) -> tuple[int, int] | None:
    """Two rows that agree on the columns ``lhs_idx`` but differ on
    ``rhs_idx``, or None if the FD holds: sorted on lhs then rhs, such
    a pair is adjacent."""
    cols = rows[:, lhs_idx + [rhs_idx]]
    order = np.lexsort(cols.T[::-1])
    s = cols[order]
    hit = np.flatnonzero(
        (s[1:, :-1] == s[:-1, :-1]).all(axis=1) & (s[1:, -1] != s[:-1, -1])
    )
    if not len(hit):
        return None
    return int(order[hit[0]]), int(order[hit[0] + 1])


def hyfd(df: DataFrame | pd.DataFrame, attrs=None) -> set[FD]:
    """All minimal FDs of the instance restricted to ``attrs``."""
    attrs = sorted(attrs) if attrs is not None else sorted(df.columns)
    enc = Encoded.of(df, attrs)
    rows = enc.rows(attrs)
    engine = FDEngine(enc)
    cands = _Candidates(attrs)
    pos = {a: i for i, a in enumerate(attrs)}

    # Phase 1: sampling-driven specialization.
    for eq in _sample_agree_sets(rows, SAMPLE_SIZE):
        cands.specialize(eq)

    # Phase 2: validation + violation-driven refinement. The engine counts
    # the same codes, so every violated candidate has a violating pair,
    # and that pair's agree set removes the candidate.
    for _ in range(MAX_ROUNDS):
        pending = cands.all_fds()
        violated = [d for d, ok in engine.check_fds(pending).items() if not ok]
        if not violated:
            return minimize(set(pending))
        for d in violated:
            p, q = _violating_pair(rows, [pos[a] for a in d.lhs], pos[d.rhs])
            cands.specialize(rows[p] == rows[q])
    raise RuntimeError("HyFD failed to converge")

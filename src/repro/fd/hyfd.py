"""HyFD baseline (Papenbrock & Naumann, SIGMOD'16) — hybrid discovery.

Phase 1 (tuple-pair sampling): a bounded sample of rows is compared
pair-wise under several sort orders (neighbouring rows are likely to
agree somewhere — HyFD's focused sampling); each pair's agree set
refutes candidate FDs, specializing a negative-cover-complement lattice
of candidate minimal FDs.

Phase 2 (validation): surviving candidates are validated with batched
distinct-count jobs on Spark. Every violated candidate yields a real
violating pair whose agree set drives further specialization — the
hybrid back-and-forth of the original algorithm. Terminates when all
candidates validate; the result is exactly the minimal FD set.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.fd.engine import FDEngine
from repro.fd.model import FD, minimize


def _is_nan(v) -> bool:
    return isinstance(v, (float, np.floating)) and np.isnan(v)


def _agree_set(row1: dict, row2: dict, attrs: list[str]) -> frozenset[str]:
    """The attributes on which two rows agree, with the engine's equality:
    NULL (None) equals NULL, NaN equals NaN, and NULL differs from NaN."""
    out = []
    for a in attrs:
        v1, v2 = row1[a], row2[a]
        if v1 == v2 or (v1 is None and v2 is None) or (_is_nan(v1) and _is_nan(v2)):
            out.append(a)
    return frozenset(out)


class _Candidates:
    """Per-rhs sets of candidate minimal lhs's, specialized by non-FDs."""

    def __init__(self, attrs: list[str]):
        self.attrs = attrs
        self.lhss: dict[str, set[frozenset[str]]] = {
            y: {frozenset()} for y in attrs
        }

    def specialize(self, agree: frozenset[str]) -> None:
        """The pair refutes X -> y for every X ⊆ agree, y ∉ agree."""
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


def _sample_pairs(pdf: pd.DataFrame, attrs: list[str], window: int = 4):
    """Neighbouring row pairs under one sort order per attribute."""
    pdf = pdf.reset_index(drop=True)
    rows = pdf.to_dict("records")
    n = len(rows)
    seen: set[tuple[int, int]] = set()
    for a in attrs:
        order = pdf.sort_values(a, kind="stable", na_position="last").index.to_list()
        for i in range(n - 1):
            for w in range(1, min(window, n - 1 - i) + 1):
                p = (min(order[i], order[i + w]), max(order[i], order[i + w]))
                if p[0] != p[1] and p not in seen:
                    seen.add(p)
                    yield rows[p[0]], rows[p[1]]


def _sample_rows(df: DataFrame | pd.DataFrame, n: int, n_rows: int) -> pd.DataFrame:
    """A deterministic sample of up to ``n`` of the ``n_rows`` rows."""
    if isinstance(df, pd.DataFrame):
        if n_rows <= n:
            return df.copy()
        return df.sample(n=n, random_state=0).reset_index(drop=True)
    frac = min(1.0, n / max(1, n_rows) * 1.2)
    rows = df.sample(fraction=frac, seed=0).limit(n).collect()
    # From rows, not toPandas(), which makes NULL in a float column NaN.
    return pd.DataFrame([tuple(r) for r in rows], columns=df.columns, dtype=object)


def _violating_pair(
    df: DataFrame | pd.DataFrame, lhs: frozenset[str], rhs: str
) -> tuple[dict, dict] | None:
    """Two rows that agree on ``lhs`` but differ on ``rhs``, or None if
    the FD holds."""
    lhs = sorted(lhs)
    if isinstance(df, pd.DataFrame):
        groups = (g for _, g in df.groupby(lhs, dropna=False)) if lhs else [df]
        for grp in groups:
            dd = grp.drop_duplicates(subset=[rhs])
            if len(dd) > 1:
                return dd.iloc[0].to_dict(), dd.iloc[1].to_dict()
        return None
    if lhs:
        bad = (
            df.groupBy(*lhs)
            .agg(F.count_distinct(F.struct(rhs)).alias("_n"))
            .filter(F.col("_n") > 1)
            .limit(1)
            .collect()
        )
        if not bad:
            return None
        key = bad[0]
        cond = None
        for a in lhs:
            c = F.col(a).eqNullSafe(F.lit(key[a]))
            cond = c if cond is None else (cond & c)
        df = df.filter(cond)
    rows = df.dropDuplicates([rhs]).limit(2).collect()
    if len(rows) < 2:
        return None
    return rows[0].asDict(), rows[1].asDict()


def hyfd(
    df: DataFrame | pd.DataFrame,
    attrs=None,
    *,
    sample_size: int = 500,
    max_rounds: int = 10_000,
) -> set[FD]:
    """All minimal FDs of the instance restricted to ``attrs``."""
    attrs = sorted(attrs) if attrs is not None else sorted(df.columns)
    if not isinstance(df, pd.DataFrame):
        df = df.select(*attrs)
    engine = FDEngine(df)
    cands = _Candidates(attrs)

    # Phase 1: sampling-driven specialization.
    sample = _sample_rows(df, sample_size, engine.n_rows())
    for r1, r2 in _sample_pairs(sample, attrs):
        ag = _agree_set(r1, r2, attrs)
        if len(ag) < len(attrs):
            cands.specialize(ag)

    # Phase 2: validation + violation-driven refinement.
    for _ in range(max_rounds):
        pending = cands.all_fds()
        results = engine.check_fds(pending)
        violated = [d for d, ok in results.items() if not ok]
        if not violated:
            return minimize(set(pending))
        progressed = False
        for d in violated:
            pair = _violating_pair(df, d.lhs_set(), d.rhs)
            if pair is None:
                continue  # validated meanwhile (specialized away)
            ag = _agree_set(pair[0], pair[1], attrs)
            if len(ag) < len(attrs):
                cands.specialize(ag)
                progressed = True
        if not progressed:
            # All violated candidates were already specialized away by
            # pairs fetched for earlier FDs this round.
            survivors = {d for d, ok in results.items() if ok}
            fresh = set(cands.all_fds())
            if fresh <= survivors:
                return minimize(fresh)
    raise RuntimeError("HyFD failed to converge")

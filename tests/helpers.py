"""Shared test utilities: random instance generators, FD helpers and a
Spark stage counter."""
from __future__ import annotations

import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from repro.fd.engine import Encoded, FDEngine
from repro.fd.model import FD


def random_table(
    seed: int,
    n: int = 30,
    cards=(2, 3, 4, 6),
    derived: bool = True,
    with_nulls: bool = False,
) -> pa.Table:
    """A small random low-cardinality table; ``derived`` adds a column
    functionally determined by two others, ``with_nulls`` turns one
    column into doubles, NULL in a fifth of its rows."""
    g = np.random.default_rng(seed)
    cols = {c: g.integers(0, k, n) for c, k in zip("abcd", cards)}
    if derived:
        cols["e"] = cols["a"] * 10 + cols["c"]
    if with_nulls:
        col = list(cols)[int(g.integers(0, len(cols)))]
        null = np.zeros(n, bool)
        null[np.random.RandomState(seed).choice(n, round(0.2 * n), replace=False)] = True
        cols[col] = pa.array(cols[col].astype("float64"), mask=null)
    return pa.table(cols)


def random_join_pair(seed: int, n_l: int = 35, n_r: int = 12) -> tuple[pa.Table, pa.Table]:
    """Two joinable tables with engineered slack: the left has keys the
    right lacks (tuple loss) and the right has an FD chain for inference."""
    g = np.random.default_rng(seed)
    k = g.integers(0, n_r + 3, n_l)
    L = pa.table({"k": k, "a": g.integers(0, 3, n_l), "b": g.integers(0, 4, n_l), "c": k % 3})
    x = g.integers(0, 3, n_r)
    R = pa.table({"k": np.arange(0, n_r), "x": x, "y": x * 2 + 1})
    return L, R


def semijoin(left: pa.Table, right: pa.Table, key: str = "k") -> pa.Table:
    """The rows of ``left`` whose ``key`` is in ``right``."""
    return left.filter(pc.is_in(left[key], value_set=right[key].combine_chunks()))


def in_process(table: pa.Table) -> FDEngine:
    """An engine that counts ``table`` on the in-process kernel."""
    return FDEngine(Encoded.of(table, table.column_names))


def fdset(*items: str) -> set[FD]:
    """Parse 'a,b->c' strings into FDs (''->c for constants)."""
    out = set()
    for s in items:
        lhs, rhs = s.split("->")
        lhs_attrs = [p for p in lhs.split(",") if p.strip()]
        out.add(FD((p.strip() for p in lhs_attrs), rhs.strip()))
    return out


def spark_stages(spark, fn) -> list[int]:
    """Run ``fn()`` under a fresh Spark job group; the number of stages
    of each job it started, in job id order."""
    sc = spark.sparkContext
    group = f"stages-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc._jsc.clearJobGroup()
    sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
    tracker = sc.statusTracker()
    return [len(tracker.getJobInfo(j).stageIds) for j in sorted(tracker.getJobIdsForGroup(group))]

"""Shared test utilities: random instance generators, FD helpers and a
Spark stage counter."""
from __future__ import annotations

import uuid

import numpy as np
import pandas as pd

from repro.fd.model import FD


def random_table(
    seed: int,
    n: int = 30,
    cards=(2, 3, 4, 6),
    derived: bool = True,
    with_nulls: bool = False,
) -> pd.DataFrame:
    """A small random low-cardinality table; ``derived`` adds a column
    functionally determined by two others, ``with_nulls`` injects NaNs."""
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {c: g.integers(0, k, n) for c, k in zip("abcd", cards)}
    )
    if derived:
        pdf["e"] = pdf["a"] * 10 + pdf["c"]
    if with_nulls:
        col = pdf.columns[int(g.integers(0, len(pdf.columns)))]
        pdf[col] = pdf[col].astype("float64")
        pdf.loc[pdf.sample(frac=0.2, random_state=seed).index, col] = np.nan
    return pdf


def random_join_pair(seed: int, n_l: int = 35, n_r: int = 12):
    """Two joinable tables with engineered slack: the left has keys the
    right lacks (tuple loss) and the right has an FD chain for inference."""
    g = np.random.default_rng(seed)
    L = pd.DataFrame(
        {
            "k": g.integers(0, n_r + 3, n_l),
            "a": g.integers(0, 3, n_l),
            "b": g.integers(0, 4, n_l),
        }
    )
    L["c"] = L["k"] % 3
    R = pd.DataFrame({"k": np.arange(0, n_r), "x": g.integers(0, 3, n_r)})
    R["y"] = R["x"] * 2 + 1
    return L, R


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

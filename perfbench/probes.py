"""Layer probes of the traced run.

- ``spark.empty_job_s``: one aggregate over an empty range, the fixed
  cost of a Spark job here (median of five).
- ``engine.batch32_s.<n>``: one 32-set ``FDEngine.prefetch`` batch, the
  unit of work of every lattice level, on a generated and cached
  instance of 2k, 20k and 200k rows (median of three fresh engines; one
  at 200k rows, where a batch takes seconds).
  The counts are checked against pandas.
"""
from __future__ import annotations

import statistics
import time
from itertools import combinations

import numpy as np
import pandas as pd

from repro.fd.engine import FDEngine

# label -> (rows, repetitions)
SIZES = {"2k": (2_000, 3), "20k": (20_000, 3), "200k": (200_000, 1)}
CARDS = (2, 3, 5, 10, 30, 100, 1_000, 10_000)


def instance(n: int, seed: int) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    return pd.DataFrame({f"a{i}": g.integers(0, k, n) for i, k in enumerate(CARDS)})


def sets32(cols: list[str]) -> list[frozenset[str]]:
    pairs = [frozenset(c) for c in combinations(cols, 2)]
    triples = [frozenset(c) for c in combinations(cols, 3)]
    return (pairs + triples)[:32]


def run_all(spark, seed: int, tally) -> dict[str, float]:
    from pyspark.sql import functions as F

    out = {}
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        spark.range(0).agg(F.count(F.lit(1))).collect()
        times.append(time.perf_counter() - t0)
    out["spark.empty_job_s"] = statistics.median(times)

    for label, (n, reps) in SIZES.items():
        pdf = instance(n, seed)
        sets = sets32(list(pdf.columns))
        want = {s: len(pdf.drop_duplicates(subset=sorted(s))) for s in sets}
        df = spark.createDataFrame(pdf).cache()
        df.count()
        times = []
        for _ in range(reps):
            engine = FDEngine(df, n_rows=n)
            t0 = time.perf_counter()
            engine.prefetch(sets)
            times.append(time.perf_counter() - t0)
            got = {s: engine.distinct_count(s) for s in sets}
            tally.record(
                f"probe batch32 {label}",
                [f"distinct count of {sorted(s)} differs from pandas"
                 for s in sets if got[s] != want[s]],
            )
        df.unpersist()
        out[f"engine.batch32_s.{label}"] = statistics.median(times)
    return out

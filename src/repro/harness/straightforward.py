"""The straightforward approach the paper compares against: materialize
the full SPJ view, then run a single-relation FD discovery algorithm on
the view result. Reported time = view computation + mining (the paper's
comparison setup; base-table discovery time is excluded on both sides
because it is identical)."""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from pyspark.sql import DataFrame

from repro.fd.engine import FDEngine
from repro.fd.fastfds import fastfds
from repro.fd.hyfd import hyfd
from repro.fd.model import FD
from repro.fd.tane import tane_on_engine
from repro.fd.fun import fun_on_engine
from repro.views.spec import ViewSpec


@dataclass
class StraightforwardResult:
    fds: set[FD]
    n_rows: int
    t_view: float  # full SPJ view computation (materialization) seconds
    t_mine: float  # FD discovery on the view result seconds

    @property
    def t_total(self) -> float:
        return self.t_view + self.t_mine


def straightforward(
    tables: Mapping[str, DataFrame],
    spec: ViewSpec,
    algo: str = "fun",
    *,
    backend: str = "spark",
    max_pairs: int | None = 30_000_000,
) -> StraightforwardResult:
    """Run one baseline algorithm over the materialized view.

    ``backend="pandas"`` collects the view once with ``toPandas()`` and
    mines the pandas frame: the reference path of the benchmark's gate.
    """
    if backend not in ("spark", "pandas"):
        raise ValueError(f"unknown backend {backend!r}")
    schemas = {name: tuple(df.columns) for name, df in tables.items()}
    attrs = sorted(spec.proj(schemas))

    t0 = time.perf_counter()
    df = spec.instance(tables).cache()
    n = df.count()
    t_view = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        inst = df.toPandas() if backend == "pandas" else df
        if algo in ("tane", "fun"):
            engine = FDEngine(inst, n_rows=n)
            fds = (tane_on_engine if algo == "tane" else fun_on_engine)(engine, attrs)
        elif algo == "fastfds":
            fds = fastfds(inst, attrs, max_pairs=max_pairs)
        elif algo == "hyfd":
            fds = hyfd(inst, attrs)
        else:
            raise ValueError(f"unknown algorithm {algo!r}")
    finally:
        t_mine = time.perf_counter() - t0
        df.unpersist()
    return StraightforwardResult(fds=fds, n_rows=n, t_view=t_view, t_mine=t_mine)

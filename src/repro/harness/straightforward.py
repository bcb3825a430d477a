"""The straightforward approach the paper compares against: materialize
the full SPJ view, then run a single-relation FD discovery algorithm on
the view result. ``runtime_rows`` times the whole call: view computation
plus mining (the paper's comparison setup; base-table discovery time is
excluded on both sides because it is identical).

TANE (Huhtala et al., Comput. J. 1999) and FUN (Novelli & Cicchetti,
ICDT 2001) are both ``mine_fds``: FUN adds free-set pruning, TANE runs
without it."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from pyspark.sql import DataFrame

from repro.fd.bruteforce import ReferenceCounter
from repro.fd.engine import FDEngine
from repro.fd.fastfds import fastfds
from repro.fd.hyfd import hyfd
from repro.fd.lattice import mine_fds
from repro.fd.model import FD
from repro.views.spec import ViewSpec

# A view whose quadratic agree-set enumeration would exceed this many
# pairs makes FastFDs raise ``PairBudgetExceeded`` instead of running.
FASTFDS_MAX_PAIRS = 20_000_000


@dataclass
class StraightforwardResult:
    fds: set[FD]
    n_rows: int


def straightforward(
    tables: Mapping[str, DataFrame],
    spec: ViewSpec,
    algo: str = "fun",
    *,
    backend: str = "spark",
) -> StraightforwardResult:
    """Run one baseline algorithm over the materialized view.

    ``backend="pandas"`` names the reference path of the benchmark's gate
    (the name is historical): the view is collected with ``toArrow()``;
    TANE and FUN count it on ``ReferenceCounter``, FastFDs and HyFD read
    its codes (``Encoded.of``)."""
    if backend not in ("spark", "pandas"):
        raise ValueError(f"unknown backend {backend!r}")
    schemas = {name: tuple(df.columns) for name, df in tables.items()}
    attrs = sorted(spec.proj(schemas))
    df = spec.instance(tables).cache()
    n = df.count()
    try:
        inst = df.toArrow() if backend == "pandas" else df
        if algo in ("tane", "fun"):
            engine = ReferenceCounter(inst) if backend == "pandas" else FDEngine(df, n_rows=n)
            fds = mine_fds(engine, attrs, free_set_pruning=algo == "fun")
        elif algo == "fastfds":
            fds = fastfds(inst, attrs, max_pairs=FASTFDS_MAX_PAIRS)
        elif algo == "hyfd":
            fds = hyfd(inst, attrs)
        else:
            raise ValueError(f"unknown algorithm {algo!r}")
    finally:
        df.unpersist()
    return StraightforwardResult(fds=fds, n_rows=n)

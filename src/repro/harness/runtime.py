"""Fig. 3 / Fig. 4 as a table — runtime and driver-memory comparison of
InFine against the four straightforward baselines per SPJ view.

Runtime: InFine pipeline time (excluding base-table mining, as the paper
does — that cost is identical on both sides because provenance requires
base FDs either way) vs. view materialization + mining time per baseline.

Memory: ``tracemalloc`` peak of driver-side Python allocations during
a second run (the time comes from a run without tracing), plus the
number of view rows each method materializes — the portable proxies for
the paper's process-peak measurement (DESIGN.md).
"""
from __future__ import annotations

import time
import tracemalloc
from typing import Callable

from pyspark.sql import SparkSession

from repro.core.infine import run_infine
from repro.datasets.queries import QueryDef, all_queries
from repro.fd.fastfds import PairBudgetExceeded
from repro.harness import TableCache
from repro.harness.straightforward import straightforward

BASELINES = ("hyfd", "fun", "tane", "fastfds")


def _measured(fn: Callable) -> tuple[float, float, object]:
    """``fn``'s wall time, its peak of driver-side Python allocations in
    MB, and its result. The two figures come from two calls, because
    tracing slows Python loops several-fold: the time from a call
    without ``tracemalloc``, the peak from a second call under it."""
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()  # also when fn raises, or the next peak inherits it
    return dt, peak / 1e6, out


def runtime_rows(
    spark: SparkSession,
    *,
    scale: "float | dict" = 1.0,
    queries: list[QueryDef] | None = None,
    baselines: tuple[str, ...] = BASELINES,
) -> list[dict]:
    rows = []
    with TableCache(spark, scale) as tables_of:
        for q in queries if queries is not None else all_queries():
            tables = tables_of(q.dataset)
            row: dict = {"db": q.dataset, "view": q.name}
            dt, mem, res = _measured(lambda: run_infine(tables, q.spec))
            infine_time = dt - res.timings["base"]  # base mining excluded (paper setup)
            row["infine_s"] = infine_time
            row["infine_mem_mb"] = mem
            row["infine_fds"] = len(res.triples)
            for algo in baselines:
                try:
                    dt, mem, sres = _measured(
                        lambda a=algo: straightforward(tables, q.spec, algo=a)
                    )
                    row[f"{algo}_s"] = dt
                    row[f"{algo}_mem_mb"] = mem
                    row["view_rows"] = sres.n_rows
                    if sres.fds != res.fds:
                        row[f"{algo}_mismatch"] = True
                except PairBudgetExceeded:  # a lower-bound marker, not a time
                    row[f"{algo}_s"] = None
            rows.append(row)
    return rows


def format_runtime(rows: list[dict], baselines: tuple[str, ...] = BASELINES) -> str:
    hdr = "| DB | View | InFine (s) | " + " | ".join(
        f"{b} (s)" for b in baselines
    ) + " | InFine mem (MB) | " + " | ".join(f"{b} mem (MB)" for b in baselines) + " |"
    out = [hdr, "|" + "---|" * (hdr.count("|") - 1)]
    for r in rows:
        cells = [r["db"], r["view"], f"{r['infine_s']:.2f}"]
        for b in baselines:
            v = r.get(f"{b}_s")
            if v is None:
                cells.append(">budget")
            elif r.get(f"{b}_mismatch"):
                cells.append(f"{v:.2f} MISMATCH")
            else:
                cells.append(f"{v:.2f}")
        cells.append(f"{r['infine_mem_mb']:.1f}")
        for b in baselines:
            v = r.get(f"{b}_mem_mb")
            cells.append(f"{v:.1f}" if v is not None else "-")
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)

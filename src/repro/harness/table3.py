"""Table III — InFine accuracy split and time breakdowns per view.

For each SPJ view: (Att#, Tuple#), coverage, the fraction of FDs
retrieved by each stage (upstage = base + upstaged kinds, infer, mine —
the paper's three "accuracy" columns, summing to 1), the total FD count,
I/O (view/instance materialization) time, and the upstageFDs / mineFDs
stage times.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.infine import run_infine
from repro.datasets.queries import all_queries
from repro.harness import TableCache
from repro.harness.metrics import coverage


def table3_rows(spark: SparkSession, *, scale: "float | dict" = 1.0) -> list[dict]:
    rows = []
    queries = all_queries()
    with TableCache(spark, scale) as tables_of:
        # One untimed run pays Spark's and Arrow's warm-up, so the first
        # view's I/O is timed like its peers'.
        run_infine(tables_of(queries[0].dataset), queries[0].spec)
        for q in queries:
            tables = tables_of(q.dataset)
            res = run_infine(tables, q.spec)
            cov = coverage(tables, q.spec)
            frac = res.stage_fractions()
            n_view = q.spec.instance(tables).count()
            rows.append(
                {
                    "db": q.dataset,
                    "view": q.name,
                    "atts": len(res.proj_attrs),
                    "tuples": n_view,
                    "coverage": cov,
                    "upstage_acc": frac["upstage"],
                    "infer_acc": frac["infer"],
                    "mine_acc": frac["mine"],
                    "total_fds": len(res.triples),
                    "io_s": res.timings["io"],
                    "upstage_s": res.timings["upstage_join"] + res.timings["selection"],
                    "mine_s": res.timings["mine_join"],
                    "infer_s": res.timings["infer"],
                    "base_s": res.timings["base"],
                    "counts": res.counts,
                }
            )
    return rows


def format_table3(rows: list[dict]) -> str:
    out = [
        "| DB | SPJ View | (Att#; Tuple#) | Cov. | Upstage acc | Infer acc "
        "| Mine acc | Total (FD#) | I/O (s) | upstageFDs (s) | mineFDs (s) |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        cov = f"{r['coverage']:.2f}" if r["coverage"] is not None else "-"
        out.append(
            f"| {r['db']} | {r['view']} | ({r['atts']}; {r['tuples']:,}) | {cov} "
            f"| {r['upstage_acc']:.3f} | {r['infer_acc']:.3f} | {r['mine_acc']:.3f} "
            f"| 1 ({r['total_fds']} FDs) | {r['io_s']:.3f} | {r['upstage_s']:.4f} "
            f"| {r['mine_s']:.4f} |"
        )
    return "\n".join(out)

"""Table II — SPJ view characteristics: Tuple# and FD# per view."""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.datasets.queries import all_queries
from repro.harness import TableCache
from repro.harness.straightforward import straightforward


def table2_rows(spark: SparkSession, *, scale: "float | dict" = 1.0) -> list[dict]:
    """One row per view: its size and its FDs mined by FUN."""
    rows = []
    with TableCache(spark, scale) as tables_of:
        for q in all_queries():
            tables = tables_of(q.dataset)
            res = straightforward(tables, q.spec)
            rows.append(
                {
                    "db": q.dataset,
                    "view": q.name,
                    "tuples": res.n_rows,
                    "fds": len(res.fds),
                }
            )
    return rows


def format_table2(rows: list[dict]) -> str:
    out = ["| DB | SPJ View | Tuple# | FD# |", "|---|---|---|---|"]
    for r in rows:
        out.append(f"| {r['db']} | {r['view']} | {r['tuples']:,} | {r['fds']} |")
    return "\n".join(out)

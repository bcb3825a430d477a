"""Table I — base-table characteristics: (Att#, Tuple#, FD#) per table."""
from __future__ import annotations

from typing import Mapping

from pyspark.sql import DataFrame, SparkSession

from repro.datasets import all_datasets
from repro.fd.engine import FDEngine
from repro.fd.fun import fun_on_engine
from repro.harness import resolve_scale


def table1_rows(
    spark: SparkSession,
    *,
    scale: "float | dict" = 1.0,
    datasets: Mapping | None = None,
) -> list[dict]:
    """One row per base table across all datasets."""
    rows = []
    builders = datasets or all_datasets
    for ds_name, build in builders.items():
        tables: Mapping[str, DataFrame] = build(
            spark, scale=resolve_scale(scale, ds_name)
        )
        for tname, df in tables.items():
            df = df.cache()
            n = df.count()
            fds = fun_on_engine(FDEngine(df, n_rows=n), df.columns)
            rows.append(
                {
                    "db": ds_name,
                    "table": tname,
                    "atts": len(df.columns),
                    "tuples": n,
                    "fds": len(fds),
                }
            )
            df.unpersist()
    return rows


def format_table1(rows: list[dict]) -> str:
    out = ["| DB | Table | (Att#; Tuple#) | FD# |", "|---|---|---|---|"]
    for r in rows:
        out.append(
            f"| {r['db']} | {r['table']} | ({r['atts']}; {r['tuples']:,}) | {r['fds']} |"
        )
    return "\n".join(out)

"""Table I — base-table characteristics: (Att#, Tuple#, FD#) per table."""
from __future__ import annotations

from typing import Iterable

from pyspark.sql import SparkSession

from repro.datasets import all_datasets
from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds
from repro.harness import TableCache


def table1_rows(
    spark: SparkSession,
    *,
    scale: "float | dict" = 1.0,
    datasets: Iterable[str] = all_datasets,
) -> list[dict]:
    """One row per base table of each dataset."""
    rows = []
    with TableCache(spark, scale) as tables_of:
        for ds_name in datasets:
            for tname, df in tables_of(ds_name).items():
                n = df.count()
                fds = mine_fds(FDEngine(df, n_rows=n), df.columns)
                rows.append(
                    {
                        "db": ds_name,
                        "table": tname,
                        "atts": len(df.columns),
                        "tuples": n,
                        "fds": len(fds),
                    }
                )
    return rows


def format_table1(rows: list[dict]) -> str:
    out = ["| DB | Table | (Att#; Tuple#) | FD# |", "|---|---|---|---|"]
    for r in rows:
        out.append(
            f"| {r['db']} | {r['table']} | ({r['atts']}; {r['tuples']:,}) | {r['fds']} |"
        )
    return "\n".join(out)

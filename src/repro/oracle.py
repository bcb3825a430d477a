"""DuckDB correctness oracle.

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark DataFrames, or pandas frames or Arrow tables,
which DuckDB reads as they are. Spark inputs, the Spark result and
DuckDB's result all go through Arrow, so NULL and NaN stay two values
(``toPandas()`` would turn both into NaN). Alias every output
column identically on both sides (Spark names ``count(*)`` as
``count(1)``, DuckDB as ``count_star()``) and project to scalar columns
— array/map/struct columns are not orderable so cannot be compared here.
"""
import math
from collections import Counter

import duckdb
import pyarrow as pa
from pyspark.sql import DataFrame


def _cell(v) -> tuple:
    # NULL, then NaN, then values: each a distinct, orderable key. Floats
    # are rounded, so two sums taken in another order agree.
    if v is None:
        return (0,)
    if isinstance(v, float):
        return (1,) if math.isnan(v) else (2, round(v, 6))
    return (2, v)


def _rows(table: pa.Table) -> list[tuple]:
    """``table``'s rows over its columns in name order, sorted."""
    cols = [table.column(c).to_pylist() for c in sorted(table.column_names)]
    return sorted(tuple(_cell(v) for v in row) for row in zip(*cols))


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toArrow() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).arrow()
    finally:
        con.close()
    got = spark_df.toArrow()
    assert set(expected.column_names) == set(got.column_names), (
        f"column mismatch: {sorted(got.column_names)} vs "
        f"{sorted(expected.column_names)} — alias every output column "
        "identically on both sides"
    )
    got_rows, exp_rows = _rows(got), _rows(expected)
    assert got_rows == exp_rows, (
        f"{len(got_rows)} Spark rows vs {len(exp_rows)} DuckDB rows; Spark "
        f"only: {list(Counter(got_rows) - Counter(exp_rows))[:3]}, DuckDB "
        f"only: {list(Counter(exp_rows) - Counter(got_rows))[:3]}"
    )

"""The in-process counting kernel agrees with Spark's
``count_distinct(struct(...))`` and DuckDB's ``count(DISTINCT row(...))``
on NULL, NaN, -0.0, strings, dates, empty and one-row instances, and
on sets wide enough to overflow a packed int64 key."""
import datetime
import struct

import duckdb
import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

import repro.fd.engine as engine_mod
from repro.fd.engine import FDEngine

# A NaN with a payload other than the canonical one.
_NAN2 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]

# column -> (Arrow type, values drawn from; None is NULL)
NARROW = {
    "i": (pa.int64(), [0, 1, 2, None]),
    "f": (pa.float64(), [0.0, -0.0, float("nan"), _NAN2, 1.5, None]),
    "s": (pa.string(), ["", "a", "b", None]),
    "d": (pa.date32(), [datetime.date(2020, 1, 1), datetime.date(1970, 1, 1), None]),
}


@st.composite
def instances(draw, max_rows=40, max_wide=12):
    """An Arrow table of narrow columns plus up to ``max_wide``
    high-cardinality int columns, and attribute sets to count on it (the
    last one holds every column)."""
    n = draw(st.integers(min_value=0, max_value=max_rows))
    cols = {
        c: pa.array(draw(st.lists(st.sampled_from(vals), min_size=n, max_size=n)), t)
        for c, (t, vals) in NARROW.items()
    }
    for j in range(draw(st.integers(min_value=0, max_value=max_wide))):
        vals = st.integers(min_value=-(10**9), max_value=10**9)
        cols[f"w{j}"] = pa.array(draw(st.lists(vals, min_size=n, max_size=n)), pa.int64())
    table = pa.table(cols)
    names = st.sampled_from(table.column_names)
    sets = draw(st.lists(st.frozensets(names, min_size=1), min_size=1, max_size=8))
    return table, sets + [frozenset(table.column_names)]


def spark_counts(spark, table, sets):
    row = spark.createDataFrame(table).agg(
        *(F.count_distinct(F.struct(*sorted(s))) for s in sets)
    ).collect()[0]
    return list(row)


def duckdb_counts(table, sets):
    con = duckdb.connect()
    try:
        con.register("t", table)
        aggs = ", ".join(
            f"count(DISTINCT row({', '.join(sorted(s))}))" for s in sets
        )
        return list(con.execute(f"SELECT {aggs} FROM t").fetchone())
    finally:
        con.close()


def in_process_counts(spark, table, sets):
    e = FDEngine(spark.createDataFrame(table), n_rows=table.num_rows)
    e.prefetch(sets)
    assert e._collected() is not None and e.jobs == 1
    return [e.distinct_count(s) for s in sets]


class TestKernelAgreement:
    @settings(max_examples=30, deadline=None)
    @given(instances())
    def test_in_process_equals_spark_and_duckdb(self, spark, inst):
        table, sets = inst
        got = in_process_counts(spark, table, sets)
        assert got == spark_counts(spark, table, sets)
        assert got == duckdb_counts(table, sets)

    def test_float_and_null_semantics(self, spark):
        # NULL = NULL, NaN = NaN (any payload), -0.0 = 0.0, NULL ≠ NaN.
        table = pa.table({"f": pa.array([None, None, float("nan"), _NAN2, -0.0, 0.0])})
        sets = [frozenset("f")]
        assert in_process_counts(spark, table, sets) == [3]
        assert spark_counts(spark, table, sets) == [3]

    def test_wide_set_agrees(self, spark):
        # 12 columns of 60 distinct values: the packed key's range 60^12
        # exceeds int64, so the partial key is re-encoded on the way.
        g = np.random.default_rng(0)
        table = pa.table({f"w{j}": g.permutation(60) for j in range(12)})
        table = pa.concat_tables([table, table.slice(0, 10)])  # 10 duplicate rows
        sets = [frozenset(table.column_names)]
        assert 60**12 > 2**63
        assert in_process_counts(spark, table, sets) == [60]
        assert spark_counts(spark, table, sets) == [60]

    def test_reencode_before_overflow(self):
        # Without re-encoding, key 1 would become 1·2^24·2^40 = 2^64,
        # which wraps to 0 and collides with row 0.
        cols = [(np.array([0, 1]), 2**40), (np.array([0, 0]), 2**24), (np.array([0, 0]), 2**40)]
        assert engine_mod._distinct_count(cols) == 2

"""Distinct-count engine tests: Spark vs pandas reference, null semantics,
batching, memoization. Small Spark instances take the in-process kernel;
each ``...SparkKernel`` class reruns its parent's tests on the Spark
kernel."""
import numpy as np
import pandas as pd
import pytest

import repro.fd.engine as engine_mod
from repro.fd.engine import FDEngine
from repro.fd.hyfd import _violating_pair
from repro.fd.model import FD
from tests.helpers import random_table


@pytest.fixture(scope="module")
def pdf():
    return random_table(3, n=40, with_nulls=True)


@pytest.fixture
def engines(spark, pdf):
    return FDEngine(spark.createDataFrame(pdf)), FDEngine(pdf)


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "cols", [["a"], ["b"], ["a", "b"], ["a", "c", "d"], ["a", "b", "c", "d", "e"]]
    )
    def test_distinct_counts_match(self, engines, cols):
        se, pe = engines
        assert se.distinct_count(cols) == pe.distinct_count(cols)

    def test_n_rows_match(self, engines):
        se, pe = engines
        assert se.n_rows() == pe.n_rows() == 40

    @pytest.mark.parametrize("seed", range(5))
    def test_holds_matches(self, spark, seed):
        pdf = random_table(seed + 100, n=25, with_nulls=(seed % 2 == 0))
        se, pe = FDEngine(spark.createDataFrame(pdf)), FDEngine(pdf)
        for lhs, rhs in [(["a"], "b"), (["a", "c"], "e"), ([], "a"), (["e"], "a")]:
            assert se.holds(lhs, rhs) == pe.holds(lhs, rhs), (seed, lhs, rhs)


@pytest.mark.usefixtures("spark_kernel")
class TestBackendAgreementSparkKernel(TestBackendAgreement):
    pass


class TestNullSemantics:
    def test_null_equals_null(self, spark):
        pdf = pd.DataFrame({"a": [1.0, 1.0, np.nan, np.nan], "b": [5, 5, 7, 7]})
        se = FDEngine(spark.createDataFrame(pdf))
        # two distinct a-values: 1.0 and NULL (NULL == NULL inside distinct)
        assert se.distinct_count(["a"]) == 2
        assert se.holds(["a"], "b")

    def test_null_breaks_fd_when_rhs_differs(self, spark):
        pdf = pd.DataFrame({"a": [np.nan, np.nan], "b": [1, 2]})
        se = FDEngine(spark.createDataFrame(pdf))
        assert not se.holds(["a"], "b")


@pytest.mark.usefixtures("spark_kernel")
class TestNullSemanticsSparkKernel(TestNullSemantics):
    pass


class TestEmptyAndEdge:
    def test_empty_lhs_constant(self):
        e = FDEngine(pd.DataFrame({"a": [1, 1, 1], "b": [1, 2, 3]}))
        assert e.holds([], "a")
        assert not e.holds([], "b")

    def test_empty_instance_all_fds_hold(self, spark):
        e = FDEngine(spark.createDataFrame([], "a int, b int"))
        assert e.n_rows() == 0
        assert e.holds(["a"], "b") and e.holds([], "a")

    def test_single_row(self):
        e = FDEngine(pd.DataFrame({"a": [1], "b": [2]}))
        assert e.holds([], "a") and e.holds(["a"], "b")


@pytest.mark.usefixtures("spark_kernel")
class TestEmptyAndEdgeSparkKernel(TestEmptyAndEdge):
    pass


class TestBatchingAndCache:
    def test_prefetch_batches_into_one_job(self, spark, pdf):
        e = FDEngine(spark.createDataFrame(pdf), n_rows=len(pdf))
        sets = [frozenset(c) for c in (["a"], ["b"], ["a", "b"], ["c", "d"], ["e"])]
        e.prefetch(sets)
        assert e.jobs == 1
        before = e.jobs
        for s in sets:
            e.distinct_count(s)
        assert e.jobs == before  # all cached

    def test_n_rows_hint_skips_count(self, spark, pdf):
        e = FDEngine(spark.createDataFrame(pdf), n_rows=40)
        assert e.n_rows() == 40
        assert e.jobs == 0

    def test_check_fds_batched(self, spark):
        pdf = random_table(3, n=40, with_nulls=False)  # keep (a,c)->e intact
        e = FDEngine(spark.createDataFrame(pdf))
        fds = [FD(["a"], "e"), FD(["a", "c"], "e"), FD([], "b")]
        res = e.check_fds(fds)
        assert res[FD(["a", "c"], "e")] is True  # e = a*10+c by construction
        assert set(res) == set(fds)


@pytest.mark.usefixtures("spark_kernel")
class TestBatchingAndCacheSparkKernel(TestBatchingAndCache):
    pass


class TestKernelChoice:
    """Instances below ``_COLLECT_CELLS`` cells are collected once and
    counted in process; the rest are counted on Spark."""

    @pytest.mark.parametrize("cap, in_process", [(200, False), (201, True)])
    def test_cap_on_rows_times_columns(self, spark, pdf, monkeypatch, cap, in_process):
        monkeypatch.setattr(engine_mod, "_COLLECT_CELLS", cap)
        e = FDEngine(spark.createDataFrame(pdf), n_rows=len(pdf))  # 40 × 5 cells
        sets = [frozenset(c) for c in (["a"], ["b"], ["a", "b"], ["c", "d"])]
        for s in sets:
            e.prefetch([s])
        assert e.jobs == (1 if in_process else len(sets))
        assert all(e.distinct_count(s) == FDEngine(pdf).distinct_count(s) for s in sets)

    def test_row_bound_skips_count(self, spark, pdf):
        e = FDEngine(spark.createDataFrame(pdf), max_rows=100)
        assert e.n_rows() == 40
        e.prefetch([frozenset("ab")])
        assert e.jobs == 1  # the collect; the row count comes from it

    def test_unknown_row_count_counts_first(self, spark, pdf, monkeypatch):
        monkeypatch.setattr(engine_mod, "_COLLECT_CELLS", 100)
        e = FDEngine(spark.createDataFrame(pdf))
        assert e.n_rows() == 40
        assert e.jobs == 1
        e.prefetch([frozenset("ab"), frozenset("c")])
        assert e.jobs == 2  # 200 cells: counted on Spark

    def test_nested_columns_stay_on_spark(self, spark):
        df = spark.createDataFrame([([1, 2], 1), ([1, 2], 2), ([3], 1)], "a array<int>, b int")
        e = FDEngine(df, n_rows=3)
        assert e.distinct_count(["a"]) == 2 and e.distinct_count(["a", "b"]) == 3
        assert e._collected() is None


class TestViolatingPair:
    """HyFD's violation finder, on the same instance types as the engine."""

    @pytest.mark.parametrize("backend", ["spark", "pandas"])
    def test_pair_found_for_violation(self, spark, backend):
        pdf = pd.DataFrame({"a": [1, 1, 2], "b": [5, 6, 7]})
        df = spark.createDataFrame(pdf) if backend == "spark" else pdf
        pair = _violating_pair(df, frozenset(["a"]), "b")
        assert pair is not None
        r1, r2 = pair
        assert r1["a"] == r2["a"] and r1["b"] != r2["b"]

    @pytest.mark.parametrize("backend", ["spark", "pandas"])
    def test_none_when_fd_holds(self, spark, backend):
        pdf = pd.DataFrame({"a": [1, 1, 2], "b": [5, 5, 7]})
        df = spark.createDataFrame(pdf) if backend == "spark" else pdf
        assert _violating_pair(df, frozenset(["a"]), "b") is None

    def test_empty_lhs_pair(self):
        pair = _violating_pair(pd.DataFrame({"a": [1, 2]}), frozenset(), "a")
        assert pair is not None and pair[0]["a"] != pair[1]["a"]

"""Distinct-count engine tests: Spark vs the reference counter, null semantics,
batching, memoization. Small Spark instances take the in-process kernel;
each ``...SparkKernel`` class reruns its parent's tests on the Spark
kernel."""
import pyarrow as pa
import pytest
from pyspark.sql import functions as F

import repro.fd.engine as engine_mod
from repro.fd.bruteforce import ReferenceCounter
from repro.fd.engine import Encoded, FDEngine
from repro.fd.hyfd import _violating_pair
from repro.fd.model import FD
from tests.helpers import in_process, random_table, spark_stages


@pytest.fixture(scope="module")
def tab():
    return random_table(3, n=40, with_nulls=True)


@pytest.fixture
def engines(spark, tab):
    return FDEngine(spark.createDataFrame(tab)), ReferenceCounter(tab)


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "cols", [["a"], ["b"], ["a", "b"], ["a", "c", "d"], ["a", "b", "c", "d", "e"]]
    )
    def test_distinct_counts_match(self, engines, cols):
        se, pe = engines
        assert se.distinct_count(cols) == pe.distinct_count(cols)

    def test_n_rows_match(self, engines):
        se, pe = engines
        assert se.n_rows() == pe.table.num_rows == 40

    @pytest.mark.parametrize("seed", range(5))
    def test_holds_matches(self, spark, seed):
        tab = random_table(seed + 100, n=25, with_nulls=(seed % 2 == 0))
        se, pe = FDEngine(spark.createDataFrame(tab)), ReferenceCounter(tab)
        for lhs, rhs in [(["a"], "b"), (["a", "c"], "e"), ([], "a"), (["e"], "a")]:
            assert se.holds(lhs, rhs) == pe.holds(lhs, rhs), (seed, lhs, rhs)


@pytest.mark.usefixtures("spark_kernel")
class TestBackendAgreementSparkKernel(TestBackendAgreement):
    pass


class TestNullSemantics:
    def test_null_equals_null(self, spark):
        tab = pa.table({"a": [1.0, 1.0, None, None], "b": [5, 5, 7, 7]})
        se = FDEngine(spark.createDataFrame(tab))
        # two distinct a-values: 1.0 and NULL (NULL == NULL inside distinct)
        assert se.distinct_count(["a"]) == 2
        assert se.holds(["a"], "b")

    def test_null_breaks_fd_when_rhs_differs(self, spark):
        tab = pa.table({"a": pa.array([None, None], pa.float64()), "b": [1, 2]})
        se = FDEngine(spark.createDataFrame(tab))
        assert not se.holds(["a"], "b")

    def test_null_nan_and_zeros_are_three_values(self, spark):
        # -0.0 equals 0.0; NULL and NaN are a value each, also to the
        # reference, which shares no code with either kernel.
        tab = pa.table({"f": [None, float("nan"), -0.0, 0.0]})
        assert ReferenceCounter(tab).distinct_count(["f"]) == 3
        assert FDEngine(spark.createDataFrame(tab)).distinct_count(["f"]) == 3


@pytest.mark.usefixtures("spark_kernel")
class TestNullSemanticsSparkKernel(TestNullSemantics):
    pass


class TestEmptyAndEdge:
    def test_empty_lhs_constant(self):
        e = in_process(pa.table({"a": [1, 1, 1], "b": [1, 2, 3]}))
        assert e.holds([], "a")
        assert not e.holds([], "b")

    def test_empty_instance_all_fds_hold(self, spark):
        e = FDEngine(spark.createDataFrame([], "a int, b int"))
        assert e.n_rows() == 0
        assert e.holds(["a"], "b") and e.holds([], "a")

    def test_counts_only_spark_or_encoded(self):
        with pytest.raises(TypeError):
            FDEngine(pa.table({"a": [1]}))

    def test_single_row(self):
        e = in_process(pa.table({"a": [1], "b": [2]}))
        assert e.holds([], "a") and e.holds(["a"], "b")


@pytest.mark.usefixtures("spark_kernel")
class TestEmptyAndEdgeSparkKernel(TestEmptyAndEdge):
    pass


class TestBatchingAndCache:
    def test_prefetch_batches_into_one_job(self, spark, tab):
        e = FDEngine(spark.createDataFrame(tab), n_rows=tab.num_rows)
        sets = [frozenset(c) for c in (["a"], ["b"], ["a", "b"], ["c", "d"], ["e"])]
        e.prefetch(sets)
        assert e.jobs == 1
        before = e.jobs
        for s in sets:
            e.distinct_count(s)
        assert e.jobs == before  # all cached

    def test_n_rows_hint_skips_count(self, spark, tab):
        e = FDEngine(spark.createDataFrame(tab), n_rows=40)
        assert e.n_rows() == 40
        assert e.jobs == 0

    def test_check_fds_batched(self, spark):
        tab = random_table(3, n=40, with_nulls=False)  # keep (a,c)->e intact
        e = FDEngine(spark.createDataFrame(tab))
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
    def test_cap_on_rows_times_columns(self, spark, tab, monkeypatch, cap, in_process):
        monkeypatch.setattr(engine_mod, "_COLLECT_CELLS", cap)
        e = FDEngine(spark.createDataFrame(tab), n_rows=tab.num_rows)  # 40 × 5 cells
        sets = [frozenset(c) for c in (["a"], ["b"], ["a", "b"], ["c", "d"])]
        for s in sets:
            e.prefetch([s])
        assert e.jobs == (1 if in_process else len(sets))
        assert all(e.distinct_count(s) == ReferenceCounter(tab).distinct_count(s) for s in sets)

    def test_small_instance_one_collect(self, spark, tab):
        e = FDEngine(spark.createDataFrame(tab))
        e.prefetch([frozenset("ab")])
        assert e.n_rows() == 40
        assert e.jobs == 1  # the collect; the row count comes from it

    @pytest.mark.parametrize("rows, in_process", [(40, True), (41, False)])
    def test_collect_bounded_at_fit(self, spark, monkeypatch, rows, in_process):
        # 5 columns under a 201-cell cap: fit = 40 rows.
        monkeypatch.setattr(engine_mod, "_COLLECT_CELLS", 201)
        big = random_table(4, n=41)
        e = FDEngine(spark.createDataFrame(big.slice(0, rows)))
        assert (e.encoded() is not None) is in_process
        assert e.jobs == 1  # the bounded collect, even when it overflows
        assert e.n_rows() == rows
        assert e.jobs == (1 if in_process else 2)

    def test_above_cap_counts_on_spark(self, spark, tab, monkeypatch):
        monkeypatch.setattr(engine_mod, "_COLLECT_CELLS", 100)
        e = FDEngine(spark.createDataFrame(tab))
        sets = [frozenset("ab"), frozenset("c"), frozenset("ace")]
        e.prefetch(sets)
        assert e.encoded() is None
        assert e.jobs == 2  # 200 cells: one bounded collect, one count batch
        assert all(e.distinct_count(s) == ReferenceCounter(tab).distinct_count(s) for s in sets)
        assert e.n_rows() == 40

    @pytest.fixture(scope="class")
    def leaf(self, spark):
        """A cached base table of 100 rows in 4 partitions, whatever the
        number of cores: Spark knows its row count exactly."""
        i = F.col("id")
        df = spark.range(0, 100, 1, 4).select(i, (i % 7).alias("a"), (i % 3).alias("b"))
        df = df.cache()
        df.count()
        yield df
        df.unpersist()

    @staticmethod
    def _agrees_with_reference(e, inst):
        ref = ReferenceCounter(inst.toArrow())
        sets = [frozenset(s) for s in (["a"], ["b"], ["a", "b"], ["id", "b"])]
        return e.n_rows() == ref.table.num_rows and all(
            e.distinct_count(s) == ref.distinct_count(s) for s in sets
        )

    @staticmethod
    def _plan_rows(df) -> int:
        """The ``rowCount`` statistic of ``df``'s top plan node."""
        return df._jdf.queryExecution().optimizedPlan().stats().rowCount().get()

    @pytest.mark.parametrize(
        "make",
        [
            lambda df: df,
            lambda df: df.select("a", "b"),
            lambda df: df.withColumnRenamed("a", "x"),
            lambda df: df.filter(F.col("a") > 2),
        ],
        ids=["cached", "pruned", "renamed", "filtered"],
    )
    def test_known_size_collected_whole(self, spark, leaf, make):
        # The statistic bounds the instance below fit, so it is collected
        # whole: one job of one stage. A bounded collect (limit) would
        # shuffle the 4 partitions into one: 2 stages.
        inst = make(leaf)
        e = FDEngine(inst)
        assert spark_stages(spark, e.encoded) == [1]
        assert e.encoded() is not None and e.jobs == 1
        assert e.n_rows() == inst.count() and e.jobs == 1

    def test_no_statistic_bounded_collect(self, spark):
        # A DataFrame over an RDD has no row-count statistic: it keeps the
        # bounded collect (2 stages), still one job.
        rows = [(int(k % 5), int(k % 3)) for k in range(40)]
        df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), "a long, b long")
        e = FDEngine(df)
        assert spark_stages(spark, e.encoded) == [2]
        assert e.encoded() is not None and e.jobs == 1
        assert e.n_rows() == 40 and e.jobs == 1

    def test_statistic_is_not_the_row_count(self, spark, leaf):
        # Spark estimates a sample at 50 rows and a left semijoin at its
        # left side's 100; the row count is the collected one.
        sample = leaf.sample(fraction=0.5, seed=7)  # 46 rows
        semi = leaf.join(spark.range(0, 100, 3, 2), "id", "left_semi")
        for inst, estimate in ((sample, 50), (semi, 100)):
            assert self._plan_rows(inst) == estimate != inst.count()
            e = FDEngine(inst)
            assert e.encoded() is not None
            assert e.n_rows() == inst.count()
            assert self._agrees_with_reference(e, inst)

    def test_underestimate_stays_on_spark(self, spark, leaf, monkeypatch):
        # 3 columns under a 151-cell cap: fit = 50 rows. Spark estimates
        # the sample at 50 rows, so it is collected whole, but it holds
        # 57: it stays on Spark, whose count is exact.
        monkeypatch.setattr(engine_mod, "_COLLECT_CELLS", 151)
        inst = leaf.sample(fraction=0.5, seed=2)
        assert self._plan_rows(inst) == 50 and inst.count() == 57
        e = FDEngine(inst)
        assert e.encoded() is None and e.jobs == 1
        assert e.n_rows() == 57 and e.jobs == 2
        assert self._agrees_with_reference(e, inst)

    def test_nested_columns_stay_on_spark(self, spark):
        df = spark.createDataFrame([([1, 2], 1), ([1, 2], 2), ([3], 1)], "a array<int>, b int")
        e = FDEngine(df, n_rows=3)
        assert e.distinct_count(["a"]) == 2 and e.distinct_count(["a", "b"]) == 3
        assert e.encoded() is None
        with pytest.raises(pa.ArrowNotImplementedError):  # no code for a list
            Encoded.of(df, ["a", "b"])


class TestViolatingPair:
    """HyFD's violation finder, on the codes of both instance types."""

    @staticmethod
    def rows(spark, backend, tab):
        df = spark.createDataFrame(tab) if backend == "spark" else tab
        return Encoded.of(df, tab.column_names).rows(tab.column_names)

    @pytest.mark.parametrize("backend", ["spark", "arrow"])
    def test_pair_found_for_violation(self, spark, backend):
        tab = pa.table({"a": [1, 1, 2], "b": [5, 6, 7]})
        rows = self.rows(spark, backend, tab)
        pair = _violating_pair(rows, [0], 1)
        assert pair is not None
        r1, r2 = rows[pair[0]], rows[pair[1]]
        assert r1[0] == r2[0] and r1[1] != r2[1]
        assert {tab["b"][p].as_py() for p in pair} == {5, 6}

    @pytest.mark.parametrize("backend", ["spark", "arrow"])
    def test_none_when_fd_holds(self, spark, backend):
        tab = pa.table({"a": [1, 1, 2], "b": [5, 5, 7]})
        assert _violating_pair(self.rows(spark, backend, tab), [0], 1) is None

    def test_empty_lhs_pair(self):
        rows = Encoded.of(pa.table({"a": [1, 2]}), ["a"]).rows(["a"])
        pair = _violating_pair(rows, [], 0)
        assert pair is not None and rows[pair[0], 0] != rows[pair[1], 0]

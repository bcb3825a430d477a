"""Lattice miner tests: against brute force, pruning behaviour, hooks."""
from collections import Counter

import pyarrow as pa
import pytest

from repro.fd.bruteforce import brute_force_fds
from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds, subset_minimal
from repro.fd.model import FD
from tests.helpers import fdset, in_process, random_table


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables(self, seed):
        tab = random_table(seed, n=25 + seed, with_nulls=(seed % 3 == 0))
        assert mine_fds(in_process(tab), tab.column_names) == brute_force_fds(tab)

    @pytest.mark.parametrize("seed", range(6))
    def test_no_free_set_pruning_same_result(self, seed):
        tab = random_table(seed + 50, n=30)
        ref = brute_force_fds(tab)
        assert mine_fds(in_process(tab), tab.column_names, free_set_pruning=False) == ref

    @pytest.mark.parametrize("seed", range(4))
    def test_spark_backend_matches(self, spark, seed):
        tab = random_table(seed + 20, n=20)
        sdf = spark.createDataFrame(tab)
        assert mine_fds(FDEngine(sdf), tab.column_names) == brute_force_fds(tab)


class TestCraftedInstances:
    def test_constant_column(self):
        tab = pa.table({"a": [1, 1, 1], "b": [1, 2, 3]})
        fds = mine_fds(in_process(tab), tab.column_names)
        assert FD([], "a") in fds
        assert FD(["b"], "a") not in fds  # subsumed by the constant FD

    def test_key_column(self):
        tab = pa.table({"k": [1, 2, 3], "x": [5, 5, 7], "y": [1, 2, 2]})
        fds = mine_fds(in_process(tab), tab.column_names)
        assert FD(["k"], "x") in fds and FD(["k"], "y") in fds

    def test_two_attr_minimal_lhs(self):
        tab = pa.table(
            {"a": [0, 0, 1, 1], "b": [0, 1, 0, 1], "c": [0, 1, 2, 3]}
        )
        fds = mine_fds(in_process(tab), tab.column_names)
        assert FD(["a", "b"], "c") in fds
        assert FD(["c"], "a") in fds and FD(["c"], "b") in fds

    def test_empty_instance(self):
        tab = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        assert mine_fds(in_process(tab), tab.column_names) == fdset("->a", "->b")


class TestKnownPruning:
    def test_known_fds_not_reemitted(self):
        tab = pa.table({"a": [1, 1, 2], "b": [5, 5, 7], "c": [0, 1, 0]})
        known = fdset("a->b")
        out = mine_fds(in_process(tab), tab.column_names, known=known)
        assert FD(["a"], "b") not in out
        assert not (out & known)

    def test_only_new_fds_found(self):
        # b -> a holds; knowing it, a superset candidate must not reappear
        tab = pa.table({"a": [1, 1, 2], "b": [3, 3, 4], "c": [0, 1, 1]})
        ref = mine_fds(in_process(tab), tab.column_names)
        known = {next(iter(ref))}
        out = mine_fds(in_process(tab), tab.column_names, known=known)
        assert out == ref - known


class TestHooks:
    def test_rhs_pool_restriction(self):
        tab = random_table(1, n=20)
        out = mine_fds(in_process(tab), tab.column_names, rhs_pool=["e"])
        assert {d.rhs for d in out} <= {"e"}
        ref = {d for d in brute_force_fds(tab) if d.rhs == "e"}
        assert out == ref

    def test_plausible_vetoes(self):
        tab = random_table(1, n=20)
        out = mine_fds(in_process(tab), tab.column_names, plausible=lambda lhs, rhs: False)
        assert out == set()

    def test_plausible_asked_once_per_candidate(self):
        tab = random_table(2, n=30)
        asked = Counter()

        def plausible(lhs, rhs):
            asked[lhs, rhs] += 1
            return True

        out = mine_fds(in_process(tab), tab.column_names, plausible=plausible)
        assert out == brute_force_fds(tab)
        assert any(len(lhs) >= 2 for lhs, _ in asked)
        assert max(asked.values()) == 1


class TestBatching:
    def test_one_spark_job_per_level_pair(self, spark):
        tab = random_table(4, n=20)
        e = FDEngine(spark.createDataFrame(tab), n_rows=20)
        mine_fds(e, tab.column_names)
        # levels ≈ 4; each level costs ≤ 2 aggregation jobs (lhs + lhs∪rhs)
        assert e.jobs <= 12


@pytest.mark.usefixtures("spark_kernel")
class TestBatchingSparkKernel(TestBatching):
    pass


def test_subset_minimal():
    fam = [frozenset("a"), frozenset("ab"), frozenset("bc")]
    assert subset_minimal(fam) == {frozenset("a"), frozenset("bc")}

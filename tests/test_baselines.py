"""Baseline FD-discovery algorithms (TANE, FUN, FastFDs, HyFD) must all
agree with the brute-force reference on randomized and crafted data."""
import numpy as np
import pyarrow as pa
import pytest

from repro.fd.bruteforce import ReferenceCounter, brute_force_fds
from repro.fd.engine import Encoded, FDEngine
from repro.fd.fastfds import PairBudgetExceeded, agree_sets, fastfds
import repro.fd.hyfd as hyfd_mod
from repro.fd.hyfd import hyfd
from repro.fd.lattice import mine_fds
from repro.fd.model import FD
from tests.helpers import fdset, in_process, random_table

SEEDS = range(8)


class TestTane:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_bruteforce(self, seed):
        tab = random_table(seed, n=24, with_nulls=(seed % 2 == 0))
        got = mine_fds(in_process(tab), tab.column_names, free_set_pruning=False)
        assert got == brute_force_fds(tab)

    def test_spark_entrypoint(self, spark):
        tab = random_table(0, n=15)
        e = FDEngine(spark.createDataFrame(tab))
        assert mine_fds(e, tab.column_names, free_set_pruning=False) == brute_force_fds(tab)


class TestFun:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_bruteforce(self, seed):
        tab = random_table(seed + 30, n=24, with_nulls=(seed % 2 == 1))
        got = mine_fds(in_process(tab), tab.column_names, free_set_pruning=True)
        assert got == brute_force_fds(tab)

    def test_free_set_pruning_uses_fewer_checks(self):
        # non-free sets abound when columns are correlated
        tab = random_table(5, n=40)
        e_fun, e_tane = in_process(tab), in_process(tab)
        fun_fds = mine_fds(e_fun, tab.column_names, free_set_pruning=True)
        tane_fds = mine_fds(e_tane, tab.column_names, free_set_pruning=False)
        assert fun_fds == tane_fds
        assert len(e_fun._cache) <= len(e_tane._cache)

    def test_spark_entrypoint(self, spark):
        tab = random_table(1, n=15)
        e = FDEngine(spark.createDataFrame(tab))
        assert mine_fds(e, tab.column_names, free_set_pruning=True) == brute_force_fds(tab)


class TestFastFDs:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_bruteforce(self, seed):
        tab = random_table(seed + 60, n=24, with_nulls=(seed % 2 == 0))
        assert fastfds(tab) == brute_force_fds(tab)

    def test_encode_nulls_one_class(self):
        tab = pa.table({"a": [1.0, float("nan"), float("nan")]})
        enc = Encoded.of(tab, ["a"]).rows(["a"])
        assert enc[1, 0] == enc[2, 0] != enc[0, 0]

    def test_agree_sets_simple(self):
        enc = np.array([[0, 0], [0, 1], [1, 1]])
        ags = agree_sets(enc)
        assert frozenset([0]) in ags and frozenset([1]) in ags
        assert frozenset([0, 1]) not in ags

    def test_duplicate_rows_collapsed(self):
        enc = np.array([[0, 0], [0, 0], [1, 1]])
        # the only surviving pair differs everywhere -> empty agree set
        assert agree_sets(enc) == {frozenset()}

    def test_all_different_pair_kept(self):
        # regression: a table whose only FD evidence is a pair differing
        # on every attribute must not be reported as constant
        tab = pa.table({"d": [1, 2, 3], "act": ["n", "n", "p"]})
        fds = fastfds(tab)
        assert FD([], "act") not in fds
        assert FD(["d"], "act") in fds

    def test_pair_budget_raises(self):
        tab = pa.table({"a": [0] * 100, "b": list(range(100))})
        with pytest.raises(PairBudgetExceeded):
            fastfds(tab, max_pairs=10)

    def test_pair_budget_is_the_class_pair_total(self):
        # The budget counts, per column, the pairs of distinct rows that
        # agree on it; the check is made before any pair is compared.
        enc = np.random.default_rng(0).integers(0, 3, (30, 4))
        rows = np.unique(enc, axis=0)
        total = sum(
            int(np.sum(rows[i] == rows[j]))
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
        )
        assert len(rows) < len(enc) and total > 0
        with pytest.raises(PairBudgetExceeded):
            agree_sets(enc, max_pairs=total - 1)
        assert agree_sets(enc, max_pairs=total) == agree_sets(enc)

    def test_constant_and_key(self):
        tab = pa.table({"k": [1, 2, 3], "c": [9, 9, 9], "x": [4, 4, 5]})
        fds = fastfds(tab)
        assert FD([], "c") in fds and FD(["k"], "x") in fds

    def test_spark_entrypoint(self, spark):
        tab = random_table(2, n=15)
        assert fastfds(spark.createDataFrame(tab)) == brute_force_fds(tab)


class TestHyFD:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_bruteforce(self, seed):
        tab = random_table(seed + 90, n=24, with_nulls=(seed % 3 == 0))
        assert hyfd(tab) == brute_force_fds(tab)

    def test_tiny_sample_still_exact(self, monkeypatch):
        # force the validation/refinement loop to do all the work
        monkeypatch.setattr(hyfd_mod, "SAMPLE_SIZE", 5)
        tab = random_table(7, n=60)
        assert hyfd(tab) == brute_force_fds(tab)

    def test_spark_backend(self, spark):
        tab = random_table(3, n=20)
        assert hyfd(spark.createDataFrame(tab)) == brute_force_fds(tab)

    @pytest.mark.parametrize(
        "rows,schema,expected",
        [
            ([(1, None), (1, float("nan")), (2, 3.0)], "a long, y double", ["y->a"]),
            # the sample holds the NULL/NaN pair, so phase 1 must see it too
            ([(None, 1), (float("nan"), 2)], "y double, z long", ["y->z", "z->y"]),
        ],
        ids=["validated", "sampled"],
    )
    def test_null_differs_from_nan(self, spark, monkeypatch, rows, schema, expected):
        """NULL and NaN in one float column are two values to the engine;
        HyFD must agree, or it never specializes the violated candidate,
        and so must FastFDs' agree sets."""
        monkeypatch.setattr(hyfd_mod, "MAX_ROUNDS", 20)
        df = spark.createDataFrame(rows, schema)
        fun = mine_fds(FDEngine(df), df.columns, free_set_pruning=True)
        assert fun == fdset(*expected)
        assert hyfd(df) == fun
        assert fastfds(df) == fun

    def test_null_differs_from_nan_arrow(self, monkeypatch):
        monkeypatch.setattr(hyfd_mod, "MAX_ROUNDS", 20)
        tab = pa.table({"a": [1, 1, 2], "y": [None, float("nan"), 3.0]})
        fun = mine_fds(ReferenceCounter(tab), tab.column_names, free_set_pruning=True)
        assert fun == fdset("y->a")
        assert hyfd(tab) == fun
        assert fastfds(tab) == fun


class TestCrossAlgorithm:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_four_agree(self, seed):
        tab = random_table(seed + 200, n=30, cards=(2, 2, 3, 5))
        results = {
            "tane": mine_fds(in_process(tab), tab.column_names, free_set_pruning=False),
            "fun": mine_fds(in_process(tab), tab.column_names, free_set_pruning=True),
            "fastfds": fastfds(tab),
            "hyfd": hyfd(tab),
        }
        first = results["tane"]
        assert all(r == first for r in results.values())

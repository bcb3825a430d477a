"""Unit tests for the InFine component algorithms (Alg. 2-5)."""
import pandas as pd
import pytest

from repro.core.infer_fds import infer_join_fds
from repro.core.join_upstaged import process_side
from repro.core.mine_join_fds import mine_join_fds
from repro.core.selection_fds import selection_upstaged
from repro.fd.bruteforce import brute_force_fds
from repro.fd.engine import FDEngine
from repro.fd.model import FD
from tests.helpers import fdset


@pytest.fixture(scope="module")
def join_case(spark):
    """L(k,a,flag,v) ⋈ R(k,x,y): engineered so every stage has work.

    - flag -> v violated only by the dangling tuple k=9 (upstaged left)
    - a -> k on the reduced L (a is unique there) enables inference
    - R: x -> y (base), k -> x,y (key)
    """
    L = pd.DataFrame(
        {
            "k": [0, 1, 2, 3, 9],
            "a": [10, 11, 12, 13, 10],
            "flag": [0, 1, 0, 1, 0],
            "v": [5, 6, 5, 6, 7],
        }
    )
    R = pd.DataFrame({"k": [0, 1, 2, 3], "x": [0, 1, 0, 1]})
    R["y"] = R["x"] * 3
    sL, sR = spark.createDataFrame(L), spark.createDataFrame(R)
    join = sL.join(sR, on=["k"], how="inner")
    return L, R, sL, sR, join


class TestSelectionFDs:
    def test_no_filtering_no_mining(self, spark):
        pdf = pd.DataFrame({"a": [1, 2], "b": [3, 4]})
        e = FDEngine(spark.createDataFrame(pdf), n_rows=2)
        assert selection_upstaged(e, 2, frozenset("ab"), fdset("a->b")) == set()

    def test_upstaged_after_filter(self, spark):
        pdf = pd.DataFrame({"a": [0, 0, 1], "b": [5, 6, 7]})
        sel = spark.createDataFrame(pdf).filter("b <> 6")
        e = FDEngine(sel)
        out = selection_upstaged(e, 3, frozenset("ab"), set())
        assert FD(["a"], "b") in out

    def test_known_pruned(self, spark):
        pdf = pd.DataFrame({"a": [0, 1], "b": [5, 7], "c": [1, 1]})
        e = FDEngine(spark.createDataFrame(pdf))
        out = selection_upstaged(e, 5, frozenset("abc"), fdset("a->b", "->c"))
        assert FD(["a"], "b") not in out and FD([], "c") not in out


def _factory():
    """An engine factory for ``process_side`` and the engines it built."""
    built: list[FDEngine] = []

    def make(df, **hints):
        built.append(FDEngine(df, **hints))
        return built[-1]

    return make, built


class TestJoinUpstaged:
    def test_inner_loses_side_mined(self, join_case):
        L, R, sL, sR, join = join_case
        out = process_side(
            sL, 5, brute_force_fds(L), sR, join, ("k",),
            frozenset(L.columns) | frozenset(R.columns),
            loses=True, padded=False, make_engine=FDEngine,
        )
        assert FD(["flag"], "v") in out.upstaged
        assert not out.dropped

    def test_no_loss_short_circuit(self, join_case):
        L, R, sL, sR, join = join_case
        fds = brute_force_fds(R)
        make, built = _factory()
        out = process_side(
            sR, 4, fds, sL, join, ("k",), frozenset(R.columns),
            loses=False, padded=False, make_engine=make,
        )
        assert out.kept == fds and not out.upstaged and not built

    def test_padded_validation_drops_broken_fd(self, spark):
        # left join pads right attrs with NULLs; rhs x has a NULL vs value
        L = pd.DataFrame({"k": [1, 2], "a": [0, 0]})
        R = pd.DataFrame({"k": [1], "x": [5], "w": [1]})
        sL, sR = spark.createDataFrame(L), spark.createDataFrame(R)
        join = sL.join(sR, on=["k"], how="left")
        # claim const-x on R ( -> x ) — broken by padding in the view
        out = process_side(
            sR, 1, fdset("->x", "->w"), sL, join, ("k",),
            frozenset(["k", "x", "w"]), loses=True, padded=True,
            make_engine=FDEngine,
        )
        assert FD([], "x") in out.dropped and FD([], "w") in out.dropped

    def test_semi_reduction_counts(self, join_case):
        L, R, sL, sR, join = join_case
        make, built = _factory()
        process_side(
            sL, 5, set(), sR, join, ("k",), frozenset(L.columns),
            loses=True, padded=False, make_engine=make,
        )
        assert built[0].n_rows() == 4  # k=9 dropped


class TestInferFDs:
    def test_transitive_inference(self, join_case):
        L, R, sL, sR, join = join_case
        scope = frozenset(L.columns) | frozenset(R.columns)
        engine = FDEngine(join)
        d_left = brute_force_fds(L[L.k.isin(R.k)])
        d_right = brute_force_fds(R)
        out = infer_join_fds(
            engine, frozenset(["k"]), frozenset(L.columns), frozenset(R.columns),
            d_left, d_right, scope=scope,
        )
        # a -> k on reduced L; k -> x,y on R  =>  a -> x, a -> y
        assert FD(["a"], "x") in out and FD(["a"], "y") in out

    def test_k_itself_is_a_lhs(self, join_case):
        L, R, sL, sR, join = join_case
        engine = FDEngine(join)
        out = infer_join_fds(
            engine, frozenset(["k"]), frozenset(L.columns), frozenset(R.columns),
            set(), fdset("x->y", "k->x", "k->y"),
            scope=frozenset(L.columns) | frozenset(R.columns),
        )
        # K -> b inferred FDs are cross-table: k -> x, k -> y are
        # single-side here (k,x,y all in R), so they are NOT emitted
        assert all(d.attrs() & frozenset(["a", "flag", "v"]) for d in out)

    def test_refine_finds_smaller_lhs(self, spark):
        # raw inference yields (a,b) -> x but a alone works on the join
        L = pd.DataFrame({"k": [0, 1, 2, 3], "a": [0, 1, 2, 3], "b": [0, 0, 1, 1]})
        R = pd.DataFrame({"k": [0, 1, 2, 3], "x": [4, 5, 6, 7]})
        join = spark.createDataFrame(L).join(spark.createDataFrame(R), on=["k"])
        out = infer_join_fds(
            FDEngine(join), frozenset(["k"]), frozenset(L.columns),
            frozenset(R.columns),
            fdset("a,b->k"), fdset("k->x"),
            scope=frozenset(["k", "a", "b", "x"]),
        )
        assert FD(["a"], "x") in out
        assert FD(["a", "b"], "x") not in out


class TestMineJoinFDs:
    def test_theorem3_counterexample_found(self, spark):
        L = pd.DataFrame({"k": [0, 1, 1, 2], "A": [0, 0, 1, 2]})
        R = pd.DataFrame({"k": [0, 1, 1, 2], "Ap": [0, 0, 1, 1], "b": [0, 0, 1, 0]})
        join = spark.createDataFrame(L).join(spark.createDataFrame(R), on=["k"])
        d_l = brute_force_fds(L)
        d_r = brute_force_fds(R)
        out = mine_join_fds(
            FDEngine(join), frozenset(["k", "A", "Ap", "b"]), frozenset(["k"]),
            frozenset(L.columns), frozenset(R.columns), d_l, d_r,
            known=d_l | d_r,
        )
        assert FD(["A", "Ap"], "b") in out

    def test_skips_when_no_feasible_rhs(self, spark):
        # right side has no FD K∪rest -> b at all => nothing to mine and
        # zero candidate checks
        L = pd.DataFrame({"k": [0, 0, 1, 1], "a": [0, 1, 0, 1]})
        R = pd.DataFrame({"k": [0, 0, 1, 1], "b": [0, 1, 2, 3]})
        join = spark.createDataFrame(L).join(spark.createDataFrame(R), on=["k"])
        e = FDEngine(join)
        out = mine_join_fds(
            e, frozenset(["a", "b"]), frozenset(["k"]),
            frozenset(L.columns), frozenset(R.columns), set(), set(), known=set(),
        )
        assert out == set() and e.jobs == 0

    def test_single_side_candidates_excluded(self, join_case):
        L, R, sL, sR, join = join_case
        d_l = brute_force_fds(L[L.k.isin(R.k)])
        d_r = brute_force_fds(R)
        out = mine_join_fds(
            FDEngine(join), frozenset(L.columns) | frozenset(R.columns),
            frozenset(["k"]), frozenset(L.columns), frozenset(R.columns),
            d_l, d_r, known=d_l | d_r,
        )
        for d in out:  # every mined FD must straddle both sides
            s = d.attrs() - {"k"}
            assert s & {"x", "y"} and s & {"a", "flag", "v"}, str(d)

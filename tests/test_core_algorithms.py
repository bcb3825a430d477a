"""Unit tests for the InFine component algorithms (Alg. 2-5)."""
import numpy as np
import pandas as pd
import pytest

import repro.core.join_upstaged as join_upstaged
from repro.core.infer_fds import infer_join_fds
from repro.core.join_upstaged import process_side
from repro.core.mine_join_fds import mine_join_fds
from repro.core.selection_fds import selection_upstaged
from repro.fd.bruteforce import brute_force_fds
from repro.fd.engine import FDEngine
from repro.fd.model import FD, by_rhs, has_subset_fd
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


class TestJoinUpstaged:
    def test_inner_loses_side_mined(self, join_case):
        L, R, sL, sR, join = join_case
        fds = brute_force_fds(L)
        out = process_side(
            FDEngine(sL), fds, FDEngine(join), frozenset(L.columns),
            loses=True, padded=False,
        )
        assert FD(["flag"], "v") in out.upstaged
        assert out.kept == fds

    def test_no_loss_short_circuit(self, join_case):
        L, R, sL, sR, join = join_case
        fds = brute_force_fds(R)
        side, joined = FDEngine(sR), FDEngine(join)
        out = process_side(
            side, fds, joined, frozenset(R.columns), loses=False, padded=False,
        )
        assert out.kept == fds and not out.upstaged
        assert side.jobs == joined.jobs == 0

    def test_padded_validation_drops_broken_fd(self, spark):
        # left join pads right attrs with NULLs; rhs x has a NULL vs value
        L = pd.DataFrame({"k": [1, 2], "a": [0, 0]})
        R = pd.DataFrame({"k": [1], "x": [5], "w": [1]})
        sL, sR = spark.createDataFrame(L), spark.createDataFrame(R)
        join = sL.join(sR, on=["k"], how="left")
        # claim const-x on R ( -> x ) — broken by padding in the view
        out = process_side(
            FDEngine(sR), fdset("->x", "->w"), FDEngine(join),
            frozenset(["k", "x", "w"]), loses=True, padded=True,
        )
        assert FD([], "x") not in out.kept and FD([], "w") not in out.kept

    def test_semi_reduction_counts(self, spark, join_case, monkeypatch):
        """A losing side is mined iff the join shrinks its set of tuples,
        and the two collects are the only Spark jobs."""
        L, R, sL, sR, join = join_case
        mined = []
        monkeypatch.setattr(
            join_upstaged, "mine_fds", lambda e, cols, **kw: mined.append(cols) or set()
        )
        # L loses k=9: four distinct L tuples on the join, five on L.
        side, joined = FDEngine(sL), FDEngine(join)
        process_side(
            side, set(), joined, frozenset(L.columns), loses=True, padded=False,
        )
        assert mined == [frozenset(L.columns)]
        assert side.jobs == joined.jobs == 1
        # Each R tuple meets two L tuples: the join has twice R's rows but
        # the same set of R tuples, so R gains no FD and is not mined.
        L2 = spark.createDataFrame(pd.concat([L, L]).query("k != 9"))
        join2 = L2.join(sR, on=["k"], how="inner")
        side, joined = FDEngine(sR), FDEngine(join2)
        process_side(
            side, set(), joined, frozenset(R.columns), loses=True, padded=False,
        )
        assert joined.n_rows() == 2 * side.n_rows()
        assert mined == [frozenset(L.columns)]


class TestInferFDs:
    def test_transitive_inference(self, join_case):
        L, R, sL, sR, join = join_case
        engine = FDEngine(join)
        d_left = brute_force_fds(L[L.k.isin(R.k)])
        d_right = brute_force_fds(R)
        out = infer_join_fds(
            engine, frozenset(["k"]), frozenset(L.columns), frozenset(R.columns),
            d_left, d_right,
        )
        # a -> k on reduced L; k -> x,y on R  =>  a -> x, a -> y
        assert FD(["a"], "x") in out and FD(["a"], "y") in out

    def test_k_itself_is_a_lhs(self, join_case):
        L, R, sL, sR, join = join_case
        engine = FDEngine(join)
        out = infer_join_fds(
            engine, frozenset(["k"]), frozenset(L.columns), frozenset(R.columns),
            set(), fdset("x->y", "k->x", "k->y"),
        )
        # K -> b inferred FDs are cross-table: k -> x, k -> y are
        # single-side here (k,x,y all in R), so they are NOT emitted
        assert all(d.attrs() & frozenset(["a", "flag", "v"]) for d in out)

    @pytest.mark.parametrize("how", ["inner", "left", "right", "full"])
    def test_refine_finds_smaller_lhs(self, spark, how):
        # raw inference yields (a,b) -> x but a alone works on the join
        L = pd.DataFrame({"k": [0, 1, 2, 3], "a": [0, 1, 2, 3], "b": [0, 0, 1, 1]})
        R = pd.DataFrame({"k": [0, 1, 2, 3], "x": [4, 5, 6, 7]})
        join = spark.createDataFrame(L).join(spark.createDataFrame(R), on=["k"], how=how)
        out = infer_join_fds(
            FDEngine(join), frozenset(["k"]), frozenset(L.columns),
            frozenset(R.columns),
            fdset("a,b->k"), fdset("k->x"),
        )
        assert FD(["a"], "x") in out
        assert FD(["a", "b"], "x") not in out

    @pytest.mark.parametrize("how", ["inner", "left", "right", "full"])
    def test_sound_with_null_keys(self, spark, how):
        """NULL join keys on both sides, so every outer join pads: each
        inferred FD is a minimal FD of the join that no side FD implies.
        The padded rows keep a -> k and k -> x, so a -> x is inferred on
        every operator."""
        g = np.random.default_rng(5)
        key_of = [None, 0, 1, 2, 3, 4, None, 5]  # a -> k on L
        L = [(key_of[a], int(a), int(g.integers(0, 3))) for a in g.integers(0, 8, 30)]
        R = [(k, int(x), int(x) % 2) for k, x in enumerate(g.integers(0, 4, 6))]
        R.append((None, None, None))
        sL = spark.createDataFrame(L, "k long, a long, b long")
        sR = spark.createDataFrame(R, "k long, x long, y long")
        join = sL.join(sR, on=["k"], how=how)
        jp = join.toPandas()
        atts_l, atts_r = frozenset(sL.columns), frozenset(sR.columns)
        # Each side's complete FD set on the join, as InFine passes it.
        fds_l, fds_r = brute_force_fds(jp, atts_l), brute_force_fds(jp, atts_r)
        out = infer_join_fds(
            FDEngine(join), frozenset(["k"]), atts_l, atts_r, fds_l, fds_r
        )
        side = by_rhs(fds_l | fds_r)
        assert out <= brute_force_fds(jp)
        assert not any(has_subset_fd(side, d.lhs_set(), d.rhs) for d in out)
        assert FD(["a"], "x") in out


class TestMineJoinFDs:
    def test_theorem3_counterexample_found(self, spark):
        L = pd.DataFrame({"k": [0, 1, 1, 2], "A": [0, 0, 1, 2]})
        R = pd.DataFrame({"k": [0, 1, 1, 2], "Ap": [0, 0, 1, 1], "b": [0, 0, 1, 0]})
        join = spark.createDataFrame(L).join(spark.createDataFrame(R), on=["k"])
        d_l = brute_force_fds(L)
        d_r = brute_force_fds(R)
        out = mine_join_fds(
            FDEngine(join), frozenset(["k"]), frozenset(L.columns),
            frozenset(R.columns), d_l, d_r, known=d_l | d_r,
        )
        assert FD(["A", "Ap"], "b") in out

    def test_skips_when_one_side_is_only_K(self, spark):
        # every candidate lies on the left side, so Theorem 4 vetoes every
        # rhs (K too) with the maximal lhs: nothing is counted
        L = pd.DataFrame({"k": [0, 0, 1, 1], "a": [0, 1, 0, 1]})
        R = pd.DataFrame({"k": [0, 1, 1]})
        join = spark.createDataFrame(L).join(spark.createDataFrame(R), on=["k"])
        e = FDEngine(join)
        d_l = brute_force_fds(L)
        out = mine_join_fds(
            e, frozenset(["k"]), frozenset(L.columns), frozenset(R.columns),
            d_l, set(), known=d_l,
        )
        assert out == set() and e.jobs == 0

    def test_single_side_candidates_excluded(self, join_case):
        L, R, sL, sR, join = join_case
        d_l = brute_force_fds(L[L.k.isin(R.k)])
        d_r = brute_force_fds(R)
        out = mine_join_fds(
            FDEngine(join), frozenset(["k"]), frozenset(L.columns),
            frozenset(R.columns), d_l, d_r, known=d_l | d_r,
        )
        for d in out:  # every mined FD must straddle both sides
            s = d.attrs() - {"k"}
            assert s & {"x", "y"} and s & {"a", "flag", "v"}, str(d)

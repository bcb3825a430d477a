"""The paper's theorems and lemmas, encoded as executable properties."""
from itertools import combinations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from repro.fd.bruteforce import brute_force_fds
from repro.fd.engine import FDEngine
from repro.fd.model import FD, closure
from tests.helpers import random_join_pair, random_table, semijoin


def _join(L, R):
    return L.join(R, "k", join_type="inner")


class TestTheorem1:
    """fds(π) ⊆ D, fds(σ) ⊇ D, fds(join) ⊇ D1 ∪ D2 (restricted to the
    surviving side for tuple-dropping joins on null-free data)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_selection_only_adds(self, seed):
        tab = random_table(seed, n=30)
        d_before = brute_force_fds(tab)
        sel = tab.filter(pc.less(tab["a"], 2))
        d_after = brute_force_fds(sel)
        # every FD before still holds (may be non-minimal now)
        for d in d_before:
            assert d.rhs in closure(d.lhs, d_after), str(d)

    @pytest.mark.parametrize("seed", range(5))
    def test_projection_only_removes(self, seed):
        tab = random_table(seed + 10, n=30)
        cols = ["a", "b", "c"]
        d_full = brute_force_fds(tab)
        d_proj = brute_force_fds(tab.select(cols))
        # FDs of the projection are exactly the full FDs within the columns
        assert d_proj == {d for d in d_full if d.attrs() <= set(cols)}

    @pytest.mark.parametrize("seed", range(5))
    def test_join_preserves_side_fds(self, seed):
        L, R = random_join_pair(seed)
        j = _join(L, R)
        d_join = brute_force_fds(j)
        # FDs of the semijoin-reduced sides persist in the join
        for side in (semijoin(L, R), semijoin(R, L)):
            for d in brute_force_fds(side):
                assert d.rhs in closure(d.lhs, d_join), str(d)


class TestLemma2Upstaged:
    def test_upstaged_by_tuple_removal(self):
        # violating tuple has no join partner -> FD becomes valid (Example 2)
        L = pa.table(
            {"k": [1, 2, 9], "flag": [0, 1, 0], "v": [5, 6, 7]}
        )  # flag -> v violated only by row k=9
        R = pa.table({"k": [1, 2], "w": [3, 3]})
        assert FD(["flag"], "v") not in brute_force_fds(L)
        reduced = semijoin(L, R)
        assert FD(["flag"], "v") in brute_force_fds(reduced)
        assert FD(["flag"], "v") in brute_force_fds(_join(L, R))


class TestLemma2JoinProjection:
    """Lemma 2 as InFine counts it: over a side's attributes, the side's
    projection of an inner or semi join holds the same set of tuples as
    the side reduced by a semijoin (neither join matches a NULL key), so
    every distinct count, and with it every FD, agrees."""

    @staticmethod
    def _side(spark, g, n, names):
        rows = [
            tuple(None if g.random() < 0.2 else int(g.integers(0, 3)) for _ in range(2))
            + tuple(int(g.integers(0, 3)) for _ in names[2:])
            for _ in range(n)
        ]
        rows += rows[: n // 3]  # duplicate rows
        return spark.createDataFrame(rows, ", ".join(f"{c} int" for c in names))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("how", ["inner", "left_semi"])
    def test_every_subset_counts_alike(self, spark, seed, how):
        g = np.random.default_rng(seed)
        K = ["k1", "k2"]  # NULLs in either part, duplicate keys on both sides
        L = self._side(spark, g, 30, K + ["a", "b"])
        R = self._side(spark, g, 12, K + ["x"])
        for side, other in [(L, R), (R, L)] if how == "inner" else [(L, R)]:
            cols = side.columns
            joined = FDEngine(side.join(other, on=K, how=how).select(*cols))
            reduced = FDEngine(side.join(other.select(*K).distinct(), on=K, how="left_semi"))
            assert reduced.n_rows() < FDEngine(side).n_rows()  # the join drops tuples
            if how == "inner":  # and repeats others: the bags differ, the sets agree
                assert joined.n_rows() > reduced.n_rows()
            for r in range(1, len(cols) + 1):
                for c in combinations(cols, r):
                    assert joined.distinct_count(c) == reduced.distinct_count(c), c


class TestLemma3:
    @pytest.mark.parametrize("seed", range(6))
    def test_no_cross_fd_without_key_fd(self, seed):
        L, R = random_join_pair(seed + 40)
        j = _join(L, R)
        d = brute_force_fds(j)
        for rhs in ("x", "y"):
            if rhs not in closure(["k"], d):
                # K does not determine rhs => no pure-left lhs determines it
                for fd in d:
                    if fd.rhs == rhs:
                        assert not fd.lhs_set() <= {"a", "b", "c"}, str(fd)


class TestTheorem2Transitivity:
    @pytest.mark.parametrize("seed", range(6))
    def test_a_to_k_k_to_b_implies_a_to_b(self, seed):
        L, R = random_join_pair(seed + 80)
        j = _join(L, R)
        d = brute_force_fds(j)
        # c = k % 3 does not determine k in general; but whenever A->k and
        # k->b hold on the join, A->b must hold.
        for lhs in (frozenset(["a"]), frozenset(["a", "b"]), frozenset(["c", "a"])):
            cl = closure(lhs, d)
            if "k" in cl:
                for b in ("x", "y"):
                    assert b in cl, (seed, sorted(lhs), b)


class TestTheorem3Counterexample:
    """The paper's proof tables: AA' -> b holds on the join but is not
    Armstrong-derivable from the side FDs."""

    def L(self):
        return pa.table({"k": [0, 1, 1, 2], "A": [0, 0, 1, 2]})

    def R(self):
        return pa.table({"k": [0, 1, 1, 2], "Ap": [0, 0, 1, 1], "b": [0, 0, 1, 0]})

    def test_join_fd_exists(self):
        j = _join(self.L(), self.R())
        d = brute_force_fds(j)
        assert "b" in closure(["A", "Ap"], d)

    def test_not_inferable_from_sides(self):
        dl = brute_force_fds(self.L())
        dr = brute_force_fds(self.R())
        # transitivity through k is unavailable: {A,Ap} does not determine k
        assert "k" not in closure(["A"], dl)
        assert "b" not in closure(["Ap"], dr)


class TestTheorem4:
    @pytest.mark.parametrize("seed", range(6))
    def test_join_fd_implies_key_family_fd(self, seed):
        L, R = random_join_pair(seed + 120)
        j = _join(L, R)
        d = brute_force_fds(j)
        # For every valid cross FD C -> b with b on the right side,
        # K ∪ (C ∩ right) -> b must hold too.
        right_excl = {"x", "y"}
        for fd in d:
            if fd.rhs in right_excl and not fd.lhs_set() <= right_excl | {"k"}:
                fam = frozenset({"k"} | (fd.lhs_set() & right_excl))
                assert fd.rhs in closure(fam, d), str(fd)

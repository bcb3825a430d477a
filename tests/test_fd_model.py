"""Unit tests for the FD model (repro.fd.model)."""
import pytest

from repro.fd.model import (
    FD,
    by_rhs,
    closure,
    determines,
    has_subset_fd,
    minimize,
)
from tests.helpers import fdset


class TestFD:
    def test_lhs_sorted_dedup(self):
        assert FD(["b", "a", "b"], "c").lhs == ("a", "b")

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            FD(["a", "b"], "a")

    def test_empty_lhs(self):
        d = FD([], "a")
        assert d.lhs == () and d.rhs == "a"
        assert str(d) == " -> a"

    def test_equality_hash(self):
        assert FD(["a", "b"], "c") == FD(["b", "a"], "c")
        assert len({FD(["a"], "c"), FD(["a"], "c")}) == 1

    def test_ordering_deterministic(self):
        fds = sorted([FD(["b"], "c"), FD(["a"], "c"), FD(["a"], "b")])
        assert fds[0] == FD(["a"], "b")

    def test_attrs(self):
        assert FD(["a", "b"], "c").attrs() == {"a", "b", "c"}

    def test_str_roundtrip_via_helper(self):
        assert fdset("a,b->c") == {FD(["a", "b"], "c")}


class TestClosure:
    def test_reflexive(self):
        assert closure(["a"], []) == {"a"}

    def test_single_step(self):
        assert closure(["a"], fdset("a->b")) == {"a", "b"}

    def test_transitive(self):
        assert closure(["a"], fdset("a->b", "b->c")) == {"a", "b", "c"}

    def test_multi_attr_lhs(self):
        fds = fdset("a,b->c", "c->d")
        assert closure(["a"], fds) == {"a"}
        assert closure(["a", "b"], fds) == {"a", "b", "c", "d"}

    def test_constant_fd_applies_everywhere(self):
        assert "z" in closure(["a"], fdset("->z"))


class TestSubsetIndex:
    def test_has_subset_fd(self):
        idx = by_rhs(fdset("a->c", "b,d->e"))
        assert has_subset_fd(idx, frozenset("ab"), "c")
        assert not has_subset_fd(idx, frozenset("b"), "e")
        assert has_subset_fd(idx, frozenset("bd"), "e")

    def test_empty_lhs_always_subset(self):
        idx = by_rhs(fdset("->c"))
        assert has_subset_fd(idx, frozenset(), "c")
        assert has_subset_fd(idx, frozenset("ab"), "c")

    def test_determines(self):
        idx = by_rhs(fdset("a->k1", "a->k2"))
        assert determines(idx, frozenset("a"), ["k1", "k2"])
        assert determines(idx, frozenset(["k1"]), ["k1"])  # self-membership
        assert not determines(idx, frozenset("b"), ["k1"])


class TestMinimize:
    def test_subset_wins(self):
        assert minimize(fdset("a->c", "a,b->c")) == fdset("a->c")

    def test_different_rhs_kept(self):
        fds = fdset("a->c", "a,b->d")
        assert minimize(fds) == fds

    def test_incomparable_kept(self):
        fds = fdset("a,b->e", "c,d->e")
        assert minimize(fds) == fds

    def test_empty_lhs_subsumes_all(self):
        assert minimize(fdset("->c", "a->c", "a,b->c")) == fdset("->c")

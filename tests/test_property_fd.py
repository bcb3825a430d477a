"""Property-based tests (hypothesis) for the pure FD machinery and the
miners over Arrow tables — no Spark needed."""
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.bruteforce import ReferenceCounter, brute_force_fds
from repro.fd.fastfds import fastfds
from repro.fd.hyfd import hyfd
from repro.fd.lattice import mine_fds
from repro.fd.model import FD, by_rhs, closure, has_subset_fd, minimize
from tests.helpers import in_process

ATTRS = ["a", "b", "c", "d"]


@st.composite
def tables(draw, max_rows=14):
    n = draw(st.integers(min_value=1, max_value=max_rows))
    cols = {}
    for a in ATTRS:
        card = draw(st.integers(min_value=1, max_value=3))
        cols[a] = draw(
            st.lists(
                st.integers(min_value=0, max_value=card), min_size=n, max_size=n
            )
        )
    return pa.table(cols)


# Values that one equality must tell apart (None, NaN) or merge (-0.0, 0.0).
FLOATS = [None, float("nan"), -0.0, 0.0, 1.0]


@st.composite
def null_tables(draw, max_rows=12):
    """Tables whose double columns mix NULL, NaN, -0.0 and 0.0."""
    n = draw(st.integers(min_value=1, max_value=max_rows))
    cols = {}
    for a in ATTRS:
        if draw(st.booleans()):
            vals, typ = st.integers(min_value=0, max_value=2), pa.int64()
        else:
            vals, typ = st.sampled_from(FLOATS), pa.float64()
        cols[a] = pa.array(draw(st.lists(vals, min_size=n, max_size=n)), typ)
    return pa.table(cols)


@st.composite
def fd_sets(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    out = set()
    for _ in range(n):
        rhs = draw(st.sampled_from(ATTRS))
        lhs = draw(
            st.frozensets(st.sampled_from(ATTRS), max_size=3).map(
                lambda s, r=rhs: s - {r}
            )
        )
        out.add(FD(lhs, rhs))
    return out


class TestMinerProperties:
    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_lattice_equals_bruteforce(self, tab):
        assert mine_fds(in_process(tab), ATTRS) == brute_force_fds(tab)

    @settings(max_examples=25, deadline=None)
    @given(tables())
    def test_fastfds_equals_bruteforce(self, tab):
        assert fastfds(tab) == brute_force_fds(tab)

    @settings(max_examples=40, deadline=None)
    @given(null_tables())
    def test_baselines_equal_engine_on_nulls(self, tab):
        """HyFD and FastFDs use the engine's equality: NULL equals NULL,
        NaN equals NaN, -0.0 equals 0.0, and NULL differs from NaN. The
        reference is FUN on ``ReferenceCounter``, and FUN on the
        in-process kernel agrees with it."""
        fun = mine_fds(ReferenceCounter(tab), ATTRS, free_set_pruning=True)
        assert mine_fds(in_process(tab), ATTRS, free_set_pruning=True) == fun
        assert hyfd(tab) == fun
        assert fastfds(tab) == fun

    @settings(max_examples=25, deadline=None)
    @given(tables())
    def test_every_mined_fd_holds(self, tab):
        e = in_process(tab)
        for d in mine_fds(e, ATTRS):
            assert e.holds(d.lhs_set(), d.rhs)

    @settings(max_examples=25, deadline=None)
    @given(tables())
    def test_selection_preserves_fds(self, tab):
        """Theorem 1 (σ case) as a property: filtering rows never
        invalidates an FD."""
        before = brute_force_fds(tab)
        sel = tab.filter(pc.less_equal(tab["a"], 1))
        after = brute_force_fds(sel)
        for d in before:
            assert d.rhs in closure(d.lhs, after)


class TestModelProperties:
    @settings(max_examples=50, deadline=None)
    @given(fd_sets())
    def test_minimize_is_antichain(self, fds):
        out = minimize(fds)
        for d in out:
            for e in out:
                if d is not e and d.rhs == e.rhs:
                    assert not d.lhs_set() < e.lhs_set()

    @settings(max_examples=50, deadline=None)
    @given(fd_sets())
    def test_minimize_preserves_implication(self, fds):
        out = minimize(fds)
        idx = by_rhs(out)
        for d in fds:
            assert has_subset_fd(idx, d.lhs_set(), d.rhs)

    @settings(max_examples=50, deadline=None)
    @given(fd_sets(), st.frozensets(st.sampled_from(ATTRS), max_size=4))
    def test_closure_monotone_and_idempotent(self, fds, attrs):
        c1 = closure(attrs, fds)
        assert attrs <= c1
        assert closure(c1, fds) == c1

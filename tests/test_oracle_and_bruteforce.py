"""Oracle + brute-force reference sanity tests."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.fd.bruteforce import brute_force_fds
from repro.fd.model import FD
from repro.oracle import assert_equivalent
from tests.helpers import fdset


class TestOracle:
    def test_simple_agreement(self, spark):
        pdf = pd.DataFrame({"a": [1, 2], "b": [3, 4]})
        sdf = spark.createDataFrame(pdf)
        assert_equivalent(sdf, "SELECT a, b FROM t", t=pdf)

    def test_detects_mismatch(self, spark):
        pdf = pd.DataFrame({"a": [1, 2]})
        sdf = spark.createDataFrame(pdf).filter("a = 1")
        with pytest.raises(AssertionError):
            assert_equivalent(sdf, "SELECT a FROM t", t=pdf)

    def test_column_alias_check(self, spark):
        pdf = pd.DataFrame({"a": [1]})
        sdf = spark.createDataFrame(pdf)
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(sdf, "SELECT a AS b FROM t", t=pdf)


    def test_detects_null_turned_into_nan(self, spark):
        D = spark.createDataFrame([(None,), (float("nan"),), (1.0,)], "d double")
        assert_equivalent(D, "SELECT d FROM D", D=D)
        with pytest.raises(AssertionError):
            assert_equivalent(
                D,
                "SELECT CASE WHEN d IS NULL THEN 'NaN'::DOUBLE ELSE d END AS d FROM D",
                D=D,
            )


class TestBruteForce:
    def test_known_fds(self):
        tab = pa.table({"k": [1, 2, 3], "v": [5, 5, 6]})
        assert brute_force_fds(tab) == fdset("k->v")

    def test_constant(self):
        tab = pa.table({"c": [7, 7], "x": [1, 2]})
        out = brute_force_fds(tab)
        assert FD([], "c") in out

    def test_minimality(self):
        tab = pa.table(
            {"a": [0, 0, 1, 1], "b": [0, 1, 0, 1], "c": [0, 1, 2, 3]}
        )
        out = brute_force_fds(tab)
        assert FD(["a", "b"], "c") in out
        # no non-minimal FD in the output
        for d in out:
            for e in out:
                if d != e and d.rhs == e.rhs:
                    assert not d.lhs_set() < e.lhs_set()

    def test_attr_restriction(self):
        tab = pa.table({"a": [1, 2], "b": [1, 2], "c": [9, 9]})
        out = brute_force_fds(tab, attrs=["a", "b"])
        assert all(d.attrs() <= {"a", "b"} for d in out)

    def test_nan_equals_nan(self):
        tab = pa.table({"a": [float("nan"), float("nan")], "b": [1, 1]})
        out = brute_force_fds(tab)
        assert FD([], "a") in out and FD([], "b") in out

    def test_null_differs_from_nan_over_any_columns(self):
        """NULL and NaN in one float column are two values whether a set
        has one column or several: merged over several, they would make
        ``a,b -> c`` hold while ``a -> c`` does not, and ``c -> a`` hold."""
        tab = pa.table({"a": [1.5, None, float("nan")], "b": [0, 0, 0], "c": [1, 0, 0]})
        assert brute_force_fds(tab) == fdset("->b", "a->c")

    def test_zeros_equal_and_nan_payloads_equal(self):
        """``-0.0`` equals ``0.0``, and a NaN equals a NaN of another bit
        pattern, as in both kernels."""
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000001], np.uint64).view(np.float64)
        tab = pa.table({"a": [-0.0, 0.0, nans[0], nans[1]], "b": [0, 0, 1, 1]})
        assert brute_force_fds(tab) == fdset("a->b", "b->a")

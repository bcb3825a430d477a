"""Oracle + brute-force reference sanity tests."""
import numpy as np
import pandas as pd
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


class TestBruteForce:
    def test_known_fds(self):
        pdf = pd.DataFrame({"k": [1, 2, 3], "v": [5, 5, 6]})
        assert brute_force_fds(pdf) == fdset("k->v")

    def test_constant(self):
        pdf = pd.DataFrame({"c": [7, 7], "x": [1, 2]})
        out = brute_force_fds(pdf)
        assert FD([], "c") in out

    def test_minimality(self):
        pdf = pd.DataFrame(
            {"a": [0, 0, 1, 1], "b": [0, 1, 0, 1], "c": [0, 1, 2, 3]}
        )
        out = brute_force_fds(pdf)
        assert FD(["a", "b"], "c") in out
        # no non-minimal FD in the output
        for d in out:
            for e in out:
                if d != e and d.rhs == e.rhs:
                    assert not d.lhs_set() < e.lhs_set()

    def test_attr_restriction(self):
        pdf = pd.DataFrame({"a": [1, 2], "b": [1, 2], "c": [9, 9]})
        out = brute_force_fds(pdf, attrs=["a", "b"])
        assert all(d.attrs() <= {"a", "b"} for d in out)

    def test_nan_equals_nan(self):
        pdf = pd.DataFrame({"a": [float("nan"), float("nan")], "b": [1, 1]})
        out = brute_force_fds(pdf)
        assert FD([], "a") in out and FD([], "b") in out

    def test_null_differs_from_nan_over_any_columns(self):
        """None and NaN in one object column are two values whether a set
        has one column or several: ``drop_duplicates`` alone merges them
        over several, which made ``a,b -> c`` hold while ``a -> c`` did
        not, and made ``c -> a`` hold."""
        pdf = pd.DataFrame(
            {"a": pd.Series(["x", None, np.nan], dtype=object), "b": [0, 0, 0], "c": [1, 0, 0]}
        )
        assert brute_force_fds(pdf) == fdset("->b", "a->c")

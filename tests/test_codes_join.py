"""Joins built in the driver on dictionary codes (``Encoded.join``) agree
with Spark's ``df.join`` on every operator, key shape and NULL/NaN case,
and InFine keeps a join on Spark when its output would not fit."""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.infine as infine_mod
import repro.fd.engine as engine_mod
from repro.core.infine import run_infine
from repro.core.mine_join_fds import mine_join_fds
from repro.fd.bruteforce import brute_force_fds
from repro.fd.engine import FDEngine
from repro.views.spec import _OPS, BaseRel, Join
from tests.helpers import random_join_pair

HOWS = ["inner", "left", "right", "full", "semi"]
NAN = float("nan")


def _rows(g, n, keys, cols):
    """``n`` rows: each key column drawn from its pool (duplicates and
    NULLs included), then small integer columns."""
    return [
        tuple(pool[g.integers(len(pool))] for pool in keys)
        + tuple(int(v) for v in g.integers(0, 3, cols))
        for _ in range(n)
    ]


# Key pools per case: (schema of the key columns, left pool, right pool).
# Each pool repeats values (many-to-many matches) and holds NULL.
KEY_CASES = {
    "one_int": ("k long", [[0, 1, 2, 3, 3, None]], [[2, 3, 3, 4, 5, None]]),
    "two_cols": (
        "k long, k2 string",
        [[0, 1, 2, None], ["a", "b", None]],
        [[1, 2, 2, None], ["a", "b", "c", None]],
    ),
    "double": (
        "k double",
        [[0.0, -0.0, NAN, None, 1.5, 1.5]],
        [[0.0, -0.0, NAN, NAN, None, 2.5]],
    ),
    "string": ("k string", [["x", "y", "y", "", None]], [["y", "z", "", "", None]]),
}


def _sides(spark, case, seed=0):
    schema, lpool, rpool = KEY_CASES[case]
    g = np.random.default_rng(seed)
    on = [c.split()[0] for c in schema.split(", ")]
    left = spark.createDataFrame(_rows(g, 24, lpool, 2), f"{schema}, a long, b long")
    right = spark.createDataFrame(_rows(g, 16, rpool, 2), f"{schema}, x long, y long")
    return left, right, on


def _encoded(df):
    enc = FDEngine(df).encoded()
    assert enc is not None
    return enc


def _assert_same(enc, spark_join):
    """Every non-empty column subset counts alike on the codes-built
    join and on an engine over the collected Spark join, and the row
    counts (bags) are equal."""
    assert enc is not None
    assert set(enc.cols) == set(spark_join.columns)
    got, ref = FDEngine(enc), FDEngine(spark_join)
    assert got.n_rows() == spark_join.count()
    cols = sorted(enc.cols)
    for r in range(1, len(cols) + 1):
        for s in itertools.combinations(cols, r):
            assert got.distinct_count(s) == ref.distinct_count(s), s


class TestAgainstSpark:
    @pytest.mark.parametrize("case", sorted(KEY_CASES))
    @pytest.mark.parametrize("how", HOWS)
    def test_codes_join_equals_spark_join(self, spark, how, case):
        left, right, on = _sides(spark, case)
        enc = _encoded(left).join(_encoded(right), on, how)
        _assert_same(enc, left.join(right, on=on, how=_OPS[how].spark))

    @pytest.mark.parametrize("outer", HOWS)
    @pytest.mark.parametrize(
        "inner, case",
        [
            pytest.param(inner, case, id=inner if case == "one_int" else f"{inner}-{case}")
            for inner in ("left", "full")
            for case in sorted(KEY_CASES)
        ],
    )
    def test_child_built_on_codes(self, spark, inner, outer, case):
        # The inner join pads x (left) or coalesces the key (full); the
        # outer join matches on both, so padded and coalesced key codes
        # must still match like Spark's values, and padded NULLs match
        # nothing. The third side draws its keys from the right pool.
        left, right, on = _sides(spark, case, seed=1)
        schema, _, rpool = KEY_CASES[case]
        third = spark.createDataFrame(
            _rows(np.random.default_rng(2), 12, [[0, 1, 2, None], *rpool], 1),
            f"x long, {schema}, z long",
        )
        child = _encoded(left).join(_encoded(right), on, inner)
        enc = child.join(_encoded(third), ["x", *on], outer)
        spark_child = left.join(right, on=on, how=_OPS[inner].spark)
        _assert_same(enc, spark_child.join(third, on=["x", *on], how=_OPS[outer].spark))

    def test_semijoin_keeps_each_left_row_once(self, spark):
        left = spark.createDataFrame([(1, 0), (1, 0), (2, 0)], "k long, a long")
        right = spark.createDataFrame([(1, 5), (1, 6), (1, 7)], "k long, x long")
        enc = _encoded(left).join(_encoded(right), ["k"], "semi")
        assert enc.n_rows == 2 == left.join(right, "k", "left_semi").count()

    @pytest.mark.parametrize("empty", ["left", "right", "both"])
    @pytest.mark.parametrize("how", HOWS)
    def test_empty_side(self, spark, how, empty):
        left, right, on = _sides(spark, "two_cols")
        if empty != "right":
            left = left.limit(0)
        if empty != "left":
            right = right.limit(0)
        enc = _encoded(left).join(_encoded(right), on, how)
        _assert_same(enc, left.join(right, on=on, how=_OPS[how].spark))


# Join trees as nested pairs of table indices: depth 2 over four tables,
# and depth 3 with the nested child on the left and on the right.
SHAPES = [((0, 1), (2, 3)), (((0, 1), 2), 3), (0, ((1, 2), 3))]
# Key pools with duplicates, NULL, NaN, -0.0/0.0 and strings, and the
# keys of each table. A join is on all the keys its sides share: one or
# two columns in these shapes.
TREE_KEYS = {
    "k": ("double", [0.0, -0.0, NAN, NAN, None, 1.5, 1.5, 2.5]),
    "s": ("string", ["x", "y", "y", "", None]),
    "i": ("long", [0, 1, 1, 2, None]),
}
TABLE_KEYS = [["k"], ["k", "s"], ["k", "s"], ["k", "i"]]


class TestRandomTrees:
    @pytest.fixture(scope="class")
    def tables(self, spark):
        """Four small tables with seeded rows, as Spark frames and as
        encoded instances."""
        g = np.random.default_rng(7)
        out = []
        for t, keys in enumerate(TABLE_KEYS):
            schema = ", ".join(f"{k} {TREE_KEYS[k][0]}" for k in keys)
            rows = _rows(g, int(g.integers(6, 11)), [TREE_KEYS[k][1] for k in keys], 1)
            df = spark.createDataFrame(rows, f"{schema}, a{t} long")
            out.append((df, _encoded(df)))
        return out

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("turn", range(len(HOWS)))
    def test_codes_tree_equals_spark_tree(self, tables, shape, turn):
        # The operator at depth d is HOWS[(turn + d) % 5], so over the
        # five turns every level of every shape meets every operator.
        def build(node, depth):
            if isinstance(node, int):
                return tables[node]
            (ldf, lenc), (rdf, renc) = (build(c, depth + 1) for c in node)
            on = sorted(set(ldf.columns) & set(rdf.columns))
            how = HOWS[(turn + depth) % len(HOWS)]
            enc = lenc.join(renc, on, how)
            assert enc is not None
            return ldf.join(rdf, on=on, how=_OPS[how].spark), enc

        spark_tree, enc = build(shape, 0)
        _assert_same(enc, spark_tree)


class TestStaysOnSpark:
    def test_join_above_cap_stays_on_spark(self, spark, monkeypatch):
        L, R = random_join_pair(3)
        n_join = L.join(R, "k", join_type="inner").num_rows
        cap = 4 * L.num_rows + 1  # L (4 columns) and R (3) fit, L ⋈ R (6) does not
        assert R.num_rows <= (cap - 1) // 3 and n_join > (cap - 1) // 6
        monkeypatch.setattr(engine_mod, "_COLLECT_CELLS", cap)
        seen = []

        def stage(join_engine, *args, **kwargs):
            seen.append(join_engine.encoded() is not None)
            return mine_join_fds(join_engine, *args, **kwargs)

        monkeypatch.setattr(infine_mod, "mine_join_fds", stage)
        tables = {"L": spark.createDataFrame(L), "R": spark.createDataFrame(R)}
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        res = run_infine(tables, spec)
        assert seen == [False]
        assert res.fds == brute_force_fds(spec.instance(tables).toArrow())

    def test_key_types_differ(self, spark):
        left = spark.createDataFrame([(1, 0)], "k long, a long")
        right = spark.createDataFrame([(1.0, 0)], "k double, x long")
        assert _encoded(left).join(_encoded(right), ["k"], "inner") is None


def test_codes_join_loads_no_acero():
    # Acero (pyarrow's Table.join) costs several MB of driver memory on
    # load; the codes join needs only pyarrow.compute and numpy.
    code = """
import sys
import pyarrow as pa
from repro.fd.engine import Encoded, FDEngine
left = Encoded.from_arrow(pa.table({"k": [1, 1, 2, None], "a": [1, 2, 3, 4]}))
right = Encoded.from_arrow(pa.table({"k": [1, 3, None], "x": [5, 6, 7]}))
for how in ("inner", "left", "right", "full", "semi"):
    FDEngine(left.join(right, ["k"], how)).distinct_count(["k"])
assert "pyarrow.acero" not in sys.modules, "pyarrow.acero was imported"
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr

"""Seeded random SPJ view trees: InFine's FD set must equal brute-force
mining of the materialized view, with one triple per FD, and the Spark
instance must equal DuckDB's.

Each tree joins three of five small tables (0-12 rows, NULL in about
15% of every column, join keys included) over two join levels, with a
random operator of all five at each level and the nested join on either
side. Every node gets a σ with probability 0.3, and a π keeps a side's
join key while it drops the other level's key.

The float trees give every table one more column, a double ``f<i>``
drawn from NULL, NaN, -0.0, 0.0 and 1.5 and kept through every π: NULL
and NaN are two values, and -0.0 and 0.0 one, to InFine on both kernels
and to the reference.
"""
import numpy as np
import pyarrow as pa
import pytest

from repro.core.infine import run_infine
from repro.fd.bruteforce import brute_force_fds
from repro.oracle import assert_equivalent
from repro.views.spec import BaseRel, Join, Project, Select, view_sql

HOWS = ("inner", "left", "right", "full", "semi")
N_TABLES = 5
P_NULL = 0.15
P_SELECT = 0.3
SCHEMAS = {f"T{i}": ("k", "c", f"v{i}", f"w{i}", f"f{i}") for i in range(N_TABLES)}
LONGS = {"k"} | {f"v{i}" for i in range(N_TABLES)}
FLOATS = [None, float("nan"), -0.0, 0.0, 1.5]


def _column(g, n: int, values: list) -> list:
    return [None if g.random() < P_NULL else values[g.integers(len(values))] for _ in range(n)]


def _tables(g, floats: bool) -> dict[str, pa.Table]:
    """Tables ``T0``..``T4`` over a long key ``k``, a string key ``c`` and
    value columns ``v<i>`` (long) and ``w<i>`` (string), and ``f<i>``
    (double) if ``floats``."""
    tables = {}
    for i, n in enumerate(g.integers(0, 13, N_TABLES)):
        cols = {
            "k": pa.array(_column(g, n, [0, 1, 2, 3]), pa.int64()),
            "c": pa.array(_column(g, n, ["a", "b", "c"]), pa.string()),
            f"v{i}": pa.array(_column(g, n, [0, 1, 2]), pa.int64()),
            f"w{i}": pa.array(_column(g, n, ["x", "y"]), pa.string()),
        }
        if floats:
            drawn = g.integers(0, len(FLOATS), n)
            cols[f"f{i}"] = pa.array([FLOATS[j] for j in drawn], pa.float64())
        tables[f"T{i}"] = pa.table(cols)
    return tables


def _maybe_select(g, spec):
    """σ over ``spec`` with probability ``P_SELECT``, on one of its long
    columns: one value, NULL or small, or no row at all."""
    longs = sorted(a for a in spec.proj(SCHEMAS) if a in LONGS)
    if g.random() >= P_SELECT or not longs:
        return spec
    a = longs[g.integers(len(longs))]
    pred = [f"{a} = 1", f"{a} IS NULL OR {a} < 2", f"{a} IS NOT NULL AND {a} IS NULL"]
    return Select(spec, pred[g.integers(len(pred))])


def _leaf(g, name: str, keep: str, drop: bool, floats: bool):
    """Table ``name``, without the key another level joins on if ``drop``."""
    spec = _maybe_select(g, BaseRel(name))
    i = name[1:]
    cols = (keep, f"v{i}", f"w{i}") + ((f"f{i}",) if floats else ())
    return Project(spec, cols) if drop else spec


def _random_tree(g, floats: bool):
    """A two-level join tree over three distinct tables: the nested join
    on one key, the outer join on the other."""
    x, y, z = (f"T{i}" for i in g.permutation(N_TABLES)[:3])
    k1, k2 = ("k", "c") if g.random() < 0.5 else ("c", "k")
    how1, how2 = HOWS[g.integers(len(HOWS))], HOWS[g.integers(len(HOWS))]
    # One nested side brings k2 up; a semijoin outputs its left side only.
    up = 0 if how1 == "semi" or g.random() < 0.5 else 1
    nested = Join(
        _leaf(g, x, k1, up != 0, floats), _leaf(g, y, k1, up != 1, floats), on=(k1,), how=how1
    )
    nested = _maybe_select(g, nested)
    other = _leaf(g, z, k2, True, floats)
    pair = (nested, other) if g.random() < 0.5 else (other, nested)
    return _maybe_select(g, Join(*pair, on=(k2,), how=how2))


def _check(spark, seed: int, floats: bool) -> None:
    g = np.random.default_rng(seed)
    arrow = _tables(g, floats)
    tables = {name: spark.createDataFrame(t) for name, t in arrow.items()}
    spec = _random_tree(g, floats)
    res = run_infine(tables, spec)
    view = spec.instance(tables)
    ref = brute_force_fds(view.toArrow(), res.proj_attrs)
    assert res.fds == ref, (
        spec.label(), sorted(map(str, ref - res.fds)), sorted(map(str, res.fds - ref))
    )
    assert len(res.triples) == len(res.fds)
    assert_equivalent(view, view_sql(spec), **arrow)


@pytest.mark.parametrize("seed", range(120))
def test_random_tree(spark, seed):
    _check(spark, seed, floats=False)


@pytest.mark.parametrize("seed", range(120))
def test_random_float_tree(spark, seed):
    _check(spark, seed, floats=True)


@pytest.mark.usefixtures("spark_kernel")
@pytest.mark.parametrize("seed", range(10))
def test_random_float_tree_spark_kernel(spark, seed):
    _check(spark, seed, floats=True)

"""End-to-end InFine: the final FD set must equal direct mining of the
materialized view (completeness + correctness, Theorems 5-6), and the
provenance annotation must be internally consistent."""
import pandas as pd
import pytest

from repro.core import provenance as P
from repro.core.infine import run_infine
from repro.fd.bruteforce import brute_force_fds
from repro.views.spec import BaseRel, Join, Project, Select
from tests.helpers import random_join_pair, random_table


def _tables(spark, **pdfs):
    return {k: spark.createDataFrame(v) for k, v in pdfs.items()}


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_inner_join(self, spark, seed):
        L, R = random_join_pair(seed)
        tables = _tables(spark, L=L, R=R)
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toPandas())
        assert res.fds == ref, (
            sorted(map(str, ref - res.fds)), sorted(map(str, res.fds - ref)))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("how", ["left", "right", "full"])
    def test_outer_joins(self, spark, seed, how):
        L, R = random_join_pair(seed + 7)
        tables = _tables(spark, L=L, R=R)
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",), how=how)
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toPandas())
        assert res.fds == ref, (how, sorted(map(str, ref ^ res.fds)))

    @pytest.mark.parametrize("seed", range(3))
    def test_semi_join(self, spark, seed):
        L, R = random_join_pair(seed + 20)
        tables = _tables(spark, L=L, R=R)
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",), how="semi")
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toPandas())
        assert res.fds == ref

    @pytest.mark.parametrize("seed", range(3))
    def test_selection_over_join(self, spark, seed):
        L, R = random_join_pair(seed + 30)
        tables = _tables(spark, L=L, R=R)
        spec = Select(Join(BaseRel("L"), BaseRel("R"), on=("k",)), "a < 2")
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toPandas())
        assert res.fds == ref

    @pytest.mark.parametrize("seed", range(3))
    def test_projection_over_join(self, spark, seed):
        L, R = random_join_pair(seed + 40)
        tables = _tables(spark, L=L, R=R)
        spec = Project(Join(BaseRel("L"), BaseRel("R"), on=("k",)), ("a", "c", "x", "y"))
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toPandas())
        assert res.fds == ref
        assert res.proj_attrs == {"a", "c", "x", "y"}

    @pytest.mark.parametrize("seed", range(2))
    def test_three_way_join(self, spark, seed):
        L, R = random_join_pair(seed + 50)
        T = random_table(seed, n=8, cards=(3,), derived=False).rename(
            columns={"a": "x"}
        )
        T["t"] = T["x"] * 7  # x -> t
        tables = _tables(spark, L=L, R=R, T=T)
        spec = Join(
            Join(BaseRel("L"), BaseRel("R"), on=("k",)), BaseRel("T"), on=("x",)
        )
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toPandas())
        assert res.fds == ref, (sorted(map(str, ref ^ res.fds)))


class TestBaseCase:
    def test_single_relation(self, spark):
        pdf = random_table(5, n=25)
        tables = _tables(spark, T=pdf)
        res = run_infine(tables, BaseRel("T"))
        assert res.fds == brute_force_fds(pdf)
        assert all(t.type == P.BASE for t in res.triples)
        assert all(t.subquery == "T" for t in res.triples)


class TestProvenance:
    @pytest.fixture(scope="class")
    def result(self, spark):
        L, R = random_join_pair(3)
        tables = _tables(spark, L=L, R=R)
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        view = brute_force_fds(spec.instance(tables).toPandas())
        L_red = L[L.k.isin(R.k)]
        R_red = R[R.k.isin(L.k)]
        return (
            run_infine(tables, spec),
            brute_force_fds(L), brute_force_fds(R),
            brute_force_fds(L_red), brute_force_fds(R_red),
            frozenset(L.columns), frozenset(R.columns),
        )

    def test_one_triple_per_fd(self, result):
        res = result[0]
        fds = [t.fd for t in res.triples]
        assert len(fds) == len(set(fds))

    def test_base_triples_hold_on_base(self, result):
        res, d_l, d_r, *_ = result
        for t in res.triples:
            if t.type == P.BASE:
                assert t.fd in d_l or t.fd in d_r, str(t)

    def test_upstaged_are_new_and_single_side(self, result):
        res, d_l, d_r, d_lred, d_rred, atts_l, atts_r = result
        for t in res.triples:
            if t.type == P.UPSTAGED_LEFT:
                assert t.fd.attrs() <= atts_l and t.fd not in d_l
                assert t.fd in d_lred
            if t.type == P.UPSTAGED_RIGHT:
                assert t.fd.attrs() <= atts_r and t.fd not in d_r
                assert t.fd in d_rred

    def test_cross_types_straddle_sides(self, result):
        res, _, _, _, _, atts_l, atts_r = result
        for t in res.triples:
            if t.type in (P.INFERRED, P.JOIN_FD):
                assert not t.fd.attrs() <= atts_l
                assert not t.fd.attrs() <= atts_r

    def test_subquery_labels(self, result):
        res = result[0]
        for t in res.triples:
            if t.type == P.BASE:
                assert t.subquery in ("L", "R")
            else:
                assert "⋈" in t.subquery

    def test_counts_sum_to_total(self, result):
        res = result[0]
        assert sum(res.counts.values()) == len(res.triples)

    def test_stage_fractions_sum_to_one(self, result):
        res = result[0]
        assert sum(res.stage_fractions().values()) == pytest.approx(1.0)


class TestTimingsAndStats:
    def test_timing_keys(self, spark):
        L, R = random_join_pair(11)
        tables = _tables(spark, L=L, R=R)
        res = run_infine(tables, Join(BaseRel("L"), BaseRel("R"), on=("k",)))
        assert set(res.timings) == {
            "base", "selection", "upstage_join", "infer", "mine_join", "io"
        }
        assert res.timings["base"] > 0 and res.timings["io"] > 0
        assert res.spark_jobs > 0

"""End-to-end InFine: the final FD set must equal direct mining of the
materialized view (completeness + correctness, Theorems 5-6), and the
provenance annotation must be internally consistent."""
import contextlib

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import repro.core.infine as infine_mod
import repro.core.join_upstaged as join_upstaged
from repro.core import provenance as P
from repro.core.infine import run_infine
from repro.core.mine_join_fds import mine_join_fds
from repro.fd.bruteforce import brute_force_fds
from repro.views.spec import BaseRel, Join, Project, Select
from tests.helpers import fdset, random_join_pair, random_table, semijoin


def _tables(spark, **tabs):
    return {k: spark.createDataFrame(v) for k, v in tabs.items()}


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_inner_join(self, spark, seed):
        L, R = random_join_pair(seed)
        tables = _tables(spark, L=L, R=R)
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toArrow())
        assert res.fds == ref, (
            sorted(map(str, ref - res.fds)), sorted(map(str, res.fds - ref)))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("how", ["left", "right", "full"])
    def test_outer_joins(self, spark, seed, how):
        L, R = random_join_pair(seed + 7)
        tables = _tables(spark, L=L, R=R)
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",), how=how)
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toArrow())
        assert res.fds == ref, (how, sorted(map(str, ref ^ res.fds)))

    @pytest.mark.parametrize("seed", range(3))
    def test_semi_join(self, spark, seed):
        L, R = random_join_pair(seed + 20)
        tables = _tables(spark, L=L, R=R)
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",), how="semi")
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toArrow())
        assert res.fds == ref

    @pytest.mark.parametrize("seed", range(3))
    def test_selection_over_join(self, spark, seed):
        L, R = random_join_pair(seed + 30)
        tables = _tables(spark, L=L, R=R)
        spec = Select(Join(BaseRel("L"), BaseRel("R"), on=("k",)), "a < 2")
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toArrow())
        assert res.fds == ref

    @pytest.mark.parametrize("seed", range(3))
    def test_projection_over_join(self, spark, seed):
        L, R = random_join_pair(seed + 40)
        tables = _tables(spark, L=L, R=R)
        spec = Project(Join(BaseRel("L"), BaseRel("R"), on=("k",)), ("a", "c", "x", "y"))
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toArrow())
        assert res.fds == ref
        assert res.proj_attrs == {"a", "c", "x", "y"}

    @pytest.mark.parametrize("seed", range(2))
    def test_three_way_join(self, spark, seed):
        L, R = random_join_pair(seed + 50)
        x = random_table(seed, n=8, cards=(3,), derived=False)["a"]
        T = pa.table({"x": x, "t": pc.multiply(x, 7)})  # x -> t
        tables = _tables(spark, L=L, R=R, T=T)
        spec = Join(
            Join(BaseRel("L"), BaseRel("R"), on=("k",)), BaseRel("T"), on=("x",)
        )
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toArrow())
        assert res.fds == ref, (sorted(map(str, ref ^ res.fds)))


@pytest.mark.usefixtures("spark_kernel")
class TestRandomizedEquivalenceSparkKernel(TestRandomizedEquivalence):
    """One seed per shape on the Spark kernel, where every instance stays
    on Spark and is cached."""

    @pytest.mark.parametrize("seed", [0])
    def test_inner_join(self, spark, seed):
        super().test_inner_join(spark, seed)

    @pytest.mark.parametrize("seed", [0])
    @pytest.mark.parametrize("how", ["left", "right", "full"])
    def test_outer_joins(self, spark, seed, how):
        super().test_outer_joins(spark, seed, how)

    @pytest.mark.parametrize("seed", [0])
    def test_semi_join(self, spark, seed):
        super().test_semi_join(spark, seed)

    @pytest.mark.parametrize("seed", [0])
    def test_selection_over_join(self, spark, seed):
        super().test_selection_over_join(spark, seed)

    @pytest.mark.parametrize("seed", [0])
    def test_projection_over_join(self, spark, seed):
        super().test_projection_over_join(spark, seed)

    @pytest.mark.parametrize("seed", [0])
    def test_three_way_join(self, spark, seed):
        super().test_three_way_join(spark, seed)


@pytest.mark.usefixtures("kernel")
class TestFullJoin:
    """Full outer joins, where both sides are kept and NULL-padded, on
    both kernels."""

    @pytest.fixture(params=["in_process", "spark"])
    def kernel(self, request):
        if request.param == "spark":
            request.getfixturevalue("spark_kernel")

    def _check(self, spark, spec, **tables):
        tables = {k: spark.createDataFrame(*v) for k, v in tables.items()}
        res = run_infine(tables, spec)
        ref = brute_force_fds(spec.instance(tables).toArrow())
        assert res.fds == ref, (sorted(map(str, ref - res.fds)), sorted(map(str, res.fds - ref)))
        return res

    def test_broken_side_fd_is_specialized(self, spark):
        """Padding breaks R's ``-> w``; its specialization ``k -> w`` is
        mined on the padded side."""
        res = self._check(
            spark, Join(BaseRel("L"), BaseRel("R"), on=("k",), how="full"),
            L=([(1,), (2,)], "k long"), R=([(1, 0), (3, 0)], "k long, w long"),
        )
        assert fdset("k->w") <= res.fds
        assert {t.type for t in res.triples if t.fd in fdset("k->w")} == {P.UPSTAGED_RIGHT}

    def test_theorem4_premise_on_own_tuples(self, spark):
        """R's unmatched NULL-key row is on L's side of the join with a
        NULL key, like L's own NULL-key row: ``m -> x`` fails there, but
        the view FDs ``m,y -> x``, ``m,x -> y`` and ``x,z -> y`` hold."""
        res = self._check(
            spark, Join(BaseRel("L"), BaseRel("R"), on=("m",), how="full"),
            L=([(None, 5), (1, 6), (2, 7)], "m long, x long"),
            R=([(None, None, 1), (1, 0, 0), (3, 0, 0)], "m long, z long, y long"),
        )
        assert fdset("m,x->y", "m,y->x", "x,z->y") <= res.fds

    def test_side_that_gains_nothing_is_not_mined(self, spark, monkeypatch):
        """Every key matches, so neither side loses a tuple or has an
        inherited FD broken by padding: every FD of a side's projection
        of the join is implied by its kept FDs, and no side is mined."""
        mined = []

        def mine_fds(engine, cols, **kwargs):
            mined.append(cols)
            return real(engine, cols, **kwargs)

        real = join_upstaged.mine_fds
        monkeypatch.setattr(join_upstaged, "mine_fds", mine_fds)
        self._check(
            spark, Join(BaseRel("L"), BaseRel("R"), on=("k",), how="full"),
            L=([(1, 10, 0), (2, 20, 0), (3, 30, 1)], "k long, a long, b long"),
            R=([(1, 5), (2, 6), (3, 5)], "k long, x long"),
        )
        assert mined == []


class TestNoCacheLeak:
    """A run caches only instances that stay on Spark, and unpersists
    them when it ends, also when it fails mid-view."""

    @pytest.mark.parametrize("kernel", ["in_process", "spark"])
    @pytest.mark.parametrize("fail", [False, True])
    def test_cached_instances_unpersisted(self, spark, request, monkeypatch, kernel, fail):
        if kernel == "spark":
            request.getfixturevalue("spark_kernel")
        jsc = spark.sparkContext._jsc
        during = []

        def persistent():  # each call takes a fresh snapshot
            return jsc.getPersistentRDDs().size()

        def stage(join_engine, *args, **kwargs):
            df = join_engine.df  # None: the join was built in process
            during.append((persistent(), None if df is None else df.is_cached))
            if fail:
                raise RuntimeError("fails mid-view")
            return mine_join_fds(join_engine, *args, **kwargs)

        monkeypatch.setattr(infine_mod, "mine_join_fds", stage)
        L, R = random_join_pair(2)
        tables = _tables(spark, L=L, R=R)
        spec = Select(Join(BaseRel("L"), BaseRel("R"), on=("k",)), "a < 2")
        before = persistent()
        with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
            run_infine(tables, spec)
        assert persistent() == before
        # L, R and their join are cached on the Spark kernel. In process
        # nothing is cached, and the join has no Spark instance at all.
        if kernel == "spark":
            assert during == [(before + 3, True)]
        else:
            assert during == [(before, None)]


class TestBaseCase:
    def test_single_relation(self, spark):
        tab = random_table(5, n=25)
        tables = _tables(spark, T=tab)
        res = run_infine(tables, BaseRel("T"))
        assert res.fds == brute_force_fds(tab)
        assert all(t.type == P.BASE for t in res.triples)
        assert all(t.subquery == "T" for t in res.triples)


class TestProvenance:
    @pytest.fixture(scope="class")
    def result(self, spark):
        L, R = random_join_pair(3)
        tables = _tables(spark, L=L, R=R)
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        view = brute_force_fds(spec.instance(tables).toArrow())
        L_red = semijoin(L, R)
        R_red = semijoin(R, L)
        return (
            run_infine(tables, spec),
            brute_force_fds(L), brute_force_fds(R),
            brute_force_fds(L_red), brute_force_fds(R_red),
            frozenset(L.column_names), frozenset(R.column_names),
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

    def test_one_collect_per_view_node(self, spark):
        L, R = random_join_pair(11)
        tables = _tables(spark, L=L, R=R)
        spec = Select(Join(BaseRel("L"), BaseRel("R"), on=("k",)), "a < 2")
        # L, R and σ; L ⋈ R is built in process on the codes of L and R.
        assert run_infine(tables, spec).spark_jobs == 3

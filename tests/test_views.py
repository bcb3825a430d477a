"""View-spec AST tests: proj(), instances vs the DuckDB oracle, labels,
join-attribute collection."""
import pandas as pd
import pytest

from repro.core.infine import run_infine
from repro.fd.bruteforce import brute_force_fds
from repro.oracle import assert_equivalent
from repro.views.spec import BaseRel, Join, Project, Select, view_sql


@pytest.fixture(scope="module")
def tables(spark):
    L = pd.DataFrame(
        {"k": [1, 1, 2, 3, 5], "a": [10, 11, 12, 13, 14], "b": [0, 0, 1, 1, 0]}
    )
    R = pd.DataFrame({"k": [1, 2, 2, 4], "x": [7, 8, 9, 6]})
    return (
        {"L": spark.createDataFrame(L), "R": spark.createDataFrame(R)},
        {"L": L, "R": R},
    )


def _schemas(sdfs):
    return {n: tuple(df.columns) for n, df in sdfs.items()}


class TestProj:
    def test_base(self, tables):
        sdfs, _ = tables
        assert BaseRel("L").proj(_schemas(sdfs)) == {"k", "a", "b"}

    def test_rename(self, tables):
        sdfs, _ = tables
        spec = BaseRel("L", rename=(("a", "z"),))
        assert spec.proj(_schemas(sdfs)) == {"k", "z", "b"}

    def test_project(self, tables):
        sdfs, _ = tables
        assert Project(BaseRel("L"), ("a",)).proj(_schemas(sdfs)) == {"a"}

    def test_select_passthrough(self, tables):
        sdfs, _ = tables
        assert Select(BaseRel("L"), "a > 0").proj(_schemas(sdfs)) == {"k", "a", "b"}

    def test_join_union(self, tables):
        sdfs, _ = tables
        j = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        assert j.proj(_schemas(sdfs)) == {"k", "a", "b", "x"}

    def test_semi_left_only(self, tables):
        sdfs, _ = tables
        j = Join(BaseRel("L"), BaseRel("R"), on=("k",), how="semi")
        assert j.proj(_schemas(sdfs)) == {"k", "a", "b"}


class TestInstanceVsOracle:
    @pytest.mark.parametrize("how", ["inner", "left", "right", "full"])
    def test_join_kinds(self, tables, how):
        sdfs, pdfs = tables
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",), how=how)
        assert_equivalent(spec.instance(sdfs), view_sql(spec), **pdfs)

    def test_semi_join(self, tables):
        sdfs, pdfs = tables
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",), how="semi")
        got = spec.instance(sdfs).toPandas().sort_values(["k", "a"]).reset_index(drop=True)
        exp = pdfs["L"][pdfs["L"]["k"].isin(pdfs["R"]["k"])].sort_values(["k", "a"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_select(self, tables):
        sdfs, pdfs = tables
        spec = Select(BaseRel("L"), "b = 0 AND a < 14")
        assert_equivalent(spec.instance(sdfs), view_sql(spec), **pdfs)

    def test_project(self, tables):
        sdfs, pdfs = tables
        spec = Project(Join(BaseRel("L"), BaseRel("R"), on=("k",)), ("a", "x"))
        assert_equivalent(spec.instance(sdfs), view_sql(spec), **pdfs)

    def test_rename_oracle(self, tables):
        sdfs, pdfs = tables
        spec = BaseRel("L", rename=(("a", "z"),))
        assert_equivalent(spec.instance(sdfs), view_sql(spec), **pdfs)

    def test_nested_select_join(self, tables):
        sdfs, pdfs = tables
        spec = Select(
            Join(Select(BaseRel("L"), "b = 0"), BaseRel("R"), on=("k",)),
            "x > 6",
        )
        assert_equivalent(spec.instance(sdfs), view_sql(spec), **pdfs)

    def test_duplicate_join_keys_multiply(self, tables):
        sdfs, _ = tables
        spec = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        # k=2 appears twice in R: the two L rows with k in {1,2} expand
        assert spec.instance(sdfs).count() == 4


class TestMetadata:
    def test_join_attrs_collects_all(self, tables):
        spec = Join(
            Join(BaseRel("L"), BaseRel("R"), on=("k",)),
            BaseRel("R", rename=(("k", "k2"), ("x", "x2"))),
            on=("k2",),
        )
        assert spec.join_attrs() == {"k", "k2"}

    def test_top_join_descends(self):
        j = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        spec = Select(Project(j, ("k", "a")), "a > 0")
        assert spec.top_join() is j

    def test_labels(self):
        j = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        assert j.label() == "L ⋈_{k} R"
        assert Select(j, "a>0").label().startswith("σ[a>0]")
        outer = Join(j, BaseRel("T"), on=("t",), how="left")
        assert outer.label() == "[L ⋈_{k} R] ⟕_{t} T"

    def test_base_names(self):
        j = Join(BaseRel("L"), BaseRel("R"), on=("k",))
        assert j.base_names() == {"L", "R"}

    def test_invalid_join_kind(self):
        with pytest.raises(ValueError):
            Join(BaseRel("L"), BaseRel("R"), on=("k",), how="cross")

    def test_join_requires_keys(self):
        with pytest.raises(ValueError):
            Join(BaseRel("L"), BaseRel("R"), on=())


class TestValidation:
    """``run_infine`` rejects a spec that does not fit the schemas before
    any mining, naming the offending node."""

    def _raises(self, tables, spec, match):
        sdfs, _ = tables
        with pytest.raises(ValueError, match=match):
            run_infine(sdfs, spec)

    def test_unknown_table(self, tables):
        spec = Join(BaseRel("L"), BaseRel("Z"), on=("k",))
        self._raises(tables, spec, r"^Z: unknown table 'Z'")

    def test_unknown_column(self, tables):
        spec = Join(Project(BaseRel("L"), ("k", "zz")), BaseRel("R"), on=("k",))
        self._raises(tables, spec, r"^π\[k,zz\]\(L\): unknown column\(s\) \['zz'\]")

    def test_join_key_missing_on_one_side(self, tables):
        spec = Join(BaseRel("L"), BaseRel("R"), on=("a",))
        self._raises(tables, spec, r"^L ⋈_\{a\} R: unknown column\(s\) \['a'\]")

    def test_non_key_name_on_both_sides(self, tables):
        spec = Join(BaseRel("L"), BaseRel("R", rename=(("x", "a"),)), on=("k",))
        self._raises(tables, spec, r"^L ⋈_\{k\} R: non-key column\(s\) \['a'\]")

    def test_semi_join_may_share_names(self, tables):
        sdfs, _ = tables
        spec = Join(BaseRel("L"), BaseRel("R", rename=(("x", "a"),)), on=("k",), how="semi")
        assert spec.proj(_schemas(sdfs)) == {"k", "a", "b"}
        ref = brute_force_fds(spec.instance(sdfs).toArrow())
        assert run_infine(sdfs, spec).fds == ref

"""Synthetic dataset generators: schemas, sizes, engineered FDs and the
referential slack that drives upstaging."""
import warnings
from types import SimpleNamespace

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets import all_datasets, dataset_tables
from repro.datasets.mimic import mimic_tables
from repro.datasets.ptc import ptc_tables
from repro.datasets.pte import pte_tables
from repro.datasets.tpch import tpch_tables
from repro.fd.engine import FDEngine

SCALE = 0.1


@pytest.fixture(scope="module")
def mimic(spark):
    return mimic_tables(spark, scale=SCALE)


@pytest.fixture(scope="module")
def pte(spark):
    return pte_tables(spark, scale=SCALE)


@pytest.fixture(scope="module")
def ptc(spark):
    return ptc_tables(spark, scale=SCALE)


@pytest.fixture(scope="module")
def tpch(spark):
    return tpch_tables(spark, scale=1.0)


class TestMimic:
    def test_schema_shapes(self, mimic):
        assert len(mimic["patients"].columns) == 7
        assert len(mimic["admissions"].columns) == 10
        assert len(mimic["diagnoses_icd"].columns) == 4
        assert len(mimic["d_icd_diagnoses"].columns) == 3

    def test_patient_key(self, mimic):
        e = FDEngine(mimic["patients"])
        assert e.holds(["subject_id"], "gender")
        assert e.holds(["dod"], "expire_flag")

    def test_flag_fd_is_approximate(self, mimic):
        e = FDEngine(mimic["patients"])
        assert not e.holds(["flag_a"], "flag_b")

    def test_flag_fd_upstages_after_join(self, mimic):
        joined = mimic["patients"].join(
            mimic["admissions"].select("subject_id").distinct(),
            on=["subject_id"], how="left_semi",
        )
        assert FDEngine(joined).holds(["flag_a"], "flag_b")

    def test_insurance_subject_level(self, mimic):
        assert FDEngine(mimic["admissions"]).holds(["subject_id"], "insurance")

    def test_referential_slack_both_ways(self, mimic):
        p = mimic["patients"].select("subject_id")
        a = mimic["admissions"].select("subject_id").distinct()
        assert p.join(a, "subject_id", "left_anti").count() > 0
        assert a.join(p, "subject_id", "left_anti").count() > 0

    def test_determinism(self, spark, mimic):
        again = mimic_tables(spark, scale=SCALE)
        assert again["patients"].toPandas().equals(mimic["patients"].toPandas())

    def test_no_numpy_warning(self):
        # NaN sent through pd.to_timedelta made numpy warn "overflow
        # encountered in multiply" on some runs, not all. The digests are
        # of the frames as generated before the fix, which changed no value.
        frames = SimpleNamespace(createDataFrame=lambda pdf: pdf)  # no Spark needed
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tables = mimic_tables(frames, scale=1.0, seed=1)
        assert {k: int(pd.util.hash_pandas_object(v).sum()) for k, v in tables.items()} == {
            "patients": 9066121308813793305,
            "admissions": 6850268791564586662,
            "diagnoses_icd": 10152455985035714944,
            "d_icd_diagnoses": 11329216679645899864,
        }


class TestPte:
    def test_schema_shapes(self, pte):
        assert list(pte["drug"].columns) == ["drug_id"]
        assert len(pte["active"].columns) == 2
        assert len(pte["bond"].columns) == 4
        assert len(pte["atm"].columns) == 5

    def test_drug_has_no_fds(self, pte):
        # single unique column: no constants, nothing to determine
        assert pte["drug"].count() == pte["drug"].distinct().count()

    def test_active_subset_of_drug(self, pte):
        extra = pte["active"].join(pte["drug"], "drug_id", "left_anti")
        assert extra.count() == 0
        assert pte["active"].count() < pte["drug"].count()

    def test_activity_fd(self, pte):
        assert FDEngine(pte["active"]).holds(["drug_id"], "activity")

    def test_atom_determines_drug(self, pte):
        assert FDEngine(pte["bond"]).holds(["atom1_id"], "drug_id")

    def test_btype_upstages_on_active(self, pte):
        e = FDEngine(pte["bond"])
        assert not e.holds(["atom1_id"], "btype")
        reduced = pte["bond"].join(
            pte["active"].select("drug_id"), on=["drug_id"], how="left_semi"
        )
        assert FDEngine(reduced).holds(["atom1_id"], "btype")

    def test_element_atype_fd(self, pte):
        assert FDEngine(pte["atm"]).holds(["element"], "atype")


class TestPtc:
    def test_schema_shapes(self, ptc):
        assert len(ptc["molecule"].columns) == 2
        assert len(ptc["atom"].columns) == 3
        assert len(ptc["bond"].columns) == 3
        assert len(ptc["connected"].columns) == 3

    def test_connected_repeats_bonds(self, ptc):
        # both orientations present -> coverage > 1 through the join
        dup = ptc["connected"].groupBy("bond_id").count().filter("count >= 2")
        assert dup.count() > 0

    def test_dangling_connections(self, ptc):
        dangling = ptc["connected"].join(ptc["bond"], "bond_id", "left_anti")
        assert dangling.count() > 0

    def test_keys(self, ptc):
        assert FDEngine(ptc["atom"]).holds(["atom_id"], "molecule_id")
        assert FDEngine(ptc["molecule"]).holds(["molecule_id"], "mlabel")


class TestTpch:
    def test_all_tables_present(self, tpch):
        assert set(tpch) == {
            "lineitem", "orders", "customer", "part", "supplier",
            "nation", "region", "partsupp",
        }

    def test_lineitem_suppkey_in_partsupp(self, tpch):
        li = tpch["lineitem"].select(
            F.col("l_partkey").alias("ps_partkey"),
            F.col("l_suppkey").alias("ps_suppkey"),
        ).distinct()
        missing = li.join(
            tpch["partsupp"], ["ps_partkey", "ps_suppkey"], "left_anti"
        )
        assert missing.count() == 0

    def test_partsupp_key(self, tpch):
        assert FDEngine(tpch["partsupp"]).holds(
            ["ps_partkey", "ps_suppkey"], "ps_availqty"
        )

    def test_nation_region_fixed(self, tpch):
        assert tpch["nation"].count() == 25
        assert tpch["region"].count() == 5

    def test_supplier_phone_injective(self, tpch):
        e = FDEngine(tpch["supplier"])
        assert e.holds(["s_phone"], "s_suppkey")

    def test_row_counts(self, tpch):
        # scale 1 is SF 0.001 at TPC-H's per-SF ratios
        counts = {name: df.count() for name, df in tpch.items()}
        assert counts == {
            "lineitem": 6000, "orders": 1500, "customer": 150, "part": 200,
            "supplier": 10, "nation": 25, "region": 5, "partsupp": 800,
        }
        assert len(tpch["supplier"].columns) == 7

    @pytest.mark.parametrize(
        "table, key",
        [("orders", "o_orderkey"), ("customer", "c_custkey"),
         ("part", "p_partkey"), ("supplier", "s_suppkey")],
    )
    def test_key_unique(self, tpch, table, key):
        df = tpch[table]
        assert df.count() == df.select(key).distinct().count()

    def test_determinism(self, spark, tpch):
        again = tpch_tables(spark, scale=1.0)
        for name in ("lineitem", "customer", "partsupp"):
            assert again[name].toPandas().equals(tpch[name].toPandas())

    def test_partsupp_four_suppliers_per_part(self, tpch):
        per_part = tpch["partsupp"].groupBy("ps_partkey").count()
        assert per_part.agg(F.max("count")).first()[0] <= 4

    def test_lineitem_suppkey_range(self, tpch):
        mn, mx = tpch["lineitem"].select(F.min("l_suppkey"), F.max("l_suppkey")).first()
        assert mn >= 1 and mx <= 10


class TestRegistry:
    def test_registry_names(self):
        assert set(all_datasets) == {"mimic3", "pte", "ptc", "tpch"}

    @pytest.mark.parametrize("name", ["pte", "ptc"])
    def test_dataset_tables_cached(self, spark, name):
        tables = dataset_tables(spark, name, scale=0.1)
        assert all(df.is_cached for df in tables.values())
        # The cache is built with the tables, not by the first run over them.
        cache = spark._jsparkSession.sharedState().cacheManager()
        for df in tables.values():
            built = cache.lookupCachedData(df._jdf).get().cachedRepresentation()
            assert built.cacheBuilder().isCachedColumnBuffersLoaded()
        for df in tables.values():
            df.unpersist()

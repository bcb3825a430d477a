"""Table shapes of the TPC-H-lite generator at SF 0.001 (``scale=1``)."""
import pytest

from repro.datasets.tpch import tpch_tables


@pytest.fixture(scope="module")
def tpch(spark):
    return tpch_tables(spark, scale=1.0)


class TestProvidedGenerators:
    def test_lineitem_shape(self, tpch):
        df = tpch["lineitem"]
        assert df.count() == 6000
        assert "l_orderkey" in df.columns


class TestTpchExtensions:
    def test_supplier(self, tpch):
        df = tpch["supplier"]
        assert df.count() == 10 and len(df.columns) == 7

    def test_nation_region(self, tpch):
        assert tpch["nation"].count() == 25
        assert tpch["region"].count() == 5

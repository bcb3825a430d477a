"""Generators in repro.synth_data (provided + TPC-H extensions)."""
import pytest

from repro import synth_data as S


class TestProvidedGenerators:
    def test_lineitem_shape(self, spark):
        df = S.lineitem(spark, sf=0.001)
        assert df.count() == 6000
        assert "l_orderkey" in df.columns

    def test_orders_key_unique(self, spark):
        df = S.orders(spark, sf=0.001)
        assert df.count() == df.select("o_orderkey").distinct().count()

    def test_determinism(self, spark):
        a = S.customer(spark, sf=0.001).toPandas()
        b = S.customer(spark, sf=0.001).toPandas()
        assert a.equals(b)


class TestTpchExtensions:
    def test_supplier(self, spark):
        df = S.supplier(spark, sf=0.001)
        assert df.count() == 10 and len(df.columns) == 7

    def test_nation_region(self, spark):
        assert S.nation(spark).count() == 25
        assert S.region(spark).count() == 5

    def test_partsupp_four_suppliers_per_part(self, spark):
        df = S.partsupp(spark, sf=0.01)
        per_part = df.groupBy("ps_partkey").count().agg({"count": "max"}).collect()[0][0]
        assert per_part <= 4

    def test_lineitem_suppkey_range(self, spark):
        li = S.lineitem_suppkey(S.lineitem(spark, sf=0.001), sf=0.001)
        mn, mx = li.selectExpr("min(l_suppkey)", "max(l_suppkey)").collect()[0]
        assert mn >= 1 and mx <= 10

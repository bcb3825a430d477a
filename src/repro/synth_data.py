"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


_N_SUPPLIER_PER_SF = 10_000
_N_PARTSUPP_PER_SF = 800_000


def supplier(spark: SparkSession, *, sf: float = 0.01, seed: int = 6) -> DataFrame:
    """TPC-H-lite SUPPLIER (7 attributes). ``s_suppkey`` is the key;
    ``s_phone`` is injective; ``s_nationkey`` references NATION."""
    n = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    keys = np.arange(1, n + 1)
    pdf = pd.DataFrame(
        {
            "s_suppkey": keys,
            "s_name": [f"Supplier#{k:09d}" for k in keys],
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "s_phone": [f"{k % 25 + 10}-{k:07d}" for k in keys],
            "s_addr_num": g.integers(1, 999, n),
            "s_comment_cat": g.choice(["even", "odd", "none"], n),
        }
    )
    return spark.createDataFrame(pdf)


def nation(spark: SparkSession, *, seed: int = 7) -> DataFrame:
    """TPC-H NATION: fixed 25 rows, 4 attributes; both key columns are
    injective so many small FDs hold (paper reports 9)."""
    keys = np.arange(0, 25)
    pdf = pd.DataFrame(
        {
            "n_nationkey": keys,
            "n_name": [f"NATION_{k:02d}" for k in keys],
            "n_regionkey": keys % 5,
            "n_comment_cat": (keys % 3).astype(str),
        }
    )
    return spark.createDataFrame(pdf)


def region(spark: SparkSession, *, seed: int = 8) -> DataFrame:
    """TPC-H REGION: fixed 5 rows, 3 attributes (paper reports 6 FDs)."""
    keys = np.arange(0, 5)
    pdf = pd.DataFrame(
        {
            "r_regionkey": keys,
            "r_name": [f"REGION_{k}" for k in keys],
            "r_comment_cat": (keys % 2).astype(str),
        }
    )
    return spark.createDataFrame(pdf)


def partsupp(spark: SparkSession, *, sf: float = 0.01, seed: int = 9) -> DataFrame:
    """TPC-H-lite PARTSUPP (5 attributes): 4 suppliers per part, keyed by
    (ps_partkey, ps_suppkey). The supplier assignment matches
    :func:`lineitem_suppkey` so lineitem↔partsupp joins preserve rows."""
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    pk = np.repeat(np.arange(1, n_part + 1), 4)
    i = np.tile(np.arange(4), n_part)
    pdf = pd.DataFrame(
        {
            "ps_partkey": pk,
            "ps_suppkey": (pk + i) % n_supp + 1,
            "ps_availqty": g.integers(1, 10000, len(pk)),
            "ps_supplycost": (g.random(len(pk)) * 1000 + 1).round(2),
            "ps_comment_cat": g.choice(["a", "b", "c", "d"], len(pk)),
        }
    )
    return spark.createDataFrame(pdf.drop_duplicates(["ps_partkey", "ps_suppkey"]))


def lineitem_suppkey(df: DataFrame, *, sf: float = 0.01) -> DataFrame:
    """Extend the provided lineitem with an ``l_suppkey`` consistent with
    :func:`partsupp` (every (l_partkey, l_suppkey) exists in partsupp)."""
    from pyspark.sql import functions as F

    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    return df.withColumn(
        "l_suppkey",
        (F.col("l_partkey") + F.col("l_orderkey") % 4) % n_supp + 1,
    )


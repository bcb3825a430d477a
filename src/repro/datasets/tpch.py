"""TPC-H-lite: eight TPC-H tables generated with numpy (dbgen substitute,
see DESIGN.md).

``scale`` multiplies a base SF of 0.001: ``scale=1`` is 6k lineitem
rows (tests) and ``scale=10`` is 60k (benchmarks). Row counts follow
TPC-H's per-SF ratios; NATION (25 rows) and REGION (5 rows) are fixed.
Each table draws from its own seeded generator, so the output is
deterministic in ``seed``.

- PARTSUPP holds 4 suppliers per part, keyed by (ps_partkey,
  ps_suppkey); ``l_suppkey`` is drawn from the same 4, so every
  (l_partkey, l_suppkey) of LINEITEM exists in PARTSUPP.
- ``s_phone`` is injective on SUPPLIER; NATION's two key columns are
  injective, so many small FDs hold there (the paper reports 9 on
  NATION and 6 on REGION).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

BASE_SF = 0.001
DEFAULT_SCALE = 1.0


def tpch_tables(
    spark: SparkSession, *, scale: float = DEFAULT_SCALE, seed: int = 0
) -> dict[str, DataFrame]:
    sf = BASE_SF * scale
    n_li, n_o, n_c, n_p, n_s = (
        max(1, int(per_sf * sf))
        for per_sf in (6_000_000, 1_500_000, 150_000, 200_000, 10_000)
    )
    day0 = pd.to_datetime("1992-01-01")

    g = np.random.default_rng(seed)
    orderkey = g.integers(1, n_o + 1, n_li)
    partkey = g.integers(1, n_p + 1, n_li)
    lineitem = pd.DataFrame(
        {
            "l_orderkey": orderkey,
            "l_partkey": partkey,
            "l_linenumber": g.integers(1, 8, n_li),
            "l_quantity": g.integers(1, 51, n_li).astype("float64"),
            "l_extendedprice": (g.random(n_li) * 90000 + 900).round(2),
            "l_discount": (g.random(n_li) * 0.1).round(2),
            "l_tax": (g.random(n_li) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n_li),
            "l_linestatus": g.choice(list("OF"), n_li),
            "l_shipdate": day0 + pd.to_timedelta(g.integers(0, 2557, n_li), unit="D"),
            "l_suppkey": (partkey + orderkey % 4) % n_s + 1,
        }
    )

    g = np.random.default_rng(seed + 1)
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n_o + 1),
            "o_custkey": g.integers(1, n_c + 1, n_o),
            "o_orderstatus": g.choice(list("OFP"), n_o),
            "o_totalprice": (g.random(n_o) * 500000 + 1000).round(2),
            "o_orderdate": day0 + pd.to_timedelta(g.integers(0, 2406, n_o), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n_o
            ),
        }
    )

    g = np.random.default_rng(seed + 2)
    customer = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n_c + 1),
            "c_nationkey": g.integers(0, 25, n_c),
            "c_acctbal": (g.random(n_c) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n_c
            ),
        }
    )

    g = np.random.default_rng(seed + 5)
    pk = np.arange(1, n_p + 1)
    part = pd.DataFrame(
        {
            "p_partkey": pk,
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n_p
            ),
            "p_brand": g.choice(
                [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n_p
            ),
            "p_size": g.integers(1, 51, n_p),
            "p_retailprice": (900 + (pk % 1000) / 10.0).round(2),
        }
    )

    g = np.random.default_rng(seed + 6)
    sk = np.arange(1, n_s + 1)
    supplier = pd.DataFrame(
        {
            "s_suppkey": sk,
            "s_name": [f"Supplier#{k:09d}" for k in sk],
            "s_nationkey": g.integers(0, 25, n_s),
            "s_acctbal": (g.random(n_s) * 10000 - 1000).round(2),
            "s_phone": [f"{k % 25 + 10}-{k:07d}" for k in sk],
            "s_addr_num": g.integers(1, 999, n_s),
            "s_comment_cat": g.choice(["even", "odd", "none"], n_s),
        }
    )

    nk = np.arange(25)
    nation = pd.DataFrame(
        {
            "n_nationkey": nk,
            "n_name": [f"NATION_{k:02d}" for k in nk],
            "n_regionkey": nk % 5,
            "n_comment_cat": (nk % 3).astype(str),
        }
    )
    rk = np.arange(5)
    region = pd.DataFrame(
        {
            "r_regionkey": rk,
            "r_name": [f"REGION_{k}" for k in rk],
            "r_comment_cat": (rk % 2).astype(str),
        }
    )

    g = np.random.default_rng(seed + 9)
    ps_part = np.repeat(pk, 4)
    n_ps = len(ps_part)
    partsupp = pd.DataFrame(
        {
            "ps_partkey": ps_part,
            "ps_suppkey": (ps_part + np.tile(np.arange(4), n_p)) % n_s + 1,
            "ps_availqty": g.integers(1, 10000, n_ps),
            "ps_supplycost": (g.random(n_ps) * 1000 + 1).round(2),
            "ps_comment_cat": g.choice(["a", "b", "c", "d"], n_ps),
        }
    ).drop_duplicates(["ps_partkey", "ps_suppkey"])

    frames = {
        "lineitem": lineitem, "orders": orders, "customer": customer,
        "part": part, "supplier": supplier, "nation": nation,
        "region": region, "partsupp": partsupp,
    }
    return {name: spark.createDataFrame(pdf) for name, pdf in frames.items()}

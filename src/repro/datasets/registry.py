"""Dataset registry: name -> table builder."""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.datasets.mimic import mimic_tables
from repro.datasets.ptc import ptc_tables
from repro.datasets.pte import pte_tables
from repro.datasets.tpch import tpch_tables

all_datasets = {
    "mimic3": mimic_tables,
    "pte": pte_tables,
    "ptc": ptc_tables,
    "tpch": tpch_tables,
}


def dataset_tables(
    spark: SparkSession, name: str, *, scale: float = 1.0
) -> dict[str, DataFrame]:
    """Build the tables of one dataset at the given scale, cached and
    materialized, so that no later timed run pays for building the cache."""
    tables = {k: v.cache() for k, v in all_datasets[name](spark, scale=scale).items()}
    for df in tables.values():
        df.count()
    return tables

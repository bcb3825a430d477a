"""Experiment harnesses reproducing the paper's evaluation tables."""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.datasets import dataset_tables

# Per-dataset scales used by the benchmark suite (paper-like row counts).
BENCH_SCALE = {"mimic3": 8.0, "pte": 5.0, "ptc": 5.0, "tpch": 10.0}


def resolve_scale(scale, dataset: str) -> float:
    """A harness ``scale`` may be one float for all datasets or a
    per-dataset mapping."""
    if isinstance(scale, dict):
        return scale.get(dataset, 1.0)
    return float(scale)


class TableCache:
    """The cached base tables of each dataset, built on first use at
    ``resolve_scale(scale, dataset)``. As a context manager it unpersists
    them on exit."""

    def __init__(self, spark: SparkSession, scale: "float | dict" = 1.0):
        self.spark = spark
        self.scale = scale
        self._by_ds: dict[str, dict[str, DataFrame]] = {}

    def __call__(self, dataset: str) -> dict[str, DataFrame]:
        if dataset not in self._by_ds:
            self._by_ds[dataset] = dataset_tables(
                self.spark, dataset, scale=resolve_scale(self.scale, dataset)
            )
        return self._by_ds[dataset]

    def __enter__(self) -> "TableCache":
        return self

    def __exit__(self, *exc) -> None:
        for tables in self._by_ds.values():
            for df in tables.values():
                df.unpersist()

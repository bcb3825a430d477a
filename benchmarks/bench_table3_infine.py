"""Benchmark — Table III workload: the full InFine pipeline per view."""
import pytest

from repro.core.infine import run_infine
from repro.datasets.queries import all_queries

from repro.harness import BENCH_SCALE as SCALE  # noqa: N811
from repro.harness import TableCache


@pytest.fixture(scope="module")
def tables_of(spark):
    with TableCache(spark, SCALE) as cache:
        yield cache


@pytest.mark.parametrize(
    "q", [pytest.param(q, id=f"{q.dataset}:{q.name}") for q in all_queries()]
)
def test_infine(benchmark, tables_of, q):
    tables = tables_of(q.dataset)
    res = benchmark.pedantic(
        lambda: run_infine(tables, q.spec), rounds=1, iterations=1
    )
    assert len(res.triples) >= 1
    assert abs(sum(res.stage_fractions().values()) - 1.0) < 1e-9

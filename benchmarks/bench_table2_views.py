"""Benchmark — Table II workload: materialize each SPJ view and mine its
FDs with the straightforward approach (the cost InFine avoids)."""
import pytest

from repro.datasets.queries import all_queries
from repro.harness.straightforward import straightforward

from repro.harness import BENCH_SCALE as SCALE  # noqa: N811
from repro.harness import TableCache


@pytest.fixture(scope="module")
def tables_of(spark):
    with TableCache(spark, SCALE) as cache:
        yield cache


@pytest.mark.parametrize(
    "q", [pytest.param(q, id=f"{q.dataset}:{q.name}") for q in all_queries()]
)
def test_view_mining(benchmark, tables_of, q):
    tables = tables_of(q.dataset)
    res = benchmark.pedantic(
        lambda: straightforward(tables, q.spec, algo="fun"), rounds=1, iterations=1
    )
    assert res.n_rows >= 0 and len(res.fds) >= 1

"""Integration: all 16 evaluation views — InFine's FD set must equal the
straightforward approach (full view + single-relation miner), and the
view instances must match the DuckDB oracle."""
import pytest

from repro.core.infine import run_infine
from repro.datasets.queries import all_queries, queries_for
from repro.harness import TableCache
from repro.harness.straightforward import straightforward
from repro.oracle import assert_equivalent
from repro.views.spec import view_sql

SCALES = {"mimic3": 0.08, "pte": 0.08, "ptc": 0.08, "tpch": 0.5}


@pytest.fixture(scope="module")
def tables_of(spark):
    with TableCache(spark, SCALES) as cache:
        yield cache


def _param_queries():
    return [pytest.param(q, id=f"{q.dataset}:{q.name}") for q in all_queries()]


class TestInFineEqualsStraightforward:
    @pytest.mark.parametrize("q", _param_queries())
    def test_query(self, tables_of, q):
        tables = tables_of(q.dataset)
        res = run_infine(tables, q.spec)
        ref = straightforward(tables, q.spec, algo="fun")
        assert res.fds, "every evaluation view has an FD"
        assert res.fds == ref.fds, (
            sorted(map(str, ref.fds - res.fds)),
            sorted(map(str, res.fds - ref.fds)),
        )
        assert len(res.triples) == len(res.fds)


class TestViewInstancesVsOracle:
    @pytest.mark.parametrize("q", _param_queries())
    def test_instance_matches_duckdb(self, tables_of, q):
        tables = tables_of(q.dataset)
        pdfs = {name: df.toPandas() for name, df in tables.items()}
        assert_equivalent(q.spec.instance(tables), view_sql(q.spec), **pdfs)


class TestQueryInventory:
    def test_sixteen_queries(self):
        assert len(all_queries()) == 16

    @pytest.mark.parametrize("ds", ["mimic3", "pte", "ptc", "tpch"])
    def test_four_per_dataset(self, ds):
        assert len(queries_for(ds)) == 4

    def test_join_depths(self, spark):
        # the workload spans 2-table to 6-table joins like the paper's
        counts = sorted(len(q.spec.base_names()) for q in all_queries())
        assert counts[0] == 2 and counts[-1] >= 5

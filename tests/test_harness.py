"""Harness smoke tests: table row production and formatting."""
import time
import tracemalloc

import pytest

from repro.datasets.pte import pte_tables
from repro.datasets.queries import queries_for
from repro.fd.fastfds import PairBudgetExceeded
from repro.harness import TableCache, runtime
from repro.harness.runtime import _measured, format_runtime, runtime_rows
from repro.harness.straightforward import straightforward
from repro.harness.table1 import format_table1, table1_rows
from repro.harness.table3 import format_table3, table3_rows


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return table1_rows(spark, scale=0.05, datasets=("pte", "ptc"))

    def test_all_tables_covered(self, rows):
        assert {(r["db"], r["table"]) for r in rows} == {
            ("pte", "drug"), ("pte", "active"), ("pte", "atm"), ("pte", "bond"),
            ("ptc", "molecule"), ("ptc", "atom"), ("ptc", "bond"), ("ptc", "connected"),
        }

    def test_fds_found(self, rows):
        assert sum(r["fds"] for r in rows) > 0

    def test_drug_zero_fds(self, rows):
        drug = next(r for r in rows if r["table"] == "drug" and r["db"] == "pte")
        assert drug["fds"] == 0 and drug["atts"] == 1

    def test_format(self, rows):
        md = format_table1(rows)
        assert md.startswith("| DB |") and "drug" in md


# The tiny pte view, and the views where HyFD's violation loop does the
# most work, with the scale each is built at.
SMALL_VIEWS = {
    "pte": ("active ⋈ drug", 0.05),
    "mimic3": ("diagnosesicd ⋈ patients", 0.1),
    "tpch": ("Q9*(P ⋈ PS ⋈ S ⋈ L ⋈ O ⋈ N)", 0.5),
}


class TestStraightforward:
    @pytest.fixture(scope="class")
    def tables_of(self, spark):
        with TableCache(spark, {d: s for d, (_, s) in SMALL_VIEWS.items()}) as cache:
            yield cache

    @pytest.mark.parametrize(
        "dataset, algo",
        [
            pytest.param(d, a, id=a if d == "pte" else f"{d}-{a}")
            for d in SMALL_VIEWS
            for a in ("tane", "fun", "hyfd", "fastfds")
        ],
    )
    def test_all_algos_agree_on_small_view(self, tables_of, dataset, algo):
        tables = tables_of(dataset)
        (q,) = [q for q in queries_for(dataset) if q.name == SMALL_VIEWS[dataset][0]]
        ref = straightforward(tables, q.spec, algo="fun")
        got = straightforward(tables, q.spec, algo=algo)
        assert got.fds == ref.fds
        assert got.n_rows == ref.n_rows

    def test_unknown_algo(self, spark):
        tables = pte_tables(spark, scale=0.05)
        with pytest.raises(ValueError):
            straightforward(tables, queries_for("pte")[0].spec, algo="nope")


class TestTable3AndRuntime:
    def test_table3_rows_pte_only(self, spark, monkeypatch):
        import repro.harness.table3 as t3

        monkeypatch.setattr(
            t3, "all_queries", lambda: queries_for("pte")[:2]
        )
        rows = t3.table3_rows(spark, scale=0.05)
        assert len(rows) == 2
        for r in rows:
            assert abs(
                r["upstage_acc"] + r["infer_acc"] + r["mine_acc"] - 1.0
            ) < 1e-9
            assert r["total_fds"] >= 1
            assert r["coverage"] is not None
        assert "| DB |" in format_table3(rows)

    def test_runtime_rows(self, spark):
        rows = runtime_rows(
            spark,
            scale=0.05,
            queries=queries_for("pte")[1:2],
            baselines=("fun",),
        )
        (r,) = rows
        assert r["infine_s"] > 0 and r["fun_s"] > 0
        assert "fun_mismatch" not in r
        assert "| DB |" in format_runtime(rows, baselines=("fun",))

    def test_runtime_rows_raises_baseline_errors(self, spark, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("baseline broke")

        monkeypatch.setattr(runtime, "straightforward", broken)
        with pytest.raises(ValueError, match="baseline broke"):
            runtime_rows(
                spark, scale=0.05, queries=queries_for("pte")[1:2], baselines=("fun",)
            )

    def test_format_runtime_shows_budget_and_mismatch(self):
        row = {"db": "d", "view": "v", "infine_s": 1.0, "infine_mem_mb": 1.0,
               "fun_s": 2.0, "fun_mem_mb": 1.0, "fun_mismatch": True,
               "tane_s": None}
        line = format_runtime([row], baselines=("fun", "tane")).splitlines()[-1]
        assert "2.00 MISMATCH" in line and ">budget" in line


class TestMeasured:
    def test_raising_fn_stops_tracing(self):
        def over_budget():
            blob = bytearray(20_000_000)  # a 20 MB traced peak
            raise PairBudgetExceeded(len(blob))

        with pytest.raises(PairBudgetExceeded):
            _measured(over_budget)
        assert not tracemalloc.is_tracing()
        _, mem, _ = _measured(lambda: None)
        assert mem < 1.0  # the failed run's peak is not inherited

    def test_time_is_taken_untraced(self):
        def slow_when_traced():
            if tracemalloc.is_tracing():
                time.sleep(0.2)

        dt, _, _ = _measured(slow_when_traced)
        assert dt < 0.1

    def test_raising_traced_call_stops_tracing(self):
        def fails_when_traced():
            if tracemalloc.is_tracing():
                raise PairBudgetExceeded(0)

        with pytest.raises(PairBudgetExceeded):
            _measured(fails_when_traced)
        assert not tracemalloc.is_tracing()

"""Harness smoke tests: table row production and formatting."""
import tracemalloc

import pytest

from repro.datasets.ptc import ptc_tables
from repro.datasets.pte import pte_tables
from repro.datasets.queries import queries_for
from repro.fd.fastfds import PairBudgetExceeded
from repro.harness import runtime
from repro.harness.runtime import _measured, format_runtime, runtime_rows
from repro.harness.straightforward import straightforward
from repro.harness.table1 import format_table1, table1_rows
from repro.harness.table3 import format_table3, table3_rows


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return table1_rows(
            spark, scale=0.05, datasets={"pte": pte_tables, "ptc": ptc_tables}
        )

    def test_all_tables_covered(self, rows):
        assert {(r["db"], r["table"]) for r in rows} == {
            ("pte", "drug"), ("pte", "active"), ("pte", "atm"), ("pte", "bond"),
            ("ptc", "molecule"), ("ptc", "atom"), ("ptc", "bond"), ("ptc", "connected"),
        }

    def test_drug_zero_fds(self, rows):
        drug = next(r for r in rows if r["table"] == "drug" and r["db"] == "pte")
        assert drug["fds"] == 0 and drug["atts"] == 1

    def test_format(self, rows):
        md = format_table1(rows)
        assert md.startswith("| DB |") and "drug" in md


class TestStraightforward:
    @pytest.mark.parametrize("algo", ["tane", "fun", "hyfd", "fastfds"])
    def test_all_algos_agree_on_small_view(self, spark, algo):
        tables = {k: v.cache() for k, v in pte_tables(spark, scale=0.05).items()}
        q = queries_for("pte")[1]  # active ⋈ drug (tiny)
        ref = straightforward(tables, q.spec, algo="fun")
        got = straightforward(tables, q.spec, algo=algo)
        assert got.fds == ref.fds
        assert got.n_rows == ref.n_rows
        assert got.t_total >= got.t_mine

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

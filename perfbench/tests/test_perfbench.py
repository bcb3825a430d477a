"""Self-check of the benchmark: ``python -m pytest perfbench/tests -q``.

The smoke runs start Spark in a subprocess on a few-second workload and
take a minute or two each.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import config  # noqa: E402
from perfbench.gate import check_result, duckdb_problems, fds_by_group  # noqa: E402
from repro.core import provenance as P  # noqa: E402
from repro.core.provenance import Triple  # noqa: E402
from repro.fd.model import FD  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(triples):
    return SimpleNamespace(triples=triples, fds={t.fd for t in triples})


def test_benchmark_json_matches_config():
    assert [w["name"] for w in BENCH["workloads"]] == list(config.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]} == (
        config.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == {
        k: v[:2] for k, v in config.PER_LAYER.items()
    }
    for k, (_, _, moves, where) in config.PER_LAYER.items():
        assert set(moves.split(",")) <= set(config.END_TO_END), k
        assert set(where.split(",")) <= set(config.WORKLOADS), k


def test_gate_accepts_the_expected_set_and_rejects_a_wrong_one():
    a_b, b_c, ac_d = FD(["a"], "b"), FD(["b"], "c"), FD(["a", "c"], "d")
    res = _result(
        [Triple(a_b, P.BASE, "r"), Triple(b_c, P.INFERRED, "j"), Triple(ac_d, P.JOIN_FD, "j")]
    )
    assert check_result(res, {a_b, b_c, ac_d}) == []
    assert fds_by_group(res) == {"upstage": 1, "infer": 1, "mine": 1}
    assert check_result(res, {a_b, b_c}), "an extra FD must fail"
    assert check_result(res, {a_b, b_c, ac_d, FD([], "e")}), "a missing FD must fail"
    assert check_result(res, None), "no verified expected set must fail"


def test_gate_rejects_duplicate_triples_and_unknown_types():
    d = FD(["a"], "b")
    dup = SimpleNamespace(
        triples=[Triple(d, P.BASE, "r"), Triple(d, P.INFERRED, "j")], fds={d}
    )
    assert check_result(dup, {d})
    assert check_result(_result([Triple(d, "guessed", "j")]), {d})


def test_duckdb_rejects_invalid_and_non_minimal_fds():
    base = {
        "t": pd.DataFrame(
            {"a": [1, 1, 2, 2], "b": [1, 1, 2, 3], "c": [5, 5, 6, 7], "k": [None, None, 1.0, 1.0]}
        )
    }
    sql = "SELECT * FROM t"
    assert duckdb_problems(base, sql, {FD(["b"], "c"), FD(["c"], "a")}) == []
    assert duckdb_problems(base, sql, {FD(["a"], "b")}), "a -> b does not hold"
    assert duckdb_problems(base, sql, {FD(["b", "a"], "c")}), "a,b -> c is not minimal"
    # NULL equals NULL: k takes two values, so it is not constant.
    assert duckdb_problems(base, sql, {FD([], "k")})


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(trace, kind):
    p = _run("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr[-4000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, p.stderr[-4000:]
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    if kind == "per_layer":
        assert out["metrics"]["lattice.theorem4_tests"]["value"] > 0


def test_a_run_handed_a_wrong_expected_set_fails():
    # Drop one FD from every expected set the gate is handed.
    code = """
import runpy, sys
sys.path[:0] = ["src", "."]
import perfbench.gate as gate
check = gate.check_result
gate.check_result = lambda res, want: check(res, set(sorted(want)[1:]))
sys.argv = ["perfbench/run.py", "--workload", "smoke", "--seed", "3",
            "--seconds", "1", "--trace", "0"]
runpy.run_path("perfbench/run.py", run_name="__main__")
"""
    p = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-4000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert not out["correct"] and out["failed"] >= 1
    assert "FD set differs" in p.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "mine_join", "--seed", "1", "--seconds", "1",
             "--trace", "0", cwd=tmp_path, timeout=120)
    assert p.returncode != 0
    assert "correct" not in p.stdout

"""Light infrastructure tests: the stdlib build backend, scale
resolution used by the harnesses, and the table entrypoint's arguments."""
import importlib.util
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import _build_backend as bb
from repro.harness import BENCH_SCALE, resolve_scale

REPRODUCE = Path(__file__).resolve().parents[1] / "jobs" / "reproduce.py"


class TestBuildBackend:
    def test_editable_wheel(self, tmp_path):
        name = bb.build_editable(str(tmp_path))
        assert name.endswith(".whl")
        with zipfile.ZipFile(tmp_path / name) as zf:
            names = zf.namelist()
            assert "_repro_editable.pth" in names
            assert any(n.endswith("METADATA") for n in names)
            assert any(n.endswith("RECORD") for n in names)
            pth = zf.read("_repro_editable.pth").decode().strip()
            assert pth.endswith("/src")

    def test_regular_wheel_packages_sources(self, tmp_path):
        name = bb.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as zf:
            names = zf.namelist()
            assert "repro/__init__.py" in names
            assert "repro/core/infine.py" in names

    def test_sdist_unsupported(self, tmp_path):
        with pytest.raises(NotImplementedError):
            bb.build_sdist(str(tmp_path))


class TestScales:
    def test_float_passthrough(self):
        assert resolve_scale(2.5, "pte") == 2.5

    def test_dict_lookup(self):
        assert resolve_scale({"pte": 5.0}, "pte") == 5.0

    def test_dict_default(self):
        assert resolve_scale({}, "nope") == 1.0

    def test_bench_scale_covers_all_datasets(self):
        from repro.datasets import all_datasets

        assert set(BENCH_SCALE) == set(all_datasets)

    def test_entrypoint_bench_is_bench_scale(self):
        spec = importlib.util.spec_from_file_location("reproduce", REPRODUCE)
        reproduce = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reproduce)
        assert reproduce.resolve("bench") is BENCH_SCALE
        assert reproduce.resolve("0.1") == 0.1

    def test_entrypoint_unknown_table_prints_usage(self):
        out = subprocess.run(
            [sys.executable, str(REPRODUCE), "nope"], capture_output=True, text=True
        )
        assert out.returncode == 2
        assert out.stderr.startswith("usage: python jobs/reproduce.py")
        assert "table1" in out.stderr and "runtime" in out.stderr

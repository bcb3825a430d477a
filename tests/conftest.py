import pytest

import repro.fd.engine as engine_mod


@pytest.fixture
def spark_kernel(monkeypatch):
    """Count every Spark instance on Spark: with a zero cap no instance
    is small enough for the in-process kernel."""
    monkeypatch.setattr(engine_mod, "_COLLECT_CELLS", 0)

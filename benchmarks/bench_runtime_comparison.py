"""Benchmark — Fig. 3 workload: InFine vs each baseline per view.

FastFDs is only run on the smaller views (its pair enumeration is
quadratic; the paper reports >2000 s for it on the larger ones — we
bound it with a pair budget instead of hanging the suite; the skipped
views are recorded as lower bounds in EXPERIMENTS.md).
"""
import pytest

from repro.core.infine import run_infine
from repro.fd.fastfds import PairBudgetExceeded
from repro.datasets.queries import all_queries
from repro.harness.straightforward import straightforward

from repro.harness import BENCH_SCALE as SCALE  # noqa: N811
from repro.harness import TableCache

FASTFDS_SMALL = {"pte", "ptc"}


@pytest.fixture(scope="module")
def tables_of(spark):
    with TableCache(spark, SCALE) as cache:
        yield cache


# One representative view per dataset keeps the benchmark suite bounded;
# the full 16-view sweep is jobs/runtime_comparison.py (results recorded
# in EXPERIMENTS.md).
_REPRESENTATIVE = {
    "atm ⋈ drug",  # the one larger view where FastFDs completes (~220 s)
    "[bond ⋈ drug] ⋈ active",
    "connected ⋈ bond",
    "diagnosesicd ⋈ patients",
    "Q3*(C ⋈ O ⋈ L)",
}

_PARAMS = [
    pytest.param(q, m, id=f"{q.dataset}:{q.name}:{m}")
    for q in all_queries()
    if q.name in _REPRESENTATIVE
    for m in ("infine", "hyfd", "fun", "tane", "fastfds")
    if m != "fastfds" or q.dataset in FASTFDS_SMALL
]


@pytest.mark.parametrize("q,method", _PARAMS)
def test_method(benchmark, tables_of, q, method):
    tables = tables_of(q.dataset)
    if method == "infine":
        res = benchmark.pedantic(
            lambda: run_infine(tables, q.spec), rounds=1, iterations=1
        )
        assert len(res.fds) >= 1
    else:
        try:
            res = benchmark.pedantic(
                lambda: straightforward(
                    tables, q.spec, algo=method, max_pairs=20_000_000
                ),
                rounds=1,
                iterations=1,
            )
        except PairBudgetExceeded:
            # The paper clips FastFDs at >2,000 s on larger views; we clip
            # by pair budget — record as a lower bound, not a failure.
            pytest.skip("FastFDs exceeded the 20M tuple-pair budget (paper: >2000 s)")
        assert len(res.fds) >= 1

"""The benchmark's tracer (``perfbench.spans.Tracer``) wraps named
functions and engine attributes of the program from outside. A rename
must fail here, in Tier-1, rather than only in the benchmark's own
self-check."""
import pyarrow as pa

from perfbench.spans import STAGE_FUNCS, Tracer
from repro.core.infine import run_infine
from repro.fd.engine import Encoded, FDEngine
from repro.views.spec import BaseRel, Join, Select
from tests.helpers import random_join_pair


def test_tracer_finds_and_restores_every_name():
    tracer = Tracer(sc=None)
    tracer.install()  # getattr raises AttributeError for a missing name
    patched = list(tracer._patches)
    tracer.uninstall()
    assert patched
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)


def test_engine_exposes_what_the_tracer_reads():
    e = FDEngine(Encoded.of(pa.table({"a": [1]}), ["a"]))
    assert e._cache == {} and e.jobs == 0


def test_trace_reconciles_with_timings(spark):
    """The benchmark's traced run fails unless each stage's spans add up
    to its ``InFineResult.timings`` entry and every Spark job lands in a
    span's job group; σ over a left join runs every stage."""
    L, R = random_join_pair(3)
    tables = {"L": spark.createDataFrame(L), "R": spark.createDataFrame(R)}
    spec = Select(Join(BaseRel("L"), BaseRel("R"), on=("k",), how="left"), "a < 2")
    sc = spark.sparkContext
    scheduler = sc._jsc.sc().dagScheduler()
    tracer = Tracer(sc, prefix="tier1-trace")
    job0 = scheduler.nextJobId()
    with tracer, tracer.span("view"):
        res = run_infine(tables, spec)
    sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
    jobs_started = scheduler.nextJobId() - job0
    tracer.collect_jobs(tracer.spans)
    assert jobs_started > 0
    assert sum(s.jobs for s in tracer.spans) == jobs_started
    for stage in STAGE_FUNCS:
        spans = [s for s in tracer.spans if s.name == f"core.{stage}"]
        assert spans, stage
        spanned = sum(s.duration for s in spans)
        t = res.timings[stage]
        assert abs(spanned - t) <= 0.05 + 0.05 * t, (stage, spanned, t)

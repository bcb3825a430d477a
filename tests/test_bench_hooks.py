"""The benchmark's tracer (``perfbench.spans.Tracer``) wraps named
functions and engine attributes of the program from outside. A rename
must fail here, in Tier-1, rather than only in the benchmark's own
self-check."""
import pandas as pd

from perfbench.spans import Tracer
from repro.fd.engine import FDEngine


def test_tracer_finds_and_restores_every_name():
    tracer = Tracer(sc=None)
    tracer.install()  # getattr raises AttributeError for a missing name
    patched = list(tracer._patches)
    tracer.uninstall()
    assert patched
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)


def test_engine_exposes_what_the_tracer_reads():
    e = FDEngine(pd.DataFrame({"a": [1]}))
    assert e._cache == {} and e.jobs == 0

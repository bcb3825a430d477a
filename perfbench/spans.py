"""Spans and counters recorded around the public functions of each layer.

The program is not changed: while a ``Tracer`` is installed it replaces,
from outside, the functions each layer exposes to the one above it.

- ``repro.core.infine`` stages: ``selection_upstaged``, ``process_side``,
  ``infer_join_fds`` and ``mine_join_fds`` as ``infine`` calls them.
- ``repro.fd.lattice.mine_fds`` in every core module that imports it, so
  each lattice call is attributed to the stage that made it. The
  ``plausible=`` hook that ``mine_join_fds`` passes (Theorem 4) is
  wrapped to count its tests and vetoes.
- ``repro.fd.engine.FDEngine``: ``__init__``, ``n_rows``, ``prefetch``
  and ``check_fds``.

Each span sets a Spark job group of its own, so every Spark job belongs
to exactly one span (the innermost one open when it was submitted). Job
ids, stages and tasks are read back from ``statusTracker`` after each
view, once the listener bus has drained.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import repro.core.infine as core_infine
import repro.core.join_upstaged as core_join_upstaged
import repro.core.mine_join_fds as core_mine_join_fds
import repro.core.selection_fds as core_selection_fds
from repro.fd.engine import FDEngine

# Core stage functions as ``infine`` imports them, by stage name.
STAGE_FUNCS = {
    "selection": "selection_upstaged",
    "upstage_join": "process_side",
    "infer": "infer_join_fds",
    "mine_join": "mine_join_fds",
}
# The module whose ``mine_fds`` each stage calls.
LATTICE_CALLERS = {
    "base": core_infine,
    "selection": core_selection_fds,
    "upstage_join": core_join_upstaged,
    "mine_join": core_mine_join_fds,
}
ENGINE_METHODS = ("n_rows", "prefetch", "check_fds")


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    view: str
    start: float
    end: float = 0.0
    jobs: int = 0
    tasks: int = 0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    """Records spans and layer counters while installed."""

    sc: object  # pyspark SparkContext
    prefix: str = "perfbench"
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    rows_max: int = 0
    cache_mb_peak: float = 0.0
    view: str = ""
    _stack: list[Span] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- spans ---------------------------------------------------------------
    def group(self, s: Span) -> str:
        return f"{self.prefix}-{s.sid}"

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(
            len(self.spans), name, parent.sid if parent else None, self.view,
            time.perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s)
        self.sc.setJobGroup(self.group(s), name)
        try:
            yield s
        finally:
            self._stack.pop()
            if parent is not None:
                self.sc.setJobGroup(self.group(parent), parent.name)
            else:
                self.sc._jsc.clearJobGroup()
            s.end = time.perf_counter()
            if parent is not None:
                parent.children_s += s.duration

    def sample_cache(self) -> None:
        """Track the peak of cached RDD storage (memory plus disk)."""
        infos = self.sc._jsc.sc().getRDDStorageInfo()
        mb = sum(i.memSize() + i.diskSize() for i in infos) / 1e6
        self.cache_mb_peak = max(self.cache_mb_peak, mb)

    def collect_jobs(self, spans: list[Span]) -> None:
        """Fill ``jobs`` and ``tasks`` of the given spans from Spark's
        status tracker. Call after the listener bus has drained."""
        st = self.sc.statusTracker()
        for s in spans:
            ids = st.getJobIdsForGroup(self.group(s))
            s.jobs = len(ids)
            stages = set()
            for j in ids:
                info = st.getJobInfo(j)
                if info is not None:
                    stages.update(info.stageIds)
            for sid in stages:
                si = st.getStageInfo(sid)
                if si is not None:
                    s.tasks += si.numCompletedTasks

    # -- installing the wrappers --------------------------------------------
    def _patch(self, owner: object, attr: str, make: Callable) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def install(self) -> None:
        for stage, fname in STAGE_FUNCS.items():
            self._patch(core_infine, fname, self._stage_wrapper(stage))
        for stage, module in LATTICE_CALLERS.items():
            self._patch(module, "mine_fds", self._lattice_wrapper(stage))
        self._patch(FDEngine, "__init__", self._engine_init)
        for m in ENGINE_METHODS:
            self._patch(FDEngine, m, self._engine_wrapper(m))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _stage_wrapper(self, stage: str):
        tracer = self

        def make(orig):
            def wrapped(*args, **kwargs):
                with tracer.span(f"core.{stage}"):
                    out = orig(*args, **kwargs)
                    tracer.sample_cache()
                    return out

            return wrapped

        return make

    def _lattice_wrapper(self, stage: str):
        tracer = self

        def make(orig):
            def wrapped(*args, **kwargs):
                plausible = kwargs.get("plausible")
                if plausible is not None:
                    kwargs["plausible"] = tracer._counted_plausible(plausible)
                tracer.counts[f"lattice.calls.{stage}"] += 1
                with tracer.span(f"lattice.{stage}"):
                    return orig(*args, **kwargs)

            return wrapped

        return make

    def _counted_plausible(self, plausible):
        counts = self.counts

        def wrapped(lhs, rhs):
            ok = plausible(lhs, rhs)
            counts["lattice.theorem4_tests"] += 1
            if not ok:
                counts["lattice.theorem4_vetoes"] += 1
            return ok

        return wrapped

    def _engine_init(self, orig):
        tracer = self

        def wrapped(engine, *args, **kwargs):
            orig(engine, *args, **kwargs)
            tracer.counts["engine.instances"] += 1

        return wrapped

    def _engine_wrapper(self, method: str):
        tracer = self

        def make(orig):
            if method == "prefetch":

                def wrapped(engine, attr_sets, *args, **kwargs):
                    sets = [frozenset(s) for s in attr_sets]
                    cache = getattr(engine, "_cache", None)
                    cached0 = len(cache) if cache is not None else 0
                    jobs0 = getattr(engine, "jobs", 0)
                    with tracer.span("engine.prefetch"):
                        out = orig(engine, sets, *args, **kwargs)
                    c = tracer.counts
                    c["engine.prefetch_calls"] += 1
                    c["engine.sets_requested"] += len({s for s in sets if s})
                    if cache is not None:
                        c["engine.sets_counted"] += len(cache) - cached0
                    c["engine.batches"] += getattr(engine, "jobs", 0) - jobs0
                    return out

            elif method == "n_rows":

                def wrapped(engine, *args, **kwargs):
                    with tracer.span("engine.n_rows"):
                        n = orig(engine, *args, **kwargs)
                    tracer.rows_max = max(tracer.rows_max, n)
                    return n

            else:

                def wrapped(engine, *args, **kwargs):
                    with tracer.span(f"engine.{method}"):
                        return orig(engine, *args, **kwargs)

            return wrapped

        return make

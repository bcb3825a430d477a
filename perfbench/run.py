#!/usr/bin/env python3
"""InFine view benchmark.

    python3 perfbench/run.py --workload mine_join --seed 1 --seconds 1 --trace 0

Runs ``repro.core.infine.run_infine`` on every view of one workload
(``perfbench/config.py``), closed loop: one caller in one process runs
the views back to back in a fixed order, over tables made by the
``repro.datasets`` generators from ``--seed``. Every run is checked
against the expected FD set (``perfbench/gate.py``).

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes (``perfbench/spans.py``) and
prints the per-layer metrics, followed by the layer probes. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the
same for a reader. Scratch files and the details of each run go under
``.perfbench/`` at the root of the checkout.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import config

    workloads = {**config.WORKLOADS, "smoke": config.SMOKE}
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tmp = WORK / f"tmp-{os.getpid()}"
    spark_conf = _spark_env(config, tmp)
    bench = Bench(config, spark_conf, args.workload, workloads[args.workload],
                  args.seed, args.seconds)
    try:
        result = bench.run_traced() if args.trace else bench.run()
    finally:
        bench.close()
        shutil.rmtree(tmp, ignore_errors=True)
    bench.report(result, config.PER_LAYER if args.trace else config.END_TO_END)
    return 0


def _spark_env(config, tmp: Path) -> dict[str, str]:
    """Point every scratch file of Python, the JVM and Spark at ``tmp``,
    pin the settings that must be known when the JVM starts, and return
    the session configuration."""
    (tmp / "local").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "local")
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master", config.SPARK_CONF["spark.master"],
            "--driver-memory", config.DRIVER_MEMORY,
            "--driver-java-options", shlex.quote(java_opts),
            "pyspark-shell",
        ]
    )
    return {
        **config.SPARK_CONF,
        "spark.local.dir": str(tmp / "local"),
        "spark.sql.warehouse.dir": str(tmp / "warehouse"),
    }


@dataclass
class Tally:
    """Checked operations: a view run, or a probe."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                msg = f"FAILED {what}: {p}"
                self.reasons.append(msg)
                print(msg, file=sys.stderr)


class RssSampler:
    """Peak resident set size of this process, sampled by a thread."""

    def __init__(self, period_s: float = 0.005):
        self.period_s = period_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self) -> None:
        with open("/proc/self/statm") as f:
            rss = int(f.read().split()[1]) * self._page / 1e6
        self.peak_mb = max(self.peak_mb, rss)

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def _release_free_memory() -> None:
    """Hand memory freed during set-up back to the OS, so the peak RSS of
    the timed passes is not the high-water mark of data generation."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


class Bench:
    def __init__(self, config, spark_conf: dict[str, str], name: str,
                 workload: tuple, seed: int, seconds: float):
        from repro.datasets.queries import all_queries

        self.config = config
        self.spark_conf = spark_conf
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.tally = Tally()
        self.spark = None
        self.tables: dict[tuple[str, float], dict] = {}
        specs = {(q.dataset, q.name): q.spec for q in all_queries()}
        self.views = [(self._key(v), v, specs[(v.dataset, v.name)]) for v in workload]
        self.expected: dict[str, set | None] = {}
        self.trace_out: dict = {}

    @staticmethod
    def _key(v) -> str:
        return f"{v.dataset}@{v.scale:g}:{v.name}"

    # -- Spark session and data ----------------------------------------------
    def _start_session(self):
        from pyspark.sql import SparkSession

        b = SparkSession.builder.appName("perfbench")
        for k, v in self.spark_conf.items():
            b = b.config(k, v)
        spark = b.getOrCreate()
        spark.sparkContext.setLogLevel("ERROR")
        return spark

    def _stop_session(self) -> None:
        if self.spark is None:
            return
        for tabs in self.tables.values():
            for df in tabs.values():
                df.unpersist()
        self.tables = {}
        self.spark.stop()
        self.spark = None

    def setup(self) -> tuple[float, float]:
        """Start Spark, generate and cache the tables, warm up; returns
        (total seconds, seconds inside the data generators)."""
        from pyspark.sql import functions as F

        from repro.datasets.registry import all_datasets

        t0 = time.perf_counter()
        self.spark = self._start_session()
        gen_s = 0.0
        for _, v, _ in self.views:
            if (v.dataset, v.scale) in self.tables:
                continue
            g0 = time.perf_counter()
            raw = all_datasets[v.dataset](self.spark, scale=v.scale, seed=self.seed)
            gen_s += time.perf_counter() - g0
            tabs = {k: df.cache() for k, df in raw.items()}
            for df in tabs.values():
                df.count()
            self.tables[(v.dataset, v.scale)] = tabs
        self.spark.range(0).agg(F.count(F.lit(1))).collect()
        return time.perf_counter() - t0, gen_s

    def close(self) -> None:
        """Stop Spark and the JVM it runs in, and wait for the JVM to end."""
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self._stop_session()
        if gateway is None:
            return
        # The JVM exits when its stdin closes (see pyspark.java_gateway).
        proc = gateway.proc
        gateway.shutdown()
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    # -- correctness gate ------------------------------------------------------
    def load_expected(self) -> None:
        """Expected FD set per view: the straightforward reference (FUN on
        the materialized view), verified by DuckDB, outside any timed
        region. It is recomputed on every run, so every run leaves the
        Python driver with the same allocations before its timed passes."""
        from perfbench.gate import duckdb_problems
        from repro.harness.straightforward import straightforward
        from repro.views.spec import view_sql

        for key, v, spec in self.views:
            tabs = self.tables[(v.dataset, v.scale)]
            # FUN on the collected view: an engine path independent of the
            # Spark one InFine runs on, and seconds instead of minutes.
            fds = straightforward(tabs, spec, "fun", backend="pandas").fds
            base = {n: tabs[n].toPandas() for n in spec.base_names()}
            problems = duckdb_problems(base, view_sql(spec), fds)
            for p in problems:
                print(f"expected set of {key} rejected by DuckDB: {p}", file=sys.stderr)
            self.expected[key] = None if problems else fds

    def _run_view(self, key, v, spec):
        """One gated ``run_infine``; returns (seconds, result or None)."""
        from perfbench.gate import check_result
        from repro.core.infine import run_infine

        t0 = time.perf_counter()
        try:
            res = run_infine(self.tables[(v.dataset, v.scale)], spec)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            self.tally.record(key, ["run_infine raised"])
            return dt, None
        dt = time.perf_counter() - t0
        self.tally.record(key, check_result(res, self.expected.get(key)))
        return dt, res

    def run_pass(self) -> float:
        """All views once, untraced; returns the summed ``run_infine`` time."""
        return sum(self._run_view(*kv)[0] for kv in self.views)

    # -- the untraced run --------------------------------------------------------
    def run(self) -> dict:
        """Set up ``SETUP_REPS`` times, then time passes over the views
        until ``seconds`` have passed, and report their median.

        The first timed pass follows set-up directly, as a user's first
        view would, so it includes Spark's compilation of the queries.
        A pass takes longer than the benchmark's ``run_seconds``, so every
        run times exactly that one pass: a run that fits a warm-up pass
        as well would exceed the time budget of the whole benchmark.
        """
        setups = []
        for _ in range(self.config.SETUP_REPS):
            self._stop_session()
            setups.append(self.setup()[0])
        t0 = time.perf_counter()
        self.load_expected()
        t1 = time.perf_counter()
        _release_free_memory()
        walls = []
        with RssSampler() as rss:
            t_end = time.perf_counter() + self.seconds
            while not walls or time.perf_counter() < t_end:
                walls.append(self.run_pass())
        self.trace_out = {"setup_s": setups, "expected_s": t1 - t0, "wall_s": walls}
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "driver_rss_peak_mb": rss.peak_mb,
        }

    # -- the traced run ----------------------------------------------------------
    def run_traced(self) -> dict:
        from perfbench import probes

        _, gen_s = self.setup()
        self.load_expected()
        # Warm up, so that neither side of the overhead comparison is the
        # first pass of the session; checked but not timed.
        self.run_pass()
        untraced, traced = [], []
        t_end = time.perf_counter() + self.seconds
        while not traced or time.perf_counter() < t_end:
            untraced.append(self.run_pass())
            traced.append(self.traced_pass(len(traced)))
        layer = {k: statistics.median(p[k] for p in traced) for k in traced[0]}
        layer["datasets.gen_s"] = gen_s
        layer["trace.overhead_frac"] = (
            statistics.median(p["wall"] for p in traced) / statistics.median(untraced) - 1
        )
        layer.update(probes.run_all(self.spark, self.seed, self.tally))
        self.trace_out["untraced_wall_s"] = untraced
        return layer

    def traced_pass(self, index: int) -> dict:
        from perfbench.gate import fds_by_group
        from perfbench.spans import LATTICE_CALLERS, STAGE_FUNCS, Tracer

        sc = self.spark.sparkContext
        bus = sc._jsc.sc().listenerBus()
        scheduler = sc._jsc.sc().dagScheduler()
        tracer = Tracer(sc, prefix=f"perfbench{index}")
        m: dict[str, float] = defaultdict(float)
        views = []
        for key, v, spec in self.views:
            tracer.view = key
            first = len(tracer.spans)
            job0 = scheduler.nextJobId()
            with tracer, tracer.span("view"):
                dt, res = self._run_view(key, v, spec)
            bus.waitUntilEmpty(60_000)
            jobs_started = scheduler.nextJobId() - job0
            spans = tracer.spans[first:]
            tracer.collect_jobs(spans)
            m["wall"] += dt
            summary = {"view": key, "wall_s": dt, "jobs": sum(s.jobs for s in spans)}
            problems = []
            if summary["jobs"] != jobs_started:
                problems.append(
                    f"{jobs_started} Spark jobs started but {summary['jobs']} in span groups"
                )
            if res is not None:
                for stage, t in res.timings.items():
                    m[f"core.{stage}_s"] += t
                m["core.driver_s"] += dt - sum(res.timings.values())
                m["spark.jobs_reported"] += res.spark_jobs
                for g, n in fds_by_group(res).items():
                    m[f"core.fds.{g}"] += n
                for stage in STAGE_FUNCS:
                    spanned = sum(s.duration for s in spans if s.name == f"core.{stage}")
                    t = res.timings[stage]
                    if abs(spanned - t) > 0.05 + 0.05 * t:
                        problems.append(
                            f"core.{stage} spans {spanned:.3f} s vs timings {t:.3f} s"
                        )
                summary |= {"jobs_reported": res.spark_jobs, "timings": res.timings}
            self.tally.record(f"{key} (trace reconciliation)", problems)
            views.append(summary)

        spans = tracer.spans
        c = tracer.counts
        by_name: dict[str, list] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        children = {s.parent for s in spans if s.name == "lattice.mine_join"}
        m["core.mine_join_skipped"] = sum(
            1 for s in by_name.get("core.mine_join", []) if s.sid not in children
        )
        for stage in LATTICE_CALLERS:
            m[f"lattice.calls.{stage}"] = c[f"lattice.calls.{stage}"]
            m[f"lattice.s.{stage}"] = sum(s.duration for s in by_name.get(f"lattice.{stage}", []))
        for k in ("lattice.theorem4_tests", "lattice.theorem4_vetoes", "engine.instances",
                  "engine.prefetch_calls", "engine.sets_requested", "engine.sets_counted",
                  "engine.batches"):
            m[k] = c[k]
        m["engine.rows_max"] = tracer.rows_max
        m["engine.hit_ratio"] = 1 - c["engine.sets_counted"] / max(1, c["engine.sets_requested"])
        m["engine.prefetch_s"] = sum(s.duration for s in by_name.get("engine.prefetch", []))
        m["spark.jobs"] = sum(s.jobs for s in spans)
        m["spark.jobs_engine"] = sum(s.jobs for s in spans if s.name.startswith("engine."))
        m["spark.jobs_other"] = m["spark.jobs"] - m["spark.jobs_engine"]
        m["spark.tasks"] = sum(s.tasks for s in spans)
        m["spark.s_per_job"] = m["wall"] / max(1, m["spark.jobs"])
        m["spark.cache_mb_peak"] = tracer.cache_mb_peak
        self.trace_out.setdefault("passes", []).append(
            {
                "views": views,
                "spans": [
                    {"id": s.sid, "name": s.name, "parent": s.parent, "view": s.view,
                     "start": s.start, "end": s.end, "self_s": s.self_s,
                     "jobs": s.jobs, "tasks": s.tasks}
                    for s in spans
                ],
            }
        )
        return dict(m)

    # -- output ------------------------------------------------------------------
    def report(self, values: dict, table: dict) -> None:
        metrics = {k: {"value": values[k], "unit": table[k][0]} for k in table}
        t = self.tally
        print(f"workload {self.name}, seed {self.seed}: "
              + "; ".join(k for k, _, _ in self.views))
        print("spark: " + json.dumps(self.spark_conf, sort_keys=True))
        for k, mv in metrics.items():
            print(f"  {k} = {mv['value']:.6g} {mv['unit']}")
        print(f"  failed_frac = {t.failed / max(1, t.attempted):.6g} "
              f"({t.failed} of {t.attempted} checked runs)")
        WORK.mkdir(parents=True, exist_ok=True)
        kind = "trace" if table is self.config.PER_LAYER else "run"
        out = WORK / f"{kind}-{self.name}-{self.seed}.json"
        out.write_text(json.dumps(
            {"metrics": metrics, "failures": t.reasons, **self.trace_out},
            ensure_ascii=False, indent=1,
        ))
        print(f"  details: {out.relative_to(ROOT)}")
        print(json.dumps({
            "correct": t.failed == 0,
            "attempted": t.attempted,
            "failed": t.failed,
            "metrics": metrics,
        }))


if __name__ == "__main__":
    sys.exit(main())

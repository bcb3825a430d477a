"""Workloads, pinned Spark settings and the metric table of the benchmark.

``BENCHMARK.json`` holds the fixed-format summary the benchmark is judged
by; this module holds what that format has no room for: each workload's
views and scales, the Spark configuration, and, for every per-layer
metric, the end-to-end metric and workload it should move.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

# Spark runs in local mode on at most 4 cores, with these settings and
# nothing else changed. Shuffle partitions equal the core count: the
# instances are small and each validity check is one Spark job, so more
# partitions only add tasks per job.
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
SPARK_CONF = {
    "spark.master": f"local[{CORES}]",
    "spark.driver.memory": DRIVER_MEMORY,
    "spark.sql.shuffle.partitions": str(CORES),
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
    # Keep every job and stage of a view readable from statusTracker.
    "spark.ui.retainedJobs": "10000",
    "spark.ui.retainedStages": "50000",
}

# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3


@dataclass(frozen=True)
class View:
    dataset: str
    scale: float
    name: str  # as in repro.datasets.queries


# A workload is the views one run takes through ``run_infine``, in order.
# Two workloads of one view each: a run (Spark start, three set-ups, the
# reference and the timed pass) has to stay near a minute on 4 cores,
# where one 32-set distinct-count batch costs about 0.7 s even on small
# instances and a view needs 40-120 Spark jobs. Why each was chosen is
# its "why" in BENCHMARK.json.
WORKLOADS = {
    # 2,400 rows; ~120 Spark jobs; ~60% of the time in join-FD mining.
    "mine_join": (View("mimic3", 1.0, "diagnosesicd ⋈ patients"),),
    # ~1e5 rows; ~80 data-bound jobs; every lattice caller but selection.
    "large_rows": (View("ptc", 25.0, "connected ⋈ bond"),),
}

# A few-second workload for the benchmark's self-check; not one of the
# workloads in BENCHMARK.json.
SMOKE = (
    View("mimic3", 0.02, "dicddiagnoses ⋈ diagnosesicd"),
    View("tpch", 0.1, "Q11*(PS ⋈ S ⋈ N)"),
)

ALL = "mine_join,large_rows"

# End-to-end metrics: name -> (unit, better). Measured untraced.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "driver_rss_peak_mb": ("MB", "lower"),
}

# Per-layer metrics from the traced run:
# name -> (unit, better, end-to-end metric it should move, workloads).
PER_LAYER = {
    "datasets.gen_s": ("s", "lower", "setup_s", ALL),
    "core.base_s": ("s", "lower", "wall_s", "mine_join"),
    "core.upstage_join_s": ("s", "lower", "wall_s", "mine_join"),
    "core.infer_s": ("s", "lower", "wall_s", "mine_join"),
    "core.mine_join_s": ("s", "lower", "wall_s", "mine_join"),
    "core.io_s": ("s", "lower", "wall_s", "large_rows"),
    "core.driver_s": ("s", "lower", "wall_s", ALL),
    "core.mine_join_skipped": ("count", "higher", "wall_s", "mine_join"),
    "core.fds.upstage": ("count", "higher", "wall_s", "mine_join"),
    "core.fds.infer": ("count", "higher", "wall_s", "mine_join"),
    "core.fds.mine": ("count", "lower", "wall_s", "mine_join"),
    "lattice.calls.base": ("count", "lower", "wall_s", "mine_join"),
    "lattice.calls.upstage_join": ("count", "lower", "wall_s", "mine_join"),
    "lattice.calls.mine_join": ("count", "lower", "wall_s", "mine_join"),
    "lattice.s.base": ("s", "lower", "wall_s", "mine_join"),
    "lattice.s.upstage_join": ("s", "lower", "wall_s", "mine_join"),
    "lattice.s.mine_join": ("s", "lower", "wall_s", "mine_join"),
    "lattice.theorem4_tests": ("count", "lower", "wall_s", "mine_join"),
    "lattice.theorem4_vetoes": ("count", "higher", "wall_s", "mine_join"),
    "engine.instances": ("count", "lower", "driver_rss_peak_mb", "large_rows"),
    "engine.rows_max": ("rows", "lower", "driver_rss_peak_mb", "large_rows"),
    "engine.prefetch_calls": ("count", "lower", "wall_s", "mine_join"),
    "engine.sets_requested": ("count", "lower", "wall_s", "mine_join"),
    "engine.sets_counted": ("count", "lower", "wall_s", "mine_join"),
    "engine.hit_ratio": ("ratio", "higher", "wall_s", "mine_join"),
    "engine.batches": ("count", "lower", "wall_s", "mine_join"),
    "engine.prefetch_s": ("s", "lower", "wall_s", "mine_join"),
    "engine.batch32_s.2k": ("s", "lower", "wall_s", "mine_join"),
    "engine.batch32_s.20k": ("s", "lower", "wall_s", "mine_join"),
    "engine.batch32_s.200k": ("s", "lower", "wall_s", "large_rows"),
    "spark.jobs": ("count", "lower", "wall_s", ALL),
    "spark.jobs_reported": ("count", "lower", "wall_s", ALL),
    "spark.jobs_engine": ("count", "lower", "wall_s", ALL),
    "spark.jobs_other": ("count", "lower", "wall_s", ALL),
    "spark.tasks": ("count", "lower", "wall_s", ALL),
    "spark.s_per_job": ("s", "lower", "wall_s", ALL),
    "spark.empty_job_s": ("s", "lower", "wall_s", "mine_join"),
    "spark.cache_mb_peak": ("MB", "lower", "driver_rss_peak_mb,wall_s", "large_rows"),
    "trace.overhead_frac": ("ratio", "lower", "wall_s", ALL),
}

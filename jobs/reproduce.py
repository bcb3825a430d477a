"""Reproduce one of the paper's evaluation tables.

Usage: python jobs/reproduce.py {table1,table2,table3,runtime} [scale|bench]

- table1: Table I, base-table characteristics (Att#, Tuple#, FD#).
- table2: Table II, SPJ view characteristics (Tuple#, FD#).
- table3: Table III, InFine accuracy split and time breakdowns.
- runtime: Fig. 3 / Fig. 4 as a table, runtime and driver memory of
  InFine against HyFD/FUN/TANE/FastFDs over the 16 views.

``scale`` is one float for every dataset (default 1.0); ``bench`` is the
per-dataset ``BENCH_SCALE``. Paper-vs-ours numbers are recorded in
EXPERIMENTS.md.
"""
import os
import sys
from importlib import import_module

# name (a module of repro.harness) -> (rows function, format function, title)
TABLES = {
    "table1": ("table1_rows", "format_table1", "Table I"),
    "table2": ("table2_rows", "format_table2", "Table II"),
    "table3": ("table3_rows", "format_table3", "Table III"),
    "runtime": ("runtime_rows", "format_runtime", "Runtime / memory comparison"),
}
USAGE = f"usage: python jobs/reproduce.py {{{','.join(TABLES)}}} [scale|bench]"


def resolve(arg: str):
    """The harness ``scale`` a command-line argument names."""
    if arg == "bench":
        from repro.harness import BENCH_SCALE

        return BENCH_SCALE
    return float(arg)


def get_spark(app: str):
    """A Spark session with the settings every table is run with. The
    master, driver memory and shuffle partitions come from
    ``SPARK_MASTER``, ``SPARK_DRIVER_MEM`` and ``SPARK_SHUFFLE_PARTITIONS``;
    the first two only take effect before the JVM starts."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2 or argv[0] not in TABLES:
        print(USAGE, file=sys.stderr)
        return 2
    rows_fn, format_fn, title = TABLES[argv[0]]
    scale = resolve(argv[1] if len(argv) > 1 else "1.0")
    harness = import_module(f"repro.harness.{argv[0]}")
    spark = get_spark(argv[0])
    try:
        rows = getattr(harness, rows_fn)(spark, scale=scale)
    finally:
        spark.stop()
    print(f"\n# {title} (scale={scale})\n")
    print(getattr(harness, format_fn)(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

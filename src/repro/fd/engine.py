"""Distinct-count engine: the single source of FD-validity truth.

``X -> y`` holds on an instance iff ``|distinct(X)| == |distinct(X ∪ {y})|``
— the partition-cardinality test of TANE. A Spark instance is counted by
one of two kernels, picked once per engine from what it can observe:

- **In process.** When rows × columns is below ``_COLLECT_CELLS`` (and
  no column is nested), the instance is collected once with
  ``toArrow()`` — one Spark job — and each column is dictionary-encoded
  once. Every distinct count is then a numpy count over packed int64
  keys (``key·card + codes``, the stripped-partition / PLI idea of TANE
  and HyFD), with no further Spark job. Without a row count the engine
  does not count first: it collects at most ``fit + 1`` rows, where
  ``fit`` is the most rows the cap allows. At most ``fit`` rows is the
  whole instance, and gives the row count; more means the instance
  stays on Spark. Spark keeps the relational work (σ, joins, caching);
  callers pass instances already pruned to the attributes they mine, so
  the collect reads only those.
- **On Spark.** Larger instances, which the driver may not hold, are
  counted by batched ``count_distinct(struct(...))`` aggregations: one
  Spark job validates a whole lattice level and Catalyst's column
  pruning reads only the attributes referenced.

Both kernels count with the same equality: NULL equals NULL, NaN equals
NaN, ``-0.0`` equals ``0.0``, and NULL differs from NaN. Spark gets this
from ``struct`` (never NULL itself, so rows with NULL fields are counted
— the null-agnostic FD semantics of the paper, Definition 1 remark) and
from its float normalization; the in-process kernel gets it by encoding
NULL as a value of its own and by normalizing floats before encoding,
since Arrow alone tells ``-0.0`` from ``0.0`` and NaN payloads apart.

A pandas frame is counted with ``drop_duplicates``: an independent
reference for tests and the benchmark's correctness gate. It sees the
data through ``toPandas()``, which maps NULL and NaN in a float column
to the same NaN, so on such columns it is no reference.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, MapType, StructType

from repro.fd.model import FD

# How many count_distinct aggregates to put in a single Spark job. Each
# distinct aggregate expands the input once (Expand operator), so this
# bounds the expansion factor per job.
_BATCH = 32
# Spark instances with fewer cells (rows × columns) than this are
# collected into the driver and counted in process: 2M cells are a few
# tens of MB of Arrow data and 16 MB of int64 codes.
_COLLECT_CELLS = 2_000_000
_INT64_MAX = 2**63 - 1


class FDEngine:
    """Memoized distinct counts over one instance.

    The instance's type picks the path: a Spark DataFrame is counted by
    one of the two kernels above, a pandas frame by ``drop_duplicates``.
    ``n_rows`` is the exact row count if the caller knows it: the kernel
    is then picked without reading the instance.
    """

    def __init__(self, df: DataFrame | pd.DataFrame, *, n_rows: int | None = None):
        self.df = df
        self._cache: dict[frozenset[str], int] = {}
        self._nrows: int | None = n_rows  # pre-known row count skips a job
        # column -> (dictionary codes, cardinality) once collected, None
        # on the Spark kernel; the kernel is picked on first use.
        self._codes: dict[str, tuple[np.ndarray, int]] | None = None
        self._picked = False
        self.jobs = 0  # number of Spark jobs issued

    # -- kernel choice -----------------------------------------------------
    def in_process(self) -> bool:
        """Whether the Spark instance is counted in process. The first
        call picks the kernel, collecting the instance if it is small
        enough."""
        return self._collected() is not None

    def _collected(self) -> dict[str, tuple[np.ndarray, int]] | None:
        """The in-process codes, collecting on first use if the instance
        is small enough; None if it stays on Spark."""
        if not self._picked:
            self._picked = True
            self._codes = self._collect()
        return self._codes

    def _collect(self) -> dict[str, tuple[np.ndarray, int]] | None:
        fields = self.df.schema.fields
        if not fields or any(
            isinstance(f.dataType, (ArrayType, MapType, StructType)) for f in fields
        ):
            return None
        fit = (_COLLECT_CELLS - 1) // len(fields)  # most rows under the cap
        if self._nrows is not None and self._nrows > fit:
            return None
        df = self.df if self._nrows is not None else self.df.limit(fit + 1)
        table = df.toArrow()
        self.jobs += 1
        if table.num_rows > fit:
            return None
        self._nrows = table.num_rows
        return {
            name: _encode(col) for name, col in zip(table.column_names, table.columns)
        }

    # -- row count ---------------------------------------------------------
    def n_rows(self) -> int:
        if self._nrows is None:
            if isinstance(self.df, pd.DataFrame):
                self._nrows = len(self.df)
            elif self._collected() is None and self._nrows is None:
                self._nrows = self.df.count()
                self.jobs += 1
        return self._nrows

    # -- distinct counts ---------------------------------------------------
    def prefetch(self, attr_sets: Iterable[frozenset[str]]) -> None:
        """Compute and cache distinct counts for all given attribute sets,
        batching uncached ones into as few jobs as possible."""
        todo = []
        seen = set()
        for s in attr_sets:
            s = frozenset(s)
            if s and s not in self._cache and s not in seen:
                todo.append(s)
                seen.add(s)
        if not todo:
            return
        if isinstance(self.df, pd.DataFrame):
            for s in todo:
                self._cache[s] = len(self.df.drop_duplicates(subset=sorted(s)).index)
            return
        codes = self._collected()
        if codes is not None:
            for s in todo:
                self._cache[s] = _distinct_count([codes[a] for a in sorted(s)])
            return
        for i in range(0, len(todo), _BATCH):
            chunk = todo[i : i + _BATCH]
            aggs = [
                F.count_distinct(F.struct(*sorted(s))).alias(f"c{j}")
                for j, s in enumerate(chunk)
            ]
            row = self.df.agg(*aggs).collect()[0]
            self.jobs += 1
            for j, s in enumerate(chunk):
                self._cache[s] = row[f"c{j}"]

    def distinct_count(self, attrs: Iterable[str]) -> int:
        s = frozenset(attrs)
        if not s:
            # |distinct(∅)| is 1 on a non-empty instance, 0 on an empty one.
            return 1 if self.n_rows() > 0 else 0
        if s not in self._cache:
            self.prefetch([s])
        return self._cache[s]

    # -- FD checks ---------------------------------------------------------
    def holds(self, lhs: Iterable[str], rhs: str) -> bool:
        lhs = frozenset(lhs)
        return self.distinct_count(lhs) == self.distinct_count(lhs | {rhs})

    def check_fds(self, fds: Iterable[FD]) -> dict[FD, bool]:
        """Validate many FDs with batched jobs."""
        fds = list(fds)
        wanted: list[frozenset[str]] = []
        for d in fds:
            wanted.append(d.lhs_set())
            wanted.append(d.attrs())
        self.prefetch(w for w in wanted if w)
        return {d: self.holds(d.lhs_set(), d.rhs) for d in fds}


def _encode(col: pa.ChunkedArray) -> tuple[np.ndarray, int]:
    """Dictionary codes of one column (NULL gets a code of its own) and
    the number of distinct values. Floats are normalized first: adding
    0.0 turns -0.0 into 0.0, and every NaN becomes the same NaN."""
    arr = col.combine_chunks()
    if pa.types.is_floating(arr.type):
        arr = pc.add(arr, 0.0)
        arr = pc.if_else(pc.is_nan(arr), float("nan"), arr)
    enc = pc.dictionary_encode(arr, null_encoding="encode")
    return enc.indices.to_numpy().astype(np.int64), len(enc.dictionary)


def _distinct_count(cols: list[tuple[np.ndarray, int]]) -> int:
    """Distinct rows over the given coded columns. The columns are packed
    into one int64 key; when the product of cardinalities would overflow,
    the partial key is first re-encoded to dense codes (at most one code
    per row)."""
    key, card = cols[0]
    for codes, k in cols[1:]:
        if card * k > _INT64_MAX:
            uniq, key = np.unique(key, return_inverse=True)
            card = len(uniq)
        key = key * k + codes
        card *= k
    if card <= 4 * len(key) + 1024:  # dense key range: count in linear time
        return int(np.count_nonzero(np.bincount(key, minlength=1)))
    return len(np.unique(key))

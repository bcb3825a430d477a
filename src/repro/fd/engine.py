"""Distinct-count engine: the single source of FD-validity truth.

``X -> y`` holds on an instance iff ``|distinct(X)| == |distinct(X ∪ {y})|``
— the partition-cardinality test of TANE. ``FDEngine`` counts a Spark
DataFrame, with one of two kernels picked once per engine, or an
``Encoded`` instance, in process:

- **In process.** When rows × columns is below ``_COLLECT_CELLS`` (and
  no column is nested), the instance is collected once with
  ``toArrow()`` — one Spark job — and each column is dictionary-encoded
  once into an ``Encoded`` instance. Every distinct count is then a
  numpy count over packed int64 keys (``key·card + codes``, the
  stripped-partition / PLI idea of TANE and HyFD). Spark's ``rowCount``
  statistic, read from the plan with no job, picks the collect: at most
  ``fit``, the most rows the cap allows, collects the instance whole
  (one stage, no exchange); above it, or with no statistic, at most
  ``fit + 1`` rows are collected. The row count is the collected
  table's ``num_rows``, never the statistic, which some operators only
  estimate; more than ``fit`` rows keeps the instance on Spark. Two
  encoded instances are joined in the driver on their codes
  (``Encoded.join``), with no Spark job: each key column of both sides
  is put over one dictionary, each output row is a pair of row indices
  (-1 for a NULL-padded side), and each key takes the code of the side
  present.
- **On Spark.** Larger instances, which the driver may not hold, are
  counted by batched ``count_distinct(struct(...))`` aggregations: one
  Spark job validates a whole lattice level and Catalyst's column
  pruning reads only the attributes referenced.

Both kernels count with the same equality: NULL equals NULL, NaN equals
NaN, ``-0.0`` equals ``0.0``, and NULL differs from NaN. Spark gets this
from ``struct`` (never NULL itself, so rows with NULL fields are counted
— the null-agnostic FD semantics of the paper, Definition 1 remark) and
from its float normalization; the in-process kernel gets it by encoding
NULL as code 0 of every column and by normalizing floats before encoding,
since Arrow alone tells ``-0.0`` from ``0.0`` and NaN payloads apart.
A join on codes matches keys with the same equality, except that, as
in Spark, a NULL key matches nothing. HyFD and FastFDs read their whole
instance as the same codes (``Encoded.of``). Tests and the benchmark's
gate check both kernels against ``bruteforce.ReferenceCounter``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, MapType, StructType

from repro.fd.model import FD
from repro.views.spec import _OPS

# How many count_distinct aggregates to put in a single Spark job. Each
# distinct aggregate expands the input once (Expand operator), so this
# bounds the expansion factor per job.
_BATCH = 32
# Spark instances with fewer cells (rows × columns) than this are
# collected into the driver and counted in process: 2M cells are a few
# tens of MB of Arrow data and 8 MB of int32 codes.
_COLLECT_CELLS = 2_000_000
_INT64_MAX = 2**63 - 1


class FDEngine:
    """Memoized distinct counts over one instance.

    A Spark DataFrame is counted by one of the two kernels above, an
    ``Encoded`` instance in process. ``n_rows`` is the exact row count if
    the caller knows it: the kernel is then picked without reading the
    instance.
    """

    def __init__(self, df: DataFrame | Encoded, *, n_rows: int | None = None):
        if not isinstance(df, (DataFrame, Encoded)):
            raise TypeError(f"not a Spark DataFrame or Encoded: {type(df).__name__}")
        # The in-process instance; for a Spark one it is collected, or
        # found to stay on Spark (None), on first use.
        self._encoded: Encoded | None = None
        self._picked = isinstance(df, Encoded)
        if self._picked:
            self._encoded, n_rows, df = df, df.n_rows, None
        self.df = df  # the Spark instance; None if built in process
        self._cache: dict[frozenset[str], int] = {}
        self._nrows: int | None = n_rows  # pre-known row count skips a job
        self.jobs = 0  # number of Spark jobs issued

    # -- kernel choice -----------------------------------------------------
    def encoded(self) -> Encoded | None:
        """The in-process instance, collecting a Spark one on first use
        if it is small enough; None if it stays on Spark."""
        if not self._picked:
            self._picked = True
            self._encoded = self._collect()
        return self._encoded

    def _collect(self) -> Encoded | None:
        fields = self.df.schema.fields
        if not fields or any(
            isinstance(f.dataType, (ArrayType, MapType, StructType)) for f in fields
        ):
            return None
        fit = _fit(len(fields))
        if self._nrows is not None and self._nrows > fit:
            return None
        bound = self._nrows if self._nrows is not None else _row_bound(self.df)
        df = self.df if bound is not None and bound <= fit else self.df.limit(fit + 1)
        table = df.toArrow()
        self.jobs += 1
        if table.num_rows > fit:
            return None
        self._nrows = table.num_rows
        return Encoded.from_arrow(table)

    # -- row count ---------------------------------------------------------
    def n_rows(self) -> int:
        if self._nrows is None and self.encoded() is None:
            self._nrows = self.df.count()
            self.jobs += 1
        return self._nrows

    # -- distinct counts ---------------------------------------------------
    def prefetch(self, attr_sets: Iterable[frozenset[str]]) -> None:
        """Compute and cache distinct counts for all given attribute sets,
        batching uncached ones into as few jobs as possible."""
        fresh = (s for s in map(frozenset, attr_sets) if s and s not in self._cache)
        todo = list(dict.fromkeys(fresh))
        if not todo:
            return
        enc = self.encoded()
        if enc is not None:
            for s in todo:
                self._cache[s] = _distinct_count(
                    [(enc.cols[a].codes, enc.cols[a].card) for a in sorted(s)]
                )
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
        if not s:  # |distinct(∅)| is 1 on a non-empty instance, 0 on an empty one
            return min(self.n_rows(), 1)
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
        self.prefetch(s for d in fds for s in (d.lhs_set(), d.attrs()))
        return {d: self.holds(d.lhs_set(), d.rhs) for d in fds}


def _fit(ncols: int) -> int:
    """The most rows of ``ncols`` columns under the cap."""
    return (_COLLECT_CELLS - 1) // ncols


def _row_bound(df: DataFrame) -> int | None:
    """Spark's ``rowCount`` statistic of ``df``, read with no job from
    the optimized plan that ``toArrow()`` reuses, below any Project or
    Filter (neither adds rows); None if Spark has none. Some operators
    only estimate it (a sample; a semijoin reports its left side's)."""
    plan = df._jdf.queryExecution().optimizedPlan()
    while plan.nodeName() in ("Project", "Filter"):
        plan = plan.child()
    count = plan.stats().rowCount()
    return int(count.get()) if count.isDefined() else None


@dataclass
class _Column:
    """One column as dictionary codes. NULL is code 0 in every column,
    whether or not the column holds one, so a padded row is code 0 and
    NULL keys map to each other across dictionaries."""

    codes: np.ndarray  # int32, one per row
    card: int  # every code is below it
    values: pa.Array | None  # the dictionary (values[code]), join attributes only

    def take(self, idx: np.ndarray) -> _Column:
        """The column at rows ``idx``, where -1 reads NULL (a padded row)."""
        return _Column(np.append(self.codes, np.int32(0))[idx], self.card, self.values)


def _encode(col: pa.ChunkedArray) -> _Column:
    """Dictionary codes of one column, NULL first: one NULL is put before
    the first row, so it is code 0, and its code is dropped again (the
    codes stay a view of Arrow's indices). Floats are normalized first:
    adding 0.0 turns -0.0 into 0.0, and every NaN becomes the same NaN."""
    arr = pa.chunked_array([pa.nulls(1, col.type), *col.chunks]).combine_chunks()
    if pa.types.is_floating(arr.type):
        arr = pc.add(arr, 0.0)
        arr = pc.if_else(pc.is_nan(arr), float("nan"), arr)
    enc = pc.dictionary_encode(arr, null_encoding="encode")
    return _Column(enc.indices.to_numpy()[1:], len(enc.dictionary), enc.dictionary)


class Encoded:
    """An instance held in process: its row count and, per column, its
    dictionary codes. Dictionaries are needed only to match join keys,
    so callers keep them for join attributes only (``keep_dicts``)."""

    def __init__(self, n_rows: int, cols: dict[str, _Column]):
        self.n_rows = n_rows
        self.cols = cols

    @classmethod
    def from_arrow(cls, table: pa.Table) -> Encoded:
        return cls(
            table.num_rows,
            {name: _encode(col) for name, col in zip(table.column_names, table.columns)},
        )

    @classmethod
    def of(cls, inst: DataFrame | pa.Table, attrs: Sequence[str]) -> Encoded:
        """The whole instance over ``attrs``, collected (one Spark job for
        a Spark instance) and encoded, with no dictionaries. A nested
        column raises."""
        table = inst.select(list(attrs))
        if isinstance(table, DataFrame):
            table = table.toArrow()
        enc = cls.from_arrow(table)
        enc.keep_dicts(frozenset())
        return enc

    def rows(self, attrs: Sequence[str]) -> np.ndarray:
        """The codes of ``attrs`` as a rows × attrs int32 matrix."""
        return np.column_stack(
            [self.cols[a].codes for a in attrs] or [np.empty((self.n_rows, 0), np.int32)]
        )

    def select(self, names: Iterable[str]) -> Encoded:
        return Encoded(self.n_rows, {a: self.cols[a] for a in names})

    def keep_dicts(self, names: frozenset[str]) -> None:
        """Drop the dictionary of every column not in ``names``."""
        for name, col in self.cols.items():
            if name not in names:
                col.values = None

    def join(self, other: Encoded, on: Sequence[str], how: str) -> Encoded | None:
        """``self ⋈ other`` on the key columns ``on`` with Spark's
        ``df.join(other, on=list(on), how=...)`` semantics: one copy of
        each key, the side present; a NULL key matches nothing; a
        semijoin keeps each matching row of ``self`` once. Unmatched rows
        of a side the operator keeps are NULL-padded. None if the result
        would not fit under ``_COLLECT_CELLS`` or a key's types differ
        across sides: the join then stays on Spark."""
        if any(self.cols[a].values.type != other.cols[a].values.type for a in on):
            return None
        joint = [_joint(self.cols[a], other.cols[a]) for a in on]
        lkey, rkey = _join_keys(joint, self.n_rows)
        # Left row i matches the cnt[i] right rows order[lo[i] : lo[i] + cnt[i]].
        order = np.argsort(rkey, kind="stable")
        rsorted = rkey[order]
        lo = np.searchsorted(rsorted, lkey, "left")
        cnt = np.searchsorted(rsorted, lkey, "right") - lo
        keep_l, keep_r = _OPS[how].keeps
        r_only = np.empty(0, np.int64)
        if keep_r:  # right rows no left row matches: mark the matched runs
            hit = cnt > 0
            marks = np.bincount(lo[hit], minlength=len(order) + 1)
            marks -= np.bincount((lo + cnt)[hit], minlength=len(order) + 1)
            r_only = order[np.cumsum(marks[:-1]) == 0]
        if how == "semi":
            cnt = np.minimum(cnt, 1)
        # Output row j is left row li[j] and right row ri[j], -1 marking a
        # NULL-padded side. Left row i gives reps[i] rows; a kept unmatched
        # one reads -1 from past the end of order.
        reps = np.maximum(cnt, 1) if keep_l else cnt
        n = int(reps.sum()) + len(r_only)
        width = len(self.cols) + (0 if how == "semi" else len(other.cols) - len(on))
        if n > _fit(width):
            return None
        lo[cnt == 0] = len(order)
        li = np.repeat(np.arange(len(reps)), reps)
        pos = np.repeat(lo - (np.cumsum(reps) - reps), reps) + np.arange(len(li))
        li = np.concatenate([li, np.full(len(r_only), -1)])
        ri = np.concatenate([np.append(order, -1)[pos], r_only])
        cols = {a: col.take(li) for a, col in self.cols.items() if a not in on}
        if how != "semi":
            cols |= {a: col.take(ri) for a, col in other.cols.items() if a not in on}
        for a, (lcol, rcol) in zip(on, joint):
            codes = np.where(li >= 0, lcol.take(li).codes, rcol.take(ri).codes)
            cols[a] = _Column(codes, lcol.card, lcol.values)
        return Encoded(n, cols)


def _join_keys(
    joint: list[tuple[_Column, _Column]], n_left: int
) -> tuple[np.ndarray, np.ndarray]:
    """One join key per row of each side, packed from the key columns
    over their shared dictionaries; -1 for a right row whose key has a
    NULL, so that it matches nothing."""
    key = _pack([(np.concatenate([lc.codes, rc.codes]), lc.card) for lc, rc in joint])[0]
    null = np.any([rc.codes == 0 for _, rc in joint], axis=0)
    return key[:n_left], np.where(null, -1, key[n_left:])


def _joint(lcol: _Column, rcol: _Column) -> tuple[_Column, _Column]:
    """Both columns over one dictionary: the left dictionary, then the
    right values it lacks. NULL stays code 0, and a right value the left
    lacks gets a code no left row holds."""
    to_joint = pc.fill_null(pc.index_in(rcol.values, value_set=lcol.values), -1)
    to_joint = to_joint.to_numpy().copy()
    new = np.flatnonzero(to_joint < 0)
    to_joint[new] = lcol.card + np.arange(len(new), dtype=np.int32)
    values = pa.concat_arrays([lcol.values, rcol.values.take(new)])
    card = lcol.card + len(new)
    return _Column(lcol.codes, card, values), _Column(to_joint[rcol.codes], card, values)


def _pack(cols: list[tuple[np.ndarray, int]]) -> tuple[np.ndarray, int]:
    """One key per row over the given coded columns, equal iff the rows
    are, and a bound on the keys. The columns are packed into one int64
    key; when the product of cardinalities would overflow, the partial
    key is first re-encoded to dense codes (at most one code per row)."""
    key, card = cols[0]
    for codes, k in cols[1:]:
        if card * k > _INT64_MAX:
            uniq, key = np.unique(key, return_inverse=True)
            card = len(uniq)
        key = key.astype(np.int64, copy=False) * k + codes  # codes are int32
        card *= k
    return key, card


def _distinct_count(cols: list[tuple[np.ndarray, int]]) -> int:
    """Distinct rows over the given coded columns."""
    key, card = _pack(cols)
    if card <= 4 * len(key) + 1024:  # dense key range: count in linear time
        return int(np.count_nonzero(np.bincount(key, minlength=1)))
    return len(np.unique(key))

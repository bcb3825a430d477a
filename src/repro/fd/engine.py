"""Distinct-count engine: the single source of FD-validity truth.

``X -> y`` holds on an instance iff ``|distinct(X)| == |distinct(X ∪ {y})|``
— the partition-cardinality test of TANE. A Spark instance is counted by
one of two kernels, picked once per engine from what it can observe:

- **In process.** When rows × columns is below ``_COLLECT_CELLS`` (and
  no column is nested), the instance is collected once with
  ``toArrow()`` — one Spark job — and each column is dictionary-encoded
  once into an ``Encoded`` instance. Every distinct count is then a
  numpy count over packed int64 keys (``key·card + codes``, the
  stripped-partition / PLI idea of TANE and HyFD), with no further
  Spark job. Without a row count the engine does not count first: it
  collects at most ``fit + 1`` rows, where ``fit`` is the most rows the
  cap allows. At most ``fit`` rows is the whole instance, and gives the
  row count; more means the instance stays on Spark. Callers pass
  instances already pruned to the attributes they mine, so the collect
  reads only those. Two encoded instances are joined in the driver on
  their codes (``Encoded.join``), with no Spark job: Spark reads only
  the leaves and σ, and keeps the joins whose inputs or output stay on
  Spark. ``FDEngine(encoded)`` counts such an instance.
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
in Spark, a NULL key matches nothing. The HyFD and FastFDs baselines
read their whole instance as the same codes (``Encoded.of``), so this
encoding is the only equality an in-process miner uses.

A pandas frame is counted with ``drop_duplicates``: an independent
reference for tests and the benchmark's correctness gate. It counts
None apart from NaN in an object column, but it sees Spark data through
``toPandas()``, which maps NULL and NaN in a float column to the same
NaN, so on such columns it is no reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, MapType, StructType

from repro.fd.model import FD
from repro.views.spec import _KEEPS

# How many count_distinct aggregates to put in a single Spark job. Each
# distinct aggregate expands the input once (Expand operator), so this
# bounds the expansion factor per job.
_BATCH = 32
# Spark instances with fewer cells (rows × columns) than this are
# collected into the driver and counted in process: 2M cells are a few
# tens of MB of Arrow data and 8 MB of int32 codes.
_COLLECT_CELLS = 2_000_000
_INT64_MAX = 2**63 - 1
_NONE = object()  # stands for None in a pandas object column


class FDEngine:
    """Memoized distinct counts over one instance.

    The instance's type picks the path: a Spark DataFrame is counted by
    one of the two kernels above, an ``Encoded`` instance in process, a
    pandas frame by ``drop_duplicates``. ``n_rows`` is the exact row
    count if the caller knows it: the kernel is then picked without
    reading the instance.
    """

    def __init__(
        self, df: DataFrame | pd.DataFrame | Encoded, *, n_rows: int | None = None
    ):
        if isinstance(df, pd.DataFrame):
            df = _none_apart(df)
        # The in-process instance; for a Spark one it is collected, or
        # found to stay on Spark (None), on first use.
        self._encoded: Encoded | None = None
        self._picked = isinstance(df, Encoded)
        if self._picked:
            self._encoded, n_rows, df = df, df.n_rows, None
        self.df = df  # the Spark or pandas instance; None if built in process
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
        df = self.df if self._nrows is not None else self.df.limit(fit + 1)
        table = df.toArrow()
        self.jobs += 1
        if table.num_rows > fit:
            return None
        self._nrows = table.num_rows
        return Encoded.from_arrow(table)

    # -- row count ---------------------------------------------------------
    def n_rows(self) -> int:
        if self._nrows is None:
            if isinstance(self.df, pd.DataFrame):
                self._nrows = len(self.df)
            elif self.encoded() is None:
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


def _fit(ncols: int) -> int:
    """The most rows of ``ncols`` columns under the cap."""
    return (_COLLECT_CELLS - 1) // ncols


def _none_apart(pdf: pd.DataFrame) -> pd.DataFrame:
    """``pdf`` with None in an object column replaced by a stand-in.
    ``drop_duplicates`` over several columns takes None and NaN there for
    one value, and over one column for two; with the stand-in both count
    them apart, as Spark does."""
    obj = [c for c in pdf.columns if pdf[c].dtype == object and pdf[c].isna().any()]
    if not obj:
        return pdf
    return pdf.assign(**{c: pdf[c].map(lambda v: _NONE if v is None else v) for c in obj})


@dataclass
class _Column:
    """One column as dictionary codes. NULL is code 0 in every column,
    whether or not the column holds one, so a padded row is code 0 and
    NULL keys map to each other across dictionaries."""

    codes: np.ndarray  # int32, one per row
    card: int  # every code is below it
    values: pa.Array | None  # the dictionary (values[code]), join attributes only

    def take(self, idx: np.ndarray, n: int, at: int) -> _Column:
        """The column over ``n`` rows: ``codes[idx]`` at rows
        ``at .. at + len(idx)``, NULL (padding) at every other row."""
        if len(idx) == n:
            return _Column(self.codes[idx], self.card, self.values)
        codes = np.zeros(n, np.int32)
        codes[at : at + len(idx)] = self.codes[idx]
        return _Column(codes, self.card, self.values)


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
    def of(cls, inst: DataFrame | pd.DataFrame, attrs: Sequence[str]) -> Encoded:
        """The whole instance over ``attrs``, collected (one Spark job for
        a Spark instance) and encoded, with no dictionaries. A pandas
        column is read as it is: None is NULL and NaN is NaN, as the
        pandas path counts them. A nested column raises."""
        if isinstance(inst, pd.DataFrame):
            table = pa.table({a: pa.array(inst[a], from_pandas=False) for a in attrs})
        else:
            table = inst.select(*attrs).toArrow()
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
        each key (the right one on a right join, the left one else,
        coalesced on a full join); a NULL key matches nothing; a
        semijoin keeps each matching row of ``self`` once. Unmatched rows
        of a side the operator keeps are NULL-padded. None if the result
        would not fit under ``_COLLECT_CELLS`` or a key's types differ
        across sides: the join then stays on Spark."""
        keys = _join_keys(self, other, on)
        if keys is None:
            return None
        lkey, rkey = keys
        # Left row i matches the cnt[i] right rows order[lo[i] : lo[i] + cnt[i]].
        order = np.argsort(rkey, kind="stable")
        rsorted = rkey[order]
        lo = np.searchsorted(rsorted, lkey, "left")
        cnt = np.searchsorted(rsorted, lkey, "right") - lo
        keep_l, keep_r = _KEEPS[how]
        l_only = np.flatnonzero(cnt == 0) if keep_l else np.empty(0, np.int64)
        r_only = np.empty(0, np.int64)
        if keep_r:  # right rows no left row matches: mark the matched runs
            hit = cnt > 0
            marks = np.bincount(lo[hit], minlength=len(order) + 1)
            marks -= np.bincount((lo + cnt)[hit], minlength=len(order) + 1)
            r_only = order[np.cumsum(marks[:-1]) == 0]
        n_inner = int(np.count_nonzero(cnt)) if how == "semi" else int(cnt.sum())
        n = len(l_only) + n_inner + len(r_only)
        width = len(self.cols) + (0 if how == "semi" else len(other.cols) - len(on))
        if n > _fit(width):
            return None

        # Rows are laid out [left only | matched pairs | right only].
        if how == "semi" or cnt.max(initial=0) <= 1:
            li = np.flatnonzero(cnt)
            ri = order[lo[li]]
        else:
            li = np.repeat(np.arange(len(cnt)), cnt)
            pos = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
            pos += np.arange(n_inner)
            ri = order[pos]
        li = np.concatenate([l_only, li])
        cols = {a: self.cols[a].take(li, n, 0) for a in self.cols if a not in on}
        if how != "semi":
            ri = np.concatenate([ri, r_only])
            cols |= {
                a: col.take(ri, n, len(l_only))
                for a, col in other.cols.items()
                if a not in on
            }
        for a in on:
            if how == "right":
                cols[a] = other.cols[a].take(ri, n, 0)
            elif how == "full":
                cols[a] = _coalesce(self.cols[a], li, other.cols[a], r_only)
            else:
                cols[a] = self.cols[a].take(li, n, 0)
        return Encoded(n, cols)


def _join_keys(
    left: Encoded, right: Encoded, on: Sequence[str]
) -> tuple[np.ndarray, np.ndarray] | None:
    """One join key per row of each side, in the left side's code space;
    -1 for a right row whose key has a NULL or a value no left row
    holds. None if a key column's types differ across sides."""
    cols = []
    unmatched = np.zeros(right.n_rows, bool)
    for a in on:
        lcol, rcol = left.cols[a], right.cols[a]
        if lcol.values.type != rcol.values.type:
            return None
        rcodes = _to_left(lcol, rcol)[rcol.codes]
        unmatched |= rcodes <= 0
        cols.append((np.concatenate([lcol.codes, np.maximum(rcodes, 0)]), lcol.card))
    key = _pack(cols)[0]
    return key[: left.n_rows], np.where(unmatched, -1, key[left.n_rows :])


def _to_left(lcol: _Column, rcol: _Column) -> np.ndarray:
    """Each right code's code in the left dictionary: NULL (0) maps to
    NULL, and a value the left side lacks to -1."""
    return pc.fill_null(pc.index_in(rcol.values, value_set=lcol.values), -1).to_numpy()


def _coalesce(
    lcol: _Column, li: np.ndarray, rcol: _Column, r_only: np.ndarray
) -> _Column:
    """A full join's key: the left value on rows ``li``, then the right
    value on the right-only rows, coded over the left dictionary plus
    the right values it lacks."""
    to_left = _to_left(lcol, rcol).copy()
    new = np.flatnonzero(to_left < 0)
    to_left[new] = lcol.card + np.arange(len(new), dtype=np.int32)
    codes = np.concatenate([lcol.codes[li], to_left[rcol.codes[r_only]]])
    values = pa.concat_arrays([lcol.values, rcol.values.take(new)])
    return _Column(codes, lcol.card + len(new), values)


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

"""SPJ view specification AST.

Implements the paper's Definition 2 (view specification over
{π, σ, ⋈, ⟕, ⟖, ⟗, ⋉}) and Definition 3 (``proj()``). Joins are
canonicalized to *shared-name* (natural-style) joins: equi-join columns
are renamed at the leaves so both sides share the join attribute names,
and the join output carries a single copy of each join attribute
(Spark's ``df.join(other, on=[...])`` semantics; ANSI ``USING``).

Each node can:

- build its Spark DataFrame instance (``instance``),
- render itself to SQL for the DuckDB oracle (``to_sql``),
- report the paper's ``proj()`` attribute set and the set of all join
  attributes in the subtree (InFine's mining scope),
- print a compact algebra ``label`` used in provenance triples.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from pyspark.sql import DataFrame

_JOIN_SYMBOL = {
    "inner": "⋈",
    "left": "⟕",
    "right": "⟖",
    "full": "⟗",
    "semi": "⋉",
}
_SPARK_HOW = {
    "inner": "inner",
    "left": "left_outer",
    "right": "right_outer",
    "full": "full_outer",
    "semi": "left_semi",
}
_SQL_JOIN = {
    "inner": "INNER JOIN",
    "left": "LEFT OUTER JOIN",
    "right": "RIGHT OUTER JOIN",
    "full": "FULL OUTER JOIN",
    "semi": "SEMI JOIN",  # DuckDB supports SEMI JOIN ... USING
}


class ViewSpec:
    """Abstract SPJ view node."""

    def proj(self, schemas: Mapping[str, tuple[str, ...]]) -> frozenset[str]:
        """The view's attributes (Definition 3). Raises ``ValueError``
        naming the node if the spec does not fit the table schemas."""
        raise NotImplementedError

    def instance(self, tables: Mapping[str, DataFrame]) -> DataFrame:
        raise NotImplementedError

    def to_sql(self, counter: Iterator[int] | None = None) -> str:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def join_attrs(self) -> frozenset[str]:
        return frozenset()

    def base_names(self) -> set[str]:
        return set()

    def top_join(self) -> "Join | None":
        """The outermost join node (descending through π/σ), or None."""
        return None

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class BaseRel(ViewSpec):
    """A base relation, optionally with column renames applied (the
    canonicalization step that turns equijoins into shared-name joins)."""

    name: str
    rename: tuple[tuple[str, str], ...] = ()  # (old, new) pairs

    def proj(self, schemas):
        if self.name not in schemas:
            raise ValueError(f"{self.label()}: unknown table {self.name!r}")
        cols = schemas[self.name]
        ren = dict(self.rename)
        _check_known(self, ren, cols)
        return frozenset(ren.get(c, c) for c in cols)

    def instance(self, tables):
        df = tables[self.name]
        for old, new in self.rename:
            df = df.withColumnRenamed(old, new)
        return df

    def to_sql(self, counter=None):
        if not self.rename:
            return self.name
        # DuckDB 1.0 has no SELECT * RENAME; EXCLUDE + re-aliasing is
        # equivalent (column order differs, which the oracle canonicalizes).
        excl = ", ".join(f'"{o}"' for o, _ in self.rename)
        ren = ", ".join(f'"{o}" AS "{n}"' for o, n in self.rename)
        return f"(SELECT * EXCLUDE ({excl}), {ren} FROM {self.name})"

    def label(self):
        return self.name

    def base_names(self):
        return {self.name}


@dataclass(frozen=True)
class Project(ViewSpec):
    child: ViewSpec
    cols: tuple[str, ...]

    def proj(self, schemas):
        _check_known(self, self.cols, self.child.proj(schemas))
        return frozenset(self.cols)

    def instance(self, tables):
        return self.child.instance(tables).select(*self.cols)

    def to_sql(self, counter=None):
        counter = counter or itertools.count()
        cols = ", ".join(f'"{c}"' for c in self.cols)
        return f"(SELECT {cols} FROM {self.child.to_sql(counter)} p{next(counter)})"

    def label(self):
        return f"π[{','.join(self.cols)}]({self.child.label()})"

    def join_attrs(self):
        return self.child.join_attrs()

    def base_names(self):
        return self.child.base_names()

    def top_join(self):
        return self.child.top_join()


@dataclass(frozen=True)
class Select(ViewSpec):
    """σ with a predicate string valid both as a Spark SQL expression and
    as a DuckDB expression (the subset we use: comparisons, AND/OR, IN,
    DATE literals)."""

    child: ViewSpec
    predicate: str

    def proj(self, schemas):
        return self.child.proj(schemas)

    def instance(self, tables):
        return self.child.instance(tables).filter(self.predicate)

    def to_sql(self, counter=None):
        counter = counter or itertools.count()
        return (
            f"(SELECT * FROM {self.child.to_sql(counter)} s{next(counter)} "
            f"WHERE {self.predicate})"
        )

    def label(self):
        return f"σ[{self.predicate}]({self.child.label()})"

    def join_attrs(self):
        return self.child.join_attrs()

    def base_names(self):
        return self.child.base_names()

    def top_join(self):
        return self.child.top_join()


@dataclass(frozen=True)
class Join(ViewSpec):
    left: ViewSpec
    right: ViewSpec
    on: tuple[str, ...]
    how: str = "inner"

    def __post_init__(self):
        if self.how not in _SPARK_HOW:
            raise ValueError(f"unsupported join operator {self.how!r}")
        if not self.on:
            raise ValueError("join requires at least one join attribute")

    def proj(self, schemas):
        lp = self.left.proj(schemas)
        rp = self.right.proj(schemas)
        _check_known(self, self.on, lp & rp)
        if self.how == "semi":
            return lp  # Definition 3: proj(V1 ⋉ V2) = proj(V1)
        shared = (lp & rp) - set(self.on)
        if shared:
            raise ValueError(
                f"{self.label()}: non-key column(s) {sorted(shared)} on both "
                "sides; rename one side"
            )
        return lp | rp

    def instance(self, tables):
        ldf = self.left.instance(tables)
        rdf = self.right.instance(tables)
        return ldf.join(rdf, on=list(self.on), how=_SPARK_HOW[self.how])

    def to_sql(self, counter=None):
        counter = counter or itertools.count()
        lsql = self.left.to_sql(counter)
        rsql = self.right.to_sql(counter)
        using = ", ".join(f'"{c}"' for c in self.on)
        la, ra = next(counter), next(counter)
        return (
            f"(SELECT * FROM {lsql} j{la} {_SQL_JOIN[self.how]} "
            f"{rsql} j{ra} USING ({using}))"
        )

    def label(self):
        def wrap(s: ViewSpec) -> str:
            lbl = s.label()
            return f"[{lbl}]" if isinstance(s, Join) else lbl

        return (
            f"{wrap(self.left)} {_JOIN_SYMBOL[self.how]}"
            f"_{{{','.join(self.on)}}} {wrap(self.right)}"
        )

    def join_attrs(self):
        return (
            frozenset(self.on) | self.left.join_attrs() | self.right.join_attrs()
        )

    def base_names(self):
        return self.left.base_names() | self.right.base_names()

    def top_join(self):
        return self


def _check_known(node: ViewSpec, cols, known) -> None:
    missing = sorted(set(cols) - set(known))
    if missing:
        raise ValueError(f"{node.label()}: unknown column(s) {missing}")


def view_sql(spec: ViewSpec) -> str:
    """Standalone SQL statement for the DuckDB oracle."""
    sql = spec.to_sql(itertools.count())
    return f"SELECT * FROM {sql} v" if sql.startswith("(") else f"SELECT * FROM {sql}"

"""Algorithm 1 — the InFine driver.

Recursively traverses the SPJ view specification. The invariant at every
node is: the returned triples are the *complete minimal FD set* of that
sub-view (restricted to the mining scope), each FD annotated with the
first sub-query in which it holds (its provenance triple).

The mining scope is ``proj(V) ∪ join-attributes`` (see DESIGN.md); the
final result is filtered to ``proj(V)``, which is exact for bag
semantics. Spark builds each view node's instance (base, σ or join; a
projection shares its child's), and ``_Run.engine`` gives it one engine
pruned to the mining scope, so a validity check reads (or the engine
collects) only attributes that can appear in a view FD. A small
instance goes through Spark once, as one collect; only an instance that
stays on Spark is cached, since its count batches scan it repeatedly.
Both sides of a join are counted on the join's engine (Lemma 2, see
``join_upstaged``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from pyspark.sql import DataFrame

from repro.core import provenance as P
from repro.core.infer_fds import infer_join_fds
from repro.core.join_upstaged import process_side
from repro.core.mine_join_fds import mine_join_fds
from repro.core.provenance import Triple
from repro.core.selection_fds import selection_upstaged
from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds
from repro.fd.model import FD
from repro.views.spec import _SPARK_HOW, BaseRel, Join, Project, Select, ViewSpec


@dataclass
class InFineResult:
    """Final provenance triples plus run statistics.

    ``spark_jobs`` counts the Spark jobs the run's engines issue: one
    collect per view node, plus, for an instance that stays on Spark,
    its count batches and a row count if one is needed. Spark may run
    one of them as several jobs (adaptive execution runs each shuffle
    stage of a join as a job of its own), counted here once.
    """

    triples: list[Triple]
    timings: dict[str, float]
    spark_jobs: int
    proj_attrs: frozenset[str]

    @property
    def fds(self) -> set[FD]:
        return {t.fd for t in self.triples}

    @property
    def counts(self) -> dict[str, int]:
        return P.count_by_type(self.triples)

    def stage_fractions(self) -> dict[str, float]:
        """Table III accuracy split: upstage (base + all upstaged kinds),
        infer, mine — as fractions of the total FD count."""
        c = self.counts
        total = max(1, len(self.triples))
        up = (
            c[P.BASE]
            + c[P.UPSTAGED_SELECTION]
            + c[P.UPSTAGED_LEFT]
            + c[P.UPSTAGED_RIGHT]
        )
        return {
            "upstage": up / total,
            "infer": c[P.INFERRED] / total,
            "mine": c[P.JOIN_FD] / total,
        }


@dataclass
class _Node:
    df: DataFrame
    engine: FDEngine
    attrs: frozenset[str]
    triples: list[Triple]


@dataclass
class _Run:
    tables: Mapping[str, DataFrame]
    scope: frozenset[str]
    timings: dict[str, float] = field(
        default_factory=lambda: {
            "base": 0.0,
            "selection": 0.0,
            "upstage_join": 0.0,
            "infer": 0.0,
            "mine_join": 0.0,
            "io": 0.0,
        }
    )
    engines: list[FDEngine] = field(default_factory=list)
    cached: list[DataFrame] = field(default_factory=list)

    def engine(self, df: DataFrame) -> FDEngine:
        """An engine over ``df`` pruned to the mining scope, counted in
        ``spark_jobs``. It collects a small instance now (timed as
        ``io``); an instance that stays on Spark is cached instead."""
        cols = [c for c in df.columns if c in self.scope]
        if len(cols) < len(df.columns):  # a select costs a plan analysis
            df = df.select(*cols)
        e = FDEngine(df)
        self.engines.append(e)
        t0 = time.perf_counter()
        if not e.in_process():
            self.cached.append(df.cache())
        self.timings["io"] += time.perf_counter() - t0
        return e

    @property
    def spark_jobs(self) -> int:
        return sum(e.jobs for e in self.engines)


def run_infine(tables: Mapping[str, DataFrame], spec: ViewSpec) -> InFineResult:
    """Discover the minimal FDs of the view with provenance triples."""
    schemas = {name: tuple(df.columns) for name, df in tables.items()}
    proj_attrs = spec.proj(schemas)  # rejects a bad spec before any mining
    scope = proj_attrs | spec.join_attrs()
    run = _Run(tables=tables, scope=scope)
    try:
        node = _prov_fds(run, spec)
        triples = P.minimize_triples(P.restrict_triples(node.triples, proj_attrs))
    finally:
        for df in run.cached:
            df.unpersist()
    return InFineResult(
        triples=triples,
        timings=dict(run.timings),
        spark_jobs=run.spark_jobs,
        proj_attrs=proj_attrs,
    )


def _prov_fds(run: _Run, spec: ViewSpec) -> _Node:
    """Subroutine provFDs of Algorithm 1 — one case per node type."""
    if isinstance(spec, BaseRel):
        df = spec.instance(run.tables)
        engine = run.engine(df)
        attrs = frozenset(df.columns)
        t0 = time.perf_counter()
        fds = mine_fds(engine, run.scope & attrs)
        run.timings["base"] += time.perf_counter() - t0
        triples = [Triple(d, P.BASE, spec.label()) for d in sorted(fds)]
        return _Node(df, engine, attrs, triples)

    if isinstance(spec, Project):
        child = _prov_fds(run, spec.child)
        attrs = frozenset(spec.cols)
        return _Node(
            child.df.select(*spec.cols),
            child.engine,
            attrs,
            P.restrict_triples(child.triples, attrs),
        )

    if isinstance(spec, Select):
        child = _prov_fds(run, spec.child)
        df = child.df.filter(spec.predicate)
        engine = run.engine(df)
        t0 = time.perf_counter()
        new = selection_upstaged(
            engine,
            child.engine.n_rows(),
            run.scope & child.attrs,
            [t.fd for t in child.triples],
        )
        run.timings["selection"] += time.perf_counter() - t0
        triples = child.triples + [
            Triple(d, P.UPSTAGED_SELECTION, spec.label()) for d in sorted(new)
        ]
        return _Node(df, engine, child.attrs, P.minimize_triples(triples))

    if isinstance(spec, Join):
        return _join_node(run, spec)
    raise TypeError(f"unknown view node {type(spec).__name__}")


def _join_node(run: _Run, spec: Join) -> _Node:
    left = _prov_fds(run, spec.left)
    right = _prov_fds(run, spec.right)
    K = tuple(spec.on)
    label = spec.label()
    join_df = left.df.join(right.df, on=list(K), how=_SPARK_HOW[spec.how])
    join_engine = run.engine(join_df)

    if spec.how == "semi":
        # Output carries only the left attributes; the semijoin can only
        # drop left tuples, so only left upstaged FDs can appear.
        t0 = time.perf_counter()
        out = process_side(
            left.engine, [t.fd for t in left.triples], join_engine,
            run.scope & left.attrs, loses=True, padded=False,
        )
        run.timings["upstage_join"] += time.perf_counter() - t0
        triples = left.triples + [
            Triple(d, P.UPSTAGED_LEFT, label) for d in sorted(out.upstaged)
        ]
        return _Node(join_df, join_engine, left.attrs, P.minimize_triples(triples))

    loses = {
        "inner": (True, True),
        "left": (False, True),
        "right": (True, False),
        "full": (False, False),
    }[spec.how]
    padded = spec.how != "inner"

    sides = []
    for (node, tag, lose) in (
        (left, P.UPSTAGED_LEFT, loses[0]),
        (right, P.UPSTAGED_RIGHT, loses[1]),
    ):
        t0 = time.perf_counter()
        out = process_side(
            node.engine, [t.fd for t in node.triples], join_engine,
            run.scope & node.attrs,
            loses=lose, padded=padded and (lose or spec.how == "full"),
        )
        run.timings["upstage_join"] += time.perf_counter() - t0
        sides.append((node, tag, out))

    kept_triples: list[Triple] = []
    side_full: list[set[FD]] = []
    for node, tag, out in sides:
        kept_triples += [t for t in node.triples if t.fd in out.kept]
        kept_triples += [Triple(d, tag, label) for d in sorted(out.upstaged)]
        side_full.append(out.kept | out.upstaged)

    t0 = time.perf_counter()
    inferred = infer_join_fds(
        join_engine,
        frozenset(K),
        left.attrs,
        right.attrs,
        side_full[0],
        side_full[1],
        scope=run.scope,
        validate_raw=(spec.how != "inner"),
    )
    run.timings["infer"] += time.perf_counter() - t0
    inf_triples = [Triple(d, P.INFERRED, label) for d in sorted(inferred)]

    t0 = time.perf_counter()
    known = side_full[0] | side_full[1] | inferred
    mined = mine_join_fds(
        join_engine,
        run.scope & (left.attrs | right.attrs),
        frozenset(K),
        left.attrs,
        right.attrs,
        side_full[0],
        side_full[1],
        known,
    )
    run.timings["mine_join"] += time.perf_counter() - t0
    mine_triples = [Triple(d, P.JOIN_FD, label) for d in sorted(mined)]

    triples = P.minimize_triples(kept_triples + inf_triples + mine_triples)
    return _Node(join_df, join_engine, left.attrs | right.attrs, triples)

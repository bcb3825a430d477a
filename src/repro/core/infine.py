"""Algorithm 1 — the InFine driver.

Recursively traverses the SPJ view specification. The invariant at every
node is: the returned triples are the *complete minimal FD set* of that
sub-view (restricted to the mining scope), each FD annotated with the
first sub-query in which it holds (its provenance triple).

The mining scope is ``proj(V) ∪ join-attributes`` (see DESIGN.md); the
final result is filtered to ``proj(V)``, which is exact for bag
semantics. A node's ``attrs`` are its attributes in the mining scope:
the scope is applied where a leaf or a projection is made, and every
stage mines its node's attributes as they are. ``_Run.engine`` gives
each view node (base, σ or join; a projection shares its child's) one
engine pruned to the mining scope, so a validity check reads (or the
engine collects) only attributes that can appear in a view FD. Spark
reads the leaves and σ: a small instance goes through Spark once, as
one collect. A join whose children are both held in process is built in
the driver on their dictionary codes, with no Spark job, unless it would
not fit under the engine's cap. Only an instance that stays on Spark is
cached, since its count batches scan it repeatedly. A σ, and a join that
stays on Spark, count the Spark plan of their own spec
(``spec.instance``), so σ over ⋈ is still one collect. Both sides of a
join are counted on the join's engine (Lemma 2, see ``join_upstaged``).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from pyspark.sql import DataFrame

from repro.core import provenance as P
from repro.core.infer_fds import infer_join_fds
from repro.core.join_upstaged import process_side
from repro.core.mine_join_fds import mine_join_fds
from repro.core.provenance import Triple
from repro.core.selection_fds import selection_upstaged
from repro.fd.engine import Encoded, FDEngine
from repro.fd.lattice import mine_fds
from repro.fd.model import FD
from repro.views.spec import _OPS, BaseRel, Join, Project, Select, ViewSpec


@dataclass
class InFineResult:
    """Final provenance triples plus run statistics.

    ``spark_jobs`` counts the Spark jobs the run's engines issue: one
    collect per leaf and per σ, and per join whose child or output stays
    on Spark (a join built in process on codes needs none), plus, for
    an instance that stays on Spark, its count batches and a row count
    if one is needed. Spark may run one of them as several jobs
    (adaptive execution runs each shuffle stage of a join as a job of
    its own), counted here once.
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
    engine: FDEngine
    attrs: frozenset[str]  # the node's attributes in the mining scope
    triples: list[Triple]


@dataclass
class _Run:
    tables: Mapping[str, DataFrame]
    scope: frozenset[str]
    keys: frozenset[str]  # every join attribute of the view
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

    def engine(self, inst: DataFrame | Encoded) -> FDEngine:
        """An engine over ``inst`` pruned to the mining scope, counted in
        ``spark_jobs``. An in-process instance is wrapped as it is. A
        Spark one is collected now if small (timed as ``io``), keeping
        the dictionaries of join attributes only; if it stays on Spark,
        it is cached instead."""
        if isinstance(inst, DataFrame):
            cols = [c for c in inst.columns if c in self.scope]
            if len(cols) < len(inst.columns):  # a select costs a plan analysis
                inst = inst.select(*cols)
        e = FDEngine(inst)
        self.engines.append(e)
        if isinstance(inst, DataFrame):
            with self.timed("io"):
                enc = e.encoded()
                if enc is None:
                    self.cached.append(inst.cache())
                else:
                    enc.keep_dicts(self.keys)
        return e

    @contextmanager
    def timed(self, stage: str) -> Iterator[None]:
        """Add the wall time of the block to ``timings[stage]``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[stage] += time.perf_counter() - t0

    @property
    def spark_jobs(self) -> int:
        return sum(e.jobs for e in self.engines)


def run_infine(tables: Mapping[str, DataFrame], spec: ViewSpec) -> InFineResult:
    """Discover the minimal FDs of the view with provenance triples."""
    schemas = {name: tuple(df.columns) for name, df in tables.items()}
    proj_attrs = spec.proj(schemas)  # rejects a bad spec before any mining
    keys = spec.join_attrs()
    run = _Run(tables=tables, scope=proj_attrs | keys, keys=keys)
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
        attrs = frozenset(df.columns) & run.scope
        with run.timed("base"):
            fds = mine_fds(engine, attrs)
        triples = [Triple(d, P.BASE, spec.label()) for d in sorted(fds)]
        return _Node(engine, attrs, triples)

    if isinstance(spec, Project):
        child = _prov_fds(run, spec.child)
        attrs = frozenset(spec.cols) & run.scope
        return _Node(child.engine, attrs, P.restrict_triples(child.triples, attrs))

    if isinstance(spec, Select):
        child = _prov_fds(run, spec.child)
        engine = run.engine(spec.instance(run.tables))
        with run.timed("selection"):
            new = selection_upstaged(
                engine,
                child.engine.n_rows(),
                child.attrs,
                [t.fd for t in child.triples],
            )
        triples = child.triples + [
            Triple(d, P.UPSTAGED_SELECTION, spec.label()) for d in sorted(new)
        ]
        return _Node(engine, child.attrs, P.minimize_triples(triples))

    if isinstance(spec, Join):
        return _join_node(run, spec)
    raise TypeError(f"unknown view node {type(spec).__name__}")


def _join_node(run: _Run, spec: Join) -> _Node:
    left = _prov_fds(run, spec.left)
    right = _prov_fds(run, spec.right)
    K = frozenset(spec.on)
    label = spec.label()
    codes = None  # the join built in process, if both children are
    lenc, renc = left.engine.encoded(), right.engine.encoded()
    if lenc is not None and renc is not None:
        with run.timed("io"):  # a projection's engine may hold more columns
            codes = lenc.select(left.attrs).join(
                renc.select(right.attrs), spec.on, spec.how
            )
    join_engine = run.engine(spec.instance(run.tables) if codes is None else codes)
    keeps = _OPS[spec.how].keeps
    # A semijoin outputs only the left attributes: only left upstaged FDs
    # can appear, and there is nothing to infer or mine across sides.
    sides = [(left, P.UPSTAGED_LEFT)]
    if spec.how != "semi":
        sides.append((right, P.UPSTAGED_RIGHT))

    kept_triples: list[Triple] = []
    side_full: list[set[FD]] = []
    premise: list[set[FD]] = []  # where Theorem 4 reads each side's FDs
    for i, (node, tag) in enumerate(sides):
        own = {t.fd for t in node.triples}
        with run.timed("upstage_join"):
            out = process_side(
                node.engine, own, join_engine, node.attrs,
                loses=not keeps[i], padded=keeps[1 - i],
            )
        kept_triples += [t for t in node.triples if t.fd in out.kept]
        kept_triples += [Triple(d, tag, label) for d in sorted(out.upstaged)]
        side_full.append(out.kept | out.upstaged)
        # A kept side's own tuples are all on the join; its projection of
        # the join may also hold the other side's unmatched rows (⟗).
        premise.append(own if keeps[i] else side_full[i])
    if spec.how == "semi":
        return _Node(join_engine, left.attrs, P.minimize_triples(kept_triples))

    with run.timed("infer"):
        inferred = infer_join_fds(join_engine, K, left.attrs, right.attrs, *side_full)
    inf_triples = [Triple(d, P.INFERRED, label) for d in sorted(inferred)]

    with run.timed("mine_join"):
        mined = mine_join_fds(
            join_engine, K, left.attrs, right.attrs, *premise,
            side_full[0] | side_full[1] | inferred,
        )
    mine_triples = [Triple(d, P.JOIN_FD, label) for d in sorted(mined)]

    triples = P.minimize_triples(kept_triples + inf_triples + mine_triples)
    return _Node(join_engine, left.attrs | right.attrs, triples)

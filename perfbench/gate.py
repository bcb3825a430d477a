"""Correctness gate for the benchmark.

The expected FD set of a view is the straightforward reference: FUN on
the materialized view (``repro.harness.straightforward``), run by the
pandas engine path on the collected view, not by the Spark one InFine
uses. It is computed outside the timed region and verified by DuckDB on
an independently rendered view instance: every expected FD holds and is
minimal. Every InFine run is then checked against it: the FD sets are
equal, there is one triple per FD, and every triple carries a known
provenance type.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import duckdb
import pandas as pd

from repro.core import provenance as P
from repro.fd.model import FD

# Provenance types grouped the way the paper's Table III splits them.
TYPE_GROUP = {
    P.BASE: "upstage",
    P.UPSTAGED_SELECTION: "upstage",
    P.UPSTAGED_LEFT: "upstage",
    P.UPSTAGED_RIGHT: "upstage",
    P.INFERRED: "infer",
    P.JOIN_FD: "mine",
}


def check_result(result, expected: set[FD] | None) -> list[str]:
    """Problems with one ``InFineResult``; empty when it passes."""
    if expected is None:
        return ["no verified expected FD set for this view"]
    problems = []
    got = result.fds
    if got != expected:
        missing = sorted(map(str, expected - got))
        extra = sorted(map(str, got - expected))
        problems.append(f"FD set differs: missing {missing}, extra {extra}")
    if len(result.triples) != len(got):
        problems.append(
            f"{len(result.triples)} triples for {len(got)} FDs (want one each)"
        )
    unknown = sorted({t.type for t in result.triples} - set(TYPE_GROUP))
    if unknown:
        problems.append(f"unknown provenance types {unknown}")
    return problems


def fds_by_group(result) -> dict[str, int]:
    """FD counts per provenance group (upstage / infer / mine)."""
    out = dict.fromkeys(("upstage", "infer", "mine"), 0)
    for t in result.triples:
        if t.type in TYPE_GROUP:
            out[TYPE_GROUP[t.type]] += 1
    return out


def duckdb_problems(
    base: Mapping[str, pd.DataFrame], sql: str, fds: Iterable[FD]
) -> list[str]:
    """Check in DuckDB that every FD holds and is minimal on the view.

    ``X -> y`` holds iff ``|distinct(X)| == |distinct(X ∪ {y})|`` with
    NULL equal to NULL, as ``count(DISTINCT row(...))`` counts it; it is
    minimal iff no ``X \\ {a} -> y`` holds.
    """
    fds = sorted(fds)
    needed: set[frozenset[str]] = set()
    for d in fds:
        lhs = d.lhs_set()
        needed |= {lhs, lhs | {d.rhs}}
        for a in lhs:
            needed |= {lhs - {a}, (lhs - {a}) | {d.rhs}}
    sets = sorted((s for s in needed if s), key=sorted)
    con = duckdb.connect()
    try:
        for name, pdf in base.items():
            con.register(name, pdf)
        con.execute(f"CREATE TABLE v AS {sql}")
        n = con.execute("SELECT count(*) FROM v").fetchone()[0]
        aggs = ", ".join(
            f"count(DISTINCT row({', '.join(_q(c) for c in sorted(s))}))" for s in sets
        )
        row = con.execute(f"SELECT {aggs} FROM v").fetchone() if sets else ()
    finally:
        con.close()
    counts = dict(zip(sets, row))

    def dc(s: frozenset[str]) -> int:
        return counts[s] if s else min(n, 1)

    def holds(lhs: frozenset[str], y: str) -> bool:
        return dc(lhs) == dc(lhs | {y})

    problems = []
    for d in fds:
        lhs = d.lhs_set()
        if not holds(lhs, d.rhs):
            problems.append(f"{d} does not hold on the view")
        elif any(holds(lhs - {a}, d.rhs) for a in lhs):
            problems.append(f"{d} is not minimal on the view")
    return problems


def _q(col: str) -> str:
    return '"' + col.replace('"', '""') + '"'

r"""Generic level-wise (lattice) FD miner.

One miner serves all the paper's lattice searches: base-table mining
(Alg. 1 step 1), upstaged-FD mining on filtered/reduced instances
(Alg. 2 / Alg. 3, via ``known``), the minimality refinement of inferred
FDs (Alg. 4's ``refine``, via ``plausible``: lhs subsets of an inferred
lhs only), and selective join-FD mining (Alg. 5, via the ``plausible``
hook implementing Theorem 4).

Pruning rules (all but the caller's hook are sound):

- *known/found pruning* — a candidate ``X -> y`` is skipped when a valid
  FD ``W -> y`` with ``W ⊆ X`` is already known: the candidate could only
  be valid-but-non-minimal.
- *key pruning* — once ``distinct(X) == distinct(attrs)``, ``X``
  determines every attribute; minimal key-FDs are emitted and the node
  is not expanded (TANE). Counting the set of tuples, not the rows, lets
  it fire on an instance with duplicate rows (a join side).
- *free-set pruning* (optional; FUN) — if ``distinct(X) == distinct(X\{a})``
  then ``X\{a} -> a`` holds, so any FD with lhs ``X`` is non-minimal and
  no superset of ``X`` can carry a minimal FD; the subtree is cut.
- *plausible hook* — caller-supplied test: sound (Theorem 4 / Lemma 3 in
  join-FD mining) or closed under subsets (the lhs scope of ``refine``).

Distinct counts are prefetched per level so each level costs O(1) Spark
jobs regardless of candidate count.
"""
from __future__ import annotations

from typing import Callable, Iterable

from repro.fd.engine import FDEngine
from repro.fd.model import FD, by_rhs, has_subset_fd


def mine_fds(
    engine: FDEngine,
    attrs: Iterable[str],
    *,
    known: Iterable[FD] = (),
    rhs_pool: Iterable[str] | None = None,
    plausible: Callable[[frozenset[str], str], bool] | None = None,
    free_set_pruning: bool = True,
) -> set[FD]:
    """Return all minimal FDs over ``attrs`` valid on ``engine``'s instance
    that are not subset-implied by ``known``.

    ``known`` FDs must be valid on the instance; they are used for pruning
    only and never re-emitted. ``rhs_pool`` restricts which attributes may
    appear as rhs. ``plausible(lhs, rhs)`` may veto candidates. If it is
    sound (never vetoes a valid minimal FD), no minimal FD is missed; if
    it admits every subset of an admitted lhs, the result is every
    minimal FD with an admitted lhs.
    """
    attrs = tuple(sorted(set(attrs)))
    rhs_pool = tuple(sorted(set(rhs_pool))) if rhs_pool is not None else attrs
    idx = by_rhs(known)
    found: set[FD] = set()

    def pruned(lhs: frozenset[str], rhs: str) -> bool:
        if has_subset_fd(idx, lhs, rhs):
            return True
        return plausible is not None and not plausible(lhs, rhs)

    def record(d: FD) -> None:
        found.add(d)
        idx.setdefault(d.rhs, []).append(d.lhs_set())

    universe = frozenset(rhs_pool) | frozenset(attrs)

    # Level 0: constant attributes (∅ -> y).
    engine.prefetch([universe] + [frozenset([y]) for y in universe])
    n = engine.distinct_count(universe)
    for y in rhs_pool:
        lhs0 = frozenset()
        if not pruned(lhs0, y) and engine.distinct_count([y]) <= 1:
            record(FD(lhs0, y))

    # Constant attributes add nothing as lhs members: X∪{a} has the same
    # partitions as X when a is constant, so drop them from the lhs pool.
    lhs_pool = tuple(a for a in attrs if engine.distinct_count([a]) > 1)

    # Level 1 grows from the empty set, which has one distinct tuple on a
    # non-empty instance; level 0 has counted every singleton.
    frontier: dict[frozenset[str], int] = {frozenset(): 1}
    while frontier:
        next_sets: set[frozenset[str]] = set()
        for x in frontier:
            start = lhs_pool.index(max(x)) + 1 if x else 0
            for a in lhs_pool[start:]:
                z = x | {a}
                # apriori: every (level-1)-subset must be a live frontier node
                if all(z - {b} in frontier for b in z):
                    next_sets.add(z)
        if not next_sets:
            break
        engine.prefetch(next_sets)
        new_frontier: dict[frozenset[str], int] = {}
        candidates = []
        for z in sorted(next_sets, key=sorted):
            dc = engine.distinct_count(z)
            if free_set_pruning and any(dc == frontier[z - {a}] for a in z):
                # z is not a free set: some z\{a} -> a holds (found at the
                # previous level), so no minimal FD has lhs ⊇ z.
                continue
            if dc == n:
                for y in rhs_pool:
                    if y not in z and not pruned(z, y):
                        record(FD(z, y))
                continue
            new_frontier[z] = dc
            for y in rhs_pool:
                if y not in z and not pruned(z, y):
                    candidates.append((z, y))
        _check_level(engine, candidates, record, pruned)
        frontier = new_frontier
    return found


def _check_level(
    engine: FDEngine,
    candidates: list[tuple[frozenset[str], str]],
    record: Callable[[FD], None],
    pruned: Callable[[frozenset[str], str], bool],
) -> None:
    """Batch-validate a level's candidates; re-test pruning after each hit
    so that FDs found earlier in the level prune later candidates."""
    engine.prefetch([lhs | {rhs} for lhs, rhs in candidates])
    for lhs, rhs in candidates:
        if pruned(lhs, rhs):  # may have become non-minimal within the level
            continue
        if engine.distinct_count(lhs | {rhs}) == engine.distinct_count(lhs):
            record(FD(lhs, rhs))


def subset_minimal(sets: Iterable[frozenset[str]]) -> set[frozenset[str]]:
    """Inclusion-minimal members of a family of sets."""
    fam = set(sets)
    return {s for s in fam if not any(t < s for t in fam)}

"""Canonical functional dependencies and set-level operations.

A canonical FD has a (possibly empty) frozenset lhs and a single rhs
attribute not contained in the lhs. ``FD(frozenset(), "a")`` states that
``a`` is constant. All operations here are pure-Python and instance-free;
validity against data lives in :mod:`repro.fd.engine`.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, order=True)
class FD:
    """A canonical functional dependency ``lhs -> rhs``.

    ``lhs`` is stored as a sorted tuple for hashability/ordering; use
    :meth:`lhs_set` when set operations are needed.
    """

    lhs: tuple[str, ...]
    rhs: str

    def __init__(self, lhs: Iterable[str], rhs: str):
        lhs_t = tuple(sorted(set(lhs)))
        if rhs in lhs_t:
            raise ValueError(f"trivial FD: rhs {rhs!r} in lhs {lhs_t}")
        object.__setattr__(self, "lhs", lhs_t)
        object.__setattr__(self, "rhs", rhs)

    def lhs_set(self) -> frozenset[str]:
        return frozenset(self.lhs)

    def attrs(self) -> frozenset[str]:
        return frozenset(self.lhs) | {self.rhs}

    def __str__(self) -> str:  # "a,b -> c"
        return f"{','.join(self.lhs)} -> {self.rhs}"


def by_rhs(fds: Iterable[FD]) -> dict[str, list[frozenset[str]]]:
    """Index FDs as rhs -> list of lhs sets (for subset queries)."""
    out: dict[str, list[frozenset[str]]] = defaultdict(list)
    for d in fds:
        out[d.rhs].append(d.lhs_set())
    return out


def has_subset_fd(
    index: dict[str, list[frozenset[str]]], lhs: frozenset[str], rhs: str
) -> bool:
    """True iff some known FD ``W -> rhs`` has ``W ⊆ lhs``.

    Because a valid FD always has a minimal valid sub-FD with the same
    rhs, over a *complete* minimal-FD index this decides instance
    validity of ``lhs -> rhs`` exactly (for ``rhs ∉ lhs``).
    """
    return any(w <= lhs for w in index.get(rhs, ()))


def determines(
    index: dict[str, list[frozenset[str]]], lhs: frozenset[str], targets: Iterable[str]
) -> bool:
    """True iff ``lhs`` determines every attribute in ``targets`` under the
    (complete, minimal) FD index — i.e. each target is in ``lhs`` or has a
    subset-FD."""
    return all(t in lhs or has_subset_fd(index, lhs, t) for t in targets)


def closure(attrs: Iterable[str], fds: Iterable[FD]) -> frozenset[str]:
    """Armstrong closure of ``attrs`` under ``fds`` (fixpoint)."""
    closed = set(attrs)
    fds = list(fds)
    changed = True
    while changed:
        changed = False
        for d in fds:
            if d.rhs not in closed and set(d.lhs) <= closed:
                closed.add(d.rhs)
                changed = True
    return frozenset(closed)


def minimize(fds: Iterable[FD]) -> set[FD]:
    """Keep only the subset-minimal FDs per rhs.

    Assumes every input FD is valid on the same instance; the survivors
    of a complete valid set are exactly the minimal FDs of the instance.
    """
    idx = by_rhs(fds)
    out: set[FD] = set()
    for rhs, lhss in idx.items():
        uniq = set(lhss)
        for w in uniq:
            if not any(other < w for other in uniq):
                out.add(FD(w, rhs))
    return out

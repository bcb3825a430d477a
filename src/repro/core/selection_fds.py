"""Algorithm 2 — selectionFDs: upstaged FDs at a selection node.

If the filter dropped no tuples the FD set is unchanged (line 4's size
check; a collected instance knows its row count). Otherwise a
level-wise search over the filtered instance mines the newly valid
FDs, pruning candidates with the FDs already known on the child view
(lines 8-9).
"""
from __future__ import annotations

from typing import Iterable

from repro.fd.engine import FDEngine
from repro.fd.lattice import mine_fds
from repro.fd.model import FD


def selection_upstaged(
    sel_engine: FDEngine,
    child_n: int,
    attrs: frozenset[str],
    known: Iterable[FD],
) -> set[FD]:
    """New FDs valid on the filtered instance; empty if nothing filtered."""
    if sel_engine.n_rows() >= child_n:
        return set()
    return mine_fds(sel_engine, attrs, known=set(known))

"""Kahn's topological sort, shared by the graph and network models."""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .errors import ModelError


def kahn_order(nodes: Sequence[Hashable],
               edges: Iterable[Tuple[Hashable, Hashable]]) -> List[Hashable]:
    """FIFO Kahn order of ``nodes`` under (parent, child) ``edges``.

    Ready nodes leave in declaration order, children in edge order.  A
    ModelError names a node declared twice, or, with no order, the nodes
    whose in-degree never reached zero, in declaration order.
    """
    indeg: Dict[Hashable, int] = {n: 0 for n in nodes}
    if len(indeg) < len(nodes):
        twice = next(n for i, n in enumerate(nodes) if n in nodes[:i])
        raise ModelError(f"{twice!r} is declared twice")
    children: Dict[Hashable, List[Hashable]] = {n: [] for n in nodes}
    for p, c in edges:
        if c in indeg:
            indeg[c] += 1
            if p in children:
                children[p].append(c)
    ready = deque(n for n in nodes if indeg[n] == 0)
    order: List[Hashable] = []
    while ready:
        n = ready.popleft()
        order.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    if len(order) != len(nodes):
        placed = set(order)
        raise ModelError(f"cycle through {[n for n in nodes if n not in placed]}")
    return order

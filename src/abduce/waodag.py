"""Weighted AND/OR DAGs: truth assignments, explanations, costs.

A graph is a set of nodes with AND/OR labels, directed edges from parents to
children, per-node true/false costs, and a set of evidence nodes that an
explanation must prove.  Zero-in-degree nodes are the hypotheses; they are
freely assignable and their labels are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .errors import ModelError
from .toposort import kahn_order

AND = "and"
OR = "or"
ORACLE_MAX_HYPOTHESES = 20

# A truth assignment is a plain dict mapping every node id to a bool.
TruthAssignment = Dict[str, bool]


@dataclass(frozen=True)
class Waodag:
    """Immutable weighted AND/OR DAG.

    ``label`` only matters for nodes with at least one parent; ``evidence``
    nodes must come out true in any explanation.
    """

    nodes: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    label: Mapping[str, str]
    cost_true: Mapping[str, float]
    cost_false: Mapping[str, float]
    evidence: FrozenSet[str]

    @staticmethod
    def build(nodes: Iterable[str],
              edges: Iterable[Tuple[str, str]],
              label: Mapping[str, str],
              cost_true: Mapping[str, float],
              cost_false: Mapping[str, float] | None = None,
              evidence: Iterable[str] = ()) -> "Waodag":
        nodes = tuple(nodes)
        cost_false = dict(cost_false or {})
        return Waodag(
            nodes=nodes,
            edges=tuple((p, c) for p, c in edges),
            label={n: v for n, v in label.items()},
            cost_true={n: float(cost_true.get(n, 0.0)) for n in nodes},
            cost_false={n: float(cost_false.get(n, 0.0)) for n in nodes},
            evidence=frozenset(evidence),
        )

    @cached_property
    def parents(self) -> Mapping[str, Tuple[str, ...]]:
        out: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for p, c in self.edges:
            if c in out:
                out[c].append(p)
        return {n: tuple(ps) for n, ps in out.items()}

    @cached_property
    def hypotheses(self) -> FrozenSet[str]:
        return frozenset(n for n in self.nodes if not self.parents[n])

    @cached_property
    def topo_order(self) -> Tuple[str, ...]:
        """Kahn's algorithm; raises ModelError when no order exists."""
        return tuple(kahn_order(self.nodes, self.edges))

    def cost_of(self, node: str, value: bool) -> float:
        return self.cost_true[node] if value else self.cost_false[node]

    @cached_property
    def checked(self) -> bool:
        """Structural invariants hold, else a ModelError names the offender.
        Cached, so an immutable graph is checked once; a failure is not."""
        nodeset = set(self.nodes)
        for edge in self.edges:
            for q in edge:
                if q not in nodeset:
                    raise ModelError(f"edge references unknown node {q!r}")
        for q in self.evidence:
            if q not in nodeset:
                raise ModelError(f"unknown evidence node {q!r}")
        for n in self.nodes:
            for v in (True, False):
                val = self.cost_of(n, v)
                if not math.isfinite(val):
                    raise ModelError(f"cost({n!r}, {v}) = {val!r} is not finite")
            if self.parents[n] and self.label.get(n) not in (AND, OR):
                raise ModelError(f"internal node {n!r} has no and/or label")
        self.topo_order  # raises on a repeated id or a cycle
        return True


def validate(w: Waodag) -> None:
    """Check the graph once (``Waodag.checked``); raises a ModelError."""
    w.checked


def _check_domain(w: Waodag, e: TruthAssignment) -> None:
    if set(e) != set(w.nodes):
        raise ModelError("assignment domain does not match the node set")


def is_valid(w: Waodag, e: TruthAssignment) -> bool:
    """Def-2.2 validity; nodes with no parents are unconstrained."""
    _check_domain(w, e)
    for q in w.nodes:
        ps = w.parents[q]
        if not ps:
            continue
        if w.label[q] == AND:
            want = all(e[p] for p in ps)
        else:
            want = any(e[p] for p in ps)
        if e[q] != want:
            return False
    return True


def is_explanation(w: Waodag, e: TruthAssignment) -> bool:
    return is_valid(w, e) and all(e[q] for q in w.evidence)


def propagate(w: Waodag, hyps: Iterable[str]) -> TruthAssignment:
    """The unique valid assignment whose true hypotheses are exactly ``hyps``."""
    hyps = set(hyps)
    bad = hyps - w.hypotheses
    if bad:
        raise ModelError(f"not hypothesis nodes: {sorted(bad)}")
    e: TruthAssignment = {}
    for q in w.topo_order:
        ps = w.parents[q]
        if not ps:
            e[q] = q in hyps
        elif w.label[q] == AND:
            e[q] = all(e[p] for p in ps)
        else:
            e[q] = any(e[p] for p in ps)
    return e


def cost(w: Waodag, e: TruthAssignment) -> float:
    _check_domain(w, e)
    return sum(w.cost_of(q, e[q]) for q in w.nodes)


def base_and_support(w: Waodag, e: TruthAssignment):
    """Returns (H(e), K(e)): true hypotheses and all true nodes."""
    _check_domain(w, e)
    support = frozenset(q for q in w.nodes if e[q])
    return support & w.hypotheses, support


def is_monotonic(w: Waodag) -> bool:
    """Every cost gap ``cost_true - cost_false`` is at least zero, so an
    explanation costs no more than any with a larger base set.

    The test is only sufficient: False does not mean non-monotonic.
    """
    return all(w.cost_true[n] >= w.cost_false[n] for n in w.nodes)


def is_cardinal(w: Waodag, e: TruthAssignment) -> bool:
    """No proper subset of the base set yields an explanation.

    Checking the one-removed subsets suffices: propagation is monotone in the
    hypothesis set, so if no maximal proper subset explains, none does.
    """
    if not is_explanation(w, e):
        raise ModelError("is_cardinal needs an explanation")
    base, _ = base_and_support(w, e)
    for h in base:
        if is_explanation(w, propagate(w, base - {h})):
            return False
    return True


def enumerate_explanations_oracle(w: Waodag):
    """All explanations by brute force over hypothesis subsets.

    Sorted by nondecreasing cost; ties broken by the lexicographic order of
    the hypothesis bit vector over the node declaration order.
    """
    hyp_order = [n for n in w.nodes if n in w.hypotheses]
    if len(hyp_order) > ORACLE_MAX_HYPOTHESES:
        raise ModelError(f"{len(hyp_order)} hypotheses exceed the oracle "
                         f"limit {ORACLE_MAX_HYPOTHESES}")
    found = []
    for mask in range(1 << len(hyp_order)):
        chosen = {h for i, h in enumerate(hyp_order) if mask >> i & 1}
        e = propagate(w, chosen)
        if all(e[q] for q in w.evidence):
            bits = tuple(int(h in chosen) for h in hyp_order)
            found.append((cost(w, e), bits, e))
    found.sort(key=lambda t: (t[0], t[1]))
    return [(e, c) for c, _, e in found]


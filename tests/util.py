"""Shared helpers for the test suite.

Brute-force enumeration of 0-1 points, a term-by-term row check, exclusion
cuts and a reference k-best loop built on them, tie-aware stream comparison,
builders for the two worked example models used
throughout the tests, and small model-level helpers the library itself does
not need.
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, List, Sequence, Tuple

import numpy as np

from abduce import bayes as bn
from abduce import search
from abduce import simplex as sx
from abduce import waodag as wd
from abduce.constraints import (
    FEASIBILITY_TOL,
    LE,
    ConstraintSystem,
    LinearConstraint,
    WaodagEncoding,
)
from abduce.errors import ModelError


def bundled_model(name: str):
    """Path-like handle to a bundled example model (e.g. 'tony.waodag.json')."""
    return resources.files("abduce") / "models" / name


def tony_graph() -> wd.Waodag:
    """Three ways to explain an unanswered phone call; evidence: no answer."""
    return wd.Waodag.build(
        nodes=["Tony-in", "Tony-sleeping", "Tony-out",
               "phone-disconnected", "phone-noanswer"],
        edges=[("Tony-in", "phone-disconnected"),
               ("Tony-sleeping", "phone-disconnected"),
               ("phone-disconnected", "phone-noanswer"),
               ("Tony-out", "phone-noanswer")],
        label={"phone-disconnected": wd.AND, "phone-noanswer": wd.OR},
        cost_true={"Tony-in": 5, "Tony-sleeping": 4, "Tony-out": 8},
        evidence=["phone-noanswer"],
    )


def is_strict(w: wd.Waodag) -> bool:
    """Every cost gap ``cost_true - cost_false`` is positive, so every
    explanation costs less than any with a larger base set."""
    return all(w.cost_true[n] > w.cost_false[n] for n in w.nodes)


def strict_graph(w: wd.Waodag, delta: float) -> wd.Waodag:
    """``w`` with each non-positive cost gap raised to exactly ``delta``:
    a strict graph (``is_strict``) with the same cardinal explanations, for
    tests that need every explanation's cost to rise with its base set.  A
    strict graph comes back unchanged."""
    cost_true = {n: w.cost_false[n] + delta
                 if w.cost_true[n] <= w.cost_false[n] else w.cost_true[n]
                 for n in w.nodes}
    return wd.Waodag.build(w.nodes, w.edges, w.label, cost_true,
                           w.cost_false, w.evidence)


def solution_to_truth(enc: WaodagEncoding,
                      s: Dict[str, int]) -> wd.TruthAssignment:
    """The truth assignment of a 0-1 solution of a graph encoding."""
    if set(s) != set(enc.system.variables):
        raise ModelError("assignment domain does not match the variable set")
    return {x: bool(s[x]) for x in enc.system.variables}


def is_consistent(inner: bn.InstantiationSet,
                  outer: bn.InstantiationSet) -> bool:
    """True iff every entry of ``inner`` appears in ``outer``."""
    return all(outer.get(var) == val for var, val in inner.items())


def three_var_network() -> bn.BayesianNetwork:
    """A, B independent binary roots; C depends on both."""
    t, f = "true", "false"
    cpt = {
        ("A", t, ()): 0.6, ("A", f, ()): 0.4,
        ("B", t, ()): 0.3, ("B", f, ()): 0.7,
        ("C", t, (t, t)): 0.9, ("C", f, (t, t)): 0.1,
        ("C", t, (t, f)): 0.7, ("C", f, (t, f)): 0.3,
        ("C", t, (f, t)): 0.4, ("C", f, (f, t)): 0.6,
        ("C", t, (f, f)): 0.1, ("C", f, (f, f)): 0.9,
    }
    return bn.BayesianNetwork(
        variables=("A", "B", "C"),
        ranges={"A": (t, f), "B": (t, f), "C": (t, f)},
        parents={"A": (), "B": (), "C": ("A", "B")},
        cpt=cpt,
    )


def all_01_points(system: ConstraintSystem,
                  tol: float = 1e-9) -> List[Dict[str, int]]:
    """Every 0-1 assignment satisfying the system, by vectorized brute force."""
    names = list(system.variables)
    n = len(names)
    assert n <= 20, "exhaustive check limited to 2^20 points"
    idx = {x: j for j, x in enumerate(names)}
    count = 1 << n
    bits = (np.arange(count)[:, None] >> np.arange(n)) & 1
    X = bits.astype(float)
    ok = np.ones(count, dtype=bool)
    for row in system.constraints:
        lhs = np.zeros(count)
        for coeff, var in row.terms:
            lhs += coeff * X[:, idx[var]]
        if row.relation == "<=":
            ok &= lhs <= row.rhs + tol
        elif row.relation == ">=":
            ok &= lhs >= row.rhs - tol
        else:
            ok &= np.abs(lhs - row.rhs) <= tol
    return [{names[j]: int(bits[i, j]) for j in range(n)}
            for i in np.flatnonzero(ok)]


def holds(row: LinearConstraint, s: Dict[str, float],
          tol: float = FEASIBILITY_TOL) -> bool:
    """Reference check of one named row at ``s``, term by term."""
    lhs = sum(coeff * s[var] for coeff, var in row.terms)
    if row.relation == "<=":
        return lhs <= row.rhs + tol
    if row.relation == ">=":
        return lhs >= row.rhs - tol
    return abs(lhs - row.rhs) <= tol


def exclusion_cut(s, scope: Sequence[str]) -> LinearConstraint:
    """Row excluding exactly the pattern of ``s`` over ``scope``; over an
    empty scope it is ``0 <= -1``, which excludes everything."""
    terms = tuple((1.0, x) if s[x] else (-1.0, x) for x in scope)
    ones = sum(1 for x in scope if s[x])
    return LinearConstraint(terms, LE, float(ones - 1))


def cut_loop(system: ConstraintSystem, k) -> List[Tuple[object, float]]:
    """Reference k-best (k may be ``search.ALL``) by exclusion cuts: the
    region search's first point, then one ``sx.add_row`` cut over the scope
    per emitted point and a new search; (assignment, cost) pairs."""
    p, out = sx.relax(system), []
    while k == search.ALL or len(out) < k:
        found = next(search._regions(p, sx.solve(p)), None)
        if found is None:
            break
        out.append(found)
        p = sx.add_row(p, exclusion_cut(found[0], system.scope))
    return out


def group_stream(pairs: Sequence[Tuple[object, float]],
                 tol: float) -> List[Tuple[float, frozenset]]:
    """Collapse a cost-sorted (key, cost) stream into per-cost-level sets."""
    groups: List[Tuple[float, set]] = []
    for key, c in pairs:
        if groups and abs(c - groups[-1][0]) <= tol:
            groups[-1][1].add(key)
        else:
            groups.append((c, {key}))
    return [(c, frozenset(ks)) for c, ks in groups]


def assert_streams_match(got: Sequence[Tuple[object, float]],
                         want: Sequence[Tuple[object, float]],
                         tol: float, truncated: bool = False) -> None:
    """Equal length, costs pairwise within tol, tie-aware set equality.
    With ``truncated`` both are k-best prefixes, and the last cost group is
    exempt from set equality: k may cut through a tie group at different
    members."""
    assert len(got) == len(want), f"{len(got)} solutions, expected {len(want)}"
    for (_, cg), (_, cw) in zip(got, want):
        assert abs(cg - cw) <= tol, f"cost {cg} vs {cw}"
    g_groups = group_stream(got, tol)
    w_groups = group_stream(want, tol)
    assert len(g_groups) == len(w_groups)
    if truncated:
        g_groups, w_groups = g_groups[:-1], w_groups[:-1]
    for (cg, kg), (cw, kw) in zip(g_groups, w_groups):
        assert abs(cg - cw) <= tol
        assert kg == kw, f"tie group at cost {cg}: {kg} != {kw}"


def truth_key(e: wd.TruthAssignment) -> frozenset:
    return frozenset(q for q, v in e.items() if v)


def inst_key(w: bn.InstantiationSet) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(w.items()))

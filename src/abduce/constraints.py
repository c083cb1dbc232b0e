"""Linear 0-1 constraint systems and the two model encoders.

A system is (variables, rows, per-variable true/false costs) plus its
determining groups: groups of variables whose 0-1 values fix all the others,
each either one variable or an exactly-one set (the terms of one row
``c x1 + ... + c xn = c``, c != 0: one of them at 1 pins the rest at 0),
and flattened into the determining scope.  The
encoders emit rows as named ``LinearConstraint`` terms, which ``dump`` prints;
each system also holds them once as arrays in variable order (``rows``, each
relation kept as written, and ``costs``), which ``satisfies``, ``objective``
and the LP relaxation read and ``extended`` carries on.  A solved point is an
``Assignment``: the system's ``index`` and one byte per variable.
WAODAG graphs encode with one variable per node and the four AND/OR row
shapes plus one equality per evidence node; the hypotheses determine every
other node, and each hypothesis is a group of its own.
Bayesian networks encode with one indicator variable per (variable, value)
and one conditional variable per CPT entry; the indicators determine the
conditionals, each network variable's indicators are one group, and
conditional true-costs are negative natural logs of the entries, a zero
entry priced above every instantiation of positive probability.  These rows
alone make every 0-1 point permissible: the indicators fix each conditional
to whether its head and configuration are active.  Both name functions
intern what they build, so every encoding of the same network shares one
copy of each name.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, Tuple, Union

import numpy as np

from . import bayes as bn
from . import waodag as wd
from .errors import ModelError

# any value below 1 gives the same verdict on a 0-1 point of integer rows
FEASIBILITY_TOL = 1e-6

LE = "<="
GE = ">="
EQ = "="

# variable -> 0/1
Assignment01 = Mapping[str, int]
# a 0-1 point: an assignment, or its values in the system's variable order
Point = Union[Assignment01, np.ndarray]


class Assignment(Mapping[str, int]):
    """A read-only 0-1 assignment: a system's shared ``index`` and one byte
    per column, iterated in variable order.  It equals the dict of the same
    entries."""

    __slots__ = ("index", "data")

    def __init__(self, index: Mapping[str, int], data: bytes):
        self.index = index
        self.data = data

    def __getitem__(self, x: str) -> int:
        return self.data[self.index[x]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Assignment({dict(self)!r})"


@dataclass(frozen=True)
class LinearConstraint:
    terms: Tuple[Tuple[float, str], ...]
    relation: str  # one of LE, GE, EQ
    rhs: float


# A (m x n; terms on one variable add up), rel (LE, GE or EQ as written), b
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def dense_rows(rows, index: Mapping[str, int], n: int) -> Rows:
    """``rows`` as arrays over the columns ``index`` names."""
    rows = tuple(rows)
    i, j, coeffs = [], [], []
    for r, row in enumerate(rows):
        for coeff, var in row.terms:
            i.append(r)
            j.append(index[var])
            coeffs.append(coeff)
    A = np.zeros((len(rows), n))
    np.add.at(A, (np.array(i, dtype=np.intp), np.array(j, dtype=np.intp)),
              coeffs)
    return (A, np.array([row.relation for row in rows], dtype="<U2"),
            np.array([row.rhs for row in rows], dtype=float))


@dataclass(frozen=True)
class ConstraintSystem:
    variables: Tuple[str, ...]
    constraints: Tuple[LinearConstraint, ...]
    psi_true: Mapping[str, float]
    psi_false: Mapping[str, float]
    # groups whose 0-1 values fix every other variable, each one variable or
    # an exactly-one set: exactly the terms of one row c x1 + ... + c xn = c,
    # c != 0 (the search refuses any other); empty means each variable alone
    determining: Tuple[Tuple[str, ...], ...] = ()

    @property
    def groups(self) -> Tuple[Tuple[str, ...], ...]:
        """The determining groups: the search splits a region over these."""
        return self.determining or tuple((x,) for x in self.variables)

    @property
    def scope(self) -> Tuple[str, ...]:
        """The determining variables, group by group: the split and the
        cardinal cut range over these."""
        return tuple(x for g in self.determining for x in g) or self.variables

    # Array forms, built once per system on first use and handed on by
    # ``extended``; ``dataclasses.replace`` drops them.
    @cached_property
    def index(self) -> Dict[str, int]:
        return {x: j for j, x in enumerate(self.variables)}

    @cached_property
    def rows(self) -> Rows:
        return dense_rows(self.constraints, self.index, len(self.variables))

    @cached_property
    def costs(self) -> Tuple[np.ndarray, np.ndarray]:
        """psi_true and psi_false in variable order."""
        return (np.array([self.psi_true[x] for x in self.variables], dtype=float),
                np.array([self.psi_false[x] for x in self.variables], dtype=float))

    def extended(self, rows) -> "ConstraintSystem":
        rows = tuple(rows)
        out = replace(self, constraints=self.constraints + rows)
        # seed the cached forms: the new rows are the only ones to convert
        more = dense_rows(rows, self.index, len(self.variables))
        vars(out).update(index=self.index, costs=self.costs,
                         rows=tuple(map(np.concatenate, zip(self.rows, more))))
        return out


def _point(system: ConstraintSystem, s: Point) -> np.ndarray:
    if isinstance(s, np.ndarray):
        if s.shape != (len(system.variables),):
            raise ModelError(f"point of shape {s.shape} != variable count")
        return s
    if set(s) != set(system.variables):
        raise ModelError("assignment domain does not match the variable set")
    return np.array([s[x] for x in system.variables], dtype=float)


def packed(system: ConstraintSystem, s: Point) -> Assignment:
    """``s`` as an ``Assignment`` over the system's variables."""
    return Assignment(system.index,
                      _point(system, s).astype(np.uint8).tobytes())


def objective(system: ConstraintSystem, s: Point) -> float:
    """Theta: sum of s(x)*psi(x,true) + (1-s(x))*psi(x,false), added up
    left to right in variable order."""
    x = _point(system, s)
    psi_true, psi_false = system.costs
    return sum((x * psi_true + (1 - x) * psi_false).tolist())


def satisfies(system: ConstraintSystem, s: Point) -> bool:
    """Every row holds at ``s`` to within ``tol = FEASIBILITY_TOL``:
    ``lhs <= rhs + tol``, ``lhs >= rhs - tol`` or ``|lhs - rhs| <= tol`` by
    its relation."""
    A, rel, b = system.rows
    tol = FEASIBILITY_TOL
    lhs = A @ _point(system, s)
    ok = np.where(rel == LE, lhs <= b + tol,
                  np.where(rel == GE, lhs >= b - tol, np.abs(lhs - b) <= tol))
    return bool(ok.all())


def dump(system: ConstraintSystem) -> str:
    """One row per line: `c1*v1 + c2*v2 REL rhs` (used by golden tests)."""
    lines = []
    for row in system.constraints:
        lhs = " + ".join(f"{coeff:g}*{var}" for coeff, var in row.terms)
        lines.append(f"{lhs} {row.relation} {row.rhs:g}")
    return "\n".join(lines)


# --- WAODAG encoding --------------------------------------------------------

@dataclass(frozen=True)
class WaodagEncoding:
    system: ConstraintSystem     # one variable per node, named by its id
    waodag: wd.Waodag


def encode_waodag(w: wd.Waodag) -> WaodagEncoding:
    """One variable per node; AND rows, OR rows, evidence equality rows."""
    wd.validate(w)
    rows: List[LinearConstraint] = []
    for q in w.nodes:
        ps = w.parents[q]
        if not ps:
            continue
        terms = tuple((1.0, p) for p in ps) + ((-1.0, q),)
        if w.label[q] == wd.AND:
            rows += [LinearConstraint(((1.0, q), (-1.0, p)), LE, 0.0) for p in ps]
            rows.append(LinearConstraint(terms, LE, float(len(ps) - 1)))
        else:
            rows.append(LinearConstraint(terms, GE, 0.0))
            rows += [LinearConstraint(((1.0, q), (-1.0, p)), GE, 0.0) for p in ps]
    rows += [LinearConstraint(((1.0, q),), EQ, 1.0)
             for q in w.nodes if q in w.evidence]
    system = ConstraintSystem(
        w.nodes, tuple(rows), {q: w.cost_true[q] for q in w.nodes},
        {q: w.cost_false[q] for q in w.nodes},
        tuple((q,) for q in w.nodes if q in w.hypotheses))
    return WaodagEncoding(system, w)


def truth_to_solution(enc: WaodagEncoding,
                      e: wd.TruthAssignment) -> Dict[str, int]:
    if set(e) != set(enc.waodag.nodes):
        raise ModelError("assignment domain does not match the node set")
    return {q: int(e[q]) for q in enc.waodag.nodes}


# --- Bayesian-network encoding ----------------------------------------------

@dataclass(frozen=True)
class BayesEncoding:
    system: ConstraintSystem
    network: bn.BayesianNetwork
    # conditional -> its head indicator, then its configuration's indicators
    # in parent order: the conditional is 1 exactly when all of them are
    conditionals: Mapping[str, Tuple[str, ...]]


def indicator_name(var: str, value: str) -> str:
    return sys.intern(f"{var}={value}")


def conditional_name(head: str, config: Tuple[str, ...]) -> str:
    if not config:
        return sys.intern(f"q[{head}]")
    return sys.intern(f"q[{head}|{','.join(config)}]")


def encode_bayesnet(b: bn.BayesianNetwork) -> BayesEncoding:
    """Indicators with exactly-one rows, conditionals with linking rows.

    A positive entry p costs -ln p.  A zero entry costs 1 plus the sum of
    each variable's largest such cost, more than any instantiation of
    positive probability.
    """
    bn.validate(b)
    least = dict.fromkeys(b.variables, 1.0)  # each smallest positive entry
    for (v, _, _), p in b.cpt.items():
        if 0.0 < p < least[v]:
            least[v] = p
    zero_cost = 1.0 + sum(-math.log(p) for p in least.values())
    groups = tuple(tuple(indicator_name(v, a) for a in b.ranges[v])
                   for v in b.variables)
    indicators = tuple(x for g in groups for x in g)
    rows = [LinearConstraint(tuple((1.0, x) for x in g), EQ, 1.0)
            for g in groups]
    links: List[LinearConstraint] = []
    psi_true: Dict[str, float] = dict.fromkeys(indicators, 0.0)
    conditionals: Dict[str, Tuple[str, ...]] = {}
    names = Counter(indicators)  # each must name one variable of the system
    for v, g in zip(b.variables, groups):
        configs = [(config, tuple(map(indicator_name, b.parents[v], config)))
                   for config in b.parent_configs(v)]
        for a, head in zip(b.ranges[v], g):
            upsilon = []
            for config, given in configs:
                name = conditional_name(head, given)
                p = b.cpt[(v, a, config)]
                psi_true[name] = -math.log(p) if p > 0.0 else zero_cost
                need = conditionals[name] = (head,) + given
                names[name] += 1
                upsilon.append(name)
                rows.append(LinearConstraint(
                    ((1.0, name),) + tuple((-1.0, x) for x in need), GE,
                    float(-len(given))))
            links.append(LinearConstraint(
                ((1.0, head),) + tuple((-1.0, q) for q in upsilon), EQ, 0.0))

    shared = next((x for x, n in names.items() if n > 1), None)
    if shared is not None:
        raise ModelError(f"two network entries are both named {shared!r}; "
                         "rename a variable or a value")
    variables = tuple(psi_true)  # the indicators, then the conditionals
    system = ConstraintSystem(variables, tuple(rows + links), psi_true,
                              dict.fromkeys(variables, 0.0), groups)
    return BayesEncoding(system, b, conditionals)


def apply_evidence(enc: BayesEncoding, e: bn.InstantiationSet) -> BayesEncoding:
    """Pin the evidence indicators to 1, in network variable order; adds
    exactly |e| equality rows.  ``bayes.check_entries`` checks ``e``."""
    bn.check_entries(enc.network, e)
    rows = [LinearConstraint(((1.0, indicator_name(var, e[var])),), EQ, 1.0)
            for var in enc.network.variables if var in e]
    return replace(enc, system=enc.system.extended(rows))


def is_permissible(enc: BayesEncoding, s: Assignment01) -> bool:
    """Every active conditional has its head and full configuration active."""
    if set(s) != set(enc.system.variables):
        raise ModelError("assignment domain does not match the variable set")
    return all(all(s[x] for x in need)
               for name, need in enc.conditionals.items() if s[name])


def solution_to_instantiation(enc: BayesEncoding,
                              s: Assignment01) -> bn.InstantiationSet:
    w: bn.InstantiationSet = {}
    for var, group in zip(enc.network.variables, enc.system.determining):
        active = [a for a, x in zip(enc.network.ranges[var], group) if s[x]]
        if len(active) != 1:
            raise ModelError(f"indicator group of {var!r} has "
                             f"{len(active)} active members, not 1")
        w[var] = active[0]
    return w


def instantiation_to_solution(enc: BayesEncoding,
                              w: bn.InstantiationSet) -> Dict[str, int]:
    if not bn.is_complete(enc.network, w):
        raise ModelError(f"incomplete instantiation: covers only {sorted(w)}")
    s: Dict[str, int] = {x: int(w[var] == a)
                         for var, group in zip(enc.network.variables,
                                               enc.system.determining)
                         for a, x in zip(enc.network.ranges[var], group)}
    s.update((name, int(all(s[x] for x in need)))
             for name, need in enc.conditionals.items())
    return s

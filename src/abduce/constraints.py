"""Linear 0-1 constraint systems and the two model encoders.

A system is (variables, rows, per-variable true/false costs) plus its
determining scope: the variables whose 0-1 values fix all the others.  WAODAG
graphs encode with one variable per node and the four AND/OR row shapes plus
optional evidence equalities; the hypotheses determine every other node.
Bayesian networks encode with one indicator variable per (variable, value)
and one conditional variable per CPT entry; the indicators determine the
conditionals, and conditional true-costs are negative natural logs of the
entries.  These rows alone make every 0-1 point permissible: the indicators
fix each conditional to whether its head and configuration are active.
``perturb_costs`` raises zero cost gaps by a small delta, which cardinal
search needs on a tied monotonic graph; reported costs stay the system's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from . import bayes as bn
from . import waodag as wd
from .errors import (
    DomainMismatch,
    IncompleteInstantiation,
    NonPositiveDelta,
    NotASolution,
    UnknownVariable,
    ValueOutOfRange,
    ZeroProbabilityRejected,
)

FEASIBILITY_TOL = 1e-9
# CPT entries below this are clamped to it, or rejected (see encode_bayesnet)
PROB_FLOOR = 1e-12

LE = "<="
GE = ">="
EQ = "="

# variable -> 0/1
Assignment01 = Dict[str, int]


@dataclass(frozen=True)
class LinearConstraint:
    terms: Tuple[Tuple[float, str], ...]
    relation: str  # one of LE, GE, EQ
    rhs: float

    def holds(self, s: Mapping[str, float], tol: float = FEASIBILITY_TOL) -> bool:
        lhs = sum(coeff * s[var] for coeff, var in self.terms)
        if self.relation == LE:
            return lhs <= self.rhs + tol
        if self.relation == GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass(frozen=True)
class ConstraintSystem:
    variables: Tuple[str, ...]
    constraints: Tuple[LinearConstraint, ...]
    psi_true: Mapping[str, float]
    psi_false: Mapping[str, float]
    # variables whose 0-1 values fix every other variable; empty means all
    determining: Tuple[str, ...] = ()

    @property
    def scope(self) -> Tuple[str, ...]:
        """The determining variables: cuts and branching range over these."""
        return self.determining or self.variables

    def extended(self, rows) -> "ConstraintSystem":
        return replace(self, constraints=self.constraints + tuple(rows))


def objective(system: ConstraintSystem, s: Assignment01) -> float:
    """Theta: sum of s(x)*psi(x,true) + (1-s(x))*psi(x,false)."""
    if set(s) != set(system.variables):
        raise DomainMismatch("assignment domain != variable set")
    return sum(s[x] * system.psi_true[x] + (1 - s[x]) * system.psi_false[x]
               for x in system.variables)


def satisfies(system: ConstraintSystem, s: Assignment01,
              tol: float = FEASIBILITY_TOL) -> bool:
    if set(s) != set(system.variables):
        raise DomainMismatch("assignment domain != variable set")
    return all(row.holds(s, tol) for row in system.constraints)


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


def encode_waodag(w: wd.Waodag, essential: bool = True) -> WaodagEncoding:
    """One variable per node; AND rows, OR rows, optional evidence rows."""
    wd.validate(w)
    rows: List[LinearConstraint] = []
    for q in w.nodes:
        ps = w.parents[q]
        if not ps:
            continue
        if w.label[q] == wd.AND:
            for p in ps:
                rows.append(LinearConstraint(((1.0, q), (-1.0, p)), LE, 0.0))
            terms = tuple((1.0, p) for p in ps) + ((-1.0, q),)
            rows.append(LinearConstraint(terms, LE, float(len(ps) - 1)))
        else:
            terms = tuple((1.0, p) for p in ps) + ((-1.0, q),)
            rows.append(LinearConstraint(terms, GE, 0.0))
            for p in ps:
                rows.append(LinearConstraint(((1.0, q), (-1.0, p)), GE, 0.0))
    if essential:
        for q in w.nodes:
            if q in w.evidence:
                rows.append(LinearConstraint(((1.0, q),), EQ, 1.0))
    system = ConstraintSystem(
        variables=w.nodes,
        constraints=tuple(rows),
        psi_true={q: w.cost_true[q] for q in w.nodes},
        psi_false={q: w.cost_false[q] for q in w.nodes},
        determining=tuple(q for q in w.nodes if q in w.hypotheses),
    )
    return WaodagEncoding(system, w)


def truth_to_solution(enc: WaodagEncoding, e: wd.TruthAssignment) -> Assignment01:
    if set(e) != set(enc.waodag.nodes):
        raise DomainMismatch("assignment domain != node set")
    return {q: int(e[q]) for q in enc.waodag.nodes}


# --- Bayesian-network encoding ----------------------------------------------

@dataclass(frozen=True)
class CondVar:
    head_var: str
    head_value: str
    config: Tuple[Tuple[str, str], ...]  # (parent, value) in parent order


@dataclass(frozen=True)
class BayesEncoding:
    system: ConstraintSystem
    network: bn.BayesianNetwork
    conditionals: Mapping[str, CondVar]


def indicator_name(var: str, value: str) -> str:
    return f"{var}={value}"


def conditional_name(var: str, value: str,
                     config: Tuple[Tuple[str, str], ...]) -> str:
    head = indicator_name(var, value)
    if not config:
        return f"q[{head}]"
    cfg = ",".join(indicator_name(p, v) for p, v in config)
    return f"q[{head}|{cfg}]"


def encode_bayesnet(b: bn.BayesianNetwork,
                    zero_prob: str = "clamp") -> BayesEncoding:
    """Indicators with exactly-one rows, conditionals with linking rows.

    ``zero_prob`` decides what happens to CPT entries below ``PROB_FLOOR``:
    "clamp" costs them as -ln(PROB_FLOOR), "reject" raises.
    """
    bn.validate(b)
    variables: List[str] = []
    rows: List[LinearConstraint] = []
    psi_true: Dict[str, float] = {}
    psi_false: Dict[str, float] = {}
    conditionals: Dict[str, CondVar] = {}
    upsilon: Dict[Tuple[str, str], List[str]] = {}

    for v in b.variables:
        group = tuple(indicator_name(v, a) for a in b.ranges[v])
        for name in group:
            variables.append(name)
            psi_true[name] = 0.0
            psi_false[name] = 0.0
        rows.append(LinearConstraint(
            tuple((1.0, name) for name in group), EQ, 1.0))
    indicators = tuple(variables)

    cond_rows: List[LinearConstraint] = []
    for v in b.variables:
        for a in b.ranges[v]:
            upsilon[(v, a)] = []
            for config in b.parent_configs(v):
                config_pairs = tuple(zip(b.parents[v], config))
                name = conditional_name(v, a, config_pairs)
                p = b.cpt[(v, a, tuple(config))]
                if p < PROB_FLOOR:
                    if zero_prob == "reject":
                        raise ZeroProbabilityRejected(
                            f"P({v}={a} | {config!r}) = {p!r}")
                    p = PROB_FLOOR
                variables.append(name)
                psi_true[name] = -math.log(p)
                psi_false[name] = 0.0
                conditionals[name] = CondVar(v, a, config_pairs)
                upsilon[(v, a)].append(name)
                terms = ((1.0, name), (-1.0, indicator_name(v, a)))
                terms += tuple((-1.0, indicator_name(p_, c_))
                               for p_, c_ in config_pairs)
                cond_rows.append(LinearConstraint(
                    terms, GE, float(-len(config_pairs))))
    rows.extend(cond_rows)

    for v in b.variables:
        for a in b.ranges[v]:
            terms = ((1.0, indicator_name(v, a)),)
            terms += tuple((-1.0, q) for q in upsilon[(v, a)])
            rows.append(LinearConstraint(terms, EQ, 0.0))

    system = ConstraintSystem(tuple(variables), tuple(rows), psi_true,
                              psi_false, indicators)
    return BayesEncoding(system, b, conditionals)


def apply_evidence(enc: BayesEncoding, e: bn.InstantiationSet) -> BayesEncoding:
    """Pin the evidence indicators to 1; adds exactly |e| equality rows."""
    rows = []
    for var in enc.network.variables:
        if var not in e:
            continue
        val = e[var]
        if val not in enc.network.ranges[var]:
            raise ValueOutOfRange(f"{var}={val}")
        rows.append(LinearConstraint(((1.0, indicator_name(var, val)),), EQ, 1.0))
    unknown = set(e) - set(enc.network.variables)
    if unknown:
        raise UnknownVariable(repr(sorted(unknown)))
    return replace(enc, system=enc.system.extended(rows))


def is_permissible(enc: BayesEncoding, s: Assignment01) -> bool:
    """Every active conditional has its head and full configuration active."""
    if set(s) != set(enc.system.variables):
        raise DomainMismatch("assignment domain != variable set")
    for name, info in enc.conditionals.items():
        if not s[name]:
            continue
        if not s[indicator_name(info.head_var, info.head_value)]:
            return False
        if any(not s[indicator_name(p, v)] for p, v in info.config):
            return False
    return True


def solution_to_instantiation(enc: BayesEncoding,
                              s: Assignment01) -> bn.InstantiationSet:
    w: bn.InstantiationSet = {}
    for var in enc.network.variables:
        active = [a for a in enc.network.ranges[var]
                  if s[indicator_name(var, a)]]
        if len(active) != 1:
            raise NotASolution(
                f"indicator group of {var!r} has {len(active)} active members")
        w[var] = active[0]
    return w


def instantiation_to_solution(enc: BayesEncoding,
                              w: bn.InstantiationSet) -> Assignment01:
    if not bn.is_complete(enc.network, w):
        raise IncompleteInstantiation(f"span covers only {sorted(w)}")
    s: Assignment01 = {}
    for var in enc.network.variables:
        for a in enc.network.ranges[var]:
            s[indicator_name(var, a)] = int(w[var] == a)
    for name, info in enc.conditionals.items():
        s[name] = int(w[info.head_var] == info.head_value and
                      all(w[p] == v for p, v in info.config))
    return s


def default_delta(system: ConstraintSystem) -> float:
    """1e-9 scaled by the largest cost magnitude in the system."""
    biggest = max((abs(v) for m in (system.psi_true, system.psi_false)
                   for v in m.values()), default=0.0)
    return 1e-9 * (1.0 + biggest)


def perturb_costs(system: ConstraintSystem,
                  delta: Optional[float] = None) -> ConstraintSystem:
    """Raise each non-positive cost gap psi_true - psi_false to exactly
    ``delta`` (``default_delta`` when None).

    Breaks zero gaps for the search: on a monotonic graph it makes every
    optimum cardinal.
    """
    if delta is None:
        delta = default_delta(system)
    if delta <= 0:
        raise NonPositiveDelta(repr(delta))
    psi_true = dict(system.psi_true)
    for x in system.variables:
        if psi_true[x] <= system.psi_false[x]:
            psi_true[x] = system.psi_false[x] + delta
    return replace(system, psi_true=psi_true)

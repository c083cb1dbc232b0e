"""Discrete Bayesian networks as (variables, conditional probabilities).

A network is described by its random variables, their value ranges, parent
lists, and complete conditional probability tables.  Instantiation-sets are
plain dicts mapping variables to values; completeness means every variable is
covered.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Tuple

from .errors import ModelError
from .toposort import kahn_order

NORMALIZATION_TOL = 1e-9
ORACLE_MAX_INSTANTIATIONS = 1 << 20

# variable -> value; conflict-freeness is inherent in the dict shape.
InstantiationSet = Dict[str, str]

# CPT key: (variable, value, tuple of parent values in parent-list order)
CptKey = Tuple[str, str, Tuple[str, ...]]


@dataclass(frozen=True)
class BayesianNetwork:
    variables: Tuple[str, ...]
    ranges: Mapping[str, Tuple[str, ...]]
    parents: Mapping[str, Tuple[str, ...]]
    cpt: Mapping[CptKey, float]

    @cached_property
    def topo_order(self) -> Tuple[str, ...]:
        """Kahn's algorithm; raises ModelError when no order exists."""
        return tuple(kahn_order(self.variables,
                                ((p, v) for v in self.variables
                                 for p in self.parents[v])))

    @cached_property
    def checked(self) -> bool:
        """Ranges, parents, acyclicity and complete normalised CPTs hold,
        else a ModelError names the offender.  Cached, so an immutable
        network is checked once; a failure is not."""
        varset = set(self.variables)
        for v in self.variables:
            if not self.ranges.get(v):
                raise ModelError(f"variable {v!r} has an empty range")
            for p in self.parents[v]:
                if p not in varset:
                    raise ModelError(f"unknown parent {p!r} of {v!r}")
        self.topo_order  # raises on a repeated name or a cycle
        for v in self.variables:
            for config in self.parent_configs(v):
                total = 0.0
                for a in self.ranges[v]:
                    key = (v, a, tuple(config))
                    if key not in self.cpt:
                        raise ModelError(
                            f"missing CPT entry P({v}={a} | {config!r})")
                    p = self.cpt[key]
                    if not (0.0 <= p <= 1.0):
                        raise ModelError(
                            f"P({v}={a} | {config!r}) = {p!r} is not in [0, 1]")
                    total += p
                if abs(total - 1.0) > NORMALIZATION_TOL:
                    raise ModelError(f"CPT row for {v} given {config!r} sums "
                                     f"to {total!r}, not 1")
        extra = len(self.cpt) - self.entry_count()
        if extra:
            raise ModelError(f"{extra} CPT entries reference unknown configurations")
        return True

    def parent_configs(self, var: str):
        """All parent-value tuples for ``var`` in range product order."""
        return itertools.product(*(self.ranges[p] for p in self.parents[var]))

    def entry_count(self) -> int:
        return sum(len(self.ranges[v]) *
                   math.prod(len(self.ranges[p]) for p in self.parents[v])
                   for v in self.variables)


def validate(b: BayesianNetwork) -> None:
    """Check the network once (``BayesianNetwork.checked``); raises a
    ModelError."""
    b.checked


def check_entries(b: BayesianNetwork, w: InstantiationSet) -> None:
    """Each variable of ``w`` is the network's and its value in its range,
    else a ModelError names the first that is not."""
    for var, val in w.items():
        if var not in b.ranges:
            raise ModelError(f"unknown variable {var!r}")
        if val not in b.ranges[var]:
            raise ModelError(
                f"value {var}={val} not in range {b.ranges[var]!r}")


def is_complete(b: BayesianNetwork, w: InstantiationSet) -> bool:
    check_entries(b, w)
    return set(w) == set(b.variables)


def _factors(b: BayesianNetwork, w: InstantiationSet) -> List[float]:
    """The chain rule's CPT entries for a complete instantiation-set."""
    return [b.cpt[(v, w[v], tuple(w[p] for p in b.parents[v]))]
            for v in b.variables]


def probability(b: BayesianNetwork, w: InstantiationSet) -> float:
    """The float64 chain-rule product of a complete instantiation-set."""
    if not is_complete(b, w):
        raise ModelError(f"incomplete instantiation: covers only {sorted(w)}")
    return math.prod(_factors(b, w))


def enumerate_mpe_oracle(b: BayesianNetwork, e: InstantiationSet):
    """All explanations for ``e`` by brute force, most probable first; a
    product that underflows to 0 by its factors' exact -ln sum, before every
    true zero.  Ties go by value indices, compared in variable order."""
    check_entries(b, e)
    total = math.prod(len(b.ranges[v]) for v in b.variables)
    if total > ORACLE_MAX_INSTANTIATIONS:
        raise ModelError(f"{total} complete instantiation-sets exceed the "
                         f"oracle limit {ORACLE_MAX_INSTANTIATIONS}")
    choices = [(e[v],) if v in e else b.ranges[v] for v in b.variables]
    ranked = []
    for combo in itertools.product(*choices):
        w = dict(zip(b.variables, combo))
        factors = _factors(b, w)
        p = math.prod(factors)
        cost = (0.0 if p else math.inf if 0.0 in factors
                else math.fsum(-math.log(f) for f in factors))
        key = tuple(b.ranges[v].index(w[v]) for v in b.variables)
        ranked.append((-p, cost, key, w))
    ranked.sort(key=lambda t: t[:3])
    return [(w, -negp) for negp, _, _, w in ranked]

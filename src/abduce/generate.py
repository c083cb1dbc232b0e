"""Seeded random instances for tests and the `gen` command.

WAODAGs are layered DAGs: a hypothesis layer, then internal AND/OR nodes
drawing 1-3 parents from earlier nodes, with evidence at the bottom.
Bayesian networks draw a random DAG with small ranges and CPT entries
bounded away from 0 and 1 unless asked otherwise.
"""

from __future__ import annotations

import random
from typing import Optional

from . import bayes as bn
from . import waodag as wd


def random_waodag(seed: int, n_hypotheses: int = 5, n_internal: int = 7,
                  max_cost: int = 10, strict: bool = False) -> wd.Waodag:
    rng = random.Random(seed)
    hyps = [f"h{i}" for i in range(n_hypotheses)]
    internal = [f"n{i}" for i in range(n_internal)]
    nodes = hyps + internal
    edges = []
    label = {}
    for i, q in enumerate(internal):
        pool = hyps + internal[:i]
        k = rng.randint(1, min(3, len(pool)))
        parents = rng.sample(pool, k)
        for p in parents:
            edges.append((p, q))
        label[q] = rng.choice([wd.AND, wd.OR])
    # evidence from the last layer so it depends on real structure; the
    # count is drawn as it always was, then capped by the pool
    pool = internal[n_internal // 2:] or internal
    n_ev = rng.randint(1, min(2, n_internal))
    evidence = rng.sample(pool, min(n_ev, len(pool)))
    cost_true = {}
    cost_false = {}
    for q in nodes:
        if q in hyps:
            cost_true[q] = float(rng.randint(1, max_cost))
        else:
            cost_true[q] = float(rng.randint(1, 3)) if strict else 0.0
        cost_false[q] = 0.0
    return wd.Waodag.build(nodes, edges, label, cost_true, cost_false, evidence)


def random_bayesnet(seed: int, n_variables: int = 4, max_range: int = 3,
                    max_parents: int = 2, margin: float = 0.05) -> bn.BayesianNetwork:
    rng = random.Random(seed)
    variables = tuple(f"V{i}" for i in range(n_variables))
    ranges = {}
    parents = {}
    for i, v in enumerate(variables):
        size = rng.randint(2, max_range)
        ranges[v] = tuple(f"v{j}" for j in range(size))
        pool = list(variables[:i])
        k = rng.randint(0, min(max_parents, len(pool)))
        parents[v] = tuple(rng.sample(pool, k))
    cpt = {}
    net = bn.BayesianNetwork(variables, ranges, parents, {})
    for v in variables:
        for config in net.parent_configs(v):
            raw = [margin + rng.random() for _ in ranges[v]]
            total = sum(raw)
            probs = [x / total for x in raw]
            # renormalized rows stay inside [margin/2, 1 - margin/2]
            for a, p in zip(ranges[v], probs):
                cpt[(v, a, tuple(config))] = p
    return bn.BayesianNetwork(variables, ranges, parents, cpt)


def random_evidence(seed: int, net: bn.BayesianNetwork,
                    count: Optional[int] = None) -> bn.InstantiationSet:
    rng = random.Random(seed)
    if count is None:
        count = rng.randint(0, max(1, len(net.variables) // 2))
    chosen = rng.sample(list(net.variables), min(count, len(net.variables)))
    return {v: rng.choice(net.ranges[v]) for v in sorted(chosen)}

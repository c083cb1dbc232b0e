"""Optimal 0-1 solutions and k-best enumeration via cutting planes.

Best-first branch and bound over the LP relaxation finds optima: it pops
nodes in order of their LP bound, and the first node whose LP optimum is
integral is optimal, because that point costs its bound and every bound left
in the heap is at least as high.  The enumeration loop holds one LP problem,
whose system is the searched one: it adds one cut row per emitted solution,
as written, and re-solves, warm-starting the root from the previous basis;
branch and bound checks and prices each point on that same system.
``solve_optimal`` is the same loop stopped at k=1.  Every cut and
every branching choice ranges over the system's determining scope
(``ConstraintSystem.scope``): the hypotheses of a graph encoding, the
indicators of a Bayesian encoding, all variables of a hand-built system.
Because the scope fixes every other variable, an exclusion cut over it
removes exactly one 0-1 point; over an empty scope it is ``0 <= -1``, whose
LP is infeasible, so the stream ends where no alternative is left.  The three
modes differ only in the cut shape and in how a solution is reported, and
all three search the encoding as it is: cardinal mode shrinks each optimum
to a cardinal one of the same cost before it reports and cuts it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bayes as bn
from . import simplex as sx
from . import waodag as wd
from .constraints import (
    Assignment01,
    BayesEncoding,
    ConstraintSystem,
    LE,
    LinearConstraint,
    WaodagEncoding,
    is_permissible,
    objective,
    satisfies,
    solution_to_instantiation,
    truth_to_solution,
)
from .errors import InvariantViolation, ModelError, SolverLimit

ALL = "all"
INT_TOL = 1e-7
# relative slack of the two checks that one cost is at most another: an LP
# bound against its integral point, a shrunk point against its optimum
WEAK_DUALITY_TOL = 1e-9
NODE_LIMIT = 1_000_000


@dataclass
class RankedSolution:
    rank: int
    assignment: Assignment01
    cost: float
    probability: Optional[float] = None
    instantiation: Optional[bn.InstantiationSet] = None


def exclusion_cut(s: Assignment01, scope: Sequence[str]) -> LinearConstraint:
    """Row excluding exactly the pattern of ``s`` over ``scope``; over an
    empty scope it is ``0 <= -1``, which excludes everything."""
    terms = tuple((1.0, x) if s[x] else (-1.0, x) for x in scope)
    ones = sum(1 for x in scope if s[x])
    return LinearConstraint(terms, LE, float(ones - 1))


def cardinal_cut(s: Assignment01, scope: Sequence[str]) -> LinearConstraint:
    """Row excluding every solution whose true ``scope`` variables include
    those of ``s``: with hypotheses as the scope, every superset of H(s).
    With none true it is ``0 <= -1``, since every solution includes them."""
    on = [x for x in scope if s[x]]
    return LinearConstraint(tuple((1.0, x) for x in on), LE,
                            float(len(on) - 1))


def _pick_fractional(x, indices: np.ndarray) -> int:
    """Most fractional variable among ``indices``; ties to the lowest index."""
    frac_j, frac_score = -1, math.inf
    dist = np.minimum(np.abs(x[indices]), np.abs(1.0 - x[indices]))
    for j in indices[dist > INT_TOL].tolist():
        score = abs(x[j] - 0.5)
        if score < frac_score - 1e-12:
            frac_score = score
            frac_j = j
    return frac_j


def _branch_and_bound(p: sx.LpProblem, warm: Optional[sx.BasisState]):
    """Returns (assignment or None, cost or None, root LpResult); the point
    is checked and priced on ``p.system``.

    Nodes pop in order of their LP bound.  A node's bound is at most the cost
    of every 0-1 point inside its variable bounds, and branching splits a
    node's 0-1 points between its two children, so the heap always covers
    every 0-1 point of the root.  The first integral node popped therefore
    costs no more than any of them, and the search returns its point.
    Branches on the most fractional scope variable; a fractional variable
    outside the scope is branched on only when the whole scope is integral.
    """
    system = p.system
    scope = np.array([system.index[x] for x in system.scope], dtype=np.intp)
    root = sx.solve(p, warm=warm)
    if root.status != sx.OPTIMAL:
        return None, None, root
    counter = itertools.count()
    heap: List[Tuple[float, int, sx.LpProblem, sx.LpResult]] = [
        (root.objective, next(counter), p, root)]
    nodes = 0
    while heap:
        bound, _, node_p, res = heapq.heappop(heap)
        x = res.x
        frac_j = _pick_fractional(x, scope)
        if frac_j < 0:
            frac_j = _pick_fractional(x, np.arange(len(x)))
        if frac_j < 0:
            point = (x > 0.5).astype(float)
            cost01 = objective(system, point)
            if bound > cost01 + WEAK_DUALITY_TOL * (1.0 + abs(cost01)):
                raise InvariantViolation(
                    f"weak duality violated: bound {bound} > cost {cost01}")
            if not satisfies(system, point):
                raise InvariantViolation(
                    "integral LP optimum violates the system")
            return (dict(zip(system.variables, point.astype(int).tolist())),
                    cost01, root)
        nodes += 1
        if nodes > NODE_LIMIT:
            raise SolverLimit(f"branch and bound exceeded {NODE_LIMIT} nodes")
        for v in (0, 1):
            child_p = sx.with_bounds(node_p, frac_j, float(v), float(v))
            child = sx.solve(child_p, warm=res.basis)
            if child.status == sx.OPTIMAL:
                heapq.heappush(heap, (child.objective, next(counter),
                                      child_p, child))
    return None, None, root


def _cut_loop(system: ConstraintSystem, k, cut, finish):
    """Shared enumeration loop: solve, emit, cut over the scope, re-solve
    warm.  ``finish(rank, s, cost)`` reports, where ``cost`` is the point's
    cost under the searched system (cut rows carry no cost, so every
    extension prices points alike); ``cut(s, scope)`` builds the row from
    the reported assignment, which only cardinal mode changes."""
    p, warm = sx.relax(system), None
    out: List[RankedSolution] = []
    want = math.inf if k == ALL else int(k)
    while len(out) < want:
        s, cost01, root = _branch_and_bound(p, warm)
        if s is None:
            break
        out.append(finish(len(out) + 1, s, cost01))
        if len(out) == want:
            break
        p = sx.add_row(p, cut(out[-1].assignment, system.scope))
        warm = root.basis
    return out


def solve_optimal(system: ConstraintSystem) -> Optional[RankedSolution]:
    """Minimum-cost 0-1 solution, or None when no 0-1 solution exists."""
    ranked = _cut_loop(system, 1, exclusion_cut, RankedSolution)
    return ranked[0] if ranked else None


def enumerate_best(system: ConstraintSystem, k) -> List[RankedSolution]:
    """The k best 0-1 solutions in cost order; k may be ALL."""
    return _cut_loop(system, k, exclusion_cut, RankedSolution)


def enumerate_cardinal(enc: WaodagEncoding, k) -> List[RankedSolution]:
    """The k best cardinal solutions; needs a monotonic graph.

    The search runs on the encoding as it is.  On a monotonic graph every
    cost gap is at least zero and dropping a hypothesis can only turn nodes
    false, so an optimum whose base set is not minimal shrinks to a cardinal
    point of the same cost.  Only zero-gap hypotheses can be unneeded in an
    optimum, so ``finish`` tries those, once each in scope order, and the
    shrunk point is reported and cut.  It is an optimum too: it costs no
    more, and an earlier cut that excluded it would exclude the optimum,
    whose base set contains its own.
    """
    w = enc.waodag
    if not wd.is_monotonic(w):
        raise ModelError("a cost gap is negative; cardinal mode needs "
                         "cost_true >= cost_false at every node")
    system = enc.system
    free = [h for h in system.scope
            if system.psi_true[h] == system.psi_false[h]]

    def finish(rank, s, cost):
        base = {h for h in system.scope if s[h]}
        size = len(base)
        for h in free:
            if h in base:
                e = wd.propagate(w, base - {h})
                if all(e[q] for q in w.evidence):
                    base.remove(h)
        if len(base) < size:
            shrunk = truth_to_solution(enc, wd.propagate(w, base))
            price = objective(system, shrunk)
            if price > cost + WEAK_DUALITY_TOL * (1.0 + abs(cost)):
                raise InvariantViolation(
                    f"shrunk point costs {price} > optimum {cost}")
            s, cost = shrunk, price
        return RankedSolution(rank, s, cost)

    return _cut_loop(system, k, cardinal_cut, finish)


def enumerate_permissible(enc: BayesEncoding, k) -> List[RankedSolution]:
    """The k most probable explanations for the encoding's evidence.

    The encoding's own rows make every 0-1 point permissible: an inactive
    head's conditionals sum to zero, and the active configuration's
    conditional is forced to one, which zeroes its siblings.  So the search
    runs on the encoding as it is, and each point is only checked.  The
    indicators are the determining scope, so each emitted solution is a
    distinct instantiation-set.
    """
    def finish(rank, s, cost):
        if not is_permissible(enc, s):
            raise InvariantViolation("optimum is not permissible")
        w = solution_to_instantiation(enc, s)
        return RankedSolution(rank, s, cost,
                              probability=bn.probability(enc.network, w),
                              instantiation=w)

    return _cut_loop(enc.system, k, exclusion_cut, finish)

"""Optimal 0-1 solutions and k-best enumeration by best-first region search.

A region is the LP relaxation with some variables fixed by their bounds
(``simplex.fixed``); no row is ever added to it.  The root region is
the [0, 1] relaxation with each variable that a one-variable equality row
fixes at 0 or 1 (an evidence row) fixed by its bounds as well, so no split
undoes evidence.  One heap holds the open regions, keyed by a lower bound on
every 0-1 point inside.  A region enters unsolved, under its parent's bound
and with its parent's basis; when it pops it is solved from that basis and
pushed again under its own bound.  A solved region with a fractional optimum
branches on its first column more than ``simplex.FEAS_TOL`` from an integer;
the groups play no part in that.  One with an integral optimum pops only
when no lower key is left, so its point is the cheapest not yet emitted: it
is checked, priced and emitted, and the rest of the region is split over the
determining groups g1..gm (``ConstraintSystem.groups``: a graph's
hypotheses one by one, a network's variables, each variable of a hand-built
system).  A group's active variable is the one variable of a singleton, or
the one at 1 in an exactly-one group.  Child i fixes the active variables
of g1..g(i-1) at the point's values, and each exactly-one row pins the rest
of its group; it also fixes gi's active variable at its other bound, so a
singleton flips and a network variable loses its value (Nilsson 1998, k-best
MAP by partitioning).  A group with no other value left in the region gets
no child: its active variable is fixed, or every other variable of its
exactly-one set is fixed at 0.  The groups must fix all other variables
(``_root`` refuses one in no group that no row mentions), so the children
hold every point of the region but the emitted one, and each point comes
out once, in cost order.
``ranked`` numbers a point stream and stops it at k: the region search's in
``solve_optimal``, ``enumerate_best`` and ``enumerate_permissible``, and a
cut loop's in cardinal mode.  There each point is the region search's first
after one cardinal cut per earlier point, solved from the previous root's
basis, shrunk to a cardinal optimum, yielded, and cut exactly as yielded.
A cardinal cut with no true hypothesis is ``0 <= -1``: the stream ends there.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import bayes as bn
from . import simplex as sx
from . import waodag as wd
from .constraints import (
    Assignment,
    Assignment01,
    BayesEncoding,
    ConstraintSystem,
    EQ,
    LE,
    LinearConstraint,
    WaodagEncoding,
    is_permissible,
    objective,
    packed,
    satisfies,
    solution_to_instantiation,
    truth_to_solution,
)
from .errors import InvariantViolation, ModelError, SolverLimit

ALL = "all"
# relative slack of the two checks that one cost is at most another: an LP
# bound against its integral point, a shrunk point against its optimum
WEAK_DUALITY_TOL = 1e-9
NODE_LIMIT = 1_000_000  # LP solves per region search


@dataclass
class RankedSolution:
    rank: int
    assignment: Assignment
    cost: float
    probability: Optional[float] = None
    instantiation: Optional[bn.InstantiationSet] = None


def cardinal_cut(s: Assignment01, scope: Sequence[str]) -> LinearConstraint:
    """Row excluding every solution whose true ``scope`` variables include
    those of ``s``: with hypotheses as the scope, every superset of H(s).
    With none true it is ``0 <= -1``, since every solution includes them."""
    on = [x for x in scope if s[x]]
    return LinearConstraint(tuple((1.0, x) for x in on), LE,
                            float(len(on) - 1))


def _regions(p: sx.LpProblem,
             root: sx.LpResult) -> Iterator[Tuple[Assignment, float]]:
    """The 0-1 points of ``p`` in cost order, each checked and priced on
    ``p.system``; ``root`` is the LP result of ``p`` itself."""
    system = p.system
    scope = np.array([system.index[x] for x in system.scope], dtype=np.intp)
    sizes = np.array([len(g) for g in system.groups], dtype=np.intp)
    single = sizes == 1
    starts = np.cumsum(sizes) - sizes
    alone = np.repeat(single, sizes)  # per scope column: in a singleton
    counter = itertools.count()
    # (key, tie, region, its LpResult once solved, else its parent's basis)
    heap: List[tuple] = ([(root.objective, next(counter), p, root)]
                         if root.status == sx.OPTIMAL else [])
    solves = 0
    while heap:
        bound, _, p, res = heapq.heappop(heap)
        if isinstance(res, sx.BasisState):
            solves += 1
            if solves > NODE_LIMIT:
                raise SolverLimit(
                    f"the region search exceeded {NODE_LIMIT} LP solves")
            res = sx.solve(p, warm=res)
            if res.status == sx.OPTIMAL:
                heapq.heappush(heap, (res.objective, next(counter), p, res))
            continue
        x = res.x
        frac = np.flatnonzero(np.abs(x - np.round(x)) > sx.FEAS_TOL)
        if len(frac):
            fixes = [(frac[0], 0.0), (frac[0], 1.0)]
        else:
            point = x > 0.5
            cost = objective(system, point)
            if bound > cost + WEAK_DUALITY_TOL * (1.0 + abs(cost)):
                raise InvariantViolation(
                    f"weak duality violated: bound {bound} > cost {cost}")
            if not satisfies(system, point):
                raise InvariantViolation(
                    "integral LP optimum violates the system")
            yield packed(system, point), cost
            # each group's active variable, in group order: ``_root`` checked
            # that a group of two or more is an exactly-one set, so one of
            # its variables is at 1, and fixing that one pins the rest
            active = scope[point[scope] | alone]
            at = point[active].astype(float)
            # a group with no other value left in the region gets no child:
            # its active variable is fixed, or it is an exactly-one set whose
            # other variables are all fixed at 0
            left = np.flatnonzero((p.lower[active] < p.upper[active]) & (
                single | (np.add.reduceat(p.upper[scope], starts) > 1)))
            vals = np.tile(at, (len(left), 1))
            vals[np.arange(len(left)), left] = 1.0 - at[left]
            fixes = [(active[:i + 1], v[:i + 1])
                     for i, v in zip(left.tolist(), vals)]
        for cols, values in fixes:
            heapq.heappush(heap, (bound, next(counter),
                                  sx.fixed(p, cols, values),
                                  res.basis))


def _root(system: ConstraintSystem) -> sx.LpProblem:
    """The [0, 1] relaxation of ``system``, with each column that a
    one-variable equality row ``c x = b`` fixes at ``b / c`` in {0, 1} fixed
    there by its bounds too.  A group of two or more variables that is not
    the terms of one row ``c x1 + ... + c xn = c``, c != 0, is refused, and
    so is a variable in no group that no row mentions: nothing fixes it."""
    A, rel, b = system.rows
    nonzero, eq = A != 0, rel == EQ
    sums = eq & (b != 0) & ((A == b[:, None]) | ~nonzero).all(axis=1)
    backed = {tuple(np.flatnonzero(r).tolist()) for r in nonzero[sums]}
    for g in system.groups:
        if len(g) > 1 and tuple(sorted(system.index[x] for x in g)) \
                not in backed:
            raise ModelError(f"determining group {g!r} is not an exactly-one "
                             f"set: no row c*({' + '.join(g)}) = c, c != 0")
    free = ~nonzero.any(axis=0)
    free[[system.index[x] for x in system.scope]] = False
    if free.any():
        raise ModelError(f"variable {system.variables[free.argmax()]!r} is "
                         "in no determining group and no row")
    rows = np.flatnonzero(eq & (nonzero.sum(axis=1) == 1))
    _, cols = np.nonzero(nonzero[rows])  # one per row, in row order
    at = b[rows] / A[rows, cols]
    pin = (at == 0.0) | (at == 1.0)
    return sx.fixed(sx.relax(system), cols[pin], at[pin])


def _points(system: ConstraintSystem) -> Iterator[Tuple[Assignment, float]]:
    """The region search's 0-1 points of ``system``, in cost order."""
    p = _root(system)
    yield from _regions(p, sx.solve(p))


def _cut_points(system: ConstraintSystem, shrink) -> Iterator[tuple]:
    """Cardinal mode's points: per rank, the region search's first point,
    shrunk by ``shrink(s, cost) -> (s, cost)`` and yielded; then the
    cardinal cut of exactly that point joins the root."""
    p, warm = _root(system), None
    while True:
        root = sx.solve(p, warm=warm)
        found = next(_regions(p, root), None)
        if found is None:
            return
        s, cost = shrink(*found)
        yield s, cost
        p, warm = sx.add_row(p, cardinal_cut(s, system.scope)), root.basis


def ranked(items: Iterable, k) -> Iterator[Tuple[int, object]]:
    """(rank, item) for the first k items, ranks from 1; k may be ALL."""
    return enumerate(itertools.islice(items, None if k == ALL
                                      else max(0, int(k))), 1)


def solve_optimal(system: ConstraintSystem) -> Optional[RankedSolution]:
    """Minimum-cost 0-1 solution, or None when no 0-1 solution exists."""
    return next((RankedSolution(rank, s, cost)
                 for rank, (s, cost) in ranked(_points(system), 1)), None)


def enumerate_best(system: ConstraintSystem, k) -> List[RankedSolution]:
    """The k best 0-1 solutions in cost order; k may be ALL."""
    return [RankedSolution(rank, s, cost)
            for rank, (s, cost) in ranked(_points(system), k)]


def enumerate_cardinal(enc: WaodagEncoding, k) -> List[RankedSolution]:
    """The k best cardinal solutions; needs a monotonic graph.

    The search runs on the encoding as it is.  On a monotonic graph every
    cost gap is at least zero and dropping a hypothesis can only turn nodes
    false, so an optimum whose base set is not minimal shrinks to a cardinal
    point of the same cost.  Only zero-gap hypotheses can be unneeded, so
    ``shrink`` tries those, once each in scope order.  The shrunk point is an
    optimum too: it costs no more, and an earlier cut that excluded it would
    exclude the optimum, whose base set contains its own."""
    w = enc.waodag
    if not wd.is_monotonic(w):
        raise ModelError("a cost gap is negative; cardinal mode needs "
                         "cost_true >= cost_false at every node")
    system = enc.system
    free = [h for h in system.scope
            if system.psi_true[h] == system.psi_false[h]]

    def shrink(s, cost):
        base = {h for h in system.scope if s[h]}
        size = len(base)
        for h in free:
            if h in base:
                e = wd.propagate(w, base - {h})
                if all(e[q] for q in w.evidence):
                    base.remove(h)
        if len(base) == size:
            return s, cost
        shrunk = truth_to_solution(enc, wd.propagate(w, base))
        price = objective(system, shrunk)
        if price > cost + WEAK_DUALITY_TOL * (1.0 + abs(cost)):
            raise InvariantViolation(
                f"shrunk point costs {price} > optimum {cost}")
        return packed(system, shrunk), price

    return [RankedSolution(rank, s, cost)
            for rank, (s, cost) in ranked(_cut_points(system, shrink), k)]


def enumerate_permissible(enc: BayesEncoding, k) -> List[RankedSolution]:
    """The k most probable explanations for the encoding's evidence.

    The encoding's own rows make every 0-1 point permissible: an inactive
    head's conditionals sum to zero, and the active configuration's
    conditional is forced to one, which zeroes its siblings.  So the search
    runs on the encoding as it is, and each point is only checked.  Each
    network variable's indicators are one determining group, so each point
    is a distinct instantiation-set, and a split excludes one value."""
    def finish(rank, s, cost):
        if not is_permissible(enc, s):
            raise InvariantViolation("optimum is not permissible")
        w = solution_to_instantiation(enc, s)
        return RankedSolution(rank, s, cost, bn.probability(enc.network, w), w)

    return [finish(rank, s, cost)
            for rank, (s, cost) in ranked(_points(enc.system), k)]

"""Bounded-variable revised simplex over [0,1] relaxations.

Solves min c.x subject to the system rows with every variable boxed, over
the column layout ``[A | I]``: the structural columns, then one slack per
row.  Every solve is a dual simplex from a dual-feasible basis.  Because
every variable is boxed, the slack basis is dual feasible once each
structural column sits at the bound its cost sign picks (upper when
``c_j < 0``, else lower): that is where a cold solve starts, with no
artificial columns and no phase 1.  A warm solve starts from its parent's
optimal basis instead, after adding cut rows or changing bounds, and only
if that basis is still dual feasible.  A dual simplex that runs out of
entering columns from a dual-feasible start has proved the problem
infeasible.  One that reaches a primal-feasible basis returns it as optimal
only if the basis passes a final certificate: every reduced cost has the
sign its nonbasic bound needs, to within ``OPT_TOL``.  The ratio test keeps
those signs in exact arithmetic, so the certificate catches rounding drift
alone.  Dense arithmetic; the systems this package generates are desk scale.

Each solve keeps the explicit inverse of its basis matrix and never inverts
a basis it can already name the inverse of.  The slack basis is ``I``, and
so is its inverse.  A warm start carries the parent's inverse: a bound
change leaves the basis matrix as it was, and appending rows ``R`` borders it
to ``[[B, 0], [R, I]]``, whose inverse is ``[[B^-1, 0], [-R B^-1, I]]``.  Each
basis change applies a rank-one (eta) update, the product form of the
inverse, to the rows where the entering column ``w = B^-1 a_j`` is nonzero
(the others would subtract exact zeros), and the inverse is computed from
scratch only after ``REFACTOR_EVERY`` of them, counted across the whole
chain of warm solves, to shed rounding drift.  ``[A | I]`` is built once per
row set: bound changes share it, a new row builds a new one.

The values ``x`` and reduced costs ``d`` move along each pivot too: with
``w`` and the pivot row ``alpha = (B^-1 [A | I])[pos]`` that the iteration
already has, ``x_B -= theta w``, the entering value grows by ``theta`` and
the leaving one lands on its bound, where ``theta = (x_leave - bound) /
w[pos]``; and ``d -= (d_j / alpha_j) alpha``.  They are computed from scratch,
``B^-1(b - A x_N)`` and ``c - c_B B^-1 [A | I]``, in three places only: when
a basis is installed, at the refresh, and once before the dual returns
OPTIMAL, so that neither the certificate nor the result reads drifted
values.  If the fresh values show an infeasibility the updated ones did
not, the dual keeps pivoting.

Pivot rules are fixed for determinism.  The dual leaves on the largest
infeasibility and enters on the least ratio, ties to the lowest variable
index.  After ``BLAND_AFTER`` consecutive degenerate pivots it switches to
Bland's rule, which cannot cycle: it leaves on the lowest infeasible basic
index and enters on the lowest index among ratio ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .constraints import GE, LE, ConstraintSystem, LinearConstraint
from .errors import IterationLimit, LostDualFeasibility

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
RATIO_TIE_TOL = 1e-9
BLAND_AFTER = 100
REFACTOR_EVERY = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2


@dataclass
class LpProblem:
    names: Tuple[str, ...]
    A: np.ndarray            # m x n, rows normalized to <= or =
    rel: Tuple[str, ...]
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    c: np.ndarray
    c0: float = 0.0

    # Built once per problem on first use.  ``dataclasses.replace`` makes a
    # new problem without them, so a replaced ``A`` or ``rel`` gets its own.
    @cached_property
    def index(self) -> Dict[str, int]:
        return {name: j for j, name in enumerate(self.names)}

    @cached_property
    def AI(self) -> np.ndarray:
        """``[A | I]``: the structural columns, then one slack per row."""
        return np.hstack([self.A, np.eye(len(self.b))])


@dataclass
class BasisState:
    """Warm-start handle: basis membership and the basis inverse with the
    basis changes applied to it since it was last computed from scratch.
    Warm solves copy ``binv``; none writes to it."""
    basis: np.ndarray        # intp, the basic column at each row position
    stat: np.ndarray
    binv: np.ndarray
    changes: int


@dataclass
class LpResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    basis: Optional[BasisState]


def _normalize_row(row: LinearConstraint, index: Dict[str, int],
                   n: int) -> Tuple[np.ndarray, str, float]:
    a = np.zeros(n)
    for coeff, var in row.terms:
        a[index[var]] += coeff
    if row.relation == GE:
        return -a, LE, -row.rhs
    return a, row.relation, row.rhs


def relax(system: ConstraintSystem) -> LpProblem:
    """Continuous [0,1] relaxation; objective matches Theta on 0-1 points."""
    names = system.variables
    index = {name: j for j, name in enumerate(names)}
    n = len(names)
    m = len(system.constraints)
    A = np.zeros((m, n))
    rel: List[str] = []
    b = np.zeros(m)
    for i, row in enumerate(system.constraints):
        a, r, rhs = _normalize_row(row, index, n)
        A[i] = a
        rel.append(r)
        b[i] = rhs
    c = np.array([system.psi_true[x] - system.psi_false[x] for x in names])
    c0 = float(sum(system.psi_false[x] for x in names))
    p = LpProblem(tuple(names), A, tuple(rel), b,
                  np.zeros(n), np.ones(n), c, c0)
    p.index = index
    return p


def add_row(p: LpProblem, row: LinearConstraint) -> LpProblem:
    a, r, rhs = _normalize_row(row, p.index, len(p.names))
    q = LpProblem(p.names, np.vstack([p.A, a[None, :]]), p.rel + (r,),
                  np.append(p.b, rhs), p.lower, p.upper, p.c, p.c0)
    q.index = p.index
    return q


def lu_factor(B: np.ndarray) -> np.ndarray:
    """Inverse of the basis matrix ``B``, computed from scratch."""
    return np.linalg.inv(B)


def lu_solve(binv: np.ndarray, r: np.ndarray, trans: int = 0) -> np.ndarray:
    """``B^-1 r``, or ``B^-T r`` when ``trans`` is 1, from ``binv = B^-1``."""
    return r @ binv if trans else binv @ r


def with_bounds(p: LpProblem, j: int, lo: float, hi: float) -> LpProblem:
    lower = p.lower.copy()
    upper = p.upper.copy()
    lower[j] = lo
    upper[j] = hi
    q = LpProblem(p.names, p.A, p.rel, p.b, lower, upper, p.c, p.c0)
    q.index, q.AI = p.index, p.AI  # same rows: share the column layout
    return q


class _Worker:
    """One solve session over the structural | slack column layout."""

    def __init__(self, p: LpProblem):
        self.p = p
        self.m, self.n = p.A.shape
        m, n = self.m, self.n
        self.A = p.AI
        self.ntot = n + m
        slack_up = np.array([math.inf if r == LE else 0.0 for r in p.rel])
        self.lo = np.concatenate([p.lower, np.zeros(m)])
        self.up = np.concatenate([p.upper, slack_up])
        self.boxed = self.up > self.lo + 1e-12
        self.c = np.concatenate([p.c, np.zeros(m)])
        self.stat = np.full(self.ntot, AT_LOWER, dtype=np.int8)
        self.limit = max(1000, 50 * (self.m + self.ntot))
        self.pivots = 0

    def _install(self, basis: np.ndarray, binv: np.ndarray,
                 changes: int) -> None:
        """Make ``basis`` current with ``binv``, its inverse after
        ``changes`` eta updates; the worker owns and updates both."""
        self.basis = basis
        self.stat[basis] = BASIC
        self.binv = binv
        self.changes = changes
        self._evaluate()

    def _replace(self, pos: int, j: int, w: np.ndarray, leave_to: int) -> None:
        """Column ``j`` enters at ``pos``; ``w`` is ``B^-1 A[:, j]``."""
        old = self.basis[pos]
        self.basis[pos] = j
        self.stat[j] = BASIC
        self.stat[old] = leave_to
        self.changes += 1
        if self.changes >= REFACTOR_EVERY:
            self._install(self.basis, lu_factor(self.A[:, self.basis]), 0)
            return
        # rows where w is exactly 0 would subtract exact zeros: skip them
        nz = np.flatnonzero(w)
        row = self.binv[pos] / w[pos]
        self.binv[nz] -= np.outer(w[nz], row)
        self.binv[pos] = row

    def _evaluate(self) -> None:
        """Values ``x`` and reduced costs ``d`` of the current basis from
        scratch: every nonbasic variable at its bound (0 for an infinite
        one), the basic ones at ``B^-1(b - A x_N)``."""
        x = np.where(self.stat == AT_UPPER, self.up, self.lo)
        x[np.isinf(x)] = 0.0
        x[self.basis] = 0.0
        x[self.basis] = lu_solve(self.binv, self.p.b - self.A @ x)
        self.x = x
        self.d = self.c - lu_solve(self.binv, self.c[self.basis], trans=1) @ self.A
        self.stale = False

    def _movable(self) -> np.ndarray:
        return (self.stat != BASIC) & self.boxed

    def _tick(self):
        self.pivots += 1
        if self.pivots > self.limit:
            raise IterationLimit(f"simplex exceeded {self.limit} pivots")

    def _dual_feasible(self) -> bool:
        """Reduced-cost signs consistent with every movable nonbasic status,
        to within ``OPT_TOL``: no nonbasic variable could improve the
        objective by leaving its bound."""
        d = self.d
        movable = self._movable()
        lo_ok = d[movable & (self.stat == AT_LOWER)] >= -OPT_TOL
        up_ok = d[movable & (self.stat == AT_UPPER)] <= OPT_TOL
        return bool(lo_ok.all() and up_ok.all())

    def _pivot(self, pos: int, j: int, alpha: np.ndarray,
               leaving_below: bool) -> None:
        """Column ``j`` replaces the basic variable at ``pos``, which leaves
        at the bound it violates; ``alpha`` is its row of ``B^-1 [A | I]``.
        The values and reduced costs move along the pivot."""
        w = lu_solve(self.binv, self.A[:, j])
        leave = self.basis[pos]
        bound = self.lo[leave] if leaving_below else self.up[leave]
        theta = (self.x[leave] - bound) / w[pos]
        self.x[self.basis] -= theta * w
        self.x[j] += theta
        self.x[leave] = bound
        self.d -= (self.d[j] / alpha[j]) * alpha
        self.stale = True
        self._replace(pos, j, w, AT_LOWER if leaving_below else AT_UPPER)

    def dual(self) -> str:
        """Dual simplex to OPTIMAL or INFEASIBLE.  OPTIMAL is returned only
        on values evaluated from scratch; values updated along the pivots
        that show no infeasibility are evaluated once more and checked
        again."""
        degen = 0
        while True:
            bland = degen >= BLAND_AFTER
            xB = self.x[self.basis]
            below = self.lo[self.basis] - xB
            above = xB - self.up[self.basis]
            viol = np.maximum(below, above)
            infeasible = viol > FEAS_TOL
            if not infeasible.any():
                if not self.stale:
                    return OPTIMAL
                self._evaluate()
                continue
            if bland:
                # the lowest-index infeasible basic variable leaves
                pos = int(np.argmin(np.where(infeasible, self.basis,
                                             self.ntot)))
            else:
                pos = int(np.argmax(viol))
            leaving_below = below[pos] >= above[pos]
            alpha = self.binv[pos] @ self.A
            d = self.d
            movable = self._movable()
            at_lo = movable & (self.stat == AT_LOWER)
            at_up = movable & (self.stat == AT_UPPER)
            if leaving_below:
                elig = (at_lo & (alpha < -PIVOT_TOL)) | (at_up & (alpha > PIVOT_TOL))
            else:
                elig = (at_lo & (alpha > PIVOT_TOL)) | (at_up & (alpha < -PIVOT_TOL))
            if not elig.any():
                return INFEASIBLE
            ratios = np.full(self.ntot, math.inf)
            ratios[elig] = np.abs(d[elig]) / np.abs(alpha[elig])
            if bland:
                # the lowest index among ratio ties enters
                j = int(np.flatnonzero(ratios <= ratios.min() + RATIO_TIE_TOL)[0])
            else:
                j = int(np.argmin(ratios))  # first minimum: lowest index at ties
            degen = degen + 1 if ratios[j] <= 1e-10 else 0
            self._pivot(pos, j, alpha, leaving_below)
            self._tick()

    def result(self) -> LpResult:
        xs = self.x[:self.n]
        obj = float(self.p.c @ xs + self.p.c0)
        state = BasisState(self.basis.copy(), self.stat.copy(), self.binv,
                           self.changes)
        return LpResult(OPTIMAL, xs, obj, state)


def _solve_from(p: LpProblem,
                warm: Optional[BasisState]) -> Optional[LpResult]:
    """Dual simplex from ``warm``, or from the slack basis when ``warm`` is
    None.  None when the start is not dual feasible, or when the final basis
    fails the optimality certificate (dual feasibility) and so proves
    nothing.  Every run starts dual feasible, so an INFEASIBLE is a proof."""
    w = _Worker(p)
    if warm is None:
        # each structural column at the bound its cost sign picks: with
        # every variable boxed, the slack basis is then dual feasible
        w.stat[:w.n] = np.where(p.c < 0, AT_UPPER, AT_LOWER)
        w._install(np.arange(w.n, w.ntot), np.eye(w.m), 0)
    else:
        old_rows = warm.binv.shape[0]
        # old stat layout: struct | old slacks; new slacks append at the end
        w.stat[:w.n + old_rows] = warm.stat
        # new rows are 0 in the old slack columns, so the old basis columns
        # read A[new rows, old basis] there and the new slacks read I
        binv = np.eye(w.m)
        binv[:old_rows, :old_rows] = warm.binv
        binv[old_rows:, :old_rows] = -w.A[old_rows:, warm.basis] @ warm.binv
        w._install(np.concatenate([warm.basis,
                                   np.arange(w.n + old_rows, w.ntot)]),
                   binv, warm.changes)
        if not w._dual_feasible():
            return None
    if w.dual() == INFEASIBLE:
        return LpResult(INFEASIBLE, None, None, None)
    return w.result() if w._dual_feasible() else None


def solve(p: LpProblem, warm: Optional[BasisState] = None) -> LpResult:
    """Solve the boxed LP; OPTIMAL with a certified basis, or INFEASIBLE.

    A warm start that fails (it is not dual feasible, hits the pivot limit,
    meets a singular basis, or ends on a basis that fails its certificate)
    is retried once from the slack basis.  A solve from the slack basis that
    fails its certificate raises ``LostDualFeasibility``: an optimum is
    never returned uncertified."""
    if warm is not None:
        try:
            r = _solve_from(p, warm)
        except (IterationLimit, np.linalg.LinAlgError):
            r = None
        if r is not None:
            return r
    r = _solve_from(p, None)
    if r is None:
        raise LostDualFeasibility(
            "dual simplex from the slack basis ended on a basis that is not "
            "dual feasible")
    return r

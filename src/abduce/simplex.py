"""Bounded-variable revised simplex over [0,1] relaxations.

An LP problem is a constraint system plus variable bounds.  It solves
min c.x subject to the system's rows, read as written, over the columns
``[A | I]``: the structural columns, then one slack ``s = b - A x`` per row,
bounded by its relation: [0, inf) for ``<=``, (-inf, 0] for ``>=`` and
[0, 0] for ``=``.  ``relax`` bounds every variable to [0, 1], ``fixed``
fixes columns by their bounds, ``add_row`` extends the system by one cut
row, and only a refresh builds the slack block: a slack's entry in a pivot
row is that row of ``B^-1``, and its column of ``B^-1 [A | I]`` is a column
of ``B^-1``.  ``LpProblem.layout`` (slack bounds, cost, optimality
tolerance) is built once per system and shared by every bound change.

Every solve is a dual simplex from a dual-feasible basis.  A cold solve is
a warm solve from the basis of zero rows, each structural column at the
bound its cost sign picks (upper when ``c_j < 0``): bordered to the slack
basis, it is dual feasible because every structural variable is boxed.  A
warm solve starts from its parent's optimal basis, after cut rows or bound
changes, only if that basis is still dual feasible.
Running out of entering columns from a dual-feasible start proves the
problem infeasible; a primal-feasible basis is returned as optimal only if
it passes a final certificate: every reduced cost has the sign its nonbasic
bound needs, to within ``OPT_TOL * (1 + max|c|)``.  One signed status vector
``sgn`` (+1 at lower, -1 at upper for a movable nonbasic column, else 0)
changes at the two columns each pivot swaps; a column may enter when
``sgn * alpha`` has the sign that moves the leaving variable towards its
violated bound, and the basis is dual feasible when ``sgn * d >= -tol``.

Each solve keeps the explicit inverse of its basis matrix and never inverts
a basis it can already name the inverse of.  The slack basis is ``I``, and
so is its inverse.  A warm start carries the parent's inverse: a bound
change leaves the basis matrix as it was, and appending rows ``R`` borders it
to ``[[B, 0], [R, I]]``, whose inverse is ``[[B^-1, 0], [-R B^-1, I]]``.  Each
basis change applies a rank-one (eta) update to the rows where the entering
column ``w = B^-1 a_j`` is nonzero, and the inverse is computed from scratch
only after ``REFACTOR_EVERY`` of them, counted along the chain of warm
solves, to shed rounding drift.

The values ``x`` and reduced costs ``d`` move along each pivot too, by the
``w`` and pivot row ``alpha`` the iteration already has.  They are computed
from scratch, ``B^-1(b - A x_N)`` and ``c - [y A, y]`` with ``y = c_B B^-1``,
only when a basis is installed, at the refresh, and once before the dual
returns OPTIMAL, which it does not if the fresh values show an
infeasibility the updated ones hid.

Pivot rules are fixed for determinism.  The dual leaves on the largest
infeasibility and enters on the least ratio, ties to the lowest variable
index.  After ``BLAND_AFTER`` consecutive degenerate (zero-ratio) pivots it
switches to Bland's rule, which cannot cycle: it leaves on the lowest
infeasible basic index and enters on the lowest index among ratio ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .constraints import GE, LE, ConstraintSystem, LinearConstraint
from .errors import SolverLimit

FEAS_TOL = 1e-7
# relative: the certificate's tolerance is OPT_TOL * (1 + max|c|), since
# reduced costs round in proportion to the costs
OPT_TOL = 1e-10
PIVOT_TOL = 1e-10
# relative too: ratios |d_j| / |alpha_j| scale with the costs, so two tie,
# and a step is degenerate, to within RATIO_TIE_TOL * max|c|
RATIO_TIE_TOL = 1e-9
BLAND_AFTER = 100
REFACTOR_EVERY = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class Layout(NamedTuple):
    """Slack bounds by relation, costs and the tolerances that scale with
    them, of one system; bound changes share it."""
    slack_lo: np.ndarray     # -inf for a ``>=`` row, else 0
    slack_up: np.ndarray     # inf for a ``<=`` row, else 0
    c: np.ndarray            # psi_true - psi_false
    c0: float                # the sum of psi_false
    cost: np.ndarray         # c over the structural | slack columns
    opt_tol: float           # the certificate's tolerance
    tie_tol: float           # the ratio test's tie tolerance


@dataclass
class LpProblem:
    system: ConstraintSystem
    lower: np.ndarray
    upper: np.ndarray

    @cached_property
    def layout(self) -> Layout:
        _, rel, _ = self.system.rows
        psi_true, psi_false = self.system.costs
        c = psi_true - psi_false
        cmax = float(np.abs(c).max(initial=0.0))
        return Layout(np.where(rel == GE, -math.inf, 0.0),
                      np.where(rel == LE, math.inf, 0.0), c,
                      float(sum(psi_false.tolist())),
                      np.concatenate([c, np.zeros(len(rel))]),
                      OPT_TOL * (1.0 + cmax), RATIO_TIE_TOL * cmax)


@dataclass
class BasisState:
    """Warm-start handle: basis membership, the signed nonbasic status and
    the basis inverse with the basis changes applied to it since it was last
    computed from scratch.  Warm solves copy ``binv``; none writes to it."""
    basis: np.ndarray        # intp, the basic column at each row position
    sgn: np.ndarray          # +1 at lower, -1 at upper if movable, else 0
    binv: np.ndarray
    changes: int


@dataclass
class LpResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    basis: Optional[BasisState]


def relax(system: ConstraintSystem) -> LpProblem:
    """Continuous [0,1] relaxation; objective matches Theta on 0-1 points."""
    n = len(system.variables)
    return LpProblem(system, np.zeros(n), np.ones(n))


def add_row(p: LpProblem, row: LinearConstraint) -> LpProblem:
    return LpProblem(p.system.extended([row]), p.lower, p.upper)


def lu_factor(B: np.ndarray) -> np.ndarray:
    """Inverse of the basis matrix ``B``, computed from scratch."""
    return np.linalg.inv(B)


def lu_solve(binv: np.ndarray, r: np.ndarray, trans: int = 0) -> np.ndarray:
    """``B^-1 r``, or ``B^-T r`` when ``trans`` is 1, from ``binv = B^-1``."""
    return r @ binv if trans else binv @ r


def fixed(p: LpProblem, j, values) -> LpProblem:
    """``p`` with column ``j``, or each column of an index array ``j``,
    fixed at ``values`` (a scalar, or an array like ``j``) by its bounds."""
    q = LpProblem(p.system, p.lower.copy(), p.upper.copy())
    q.lower[j] = q.upper[j] = values
    q.layout = p.layout  # same system: share it
    return q


class _Worker:
    """One solve session over the columns ``[A | I]``."""

    def __init__(self, p: LpProblem):
        self.A, _, self.b = p.system.rows
        self.m, self.n = self.A.shape
        self.ntot = self.n + self.m
        self.layout = lay = p.layout
        self.c, self.opt_tol, self.tie_tol = lay.cost, lay.opt_tol, lay.tie_tol
        self.lo = np.concatenate([p.lower, lay.slack_lo])
        self.up = np.concatenate([p.upper, lay.slack_up])
        # every bound is exact (0, 1, +-inf, or a value ``fixed`` set), so
        # a column can move iff its bounds differ
        self.boxed = self.up > self.lo
        self.limit = max(1000, 50 * (self.m + self.ntot))
        self.pivots = 0

    def _install(self, basis: np.ndarray, sgn: np.ndarray, binv: np.ndarray,
                 changes: int) -> None:
        """Make ``basis`` current with ``binv``, its inverse after
        ``changes`` eta updates, and the status ``sgn``, zeroed here where a
        variable cannot move; the worker owns and updates all three."""
        self.basis = basis
        self.sgn = sgn * self.boxed
        self.binv = binv
        self.changes = changes
        self._evaluate()

    def _replace(self, pos: int, j: int, w: np.ndarray, leave_to: int) -> None:
        """Column ``j`` enters at ``pos``; ``w`` is ``B^-1 a_j``; the leaving
        one gets status ``leave_to``, +1 (at lower) or -1 (at upper)."""
        old = self.basis[pos]
        self.basis[pos] = j
        self.sgn[j] = 0.0
        self.sgn[old] = leave_to * self.boxed[old]
        self.changes += 1
        if self.changes >= REFACTOR_EVERY:
            B = np.hstack([self.A, np.eye(self.m)])[:, self.basis]
            self._install(self.basis, self.sgn, lu_factor(B), 0)
            return
        # rows where w is exactly 0 would subtract exact zeros: skip them
        nz = np.flatnonzero(w)
        row = self.binv[pos] / w[pos]
        self.binv[nz] -= np.outer(w[nz], row)
        self.binv[pos] = row

    def _evaluate(self) -> None:
        """Values ``x`` and reduced costs ``d`` of the current basis from
        scratch.  A nonbasic slack is 0, the one finite bound it can leave
        at."""
        x = np.where(self.sgn < 0, self.up, self.lo)
        x[self.basis] = 0.0
        x[self.basis] = lu_solve(self.binv, self.b - self.A @ x[:self.n])
        self.x = x
        y = lu_solve(self.binv, self.c[self.basis], trans=1)
        self.d = self.c - np.concatenate([y @ self.A, y])
        self.stale = False

    def _dual_feasible(self) -> bool:
        """No movable nonbasic variable could improve the objective by
        leaving its bound, to within the problem's ``opt_tol``."""
        return bool((self.sgn * self.d >= -self.opt_tol).all())

    def _pivot(self, pos: int, j: int, alpha: np.ndarray,
               leaving_below: bool) -> None:
        """Column ``j`` replaces the basic variable at ``pos``, which leaves
        at the bound it violates; ``alpha`` is its row of ``B^-1 [A | I]``.
        The values and reduced costs move along the pivot."""
        w = (lu_solve(self.binv, self.A[:, j]) if j < self.n
             else self.binv[:, j - self.n].copy())  # a slack's column is e_i
        leave = self.basis[pos]
        bound = self.lo[leave] if leaving_below else self.up[leave]
        theta = (self.x[leave] - bound) / w[pos]
        self.x[self.basis] -= theta * w
        self.x[j] += theta
        self.x[leave] = bound
        self.d -= (self.d[j] / alpha[j]) * alpha
        self.stale = True
        self._replace(pos, j, w, 1 if leaving_below else -1)

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
            row = self.binv[pos]
            alpha = np.concatenate([row @ self.A, row])
            # a movable column may enter if moving it off its bound moves
            # the leaving variable towards the bound it violates
            toward = self.sgn * alpha
            elig = np.flatnonzero(toward < -PIVOT_TOL if leaving_below
                                  else toward > PIVOT_TOL)
            if not elig.size:
                return INFEASIBLE
            ratios = np.abs(self.d[elig]) / np.abs(alpha[elig])
            if bland:
                # the lowest index among ratio ties enters
                k = int(np.flatnonzero(ratios <= ratios.min() + self.tie_tol)[0])
            else:
                k = int(np.argmin(ratios))  # first minimum: lowest index at ties
            degen = degen + 1 if ratios[k] <= self.tie_tol else 0
            self._pivot(pos, int(elig[k]), alpha, leaving_below)
            self.pivots += 1
            if self.pivots > self.limit:
                raise SolverLimit(f"simplex exceeded {self.limit} pivots")

    def result(self) -> LpResult:
        xs = self.x[:self.n]
        obj = float(self.layout.c @ xs + self.layout.c0)
        state = BasisState(self.basis.copy(), self.sgn.copy(), self.binv,
                           self.changes)
        return LpResult(OPTIMAL, xs, obj, state)


def _solve_from(p: LpProblem,
                warm: Optional[BasisState]) -> Optional[LpResult]:
    """Dual simplex from ``warm``, or from the slack basis when ``warm`` is
    None.  None when the start is not dual feasible, or when the final basis
    fails the optimality certificate (dual feasibility) and so proves
    nothing.  Every run starts dual feasible, so an INFEASIBLE is a proof."""
    w = _Worker(p)
    n, m = w.n, w.m
    if warm is None:
        # the basis of zero rows, each structural column at the bound its
        # cost sign picks: with every variable boxed, the slack basis it
        # borders to is dual feasible
        warm = BasisState(np.zeros(0, dtype=np.intp),
                          np.where(w.layout.c < 0, -1.0, 1.0), np.eye(0), 0)
    old_rows = warm.binv.shape[0]
    if m == old_rows:
        binv = warm.binv.copy()
    else:
        # new rows are 0 in the old slack columns, so the old basis columns
        # read A[new rows, old basis] there and the new slacks I
        binv = np.eye(m)
        binv[:old_rows, :old_rows] = warm.binv
        struct = warm.basis < n
        binv[old_rows:, :old_rows] = \
            -w.A[old_rows:, warm.basis[struct]] @ warm.binv[struct]
    # old status layout: struct | old slacks; the new slacks are basic
    w._install(np.concatenate([warm.basis, np.arange(n + old_rows, n + m)]),
               np.concatenate([warm.sgn, np.zeros(m - old_rows)]), binv,
               warm.changes)
    if not w._dual_feasible():
        return None
    if w.dual() == INFEASIBLE:
        return LpResult(INFEASIBLE, None, None, None)
    return w.result() if w._dual_feasible() else None


def solve(p: LpProblem, warm: Optional[BasisState] = None) -> LpResult:
    """Solve the boxed LP; OPTIMAL with a certified basis, or INFEASIBLE.

    A warm start that fails (not dual feasible, the pivot limit, a singular
    basis, or a failed certificate) is retried once from the slack basis,
    which raises ``SolverLimit`` at the pivot limit or a failed certificate:
    an optimum is never returned uncertified."""
    if warm is not None:
        try:
            r = _solve_from(p, warm)
        except (SolverLimit, np.linalg.LinAlgError):
            r = None
        if r is not None:
            return r
    r = _solve_from(p, None)
    if r is None:
        raise SolverLimit(
            "optimum not certified: the dual simplex from the slack basis "
            "ended on a basis that is not dual feasible")
    return r

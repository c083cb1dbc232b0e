"""Bounded-variable revised simplex over [0,1] relaxations.

Solves min c.x subject to the system rows with every variable boxed, via a
two-phase primal simplex; re-solves after adding cut rows or changing bounds
with a dual simplex warm-started from the parent basis.  Dense arithmetic;
the systems this package generates are desk scale.

Each solve keeps the explicit inverse of its basis matrix and never inverts
a basis it can already name the inverse of.  A cold start's basis is slack
and artificial unit columns, so its inverse is a diagonal of +-1.  A warm
start carries the parent's inverse: a bound change leaves the basis matrix
as it was, and appending rows ``R`` borders it to ``[[B, 0], [R, I]]``, whose
inverse is ``[[B^-1, 0], [-R B^-1, I]]``.  Each basis change applies a
rank-one (eta) update, the product form of the inverse, and the inverse is
computed from scratch only after ``REFACTOR_EVERY`` of them, counted across
the whole chain of warm solves, to shed rounding drift.  A bound flip leaves
the basis, and so the inverse, unchanged.

Pivot rules are fixed for determinism: largest reduced cost with a Bland
fallback after a degeneracy streak, ratio-test ties to the lowest variable
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .constraints import EQ, GE, LE, ConstraintSystem, LinearConstraint
from .errors import IterationLimit

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

    @property
    def index(self) -> Dict[str, int]:
        return {name: j for j, name in enumerate(self.names)}


@dataclass
class BasisState:
    """Warm-start handle: basis membership, retained artificial columns, and
    the basis inverse with the basis changes applied to it since it was last
    computed from scratch.  Warm solves copy ``binv``; none writes to it."""
    basis: List[int]
    stat: np.ndarray
    arts: Tuple[Tuple[int, float], ...]
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
    return LpProblem(tuple(names), A, tuple(rel), b,
                     np.zeros(n), np.ones(n), c, c0)


def add_row(p: LpProblem, row: LinearConstraint) -> LpProblem:
    a, r, rhs = _normalize_row(row, p.index, len(p.names))
    return LpProblem(p.names, np.vstack([p.A, a[None, :]]), p.rel + (r,),
                     np.append(p.b, rhs), p.lower, p.upper, p.c, p.c0)


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
    return LpProblem(p.names, p.A, p.rel, p.b, lower, upper, p.c, p.c0)


class _Worker:
    """One solve session: structural | artificial | slack column layout."""

    def __init__(self, p: LpProblem, arts: Tuple[Tuple[int, float], ...]):
        self.p = p
        self.m, self.n = p.A.shape
        self.arts = tuple(arts)
        self.na = len(self.arts)
        m, n, na = self.m, self.n, self.na
        Aart = np.zeros((m, na))
        for k, (row, sign) in enumerate(self.arts):
            Aart[row, k] = sign
        self.A = np.hstack([p.A, Aart, np.eye(m)]) if m else np.zeros((0, n + na))
        self.ntot = n + na + m
        slack_up = np.array([math.inf if r == LE else 0.0 for r in p.rel])
        self.lo = np.concatenate([p.lower, np.zeros(na), np.zeros(m)])
        self.up = np.concatenate([p.upper, np.zeros(na), slack_up])
        self.stat = np.full(self.ntot, AT_LOWER, dtype=np.int8)
        self.limit = max(1000, 50 * (self.m + self.ntot))
        self.pivots = 0

    # -- shared pieces -------------------------------------------------------

    def _install(self, basis: List[int], binv: np.ndarray,
                 changes: int) -> None:
        """Make ``basis`` current with ``binv``, its inverse after
        ``changes`` eta updates; the worker owns and updates ``binv``."""
        self.basis = basis
        self.stat[basis] = BASIC
        self.binv = binv
        self.changes = changes

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
        row = self.binv[pos] / w[pos]
        self.binv -= np.outer(w, row)
        self.binv[pos] = row

    def _nonbasic_values(self) -> np.ndarray:
        x = np.where(self.stat == AT_UPPER, self.up, self.lo)
        x[np.isinf(x)] = 0.0
        x[self.basis] = 0.0
        return x

    def _values(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = lu_solve(self.binv, self.p.b - self.A @ x)
        return x

    def _reduced_costs(self, c) -> np.ndarray:
        return c - lu_solve(self.binv, c[self.basis], trans=1) @ self.A

    def _movable(self) -> np.ndarray:
        out = (self.stat != BASIC) & (self.up > self.lo + 1e-12)
        return out

    def _tick(self):
        self.pivots += 1
        if self.pivots > self.limit:
            raise IterationLimit(f"simplex exceeded {self.limit} pivots")

    # -- primal --------------------------------------------------------------

    def primal(self, c: np.ndarray) -> str:
        degen = 0
        while True:
            if self.m == 0:
                # no rows: push every variable to its cheaper finite bound
                for j in range(self.ntot):
                    if self.up[j] > self.lo[j] and c[j] < -OPT_TOL:
                        self.stat[j] = AT_UPPER
                return OPTIMAL
            x = self._values()
            d = self._reduced_costs(c)
            movable = self._movable()
            score = np.zeros(self.ntot)
            at_lo = movable & (self.stat == AT_LOWER)
            at_up = movable & (self.stat == AT_UPPER)
            score[at_lo] = -d[at_lo]
            score[at_up] = d[at_up]
            eligible = score > OPT_TOL
            if not eligible.any():
                return OPTIMAL
            if degen >= BLAND_AFTER:
                j = int(np.flatnonzero(eligible)[0])
            else:
                masked = np.where(eligible, score, -math.inf)
                j = int(np.argmax(masked))
            dirn = 1.0 if self.stat[j] == AT_LOWER else -1.0
            w = lu_solve(self.binv, self.A[:, j])
            xB = x[self.basis]
            # entering step t changes basic values by -dirn*t*w
            basis_arr = np.asarray(self.basis)
            lo_b = self.lo[basis_arr]
            up_b = self.up[basis_arr]
            delta = dirn * w
            lim = np.full(self.m, math.inf)
            pos = delta > PIVOT_TOL
            lim[pos] = (xB[pos] - lo_b[pos]) / delta[pos]
            neg = (delta < -PIVOT_TOL) & np.isfinite(up_b)
            lim[neg] = (up_b[neg] - xB[neg]) / (-delta[neg])
            np.maximum(lim, 0.0, out=lim)
            t_bound = self.up[j] - self.lo[j]
            best_t = min(float(lim.min(initial=math.inf)), t_bound)
            if not math.isfinite(best_t):
                raise IterationLimit("unbounded direction in primal simplex")
            leave_pos = -1
            leave_to = AT_LOWER
            # among blocking rows, the lowest basic-variable index wins;
            # a bound flip of the entering variable counts with its own index
            tie_key = j if t_bound <= best_t + RATIO_TIE_TOL else self.ntot + 1
            near = np.flatnonzero(lim <= best_t + RATIO_TIE_TOL)
            for i in near:
                bi = int(basis_arr[i])
                if bi < tie_key:
                    tie_key = bi
                    leave_pos = int(i)
                    leave_to = AT_LOWER if delta[i] > 0 else AT_UPPER
            degen = degen + 1 if best_t <= 1e-10 else 0
            if leave_pos < 0:
                # bound flip, basis unchanged
                self.stat[j] = AT_UPPER if self.stat[j] == AT_LOWER else AT_LOWER
            else:
                self._replace(leave_pos, j, w, leave_to)
            self._tick()

    def _dual_feasible(self, c, tol: float = 1e-7) -> bool:
        """Reduced-cost signs consistent with every movable nonbasic status."""
        d = self._reduced_costs(c)
        movable = self._movable()
        lo_ok = d[movable & (self.stat == AT_LOWER)] >= -tol
        up_ok = d[movable & (self.stat == AT_UPPER)] <= tol
        return bool(lo_ok.all() and up_ok.all())

    # -- dual ----------------------------------------------------------------

    def dual(self, c: np.ndarray) -> str:
        while True:
            if self.m == 0:
                return OPTIMAL
            x = self._values()
            xB = x[self.basis]
            lo_b = self.lo[np.array(self.basis)]
            up_b = self.up[np.array(self.basis)]
            below = lo_b - xB
            above = xB - up_b
            above[np.isinf(up_b)] = -math.inf
            viol = np.maximum(below, above)
            pos = int(np.argmax(viol))
            if viol[pos] <= FEAS_TOL:
                return OPTIMAL
            leaving_below = below[pos] >= above[pos]
            alpha = self.binv[pos] @ self.A
            d = self._reduced_costs(c)
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
            j = int(np.argmin(ratios))  # first minimum: lowest index at ties
            self._replace(pos, j, lu_solve(self.binv, self.A[:, j]),
                          AT_LOWER if leaving_below else AT_UPPER)
            self._tick()

    # -- costs ---------------------------------------------------------------

    def real_cost(self) -> np.ndarray:
        c = np.zeros(self.ntot)
        c[:self.n] = self.p.c
        return c

    def result(self) -> LpResult:
        xs = self._values()[:self.n]
        obj = float(self.p.c @ xs + self.p.c0)
        state = BasisState(list(self.basis), self.stat.copy(), self.arts,
                           self.binv, self.changes)
        return LpResult(OPTIMAL, xs, obj, state)


def _cold_solve(p: LpProblem) -> LpResult:
    m = len(p.b)
    # structural at lower, slacks tentatively basic
    resid = p.b - p.A @ p.lower
    arts: List[Tuple[int, float]] = []
    for i in range(m):
        infeasible = (p.rel[i] == LE and resid[i] < -FEAS_TOL) or \
                     (p.rel[i] == EQ and abs(resid[i]) > FEAS_TOL)
        if infeasible:
            arts.append((i, 1.0 if resid[i] > 0 else -1.0))
    w = _Worker(p, tuple(arts))
    basis = [w.n + w.na + i for i in range(m)]
    sign = np.ones(m)
    for k, (row, s) in enumerate(arts):
        basis[row] = w.n + k
        sign[row] = s
    w._install(basis, np.diag(sign), 0)
    if arts:
        # phase 1: open the artificials and minimize their sum
        for k in range(w.na):
            w.up[w.n + k] = math.inf
        c1 = np.zeros(w.ntot)
        c1[w.n:w.n + w.na] = 1.0
        w.primal(c1)
        if float(c1 @ w._values()) > FEAS_TOL:
            return LpResult(INFEASIBLE, None, None, None)
        w.up[w.n:w.n + w.na] = 0.0
        for k in range(w.na):
            if w.stat[w.n + k] == AT_UPPER:
                w.stat[w.n + k] = AT_LOWER
    w.primal(w.real_cost())
    return w.result()


def _warm_solve(p: LpProblem, warm: BasisState) -> LpResult:
    w = _Worker(p, warm.arts)
    old_rows = warm.binv.shape[0]
    # old stat layout: struct | arts | old slacks; new slacks append at the end
    w.stat[:w.n + w.na + old_rows] = warm.stat
    # new rows are 0 in artificial and old slack columns, so the old basis
    # columns read A[new rows, old basis] there and the new slacks read I
    binv = np.eye(w.m)
    binv[:old_rows, :old_rows] = warm.binv
    binv[old_rows:, :old_rows] = -w.A[old_rows:, warm.basis] @ warm.binv
    w._install(list(warm.basis) +
               [w.n + w.na + i for i in range(old_rows, w.m)],
               binv, warm.changes)
    # nonbasic statuses may point at a now-infinite bound after a bound change
    for j in range(w.n):
        if w.stat[j] == AT_UPPER and not math.isfinite(w.up[j]):
            w.stat[j] = AT_LOWER
    c = w.real_cost()
    dual_ok = w._dual_feasible(c)
    status = w.dual(c)
    if status == INFEASIBLE:
        if dual_ok:
            return LpResult(INFEASIBLE, None, None, None)
        # dual infeasibility is only a proof when dual feasibility held;
        # confirm from scratch before reporting
        return _cold_solve(p)
    w.primal(c)
    return w.result()


def solve(p: LpProblem, warm: Optional[BasisState] = None) -> LpResult:
    """Solve the boxed LP; OPTIMAL with certificate basis, or INFEASIBLE."""
    if warm is None:
        return _cold_solve(p)
    try:
        return _warm_solve(p, warm)
    except (IterationLimit, np.linalg.LinAlgError):
        return _cold_solve(p)

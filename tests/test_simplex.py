"""LP relaxation, cold and warm simplex solves, and the pivot rules."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from abduce import simplex as sx
from abduce.constraints import (
    ConstraintSystem,
    LinearConstraint,
    apply_evidence,
    encode_bayesnet,
    encode_waodag,
)
from abduce.errors import SolverLimit
from abduce.generate import random_bayesnet, random_evidence, random_waodag

TONY_ORDER = ("Tony-in", "Tony-sleeping", "Tony-out",
              "phone-disconnected", "phone-noanswer")


@pytest.fixture
def tony_lp(tony):
    return sx.relax(encode_waodag(tony).system)


# --- relaxation ---------------------------------------------------------------

class TestRelax:
    def test_tony_shape(self, tony_lp):
        assert tony_lp.system.variables == TONY_ORDER
        assert tony_lp.system.rows[0].shape == (7, 5)
        assert list(tony_lp.layout.c) == [5, 4, 8, 0, 0]
        assert tony_lp.layout.c0 == 0
        assert all(tony_lp.lower == 0) and all(tony_lp.upper == 1)

    def test_equal_costs_become_constant(self):
        system = ConstraintSystem(("x",), (), {"x": 3.0}, {"x": 3.0})
        p = sx.relax(system)
        assert p.layout.c[0] == 0.0
        assert p.layout.c0 == 3.0
        assert sx.solve(p).objective == 3.0

    def test_bayes_relaxation_shape(self, fig):
        p = sx.relax(encode_bayesnet(fig).system)
        assert len(p.system.variables) == 18
        assert p.system.rows[0].shape == (21, 18)
        assert p.layout.c0 == 0.0

    def test_rows_kept_as_written(self, tony):
        system = encode_waodag(tony).system
        p = sx.relax(system)
        assert p.system is system
        assert set(system.rows[1]) == {"<=", ">=", "="}


# --- solve --------------------------------------------------------------------

def tiny_problem(rows, n=1, c=None):
    names = tuple(f"x{j}" for j in range(n))
    c = c if c is not None else [1.0] * n
    return sx.relax(ConstraintSystem(names, tuple(rows), dict(zip(names, c)),
                                     dict.fromkeys(names, 0.0)))


class TestSolve:
    def test_tony_relaxation_integral(self, tony_lp):
        r = sx.solve(tony_lp)
        assert r.status == sx.OPTIMAL
        assert r.objective == pytest.approx(8, abs=1e-9)
        index = tony_lp.system.index
        assert r.x[index["Tony-out"]] == pytest.approx(1, abs=1e-7)
        assert r.x[index["Tony-in"]] == pytest.approx(0, abs=1e-7)

    def test_empty_problem(self):
        r = sx.solve(sx.relax(ConstraintSystem((), (), {}, {})))
        assert r.status == sx.OPTIMAL
        assert r.objective == 0.0

    def test_infeasible_bounds(self):
        p = tiny_problem([LinearConstraint(((1.0, "x0"),), ">=", 1.0),
                          LinearConstraint(((1.0, "x0"),), "<=", 0.0)])
        assert sx.solve(p).status == sx.INFEASIBLE

    def test_negative_cost_pushes_to_upper(self):
        p = tiny_problem([], n=2, c=[-1.0, 2.0])
        r = sx.solve(p)
        assert r.objective == pytest.approx(-1.0)
        assert r.x[0] == pytest.approx(1.0)
        assert r.x[1] == pytest.approx(0.0)

    def test_certificate_feasible(self, tony_lp):
        r = sx.solve(tony_lp)
        A, rels, b = tony_lp.system.rows
        resid = A @ r.x - b
        for i, rel in enumerate(rels):
            if rel == "<=":
                assert resid[i] <= 1e-7
            elif rel == ">=":
                assert resid[i] >= -1e-7
            else:
                assert abs(resid[i]) <= 1e-7
        assert (r.x >= -1e-9).all() and (r.x <= 1 + 1e-9).all()

    def test_determinism(self, tony_lp):
        a = sx.solve(tony_lp)
        b = sx.solve(tony_lp)
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.basis.basis, b.basis.basis)
        assert np.array_equal(a.basis.sgn, b.basis.sgn)

    def test_degenerate_instance_terminates(self):
        # many redundant tight rows through the origin invite cycling
        rows = []
        for i in range(6):
            rows.append(LinearConstraint(
                tuple((1.0 if (i >> j) & 1 else 2.0, f"x{j}")
                      for j in range(4)), ">=", 0.0))
        rows.append(LinearConstraint(
            tuple((1.0, f"x{j}") for j in range(4)), ">=", 2.0))
        p = tiny_problem(rows, n=4, c=[1.0, 1.0, 1.0, 1.0])
        r = sx.solve(p)
        assert r.status == sx.OPTIMAL
        assert r.objective == pytest.approx(2.0, abs=1e-7)


# --- warm re-solve ------------------------------------------------------------

def count_inversions(monkeypatch):
    """Record the shape of every basis inverse computed from scratch."""
    inversions = []
    invert = sx.lu_factor

    def counting(B):
        inversions.append(B.shape)
        return invert(B)

    monkeypatch.setattr(sx, "lu_factor", counting)
    return inversions


def basis_matrix(p, state):
    """The basis columns of ``[A | I]`` for ``state``."""
    A = p.system.rows[0]
    return np.hstack([A, np.eye(len(A))])[:, state.basis]


def assert_carried_inverse(p, r):
    """``r.basis.binv`` inverts the basis matrix ``r`` ends on."""
    B = basis_matrix(p, r.basis)
    err = r.basis.binv @ B - np.eye(len(B))
    assert np.abs(err).max(initial=0.0) <= 1e-9


class TestResolveAfterCut:
    def test_tony_cut_drops_to_fractional_optimum(self, tony_lp):
        root = sx.solve(tony_lp)
        # exclude the integral optimum over the full variable set
        names = tony_lp.system.variables
        s = {x: int(round(root.x[j])) for j, x in enumerate(names)}
        terms = tuple((1.0, x) if s[x] else (-1.0, x) for x in names)
        cut = LinearConstraint(terms, "<=", float(sum(s.values()) - 1))
        extended = sx.add_row(tony_lp, cut)
        warm = sx.solve(extended, warm=root.basis)
        cold = sx.solve(extended)
        assert warm.status == cold.status == sx.OPTIMAL
        # the cut polytope's optimum is fractional: 8 + 1/4
        assert warm.objective == pytest.approx(8.25, abs=1e-9)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_implied_row_changes_nothing(self, tony_lp):
        root = sx.solve(tony_lp)
        extended = sx.add_row(tony_lp, LinearConstraint(
            ((1.0, "phone-noanswer"),), "<=", 2.0))
        warm = sx.solve(extended, warm=root.basis)
        assert warm.objective == pytest.approx(root.objective, abs=1e-9)

    def test_conflicting_bound_children(self, tony_lp):
        root = sx.solve(tony_lp)
        j = tony_lp.system.index["Tony-out"]
        up = sx.fixed(tony_lp, j, 1.0)
        down = sx.fixed(tony_lp, j, 0.0)
        r_up = sx.solve(up, warm=root.basis)
        r_down = sx.solve(down, warm=root.basis)
        assert r_up.status == sx.OPTIMAL
        assert r_up.objective == pytest.approx(8, abs=1e-9)
        assert r_down.status == sx.OPTIMAL
        assert r_down.objective == pytest.approx(9, abs=1e-9)
        assert r_up.objective == pytest.approx(sx.solve(up).objective, abs=1e-9)
        assert r_down.objective == pytest.approx(sx.solve(down).objective,
                                                 abs=1e-9)

    def test_children_leave_parent_inverse_alone(self, tony_lp):
        root = sx.solve(tony_lp)
        before = root.basis.binv.tobytes()
        j = tony_lp.system.index["Tony-out"]
        children = [sx.solve(sx.fixed(tony_lp, j, v),
                             warm=root.basis) for v in (0.0, 1.0)]
        children.append(sx.solve(sx.add_row(tony_lp, LinearConstraint(
            ((1.0, "Tony-out"),), "<=", 0.0)), warm=root.basis))
        assert any(c.basis.changes > root.basis.changes for c in children)
        assert root.basis.binv.tobytes() == before

    def test_warm_solve_reuses_the_inverse(self, tony_lp, monkeypatch):
        root = sx.solve(tony_lp)
        inversions = count_inversions(monkeypatch)
        cut = sx.add_row(tony_lp, LinearConstraint(
            ((1.0, "Tony-out"),), "<=", 0.0))
        fixed = sx.fixed(tony_lp, tony_lp.system.index["Tony-in"], 1.0)
        for p in (cut, fixed):
            r = sx.solve(p, warm=root.basis)
            assert r.basis.changes < sx.REFACTOR_EVERY
            assert_carried_inverse(p, r)
        assert inversions == []

    def test_fixing_all_hypotheses_off_is_infeasible(self, tony_lp):
        root = sx.solve(tony_lp)
        p = tony_lp
        for name in ("Tony-in", "Tony-sleeping", "Tony-out"):
            p = sx.fixed(p, p.system.index[name], 0.0)
        assert sx.solve(p, warm=root.basis).status == sx.INFEASIBLE
        assert sx.solve(p).status == sx.INFEASIBLE


def random_cut(rng, names):
    k = rng.randint(1, min(4, len(names)))
    chosen = rng.sample(list(names), k)
    terms = tuple((float(rng.choice([-2, -1, 1, 2])), x) for x in chosen)
    rhs = float(rng.randint(-2, 3))
    rel = rng.choice(["<=", ">=", "="]) if rng.random() < 0.5 else "<="
    return LinearConstraint(terms, rel, rhs)


@pytest.mark.parametrize("seed", range(20))
def test_randomized_resolve_matches_scratch(seed):
    """Chains of random cuts and bound fixes: warm result == cold result."""
    rng = random.Random(seed)
    w = random_waodag(seed, n_hypotheses=3 + seed % 3, n_internal=4 + seed % 4)
    p = sx.relax(encode_waodag(w).system)
    parent = sx.solve(p)
    for _ in range(10):
        if parent.status != sx.OPTIMAL:
            break
        if rng.random() < 0.7:
            p = sx.add_row(p, random_cut(rng, p.system.variables))
        else:
            j = rng.randrange(len(p.system.variables))
            v = float(rng.randint(0, 1))
            p = sx.fixed(p, j, v)
        warm = sx.solve(p, warm=parent.basis)
        cold = sx.solve(p)
        assert warm.status == cold.status
        if warm.status == sx.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert_carried_inverse(p, warm)
        parent = warm


# --- differential check against HiGHS -----------------------------------------

@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


def bayes_lp(seed):
    net = random_bayesnet(seed, 10, 2)
    enc = apply_evidence(encode_bayesnet(net), random_evidence(seed, net))
    return sx.relax(enc.system)


def waodag_lp(seed):
    return sx.relax(encode_waodag(random_waodag(seed, 20, 60)).system)


def with_costs(p, c):
    """``p`` over a copy of its system whose cost gaps are ``c``."""
    names = p.system.variables
    system = dataclasses.replace(
        p.system, psi_true=dict(zip(names, c.tolist())),
        psi_false=dict.fromkeys(names, 0.0))
    return dataclasses.replace(p, system=system)


def mixed_lp(seed):
    """A relaxation with costs of both signs, so the slack start puts some
    variables at their upper bound (both encodings price every variable at
    0 or more)."""
    p = waodag_lp(seed) if seed % 2 else bayes_lp(seed)
    c = p.layout.c
    return with_costs(p, np.random.default_rng(seed).choice([-1.0, 1.0],
                                                            size=len(c)) * c)


def dual_ends(monkeypatch):
    """Record, for each dual simplex pass that ends OPTIMAL, whether its
    final basis is still dual feasible.  From a dual-feasible start the
    ratio test must keep it so; a basis that drifts out fails the final
    certificate and sends the solve back to the slack basis."""
    ends = []
    dual = sx._Worker.dual

    def recording(worker):
        status = dual(worker)
        if status == sx.OPTIMAL:
            ends.append(worker._dual_feasible())
        return status

    monkeypatch.setattr(sx._Worker, "dual", recording)
    return ends


def record_starts(monkeypatch):
    """Record ``(warm, certified)`` for every ``_solve_from`` call: whether
    it started warm, and whether it returned a result rather than None or
    an exception, either of which sends a warm start back to the slack
    basis."""
    starts = []
    solve_from = sx._solve_from

    def recording(p, warm):
        r = None
        try:
            r = solve_from(p, warm)
        finally:
            starts.append((warm is not None, r is not None))
        return r

    monkeypatch.setattr(sx, "_solve_from", recording)
    return starts


def assert_matches_highs(p, r, linprog, scale=1.0):
    """Same status and objective as HiGHS; ``r.x`` meets every row.  HiGHS
    solves the costs divided by ``scale``, so that its tolerances, and the
    objective's, mean the same at every cost scale."""
    A, rel, b = p.system.rows
    # HiGHS takes <= rows: a >= row goes in negated
    sign = np.where(rel == ">=", -1.0, 1.0)
    ub, eq = rel != "=", rel == "="
    ref = linprog(p.layout.c / scale, A_ub=(A * sign[:, None])[ub],
                  b_ub=(b * sign)[ub], A_eq=A[eq], b_eq=b[eq],
                  bounds=list(zip(p.lower, p.upper)), method="highs")
    assert ref.status in (0, 2), ref.message
    assert r.status == (sx.OPTIMAL if ref.status == 0 else sx.INFEASIBLE)
    if r.status != sx.OPTIMAL:
        return
    assert r.objective / scale == pytest.approx(
        ref.fun + p.layout.c0 / scale, abs=1e-7)
    resid = sign * (A @ r.x - b)
    assert (resid[ub] <= sx.FEAS_TOL).all()
    assert (np.abs(resid[eq]) <= sx.FEAS_TOL).all()
    assert (r.x >= p.lower - sx.FEAS_TOL).all()
    assert (r.x <= p.upper + sx.FEAS_TOL).all()


COLD_SEEDS = range(12)


@pytest.mark.parametrize("make", [bayes_lp, waodag_lp, mixed_lp])
@pytest.mark.parametrize("seed", COLD_SEEDS)
def test_cold_solve_matches_highs(make, seed, linprog):
    p = make(seed)
    assert_matches_highs(p, sx.solve(p), linprog)


def test_bayes_instances_reach_the_refresh(monkeypatch):
    """Some cold solves above run past ``REFACTOR_EVERY`` basis changes, so
    they compute the inverse from scratch at least once (a cold start
    inverts nothing: its slack basis is its own inverse, ``I``)."""
    inversions = count_inversions(monkeypatch)
    for seed in COLD_SEEDS:
        sx.solve(bayes_lp(seed))
    assert len(inversions) >= 1


def warm_chain(p, parent, rng):
    """Up to 8 random cuts and bound fixes, each solved warm from the one
    before; yields every problem with its result."""
    for _ in range(8):
        if parent.status != sx.OPTIMAL:
            break
        if rng.random() < 0.7:
            p = sx.add_row(p, random_cut(rng, p.system.variables))
        else:
            j = rng.randrange(len(p.system.variables))
            v = float(rng.randint(0, 1))
            p = sx.fixed(p, j, v)
        parent = sx.solve(p, warm=parent.basis)
        yield p, parent


def check_warm_chain(p, parent, rng, linprog, scale=1.0):
    """Warm re-solves after random cuts and bound fixes agree with HiGHS and
    end on the inverse of their basis."""
    for p, r in warm_chain(p, parent, rng):
        assert_matches_highs(p, r, linprog, scale)
        if r.status == sx.OPTIMAL:
            assert_carried_inverse(p, r)


@pytest.mark.parametrize("make", [bayes_lp, waodag_lp, mixed_lp])
@pytest.mark.parametrize("seed", range(4))
def test_warm_chain_matches_highs(make, seed, linprog, monkeypatch):
    starts = record_starts(monkeypatch)
    p = make(seed)
    check_warm_chain(p, sx.solve(p), random.Random(seed), linprog)
    # no warm start fell back to the slack basis
    assert (True, False) not in starts


def test_warm_chain_crosses_the_refresh(monkeypatch, linprog):
    """The basis changes carried along this chain pass ``REFACTOR_EVERY``
    inside a warm solve, which computes the inverse from scratch."""
    p = bayes_lp(7)
    root = sx.solve(p)
    inversions = count_inversions(monkeypatch)
    starts = record_starts(monkeypatch)
    check_warm_chain(p, root, random.Random(7), linprog)
    assert len(inversions) >= 1
    assert (True, False) not in starts


# --- rows as written ----------------------------------------------------------

def normalised(row):
    """``row`` with a ``>=`` negated into a ``<=``."""
    if row.relation != ">=":
        return row
    return LinearConstraint(tuple((-c, x) for c, x in row.terms), "<=",
                            -row.rhs)


@pytest.mark.parametrize("make", [bayes_lp, waodag_lp, mixed_lp])
@pytest.mark.parametrize("seed", range(4))
def test_ge_rows_solve_as_their_negated_le_rows(make, seed, monkeypatch):
    """A ``>=`` row's slack, bounded to (-inf, 0], is the negated slack of
    the same row written as ``<=``: every quantity the dual compares is equal
    up to an exact sign flip, so the system and its normalised copy solve
    pivot for pivot, along warm chains with cuts and bound changes."""
    pivots = []
    dual = sx._Worker.dual

    def counted(worker):
        status = dual(worker)
        pivots.append(worker.pivots)
        return status

    def solve(p, warm):
        before = len(pivots)
        return sx.solve(p, warm=warm), pivots[before:]

    monkeypatch.setattr(sx._Worker, "dual", counted)
    p = make(seed)
    q = dataclasses.replace(p, system=dataclasses.replace(
        p.system, constraints=tuple(map(normalised, p.system.constraints))))
    (r, r_pivots), (s, s_pivots) = solve(p, None), solve(q, None)
    rng = random.Random(seed)
    for _ in range(8):
        assert r.status == s.status and r_pivots == s_pivots
        if r.status != sx.OPTIMAL:
            break
        assert np.array_equal(r.basis.basis, s.basis.basis)
        flip = np.concatenate([np.ones(len(r.x)),
                               np.where(p.system.rows[1] == ">=", -1.0, 1.0)])
        assert np.array_equal(r.basis.sgn, flip * s.basis.sgn)
        assert r.x.tobytes() == s.x.tobytes() and r.objective == s.objective
        if rng.random() < 0.7:
            row = random_cut(rng, p.system.variables)
            p, q = sx.add_row(p, row), sx.add_row(q, normalised(row))
        else:
            j = rng.randrange(len(r.x))
            v = float(rng.randint(0, 1))
            p, q = sx.fixed(p, j, v), sx.fixed(q, j, v)
        (r, r_pivots), (s, s_pivots) = solve(p, r.basis), solve(q, s.basis)
    assert sum(pivots) > 0


def test_cold_start_passes_its_start_check(monkeypatch):
    """A cold start is the warm path from the basis of zero rows: bordered to
    the slack basis, with each column at the bound its cost sign picks, it
    passes the warm start's dual-feasibility check by construction."""
    checks = []
    feasible, solve_from = sx._Worker._dual_feasible, sx._solve_from

    def recorded(worker):
        checks[-1].append(feasible(worker))
        return checks[-1][-1]

    def per_solve(p, warm):
        checks.append([])
        return solve_from(p, warm)

    monkeypatch.setattr(sx._Worker, "_dual_feasible", recorded)
    monkeypatch.setattr(sx, "_solve_from", per_solve)
    for make in (bayes_lp, waodag_lp, mixed_lp):
        for seed in COLD_SEEDS:
            sx.solve(make(seed))
    # one cold solve each: the start check, then the final certificate
    assert checks == [[True, True]] * (3 * len(COLD_SEEDS))


# --- state carried along the pivots -------------------------------------------

def solve_highs_instances():
    """Solve the cold and warm-chain problems of the HiGHS checks above."""
    for make in (bayes_lp, waodag_lp, mixed_lp):
        for seed in COLD_SEEDS:
            sx.solve(make(seed))
        for seed in range(4):
            p = make(seed)
            for _ in warm_chain(p, sx.solve(p), random.Random(seed)):
                pass


def test_pivots_keep_values_and_reduced_costs(monkeypatch):
    """After every pivot, the values and reduced costs updated along it match
    a from-scratch evaluation of the new basis."""
    pivot = sx._Worker._pivot
    pivots = []

    def checked(worker, *args):
        pivot(worker, *args)
        kept = worker.x, worker.d, worker.stale
        worker._evaluate()  # binds new arrays; the kept ones stay as they were
        assert np.abs(kept[0] - worker.x).max() <= 1e-9
        assert np.abs(kept[1] - worker.d).max() <= 1e-9
        worker.x, worker.d, worker.stale = kept
        pivots.append(1)

    monkeypatch.setattr(sx._Worker, "_pivot", checked)
    solve_highs_instances()
    assert len(pivots) > 1000


def test_optimal_reads_fresh_values(monkeypatch):
    """The dual returns OPTIMAL only on values and reduced costs evaluated
    from scratch, so the certificate and the result never read drift."""
    dual = sx._Worker.dual
    fresh = []

    def checked(worker):
        status = dual(worker)
        if status == sx.OPTIMAL:
            x, d = worker.x, worker.d
            worker._evaluate()
            fresh.append(np.array_equal(x, worker.x)
                         and np.array_equal(d, worker.d))
        return status

    monkeypatch.setattr(sx._Worker, "dual", checked)
    solve_highs_instances()
    assert fresh and all(fresh)


@pytest.mark.parametrize("make", [bayes_lp, waodag_lp, mixed_lp])
def test_hidden_infeasibility_keeps_pivoting(make, linprog, monkeypatch):
    """Updated values that hide an infeasibility (here: clipped into their
    bounds after every pivot) are caught by the evaluation before OPTIMAL,
    and the dual pivots on to the true optimum."""
    pivot = sx._Worker._pivot
    hidden = []

    def hiding(worker, *args):
        pivot(worker, *args)
        if worker.stale:
            b = worker.basis
            clipped = np.clip(worker.x[b], worker.lo[b], worker.up[b])
            hidden.append(not np.array_equal(worker.x[b], clipped))
            worker.x[b] = clipped

    monkeypatch.setattr(sx._Worker, "_pivot", hiding)
    for seed in range(4):
        p = make(seed)
        assert_matches_highs(p, sx.solve(p), linprog)
    assert any(hidden)


def test_sparse_eta_update_equals_dense(monkeypatch):
    replace = sx._Worker._replace
    checked = []

    def dense(worker, pos, j, w, leave_to):
        row = worker.binv[pos] / w[pos]
        want = worker.binv - np.outer(w, row)
        want[pos] = row
        replace(worker, pos, j, w, leave_to)
        if worker.changes:  # not a refresh
            checked.append(np.array_equal(worker.binv, want))

    monkeypatch.setattr(sx._Worker, "_replace", dense)
    solve_highs_instances()
    assert len(checked) > 1000 and all(checked)


def test_values_evaluated_at_install_refresh_and_end(monkeypatch):
    """From scratch, each solve evaluates its basis once at install, once
    per refresh and at most once more before it returns OPTIMAL."""
    inversions = count_inversions(monkeypatch)
    evaluate, solve_from = sx._Worker._evaluate, sx._solve_from
    evaluations, extra = [], []

    def counted(worker):
        evaluations.append(1)
        evaluate(worker)

    def per_solve(p, warm):
        before = len(evaluations) - len(inversions)
        r = solve_from(p, warm)
        extra.append(len(evaluations) - len(inversions) - before - 2)
        return r

    monkeypatch.setattr(sx._Worker, "_evaluate", counted)
    monkeypatch.setattr(sx, "_solve_from", per_solve)
    solve_highs_instances()
    assert max(extra) <= 0


class TestColumnLayout:
    """The per-problem layout (slack bounds by relation, structural | slack
    cost and the optimality tolerance) is built once per system."""

    def test_bound_children_share_it(self, tony_lp):
        child = sx.fixed(tony_lp, 0, 1.0)
        assert child.layout is tony_lp.layout
        assert sx.fixed(child, 1, 0.0).layout is tony_lp.layout

    def test_new_rows_get_their_own(self, tony_lp):
        cut = tony_cut(tony_lp)
        assert cut.layout is not tony_lp.layout
        layout = cut.layout
        bounds = {"<=": (0.0, math.inf), ">=": (-math.inf, 0.0),
                  "=": (0.0, 0.0)}
        assert list(zip(layout.slack_lo, layout.slack_up)) == [
            bounds[r] for r in cut.system.rows[1]]
        assert np.array_equal(layout.cost,
                              np.concatenate([layout.c, np.zeros(8)]))

    def test_replace_drops_it(self, tony_lp):
        layout = tony_lp.layout
        scaled = with_costs(tony_lp, 1e8 * layout.c)
        assert scaled.layout is not layout
        assert scaled.layout.opt_tol == pytest.approx(
            sx.OPT_TOL * (1.0 + 8e8))


# --- dual feasibility and Bland's rule ---------------------------------------

@pytest.mark.parametrize("make", [bayes_lp, waodag_lp, mixed_lp])
@pytest.mark.parametrize("seed", range(4))
def test_dual_keeps_dual_feasibility(make, seed, linprog, monkeypatch):
    ends = dual_ends(monkeypatch)
    p = make(seed)
    check_warm_chain(p, sx.solve(p), random.Random(seed), linprog)
    assert ends and all(ends)


# Each maker with its costs scaled: Bland's ratio ties and the degenerate-
# pivot test compare ratios that scale with the costs (with an absolute
# 1e-9 tie tolerance the 1e-8 cases lost dual feasibility and raised
# ``SolverLimit``).  Unscaled cases keep the maker's name as their id.
SCALED_MAKERS = [pytest.param(make, scale, id=make.__name__ if scale == 1.0
                              else f"{make.__name__}-x{scale:g}")
                 for scale in (1.0, 1e-8, 1e8)
                 for make in (bayes_lp, waodag_lp, mixed_lp)]


@pytest.mark.parametrize("make, scale", SCALED_MAKERS)
@pytest.mark.parametrize("seed", COLD_SEEDS)
def test_bland_cold_solve_matches_highs(make, scale, seed, linprog,
                                        monkeypatch):
    """With ``BLAND_AFTER`` at 0 every pivot of the dual simplex follows
    Bland's rule from the first one on."""
    monkeypatch.setattr(sx, "BLAND_AFTER", 0)
    ends = dual_ends(monkeypatch)
    p = make(seed)
    p = with_costs(p, scale * p.layout.c)
    assert_matches_highs(p, sx.solve(p), linprog, scale)
    assert all(ends)


@pytest.mark.parametrize("make, scale", SCALED_MAKERS)
@pytest.mark.parametrize("seed", range(4))
def test_bland_warm_chain_matches_highs(make, scale, seed, linprog,
                                        monkeypatch):
    monkeypatch.setattr(sx, "BLAND_AFTER", 0)
    ends = dual_ends(monkeypatch)
    starts = record_starts(monkeypatch)
    p = make(seed)
    p = with_costs(p, scale * p.layout.c)
    check_warm_chain(p, sx.solve(p), random.Random(seed), linprog, scale)
    assert ends and all(ends)
    assert (True, False) not in starts


# --- the optimality certificate ----------------------------------------------

def certificates(monkeypatch, verdicts):
    """Answer ``_dual_feasible`` with ``verdicts`` in call order (a False
    overrides the real check), then with the real check; count dual runs."""
    verdicts = iter(verdicts)
    feasible = sx._Worker._dual_feasible
    dual = sx._Worker.dual
    runs = []

    def counted(worker):
        runs.append(1)
        return dual(worker)

    def answer(worker):
        return next(verdicts, True) and feasible(worker)

    monkeypatch.setattr(sx._Worker, "_dual_feasible", answer)
    monkeypatch.setattr(sx._Worker, "dual", counted)
    return runs


def tony_cut(tony_lp):
    return sx.add_row(tony_lp,
                      LinearConstraint(((1.0, "Tony-out"),), "<=", 0.0))


def test_failed_warm_certificate_retries_from_slack(tony_lp, linprog,
                                                    monkeypatch):
    root = sx.solve(tony_lp)
    p = tony_cut(tony_lp)
    starts = record_starts(monkeypatch)
    # the warm start passes its start check and fails its final certificate
    runs = certificates(monkeypatch, [True, False])
    r = sx.solve(p, warm=root.basis)
    assert starts == [(True, False), (False, True)]
    assert len(runs) == 2
    assert_matches_highs(p, r, linprog)


@pytest.mark.parametrize("error", [SolverLimit, np.linalg.LinAlgError],
                         ids=["solver-limit", "singular"])
def test_warm_start_that_raises_retries_from_slack(tony_lp, linprog,
                                                   monkeypatch, error):
    root = sx.solve(tony_lp)
    p = tony_cut(tony_lp)
    solve_from = sx._solve_from
    starts = []

    def raising(p, warm):
        starts.append(warm is not None)
        if warm is not None:
            raise error("forced for the test")
        return solve_from(p, warm)

    monkeypatch.setattr(sx, "_solve_from", raising)
    r = sx.solve(p, warm=root.basis)
    assert starts == [True, False]
    assert_matches_highs(p, r, linprog)


def test_pivot_limit_retries_then_raises(tony_lp, monkeypatch):
    """A warm solve that reaches the pivot limit is retried from the slack
    basis, and a retry that reaches it too raises ``SolverLimit``."""
    root = sx.solve(tony_lp)
    p = tony_cut(tony_lp)
    init = sx._Worker.__init__

    def low_limit(self, p):
        init(self, p)
        self.limit = 0

    monkeypatch.setattr(sx._Worker, "__init__", low_limit)
    starts = record_starts(monkeypatch)
    with pytest.raises(SolverLimit, match="simplex exceeded 0 pivots"):
        sx.solve(p, warm=root.basis)
    assert starts == [(True, False), (False, False)]


def test_warm_start_not_dual_feasible_never_pivots(tony_lp, linprog,
                                                  monkeypatch):
    root = sx.solve(tony_lp)
    p = tony_cut(tony_lp)
    starts = record_starts(monkeypatch)
    runs = certificates(monkeypatch, [False])
    r = sx.solve(p, warm=root.basis)
    assert starts == [(True, False), (False, True)]
    assert len(runs) == 1  # only the retry from the slack basis ran
    assert_matches_highs(p, r, linprog)


def test_failed_slack_certificate_raises(tony_lp, monkeypatch):
    root = sx.solve(tony_lp)
    certificates(monkeypatch, itertools.repeat(False))
    with pytest.raises(SolverLimit, match="optimum not certified"):
        sx.solve(tony_lp)
    # a warm start that fails its certificate fails from the slack basis too
    with pytest.raises(SolverLimit, match="optimum not certified"):
        sx.solve(tony_cut(tony_lp), warm=root.basis)


def test_warm_start_under_flipped_costs_is_not_dual_feasible(tony_lp, linprog):
    """The real start check, not a patched one: negating every cost turns
    the parent's optimal basis dual infeasible, so the warm start is refused
    before any pivot and the slack-basis solve answers."""
    root = sx.solve(tony_lp)
    flipped = with_costs(tony_lp, -tony_lp.layout.c)
    assert sx._solve_from(flipped, root.basis) is None
    assert_matches_highs(flipped, sx.solve(flipped, warm=root.basis), linprog)

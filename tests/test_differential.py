"""k-th-cost differential against a MILP solver, past brute-force reach.

For each emitted rank k, HiGHS (``scipy.optimize.milp``) solves the same 0-1
program with ranks 1..k-1 excluded by rows built here, over the system's
determining scope.  Its optimum must equal the k-th emitted cost; every
emitted point must satisfy the system, and no point may repeat.
"""

import numpy as np
import pytest

from abduce import search
from abduce.constraints import (
    add_permissibility_constraints,
    apply_evidence,
    encode_bayesnet,
    encode_waodag,
    satisfies,
)
from abduce.generate import random_bayesnet, random_evidence, random_waodag

K = 5


@pytest.fixture(scope="module")
def opt():
    return pytest.importorskip("scipy.optimize")


def kth_costs(system, costs_of, scope, points, opt):
    """MILP optimum of ``system`` with ``costs_of``'s objective once each
    prefix of ``points`` is excluded over ``scope``: one value per point."""
    names = list(system.variables)
    col = {x: j for j, x in enumerate(names)}
    A = np.zeros((len(system.constraints), len(names)))
    lo = np.full(len(system.constraints), -np.inf)
    hi = np.full(len(system.constraints), np.inf)
    for i, row in enumerate(system.constraints):
        for coeff, x in row.terms:
            A[i, col[x]] += coeff
        if row.relation in ("<=", "="):
            hi[i] = row.rhs
        if row.relation in (">=", "="):
            lo[i] = row.rhs
    c = np.array([costs_of.psi_true[x] - costs_of.psi_false[x] for x in names])
    c0 = sum(costs_of.psi_false[x] for x in names)
    # excluding s over the scope: sum_{on} x - sum_{off} x <= |on| - 1
    cuts = np.zeros((len(points), len(names)))
    cut_hi = np.zeros(len(points))
    for r, s in enumerate(points):
        for x in scope:
            cuts[r, col[x]] = 1.0 if s[x] else -1.0
        cut_hi[r] = sum(s[x] for x in scope) - 1
    out = []
    for k in range(len(points)):
        rows = [opt.LinearConstraint(A, lo, hi)]
        if k:
            rows.append(opt.LinearConstraint(cuts[:k], -np.inf, cut_hi[:k]))
        res = opt.milp(c, constraints=rows, integrality=np.ones(len(names)),
                   bounds=opt.Bounds(0, 1), options={"mip_rel_gap": 0})
        assert res.status == 0, res.message
        out.append(res.fun + c0)
    return out


def check_stream(ranked, system, costs_of, scope, opt):
    points = [r.assignment for r in ranked]
    assert len(points) == K
    for s in points:
        assert satisfies(costs_of, s, tol=1e-6)
    keys = {tuple(s[x] for x in scope) for s in points}
    assert len(keys) == len(points)
    expected = kth_costs(system, costs_of, scope, points, opt)
    for r, want in zip(ranked, expected):
        assert r.cost == pytest.approx(want, abs=1e-6), r.rank


@pytest.mark.parametrize("seed", range(3))
def test_all_mode_kth_costs_match_milp(seed, opt):
    enc = encode_waodag(random_waodag(seed, 30, 90))
    ranked = search.enumerate_best(enc.system, K)
    check_stream(ranked, enc.system, enc.system, enc.system.scope, opt)


@pytest.mark.parametrize("seed,size", [(0, 14), (1, 15), (2, 16)])
def test_permissible_mode_kth_costs_match_milp(seed, size, opt):
    net = random_bayesnet(seed, size, 3)
    enc = apply_evidence(encode_bayesnet(net), random_evidence(seed, net))
    ranked = search.enumerate_permissible(enc, K)
    # the permissible points are those of the strict system
    strict = add_permissibility_constraints(enc).system
    check_stream(ranked, strict, enc.system, enc.system.scope, opt)

"""k-th-cost differential against a MILP solver, past brute-force reach.

For each emitted rank k, HiGHS (``scipy.optimize.milp``) solves the same 0-1
program with ranks 1..k-1 excluded by rows built here, over the system's
determining scope: exclusion rows for ALL and permissible mode, superset
rows for cardinal mode.  Its optimum must equal the k-th emitted cost; every
emitted point must satisfy the system, and no point may repeat.  A stream
that stops short of k must stop where the MILP with every emitted row is
infeasible.
"""

import numpy as np
import pytest

from abduce import search
from abduce import waodag as wd
from abduce.constraints import (
    apply_evidence,
    encode_bayesnet,
    encode_waodag,
    satisfies,
)
from abduce.generate import random_bayesnet, random_evidence, random_waodag

from util import is_strict, solution_to_truth

K = 5


@pytest.fixture(scope="module")
def opt():
    return pytest.importorskip("scipy.optimize")


def exclusion_row(s, scope):
    """sum_{on} x - sum_{off} x <= |on| - 1: excludes s over ``scope``."""
    return ({x: 1.0 if s[x] else -1.0 for x in scope},
            sum(s[x] for x in scope) - 1)


def superset_row(s, scope):
    """sum_{on} x <= |on| - 1: excludes every point whose true ``scope``
    variables include those of s."""
    on = [x for x in scope if s[x]]
    return {x: 1.0 for x in on}, len(on) - 1


def kth_costs(system, costs_of, scope, points, opt, row, prefixes):
    """MILP optimum of ``system`` with ``costs_of``'s objective once the
    first k of ``points`` are excluded by ``row`` over ``scope``, for each k
    below ``prefixes``: None where the MILP is infeasible."""
    names = list(system.variables)
    col = {x: j for j, x in enumerate(names)}
    A = np.zeros((len(system.constraints), len(names)))
    lo = np.full(len(system.constraints), -np.inf)
    hi = np.full(len(system.constraints), np.inf)
    for i, r in enumerate(system.constraints):
        for coeff, x in r.terms:
            A[i, col[x]] += coeff
        if r.relation in ("<=", "="):
            hi[i] = r.rhs
        if r.relation in (">=", "="):
            lo[i] = r.rhs
    c = np.array([costs_of.psi_true[x] - costs_of.psi_false[x] for x in names])
    c0 = sum(costs_of.psi_false[x] for x in names)
    cuts = np.zeros((len(points), len(names)))
    cut_hi = np.zeros(len(points))
    for r, s in enumerate(points):
        coeffs, cut_hi[r] = row(s, scope)
        for x, coeff in coeffs.items():
            cuts[r, col[x]] = coeff
    out = []
    for k in range(prefixes):
        rows = [opt.LinearConstraint(A, lo, hi)]
        if k:
            rows.append(opt.LinearConstraint(cuts[:k], -np.inf, cut_hi[:k]))
        res = opt.milp(c, constraints=rows, integrality=np.ones(len(names)),
                       bounds=opt.Bounds(0, 1), options={"mip_rel_gap": 0})
        assert res.status in (0, 2), res.message
        out.append(res.fun + c0 if res.status == 0 else None)
    return out


def check_stream(ranked, system, costs_of, scope, opt, row=exclusion_row):
    points = [r.assignment for r in ranked]
    assert points
    for s in points:
        assert satisfies(costs_of, s)
    keys = {tuple(s[x] for x in scope) for s in points}
    assert len(keys) == len(points)
    # a short stream also needs the MILP with every emitted row
    short = len(points) < K
    expected = kth_costs(system, costs_of, scope, points, opt, row,
                         len(points) + short)
    for r, want in zip(ranked, expected):
        assert want is not None, r.rank
        assert r.cost == pytest.approx(want, abs=1e-6), r.rank
    if short:
        assert expected[-1] is None


@pytest.mark.parametrize("seed", range(3))
def test_all_mode_kth_costs_match_milp(seed, opt):
    enc = encode_waodag(random_waodag(seed, 30, 90))
    ranked = search.enumerate_best(enc.system, K)
    assert len(ranked) == K
    check_stream(ranked, enc.system, enc.system, enc.system.scope, opt)


@pytest.mark.parametrize("seed,size", [(0, 14), (1, 15), (2, 16)])
def test_permissible_mode_kth_costs_match_milp(seed, size, opt):
    net = random_bayesnet(seed, size, 3)
    enc = apply_evidence(encode_bayesnet(net), random_evidence(seed, net))
    ranked = search.enumerate_permissible(enc, K)
    assert len(ranked) == K
    # the encoding's own rows admit only permissible points
    check_stream(ranked, enc.system, enc.system, enc.system.scope, opt)


@pytest.mark.parametrize("seed", range(8))
def test_cardinal_mode_kth_costs_match_milp(seed, opt):
    # strictly monotonic graphs: the search runs on the costs it reports
    w = random_waodag(seed, 30, 90, strict=True)
    assert is_strict(w)
    enc = encode_waodag(w)
    ranked = search.enumerate_cardinal(enc, K)
    check_stream(ranked, enc.system, enc.system, enc.system.scope, opt,
                 superset_row)
    for r in ranked:
        assert wd.is_cardinal(w, solution_to_truth(enc, r.assignment))

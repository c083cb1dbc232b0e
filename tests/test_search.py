"""The region search, exclusion/cardinal cuts, and the three enumeration modes."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abduce import bayes as bn
from abduce import constraints
from abduce import search
from abduce import simplex as sx
from abduce import waodag as wd
from abduce.constraints import (
    ConstraintSystem,
    LinearConstraint,
    apply_evidence,
    encode_bayesnet,
    encode_waodag,
    objective,
    satisfies,
    truth_to_solution,
)
from abduce.errors import InvariantViolation, ModelError, SolverLimit
from abduce.generate import random_bayesnet, random_evidence, random_waodag

from util import (
    all_01_points,
    assert_streams_match,
    cut_loop,
    exclusion_cut,
    group_stream,
    holds,
    inst_key,
    scaled_graph,
    solution_to_truth,
    strict_graph,
    three_var_network,
    tony_graph,
    truth_key,
)

T, F = "true", "false"


def waodag_stream(ranked, enc):
    return [(truth_key(solution_to_truth(enc, r.assignment)), r.cost)
            for r in ranked]


def oracle_stream(w):
    return [(truth_key(e), c)
            for e, c in wd.enumerate_explanations_oracle(w)]


# --- cuts ---------------------------------------------------------------------

def _random_graph_system(seed, essential):
    w = random_waodag(seed, n_hypotheses=3 + seed, n_internal=5 + seed)
    return encode_waodag(w if essential else
                         replace(w, evidence=frozenset())).system


# systems small enough for all_01_points, keyed by test id
SCOPE_SYSTEMS = {
    "tony": lambda: encode_waodag(tony_graph()).system,
    **{f"waodag-{seed}-{'essential' if ess else 'free'}":
       (lambda seed=seed, ess=ess: _random_graph_system(seed, ess))
       for seed in range(3) for ess in (True, False)},
    "fig41": lambda: encode_bayesnet(three_var_network()).system,
    "fig41-evidence": lambda: apply_evidence(
        encode_bayesnet(three_var_network()), {"C": T}).system,
}


class TestExclusionCut:
    def test_mixed_pattern(self):
        cut = exclusion_cut({"x1": 1, "x2": 0, "x3": 1}, ("x1", "x2", "x3"))
        assert cut.terms == ((1.0, "x1"), (-1.0, "x2"), (1.0, "x3"))
        assert cut.relation == "<="
        assert cut.rhs == 1.0

    def test_singleton_scope(self):
        cut = exclusion_cut({"x1": 1}, ("x1",))
        assert cut.terms == ((1.0, "x1"),)
        assert cut.rhs == 0.0

    def test_nothing_left_is_the_infeasible_row(self, tony):
        # an empty scope, or no true hypothesis under the cardinal cut,
        # leaves 0 <= -1, and the LP with that row is infeasible
        system = encode_waodag(tony).system
        none = {x: 0 for x in system.variables}
        for cut in (exclusion_cut({}, ()),
                    exclusion_cut(none, ()),
                    search.cardinal_cut(none, system.scope),
                    search.cardinal_cut({}, ())):
            assert (cut.terms, cut.relation, cut.rhs) == ((), "<=", -1.0)
            res = sx.solve(sx.add_row(sx.relax(system), cut))
            assert res.status == sx.INFEASIBLE

    @pytest.mark.parametrize("name", SCOPE_SYSTEMS)
    def test_removes_exactly_one_point(self, name):
        system = SCOPE_SYSTEMS[name]()
        before = all_01_points(system)
        # the scope pattern tells every 0-1 point apart ...
        patterns = {tuple(s[x] for x in system.scope) for s in before}
        assert len(patterns) == len(before)
        # ... so a cut over the scope alone removes just its own point
        for target in (before[0], before[-1]):
            cut = exclusion_cut(target, system.scope)
            after = all_01_points(system.extended([cut]))
            assert len(before) - len(after) == 1
            assert target in before and target not in after

    def test_sound_over_random_patterns(self):
        import random
        rng = random.Random(7)
        names = tuple(f"x{j}" for j in range(8))
        for _ in range(20):
            s = {x: rng.randint(0, 1) for x in names}
            cut = exclusion_cut(s, names)
            assert not holds(cut, s)
            for _ in range(30):
                other = {x: rng.randint(0, 1) for x in names}
                if other != s:
                    assert holds(cut, other)


class TestCardinalCut:
    def test_singleton_base(self, tony):
        enc = encode_waodag(tony)
        s = truth_to_solution(enc, wd.propagate(tony, {"Tony-out"}))
        cut = search.cardinal_cut(s, enc.system.scope)
        assert cut.terms == ((1.0, "Tony-out"),)
        assert cut.rhs == 0.0

    def test_pair_base(self, tony):
        enc = encode_waodag(tony)
        s = truth_to_solution(
            enc, wd.propagate(tony, {"Tony-in", "Tony-sleeping"}))
        cut = search.cardinal_cut(s, enc.system.scope)
        assert set(cut.terms) == {(1.0, "Tony-in"), (1.0, "Tony-sleeping")}
        assert cut.rhs == 1.0

    def test_full_base(self, tony):
        enc = encode_waodag(tony)
        s = truth_to_solution(
            enc, wd.propagate(tony, set(tony.hypotheses)))
        cut = search.cardinal_cut(s, enc.system.scope)
        assert len(cut.terms) == 3
        assert cut.rhs == 2.0

    def test_excludes_supersets(self, tony):
        enc = encode_waodag(tony)
        s = truth_to_solution(enc, wd.propagate(tony, {"Tony-out"}))
        cut = search.cardinal_cut(s, enc.system.scope)
        superset = truth_to_solution(
            enc, wd.propagate(tony, {"Tony-out", "Tony-in"}))
        disjoint = truth_to_solution(
            enc, wd.propagate(tony, {"Tony-in", "Tony-sleeping"}))
        assert not holds(cut, s)
        assert not holds(cut, superset)
        assert holds(cut, disjoint)


# --- optimal solve ------------------------------------------------------------

class TestSolveOptimal:
    def test_tony(self, tony):
        enc = encode_waodag(tony)
        best = search.solve_optimal(enc.system)
        assert best.rank == 1
        assert best.cost == pytest.approx(8, abs=1e-9)
        e = solution_to_truth(enc, best.assignment)
        assert truth_key(e) == {"Tony-out", "phone-noanswer"}

    def test_infeasible_returns_none(self):
        system = ConstraintSystem(
            ("x",),
            (LinearConstraint(((1.0, "x"),), ">=", 1.0),
             LinearConstraint(((1.0, "x"),), "<=", 0.0)),
            {"x": 1.0}, {"x": 0.0})
        assert search.solve_optimal(system) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle_minimum(self, seed):
        w = random_waodag(seed, n_hypotheses=3 + seed % 4,
                          n_internal=4 + seed % 5)
        enc = encode_waodag(w)
        best = search.solve_optimal(enc.system)
        oracle = wd.enumerate_explanations_oracle(w)
        if not oracle:
            assert best is None
            return
        assert best.cost == pytest.approx(oracle[0][1], abs=1e-6)
        assert satisfies(enc.system, best.assignment)

    def test_node_limit(self, tony, monkeypatch):
        enc = encode_waodag(strict_graph(tony, 0.5))
        # cutting the root's integral optimum leaves a fractional LP optimum
        cut = exclusion_cut(
            truth_to_solution(enc, wd.propagate(tony, {"Tony-out"})),
            enc.system.variables)
        monkeypatch.setattr(search, "NODE_LIMIT", 0)
        with pytest.raises(SolverLimit,
                           match="region search exceeded 0 LP solves"):
            search.solve_optimal(enc.system.extended([cut]))


# --- full enumeration ---------------------------------------------------------

class TestEnumerateBest:
    def test_tony_all(self, tony):
        enc = encode_waodag(tony)
        ranked = search.enumerate_best(enc.system, search.ALL)
        assert [r.cost for r in ranked] == pytest.approx([8, 9, 12, 13, 17])
        assert [r.rank for r in ranked] == [1, 2, 3, 4, 5]
        assert_streams_match(waodag_stream(ranked, enc), oracle_stream(tony),
                             1e-6)

    def test_k_one_equals_solve_optimal(self, tony):
        enc = encode_waodag(tony)
        only = search.enumerate_best(enc.system, 1)
        best = search.solve_optimal(enc.system)
        assert len(only) == 1
        assert only[0].assignment == best.assignment
        assert only[0].cost == best.cost

    def test_k_truncates(self, tony):
        enc = encode_waodag(tony)
        assert [r.cost for r in search.enumerate_best(enc.system, 3)] == \
            pytest.approx([8, 9, 12])

    def test_every_solution_satisfies_original(self, tony):
        enc = encode_waodag(tony)
        for r in search.enumerate_best(enc.system, search.ALL):
            assert satisfies(enc.system, r.assignment)
            assert r.cost == pytest.approx(
                objective(enc.system, r.assignment), abs=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_oracle_stream(self, seed):
        w = random_waodag(seed, n_hypotheses=3 + seed % 3,
                          n_internal=4 + seed % 4)
        enc = encode_waodag(w)
        ranked = search.enumerate_best(enc.system, search.ALL)
        assert_streams_match(waodag_stream(ranked, enc), oracle_stream(w),
                             1e-6)

    def test_empty_scope_means_every_variable(self):
        names = ("a", "b", "c", "d")
        system = ConstraintSystem(
            names,
            (LinearConstraint(((1.0, "a"), (1.0, "b")), ">=", 1.0),
             LinearConstraint(((1.0, "c"), (-1.0, "d")), "<=", 0.0)),
            {"a": 3.0, "b": 1.0, "c": -2.0, "d": 0.5},
            {"a": 0.0, "b": 0.5, "c": 0.0, "d": 1.0})
        assert system.determining == ()
        assert system.scope == names
        ranked = search.enumerate_best(system, search.ALL)
        got = [(tuple(r.assignment[x] for x in names), r.cost)
               for r in ranked]
        want = sorted(((tuple(s[x] for x in names), objective(system, s))
                       for s in all_01_points(system)), key=lambda t: t[1])
        assert_streams_match(got, want, 1e-9)


# --- cardinal enumeration -----------------------------------------------------

def oracle_cardinal_stream(w):
    out = []
    for e, c in wd.enumerate_explanations_oracle(w):
        if wd.is_cardinal(w, e):
            base, _ = wd.base_and_support(w, e)
            out.append((frozenset(base), c))
    return out


def free_hypotheses(w, seed):
    """``w`` with about two in five hypotheses, drawn from ``seed``, made
    to cost nothing."""
    rng = random.Random(seed)
    cost_true = {q: 0.0 if q in w.hypotheses and rng.random() < 0.4 else c
                 for q, c in w.cost_true.items()}
    return wd.Waodag.build(w.nodes, w.edges, w.label, cost_true, w.cost_false,
                           w.evidence)


def free_rider_graph():
    """Evidence e = a AND (z OR a) AND (z OR (z OR a)), a costs 1 and z
    nothing: the only cardinal explanation is {a}, and branch and bound's
    optimum is {a, z}."""
    return wd.Waodag.build(
        ["a", "z", "n0", "n1", "e"],
        [("z", "n0"), ("a", "n0"), ("z", "n1"), ("n0", "n1"),
         ("n0", "e"), ("a", "e"), ("n1", "e")],
        {"n0": wd.OR, "n1": wd.OR, "e": wd.AND}, {"a": 1.0},
        evidence=["e"])


def cardinal_stream(ranked, enc):
    out = []
    for r in ranked:
        e = solution_to_truth(enc, r.assignment)
        base, _ = wd.base_and_support(enc.waodag, e)
        out.append((frozenset(base), r.cost))
    return out


class TestEnumerateCardinal:
    def test_tony_two_solutions(self, tony):
        enc = encode_waodag(tony)
        ranked = search.enumerate_cardinal(enc, search.ALL)
        got = cardinal_stream(ranked, enc)
        assert got == [(frozenset({"Tony-out"}), 8),
                       (frozenset({"Tony-in", "Tony-sleeping"}), 9)]

    def test_costs_are_original_not_perturbed(self, tony):
        enc = encode_waodag(tony)
        ranked = search.enumerate_cardinal(enc, search.ALL)
        assert len(ranked) == 2
        for r in ranked:
            assert r.cost == objective(enc.system, r.assignment)

    def test_searches_without_encoding_again(self, tony, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return encode_waodag(*args, **kwargs)

        enc = encode_waodag(tony)
        monkeypatch.setattr(constraints, "encode_waodag", counted)
        # also caught if search imported the name at module level
        monkeypatch.setattr(search, "encode_waodag", counted, raising=False)
        ranked = search.enumerate_cardinal(enc, search.ALL)
        assert len(ranked) == 2
        assert calls == []

    def test_empty_base_set_terminates(self, tony):
        free = wd.Waodag.build(tony.nodes, tony.edges, tony.label,
                               tony.cost_true, tony.cost_false, ())
        strict = strict_graph(free, 0.001)
        ranked = search.enumerate_cardinal(encode_waodag(strict), search.ALL)
        assert len(ranked) == 1
        assert ranked[0].cost == pytest.approx(0, abs=1e-6)

    def test_refuses_unknown_monotonicity(self, tony):
        cost_false = dict(tony.cost_false)
        cost_false["Tony-out"] = 10.0  # negative gap
        w = wd.Waodag.build(tony.nodes, tony.edges, tony.label,
                            tony.cost_true, cost_false, tony.evidence)
        with pytest.raises(ModelError, match="cost gap is negative"):
            search.enumerate_cardinal(encode_waodag(w), search.ALL)

    def test_zero_gap_extra_hypothesis(self, tony):
        w = wd.Waodag.build(
            tony.nodes + ("Tony-awake",),
            tony.edges + (("Tony-awake", "phone-noanswer"),),
            dict(tony.label), dict(tony.cost_true), dict(tony.cost_false),
            tony.evidence)
        ranked = search.enumerate_cardinal(encode_waodag(w), search.ALL)
        got = cardinal_stream(ranked, encode_waodag(w))
        assert got[0] == (frozenset({"Tony-awake"}), 0)
        assert_streams_match(got, oracle_cardinal_stream(w), 1e-6)

    def test_shrinks_a_free_hypothesis_out_of_the_optimum(self, monkeypatch):
        """Branch and bound's optimum here holds the free ``z``, which no
        evidence needs: the reported point drops it and is priced again."""
        w = free_rider_graph()
        enc = encode_waodag(w)
        points = []
        regions = search._regions

        def spied(p, root):
            for found in regions(p, root):
                points.append(found[0])
                yield found

        monkeypatch.setattr(search, "_regions", spied)
        prices = _count_calls(monkeypatch, "objective", objective)
        ranked = search.enumerate_cardinal(enc, search.ALL)
        assert points[0]["z"] == 1
        assert cardinal_stream(ranked, enc) == [(frozenset({"a"}), 1.0)]
        assert ranked[0].cost == objective(enc.system, ranked[0].assignment)
        assert len(prices) == 2  # branch and bound's, then the shrunk point's
        assert wd.is_cardinal(w, solution_to_truth(enc, ranked[0].assignment))

    def test_each_cut_is_of_the_point_just_reported(self, monkeypatch):
        """Each cardinal cut is built from the assignment of the rank just
        reported, one cut per rank in rank order.  Here three ranks are
        shrunk points: the region search's optimum held a free hypothesis
        that no evidence needs, and the cut is of the shrunk point."""
        enc = encode_waodag(free_hypotheses(random_waodag(7, 8, 25), 7))
        found, cuts = [], []
        regions, cut = search._regions, search.cardinal_cut

        def spied(p, root):
            for point in regions(p, root):
                found.append(point[0])
                yield point

        def recorded(s, scope):
            cuts.append(s)
            return cut(s, scope)

        monkeypatch.setattr(search, "_regions", spied)
        monkeypatch.setattr(search, "cardinal_cut", recorded)
        ranked = search.enumerate_cardinal(enc, search.ALL)
        assert cuts == [r.assignment for r in ranked]
        assert sum(f != c for f, c in zip(found, cuts)) == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_zero_cost_hypotheses(self, seed):
        """Free hypotheses make ties that branch and bound may resolve to a
        point that is not cardinal; every reported point is cardinal and the
        stream is the oracle's."""
        w = free_hypotheses(random_waodag(seed, 8, 25), seed)
        enc = encode_waodag(w)
        ranked = search.enumerate_cardinal(enc, search.ALL)
        assert_streams_match(cardinal_stream(ranked, enc),
                             oracle_cardinal_stream(w), 1e-6)
        for r in ranked:
            assert wd.is_cardinal(w, solution_to_truth(enc, r.assignment))

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_oracle_and_antichain(self, seed):
        w = random_waodag(seed, n_hypotheses=3 + seed % 3,
                          n_internal=4 + seed % 4, strict=bool(seed % 2))
        enc = encode_waodag(w)
        ranked = search.enumerate_cardinal(enc, search.ALL)
        got = cardinal_stream(ranked, enc)
        assert_streams_match(got, oracle_cardinal_stream(w), 1e-6)
        bases = [b for b, _ in got]
        for i, b1 in enumerate(bases):
            for b2 in bases[i + 1:]:
                assert not (b1 <= b2 or b2 <= b1)


# --- permissible enumeration --------------------------------------------------

def permissible_stream(ranked):
    return [(inst_key(r.instantiation), r.probability) for r in ranked]


def mpe_stream(net, e):
    return [(inst_key(w), p) for w, p in bn.enumerate_mpe_oracle(net, e)]


class TestEnumeratePermissible:
    def test_three_var_k4(self, fig):
        enc = apply_evidence(encode_bayesnet(fig), {"C": T})
        ranked = search.enumerate_permissible(enc, 4)
        assert [r.probability for r in ranked] == pytest.approx(
            [0.294, 0.162, 0.048, 0.028], abs=1e-9)
        assert ranked[0].instantiation == {"A": T, "B": F, "C": T}
        assert ranked[0].cost == pytest.approx(-math.log(0.294),
                                               abs=1e-9)

    def test_full_evidence_single_solution(self, fig):
        e = {"A": T, "B": F, "C": T}
        enc = apply_evidence(encode_bayesnet(fig), e)
        ranked = search.enumerate_permissible(enc, search.ALL)
        assert len(ranked) == 1
        assert ranked[0].instantiation == e
        assert ranked[0].probability == pytest.approx(0.294, abs=1e-12)

    def test_stream_length_counts_consistent_sets(self, fig):
        enc = apply_evidence(encode_bayesnet(fig), {"B": F})
        ranked = search.enumerate_permissible(enc, search.ALL)
        assert len(ranked) == 4

    def test_argmax_agrees_with_oracle(self, fig):
        for e in ({}, {"C": T}, {"A": F}, {"B": T, "C": F}):
            enc = apply_evidence(encode_bayesnet(fig), e)
            top = search.enumerate_permissible(enc, 1)[0]
            best = bn.enumerate_mpe_oracle(fig, e)[0]
            assert top.probability == pytest.approx(best[1], abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_mpe_oracle(self, seed):
        net = random_bayesnet(seed, n_variables=3 + seed % 3)
        e = random_evidence(seed + 1000, net)
        enc = apply_evidence(encode_bayesnet(net), e)
        ranked = search.enumerate_permissible(enc, search.ALL)
        assert_streams_match(permissible_stream(ranked), mpe_stream(net, e),
                             1e-9)
        probs = [r.probability for r in ranked]
        assert probs == sorted(probs, reverse=True)


@st.composite
def networks_with_evidence(draw):
    """Random networks with ranges of 2 or 3 values and 0-3 evidence items."""
    net = random_bayesnet(draw(st.integers(0, 2**32 - 1)),
                          n_variables=draw(st.integers(1, 5)),
                          max_range=draw(st.integers(2, 3)))
    e = random_evidence(draw(st.integers(0, 2**32 - 1)), net,
                        draw(st.integers(0, 3)))
    return net, e


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(networks_with_evidence())
def test_permissible_stream_matches_mpe_oracle(case):
    """Splitting over whole network variables, with the evidence pinned by
    bounds, still emits every instantiation consistent with the evidence
    once, in probability order."""
    net, e = case
    enc = apply_evidence(encode_bayesnet(net), e)
    ranked = search.enumerate_permissible(enc, search.ALL)
    assert_streams_match(permissible_stream(ranked), mpe_stream(net, e), 1e-9)


@st.composite
def extreme_networks_with_evidence(draw):
    """Networks of 1-5 variables with CPT entries in {0} and [1e-60, 1]:
    ``random_bayesnet``'s margin=0 draws, or rows of log-uniform tiny entries
    and zeros that one large entry tops up to 1.  No positive product of 5
    entries underflows."""
    net = random_bayesnet(draw(st.integers(0, 2**32 - 1)),
                          n_variables=draw(st.integers(1, 5)),
                          max_range=draw(st.integers(2, 3)), margin=0.0)
    if draw(st.booleans()):
        small = st.just(0.0) | st.floats(-60.0, -0.5).map(lambda t: 10.0 ** t)
        cpt = {}
        for v in net.variables:
            for config in net.parent_configs(v):
                probs = [draw(small) for _ in net.ranges[v]]
                top = draw(st.integers(0, len(probs) - 1))
                probs[top] = 1.0 - (sum(probs) - probs[top])
                cpt.update(((v, a, tuple(config)), p)
                           for a, p in zip(net.ranges[v], probs))
        net = bn.BayesianNetwork(net.variables, net.ranges, net.parents, cpt)
    e = {v: draw(st.sampled_from(net.ranges[v]))
         for v in net.variables if draw(st.booleans())}
    return net, e


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(extreme_networks_with_evidence())
def test_permissible_stream_prices_extreme_entries_exactly(case):
    """Every positive entry costs exactly -ln p and a zero entry more than
    any positive instantiation, so the stream is the oracle's, tie group by
    tie group (probabilities equal to 1e-9 relative), each positive rank
    costs -ln P, and every rank of probability 0 comes last."""
    net, e = case
    enc = apply_evidence(encode_bayesnet(net), e)
    ranked = search.enumerate_permissible(enc, search.ALL)
    want = bn.enumerate_mpe_oracle(net, e)
    assert len(ranked) == len(want)
    start = 0
    for stop in range(1, len(want) + 1):
        p = want[start][1]
        if stop < len(want) and math.isclose(want[stop][1], p, rel_tol=1e-9):
            continue
        group = ranked[start:stop]
        assert {inst_key(r.instantiation) for r in group} == \
            {inst_key(w) for w, _ in want[start:stop]}
        assert all(math.isclose(r.probability, p, rel_tol=1e-9)
                   for r in group)
        start = stop
    for r in ranked:
        if r.probability > 0.0:
            # P near 1 rounds to within an ulp of 1: its cost is near 0
            assert math.isclose(r.cost, -math.log(r.probability),
                                rel_tol=1e-9, abs_tol=1e-12)
    positive = [r.probability > 0.0 for r in ranked]
    assert positive == sorted(positive, reverse=True)


def test_permissible_lp_solves_per_rank(monkeypatch):
    """A split excludes one network variable's value, no split undoes
    evidence, and a variable with no value left gets no child, so few child
    regions are infeasible: at most 5 LP solves per rank on these networks,
    and at most 1 in 20 infeasible (9.3 and 63% when splits flipped single
    indicators)."""
    solve = sx.solve
    calls = []

    def counted(p, warm=None):
        r = solve(p, warm)
        calls.append(r.status)
        return r

    monkeypatch.setattr(sx, "solve", counted)
    ranks = 0
    for seed in range(20):
        net = random_bayesnet(seed, 10, 2)
        enc = apply_evidence(encode_bayesnet(net),
                             random_evidence(seed, net, 2))
        ranks += len(search.enumerate_permissible(enc, 8))
    assert ranks == 160
    assert len(calls) <= 5 * ranks
    assert 20 * calls.count(sx.INFEASIBLE) <= len(calls)


def test_root_pins_one_variable_equality_rows(fig):
    """Evidence rows fix their indicators by bounds in the search's root;
    ``relax`` alone leaves every column in [0, 1]."""
    system = apply_evidence(encode_bayesnet(fig), {"C": T}).system
    p = search._root(system)
    pinned = system.index["C=true"]
    assert p.lower[pinned] == p.upper[pinned] == 1.0
    rest = [j for j in range(len(system.variables)) if j != pinned]
    assert (p.lower[rest] == 0.0).all() and (p.upper[rest] == 1.0).all()
    system = encode_waodag(tony_graph()).system
    p = search._root(system)
    pinned = system.index["phone-noanswer"]
    assert p.lower[pinned] == p.upper[pinned] == 1.0
    assert p.lower.sum() == 1.0 and p.upper.sum() == len(system.variables)


@pytest.mark.parametrize("rows", [
    (),
    (LinearConstraint(((1.0, "a"), (1.0, "b")), "<=", 1.0),),
    (LinearConstraint(((1.0, "a"), (1.0, "b")), ">=", 1.0),),
    (LinearConstraint(((1.0, "a"), (1.0, "b"), (1.0, "c")), "=", 1.0),),
], ids=["no-row", "at-most-one", "at-least-one", "row-over-more"])
def test_a_group_must_be_an_exactly_one_set(rows, monkeypatch):
    """A group of two variables that no row ``c a + c b = c`` backs is
    refused before any LP is solved, rather than split as if it held one
    value: with ``a + b >= 1`` alone the split dropped a = b = 1."""
    names = ("a", "b", "c")
    system = ConstraintSystem(names, rows, dict.fromkeys(names, 1.0),
                              dict.fromkeys(names, 0.0), (("a", "b"), ("c",)))
    solves = []
    monkeypatch.setattr(sx, "solve", lambda *args: solves.append(args))
    with pytest.raises(ModelError, match=r"group \('a', 'b'\) is not an "
                                         "exactly-one set"):
        search.enumerate_best(system, search.ALL)
    assert solves == []


def test_a_variable_nothing_fixes_is_refused(monkeypatch):
    """A variable in no group that no row mentions takes either value at
    every point, and the split fixes only the groups: here 2 of the 4 points
    came out.  It is refused before any LP is solved."""
    system = ConstraintSystem(("a", "b"), (), {"a": 1.0, "b": 2.0},
                              {"a": 0.0, "b": 0.0}, (("a",),))
    solves = []
    monkeypatch.setattr(sx, "solve", lambda *args: solves.append(args))
    with pytest.raises(ModelError, match="variable 'b' is in no determining "
                                         "group and no row"):
        search.enumerate_best(system, search.ALL)
    assert solves == []


def test_hand_built_groups_match_brute_force():
    """Singletons mixed with an exactly-one group of three, one backed by a
    scaled row, and a variable the groups fix: every point once, in cost
    order."""
    names = ("a", "b", "c", "d", "e", "f", "g", "h")
    rows = (
        LinearConstraint(((1.0, "a"), (1.0, "b"), (1.0, "c")), "=", 1.0),
        LinearConstraint(((2.0, "d"), (2.0, "e")), "=", 2.0),
        LinearConstraint(((1.0, "f"), (-1.0, "a"), (-1.0, "d")), "<=", 0.0),
        LinearConstraint(((1.0, "g"), (1.0, "b")), "<=", 1.0),
        # h = f AND g
        LinearConstraint(((1.0, "h"), (-1.0, "f"), (-1.0, "g")), ">=", -1.0),
        LinearConstraint(((1.0, "h"), (-1.0, "f")), "<=", 0.0),
        LinearConstraint(((1.0, "h"), (-1.0, "g")), "<=", 0.0),
    )
    system = ConstraintSystem(
        names, rows,
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 0.5, "e": 0.5, "f": -1.0,
         "g": 2.0, "h": -2.5},
        dict.fromkeys(names, 0.0),
        (("a", "b", "c"), ("f",), ("d", "e"), ("g",)))
    ranked = search.enumerate_best(system, search.ALL)
    got = [(tuple(r.assignment[x] for x in names), r.cost) for r in ranked]
    want = sorted(((tuple(s[x] for x in names), objective(system, s))
                   for s in all_01_points(system)), key=lambda t: t[1])
    assert len(want) == 17
    assert_streams_match(got, want, 1e-9)


# --- stream invariants --------------------------------------------------------

def test_cost_monotone_in_every_stream(tony, fig):
    enc = encode_waodag(tony)
    for ranked in (search.enumerate_best(enc.system, search.ALL),
                   search.enumerate_cardinal(enc, search.ALL),
                   search.enumerate_permissible(
                       apply_evidence(encode_bayesnet(fig), {"C": T}),
                       search.ALL)):
        costs = [r.cost for r in ranked]
        for a, b in zip(costs, costs[1:]):
            assert a <= b + 1e-9


def test_bound_audit_respects_subproblem_optimum(tony, monkeypatch):
    """Every LP that branch and bound solves lower-bounds the best 0-1 point
    inside its variable bounds, and an infeasible one has no 0-1 point."""
    enc = encode_waodag(tony)
    # a cut system keeps fractional LP optima, so branching actually happens
    first = truth_to_solution(enc, wd.propagate(tony, {"Tony-out"}))
    system = enc.system.extended(
        [exclusion_cut(first, enc.system.variables)])
    points = all_01_points(system)
    solve = sx.solve
    checked = []

    def audited(p, warm=None):
        r = solve(p, warm=warm)
        costs = [objective(system, s) for s in points
                 if all(p.lower[j] <= s[x] <= p.upper[j]
                        for j, x in enumerate(p.system.variables))]
        if r.status == sx.OPTIMAL:
            assert not costs or r.objective <= min(costs) + 1e-9
        else:
            assert not costs
        checked.append(r.status)
        return r

    monkeypatch.setattr(sx, "solve", audited)
    best = search.solve_optimal(system)
    assert best.cost == pytest.approx(9, abs=1e-9)
    assert len(checked) > 1  # the root and at least one branch


# --- work per rank ------------------------------------------------------------

def _rank_stream(mode, instance):
    """The search of ``mode`` (k=ALL) on tony/fig41 or a seeded model."""
    if mode == "permissible":
        if instance == "fig41":
            net, e = three_var_network(), {"C": T}
        else:
            net = random_bayesnet(instance, n_variables=4)
            e = random_evidence(instance + 1000, net)
        enc = apply_evidence(encode_bayesnet(net), e)
        return search.enumerate_permissible(enc, search.ALL)
    w = (tony_graph() if instance == "tony" else
         random_waodag(instance, n_hypotheses=4 + instance,
                       n_internal=6 + instance))
    enc = encode_waodag(w)
    if mode == "optimum":
        return [search.solve_optimal(enc.system)]
    if mode == "best":
        return search.enumerate_best(enc.system, search.ALL)
    return search.enumerate_cardinal(enc, search.ALL)


def _count_calls(monkeypatch, name, fn):
    """Count the calls the search makes to its ``name``, which is ``fn``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(search, name, counted)
    return calls


@pytest.mark.parametrize("mode, instance", [
    *((m, i) for m in ("optimum", "best", "cardinal")
      for i in ("tony", 0, 1, 2)),
    *(("permissible", i) for i in ("fig41", 0, 1, 2)),
])
def test_one_point_check_per_rank(mode, instance, monkeypatch):
    """Branch and bound checks and prices one point per emitted rank: the
    first integral node it pops, which is the optimum.  Every mode searches
    the encoding as it is and cut rows carry no cost, so every mode reports
    that price.  Cardinal mode prices a point again only when it shrinks it,
    which needs a free hypothesis; these instances have none."""
    checks = _count_calls(monkeypatch, "satisfies", satisfies)
    prices = _count_calls(monkeypatch, "objective", objective)
    ranked = _rank_stream(mode, instance)
    assert ranked[0] is not None
    assert len(checks) == len(ranked)
    assert len(prices) == len(ranked)


def test_cut_loop_stops_at_k(tony, fig, monkeypatch):
    """ALL and permissible mode split regions and add no row; cardinal mode
    adds one cut row per rank before the k-th.  A k of 0 or less takes no
    rank."""
    add_row = sx.add_row
    calls = []

    def counted(p, row):
        calls.append(row)
        return add_row(p, row)

    monkeypatch.setattr(sx, "add_row", counted)
    enc = encode_waodag(tony)
    for k, rows, run in (
            (3, 0, lambda: search.enumerate_best(enc.system, 3)),
            (2, 1, lambda: search.enumerate_cardinal(enc, 2)),
            (4, 0, lambda: search.enumerate_permissible(
                apply_evidence(encode_bayesnet(fig), {"C": T}), 4))):
        calls.clear()
        assert len(run()) == k
        assert len(calls) == rows
    for k in (0, -2):
        assert search.enumerate_best(enc.system, k) == []
        assert search.enumerate_cardinal(enc, k) == []
        assert search.enumerate_permissible(encode_bayesnet(fig), k) == []


# --- region search against the exclusion-cut loop -----------------------------

def point_stream(pairs, scope):
    return [(tuple(s[x] for x in scope), cost) for s, cost in pairs]


def assert_matches_cut_loop(ranked, system, k):
    assert_streams_match(
        point_stream(((r.assignment, r.cost) for r in ranked), system.scope),
        point_stream(cut_loop(system, k), system.scope), 1e-9,
        truncated=k != search.ALL)


@pytest.mark.parametrize("seed", range(6))
def test_region_search_matches_cut_loop_all_mode(seed):
    enc = encode_waodag(random_waodag(seed, 8, 25))
    assert_matches_cut_loop(search.enumerate_best(enc.system, 8), enc.system, 8)
    # k=all: the cut loop's 2^8-row systems are slow, so a smaller graph
    small = encode_waodag(random_waodag(seed, 6, 14)).system
    assert_matches_cut_loop(search.enumerate_best(small, search.ALL), small,
                            search.ALL)
    # every explanation once: the oracle's length
    assert len(search.enumerate_best(enc.system, search.ALL)) == \
        len(wd.enumerate_explanations_oracle(enc.waodag))


@pytest.mark.parametrize("seed", range(6))
def test_region_search_matches_cut_loop_permissible_mode(seed):
    net = random_bayesnet(seed, 7, 2)
    e = random_evidence(seed, net, 2)
    enc = apply_evidence(encode_bayesnet(net), e)
    for k in (8, search.ALL):
        ranked = search.enumerate_permissible(enc, k)
        assert_matches_cut_loop(ranked, enc.system, k)
    assert len(ranked) == len(bn.enumerate_mpe_oracle(net, e))


# --- the assignment a solution holds ------------------------------------------

def test_assignment_is_a_read_only_mapping(tony, fig):
    enc = encode_waodag(tony)
    best = search.solve_optimal(enc.system)
    s = best.assignment
    assert isinstance(s, constraints.Assignment)
    want = truth_to_solution(enc, wd.propagate(tony, {"Tony-out"}))
    assert s == want and want == s
    assert list(s) == list(enc.system.variables)
    assert dict(s) == want
    assert list(s.items()) == list(want.items())
    assert s.get("nothing") is None
    with pytest.raises(TypeError):
        s["Tony-in"] = 1
    assert objective(enc.system, s) == objective(enc.system, want)
    assert satisfies(enc.system, s)
    benc = apply_evidence(encode_bayesnet(fig), {"C": T})
    r = search.enumerate_permissible(benc, 1)[0]
    assert isinstance(r.assignment, constraints.Assignment)
    assert repr(r.assignment) == f"Assignment({dict(r.assignment)!r})"
    assert constraints.is_permissible(benc, r.assignment)
    assert objective(benc.system, r.assignment) == r.cost


# --- invariant checks ---------------------------------------------------------

def test_weak_duality_check_fires(tony, monkeypatch):
    # an integral point priced below the LP bound breaks weak duality
    monkeypatch.setattr(search, "objective", lambda system, s: -1.0)
    with pytest.raises(InvariantViolation, match="weak duality"):
        search.solve_optimal(encode_waodag(tony).system)


@pytest.mark.parametrize("scale", [1e7, 1e8])
def test_weak_duality_tolerance_scales_with_cost(scale):
    # LP rounding grows with the costs: at these scales the bound of an
    # integral node exceeds its exact cost by more than an absolute 1e-9
    w = random_waodag(17, 8, 25)
    base = search.enumerate_best(encode_waodag(w).system, 8)
    ranked = search.enumerate_best(encode_waodag(scaled_graph(w, scale)).system, 8)
    assert [r.assignment for r in ranked] == [r.assignment for r in base]
    assert [r.cost for r in ranked] == pytest.approx(
        [r.cost * scale for r in base], rel=1e-12)


@pytest.mark.parametrize("seed, scale", [(23, 1e7), (20, 1e8), (23, 1e8)])
def test_certificate_tolerance_scales_with_cost(seed, scale):
    """With an absolute 1e-9 in the dual-feasibility certificate these raised
    ``SolverLimit`` (an uncertified optimum): reduced costs round in
    proportion to the costs.
    The scaled stream is the unscaled one, scaled, up to the order of
    equal-cost ties (and so which member of the last tie group k keeps)."""
    w = random_waodag(seed, 8, 25)
    base = search.enumerate_best(encode_waodag(w).system, 8)
    ranked = search.enumerate_best(encode_waodag(scaled_graph(w, scale)).system, 8)
    assert [r.cost for r in ranked] == pytest.approx(
        [r.cost * scale for r in base], rel=1e-12)
    ties = [[keys for _, keys in group_stream(
        [(truth_key(r.assignment), r.cost / f) for r in stream], 1e-9)]
        for stream, f in ((ranked, scale), (base, 1.0))]
    assert ties[0][:-1] == ties[1][:-1]


@pytest.mark.parametrize("scale", [1e-8, 1e8])
@pytest.mark.parametrize("seed", range(4))
def test_cardinal_stream_at_every_cost_scale(seed, scale):
    """Tied graphs scaled far down and far up give the oracle's cardinal
    stream, scaled: the searched costs are the encoding's own at every
    scale."""
    w = scaled_graph(random_waodag(seed, 5, 8), scale)
    enc = encode_waodag(w)
    ranked = search.enumerate_cardinal(enc, search.ALL)
    assert_streams_match(cardinal_stream(ranked, enc),
                         oracle_cardinal_stream(w), 1e-6 * scale)


@st.composite
def tied_scaled_graphs(draw):
    """Graphs of 3-6 hypotheses and 4-10 internal nodes whose hypotheses
    cost 1 or 2 at most, so many explanations tie, scaled by 10^k, k in
    -8..8."""
    w = random_waodag(draw(st.integers(0, 2**32 - 1)), draw(st.integers(3, 6)),
                      draw(st.integers(4, 10)), draw(st.sampled_from([1, 2])))
    scale = 10.0 ** draw(st.integers(-8, 8))
    return scaled_graph(w, scale), scale


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tied_scaled_graphs())
def test_tied_streams_at_every_cost_scale(case):
    """Branching on the first fractional column, whatever the scale and
    however many costs tie, gives the oracle's ALL-mode and cardinal
    streams, tie group by tie group."""
    w, scale = case
    enc = encode_waodag(w)
    ranked = search.enumerate_best(enc.system, search.ALL)
    assert_streams_match(waodag_stream(ranked, enc), oracle_stream(w),
                         1e-6 * scale)
    ranked = search.enumerate_cardinal(enc, search.ALL)
    assert_streams_match(cardinal_stream(ranked, enc),
                         oracle_cardinal_stream(w), 1e-6 * scale)


def test_integral_point_check_fires(tony, monkeypatch):
    # an integral LP optimum that fails the system raises, never vanishes
    monkeypatch.setattr(search, "satisfies", lambda system, s: False)
    with pytest.raises(InvariantViolation, match="violates the system"):
        search.solve_optimal(encode_waodag(tony).system)


def test_shrunk_point_check_fires(monkeypatch):
    # a shrunk point priced above the optimum it came from raises
    w = free_rider_graph()
    monkeypatch.setattr(search, "objective", lambda system, s: (
        objective(system, s) + (1.0 if isinstance(s, dict) else 0.0)))
    with pytest.raises(InvariantViolation, match="shrunk point"):
        search.enumerate_cardinal(encode_waodag(w), search.ALL)


def test_permissibility_check_fires(fig, monkeypatch):
    monkeypatch.setattr(search, "is_permissible", lambda enc, s: False)
    with pytest.raises(InvariantViolation, match="not permissible"):
        search.enumerate_permissible(encode_bayesnet(fig), 1)

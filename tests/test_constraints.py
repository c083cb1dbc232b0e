"""Constraint systems, the two encoders, and solution/model conversions."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abduce import bayes as bn
from abduce import model_io, search
from abduce import simplex as sx
from abduce import waodag as wd
from abduce.constraints import (
    ConstraintSystem,
    LinearConstraint,
    apply_evidence,
    dump,
    encode_bayesnet,
    encode_waodag,
    indicator_name,
    instantiation_to_solution,
    is_permissible,
    objective,
    satisfies,
    solution_to_instantiation,
    truth_to_solution,
)
from abduce.errors import ModelError
from abduce.generate import random_bayesnet, random_waodag

from util import all_01_points, holds, solution_to_truth

T, F = "true", "false"


def fig_solution(enc, a, b, c):
    return instantiation_to_solution(enc, {"A": a, "B": b, "C": c})


# --- objective and satisfaction -----------------------------------------------

class TestObjective:
    def test_tony_out_costs_8(self, tony):
        enc = encode_waodag(tony)
        s = truth_to_solution(enc, wd.propagate(tony, {"Tony-out"}))
        assert objective(enc.system, s) == 8

    def test_all_zero_costs_0(self, tony):
        enc = encode_waodag(tony)
        assert objective(enc.system, {x: 0 for x in enc.system.variables}) == 0

    def test_bayes_cost_is_neg_log_probability(self, fig):
        enc = encode_bayesnet(fig)
        s = fig_solution(enc, T, F, T)
        assert objective(enc.system, s) == pytest.approx(-math.log(0.294),
                                                         abs=1e-9)

    def test_domain_mismatch(self, tony):
        enc = encode_waodag(tony)
        with pytest.raises(ModelError, match="assignment domain"):
            objective(enc.system, {"Tony-in": 1})
        with pytest.raises(ModelError, match="assignment domain"):
            truth_to_solution(enc, {"Tony-in": True})


def test_hand_built_groups_are_its_variables():
    names = ("a", "b", "c")
    system = ConstraintSystem(names, (), dict.fromkeys(names, 1.0),
                              dict.fromkeys(names, 0.0))
    assert system.groups == (("a",), ("b",), ("c",))
    assert system.scope == names
    grouped = replace(system, determining=(("c",), ("a", "b")))
    assert grouped.groups == (("c",), ("a", "b"))
    assert grouped.scope == ("c", "a", "b")


class TestSatisfies:
    def test_explanation_satisfies(self, tony):
        enc = encode_waodag(tony)
        s = truth_to_solution(enc, wd.propagate(tony, {"Tony-out"}))
        assert satisfies(enc.system, s)

    def test_all_zero_violates_evidence_row(self, tony):
        enc = encode_waodag(tony)
        assert not satisfies(enc.system, {x: 0 for x in enc.system.variables})

    def test_empty_system(self):
        system = ConstraintSystem(("x",), (), {"x": 0.0}, {"x": 0.0})
        assert satisfies(system, {"x": 0})
        assert satisfies(system, {"x": 1})

    def test_relations(self):
        # each row holds at x = ok only
        for rel, rhs, ok in (("<=", 0.0, 0), (">=", 1.0, 1), ("=", 1.0, 1)):
            row = LinearConstraint(((1.0, "x"),), rel, rhs)
            system = ConstraintSystem(("x",), (row,), {"x": 0.0}, {"x": 0.0})
            for v in (0, 1):
                assert satisfies(system, {"x": v}) is (v == ok)
                assert holds(row, {"x": v}) is (v == ok)


# --- WAODAG encoder -----------------------------------------------------------

class TestEncodeWaodag:
    def test_tony_sizes(self, tony):
        enc = encode_waodag(tony)
        assert len(enc.system.variables) == 5
        assert len(enc.system.constraints) == 7

    def test_hypotheses_only_graph_has_no_rows(self):
        w = wd.Waodag.build(["a", "b"], [], {}, {"a": 1, "b": 2})
        enc = encode_waodag(w)
        assert enc.system.constraints == ()

    def test_evidence_rows_come_from_the_evidence(self, tony):
        free = replace(tony, evidence=frozenset())
        assert len(encode_waodag(free).system.constraints) == 6

    def test_01_points_are_exactly_the_explanations(self, tony):
        enc = encode_waodag(tony)
        points = all_01_points(enc.system)
        truths = {tuple(sorted(solution_to_truth(enc, s).items()))
                  for s in points}
        oracle = {tuple(sorted(e.items()))
                  for e, _ in wd.enumerate_explanations_oracle(tony)}
        assert truths == oracle
        assert len(points) == 5

    def test_costs_copied_into_psi(self, tony):
        enc = encode_waodag(tony)
        assert enc.system.psi_true["Tony-in"] == 5
        assert enc.system.psi_false["Tony-in"] == 0

    def test_each_hypothesis_is_a_group(self, tony):
        system = encode_waodag(tony).system
        hyps = ("Tony-in", "Tony-sleeping", "Tony-out")
        assert system.groups == tuple((h,) for h in hyps)
        assert system.scope == hyps


class TestTruthConversions:
    def test_all_ones(self, tony):
        enc = encode_waodag(tony)
        e = solution_to_truth(enc, {x: 1 for x in enc.system.variables})
        assert all(e.values())

    def test_round_trip_all_subsets(self, tony):
        enc = encode_waodag(tony)
        for mask in range(8):
            hyps = {h for i, h in enumerate(sorted(tony.hypotheses))
                    if mask >> i & 1}
            e = wd.propagate(tony, hyps)
            assert solution_to_truth(enc, truth_to_solution(enc, e)) == e

    def test_solutions_map_to_explanations(self, tony):
        enc = encode_waodag(tony)
        for s in all_01_points(enc.system):
            assert wd.is_explanation(tony, solution_to_truth(enc, s))

    def test_objective_equals_cost_on_pairs(self, tony):
        enc = encode_waodag(tony)
        for s in all_01_points(enc.system):
            e = solution_to_truth(enc, s)
            assert objective(enc.system, s) == pytest.approx(
                wd.cost(tony, e), abs=1e-9)


# --- Bayesian-network encoder --------------------------------------------------

class TestEncodeBayesnet:
    def test_three_var_sizes(self, fig):
        enc = encode_bayesnet(fig)
        assert len(enc.system.variables) == 18  # 12 conditionals + 6 indicators
        assert len(enc.system.constraints) == 21  # 3 + 12 + 6

    def test_single_variable_sizes(self):
        net = bn.BayesianNetwork(
            ("X",), {"X": ("a", "b")}, {"X": ()},
            {("X", "a", ()): 0.5, ("X", "b", ()): 0.5})
        enc = encode_bayesnet(net)
        assert len(enc.system.variables) == 4
        assert len(enc.system.constraints) == 5

    def test_conditional_cost_is_neg_log(self, fig):
        enc = encode_bayesnet(fig)
        name = "q[C=true|A=true,B=false]"
        assert enc.system.psi_true[name] == pytest.approx(-math.log(0.7))
        assert enc.system.psi_false[name] == 0.0

    def test_indicator_costs_zero(self, fig):
        enc = encode_bayesnet(fig)
        for name in enc.system.scope:
            assert enc.system.psi_true[name] == 0.0
            assert enc.system.psi_false[name] == 0.0

    def test_each_variable_is_a_group(self, fig):
        enc = apply_evidence(encode_bayesnet(fig), {"C": T})
        want = tuple(tuple(indicator_name(v, a) for a in fig.ranges[v])
                     for v in fig.variables)
        assert enc.system.groups == want
        assert enc.system.scope == tuple(x for g in want for x in g)

    def test_encodings_share_their_names(self):
        """The generator builds each network's names afresh, and the
        encoder interns every name it builds, so two encodings of equal
        networks hold the same name objects."""
        one, two = (encode_bayesnet(random_bayesnet(3, 5, 3))
                    for _ in range(2))
        assert one.system.variables == two.system.variables
        assert all(x is y for x, y in zip(one.system.variables,
                                          two.system.variables))
        assert all(x is y for x, y in zip(one.conditionals,
                                          two.conditionals))

    def test_size_formulas_on_random_networks(self):
        for seed in range(10):
            net = random_bayesnet(seed, n_variables=3 + seed % 3)
            enc = encode_bayesnet(net)
            n_entries = net.entry_count()
            n_values = sum(len(net.ranges[v]) for v in net.variables)
            assert len(enc.system.variables) == n_entries + n_values
            assert len(enc.system.constraints) == (
                len(net.variables) + n_entries + n_values)

    def test_zero_probability_clamp(self):
        """A positive entry costs exactly -ln p, however small, and -ln 0 is
        clamped to one finite price: 1 plus each variable's largest
        positive-entry cost, here X's -ln 1e-14 and Y's -ln 0.25."""
        net = bn.BayesianNetwork(
            ("X", "Y"), {"X": ("a", "b", "c"), "Y": ("y", "n")},
            {"X": (), "Y": ("X",)},
            {("X", "a", ()): 1.0, ("X", "b", ()): 1e-13,
             ("X", "c", ()): 1e-14,
             ("Y", "y", ("a",)): 1.0, ("Y", "n", ("a",)): 0.0,
             ("Y", "y", ("b",)): 0.75, ("Y", "n", ("b",)): 0.25,
             ("Y", "y", ("c",)): 0.5, ("Y", "n", ("c",)): 0.5})
        psi = encode_bayesnet(net).system.psi_true
        assert psi["q[X=b]"] == -math.log(1e-13)
        assert psi["q[X=c]"] == -math.log(1e-14)
        assert psi["q[Y=y|X=b]"] == -math.log(0.75)
        assert psi["q[Y=n|X=a]"] == 1.0 + (-math.log(1e-14) - math.log(0.25))


class TestApplyEvidence:
    def test_adds_one_row_per_entry(self, fig):
        enc = encode_bayesnet(fig)
        assert len(apply_evidence(enc, {"C": T}).system.constraints) == 22
        assert len(apply_evidence(enc, {"C": T, "A": F}).system.constraints) == 23

    def test_empty_evidence_unchanged(self, fig):
        enc = encode_bayesnet(fig)
        assert apply_evidence(enc, {}).system.constraints == \
            enc.system.constraints

    def test_full_evidence_leaves_one_solution(self, fig):
        enc = apply_evidence(encode_bayesnet(fig), {"A": T, "B": F, "C": T})
        points = all_01_points(enc.system)
        assert len(points) == 1
        assert solution_to_instantiation(enc, points[0]) == \
            {"A": T, "B": F, "C": T}


class TestPermissibility:
    def test_chain_rule_point_permissible(self, fig):
        enc = encode_bayesnet(fig)
        assert is_permissible(enc, fig_solution(enc, T, F, T))

    def test_configuration_mismatch(self, fig):
        enc = encode_bayesnet(fig)
        s = fig_solution(enc, T, F, T)
        s["q[C=true|A=true,B=false]"] = 0
        s["q[C=true|A=true,B=true]"] = 1  # claims B=true, but B=false holds
        assert not is_permissible(enc, s)

    def test_all_conditionals_zero_vacuous(self, fig):
        enc = encode_bayesnet(fig)
        s = {x: 0 for x in enc.system.variables}
        assert is_permissible(enc, s)
        assert not satisfies(enc.system, dict(s, **{"A=true": 1}))
        with pytest.raises(ModelError, match="assignment domain"):
            is_permissible(enc, dict(s, ghost=0))


class TestInstantiationConversions:
    def test_worked_example_pattern(self, fig):
        enc = encode_bayesnet(fig)
        s = fig_solution(enc, T, F, T)
        ones = {x for x, v in s.items() if v}
        assert ones == {"A=true", "B=false", "C=true",
                        "q[A=true]", "q[B=false]",
                        "q[C=true|A=true,B=false]"}

    def test_round_trip_all_complete_sets(self, fig):
        enc = encode_bayesnet(fig)
        for a in (T, F):
            for b in (T, F):
                for c in (T, F):
                    w = {"A": a, "B": b, "C": c}
                    assert solution_to_instantiation(
                        enc, instantiation_to_solution(enc, w)) == w

    def test_single_variable(self):
        net = bn.BayesianNetwork(
            ("X",), {"X": ("v1", "v2")}, {"X": ()},
            {("X", "v1", ()): 0.6, ("X", "v2", ()): 0.4})
        enc = encode_bayesnet(net)
        s = instantiation_to_solution(enc, {"X": "v1"})
        assert s == {"X=v1": 1, "X=v2": 0, "q[X=v1]": 1, "q[X=v2]": 0}

    def test_incomplete_rejected(self, fig):
        enc = encode_bayesnet(fig)
        with pytest.raises(ModelError, match="incomplete instantiation: covers only"):
            instantiation_to_solution(enc, {"A": T})

    def test_ambiguous_indicators_rejected(self, fig):
        enc = encode_bayesnet(fig)
        s = fig_solution(enc, T, F, T)
        s["A=false"] = 1  # both A indicators up
        with pytest.raises(ModelError,
                           match="indicator group of 'A' has 2 active members"):
            solution_to_instantiation(enc, s)


# --- exhaustive encoder invariants at oracle scale ------------------------------

class TestBayesEncodingInvariants:
    def test_one_indicator_per_group(self, fig):
        enc = encode_bayesnet(fig)
        for s in all_01_points(enc.system):
            for v in fig.variables:
                assert sum(s[indicator_name(v, a)] for a in fig.ranges[v]) == 1

    def test_matching_conditional_forced_up(self, fig):
        enc = encode_bayesnet(fig)
        for s in all_01_points(enc.system):
            for name, (head, *config) in enc.conditionals.items():
                if s[head] and all(s[x] for x in config):
                    assert s[name] == 1

    def test_every_solution_permissible(self, fig):
        # the rows alone leave the conditionals no freedom
        enc = encode_bayesnet(fig)
        points = all_01_points(enc.system)
        assert len(points) == 8
        for s in points:
            assert is_permissible(enc, s)

    def test_objective_is_neg_log_on_every_complete_set(self, fig):
        enc = encode_bayesnet(fig)
        import itertools
        for combo in itertools.product((T, F), repeat=3):
            w = dict(zip(("A", "B", "C"), combo))
            s = instantiation_to_solution(enc, w)
            assert objective(enc.system, s) == pytest.approx(
                -math.log(bn.probability(fig, w)), abs=1e-9)

    def test_evidence_solutions_are_explanations(self, fig):
        enc = apply_evidence(encode_bayesnet(fig), {"C": T})
        seen = set()
        for s in all_01_points(enc.system):
            w = solution_to_instantiation(enc, s)
            assert w["C"] == T
            seen.add(tuple(sorted(w.items())))
        want = {tuple(sorted(w.items()))
                for w, _ in bn.enumerate_mpe_oracle(fig, {"C": T})}
        assert seen == want

    def test_cost_order_mirrors_probability_order(self, fig):
        enc = apply_evidence(encode_bayesnet(fig), {"C": T})
        pairs = []
        for w, p in bn.enumerate_mpe_oracle(fig, {"C": T}):
            pairs.append((objective(enc.system,
                                    instantiation_to_solution(enc, w)), p))
        for c1, p1 in pairs:
            for c2, p2 in pairs:
                assert (c1 <= c2 + 1e-12) == (p1 >= p2 - 1e-12)


@st.composite
def networks_with_evidence(draw):
    """Small random networks, some CPT rows deterministic, with evidence."""
    net = random_bayesnet(draw(st.integers(0, 2**32 - 1)),
                          n_variables=draw(st.integers(1, 5)),
                          max_range=draw(st.integers(2, 3)),
                          margin=draw(st.sampled_from([0.0, 0.05])))
    cpt = dict(net.cpt)
    for v in net.variables:
        for config in net.parent_configs(v):
            hot = draw(st.none() | st.sampled_from(net.ranges[v]))
            if hot is not None:
                for a in net.ranges[v]:
                    cpt[(v, a, tuple(config))] = float(a == hot)
    net = bn.BayesianNetwork(net.variables, net.ranges, net.parents, cpt)
    evidence = {v: draw(st.sampled_from(net.ranges[v]))
                for v in net.variables if draw(st.booleans())}
    return net, evidence


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(networks_with_evidence())
def test_every_point_of_the_encoding_is_permissible(case):
    """The encoding's rows alone make each 0-1 point permissible, one point
    per instantiation consistent with the evidence, even where a
    deterministic CPT row leaves conditional costs at zero."""
    net, e = case
    enc = apply_evidence(encode_bayesnet(net), e)
    ranked = search.enumerate_best(enc.system, search.ALL)
    for r in ranked:
        assert is_permissible(enc, r.assignment)
    want = math.prod(len(net.ranges[v]) for v in net.variables if v not in e)
    assert len(ranked) == want


# --- the array form against the named rows ------------------------------------

RELATIONS = ("<=", ">=", "=")


@st.composite
def systems_with_points(draw):
    """Small systems with LE, GE and EQ rows (small integer coefficients, so
    every row sum is exact; a variable may repeat within a row), some rows
    added by ``extended`` as cuts are, and one 0-1 point."""
    n = draw(st.integers(1, 5))
    names = tuple(f"x{j}" for j in range(n))
    coeff = st.integers(-3, 3).map(float)
    row = st.builds(
        LinearConstraint,
        st.lists(st.tuples(coeff, st.sampled_from(names)), max_size=6).map(tuple),
        st.sampled_from(RELATIONS), st.integers(-3, 3).map(float))
    cost = st.floats(-1e3, 1e3)
    system = ConstraintSystem(
        names, tuple(draw(st.lists(row, max_size=5))),
        {x: draw(cost) for x in names}, {x: draw(cost) for x in names})
    cuts = draw(st.lists(row, max_size=2))
    if cuts:
        system = system.extended(cuts)
    point = {x: draw(st.integers(0, 1)) for x in names}
    return system, point


def written_row(row, index, n):
    """One row term by term, its relation and right-hand side as written."""
    a = np.zeros(n)
    for c, var in row.terms:
        a[index[var]] += c
    return a, row.relation, row.rhs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(systems_with_points())
def test_array_form_agrees_with_the_named_rows(case):
    system, s = case
    x = np.array([s[v] for v in system.variables], dtype=float)
    ok = all(holds(row, s) for row in system.constraints)
    assert satisfies(system, s) is ok
    assert satisfies(system, x) is ok
    # priced term by term, left to right, bit for bit
    theta = sum(s[v] * system.psi_true[v] + (1 - s[v]) * system.psi_false[v]
                for v in system.variables)
    assert objective(system, s) == objective(system, x) == theta
    # the LP reads the system's own arrays: every row as written
    A, rels, b = sx.relax(system).system.rows
    n = len(system.variables)
    assert A.shape == (len(system.constraints), n)
    for i, row in enumerate(system.constraints):
        a, rel, rhs = written_row(row, system.index, n)
        assert np.array_equal(A[i], a)
        assert (rels[i], b[i]) == (rel, rhs)
    with pytest.raises(ModelError, match="assignment domain"):
        satisfies(system, {**s, "ghost": 1})
    with pytest.raises(ModelError, match="point of shape"):
        objective(system, np.append(x, 1.0))
    if n > 1:
        with pytest.raises(ModelError, match="assignment domain"):
            objective(system, {v: s[v] for v in system.variables[1:]})
        with pytest.raises(ModelError, match="point of shape"):
            satisfies(system, x[1:])


# --- model checks on the parse -> encode path -------------------------------------

def test_encoders_reject_invalid_models_as_parse_does():
    cyclic = wd.Waodag.build(["a", "b"], [("a", "b"), ("b", "a")],
                             {"a": wd.OR, "b": wd.OR}, {})
    with pytest.raises(ModelError,
                       match=re.escape("cycle through ['a', 'b']")):
        model_io.parse_waodag(model_io.waodag_to_doc(cyclic))
    with pytest.raises(ModelError,
                       match=re.escape("cycle through ['a', 'b']")):
        encode_waodag(cyclic)
    net = random_bayesnet(0, 3)
    cpt = dict(net.cpt)
    cpt[next(iter(cpt))] += 0.25
    broken = bn.BayesianNetwork(net.variables, net.ranges, net.parents, cpt)
    with pytest.raises(ModelError, match="sums to"):
        model_io.parse_bayesnet(model_io.bayesnet_to_doc(broken))
    with pytest.raises(ModelError, match="sums to"):
        encode_bayesnet(broken)


def spy(monkeypatch, cls, name):
    """Record each call of the method ``cls.name``."""
    calls = []
    method = getattr(cls, name)

    def recording(*args):
        calls.append(1)
        return method(*args)

    monkeypatch.setattr(cls, name, recording)
    return calls


def test_parse_then_encode_checks_the_model_once(tony, fig, monkeypatch):
    # cost_of and entry_count are read by the model checks, not the encoders
    graph_checks = spy(monkeypatch, wd.Waodag, "cost_of")
    w = model_io.parse_waodag(model_io.waodag_to_doc(tony))
    assert graph_checks
    graph_checks.clear()
    encode_waodag(w)
    assert not graph_checks
    net_checks = spy(monkeypatch, bn.BayesianNetwork, "entry_count")
    b = model_io.parse_bayesnet(model_io.bayesnet_to_doc(fig))
    assert net_checks == [1]
    encode_bayesnet(b)
    assert net_checks == [1]


# --- golden dumps --------------------------------------------------------------

class TestDumpFormat:
    def test_tony_golden(self, tony, data_dir):
        enc = encode_waodag(tony)
        want = (data_dir / "tony_encoding.txt").read_text().rstrip("\n")
        assert dump(enc.system) == want

    def test_three_var_with_evidence_golden(self, fig, data_dir):
        enc = apply_evidence(encode_bayesnet(fig), {"C": T})
        want = (data_dir / "fig41_evidence_encoding.txt").read_text()
        assert dump(enc.system) == want.rstrip("\n")

    def test_shape(self):
        system = ConstraintSystem(
            ("x", "y"),
            (LinearConstraint(((1.0, "x"), (-1.0, "y")), "<=", 0.0),),
            {"x": 0.0, "y": 0.0}, {"x": 0.0, "y": 0.0})
        assert dump(system) == "1*x + -1*y <= 0"


def test_random_waodag_encoding_counts():
    for seed in range(10):
        w = random_waodag(seed)
        enc = encode_waodag(w)
        n_and_rows = sum(len(w.parents[q]) + 1 for q in w.nodes
                         if w.parents[q])
        assert len(enc.system.constraints) == n_and_rows + len(w.evidence)
        assert len(enc.system.variables) == len(w.nodes)

"""Bayesian-network representation, joint probabilities, and the MPE oracle."""

import itertools
import math
import re

import pytest

from abduce import bayes as bn
from abduce.errors import ModelError
from abduce.generate import random_bayesnet, random_evidence

from util import is_consistent

T, F = "true", "false"


def single_binary(p=0.5):
    return bn.BayesianNetwork(
        variables=("X",), ranges={"X": ("a", "b")}, parents={"X": ()},
        cpt={("X", "a", ()): p, ("X", "b", ()): 1 - p})


# --- validation ---------------------------------------------------------------

class TestValidate:
    def test_three_var_ok(self, fig):
        bn.validate(fig)
        assert fig.entry_count() == 12

    def test_single_binary_ok(self):
        bn.validate(single_binary())

    def test_row_not_normalized(self, fig):
        cpt = dict(fig.cpt)
        cpt[("C", F, (T, T))] = 0.2  # 0.9 + 0.2 = 1.1
        broken = bn.BayesianNetwork(fig.variables, fig.ranges, fig.parents, cpt)
        # the message names the variable, its parent configuration and total
        with pytest.raises(ModelError, match=re.escape(
                "CPT row for C given ('true', 'true') sums to 1.1")):
            bn.validate(broken)

    def test_missing_entry(self, fig):
        cpt = dict(fig.cpt)
        del cpt[("C", T, (F, F))]
        broken = bn.BayesianNetwork(fig.variables, fig.ranges, fig.parents, cpt)
        with pytest.raises(ModelError, match=re.escape(
                "missing CPT entry P(C=true | ('false', 'false'))")):
            bn.validate(broken)

    def test_probability_out_of_range(self):
        net = single_binary()
        cpt = {("X", "a", ()): 1.5, ("X", "b", ()): -0.5}
        broken = bn.BayesianNetwork(net.variables, net.ranges, net.parents, cpt)
        with pytest.raises(ModelError, match=re.escape(
                "P(X=a | ()) = 1.5 is not in [0, 1]")):
            bn.validate(broken)

    def test_cycle_rejected(self):
        net = bn.BayesianNetwork(
            variables=("X", "Y"),
            ranges={"X": ("a", "b"), "Y": ("a", "b")},
            parents={"X": ("Y",), "Y": ("X",)}, cpt={})
        with pytest.raises(ModelError,
                           match=re.escape("cycle through ['X', 'Y']")):
            bn.validate(net)

    def test_unknown_parent_rejected(self):
        net = bn.BayesianNetwork(
            variables=("X",), ranges={"X": ("a",)},
            parents={"X": ("ghost",)}, cpt={})
        with pytest.raises(ModelError, match="unknown parent 'ghost' of 'X'"):
            bn.validate(net)


# --- span / completeness / consistency ----------------------------------------

class TestInstantiationSets:
    def test_partial_span(self, fig):
        assert not bn.is_complete(fig, {"A": T, "C": T})

    def test_complete(self, fig):
        assert bn.is_complete(fig, {"A": T, "B": F, "C": T})

    def test_empty(self, fig):
        assert not bn.is_complete(fig, {})
        empty_net = bn.BayesianNetwork((), {}, {}, {})
        assert bn.is_complete(empty_net, {})

    def test_unknown_variable(self, fig):
        with pytest.raises(ModelError, match="unknown variable 'ghost'"):
            bn.is_complete(fig, {"ghost": T})

    def test_value_out_of_range(self, fig):
        with pytest.raises(ModelError, match="value A=maybe not in range"):
            bn.is_complete(fig, {"A": "maybe"})

    def test_consistency(self):
        outer = {"A": T, "B": F, "C": T}
        assert is_consistent({"A": T}, outer)
        assert not is_consistent({"A": F}, outer)
        assert is_consistent({}, outer)


# --- joint probability --------------------------------------------------------

class TestProbability:
    def test_chain_rule_product(self, fig):
        # P(A=t) * P(B=f) * P(C=t | A=t, B=f)
        got = bn.probability(fig, {"A": T, "B": F, "C": T})
        assert got == pytest.approx(0.6 * 0.7 * 0.7, abs=1e-15)
        assert got == pytest.approx(0.294, abs=1e-15)

    def test_deterministic_network(self):
        net = single_binary(p=1.0)
        assert bn.probability(net, {"X": "a"}) == 1.0

    def test_zero_entry(self):
        assert bn.probability(single_binary(p=0.0), {"X": "a"}) == 0.0

    def test_requires_complete(self, fig):
        with pytest.raises(ModelError, match="incomplete instantiation: covers only"):
            bn.probability(fig, {"A": T})

    def test_total_probability_one(self, fig):
        total = sum(
            bn.probability(fig, dict(zip(fig.variables, combo)))
            for combo in itertools.product(*(fig.ranges[v]
                                             for v in fig.variables)))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_order_independent(self, fig):
        # C last is the only topological constraint; B-A-C must agree
        reordered = bn.BayesianNetwork(
            ("B", "A", "C"), fig.ranges, fig.parents, fig.cpt)
        bn.validate(reordered)
        for combo in itertools.product((T, F), repeat=3):
            w = dict(zip(("A", "B", "C"), combo))
            assert bn.probability(fig, w) == pytest.approx(
                bn.probability(reordered, w), abs=1e-12)

    def test_tiny_joint_stays_accurate(self):
        n = 150
        variables = tuple(f"X{i}" for i in range(n))
        cpt = {}
        for v in variables:
            cpt[(v, "a", ())] = 1e-2
            cpt[(v, "b", ())] = 1 - 1e-2
        net = bn.BayesianNetwork(
            variables, {v: ("a", "b") for v in variables},
            {v: () for v in variables}, cpt)
        got = bn.probability(net, {v: "a" for v in variables})
        assert got == pytest.approx(1e-300, rel=1e-9)
        assert got > 0.0


# --- MPE oracle ---------------------------------------------------------------

class TestMpeOracle:
    def test_three_var_ranking(self, fig):
        listed = bn.enumerate_mpe_oracle(fig, {"C": T})
        want = [({"A": T, "B": F, "C": T}, 0.294),
                ({"A": T, "B": T, "C": T}, 0.162),
                ({"A": F, "B": T, "C": T}, 0.048),
                ({"A": F, "B": F, "C": T}, 0.028)]
        assert len(listed) == 4
        for (w, p), (ww, pw) in zip(listed, want):
            assert w == ww
            assert p == pytest.approx(pw, abs=1e-12)

    def test_complete_evidence_single(self, fig):
        e = {"A": T, "B": F, "C": T}
        listed = bn.enumerate_mpe_oracle(fig, e)
        assert listed == [(e, pytest.approx(0.294, abs=1e-12))]

    def test_prior_only(self):
        net = bn.BayesianNetwork(
            ("X",), {"X": ("v1", "v2")}, {"X": ()},
            {("X", "v1", ()): 0.6, ("X", "v2", ()): 0.4})
        assert bn.enumerate_mpe_oracle(net, {}) == [
            ({"X": "v1"}, 0.6), ({"X": "v2"}, 0.4)]

    def test_contents_and_order(self, fig):
        listed = bn.enumerate_mpe_oracle(fig, {"B": F})
        assert len(listed) == 4
        probs = [p for _, p in listed]
        assert probs == sorted(probs, reverse=True)
        for w, p in listed:
            assert is_consistent({"B": F}, w)
            assert p == pytest.approx(bn.probability(fig, w), abs=1e-15)

    def test_size_cap(self):
        # refused on the count, before any instantiation is visited
        names = [f"V{i}" for i in range(21)]
        net = bn.BayesianNetwork(tuple(names), dict.fromkeys(names, (T, F)),
                                 dict.fromkeys(names, ()), {})
        with pytest.raises(ModelError, match="2097152 complete instantiation-"
                                             "sets exceed the oracle limit "
                                             "1048576"):
            bn.enumerate_mpe_oracle(net, {})


# --- random-instance properties -----------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_random_networks_are_coherent(seed):
    net = random_bayesnet(seed, n_variables=3 + seed % 3)
    bn.validate(net)
    listed = bn.enumerate_mpe_oracle(net, {})
    total = sum(p for _, p in listed)
    assert total == pytest.approx(1.0, abs=1e-9)
    e = random_evidence(seed, net)
    consistent = [w for w, _ in bn.enumerate_mpe_oracle(net, e)]
    assert all(is_consistent(e, w) for w in consistent)
    span_product = math.prod(
        len(net.ranges[v]) for v in net.variables if v not in e)
    assert len(consistent) == span_product

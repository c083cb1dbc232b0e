"""Weighted AND/OR DAG semantics: validity, propagation, costs, cardinality."""

import math
import re

import pytest

from abduce import waodag as wd
from abduce.errors import ModelError
from abduce.generate import random_waodag

from util import is_strict, strict_graph, tony_graph, truth_key

HYPS = ("Tony-in", "Tony-sleeping", "Tony-out")


def all_false(w):
    return {q: False for q in w.nodes}


# --- construction and validation --------------------------------------------

class TestValidate:
    def test_tony_ok(self, tony):
        wd.validate(tony)

    def test_single_node_ok(self):
        w = wd.Waodag.build(["a"], [], {}, {"a": 1.0})
        wd.validate(w)
        assert w.hypotheses == {"a"}

    def test_cycle_rejected(self):
        w = wd.Waodag.build(["a", "b"], [("a", "b"), ("b", "a")],
                            {"a": wd.OR, "b": wd.OR}, {})
        with pytest.raises(ModelError,
                           match=re.escape("cycle through ['a', 'b']")):
            wd.validate(w)

    def test_dangling_edge_rejected(self):
        w = wd.Waodag.build(["a"], [("a", "ghost")], {}, {})
        with pytest.raises(ModelError,
                           match="edge references unknown node 'ghost'"):
            wd.validate(w)

    def test_unknown_evidence_rejected(self):
        w = wd.Waodag.build(["a"], [], {}, {}, evidence=["ghost"])
        with pytest.raises(ModelError, match="unknown evidence node 'ghost'"):
            wd.validate(w)

    def test_nonfinite_cost_rejected(self):
        w = wd.Waodag.build(["a"], [], {}, {"a": math.inf})
        with pytest.raises(ModelError,
                           match=re.escape("cost('a', True) = inf is not finite")):
            wd.validate(w)

    def test_unlabeled_internal_rejected(self):
        w = wd.Waodag.build(["a", "b"], [("a", "b")], {}, {})
        with pytest.raises(ModelError,
                           match="internal node 'b' has no and/or label"):
            wd.validate(w)

    def test_hypothesis_label_ignored(self):
        w = wd.Waodag.build(["a"], [], {"a": wd.AND}, {})
        wd.validate(w)

    def test_repeated_id_rejected(self):
        w = wd.Waodag.build(["a", "b", "a"], [], {}, {"a": 1.0})
        with pytest.raises(ModelError, match="'a' is declared twice"):
            wd.validate(w)

    def test_tony_structure(self, tony):
        assert tony.hypotheses == set(HYPS)
        assert tony.parents["phone-disconnected"] == ("Tony-in",
                                                      "Tony-sleeping")
        assert tony.parents["phone-noanswer"] == ("phone-disconnected",
                                                  "Tony-out")


# --- validity and explanations -----------------------------------------------

class TestValidity:
    def test_propagated_is_valid(self, tony):
        assert wd.is_valid(tony, wd.propagate(tony, {"Tony-out"}))

    def test_wrong_or_value_invalid(self, tony):
        e = wd.propagate(tony, {"Tony-out"})
        e["phone-noanswer"] = False
        assert not wd.is_valid(tony, e)

    def test_all_false_valid(self, tony):
        assert wd.is_valid(tony, all_false(tony))

    def test_and_needs_all_parents(self, tony):
        e = wd.propagate(tony, {"Tony-in"})
        assert not e["phone-disconnected"]
        e["phone-disconnected"] = True
        assert not wd.is_valid(tony, e)

    def test_domain_mismatch(self, tony):
        with pytest.raises(ModelError, match="assignment domain"):
            wd.is_valid(tony, {"Tony-in": True})


class TestExplanation:
    def test_tony_out_explains(self, tony):
        assert wd.is_explanation(tony, wd.propagate(tony, {"Tony-out"}))

    def test_all_false_does_not(self, tony):
        assert not wd.is_explanation(tony, all_false(tony))

    def test_tony_in_alone_does_not(self, tony):
        assert not wd.is_explanation(tony, wd.propagate(tony, {"Tony-in"}))


class TestPropagate:
    def test_and_pair(self, tony):
        e = wd.propagate(tony, {"Tony-in", "Tony-sleeping"})
        assert e["phone-disconnected"] and e["phone-noanswer"]
        assert not e["Tony-out"]

    def test_empty_set_all_false(self, tony):
        assert wd.propagate(tony, set()) == all_false(tony)

    def test_bijection_over_subsets(self, tony):
        outputs = set()
        for mask in range(8):
            hyps = {h for i, h in enumerate(HYPS) if mask >> i & 1}
            e = wd.propagate(tony, hyps)
            assert wd.is_valid(tony, e)
            base, _ = wd.base_and_support(tony, e)
            assert base == hyps
            outputs.add(tuple(sorted(e.items())))
        assert len(outputs) == 8

    def test_non_hypothesis_rejected(self, tony):
        with pytest.raises(ModelError, match="not hypothesis nodes"):
            wd.propagate(tony, {"phone-noanswer"})


class TestCost:
    def test_tony_out_costs_8(self, tony):
        assert wd.cost(tony, wd.propagate(tony, {"Tony-out"})) == 8

    def test_and_pair_costs_9(self, tony):
        assert wd.cost(tony,
                       wd.propagate(tony, {"Tony-in", "Tony-sleeping"})) == 9

    def test_all_false_costs_0(self, tony):
        assert wd.cost(tony, all_false(tony)) == 0


class TestBaseAndSupport:
    def test_single_hypothesis(self, tony):
        base, support = wd.base_and_support(
            tony, wd.propagate(tony, {"Tony-out"}))
        assert base == {"Tony-out"}
        assert support == {"Tony-out", "phone-noanswer"}

    def test_all_false(self, tony):
        assert wd.base_and_support(tony, all_false(tony)) == (frozenset(),
                                                              frozenset())

    def test_and_pair(self, tony):
        base, support = wd.base_and_support(
            tony, wd.propagate(tony, {"Tony-in", "Tony-sleeping"}))
        assert base == {"Tony-in", "Tony-sleeping"}
        assert support == base | {"phone-disconnected", "phone-noanswer"}


# --- monotonicity and cardinality --------------------------------------------

class TestMonotonicityClass:
    def test_tony_monotonic(self, tony):
        # the internal nodes' gaps are zero: monotonic, not strict
        assert wd.is_monotonic(tony)
        assert not is_strict(tony)

    def test_perturbed_tony_strict(self, tony):
        perturbed = strict_graph(tony, 0.001)
        assert wd.is_monotonic(perturbed)
        assert is_strict(perturbed)

    def test_negative_gap_unknown(self):
        w = wd.Waodag.build(["a"], [], {}, {}, cost_false={"a": 1.0})
        assert not wd.is_monotonic(w)


class TestIsCardinal:
    def test_singleton(self, tony):
        assert wd.is_cardinal(tony, wd.propagate(tony, {"Tony-out"}))

    def test_superset_not_cardinal(self, tony):
        e = wd.propagate(tony, {"Tony-out", "Tony-in"})
        assert not wd.is_cardinal(tony, e)

    def test_and_pair_cardinal(self, tony):
        e = wd.propagate(tony, {"Tony-in", "Tony-sleeping"})
        assert wd.is_cardinal(tony, e)

    def test_requires_explanation(self, tony):
        with pytest.raises(ModelError, match="needs an explanation"):
            wd.is_cardinal(tony, all_false(tony))


# --- brute-force oracle -------------------------------------------------------

class TestOracle:
    def test_tony_costs(self, tony):
        listed = wd.enumerate_explanations_oracle(tony)
        assert [c for _, c in listed] == [8, 9, 12, 13, 17]

    def test_empty_evidence_counts_all_subsets(self, tony):
        free = wd.Waodag.build(tony.nodes, tony.edges, tony.label,
                               tony.cost_true, tony.cost_false, ())
        assert len(wd.enumerate_explanations_oracle(free)) == 8

    def test_consistent_superset_count(self, tony):
        # explanations whose base contains {Tony-out}: at least 2^(3-1) = 4
        listed = wd.enumerate_explanations_oracle(tony)
        consistent = [e for e, _ in listed if e["Tony-out"]]
        assert len(consistent) == 4

    def test_size_cap(self):
        # refused on the count, before any subset is visited
        w = wd.Waodag.build([f"h{i}" for i in range(21)], [], {}, {})
        with pytest.raises(ModelError,
                           match="21 hypotheses exceed the oracle limit 20"):
            wd.enumerate_explanations_oracle(w)

    def test_sorted_and_deterministic(self, tony):
        a = wd.enumerate_explanations_oracle(tony)
        b = wd.enumerate_explanations_oracle(tony)
        assert a == b
        costs = [c for _, c in a]
        assert costs == sorted(costs)


class TestPerturbStrict:
    """Raising zero cost gaps on the graph (``util.strict_graph``) keeps its
    cardinal explanations."""

    def test_cardinal_sets_preserved(self, tony):
        perturbed = strict_graph(tony, 0.001)
        def cardinal_bases(w):
            return {frozenset(wd.base_and_support(w, e)[0])
                    for e, _ in wd.enumerate_explanations_oracle(w)
                    if wd.is_cardinal(w, e)}
        want = {frozenset({"Tony-out"}),
                frozenset({"Tony-in", "Tony-sleeping"})}
        assert cardinal_bases(tony) == want
        assert cardinal_bases(perturbed) == want


# --- properties on random instances ------------------------------------------

SEEDS = range(12)


GRAPHS = [random_waodag(seed, n_hypotheses=2 + seed % 4,
                        n_internal=3 + seed % 4, strict=bool(seed % 2))
          for seed in SEEDS] + [tony_graph()]


@pytest.mark.parametrize("w", GRAPHS,
                         ids=[f"seed{s}" for s in SEEDS] + ["tony"])
class TestProperties:
    def test_propagation_round_trip(self, w):
        hyp_order = sorted(w.hypotheses)
        seen = set()
        for mask in range(1 << len(hyp_order)):
            hyps = {h for i, h in enumerate(hyp_order) if mask >> i & 1}
            e = wd.propagate(w, hyps)
            assert wd.is_valid(w, e)
            base, support = wd.base_and_support(w, e)
            assert base == hyps
            assert base == support & w.hypotheses
            seen.add(tuple(sorted(e.items())))
        assert len(seen) == 1 << len(hyp_order)

    def test_base_inclusion_iff_support_inclusion(self, w):
        listed = wd.enumerate_explanations_oracle(w)
        pairs = [wd.base_and_support(w, e) for e, _ in listed]
        for h1, k1 in pairs:
            for h2, k2 in pairs:
                assert (h1 <= h2) == (k1 <= k2)
                assert (h1 == h2) == (k1 == k2)

    def test_supersets_of_base_sets_explain(self, w):
        listed = wd.enumerate_explanations_oracle(w)
        free = sorted(w.hypotheses)
        for e, _ in listed:
            base, _ = wd.base_and_support(w, e)
            rest = [h for h in free if h not in base]
            count = 0
            for mask in range(1 << len(rest)):
                extra = {h for i, h in enumerate(rest) if mask >> i & 1}
                if wd.is_explanation(w, wd.propagate(w, base | extra)):
                    count += 1
            assert count == 1 << len(rest)
            assert len(listed) >= 1 << len(rest)

    def test_monotonic_cost_semantics(self, w):
        assert wd.is_monotonic(w)
        strict = is_strict(w)
        listed = wd.enumerate_explanations_oracle(w)
        for e1, c1 in listed:
            for e2, c2 in listed:
                h1, _ = wd.base_and_support(w, e1)
                h2, _ = wd.base_and_support(w, e2)
                if h1 < h2:
                    if strict:
                        assert c1 < c2
                    else:
                        assert c1 <= c2

    def test_strict_minimum_is_cardinal(self, w):
        # a strict graph comes back as it was
        strict = strict_graph(w, 0.001)
        assert is_strict(strict)
        assert (strict == w) is is_strict(w)
        listed = wd.enumerate_explanations_oracle(strict)
        if not listed:
            pytest.skip("no explanation exists")
        best_cost = listed[0][1]
        for e, c in listed:
            if c == best_cost:
                assert wd.is_cardinal(strict, e)


def test_zero_gap_hypothesis_breaks_strictness(tony):
    """A free extra cause gives equal-cost explanation pairs."""
    w = wd.Waodag.build(
        nodes=tony.nodes + ("Tony-awake",),
        edges=tony.edges + (("Tony-awake", "phone-noanswer"),),
        label=dict(tony.label),
        cost_true=dict(tony.cost_true),
        cost_false=dict(tony.cost_false),
        evidence=tony.evidence,
    )
    assert wd.is_monotonic(w)
    assert not is_strict(w)
    with_awake = wd.propagate(w, {"Tony-out", "Tony-awake"})
    without = wd.propagate(w, {"Tony-out"})
    assert wd.cost(w, with_awake) == wd.cost(w, without) == 8
    assert not wd.is_cardinal(w, with_awake)
    strict = strict_graph(w, 1e-6)
    assert is_strict(strict)


def test_truth_key_helper(tony):
    e = wd.propagate(tony, {"Tony-out"})
    assert truth_key(e) == {"Tony-out", "phone-noanswer"}

"""Acceptance gate: the ten end-to-end criteria, one pass/fail line each.

Each criterion prints `[PASS]`/`[FAIL]` straight to the terminal (outside
pytest's capture) so the gate's outcome is visible in any run log.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from abduce import bayes as bn
from abduce import search
from abduce import simplex as sx
from abduce import waodag as wd
from abduce.cli import abduce as abduce_cli
from abduce.cli import mpe as mpe_cli
from abduce.constraints import (
    apply_evidence,
    encode_bayesnet,
    encode_waodag,
    instantiation_to_solution,
    objective,
    truth_to_solution,
)
from abduce.generate import random_bayesnet, random_evidence, random_waodag

from util import (
    all_01_points,
    assert_streams_match,
    bundled_model,
    inst_key,
    solution_to_truth,
    three_var_network,
    truth_key,
)

@contextmanager
def criterion(capsys, number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {number:>2}: {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] criterion {number:>2}: {label}"
              f"  ({time.perf_counter() - start:.2f}s)")


def cli_lines(cli, args):
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    return [json.loads(line) for line in result.output.strip().splitlines()]


def tony_file():
    return str(bundled_model("tony.waodag.json"))


def fig_file():
    return str(bundled_model("fig41.bn.json"))


def test_criterion_01_tony_optimum(capsys):
    with criterion(capsys, 1, "best explanation of the phone example "
                   "costs 8 via {Tony-out}", budget=1.0):
        lines = cli_lines(abduce_cli, ["solve", tony_file()])
        assert len(lines) == 1
        assert abs(lines[0]["cost"] - 8) <= 1e-6
        assert lines[0]["hypotheses"] == ["Tony-out"]


def test_criterion_02_tony_enumeration(capsys):
    with criterion(capsys, 2, "full stream [8,9,12,13,17]; cardinal stream "
                   "[8,9] with the two base sets", budget=1.0):
        model = tony_file()
        lines = cli_lines(abduce_cli, ["enumerate", model, "--k", "all"])
        assert [r["cost"] for r in lines] == [8, 9, 12, 13, 17]
        cardinal = cli_lines(abduce_cli, ["enumerate", model, "--k", "all",
                                          "--mode", "cardinal"])
        assert [r["cost"] for r in cardinal] == [8, 9]
        assert [set(r["hypotheses"]) for r in cardinal] == \
            [{"Tony-out"}, {"Tony-in", "Tony-sleeping"}]


def test_criterion_03_cost_identity(capsys):
    with criterion(capsys, 3, "encoding cost of {A=T,B=F,C=T} equals "
                   "-ln(0.294) within 1e-9", budget=1.0):
        enc = encode_bayesnet(three_var_network())
        s = instantiation_to_solution(
            enc, {"A": "true", "B": "false", "C": "true"})
        assert abs(objective(enc.system, s) - (-math.log(0.294))) <= 1e-9


def test_criterion_04_kbest_mpe(capsys):
    with criterion(capsys, 4, "k=4 MPE stream for C=true is "
                   "[0.294, 0.162, 0.048, 0.028]", budget=1.0):
        lines = cli_lines(mpe_cli, ["enumerate", fig_file(),
                                    "--evidence", "C=true", "--k", "4"])
        want = [0.294, 0.162, 0.048, 0.028]
        assert len(lines) == 4
        for record, p in zip(lines, want):
            assert abs(record["probability"] - p) <= 1e-9


def _seeded_waodag(seed):
    return random_waodag(seed, n_hypotheses=3 + seed % 4,
                         n_internal=4 + seed % 5)


def test_criterion_05_waodag_oracle_equivalence(capsys):
    with criterion(capsys, 5, "ALL-mode stream equals the brute-force "
                   "explanation list on 100 seeded graphs", budget=300.0):
        for seed in range(100):
            w = _seeded_waodag(seed)
            enc = encode_waodag(w)
            ranked = search.enumerate_best(enc.system, search.ALL)
            got = [(truth_key(solution_to_truth(enc, r.assignment)), r.cost)
                   for r in ranked]
            want = [(truth_key(e), c)
                    for e, c in wd.enumerate_explanations_oracle(w)]
            assert_streams_match(got, want, 1e-6)


def test_criterion_06_cardinal_oracle_equivalence(capsys):
    with criterion(capsys, 6, "cardinal stream equals the oracle's cardinal "
                   "list and base sets form an antichain, 100 seeds",
                   budget=300.0):
        for seed in range(100):
            w = random_waodag(seed, n_hypotheses=3 + seed % 6,
                              n_internal=4 + seed % 7,
                              strict=bool(seed % 2))
            enc = encode_waodag(w)
            ranked = search.enumerate_cardinal(enc, search.ALL)
            got = []
            for r in ranked:
                e = solution_to_truth(enc, r.assignment)
                base, _ = wd.base_and_support(w, e)
                got.append((frozenset(base), r.cost))
            want = []
            for e, c in wd.enumerate_explanations_oracle(w):
                if wd.is_cardinal(w, e):
                    base, _ = wd.base_and_support(w, e)
                    want.append((frozenset(base), c))
            assert_streams_match(got, want, 1e-6)
            bases = [b for b, _ in got]
            for i, b1 in enumerate(bases):
                for b2 in bases[i + 1:]:
                    assert not (b1 <= b2 or b2 <= b1)


def test_criterion_07_bayes_oracle_equivalence(capsys):
    with criterion(capsys, 7, "permissible stream equals the MPE oracle on "
                   "50 seeded networks with random evidence", budget=300.0):
        for seed in range(50):
            net = random_bayesnet(seed, n_variables=3 + seed % 4, max_range=3)
            e = random_evidence(seed + 777, net,
                                count=max(1, len(net.variables) - 4))
            enc = apply_evidence(encode_bayesnet(net), e)
            ranked = search.enumerate_permissible(enc, search.ALL)
            got = [(inst_key(r.instantiation), r.probability) for r in ranked]
            want = [(inst_key(w), p)
                    for w, p in bn.enumerate_mpe_oracle(net, e)]
            assert_streams_match(got, want, 1e-9)


def test_criterion_08_structural_counts(capsys):
    with criterion(capsys, 8, "encoding sizes match the closed-form counts; "
                   "worked example gives (18, 21, 22)"):
        fig = three_var_network()
        enc = encode_bayesnet(fig)
        assert len(enc.system.variables) == 18
        assert len(enc.system.constraints) == 21
        assert len(apply_evidence(enc, {"C": "true"})
                   .system.constraints) == 22
        for seed in range(30):
            net = random_bayesnet(seed, n_variables=3 + seed % 4, max_range=3)
            n_entries = net.entry_count()
            n_values = sum(len(net.ranges[v]) for v in net.variables)
            built = encode_bayesnet(net)
            assert len(built.system.variables) == n_entries + n_values
            assert len(built.system.constraints) == \
                len(net.variables) + n_entries + n_values
            e = random_evidence(seed, net)
            assert len(apply_evidence(built, e).system.constraints) == \
                len(built.system.constraints) + len(e)


def test_criterion_09_encoding_bijection(capsys):
    with criterion(capsys, 9, "0-1 points of the graph encoding are exactly "
                   "the explanations, with matching costs, 100 seeds"):
        for seed in range(100):
            w = random_waodag(seed, n_hypotheses=2 + seed % 4,
                              n_internal=3 + seed % 6)
            enc = encode_waodag(w)
            points = all_01_points(enc.system)
            got = {}
            for s in points:
                e = solution_to_truth(enc, s)
                assert wd.is_explanation(w, e)
                key = truth_key(e)
                assert key not in got  # injective
                got[key] = objective(enc.system, s)
            oracle = wd.enumerate_explanations_oracle(w)
            assert len(points) == len(oracle)
            for e, c in oracle:
                s = truth_to_solution(enc, e)
                key = truth_key(e)
                assert key in got
                assert abs(got[key] - c) <= 1e-9
                assert abs(objective(enc.system, s) - c) <= 1e-9


def test_criterion_10_solver_internals(capsys):
    with criterion(capsys, 10, "LP bound never exceeds any 0-1 cost, and "
                   "warm re-solves match scratch on 1000 cut additions"):
        # weak-duality sweep: searches raise AssertionError if the LP bound
        # ever exceeds an integral point's cost
        for seed in range(20):
            w = _seeded_waodag(seed)
            enc = encode_waodag(w)
            try:
                search.enumerate_best(enc.system, search.ALL)
            except AssertionError as exc:  # pragma: no cover
                pytest.fail(f"weak-duality assertion fired: {exc}")
        for seed in range(8):
            net = random_bayesnet(seed, n_variables=3 + seed % 2)
            enc = apply_evidence(encode_bayesnet(net),
                                 random_evidence(seed, net))
            try:
                search.enumerate_permissible(enc, search.ALL)
            except AssertionError as exc:  # pragma: no cover
                pytest.fail(f"weak-duality assertion fired: {exc}")

        # randomized warm-vs-scratch equivalence
        trials = 0
        seed = 0
        while trials < 1000:
            rng = random.Random(seed)
            w = random_waodag(seed, n_hypotheses=3 + seed % 5,
                              n_internal=4 + seed % 6)
            p = sx.relax(encode_waodag(w).system)
            assert len(p.system.variables) <= 30
            parent = sx.solve(p)
            for _ in range(12):
                if parent.status != sx.OPTIMAL or trials >= 1000:
                    break
                k = rng.randint(1, min(4, len(p.system.variables)))
                chosen = rng.sample(list(p.system.variables), k)
                terms = tuple((float(rng.choice([-2, -1, 1, 2])), x)
                              for x in chosen)
                from abduce.constraints import LinearConstraint
                cut = LinearConstraint(terms, rng.choice(["<=", ">=", "="]),
                                       float(rng.randint(-2, 3)))
                p = sx.add_row(p, cut)
                warm = sx.solve(p, warm=parent.basis)
                cold = sx.solve(p)
                assert warm.status == cold.status
                if warm.status == sx.OPTIMAL:
                    assert abs(warm.objective - cold.objective) <= 1e-9
                parent = warm
                trials += 1
            seed += 1
        assert trials == 1000

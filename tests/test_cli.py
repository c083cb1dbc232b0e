"""Command-line interface: parsing, JSON-line output, determinism, exit codes."""

import hashlib
import json
import math
import pathlib
import sys

import pytest
from click.testing import CliRunner

from abduce import model_io, search
from abduce import simplex as sx
from abduce.cli import abduce as abduce_cli
from abduce.cli import gen as gen_cli
from abduce.cli import mpe as mpe_cli
from abduce.constraints import encode_waodag
from abduce.errors import ModelError, SolverLimit
from abduce.generate import random_bayesnet, random_waodag

from util import bundled_model

TONY = str(bundled_model("tony.waodag.json"))
FIG = str(bundled_model("fig41.bn.json"))
TINY = str(pathlib.Path(__file__).parent / "data"
           / "tiny_probabilities.bn.json")
UNDERFLOW = str(pathlib.Path(__file__).parent / "data"
                / "underflow_product.bn.json")


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, cli, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    return result.output


def json_lines(output):
    return [json.loads(line) for line in output.strip().splitlines()]


# --- model file parsing -------------------------------------------------------

# a variable named A=b beside A, so that A=b=d may read as A = b=d
NAME_WITH_EQUALS = {
    "variables": [{"name": "A", "range": ["x", "y"]},
                  {"name": "A=b", "range": ["c", "d"]}],
    "cpts": [{"child": "A", "parents": [],
              "rows": [{"given": [], "probs": {"x": 0.9, "y": 0.1}}]},
             {"child": "A=b", "parents": [],
              "rows": [{"given": [], "probs": {"c": 0.8, "d": 0.2}}]}]}


class TestParseWaodag:
    def test_bundled_tony(self):
        w = model_io.parse_waodag_file(TONY)
        assert w.cost_true["Tony-in"] == 5
        assert w.cost_true["Tony-sleeping"] == 4
        assert w.cost_true["Tony-out"] == 8
        assert w.evidence == {"phone-noanswer"}

    def test_unknown_label_rejected(self):
        doc = {"nodes": [{"id": "a"}, {"id": "b", "label": "xor"}],
               "edges": [["a", "b"]]}
        with pytest.raises(ModelError, match="unknown label 'xor' on 'b'"):
            model_io.parse_waodag(doc)

    def test_missing_internal_label_rejected(self):
        doc = {"nodes": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b"]]}
        with pytest.raises(ModelError,
                           match="internal node 'b' has no and/or label"):
            model_io.parse_waodag(doc)

    def test_omitted_costs_default_to_zero(self):
        doc = {"nodes": [{"id": "a"}], "edges": []}
        w = model_io.parse_waodag(doc)
        assert w.cost_true["a"] == 0.0
        assert w.cost_false["a"] == 0.0

    def test_round_trip(self):
        doc = {"nodes": [{"id": "a", "cost_true": 2, "cost_false": 1.5},
                         {"id": "e", "label": "or", "cost_false": 3}],
               "edges": [["a", "e"]], "evidence": ["e"]}
        for w in (model_io.parse_waodag_file(TONY),
                  model_io.parse_waodag(doc)):
            again = model_io.parse_waodag(model_io.waodag_to_doc(w))
            assert again == w
        assert model_io.waodag_to_doc(w) == doc

    def test_parses_share_node_ids(self):
        first, second = (
            search.solve_optimal(encode_waodag(
                model_io.parse_waodag_file(TONY)).system).assignment
            for _ in range(2))
        assert list(first) == list(second)
        assert all(a is b for a, b in zip(first, second))

    def test_numeric_ids_are_read_as_strings(self):
        w = model_io.parse_waodag({"nodes": [{"id": 1}, {"id": 2, "label": "or"}],
                                   "edges": [[1, 2]]})
        assert w.nodes == ("1", "2")
        assert w.edges == (("1", "2"),)

    def test_repeated_id_rejected(self):
        doc = {"nodes": [{"id": "a", "cost_true": 1},
                         {"id": "a", "cost_true": 5},
                         {"id": "e", "label": "or"}],
               "edges": [["a", "e"]], "evidence": ["e"]}
        with pytest.raises(ModelError, match="'a' is declared twice"):
            model_io.parse_waodag(doc)


class TestParseBayesnet:
    def test_bundled_network(self):
        b = model_io.parse_bayesnet_file(FIG)
        assert b.entry_count() == 12
        assert b.cpt[("C", "true", ("true", "false"))] == 0.7

    def test_priors_use_empty_given(self):
        doc = {"variables": [{"name": "X", "range": ["a", "b"]}],
               "cpts": [{"child": "X", "parents": [],
                         "rows": [{"given": [],
                                   "probs": {"a": 0.6, "b": 0.4}}]}]}
        b = model_io.parse_bayesnet(doc)
        assert b.cpt[("X", "a", ())] == 0.6

    def test_unnormalized_row_rejected(self):
        doc = {"variables": [{"name": "X", "range": ["a", "b"]}],
               "cpts": [{"child": "X", "parents": [],
                         "rows": [{"given": [],
                                   "probs": {"a": 0.5, "b": 0.4}}]}]}
        with pytest.raises(ModelError, match="CPT row for X given .* sums to "):
            model_io.parse_bayesnet(doc)

    def test_round_trip(self):
        b = model_io.parse_bayesnet_file(FIG)
        again = model_io.parse_bayesnet(model_io.bayesnet_to_doc(b))
        assert again == b

    def test_repeated_variable_rejected(self):
        prior = {"given": [], "probs": {"a": 0.5, "b": 0.5}}
        doc = {"variables": [{"name": "X", "range": ["a", "b"]}] * 2,
               "cpts": [{"child": "X", "parents": [], "rows": [prior]}]}
        with pytest.raises(ModelError, match="'X' is declared twice"):
            model_io.parse_bayesnet(doc)


def test_every_parsed_name_is_a_str(tmp_path):
    """Numbers, true/false and strings all come back as interned strings,
    a number or literal as its JSON text."""
    w = model_io.parse_waodag(
        {"nodes": [{"id": 1}, {"id": 2.5}, {"id": True, "label": "and"},
                   {"id": "x", "label": "or"}],
         "edges": [[1, True], [2.5, True], [True, "x"]], "evidence": ["x"]})
    assert w.nodes == ("1", "2.5", "true", "x")
    names = [*w.nodes, *(q for edge in w.edges for q in edge), *w.evidence]
    b = model_io.parse_bayesnet(
        {"variables": [{"name": 7, "range": [1, False]},
                       {"name": "Y", "range": ["y", 0.5]}],
         "cpts": [{"child": 7, "parents": [],
                   "rows": [{"given": [], "probs": {"1": 0.5, "false": 0.5}}]},
                  {"child": "Y", "parents": [7], "rows": [
                      {"given": [1], "probs": {"y": 0.5, "0.5": 0.5}},
                      {"given": [False], "probs": {"y": 1.0, "0.5": 0.0}}]}]})
    assert b.ranges == {"7": ("1", "false"), "Y": ("y", "0.5")}
    names += [*b.variables, *(x for r in b.ranges.values() for x in r),
              *(p for ps in b.parents.values() for p in ps),
              *(x for key in b.cpt for x in (key[0], key[1], *key[2]))]
    evidence = tmp_path / "e.json"
    evidence.write_text(json.dumps({"7": False, "Y": "y"}))
    e = model_io.parse_evidence_file(str(evidence))
    assert e == {"7": "false", "Y": "y"}
    names += [*e, *e.values()]
    assert all(type(q) is str and q is sys.intern(q) for q in names)


def test_evidence_spec_parsing(fig):
    assert model_io.parse_evidence_spec("C=true, A=false", fig) == \
        {"C": "true", "A": "false"}
    with pytest.raises(ModelError, match="'C' is not Var=value"):
        model_io.parse_evidence_spec("C", fig)
    with pytest.raises(ModelError, match="conflicting evidence for 'C'"):
        model_io.parse_evidence_spec("C=true,C=false", fig)


def test_evidence_spec_resolved_against_the_network():
    """Each item splits where both sides fit the network as written: spaces
    around an ``=`` belong to the name beside them, so ``A=b =c`` reads only
    as ``A`` = ``b =c``, never as ``A=b`` = ``c``."""
    b = model_io.parse_bayesnet(NAME_WITH_EQUALS)
    assert model_io.parse_evidence_spec("A=b=d, A=x", b) == \
        {"A=b": "d", "A": "x"}
    with pytest.raises(ModelError, match="unknown variable 'Z'"):
        model_io.parse_evidence_spec("Z=d", b)
    with pytest.raises(ModelError, match=r"value A=b=e not in range"):
        model_io.parse_evidence_spec("A=b=e", b)
    spaced = model_io.parse_bayesnet(
        {"variables": [{"name": "A", "range": ["b =c", "x"]},
                       {"name": "A=b", "range": ["c", "y"]}],
         "cpts": [{"child": "A", "parents": [], "rows": [
                      {"given": [], "probs": {"b =c": 0.9, "x": 0.1}}]},
                  {"child": "A=b", "parents": [], "rows": [
                      {"given": [], "probs": {"c": 0.9, "y": 0.1}}]}]})
    assert model_io.parse_evidence_spec(" A=b =c ", spaced) == {"A": "b =c"}
    assert model_io.parse_evidence_spec("A=b=c", spaced) == {"A=b": "c"}
    with pytest.raises(ModelError, match="value A=b = c not in range"):
        model_io.parse_evidence_spec("A=b = c", spaced)


# --- abduce commands ----------------------------------------------------------

class TestAbduceCommands:
    def test_solve(self, runner):
        lines = json_lines(run_ok(runner, abduce_cli, ["solve", TONY]))
        assert len(lines) == 1
        assert lines[0]["cost"] == 8
        assert lines[0]["hypotheses"] == ["Tony-out"]
        assert lines[0]["assignment"]["phone-noanswer"] == 1

    def test_enumerate_all(self, runner):
        lines = json_lines(run_ok(runner, abduce_cli,
                                  ["enumerate", TONY, "--k", "all"]))
        assert [r["cost"] for r in lines] == [8, 9, 12, 13, 17]
        assert [r["rank"] for r in lines] == [1, 2, 3, 4, 5]

    def test_enumerate_cardinal(self, runner):
        lines = json_lines(run_ok(
            runner, abduce_cli,
            ["enumerate", TONY, "--k", "all", "--mode", "cardinal"]))
        assert [r["cost"] for r in lines] == [8, 9]
        assert lines[0]["hypotheses"] == ["Tony-out"]
        assert lines[1]["hypotheses"] == ["Tony-in", "Tony-sleeping"]

    def test_oracle_agrees_with_solver(self, runner):
        solver = json_lines(run_ok(runner, abduce_cli,
                                   ["enumerate", TONY, "--k", "all"]))
        oracle = json_lines(run_ok(runner, abduce_cli,
                                   ["oracle", TONY, "--k", "all"]))
        assert [r["cost"] for r in solver] == [r["cost"] for r in oracle]
        assert {frozenset(r["hypotheses"]) for r in solver} == \
            {frozenset(r["hypotheses"]) for r in oracle}

    def test_encode_matches_golden(self, runner, data_dir):
        out = run_ok(runner, abduce_cli, ["encode", TONY])
        assert out == (data_dir / "tony_encoding.txt").read_text()

    def test_no_essential_drops_evidence_row(self, runner, tmp_path):
        # the evidence rows come from the graph's evidence alone
        doc = json.loads(bundled_model("tony.waodag.json").read_text())
        doc["evidence"] = []
        model = tmp_path / "free.json"
        model.write_text(json.dumps(doc))
        out = run_ok(runner, abduce_cli, ["encode", str(model)])
        assert len(out.strip().splitlines()) == 6


@pytest.mark.parametrize("cli, doc, args", [
    (abduce_cli, {"nodes": []}, []),
    (abduce_cli, {"nodes": []}, ["--mode", "cardinal"]),
    (mpe_cli, {"variables": []}, []),
], ids=["abduce-all", "abduce-cardinal", "mpe"])
def test_empty_model_has_one_empty_explanation(runner, tmp_path, cli, doc,
                                               args):
    # the first cut leaves 0 <= -1, which ends the stream after one rank
    model = tmp_path / "empty.json"
    model.write_text(json.dumps(doc))
    got = run_ok(runner, cli, ["enumerate", str(model), *args])
    assert got == run_ok(runner, cli, ["oracle", str(model), *args])
    [line] = json_lines(got)
    assert (line["rank"], line["cost"], line["assignment"]) == (1, 0, {})


# --- mpe commands -------------------------------------------------------------

class TestMpeCommands:
    def test_enumerate_k4(self, runner):
        lines = json_lines(run_ok(
            runner, mpe_cli,
            ["enumerate", FIG, "--evidence", "C=true", "--k", "4"]))
        assert [r["probability"] for r in lines] == \
            pytest.approx([0.294, 0.162, 0.048, 0.028], abs=1e-9)
        assert lines[0]["instantiation"] == \
            {"A": "true", "B": "false", "C": "true"}

    def test_solve(self, runner):
        lines = json_lines(run_ok(
            runner, mpe_cli, ["solve", FIG, "--evidence", "C=true"]))
        assert len(lines) == 1
        assert lines[0]["probability"] == pytest.approx(0.294, abs=1e-9)

    def test_oracle_agrees_with_solver(self, runner):
        solver = json_lines(run_ok(
            runner, mpe_cli,
            ["enumerate", FIG, "--evidence", "C=true", "--k", "all"]))
        oracle = json_lines(run_ok(
            runner, mpe_cli,
            ["oracle", FIG, "--evidence", "C=true", "--k", "all"]))
        assert [r["probability"] for r in solver] == \
            pytest.approx([r["probability"] for r in oracle], abs=1e-9)
        assert [r["instantiation"] for r in solver] == \
            [r["instantiation"] for r in oracle]

    @pytest.mark.parametrize("command", ["enumerate", "oracle"])
    def test_an_underflowing_product_ranks_before_the_zeros(self, runner,
                                                            command):
        """X=b, Y=b has P = 1e-400, whose float64 product is 0: both
        commands rank it after the three positive products and before
        every instantiation with a zero entry, at its exact cost."""
        lines = json_lines(run_ok(runner, mpe_cli,
                                  [command, UNDERFLOW, "--k", "all"]))
        assert len(lines) == 9
        assert all(r["probability"] > 0 for r in lines[:3])
        assert lines[3]["instantiation"] == {"X": "b", "Y": "b"}
        assert lines[3]["probability"] == 0
        assert lines[3]["cost"] == pytest.approx(400 * math.log(10))
        assert all(r["cost"] > lines[3]["cost"] for r in lines[4:])

    def test_encode_matches_golden(self, runner, data_dir):
        out = run_ok(runner, mpe_cli, ["encode", FIG, "--evidence", "C=true"])
        assert out == (data_dir / "fig41_evidence_encoding.txt").read_text()

    def test_evidence_file_merges(self, runner, tmp_path):
        evidence = tmp_path / "e.json"
        evidence.write_text(json.dumps({"C": "true"}))
        lines = json_lines(run_ok(
            runner, mpe_cli,
            ["solve", FIG, "--evidence-file", str(evidence),
             "--evidence", "B=false"]))
        assert lines[0]["instantiation"]["B"] == "false"
        assert lines[0]["instantiation"]["C"] == "true"

    def test_conflicting_evidence_fails(self, runner, tmp_path):
        evidence = tmp_path / "e.json"
        evidence.write_text(json.dumps({"C": "false"}))
        result = runner.invoke(mpe_cli, ["solve", FIG, "--evidence", "C=true",
                                         "--evidence-file", str(evidence)])
        assert result.exit_code == 1

    def test_evidence_names_a_variable_with_an_equals_sign(self, runner,
                                                          tmp_path):
        model = tmp_path / "m.bn.json"
        model.write_text(json.dumps(NAME_WITH_EQUALS))
        evidence = tmp_path / "e.json"
        evidence.write_text(json.dumps({"A=b": "d"}))
        spec = run_ok(runner, mpe_cli,
                      ["solve", str(model), "--evidence", "A=b=d"])
        assert json_lines(spec)[0]["instantiation"] == {"A": "x", "A=b": "d"}
        assert spec == run_ok(runner, mpe_cli, ["solve", str(model),
                                                "--evidence-file",
                                                str(evidence)])

    def test_evidence_value_with_a_comma_is_given_in_a_file(self, runner,
                                                           tmp_path):
        """``--evidence`` splits at every ``,`` first, so ``X=a,b`` reads as
        ``X=a`` and ``b`` and is refused; the evidence file takes it."""
        model = tmp_path / "m.bn.json"
        model.write_text(json.dumps(
            {"variables": [{"name": "X", "range": ["a,b", "c"]}],
             "cpts": [{"child": "X", "parents": [], "rows": [
                 {"given": [], "probs": {"a,b": 0.2, "c": 0.8}}]}]}))
        result = runner.invoke(mpe_cli, ["solve", str(model),
                                         "--evidence", "X=a,b"])
        assert result.exit_code == 1
        assert "value X=a not in range ('a,b', 'c')" in result.stderr
        evidence = tmp_path / "e.json"
        evidence.write_text(json.dumps({"X": "a,b"}))
        [line] = json_lines(run_ok(runner, mpe_cli, [
            "solve", str(model), "--evidence-file", str(evidence)]))
        assert line["instantiation"] == {"X": "a,b"}
        assert line["probability"] == pytest.approx(0.2)

    @pytest.mark.parametrize("text, message", [
        (b'["C", "true"]', "expected an object of Var: value pairs"),
        (b'{"C": ', "line 1 column 7"),
        (b'{"C": "\xff"}', "byte 7 is not UTF-8"),
        # json.load would keep the last value and solve with C=false
        (b'{"C": "true", "C": "false"}', "evidence names 'C' twice"),
        # past the decoder's digit limit: a ValueError that is no
        # JSONDecodeError, and json.dumps of such an int hits it too
        (b'{"C": 1' + b"0" * 5000 + b"}", "digits"),
    ], ids=["array", "bad-json", "not-utf-8", "repeated-variable",
            "overlong-integer"])
    def test_bad_evidence_file_fails(self, runner, tmp_path, text, message):
        evidence = tmp_path / "e.json"
        evidence.write_bytes(text)
        result = runner.invoke(mpe_cli, ["solve", FIG,
                                         "--evidence-file", str(evidence)])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {evidence}: ")
        assert message in result.stderr


# --- gen commands -------------------------------------------------------------

class TestGenCommands:
    def test_waodag_parses_back(self, runner):
        out = run_ok(runner, gen_cli, ["waodag", "--seed", "3"])
        w = model_io.parse_waodag(json.loads(out))
        assert len(w.nodes) == 12

    def test_bn_parses_back(self, runner):
        out = run_ok(runner, gen_cli, ["bn", "--seed", "3"])
        b = model_io.parse_bayesnet(json.loads(out))
        assert len(b.variables) == 4

    def test_generated_model_solvable(self, runner, tmp_path):
        out = run_ok(runner, gen_cli, ["waodag", "--seed", "5"])
        model = tmp_path / "m.json"
        model.write_text(out)
        solver = json_lines(run_ok(runner, abduce_cli,
                                   ["enumerate", str(model), "--k", "all"]))
        oracle = json_lines(run_ok(runner, abduce_cli,
                                   ["oracle", str(model), "--k", "all"]))
        assert [pytest.approx(r["cost"], abs=1e-6) for r in oracle] == \
            [r["cost"] for r in solver]

    @pytest.mark.parametrize("seed", range(3))
    def test_strict_and_allow_extreme(self, runner, seed):
        """``--strict`` prints ``random_waodag(seed, strict=True)``, whose
        internal nodes all cost at least 1, and ``--allow-extreme`` prints
        ``random_bayesnet(seed, margin=0.0)``."""
        out = run_ok(runner, gen_cli, ["waodag", "--seed", str(seed),
                                       "--strict"])
        w = model_io.parse_waodag(json.loads(out))
        assert model_io.waodag_to_doc(w) == model_io.waodag_to_doc(
            random_waodag(seed, strict=True))
        assert all(w.cost_true[q] >= 1 for q in w.nodes if w.parents[q])
        out = run_ok(runner, gen_cli, ["bn", "--seed", str(seed),
                                       "--allow-extreme"])
        b = model_io.parse_bayesnet(json.loads(out))
        assert model_io.bayesnet_to_doc(b) == model_io.bayesnet_to_doc(
            random_bayesnet(seed, margin=0.0))

    @pytest.mark.parametrize("args, message", [
        (["waodag", "--internal", "0"], "'--internal': 0 is not in the range"),
        (["waodag", "--hypotheses", "0"], "'--hypotheses': 0"),
        (["waodag", "--max-cost", "0"], "'--max-cost': 0"),
        (["bn", "--max-range", "1"], "'--max-range': 1"),
        (["bn", "--max-parents", "-1"], "'--max-parents': -1"),
        (["bn", "--variables", "-1"], "'--variables': -1"),
    ])
    def test_bad_arguments_name_the_option(self, runner, args, message):
        result = runner.invoke(gen_cli, args + ["--seed", "0"])
        assert result.exit_code == 1
        assert message in result.stderr
        assert not isinstance(result.exception, ValueError)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_internal_nodes(self, runner, seed):
        """Half of two internal nodes is one: the evidence pool's size caps
        the evidence count."""
        out = run_ok(runner, gen_cli,
                     ["waodag", "--seed", str(seed), "--internal", "2"])
        assert json.loads(out)["evidence"] == ["n1"]


def _digest(docs):
    return hashlib.sha256(
        json.dumps(docs, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind, size, digest", [
    ("waodag", (5, 7), "c7a70fb1ac7e0104"),
    ("waodag", (8, 25), "aa5423910f024cef"),
    ("waodag", (20, 60), "76b10fc111635fb3"),
    ("bn", (4, 3), "0ea97a57fbfd636e"),
    ("bn", (10, 2), "467a96b14ca30164"),
])
def test_generated_instances_do_not_change(kind, size, digest):
    """The benchmark's instances come from the generators, so seeds 0-3 at
    its sizes give the same models, to the bit, from release to release."""
    if kind == "waodag":
        docs = [model_io.waodag_to_doc(random_waodag(s, *size))
                for s in range(4)]
    else:
        docs = [model_io.bayesnet_to_doc(random_bayesnet(s, *size))
                for s in range(4)]
    assert _digest(docs) == digest


# --- determinism and exit codes -----------------------------------------------

DETERMINISM_CASES = [
    (abduce_cli, ["solve", TONY]),
    (abduce_cli, ["enumerate", TONY, "--k", "all"]),
    (abduce_cli, ["enumerate", TONY, "--k", "all", "--mode", "cardinal"]),
    (mpe_cli, ["enumerate", FIG, "--evidence", "C=true", "--k", "all"]),
    (gen_cli, ["waodag", "--seed", "11"]),
    (gen_cli, ["bn", "--seed", "11"]),
    (gen_cli, ["waodag", "--strict", "--seed", "11"]),
    (gen_cli, ["bn", "--allow-extreme", "--seed", "11"]),
]


@pytest.mark.parametrize("cli,args", DETERMINISM_CASES,
                         ids=[" ".join(a[:2]) for _, a in DETERMINISM_CASES])
def test_byte_identical_output(runner, cli, args):
    assert run_ok(runner, cli, args) == run_ok(runner, cli, args)


# Stdout recorded from the bundled models; any change to a ranked stream, a
# tie order or a float's last digit shows here.
GOLDEN_CASES = [
    ("tony_solve", abduce_cli, ["solve", TONY]),
    ("tony_enumerate", abduce_cli, ["enumerate", TONY, "--k", "all"]),
    ("tony_enumerate_cardinal", abduce_cli,
     ["enumerate", TONY, "--k", "all", "--mode", "cardinal"]),
    ("fig41_solve", mpe_cli, ["solve", FIG]),
    ("fig41_solve_c_true", mpe_cli, ["solve", FIG, "--evidence", "C=true"]),
    ("fig41_enumerate", mpe_cli, ["enumerate", FIG, "--k", "all"]),
    ("fig41_enumerate_c_true", mpe_cli,
     ["enumerate", FIG, "--k", "all", "--evidence", "C=true"]),
    # entries of 1e-13 and 1e-14 priced exactly, and a zero entry's
    # instantiations after every one of positive probability
    ("tiny_probabilities_enumerate", mpe_cli,
     ["enumerate", TINY, "--k", "all"]),
]


@pytest.mark.parametrize("name,cli,args", GOLDEN_CASES,
                         ids=[name for name, _, _ in GOLDEN_CASES])
def test_stdout_matches_golden(runner, data_dir, name, cli, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == (data_dir / f"{name}.jsonl").read_text()


def test_floats_serialized_with_17_digits(runner):
    out = run_ok(runner, mpe_cli, ["solve", FIG, "--evidence", "C=true"])
    record = json.loads(out)
    assert format(record["probability"], ".17g") in out


COLLIDING_NETWORK = {
    "variables": [{"name": "A", "range": ["b=c", "x"]},
                  {"name": "A=b", "range": ["c", "y"]}],
    "cpts": [{"child": "A", "parents": [], "rows": [
                 {"given": [], "probs": {"b=c": 0.9, "x": 0.1}}]},
             {"child": "A=b", "parents": [], "rows": [
                 {"given": [], "probs": {"c": 0.9, "y": 0.1}}]}]}


class TestExitCodes:
    def test_bad_json_is_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert runner.invoke(abduce_cli, ["solve", str(bad)]).exit_code == 1

    def test_bad_model_is_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"nodes": [{"id": "a"}, {"id": "b", "label": "xor"}],
             "edges": [["a", "b"]]}))
        assert runner.invoke(abduce_cli, ["solve", str(bad)]).exit_code == 1

    def test_bad_k_is_exit_1(self, runner):
        for k in ("0", "-2", "abc", "1.5"):
            result = runner.invoke(abduce_cli, ["enumerate", TONY, "--k", k])
            assert result.exit_code == 1
            assert result.stderr == (
                f"error: --k must be a whole number of at least 1, or "
                f"'all', not {k!r}\n")

    @pytest.mark.parametrize("cli, args, message", [
        (abduce_cli, ["solve", "/nonexistent.json"], "does not exist"),
        (abduce_cli, ["enumerate", TONY, "--mode", "bogus"], "'bogus'"),
        (abduce_cli, ["enumerate", TONY, "--mode", "cardinal",
                      "--delta", "0.1"], "No such option"),
        (abduce_cli, ["bogus"], "No such command"),
        (gen_cli, ["waodag"], "Missing option"),
    ], ids=["missing-file", "bad-choice", "removed-option", "bad-command",
            "missing-gen-option"])
    def test_usage_error_is_exit_1(self, runner, cli, args, message):
        # exit 2 means a solver limit, so click's usage errors exit 1
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert message in result.stderr

    @pytest.mark.parametrize("evidence, message", [
        ("Ghost=true", "unknown variable 'Ghost'"),
        ("C=maybe", "C=maybe not in range"),
        ("C = true", "unknown variable 'C '"),
    ])
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_bad_evidence_is_exit_1(self, runner, command, evidence,
                                    message):
        result = runner.invoke(mpe_cli, [command, FIG, "--evidence", evidence])
        assert result.exit_code == 1
        assert message in result.stderr

    @pytest.mark.parametrize("cli, doc, message", [
        (abduce_cli, {"nodes": 5}, "'nodes' is not a list: 5"),
        (abduce_cli, {"nodes": [], "edges": 5}, "'edges' is not a list: 5"),
        (mpe_cli, {"variables": 5}, "'variables' is not a list: 5"),
        (mpe_cli, {"variables": [{"name": "A", "range": ["t", "f"]}],
                   "cpts": [{"child": "A", "parents": [], "rows": 7}]},
         "rows of 'A' is not a list: 7"),
        (mpe_cli, {"variables": [{"name": "A", "range": ["t", "f"]}],
                   "cpts": [{"child": "A", "parents": [],
                             "rows": [{"given": [], "probs": [0.5, 0.5]}]}]},
         "'probs' of a 'A' row is not an object: [0.5, 0.5]"),
        (abduce_cli, {"nodes": [{"id": "a", "cost_true": [1]}]},
         "a cost of 'a' is not a number: {'id': 'a', 'cost_true': [1]}"),
        (abduce_cli, {"nodes": [{"id": ["x"]}]},
         "node id is not a string or number: ['x']"),
        (abduce_cli, {"nodes": [{"id": "b"}, {"id": "c"}], "evidence": "bc"},
         "'evidence' is not a list: 'bc'"),
        (abduce_cli, {"nodes": [{"id": None}]},
         "node id is not a string or number: None"),
        (abduce_cli, {"nodes": [{"cost_true": 1}]},
         "node entry without 'id': {'cost_true': 1}"),
        (abduce_cli, [], "expected an object with a 'nodes' list"),
        (mpe_cli, [], "expected an object with a 'variables' list"),
        (abduce_cli, {"nodes": [{"id": "a"}], "edges": [["a"]]},
         "edge is not a [parent, child] pair: ['a']"),
        (mpe_cli, {"variables": [{"name": "A", "range": ["t", "f"]}],
                   "cpts": [{"child": "Z", "parents": [], "rows": []}]},
         "cpt for unknown variable 'Z'"),
        (mpe_cli, {"variables": [{"name": "A", "range": ["t", "f"]}],
                   "cpts": [{"child": "A", "parents": [], "rows": [
                       {"given": ["t"], "probs": {"t": 1.0}}]}]},
         "cpt row for 'A' gives 1 parent values, expected 0"),
        (mpe_cli, {"variables": [{"name": "A", "range": ["t", "f"]}],
                   "cpts": [{"child": "A", "parents": [], "rows": [
                       {"given": [], "probs": {"t": "x", "f": 0.5}}]}]},
         "P(A=t | ()) = 'x' is not a number"),
    ], ids=["nodes", "edges", "variables", "rows", "probs", "cost", "id",
            "evidence-string", "null-id", "entry-key", "waodag-document",
            "bayesnet-document", "edge-pair", "cpt-child", "given-length",
            "probability-number"])
    def test_malformed_model_is_exit_1(self, runner, tmp_path, cli, doc,
                                       message):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["solve", str(model)])
        assert result.exit_code == 1
        assert result.stderr == f"error: {message}\n"
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("cli, doc, args, message", [
        (abduce_cli, {"nodes": [{"id": "a"}], "evidence": ["ghost"]}, [],
         "unknown evidence node 'ghost'"),
        (mpe_cli, {"variables": [{"name": "A", "range": ["t", "f"]}],
                   "cpts": [{"child": "A", "parents": [],
                             "rows": [{"given": [], "probs": {"t": 1.0}}]}]},
         [], "missing CPT entry P(A=f | ())"),
        (mpe_cli, {"variables": [{"name": "A", "range": ["t", "f"]}],
                   "cpts": [{"child": "A", "parents": [], "rows": [
                       {"given": [], "probs": {"t": 1.5, "f": -0.5}}]}]},
         [], "P(A=t | ()) = 1.5 is not in [0, 1]"),
        (mpe_cli, {"variables": [{"name": "A", "range": []}]}, [],
         "variable 'A' has an empty range"),
        (mpe_cli, {"variables": [{"name": "A", "range": ["t", "f"]},
                                 {"name": "B", "range": ["t", "f"]}],
                   "cpts": [{"child": "A", "parents": [], "rows": [
                                {"given": [], "probs": {"t": 0.5, "f": 0.5}}]},
                            {"child": "B", "parents": ["A"], "rows": [
                                {"given": [g], "probs": {"t": 0.5, "f": 0.5}}
                                for g in ("t", "f", "x")]}]},
         [], "2 CPT entries reference unknown configurations"),
        # float() of an integer past float range raises OverflowError
        (abduce_cli, {"nodes": [{"id": "a", "cost_true": 10 ** 400}]}, [],
         "a cost of 'a' is beyond float range"),
        (mpe_cli, {"variables": [{"name": "A", "range": ["t", "f"]}],
                   "cpts": [{"child": "A", "parents": [], "rows": [
                       {"given": [], "probs": {"t": 10 ** 400, "f": 0}}]}]},
         [], "P(A=t | ()) is beyond float range"),
    ], ids=["evidence-node", "missing-entry", "probability-range",
            "empty-range", "unknown-configuration", "cost-overflow",
            "probability-overflow"])
    def test_model_error_names_its_problem(self, runner, tmp_path, cli, doc,
                                           args, message):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["solve", str(model), *args])
        assert result.exit_code == 1
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("cli, doc, args, field, want", [
        (abduce_cli, {"nodes": [{"id": 1, "cost_true": 3},
                                {"id": "a", "cost_true": 2},
                                {"id": "e", "label": "or"}],
                      "edges": [[1, "e"], ["a", "e"]], "evidence": ["e"]},
         [], "hypotheses", ["a"]),
        (mpe_cli, {"variables": [{"name": "X", "range": [1, 2]}],
                   "cpts": [{"child": "X", "parents": [], "rows": [
                       {"given": [], "probs": {"1": 0.3, "2": 0.7}}]}]},
         [], "instantiation", {"X": "2"}),
        (mpe_cli, {"variables": [{"name": 7, "range": ["a", "b"]}],
                   "cpts": [{"child": 7, "parents": [], "rows": [
                       {"given": [], "probs": {"a": 0.3, "b": 0.7}}]}]},
         ["--evidence", "7=a"], "instantiation", {"7": "a"}),
    ], ids=["mixed-ids", "numeric-range", "numeric-variable"])
    def test_numeric_names_solve(self, runner, tmp_path, cli, doc, args,
                                 field, want):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        [line] = json_lines(run_ok(runner, cli, ["solve", str(model), *args]))
        assert line[field] == want

    @pytest.mark.parametrize("command, args", [
        ("enumerate", []), ("encode", []),
        ("solve", ["--evidence", "A=b=c"]),
    ], ids=["enumerate", "encode", "evidence-reads-two-ways"])
    def test_shared_entry_name_is_exit_1(self, runner, tmp_path, command,
                                         args):
        """``A`` = ``b=c`` and ``A=b`` = ``c`` would both be the indicator
        ``A=b=c``; one variable for the two gave 2 ranks of the 4.  Evidence
        ``A=b=c`` reads both ways, and the encoder refuses the network."""
        model = tmp_path / "colliding.json"
        model.write_text(json.dumps(COLLIDING_NETWORK))
        result = runner.invoke(mpe_cli, [command, str(model), *args])
        assert result.exit_code == 1
        assert result.stderr == ("error: two network entries are both named "
                                 "'A=b=c'; rename a variable or a value\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("cli, model, target, empty", [
        (abduce_cli, TONY, "solve_optimal", None),
        (mpe_cli, FIG, "enumerate_permissible", []),
    ], ids=["abduce", "mpe"])
    def test_no_explanation_is_exit_1(self, runner, monkeypatch, cli, model,
                                      target, empty):
        # no bundled model lacks an explanation, so the search is stubbed
        monkeypatch.setattr(search, target, lambda *args: empty)
        result = runner.invoke(cli, ["solve", model])
        assert result.exit_code == 1
        assert result.stderr == "no explanation exists\n"
        assert result.stdout == ""

    def test_solver_limit_is_exit_2(self, runner, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverLimit("forced for the test")
        monkeypatch.setattr(search, "solve_optimal", boom)
        result = runner.invoke(abduce_cli, ["solve", TONY])
        assert result.exit_code == 2

    def test_uncertified_optimum_is_exit_2(self, runner, monkeypatch):
        # every simplex basis fails its dual-feasibility certificate
        monkeypatch.setattr(sx._Worker, "_dual_feasible", lambda worker: False)
        result = runner.invoke(abduce_cli, ["solve", TONY])
        assert result.exit_code == 2
        assert "solver limit" in result.output
        assert '"rank"' not in result.output

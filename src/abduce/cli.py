"""Command-line entry points: `abduce`, `mpe`, and `gen`.

Results are emitted as JSON lines, one per ranked solution, with numbers
formatted to 17 significant digits so identical inputs give byte-identical
output.  Exit codes: 0 success, 1 a ``ModelError`` or usage error, 2 a
``SolverLimit``.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import Optional

import click

from . import bayes as bn
from . import generate
from . import model_io
from . import search
from . import waodag as wd
from .constraints import (
    apply_evidence,
    dump,
    encode_bayesnet,
    encode_waodag,
    instantiation_to_solution,
    objective,
    truth_to_solution,
)
from .errors import ModelError, SolverLimit


def _jval(obj):
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, dict):
        items = (f"{json.dumps(k)}: {_jval(v)}"
                 for k, v in sorted(obj.items()))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jval(v) for v in obj) + "]"
    return json.dumps(obj)


def emit(record: dict) -> None:
    click.echo(_jval(record))


@contextlib.contextmanager
def _exit_codes():
    try:
        yield
    except click.UsageError as exc:  # BadParameter is one too
        exc.exit_code = 1
        raise
    except SolverLimit as exc:
        click.echo(f"solver limit: {exc}", err=True)
        sys.exit(2)
    except (ModelError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


class _Group(click.Group):
    """A command group that maps each failure of its commands to the exit
    codes of the module docstring, click's usage errors (exit 2 in click)
    included.  The group parses its own arguments in ``make_context``, and
    its command's in ``invoke``."""

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


def _parse_k(value: str) -> object:
    if value.lower() == "all":
        return search.ALL
    try:
        k = int(value)
    except ValueError:
        k = 0
    if k < 1:
        raise ModelError(f"--k must be a whole number of at least 1, or "
                         f"'all', not {value!r}")
    return k


def _waodag_record(rank, assignment, cost, w: wd.Waodag) -> dict:
    hyps = sorted(q for q in w.hypotheses if assignment[q])
    return {"rank": rank, "cost": cost, "assignment": dict(assignment),
            "hypotheses": hyps}


# --- abduce -----------------------------------------------------------------

@click.group(cls=_Group)
def abduce():
    """Cost-based abduction over weighted AND/OR DAG model files."""


@abduce.command("solve")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
def abduce_solve(model):
    w = model_io.parse_waodag_file(model)
    enc = encode_waodag(w)
    best = search.solve_optimal(enc.system)
    if best is None:
        click.echo("no explanation exists", err=True)
        sys.exit(1)
    emit(_waodag_record(1, best.assignment, best.cost, w))


@abduce.command("enumerate")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["all", "cardinal"]), default="all")
@click.option("--k", default="all", help="number of solutions, or 'all'")
def abduce_enumerate(model, mode, k):
    w = model_io.parse_waodag_file(model)
    enc = encode_waodag(w)
    want = _parse_k(k)
    ranked = (search.enumerate_cardinal(enc, want) if mode == "cardinal"
              else search.enumerate_best(enc.system, want))
    for r in ranked:
        emit(_waodag_record(r.rank, r.assignment, r.cost, w))


@abduce.command("oracle")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["all", "cardinal"]), default="all")
@click.option("--k", default="all")
def abduce_oracle(model, mode, k):
    w = model_io.parse_waodag_file(model)
    enc = encode_waodag(w)
    want = _parse_k(k)
    listed = wd.enumerate_explanations_oracle(w)
    if mode == "cardinal":
        listed = [(e, c) for e, c in listed if wd.is_cardinal(w, e)]
    for rank, (e, c) in search.ranked(listed, want):
        emit(_waodag_record(rank, truth_to_solution(enc, e), c, w))


@abduce.command("encode")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
def abduce_encode(model):
    w = model_io.parse_waodag_file(model)
    click.echo(dump(encode_waodag(w).system))


# --- mpe --------------------------------------------------------------------

def _mpe_encoding(model: str, evidence: Optional[str],
                  evidence_file: Optional[str]):
    """The model's encoding with the evidence of both options applied, and
    that evidence; ``apply_evidence`` checks its variables and values."""
    b = model_io.parse_bayesnet_file(model)
    e = model_io.parse_evidence_file(evidence_file) if evidence_file else {}
    for var, val in model_io.parse_evidence_spec(evidence or "", b).items():
        if e.setdefault(var, val) != val:
            raise ModelError(f"conflicting evidence for {var!r}")
    return apply_evidence(encode_bayesnet(b), e), e


def _mpe_record(rank, r_assignment, cost, prob, inst) -> dict:
    return {"rank": rank, "cost": cost, "probability": prob,
            "assignment": dict(r_assignment), "instantiation": dict(inst)}


@click.group(cls=_Group)
def mpe():
    """Belief revision (k-best MPE) over Bayesian-network model files."""


def _mpe_model_options(f):
    f = click.option("--evidence", default=None,
                     help="comma-separated Var=value pairs; give a name "
                          "or value that holds ',' in --evidence-file")(f)
    f = click.option("--evidence-file",
                     type=click.Path(exists=True, dir_okay=False),
                     default=None)(f)
    return f


@mpe.command("solve")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@_mpe_model_options
def mpe_solve(model, evidence, evidence_file):
    enc, _ = _mpe_encoding(model, evidence, evidence_file)
    ranked = search.enumerate_permissible(enc, 1)
    if not ranked:
        click.echo("no explanation exists", err=True)
        sys.exit(1)
    r = ranked[0]
    emit(_mpe_record(1, r.assignment, r.cost, r.probability, r.instantiation))


@mpe.command("enumerate")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@_mpe_model_options
@click.option("--k", default="all")
def mpe_enumerate(model, evidence, evidence_file, k):
    enc, _ = _mpe_encoding(model, evidence, evidence_file)
    for r in search.enumerate_permissible(enc, _parse_k(k)):
        emit(_mpe_record(r.rank, r.assignment, r.cost, r.probability,
                         r.instantiation))


@mpe.command("oracle")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@_mpe_model_options
@click.option("--k", default="all")
def mpe_oracle(model, evidence, evidence_file, k):
    enc, e = _mpe_encoding(model, evidence, evidence_file)
    want = _parse_k(k)
    for rank, (w, p) in search.ranked(bn.enumerate_mpe_oracle(enc.network, e),
                                      want):
        s = instantiation_to_solution(enc, w)
        emit(_mpe_record(rank, s, objective(enc.system, s), p, w))


@mpe.command("encode")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@_mpe_model_options
def mpe_encode(model, evidence, evidence_file):
    enc, _ = _mpe_encoding(model, evidence, evidence_file)
    click.echo(dump(enc.system))


# --- gen --------------------------------------------------------------------

@click.group(cls=_Group)
def gen():
    """Seeded random model instances, printed as model JSON."""


@gen.command("waodag")
@click.option("--seed", type=int, required=True)
@click.option("--hypotheses", type=click.IntRange(min=1), default=5)
@click.option("--internal", type=click.IntRange(min=1), default=7)
@click.option("--max-cost", type=click.IntRange(min=1), default=10)
@click.option("--strict", is_flag=True, default=False)
def gen_waodag(seed, hypotheses, internal, max_cost, strict):
    w = generate.random_waodag(seed, hypotheses, internal, max_cost, strict)
    click.echo(_jval(model_io.waodag_to_doc(w)))


@gen.command("bn")
@click.option("--seed", type=int, required=True)
@click.option("--variables", type=click.IntRange(min=0), default=4)
@click.option("--max-range", type=click.IntRange(min=2), default=3)
@click.option("--max-parents", type=click.IntRange(min=0), default=2)
@click.option("--allow-extreme", is_flag=True, default=False,
              help="let CPT entries approach 0 and 1")
def gen_bn(seed, variables, max_range, max_parents, allow_extreme):
    b = generate.random_bayesnet(seed, variables, max_range, max_parents,
                                 margin=0.0 if allow_extreme else 0.05)
    click.echo(_jval(model_io.bayesnet_to_doc(b)))

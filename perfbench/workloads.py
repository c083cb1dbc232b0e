"""The four benchmark workloads: seeded model files and the queries on them.

Every instance is drawn with ``abduce.generate`` from the run's seed and
written to a model file; the program only ever sees those files.  A query is
one user request, from model file to last ranked solution: either a call
into the library (parse, encode, search) or, for ``cli-small``, one whole
``abduce``/``mpe`` process.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

# Highest percentile that keeps at least ten queries beyond it at the query
# counts a run of the benchmark's length makes at the seed commit, except
# for waodag-large: its cardinal queries have a long tail, and its p95 over
# the ~650 queries of a run still moved by a quarter between seeds.
TAIL_PERCENTILE = {"cli-small": 75, "waodag-kbest": 85, "mpe-kbest": 90,
                   "waodag-large": 90}

# Distinct instances per run.  The medians are taken across instances, so a
# run must see many of them for two seeds to agree; waodag-large has more
# queries than a run makes, so no instance is counted twice in its tail.
POOL = {"cli-small": 8, "waodag-kbest": 96, "mpe-kbest": 128,
        "waodag-large": 512}

KBEST_K = 8
# k=all in cardinal mode has a tail of single queries near 10 s, which would
# make a run's tail metric depend on whether one of them was drawn.
LARGE_CARDINAL_K = 4

BOOTSTRAP = ("import sys; from abduce import cli; "
             "getattr(cli, sys.argv[1])(sys.argv[2:], prog_name=sys.argv[1])")


@dataclass
class Instance:
    kind: str                       # "waodag" or "bn"
    path: str
    doc: dict                       # the model file's JSON, for the reference
    evidence: Dict[str, str] = field(default_factory=dict)


@dataclass
class Query:
    inst: Instance
    mode: str                       # optimum, all, cardinal or permissible
    k: Optional[int]                # None means every solution
    argv: Optional[List[str]] = None  # CLI arguments after the interpreter

    @property
    def label(self) -> str:
        return f"{Path(self.inst.path).name}:{self.mode}:{self.k or 'all'}"


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def _gen_waodag(seed: int, out: Path, hyps: int, internal: int) -> Instance:
    from abduce import generate, model_io
    doc = model_io.waodag_to_doc(generate.random_waodag(seed, hyps, internal))
    return Instance("waodag", _write(out / f"w{seed}.waodag.json", doc), doc)


def _gen_bn(seed: int, out: Path, variables: int, max_range: int) -> Instance:
    from abduce import generate, model_io
    net = generate.random_bayesnet(seed, variables, max_range)
    ev = generate.random_evidence(seed, net, 2)
    doc = model_io.bayesnet_to_doc(net)
    return Instance("bn", _write(out / f"b{seed}.bn.json", doc), doc, ev)


def _bundled(root: Path, name: str, kind: str) -> Instance:
    path = root / "src" / "abduce" / "models" / name
    doc = json.loads(path.read_text(encoding="utf-8"))
    return Instance(kind, str(path), doc)


def build(workload: str, seed: int, root: Path, out: Path) -> List[Query]:
    """Write this seed's model files under ``out``; return the query cycle."""
    rng = random.Random(f"{workload}:{seed}")
    seeds = [rng.randrange(2 ** 31) for _ in range(POOL[workload])]
    queries: List[Query] = []
    if workload == "cli-small":
        tony = _bundled(root, "tony.waodag.json", "waodag")
        fig = _bundled(root, "fig41.bn.json", "bn")
        fig_ev = Instance("bn", fig.path, fig.doc, {"C": "true"})
        queries += [
            Query(tony, "optimum", 1, ["abduce", "solve", tony.path]),
            Query(tony, "all", None, ["abduce", "enumerate", tony.path, "--k", "all"]),
            Query(tony, "cardinal", None, ["abduce", "enumerate", tony.path,
                                           "--k", "all", "--mode", "cardinal"]),
            Query(fig, "permissible", 1, ["mpe", "solve", fig.path]),
            Query(fig_ev, "permissible", None, ["mpe", "enumerate", fig.path,
                                                "--evidence", "C=true", "--k", "all"]),
        ]
        # Mostly one-rank requests, so that rank_s.p50 is a process time and
        # does not jump with how many explanations a seed's models have.
        for s in seeds:
            w = _gen_waodag(s, out, 5, 7)
            b = _gen_bn(s, out, 4, 3)
            b = Instance(b.kind, b.path, b.doc, {})
            queries += [
                Query(w, "optimum", 1, ["abduce", "solve", w.path]),
                Query(w, "cardinal", None, ["abduce", "enumerate", w.path,
                                            "--k", "all", "--mode", "cardinal"]),
                Query(b, "permissible", 1, ["mpe", "solve", b.path]),
            ]
    elif workload == "waodag-kbest":
        for s in seeds:
            queries.append(Query(_gen_waodag(s, out, 8, 25), "all", KBEST_K))
    elif workload == "mpe-kbest":
        for s in seeds:
            queries.append(Query(_gen_bn(s, out, 10, 2), "permissible", KBEST_K))
    elif workload == "waodag-large":
        for s in seeds:
            inst = _gen_waodag(s, out, 20, 60)
            queries += [Query(inst, "optimum", 1),
                        Query(inst, "cardinal", LARGE_CARDINAL_K)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return queries


def run_inprocess(q: Query) -> List[dict]:
    """One library query; layer functions are looked up on their modules so
    that the traced run's wrappers see every call."""
    from abduce import constraints, model_io, search

    k = search.ALL if q.k is None else q.k
    if q.inst.kind == "waodag":
        w = model_io.parse_waodag_file(q.inst.path)
        enc = constraints.encode_waodag(w)
        if q.mode == "optimum":
            best = search.solve_optimal(enc.system)
            ranked = [] if best is None else [best]
        elif q.mode == "all":
            ranked = search.enumerate_best(enc.system, k)
        else:
            ranked = search.enumerate_cardinal(enc, k)
    else:
        b = model_io.parse_bayesnet_file(q.inst.path)
        enc = constraints.apply_evidence(constraints.encode_bayesnet(b),
                                         q.inst.evidence)
        ranked = search.enumerate_permissible(enc, k)
    return [{"assignment": r.assignment, "cost": r.cost,
             "probability": r.probability, "instantiation": r.instantiation}
            for r in ranked]

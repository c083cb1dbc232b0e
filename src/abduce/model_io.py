"""JSON model files for WAODAGs and Bayesian networks.

WAODAG schema: {"nodes": [{"id", "label", "cost_true", "cost_false"}],
"edges": [[parent, child]], "evidence": [id]}.  Labels on hypothesis nodes
are optional and ignored; omitted costs default to 0.

Bayesian-network schema: {"variables": [{"name", "range"}],
"cpts": [{"child", "parents", "rows": [{"given", "probs"}]}]}.  Priors use
"given": [].
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

from . import bayes as bn
from . import waodag as wd
from .errors import ParseError


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from exc


def _intern(node: Any) -> Any:
    return sys.intern(node) if type(node) is str else node


def parse_waodag(doc: Any) -> wd.Waodag:
    """Node ids that are strings are interned, so every parse of the same
    names, and every solution keyed by them, shares one copy of each."""
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ParseError("expected an object with a 'nodes' list")
    nodes = []
    label: Dict[str, str] = {}
    cost_true: Dict[str, float] = {}
    cost_false: Dict[str, float] = {}
    for entry in doc["nodes"]:
        try:
            node = _intern(entry["id"])
        except (TypeError, KeyError):
            raise ParseError(f"node entry without an id: {entry!r}")
        nodes.append(node)
        if "label" in entry:
            if entry["label"] not in (wd.AND, wd.OR):
                raise ParseError(f"unknown label {entry['label']!r} on {node!r}")
            label[node] = entry["label"]
        cost_true[node] = float(entry.get("cost_true", 0.0))
        cost_false[node] = float(entry.get("cost_false", 0.0))
    edges = []
    for pair in doc.get("edges", []):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"edge is not a [parent, child] pair: {pair!r}")
        edges.append((_intern(pair[0]), _intern(pair[1])))
    w = wd.Waodag.build(nodes, edges, label, cost_true, cost_false,
                        doc.get("evidence", []))
    wd.validate(w)
    return w


def parse_waodag_file(path: str) -> wd.Waodag:
    return parse_waodag(_load_json(path))


def waodag_to_doc(w: wd.Waodag) -> dict:
    nodes = []
    for q in w.nodes:
        entry: Dict[str, Any] = {"id": q}
        if w.parents[q]:
            entry["label"] = w.label[q]
        if w.cost_true[q]:
            entry["cost_true"] = w.cost_true[q]
        if w.cost_false[q]:
            entry["cost_false"] = w.cost_false[q]
        nodes.append(entry)
    return {
        "nodes": nodes,
        "edges": [[p, c] for p, c in w.edges],
        "evidence": sorted(w.evidence),
    }


def parse_bayesnet(doc: Any) -> bn.BayesianNetwork:
    if not isinstance(doc, dict) or "variables" not in doc:
        raise ParseError("expected an object with a 'variables' list")
    variables = []
    ranges: Dict[str, tuple] = {}
    for entry in doc["variables"]:
        try:
            name = entry["name"]
            rng = tuple(entry["range"])
        except (TypeError, KeyError):
            raise ParseError(f"bad variable entry: {entry!r}")
        variables.append(name)
        ranges[name] = rng
    parents: Dict[str, tuple] = {v: () for v in variables}
    cpt: Dict[bn.CptKey, float] = {}
    for block in doc.get("cpts", []):
        try:
            child = block["child"]
            ps = tuple(block["parents"])
            rows = block["rows"]
        except (TypeError, KeyError):
            raise ParseError(f"bad cpt block: {block!r}")
        if child not in ranges:
            raise ParseError(f"cpt for unknown variable {child!r}")
        parents[child] = ps
        for row in rows:
            try:
                given = tuple(row["given"])
                probs = row["probs"]
            except (TypeError, KeyError):
                raise ParseError(f"bad cpt row: {row!r}")
            if len(given) != len(ps):
                raise ParseError(
                    f"cpt row for {child!r} gives {len(given)} parent values, "
                    f"expected {len(ps)}")
            for value, p in probs.items():
                cpt[(child, value, given)] = float(p)
    b = bn.BayesianNetwork(tuple(variables), ranges, parents, cpt)
    bn.validate(b)
    return b


def parse_bayesnet_file(path: str) -> bn.BayesianNetwork:
    return parse_bayesnet(_load_json(path))


def bayesnet_to_doc(b: bn.BayesianNetwork) -> dict:
    cpts = []
    for v in b.variables:
        rows = []
        for config in b.parent_configs(v):
            config = tuple(config)
            rows.append({
                "given": list(config),
                "probs": {a: b.cpt[(v, a, config)] for a in b.ranges[v]},
            })
        cpts.append({"child": v, "parents": list(b.parents[v]), "rows": rows})
    return {
        "variables": [{"name": v, "range": list(b.ranges[v])}
                      for v in b.variables],
        "cpts": cpts,
    }


def parse_evidence_spec(spec: str) -> bn.InstantiationSet:
    """Comma-separated Var=value pairs."""
    out: bn.InstantiationSet = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"evidence item {chunk!r} is not Var=value")
        var, _, val = chunk.partition("=")
        var, val = var.strip(), val.strip()
        if var in out and out[var] != val:
            raise ParseError(f"conflicting evidence for {var!r}")
        out[var] = val
    return out

"""JSON model files for WAODAGs and Bayesian networks.

WAODAG schema: {"nodes": [{"id", "label", "cost_true", "cost_false"}],
"edges": [[parent, child]], "evidence": [id]}.  Labels on hypothesis nodes
are optional and ignored; omitted costs default to 0.

Bayesian-network schema: {"variables": [{"name", "range"}],
"cpts": [{"child", "parents", "rows": [{"given", "probs"}]}]}.  Priors use
"given": [].  Every id, name and value is read as a string, a JSON number
or true/false as its JSON text.  A malformed document raises ModelError
naming what is wrong.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

from . import bayes as bn
from . import waodag as wd
from .errors import ModelError


def _load_json(path: str, object_pairs_hook=None) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: byte {exc.start} is not UTF-8") from exc
    except ValueError as exc:  # the decoder's other refusals
        raise ModelError(f"{path}: {exc}") from exc


def _field(entry: Any, key: str, what: str) -> Any:
    if not isinstance(entry, dict) or key not in entry:
        raise ModelError(f"{what} without {key!r}: {entry!r}")
    return entry[key]


def _list(value: Any, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{what} is not a list: {value!r}")
    return value


def _name(value: Any, what: str) -> str:
    """``value`` as a name (``1`` is ``"1"``, ``true`` is ``"true"``), interned
    so that every parse of the same names, and every solution keyed by them,
    shares one copy of each."""
    if type(value) is not str:
        if not isinstance(value, (int, float)):
            raise ModelError(f"{what} is not a string or number: {value!r}")
        value = json.dumps(value)
    return sys.intern(value)


def _names(value: Any, what: str) -> tuple:
    return tuple(_name(x, what) for x in _list(value, what))


def parse_waodag(doc: Any) -> wd.Waodag:
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ModelError("expected an object with a 'nodes' list")
    nodes = []
    label: Dict[str, str] = {}
    cost_true: Dict[str, float] = {}
    cost_false: Dict[str, float] = {}
    for entry in _list(doc["nodes"], "'nodes'"):
        node = _name(_field(entry, "id", "node entry"), "node id")
        nodes.append(node)
        if "label" in entry:
            if entry["label"] not in (wd.AND, wd.OR):
                raise ModelError(f"unknown label {entry['label']!r} on {node!r}")
            label[node] = entry["label"]
        try:
            cost_true[node] = float(entry.get("cost_true", 0.0))
            cost_false[node] = float(entry.get("cost_false", 0.0))
        except OverflowError:
            raise ModelError(f"a cost of {node!r} is beyond float range")
        except (TypeError, ValueError):
            raise ModelError(f"a cost of {node!r} is not a number: {entry!r}")
    edges = []
    for pair in _list(doc.get("edges", []), "'edges'"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ModelError(f"edge is not a [parent, child] pair: {pair!r}")
        edges.append((_name(pair[0], "edge end"), _name(pair[1], "edge end")))
    evidence = _names(doc.get("evidence", []), "'evidence'")
    w = wd.Waodag.build(nodes, edges, label, cost_true, cost_false, evidence)
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
        raise ModelError("expected an object with a 'variables' list")
    variables = []
    ranges: Dict[str, tuple] = {}
    for entry in _list(doc["variables"], "'variables'"):
        name = _name(_field(entry, "name", "variable entry"), "variable name")
        variables.append(name)
        ranges[name] = _names(_field(entry, "range", "variable entry"),
                              f"range of {name!r}")
    parents: Dict[str, tuple] = {v: () for v in variables}
    cpt: Dict[bn.CptKey, float] = {}
    for block in _list(doc.get("cpts", []), "'cpts'"):
        child = _name(_field(block, "child", "cpt block"), "cpt child")
        ps = _names(_field(block, "parents", "cpt block"),
                    f"parents of {child!r}")
        rows = _list(_field(block, "rows", "cpt block"), f"rows of {child!r}")
        if child not in ranges:
            raise ModelError(f"cpt for unknown variable {child!r}")
        parents[child] = ps
        for row in rows:
            given = _names(_field(row, "given", "cpt row"),
                           f"'given' of a {child!r} row")
            probs = _field(row, "probs", "cpt row")
            if not isinstance(probs, dict):
                raise ModelError(f"'probs' of a {child!r} row is not an "
                                 f"object: {probs!r}")
            if len(given) != len(ps):
                raise ModelError(
                    f"cpt row for {child!r} gives {len(given)} parent values, "
                    f"expected {len(ps)}")
            for value, p in probs.items():
                value = _name(value, f"a 'probs' key of {child!r}")
                try:
                    cpt[(child, value, given)] = float(p)
                except OverflowError:
                    raise ModelError(f"P({child}={value} | {given!r}) is "
                                     f"beyond float range")
                except (TypeError, ValueError):
                    raise ModelError(f"P({child}={value} | {given!r}) = {p!r} "
                                     f"is not a number")
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


def parse_evidence_spec(spec: str, b: bn.BayesianNetwork
                        ) -> bn.InstantiationSet:
    """Comma-separated Var=value pairs, read against ``b``.  Each item, with
    its outer spaces stripped, splits at the ``=`` that leaves a variable of
    ``b`` on the left and a value in its range on the right, both as
    written, so ``A=b=d`` names the variable ``A=b`` when ``A`` has no value
    ``b=d``, and ``C = true`` names the variable ``C ``; an item with no
    such split is refused.  A name or value that holds ``,`` is given in an
    evidence file instead."""
    out: bn.InstantiationSet = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ModelError(f"evidence item {chunk!r} is not Var=value")
        splits = [(chunk[:i], chunk[i + 1:])
                  for i, c in enumerate(chunk) if c == "="]
        fits = [(var, val) for var, val in splits
                if val in b.ranges.get(var, ())]
        if not fits:
            # no reading fits: the check of the first says what is wrong
            bn.check_entries(b, dict(splits[:1]))
        # two splits fit only when two indicators share the item as their
        # name, which encode_bayesnet refuses
        var, val = fits[0]
        if var in out and out[var] != val:
            raise ModelError(f"conflicting evidence for {var!r}")
        out[var] = val
    return out


def parse_evidence_file(path: str) -> bn.InstantiationSet:
    """A JSON object of Var: value pairs; each value is read as a name.  A
    variable named twice is refused, where ``json.load`` keeps the last."""
    def once(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ModelError(f"{path}: evidence names {key!r} twice")
            doc[key] = value
        return doc

    doc = _load_json(path, once)
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: expected an object of Var: value pairs")
    return {_name(var, "evidence variable"):
            _name(val, f"evidence for {var!r}") for var, val in doc.items()}

"""Independent references for the benchmark's queries, and the stream check.

References are brute force over the model file's JSON, written here with
numpy and sharing no code with the solver: every hypothesis subset of a
WAODAG (bit-packed, so the 2^20 subsets of ``waodag-large`` take
milliseconds) and every instantiation of a Bayesian network.  Each stream
is then compared tie-aware against the reference and checked point by
point against the original constraint system.

Print the references for any seed with

    python3 perfbench/reference.py --workload waodag-large --seed 1

run from the repository root.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

TOL = 1e-6


# --- WAODAG -----------------------------------------------------------------

def _waodag_shape(doc):
    nodes = [n["id"] for n in doc["nodes"]]
    parents = {q: [] for q in nodes}
    for p, c in doc["edges"]:
        parents[c].append(p)
    order, seen = [], set()

    def visit(q):
        if q in seen:
            return
        seen.add(q)
        for p in parents[q]:
            visit(p)
        order.append(q)

    for q in nodes:
        visit(q)
    label = {n["id"]: n.get("label") for n in doc["nodes"]}
    cost = {n["id"]: (float(n.get("cost_true", 0.0)),
                      float(n.get("cost_false", 0.0))) for n in doc["nodes"]}
    hyps = [q for q in nodes if not parents[q]]
    return nodes, parents, order, label, cost, hyps


@lru_cache(maxsize=None)
def _bit_table(n_hyps: int, i: int) -> np.ndarray:
    """Packed truth table of hypothesis ``i`` over all 2^n_hyps subsets."""
    bits = (np.arange(1 << n_hyps) >> i) & 1
    return np.packbits(bits.astype(np.uint8), bitorder="little")


def _minimal(ok: np.ndarray, n_hyps: int) -> np.ndarray:
    """Clear every subset that still explains with one hypothesis removed.

    Subset m sits at bit m % 8 of byte m // 8.  Hypotheses 0-2 pair bits
    inside a byte; higher ones pair whole bytes 2^(i-3) apart.
    """
    keep = ok.copy()
    for i in range(n_hyps):
        if i < 3:
            step = 1 << i
            has_i = np.uint8(sum(1 << j for j in range(8) if j & step))
            keep &= ~((ok << step) & has_i)
        else:
            half = 1 << (i - 3)
            keep.reshape(-1, 2, half)[:, 1, :] &= ~ok.reshape(-1, 2, half)[:, 0, :]
    return keep


def waodag_reference(doc, cardinal: bool = False):
    """All explanations (or the cardinal ones) as sorted (cost, hypothesis set)."""
    nodes, parents, order, label, cost, hyps = _waodag_shape(doc)
    count = 1 << len(hyps)
    table = {h: _bit_table(len(hyps), i) for i, h in enumerate(hyps)}
    for q in order:
        if parents[q]:
            op = np.bitwise_and if label[q] == "and" else np.bitwise_or
            table[q] = op.reduce([table[p] for p in parents[q]])
    ok = np.bitwise_and.reduce([table[q] for q in doc["evidence"]]) \
        if doc["evidence"] else np.full_like(table[hyps[0]], 255)
    if cardinal:
        ok = _minimal(ok, len(hyps))
    explains = np.unpackbits(ok, count=count, bitorder="little").astype(bool)
    masks = np.flatnonzero(explains)
    total = np.zeros(len(masks))
    for q in nodes:
        on = (table[q][masks >> 3] >> (masks & 7)) & 1
        total += np.where(on == 1, cost[q][0], cost[q][1])
    out = [(float(c), frozenset(h for i, h in enumerate(hyps) if m >> i & 1))
           for c, m in zip(total, masks.tolist())]
    out.sort(key=lambda t: (t[0], sorted(t[1])))
    return out


def _check_waodag_point(doc, rec, system):
    nodes, parents, _, label, cost, hyps = _waodag_shape(doc)
    a = rec["assignment"]
    key = frozenset(h for h in hyps if a.get(h))
    if set(a) != set(nodes) or any(v not in (0, 1) for v in a.values()):
        return "assignment is not a 0-1 point over the nodes", key
    for q in nodes:
        ps = parents[q]
        if ps:
            want = (all if label[q] == "and" else any)(a[p] for p in ps)
            if a[q] != int(want):
                return f"node {q} breaks its {label[q]} rule", key
    if not all(a[q] for q in doc["evidence"]):
        return "evidence not proved", key
    sem = sum(cost[q][0] if a[q] else cost[q][1] for q in nodes)
    if abs(sem - rec["cost"]) > TOL:
        return f"reported cost {rec['cost']} != model cost {sem}", key
    if "hypotheses" in rec and rec["hypotheses"] != sorted(key):
        return "hypotheses field disagrees with the assignment", key
    return _broken_row(system, a), key


# --- Bayesian networks --------------------------------------------------------

def bn_reference(doc, evidence, k=None):
    """Instantiations consistent with ``evidence`` as sorted (cost, key).

    Cost is -ln P; with ``k`` the list stops after the tie group of the k-th.
    """
    names = [v["name"] for v in doc["variables"]]
    ranges = {v["name"]: list(v["range"]) for v in doc["variables"]}
    pos = {v: i for i, v in enumerate(names)}
    choices = [[ranges[v].index(evidence[v])] if v in evidence
               else list(range(len(ranges[v]))) for v in names]
    grid = [g.ravel() for g in np.meshgrid(*choices, indexing="ij")]
    logp = np.zeros(grid[0].shape)
    for block in doc["cpts"]:
        child, ps = block["child"], block["parents"]
        shape = [len(ranges[child])] + [len(ranges[p]) for p in ps]
        tab = np.full(shape, -np.inf)
        for row in block["rows"]:
            at = tuple(ranges[p].index(g) for p, g in zip(ps, row["given"]))
            for value, prob in row["probs"].items():
                tab[(ranges[child].index(value),) + at] = \
                    math.log(prob) if prob > 0 else -np.inf
        logp += tab[tuple(grid[pos[x]] for x in [child] + list(ps))]
    cost = -logp
    order = np.argsort(cost, kind="stable")
    if k is not None and k < len(order):
        order = order[cost[order] <= cost[order[k - 1]] + TOL]
    return [(float(cost[j]),
             tuple(sorted((v, ranges[v][grid[pos[v]][j]]) for v in names)))
            for j in order.tolist()]


def _check_bn_point(doc, evidence, rec, system):
    names = [v["name"] for v in doc["variables"]]
    ranges = {v["name"]: list(v["range"]) for v in doc["variables"]}
    a = rec["assignment"]
    inst = {}
    for v in names:
        on = [x for x in ranges[v] if a.get(f"{v}={x}") == 1]
        if len(on) != 1:
            return f"indicator group of {v} has {len(on)} active members", None
        inst[v] = on[0]
    key = tuple(sorted(inst.items()))
    if any(v not in (0, 1) for v in a.values()):
        return "assignment is not a 0-1 point", key
    if any(inst[v] != x for v, x in evidence.items()):
        return "instantiation contradicts the evidence", key
    if rec.get("instantiation") is not None and dict(rec["instantiation"]) != inst:
        return "instantiation field disagrees with the indicators", key
    ref = 0.0
    for block in doc["cpts"]:
        given = [inst[p] for p in block["parents"]]
        row = next(r for r in block["rows"] if r["given"] == given)
        ref -= math.log(row["probs"][inst[block["child"]]])
    if abs(ref - rec["cost"]) > TOL:
        return f"reported cost {rec['cost']} != -ln P = {ref}", key
    prob = rec.get("probability")
    if prob is not None and abs(prob - math.exp(-ref)) > 1e-9 * math.exp(-ref):
        return f"reported probability {prob} != P = {math.exp(-ref)}", key
    # the rows of the original system and the cost above leave the
    # conditional variables no freedom: the point is permissible
    return _broken_row(system, a), key


# --- shared -------------------------------------------------------------------

def _broken_row(system, a):
    if set(a) != set(system.variables):
        return "assignment domain is not the system's variable set"
    for row in system.constraints:
        lhs = sum(c * a[x] for c, x in row.terms)
        if row.relation == "<=":
            ok = lhs <= row.rhs + 1e-9
        elif row.relation == ">=":
            ok = lhs >= row.rhs - 1e-9
        else:
            ok = abs(lhs - row.rhs) <= 1e-9
        if not ok:
            return f"original system row broken: {row}"
    return None


def compare_prefix(got, ref, k):
    """Tie-aware: ``got`` is the first min(k, len(ref)) entries of ``ref``
    up to the order inside groups of equal cost."""
    want = len(ref) if k is None else min(k, len(ref))
    if len(got) != want:
        return f"{len(got)} solutions, expected {want}"
    for (_, c), (rc, _) in zip(got, ref):
        if abs(c - rc) > TOL:
            return f"cost {c} where the reference has {rc}"
    at = 0
    while at < len(got):
        level = ref[at][0]
        group = {key for c, key in ref if abs(c - level) <= TOL}
        take = [key for key, c in got[at:] if abs(c - level) <= TOL]
        if not set(take) <= group:
            return f"solutions at cost {level} are not the reference's"
        at += len(take)
    return None


def _cardinal_reference(q) -> bool:
    # with every true cost at least the false one, some optimum is
    # cardinal, and the cardinal list is far shorter than the full one
    monotone = all(float(n.get("cost_true", 0)) >= float(n.get("cost_false", 0))
                   for n in q.inst.doc["nodes"])
    return q.mode == "cardinal" or (q.mode == "optimum" and monotone)


def reference_key(q):
    """Queries with equal keys share one reference stream."""
    if q.inst.kind == "waodag":
        return q.inst.path, _cardinal_reference(q)
    return q.inst.path, tuple(sorted(q.inst.evidence.items())), q.k


def reference_for(q):
    """The reference stream for one query (a list of (cost, key))."""
    if q.inst.kind == "waodag":
        return waodag_reference(q.inst.doc, cardinal=_cardinal_reference(q))
    return bn_reference(q.inst.doc, q.inst.evidence, q.k)


def check(q, records, ref, system):
    """None when the stream is right, else what is wrong with it."""
    got = []
    for rec in records:
        if q.inst.kind == "waodag":
            bad, key = _check_waodag_point(q.inst.doc, rec, system)
        else:
            bad, key = _check_bn_point(q.inst.doc, q.inst.evidence, rec, system)
        if bad:
            return bad
        got.append((key, rec["cost"]))
    if len({key for key, _ in got}) != len(got):
        return "a solution repeats"
    if q.mode == "optimum":
        if len(got) != 1 or abs(got[0][1] - ref[0][0]) > TOL:
            return f"optimum {got[0][1] if got else None} != {ref[0][0]}"
        return None
    return compare_prefix(got, ref, q.k)


def main(argv=None):
    import argparse
    import json
    import sys
    import tempfile
    from pathlib import Path

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for q in workloads.build(args.workload, args.seed, root, Path(tmp)):
            ref = reference_for(q)
            if q.mode == "optimum":
                ref = ref[:1]
            elif q.k is not None:
                ref = ref[:q.k]
            print(json.dumps({"query": q.label, "evidence": q.inst.evidence,
                              "stream": [[c, sorted(key)] for c, key in ref]}))


if __name__ == "__main__":
    main()

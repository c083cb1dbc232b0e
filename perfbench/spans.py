"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the recorder swaps wrappers in
for module attributes that callers look up at call time (for example
``abduce.simplex.solve`` or ``abduce.search.satisfies``) and swaps the
originals back afterwards.  Nothing under ``src/`` knows about tracing.

Each span is (name, start, end, parent span, query id, tag), where the tag
is the rank count of a search call and the flags below for a simplex solve.
Columns are kept in flat arrays so that the tens of thousands of LU calls a
query makes cost little memory.  This module imports only the standard library, so a
traced CLI child can load it before timing ``import abduce.cli``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

NO_TAG = 0
TAG_WARM = 1          # simplex.solve called with a warm basis
TAG_INFEASIBLE = 2    # simplex.solve returned a status other than optimal


class Recorder:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.qid = array("i")
        self.tag = array("i")
        self.query = -1
        self._stack = []
        self._patched = []

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.qid.append(self.query)
        self.tag.append(NO_TAG)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, tagger=None):
        open_, close = self._open, self._close
        tags = self.tag

        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if tagger is not None:
                tags[idx] = tagger(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module, attr: str, name: str, tagger=None) -> None:
        """Replace ``module.attr`` by a recording wrapper until ``unpatch``."""
        fn = getattr(module, attr)
        self._patched.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, tagger))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def rows(self):
        for i in range(len(self.name)):
            yield (self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.qid[i], self.tag[i])

    def dump(self, path) -> None:
        """Write one JSON array per span: name, start, end, parent, query, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer the program has loaded.

    Call sites that imported a function by name hold their own reference, so
    the wrapper goes on the module whose globals the caller reads.
    """
    from abduce import bayes, constraints, model_io, search, simplex

    def ranks_tag(args, kwargs, out):
        # solve_optimal returns one solution or None, the others a list
        return len(out) if isinstance(out, list) else int(out is not None)

    def solve_tag(args, kwargs, out):
        warm = kwargs.get("warm", args[1] if len(args) > 1 else None)
        tag = TAG_WARM if warm is not None else NO_TAG
        if out.status != simplex.OPTIMAL:
            tag |= TAG_INFEASIBLE
        return tag

    for attr in ("parse_waodag_file", "parse_bayesnet_file"):
        rec.patch(model_io, attr, "model_io.parse")
    encoders = [constraints]
    cli = sys.modules.get("abduce.cli")
    if cli is not None:
        encoders.append(cli)
    for module in encoders:
        for attr in ("encode_waodag", "encode_bayesnet", "apply_evidence"):
            rec.patch(module, attr, "constraints.encode")
    for attr in ("satisfies", "objective", "is_permissible"):
        rec.patch(search, attr, "constraints.check")
    for attr in ("solve_optimal", "enumerate_best", "enumerate_cardinal",
                 "enumerate_permissible"):
        rec.patch(search, attr, "search", ranks_tag)
    rec.patch(simplex, "solve", "simplex.solve", solve_tag)
    for attr in ("relax", "add_row"):
        rec.patch(simplex, attr, "simplex.build")
    rec.patch(simplex, "lu_factor", "linalg.factor")
    rec.patch(simplex, "lu_solve", "linalg.solve")
    rec.patch(bayes, "probability", "bayes.probability")


def aggregate(rows, queries, totals):
    """Add calls, inclusive seconds and self seconds per span name to ``totals``.

    Only spans of the query ids in ``queries`` count.  ``rows`` use parent
    indices into the same sequence.  Self time is a span's duration minus
    the durations of its direct children.
    """
    rows = list(rows)
    child = [0.0] * len(rows)
    for name, start, end, parent, _, _ in rows:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _, qid, tag) in enumerate(rows):
        if qid not in queries:
            continue
        dur = end - start
        for key, value in ((name + ".calls", 1), (name + ".s", dur),
                           (name + ".self_s", dur - child[i])):
            totals[key] = totals.get(key, 0) + value
        if name == "simplex.solve":
            totals["simplex.solve.warm"] = \
                totals.get("simplex.solve.warm", 0) + bool(tag & TAG_WARM)
            totals["simplex.solve.infeasible"] = \
                totals.get("simplex.solve.infeasible", 0) + bool(tag & TAG_INFEASIBLE)
        if name == "search":
            totals["search.ranks"] = totals.get("search.ranks", 0) + tag
    return totals

"""Tracing shim: spans around the public functions of each hsd layer.

The shim changes no code under src/.  It rebinds each wrapped function in
every hsd module (and every module-level dict, such as the catalog's
parser table) that holds a reference to it, and patches methods on their
class, so a call is traced however the caller looked the name up.
`Tracer.restore` puts every original back.

A span is [name, start, end, parent, job]: parent is the index of the
enclosing span (-1 at top level) and job is the id of the benchmark job
that was running.  Spans are kept in memory and written out at the end of
a pass.  A layer's self time is its spans' durations minus the part
covered by their child spans, so the self times of all spans add up to
the time under top-level spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _blocks_in(args, kwargs, res):
    """Block count of the design a call received first (self for __init__)."""
    first = args[0] if args else next(iter(kwargs.values()))
    return len(first.blocks)


def _one(args, kwargs, res):
    return 1


def _status(status):
    return lambda args, kwargs, res: int(res.status == status)


# (module, attribute, span name, counters kept at the same boundary); the
# attribute may be "Class.method".  A counter is (name, f(args, kwargs, result)).
WRAPPED = (
    ("hsd.files", "parse_design", "files.parse", (("files.parse_calls", _one),)),
    ("hsd.files", "parse_starter", "files.parse", (("files.parse_calls", _one),)),
    ("hsd.files", "parse_gdd", "files.parse", (("files.parse_calls", _one),)),
    ("hsd.catalog", "CatalogEntry.load", "catalog.load", ()),
    ("hsd.development", "develop", "development.develop",
     (("development.develop_blocks", lambda a, k, res: len(res.blocks)),)),
    ("hsd.development", "difference_census", "development.census", ()),
    ("hsd.core", "Design.__init__", "core.design_init", (("core.design_init_blocks", _blocks_in),)),
    ("hsd.core", "relabel", "core.relabel", ()),
    ("hsd.core", "verify_design", "core.verify", (("core.verify_blocks", _blocks_in),)),
    ("hsd.quasigroup", "check_frame", "quasigroup.check_frame",
     (("quasigroup.check_frame_blocks", _blocks_in),)),
    ("hsd.constructions", "multiply", "constructions.multiply", ()),
    ("hsd.constructions", "weight_inflate", "constructions.weight_inflate", ()),
    ("hsd.constructions", "fill_holes_a", "constructions.fill", ()),
    ("hsd.constructions", "fill_holes_b", "constructions.fill", ()),
    ("hsd.algebra", "td", "algebra.td", ()),
    ("hsd.algebra", "verify_gdd", "algebra.verify_gdd", ()),
    ("hsd.prover", "Prover.prove", "prover.plan", (("prover.cells", _one),)),
    ("hsd.prover", "Prover.resolve", "prover.plan", ()),
    ("hsd.prover", "Prover.materialize", "prover.materialize", ()),
    ("hsd.search", "search_direct", "search.direct", (
        ("search.attempts", _one),
        ("search.nodes", lambda a, k, res: res.nodes),
        ("search.found", _status("found")),
        ("search.none", _status("none")),
        ("search.timeouts", _status("timeout")),
    )),
    ("hsd.search", "ExactCover.solve", "search.solve", ()),
)

# Every span name and counter, so a layer that did not run reports 0.
LAYERS = tuple(dict.fromkeys(span for _, _, span, _ in WRAPPED))
COUNTERS = tuple(dict.fromkeys(name for *_, counters in WRAPPED for name, _ in counters))


class NullTracer:
    """Stands in for a Tracer when a pass runs untraced."""

    job = None

    def restore(self):
        pass


class Tracer:
    """Installs the wrappers on creation; `restore` removes them."""

    def __init__(self):
        self.spans = []
        self.counts = Counter({name: 0 for name in COUNTERS})
        self.job = None
        self._stack = []
        self._undo = []
        for module, attr, span, counters in WRAPPED:
            self._install(sys.modules[module], attr, span, counters)

    def _wrap(self, fn, span, counters):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([span, clock(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            for name, f in counters:
                counts[name] += f(args, kwargs, res)
            return res

        return traced

    def _install(self, module, attr, span, counters):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(original, span, counters))
            self._undo.append((setattr, cls, meth, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, span, counters)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "hsd" or name.startswith("hsd.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, original))
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._undo.append((dict.__setitem__, value, k, original))

    def restore(self):
        while self._undo:
            put, target, key, original = self._undo.pop()
            put(target, key, original)

    def self_times(self) -> dict:
        """Seconds per span name, minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path, **meta):
        with open(path, "w") as fh:
            json.dump(dict(meta, fields=["name", "start", "end", "parent", "job"],
                           spans=self.spans), fh)

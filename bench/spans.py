"""Spans around aspexplain's layer boundaries, recorded from outside.

:func:`install` wraps the functions in :data:`TARGETS` by rebinding
every name under which an aspexplain module looks them up, so calls
made inside the package are seen too. Each call becomes a span: name,
start, end, parent span, op id and whether it ended in an exception.
Spans stay in flat arrays in memory and are written out when the run
ends. Nothing is wrapped unless :func:`install` is called.
"""
from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs; "Class.method" wraps a method on the class.
TARGETS = [
    ("cli", "main"),
    ("parser", "parse_program"), ("parser", "parse_answer_set"),
    ("parser", "parse_atom"), ("parser", "parse_lookup"),
    ("ground", "ground_program"), ("ground", "instantiate_for_head"),
    ("model", "verify_answer_set"), ("model", "supports"), ("model", "reduct"),
    ("engine", "shortest_explanation"), ("engine", "k_different"),
    ("engine", "create_tree"), ("engine", "calculate_weight"),
    ("engine", "calculate_difference"), ("engine", "extract_exp"),
    ("trees", "VertexLabeledTree.preorder_from"), ("trees", "VertexLabeledTree.depth"),
    ("serialize", "emit_json"), ("serialize", "parse_json"),
    ("nl", "render_nl"),
    ("justify", "explanation_to_justification"),
]

LAYERS = ("parser", "ground", "model", "engine", "trees", "serialize", "nl",
          "justify", "cli")

MARK = "_bench_span"  # attribute set on every wrapper


def _count_len(key):
    def count(counts, result):
        counts[key] += len(result)
    return count


def _count_rules(counts, result):
    counts["parser.rules"] += len(result.rules)


def _count_ground(counts, result):
    counts["ground.ground_rules"] += len(result.rules)


def _count_accept(counts, result):
    counts["model.supports.accepted"] += bool(result)


def _count_expl(counts, result):
    expls = result if isinstance(result, list) else [result]
    counts["engine.explanation_rules"] += sum(e.size for e in expls)


# Counts taken from a wrapped function's return value.
COUNTERS = {
    "parser.parse_program": _count_rules,
    "parser.parse_answer_set": _count_len("parser.atoms"),
    "ground.ground_program": _count_ground,
    "ground.instantiate_for_head": _count_len("ground.instantiated_rules"),
    "model.supports": _count_accept,
    "engine.create_tree": _count_len("trees.andor_vertices"),
    "engine.shortest_explanation": _count_expl,
    "engine.k_different": _count_expl,
}


class Tracer:
    """An in-memory span store with one open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.op_first = 0
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, name: str, start: float, end: float, parent: int, op: int,
            error: bool = False) -> int:
        """Record a span; returns its index."""
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        self.name.append(self.name_id[name])
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        self.error.append(error)
        return len(self.start) - 1

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_first = len(self.start)
        del self.stack[:]

    def end_op(self) -> None:
        """Give spans that could not read the clock, because an exception
        at the recursion limit left the wrapper no frame to spare, zero
        duration and mark them as errors."""
        for i in range(self.op_first, len(self.start)):
            if self.end[i] == 0.0:
                self.end[i] = self.start[i]
                self.error[i] = 1
        del self.stack[:]

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            i = self.add(name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id)
            depth = len(stack)
            stack.append(i)
            self.start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.error[i] = 1
                del stack[depth:]
                self.end[i] = perf_counter()
                raise
            self.end[i] = perf_counter()
            del stack[depth:]
            if count is not None:
                count(self.counts, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def write(self, path) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("id\tname\tparent\top\tstart\tend\terror\n")
            for i in range(len(self.start)):
                f.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\t%d\n" % (
                    i, self.names[self.name[i]], self.parent[i], self.op[i],
                    self.start[i], self.end[i], self.error[i]))


def _package_modules(package: str):
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def install(tracer: Tracer, package: str = "aspexplain") -> int:
    """Wrap every target; returns the number of names rebound."""
    modules = _package_modules(package)
    rebound = 0
    for mod_name, attr in TARGETS:
        mod = sys.modules["%s.%s" % (package, mod_name)]
        span = "%s.%s" % (mod_name, attr.split(".")[-1])
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(span, vars(cls)[meth]))
            rebound += 1
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(span, orig)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapped)
                    rebound += 1
    return rebound


def installed(package: str = "aspexplain") -> int:
    """How many names in the package are bound to a wrapper."""
    n = 0
    for m in _package_modules(package):
        for value in vars(m).values():
            if hasattr(value, MARK):
                n += 1
            elif isinstance(value, type) and value.__module__.startswith(package):
                n += sum(1 for v in vars(value).values() if hasattr(v, MARK))
    return n


def self_times(tracer: Tracer) -> array:
    """Each span's duration minus the durations of its direct children.
    Spans run on one thread and children nest inside their parent, so
    the children never overlap."""
    selfs = array("d", (e - s for s, e in zip(tracer.start, tracer.end)))
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            selfs[p] -= tracer.end[i] - tracer.start[i]
    return selfs


def summarize(tracer: Tracer, ops: int) -> dict:
    """Per-op figures: for every span name its calls, self time in ms and
    errors; for every layer its self time; plus the value counters."""
    selfs = self_times(tracer)
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    errors = defaultdict(int)
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        calls[name] += 1
        self_ms[name] += selfs[i] * 1e3
        errors[name] += tracer.error[i]
    out = {}
    names = {"%s.%s" % (m, a.split(".")[-1]) for m, a in TARGETS}
    for name in sorted(names):
        out[name + ".calls"] = calls[name] / ops
        out[name + ".self_ms"] = self_ms[name] / ops
        out[name + ".errors"] = errors[name] / ops
    for layer in LAYERS:
        out["layer.%s.self_ms" % layer] = sum(
            v for k, v in self_ms.items() if k.split(".")[0] == layer) / ops
    for key, value in tracer.counts.items():
        out[key] = value / ops
    accepted = tracer.counts.get("model.supports.accepted", 0)
    out["model.supports.accept_ratio"] = accepted / calls["model.supports"] \
        if calls["model.supports"] else 0.0
    out["trace.spans"] = len(tracer.start) / ops
    return out

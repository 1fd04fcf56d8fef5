"""Span tracing of nomfix from outside the package.

``install(tracer)`` replaces every public function of the traced modules with
a wrapper, in the defining module and in every nomfix module (and the package
namespace) that bound the same function with ``from .x import y``.  Modules
are taken from ``sys.modules``: the attribute ``nomfix.unify`` is the
re-exported *function*, not the module.

Each wrapper counts its calls and keeps the time the function was busy minus
the time its traced callees covered (self time).  Layer-boundary functions
also leave one span per call: name, start, end, parent span and request id.
The leaf helpers in ``AGGREGATED`` run far too often for a span each; they are
counted and self-timed only, and their time is still taken off their caller's
self time.  Direct recursion through a wrapper (``print_term`` calling
``print_term``) counts a call and stays inside the outer call's span.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("parser", "syntax", "printer", "translate", "freshness", "fixpoint", "unify", "cunify", "cli")

AGGREGATED_PREFIXES = ("syntax.",)
AGGREGATED = {
    "printer.print_term",
    "printer.print_perm",
    "unify.is_primitive",
    "unify.constraint_vars",
    "unify.problem_vars",
    "unify.problem_atoms",
    "unify.measure_decreases",
}

# Results kept for accounting after the request: parsed problems (node
# counts) and c-unification results (leaves, solutions).
KEEP_RESULTS = {"parser.parse_problem_file", "cunify.c_unify"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, outermost inclusive seconds]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, request)
        self.results: list[tuple] = []
        self.request = None
        self._stack: list[list] = []  # [name, start, child seconds, span id for children]
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self._stack, self.spans
        record = name not in AGGREGATED and not name.startswith(AGGREGATED_PREFIXES)
        keep = name in KEEP_RESULTS
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stat[0] += 1
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else None
            span_id = len(spans) if record else parent
            frame = [name, 0.0, 0.0, span_id]
            if record:
                spans.append(None)
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                stat[1] += busy - frame[2]
                stat[2] += busy
                if stack:
                    stack[-1][2] += busy
                if record:
                    spans[span_id] = (span_id, parent, name, start - tracer._t0, end - tracer._t0, tracer.request)
            if keep:
                tracer.results.append((name, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def self_ms(self, prefix: str) -> float:
        return 1000 * sum(s[1] for n, s in self.stats.items() if n == prefix or n.startswith(prefix + "."))

    def inclusive_ms(self, name: str) -> float:
        return 1000 * self.stats.get(name, (0, 0.0, 0.0))[2]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    sid, parent, name, start, end, req = span
                    fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": round(start, 7), "end": round(end, 7), "request": req}) + "\n")


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every traced layer; return how many
    module attributes were rebound."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"nomfix.{layer}"]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    generator = sys.modules["nomfix.syntax"].NameGenerator
    generator.fresh = tracer.wrap("syntax.NameGenerator.fresh", generator.fresh)
    rebound = 0
    for name, module in list(sys.modules.items()):
        if name != "nomfix" and not name.startswith("nomfix."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                rebound += 1
    return rebound

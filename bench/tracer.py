"""Span tracing of the package's public functions, installed from outside.

Each traced name is rebound in every ``strposet`` module whose namespace
holds the same function object, so callers that imported it directly
(``strposet.cli``, ``strposet.reconstruction``, ...) are traced as well as
callers going through the defining module.  Methods are patched on their
class.  ``uninstall`` restores every original binding.

Spans are (id, name, start, end, parent id, job id) tuples kept in memory
and written out by ``dump``.  A span's self time is its duration minus the
time covered by its direct children; calls are synchronous and strictly
nested, so the children never overlap.  Leaf functions called in inner
loops (the point order test) are counted and timed in aggregate instead of
recording one span per call.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method, metric the span's self time counts
# towards).  Metric names are the per-layer metrics of BENCHMARK.json.
TRACED = [
    ("core", "relabel", "core.relabel"),
    ("models", "random_fragment", "models.random_fragment"),
    ("models", "affine_plane_fragment", "models.affine_plane_fragment"),
    ("models", "load_fragment", "models.load_fragment"),
    ("models", "dumps_fragment", "models.dumps_fragment"),
    ("conditions", "survey_p5", "conditions.survey_p5"),
    ("conditions", "survey_j3", "conditions.survey_j3"),
    ("conditions", "check_j1", "conditions.axioms"),
    ("conditions", "check_j2", "conditions.axioms"),
    ("conditions", "check_j4", "conditions.axioms"),
    ("conditions", "check_p1_to_p4", "conditions.axioms"),
    ("conditions", "witness_battery", "conditions.witness_battery"),
    ("structure", "enumerate_fiber", "structure.enumerate_fiber"),
    ("structure", "FiberView.covers", "structure.covers"),
    ("structure", "down_set_in_fiber", "structure.down_set_in_fiber"),
    ("structure", "mu_statistic", "structure.mu_statistic"),
    ("reconstruction", "induce_str_iso", "reconstruction.induce_str_iso"),
    ("reconstruction", "StrIso.validate", "reconstruction.validate"),
    ("reconstruction", "build_rho", "reconstruction.build_rho"),
    ("reconstruction", "verify_factorization",
     "reconstruction.verify_factorization"),
    ("reconstruction", "StrIso.to_json", "reconstruction.map_json"),
    ("reconstruction", "StrIso.from_json", "reconstruction.map_json"),
    ("cli", "main", "cli.main"),
]
LEAVES = [
    ("structure", "str_leq", "structure.str_leq"),
]
SPAN_METRICS = sorted({metric for _, _, metric in TRACED + LEAVES})


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.job = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _span(self, fn, name: str, metric: str):
        stack, spans = self._stack, self.spans
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[metric] += duration - frame[1]
                calls[metric] += 1
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], name, start, end,
                              parent[0] if parent else None, self.job))
        return traced

    def _leaf(self, fn, metric: str):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[metric] += duration
                calls[metric] += 1
                if stack:
                    stack[-1][1] += duration
        return traced

    def job_span(self, job_id, fn):
        """Run fn() as the root span of one job."""
        self.job = job_id
        try:
            return self._span(fn, "job", "job")()
        finally:
            self.job = None

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "strposet" or name.startswith("strposet.")]
        for module_name, attr, metric in TRACED + LEAVES:
            owner = sys.modules[f"strposet.{module_name}"]
            leaf = (module_name, attr, metric) in LEAVES
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._span(raw.__func__, name,
                                                     metric))
                else:
                    patched = self._span(raw, name, metric)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(owner, attr)
            wrapper = (self._leaf(original, metric) if leaf
                       else self._span(original, name, metric))
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

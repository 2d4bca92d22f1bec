"""Span recorder for the traced run.

Tracing swaps the library's public functions for recording wrappers in
every ``sheafmealy`` module that binds them, so calls between modules are
seen too: ``cli`` binds names from ``tame``, and ``explain`` binds names
from ``systems``.  Each span keeps its name, start, end and the index of its
parent span; spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
One set-up per traced round runs under a root span of its own, so the
library calls made in set-up count in the per-layer figures and can still
be told apart from those of the checks (``setup_share``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import sheafmealy
from sheafmealy import cli, epshelly, explain, fixtures, jsonio, localglobal, systems, tame

MODULES = (sheafmealy, systems, explain, localglobal, tame, epshelly, fixtures, jsonio, cli)

TRACED = {
    systems: ("make_system", "system_violations", "check_covering", "subsystem", "compose",
              "morphism", "overlap_patch", "restrict_immersion", "amalgamate"),
    explain: ("behavioral_equiv", "minimize", "pooled_behavior", "cogerm_equiv",
              "validate_section", "restrict_section", "block_distinguishing_word"),
    localglobal: ("check_separation", "glue_behavioral", "glue_cogerm",
                  "search_bounded_behavioral_glue", "glue_stateless"),
    tame: ("rect_union", "sheaf_verdict", "robustly_disconnected", "components", "fiber",
           "two_patch_counterexample", "union_from_payload"),
    epshelly: ("min_enclosing_ball", "feasibility", "project_box", "project_simplex",
               "obstruction_depth", "eps_glue"),
    jsonio: ("system_from_payload", "judge_from_payload", "immersion_from_payload",
             "covering_from_payload", "section_from_payload", "epsilon_from_payload",
             "union_from_json", "loads", "canonical_dumps", "canonical_bytes",
             "system_payload", "judge_payload", "immersion_payload", "covering_payload",
             "section_payload", "union_payload", "certificate_payload",
             "sheaf_verdict_payload", "epsilon_payload", "obstruction_payload",
             "separation_payload", "depth_payload"),
    fixtures: ("get_fixture", "sections_from_payload", "landscape"),
    cli: ("main",),
}

_PARSE = ["jsonio." + n for n in ("system_from_payload", "judge_from_payload",
                                  "immersion_from_payload", "covering_from_payload",
                                  "section_from_payload", "epsilon_from_payload",
                                  "union_from_json", "loads")] + ["tame.union_from_payload"]
_EMIT = ["jsonio." + n for n in TRACED[jsonio] if n.endswith("_payload") or n.startswith("canonical")]

# Per-layer self-time metrics (ms per round) and the spans summed into each.
SELF_TIME = {
    "systems.make_system_ms": ["systems.make_system"],
    "systems.system_violations_ms": ["systems.system_violations"],
    "systems.check_covering_ms": ["systems.check_covering"],
    "systems.restriction_ms": ["systems.subsystem", "systems.compose", "systems.morphism",
                               "systems.overlap_patch", "systems.restrict_immersion"],
    "systems.amalgamate_ms": ["systems.amalgamate"],
    "explain.behavioral_equiv_ms": ["explain.behavioral_equiv"],
    "explain.minimize_ms": ["explain.minimize"],
    "explain.pooled_behavior_ms": ["explain.pooled_behavior"],
    "explain.cogerm_equiv_ms": ["explain.cogerm_equiv"],
    "explain.validate_section_ms": ["explain.validate_section"],
    "explain.restrict_section_ms": ["explain.restrict_section"],
    "explain.block_distinguishing_word_ms": ["explain.block_distinguishing_word"],
    "localglobal.check_separation_ms": ["localglobal.check_separation"],
    "localglobal.glue_behavioral_ms": ["localglobal.glue_behavioral"],
    "localglobal.glue_cogerm_ms": ["localglobal.glue_cogerm"],
    "localglobal.search_bounded_ms": ["localglobal.search_bounded_behavioral_glue"],
    "localglobal.glue_stateless_ms": ["localglobal.glue_stateless"],
    "tame.rect_union_ms": ["tame.rect_union"],
    "tame.sheaf_verdict_ms": ["tame.sheaf_verdict"],
    "tame.robustly_disconnected_ms": ["tame.robustly_disconnected"],
    "tame.components_ms": ["tame.components"],
    "tame.two_patch_counterexample_ms": ["tame.two_patch_counterexample"],
    "epshelly.min_enclosing_ball_ms": ["epshelly.min_enclosing_ball"],
    "epshelly.feasibility_ms": ["epshelly.feasibility"],
    "epshelly.obstruction_depth_ms": ["epshelly.obstruction_depth"],
    "epshelly.eps_glue_ms": ["epshelly.eps_glue"],
    "jsonio.parse_ms": _PARSE,
    "jsonio.emit_ms": _EMIT,
    "fixtures.get_fixture_ms": ["fixtures.get_fixture"],
    "fixtures.sections_from_payload_ms": ["fixtures.sections_from_payload"],
    "fixtures.landscape_ms": ["fixtures.landscape"],
    "cli.main_self_ms": ["cli.main"],
}

# Per-layer call counts (per round): metric -> spans counted.
CALLS = {
    "systems.make_system.calls": ["systems.make_system"],
    "explain.behavioral_equiv.calls": ["explain.behavioral_equiv"],
    "explain.pooled_behavior.calls": ["explain.pooled_behavior"],
    "tame.robustly_disconnected.calls": ["tame.robustly_disconnected"],
    "tame.fiber.calls": ["tame.fiber"],
    "epshelly.min_enclosing_ball.calls": ["epshelly.min_enclosing_ball"],
    "epshelly.project_calls": ["epshelly.project_box", "epshelly.project_simplex"],
    "fixtures.get_fixture.calls": ["fixtures.get_fixture"],
}

# Counts of spans of one name inside spans of another: metric -> (inner, outer).
NESTED = {
    "localglobal.search_tables": ("explain.pooled_behavior",
                                  "localglobal.search_bounded_behavioral_glue"),
    "epshelly.subfamilies_tried": ("epshelly.feasibility", "epshelly.obstruction_depth"),
}

COLD_START = ("cli.import_modules", "cli.import_ms")

# Root span around a traced set-up; it counts in no metric.
SETUP = "bench.setup"

PER_LAYER = (list(SELF_TIME) + list(CALLS) + list(NESTED) + ["tame.candidates"]
             + list(COLD_START))


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._wrappers = {}
        for mod, names in TRACED.items():
            short = mod.__name__.rsplit(".", 1)[-1]
            for n in names:
                fn = getattr(mod, n)
                hook = self._count_candidates if (short, n) == ("tame", "sheaf_verdict") else None
                self.names.append(f"{short}.{n}")
                self._wrappers[fn] = self._wrap(fn, len(self.names) - 1, hook)
        self.names.append(SETUP)
        self._originals: list = []

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def _wrap(self, fn, name_id: int, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def traced_setup(self, setup):
        """Run ``setup`` with the wrappers installed, under a SETUP span."""
        self.install()
        try:
            return self._wrap(setup, self.names.index(SETUP))()
        finally:
            self.uninstall()

    def install(self) -> None:
        """Bind the wrappers in place of the functions in every module."""
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in self._wrappers:
                    self._originals.append((mod, attr, val))
                    setattr(mod, attr, self._wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._originals):
            setattr(mod, attr, val)
        self._originals = []

    def _count_candidates(self, verdict) -> None:
        self.counters["tame.candidates"] += len(verdict.candidates)

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def merge(self, exported: dict) -> None:
        """Append spans recorded in a forked child, re-basing parent links."""
        base = len(self.spans)
        for name_id, t0, t1, parent in exported["spans"]:
            self.spans.append((name_id, t0, t1, parent + base if parent >= 0 else -1))
        self.counters.update(exported["counters"])

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [t1 - t0 for _, t0, t1, _ in self.spans]
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        return own

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-round self times (ms) and counts of the recorded spans."""
        self_ms: Counter = Counter()
        calls: Counter = Counter()
        for (name_id, _, _, _), own in zip(self.spans, self._self_seconds()):
            name = self.names[name_id]
            self_ms[name] += own * 1e3
            calls[name] += 1
        out: dict[str, float] = {}
        for metric, members in SELF_TIME.items():
            out[metric] = sum(self_ms[m] for m in members) / rounds
        for metric, members in CALLS.items():
            out[metric] = sum(calls[m] for m in members) / rounds
        for metric, (inner, outer) in NESTED.items():
            out[metric] = self._nested(inner, outer) / rounds
        out["tame.candidates"] = self.counters["tame.candidates"] / rounds
        return out

    def setup_share(self, rounds: int) -> dict[str, tuple[float, float]]:
        """Per-round self time (ms) and calls of each function inside SETUP
        spans: the part of the per-layer figures that set-up pays."""
        setup_id = self.names.index(SETUP)
        under = [False] * len(self.spans)
        out: dict[str, tuple[float, float]] = {}
        for k, ((name_id, _, _, parent), own) in enumerate(zip(self.spans, self._self_seconds())):
            # a parent is recorded before its children, so its flag is set
            under[k] = parent >= 0 and (under[parent] or self.spans[parent][0] == setup_id)
            if under[k]:
                ms, calls = out.get(self.names[name_id], (0.0, 0.0))
                out[self.names[name_id]] = (ms + own * 1e3 / rounds, calls + 1 / rounds)
        return out

    def _nested(self, inner: str, outer: str) -> int:
        inner_id = self.names.index(inner)
        outer_id = self.names.index(outer)
        count = 0
        for name_id, _, _, parent in self.spans:
            if name_id != inner_id:
                continue
            while parent >= 0:
                pid = self.spans[parent][0]
                if pid == outer_id:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


def cold_start(src_dir: str, repeats: int = 3) -> dict[str, float]:
    """Modules loaded and milliseconds spent by ``import sheafmealy.cli`` in a
    fresh interpreter; the median time over a few interpreters."""
    probe = ("import sys, time\n"
             "before = set(sys.modules)\n"
             "t0 = time.perf_counter()\n"
             "import sheafmealy.cli\n"
             "t1 = time.perf_counter()\n"
             "print(len(set(sys.modules) - before), (t1 - t0) * 1e3)\n")
    env = dict(os.environ, PYTHONPATH=src_dir)
    counts, times = [], []
    for _ in range(repeats):
        res = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        n, ms = res.stdout.split()
        counts.append(int(n))
        times.append(float(ms))
    return {"cli.import_modules": max(counts), "cli.import_ms": statistics.median(times)}

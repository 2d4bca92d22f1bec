"""Timing loop shared by the workloads.

A workload's setup returns a fixed list of checks built from the seed.  A
run repeats that list in whole rounds, each with a fresh set-up, until the
run's seconds are used up.  Every round is measured: each starts from
inputs built anew, so the first holds no extra work the others skip, and
the reference computations that check outputs run outside the timed calls.
Only the call into the library is timed; garbage is collected before every
timed call (the collector stays on), and the objects built in set-up are
frozen out of the collector's scans.  A fixed slice of reference work,
timed before every check and around every set-up, gives the factors that
scale the run's times to one processor speed (see ``speed_scale``): its
mean over the run for the checks, the two slices around it for a set-up.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# Set-ups timed per round, for a steadier median of short set-up times.
SETUPS_PER_ROUND = 3

# Milliseconds that _reference_work takes at the processor speed all times
# are scaled to (about its time on the machine the bounds were set on, when
# that machine runs at its higher speed).
REFERENCE_MS = 1.0


@dataclass
class Check:
    """One timed library call and the verification of its output.

    ``verify`` returns None when the output is right and a reason when it
    is not.  ``fault`` names a known defect of the library that makes this
    check fail today; such a failure is counted, not treated as a broken
    benchmark."""

    name: str
    call: Callable[[], Any]
    verify: Callable[[Any], str | None]
    fault: str | None = None


@dataclass
class Raised:
    """An exception that escaped the timed call."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def _reference_work() -> None:
    """A fixed slice of the interpreter work the library does (rational
    arithmetic, tuple and dict building, sorting), timed between checks to
    follow the processor's speed through the run."""
    total = Fraction(0)
    table = {}
    for i in range(300):
        total += Fraction(i, 7)
        table[(i % 31, i % 7)] = (total, i)
    sorted(table.items())


def _timed(call: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # the verifier judges the escaped exception
        t1 = time.perf_counter()
        return t1 - t0, Raised(type(exc).__name__, str(exc))
    t1 = time.perf_counter()
    return t1 - t0, out


def _forked(check: Check, tracer) -> tuple[float, Any]:
    """Run the call in a child forked from the parent's post-import state,
    time it inside the child and ship the captured result back."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            out, err = io.StringIO(), io.StringIO()
            real = sys.stdout, sys.stderr
            if tracer is not None:
                tracer.reset()
            sys.stdout, sys.stderr = out, err
            t0 = time.perf_counter()
            try:
                rc, exc = check.call(), None
            except BaseException as e:  # a traceback is an output to check
                rc, exc = None, f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            sys.stdout, sys.stderr = real
            payload = {"seconds": t1 - t0, "rc": rc, "exc": exc,
                       "stdout": out.getvalue(), "stderr": err.getvalue(),
                       "trace": tracer.export() if tracer is not None else None}
            with os.fdopen(w, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "r", encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"check {check.name}: child exited with status {status}")
    payload = json.loads(data)
    if tracer is not None:
        tracer.merge(payload.pop("trace"))
    return payload.pop("seconds"), payload


class Run:
    """Round-by-round state of one benchmark run.

    Every round builds its inputs afresh from the seed, so set-up is timed
    throughout the run (``setup_times``) and every round starts from the
    same state: nothing built or cached by one round is reused by the
    next."""

    def __init__(self, setup: Callable[[], list[Check]], forked: bool) -> None:
        self.setup = setup
        self.forked = forked
        self.checks: list[Check] = []
        self.setup_times: list[float] = []
        self.setup_scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.faults: dict[str, str] = {}
        self._verified: dict[int, tuple] = {}
        self.reference_times: list[float] = []

    def reference(self) -> None:
        """Time the reference work once, untimed for the checks."""
        t0 = time.perf_counter()
        _reference_work()
        self.reference_times.append(time.perf_counter() - t0)

    def fresh(self, tracer=None) -> None:
        """Drop the last round's inputs and build new ones, timed; set-up
        runs SETUPS_PER_ROUND times and the last build is kept.  Each set-up
        is scaled by the reference work timed just before and just after
        it: a set-up lasts only tens of milliseconds, short enough to fall
        within one stretch of processor speed that the run's mean speed
        misses (see README.md, Steadiness).  With a tracer,
        the last build runs traced (see ``Tracer.traced_setup``)."""
        for k in range(SETUPS_PER_ROUND):
            self.checks = []
            gc.unfreeze()
            gc.collect()
            self.reference()
            traced = tracer is not None and k == SETUPS_PER_ROUND - 1
            t0 = time.perf_counter()
            checks = tracer.traced_setup(self.setup) if traced else self.setup()
            self.setup_times.append(time.perf_counter() - t0)
            self.reference()
            self.setup_scales.append(speed_scale(self.reference_times[-2:]))
            self.checks = checks
        gc.collect()
        gc.freeze()

    def round(self, tracer=None) -> list[float]:
        self.fresh(tracer)
        if tracer is not None:
            tracer.install()
        try:
            return [self._one(k, check, tracer) for k, check in enumerate(self.checks)]
        finally:
            if tracer is not None:
                tracer.uninstall()

    def _one(self, k: int, check: Check, tracer) -> float:
        self.reference()
        gc.collect()
        if self.forked:
            seconds, out = _forked(check, tracer)
        else:
            seconds, out = _timed(check.call)
        self.attempted += 1
        reason = self._verify(k, check, out)
        if reason is not None:
            self.failed += 1
            if check.fault is not None:
                self.faults[check.name] = f"{check.fault}: {reason}"
            elif len(self.unexpected) < 20:
                self.unexpected.append(f"{check.name}: {reason}")
        return seconds

    def _verify(self, k: int, check: Check, out) -> str | None:
        """Verify an output, reusing the verdict when it equals the output
        verified last at this place in the list."""
        last = self._verified.get(k)
        if last is not None and last[0] == out:
            return last[1]
        try:
            reason = check.verify(out)
        except Exception as exc:  # a verifier crash is a wrong output
            reason = f"verifier raised {type(exc).__name__}: {exc}"
        self._verified[k] = (out, reason)
        return reason

    def rounds_for(self, seconds: float) -> list[list[float]]:
        """Whole rounds until ``seconds`` of wall time have passed (at least one)."""
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            out.append(self.round())
        return out

    def scaled_setups(self) -> list[float]:
        """Every set-up's time at the reference speed."""
        return [t * k for t, k in zip(self.setup_times, self.setup_scales)]

    def alternate(self, seconds: float, tracer) -> tuple[list[float], list[float]]:
        """Untraced and traced rounds in turn, in pairs, until ``seconds``
        have passed (at least one pair).  Returns each pair's traced over
        untraced time, each round at the speed of the reference work timed
        within it, and the reference times of the traced rounds."""
        ratios, traced_refs = [], []
        start = time.perf_counter()
        while not ratios or time.perf_counter() - start < seconds:
            pair = []
            for t in (None, tracer):
                mark = len(self.reference_times)
                times = self.round(t)
                refs = self.reference_times[mark:]
                pair.append(sum(times) * speed_scale(refs))
                if t is not None:
                    traced_refs += refs
            ratios.append(pair[1] / pair[0])
        return ratios, traced_refs


def tail_rank(n: int) -> tuple[int, int]:
    """The highest whole percentile with at least ten of ``n`` checks above
    it, and its nearest rank (1-based); percentile 50 when n < 20."""
    pct = max(50, math.floor(100 * (n - 10) / n)) if n >= 20 else 50
    return pct, max(1, math.ceil(pct / 100 * n))


def speed_scale(reference_times: list[float]) -> float:
    """Factor that takes this run's times to the reference speed: the
    reference work's nominal time over its mean time in the run.  The
    reference work runs before every check and around every set-up, so its
    mean follows the processor's speed over the same stretch as the timed
    calls."""
    return REFERENCE_MS / (1e3 * statistics.mean(reference_times))


def end_to_end(rounds: list[list[float]], setups: list[float],
               scale: float) -> tuple[dict, str]:
    """The end-to-end metrics of a run: check times multiplied by
    ``scale``, set-up times as given.  A check's latency is its mean over
    the rounds; ``checks_per_s`` is every check of the run over the sum of
    their times."""
    n = len(rounds[0])
    per_check = sorted(statistics.mean(r[k] for r in rounds) * scale for k in range(n))
    pct, rank = tail_rank(n)
    total = sum(map(sum, rounds)) * scale
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "checks_per_s": (n * len(rounds) / total, "1/s"),
        "check_p50_ms": (statistics.median(per_check) * 1e3, "ms"),
        "check_tail_ms": (per_check[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    note = (f"check_tail_ms is p{pct} of {n} checks (rank {rank}; each check's mean over "
            f"{len(rounds)} rounds)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, note


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0

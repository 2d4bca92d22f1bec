"""Reference figures for the README: kernel timings by size and cold start.

    python3 bench/reference.py kernels     # seconds by size, doubling ratios
    python3 bench/reference.py coldstart   # each verb in a fresh interpreter

``kernels`` times single library calls in this process (best of three
below one second, one run above) on the benchmark's own generators, and
prints the ratio of each time to the time at half the size.  ``coldstart``
runs each CLI verb as its own interpreter, as a user does, and reports the
median wall time of five starts and the number of modules the import and
the verb load.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

from sheafmealy import epshelly, explain, systems, tame  # noqa: E402

import wl_chain  # noqa: E402
import wl_cli  # noqa: E402
import wl_eps  # noqa: E402
import wl_rect  # noqa: E402


def _best(call) -> float:
    t0 = time.perf_counter()
    call()
    first = time.perf_counter() - t0
    if first > 1.0:
        return first
    times = [first]
    for _ in range(2):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def _equal_pair(kind, n):
    states, d = wl_chain.base_table(kind, n, random.Random(n))
    d2, ren = wl_chain.renamed(d, "x")
    m1, m2 = wl_chain.build(states, d), wl_chain.build([ren[s] for s in states], d2)
    p = wl_chain.whole(m1)
    return wl_chain.inclusion_section(p, m1), wl_chain.inclusion_section(p, m2, ren)


def _kernels():
    def beh(kind):
        def make(n):
            s1, s2 = _equal_pair(kind, n)
            return lambda: explain.behavioral_equiv(s1, s2)
        return make

    def minimize(n):
        m = _equal_pair("chain", n)[0].explanatory
        return lambda: explain.minimize(m)

    def pooled(n):
        s1, s2 = _equal_pair("chain", n)
        return lambda: explain.pooled_behavior([s1.explanatory, s2.explanatory], ("a", "b"))

    def make_system(n):
        states, d = wl_cli.random_system(random.Random(n), n)
        return lambda: systems.make_system(states, states, ("a", "b"), ("0", "1"), d)

    def validate(n):
        states, d = wl_cli.random_system(random.Random(n), n)
        doc = wl_cli.system_doc(states, d)
        return lambda: (systems.system_violations(doc), systems.validate_system(doc))

    def verdict(x_span):
        def make(n):
            u = wl_rect.library_union(wl_rect.random_boxes(random.Random(n), n, x_span, 10))
            return lambda: tame.sheaf_verdict(u, tame.ProjectionJudge(0))
        return make

    def meb(d):
        def make(n):
            rng = random.Random(n)
            pts = [tuple(rng.gauss(0, 1) for _ in range(d)) for _ in range(n)]
            return lambda: epshelly.min_enclosing_ball(pts)
        return make

    def depth(n):
        rng = random.Random(n)
        check = wl_eps.depth_check("ref", rng, rng, 2, n, (n - 3, n - 2, n - 1))
        return check.call

    return (
        ("behavioral_equiv, chain vs renamed copy", (25, 50, 100, 200), beh("chain")),
        ("behavioral_equiv, random vs renamed copy", (50, 100, 200, 400), beh("random")),
        ("minimize, chain", (100, 200, 400), minimize),
        ("pooled_behavior, chain and its copy", (100, 200, 400), pooled),
        ("make_system, random, 2 inputs", (1000, 2000, 4000), make_system),
        ("system_violations + validate_system", (1000, 2000, 4000), validate),
        ("sheaf_verdict axis 0, boxes over 9 abscissae", (20, 40, 80, 160), verdict(2)),
        ("sheaf_verdict axis 0, boxes over 81 abscissae", (20, 40, 80), verdict(20)),
        ("min_enclosing_ball, d=2 Gaussian cloud", (100, 200, 400, 800), meb(2)),
        ("min_enclosing_ball, d=8 Gaussian cloud", (50, 100, 200), meb(8)),
        ("obstruction_depth, plane, triangle in the last patches", (8, 12, 16, 20), depth),
    )


def kernels() -> None:
    for title, sizes, make in _kernels():
        print(title)
        last = None
        for n in sizes:
            t = _best(make(n))
            ratio = f"x{t / last:.2f}" if last else ""
            print(f"  n={n:<6} {t:9.4f} s  {ratio}")
            last = t


VERBS = (
    ("validate", "two-band"),
    ("check", "separation", "cex-ri-separation"),
    ("check", "glue-cogerm", "cogerm-extra-states"),
    ("check", "glue-beh", "cex-beh-gluing"),
    ("check", "glue-beh", "cex-beh-gluing", "--max-states", "0"),
    ("check", "tame-check", "two-band"),
    ("check", "eps-depth", "triangle"),
    ("check", "landscape"),
    ("fixtures", "list"),
    ("fixtures", "dump", "two-band"),
)


def coldstart() -> None:
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "from sheafmealy.cli import main\n"
             "rc = main(sys.argv[1:])\n"
             "print(len(set(sys.modules) - before), file=sys.stderr)\n"
             "sys.exit(rc)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as tmp:
        script = os.path.join(tmp, "probe.py")
        with open(script, "w", encoding="utf-8") as fh:
            fh.write(probe)
        bare = []
        for _ in range(5):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            bare.append(time.perf_counter() - t0)
        print(f"bare interpreter start: {statistics.median(bare) * 1e3:.0f} ms")
        print(f"  {'verb':<56} {'wall ms':>8} {'modules':>8}")
        for verb in VERBS:
            argv = ["--format", "json", *verb]
            times, mods = [], None
            for _ in range(5):
                t0 = time.perf_counter()
                res = subprocess.run([sys.executable, script, *argv], env=env,
                                     capture_output=True, text=True)
                times.append(time.perf_counter() - t0)
                mods = int(res.stderr.strip().splitlines()[-1])
            print(f"  {' '.join(verb):<56} {statistics.median(times) * 1e3:8.0f} {mods:8d}")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "kernels":
        kernels()
    elif what == "coldstart":
        coldstart()
    else:
        sys.exit(__doc__)

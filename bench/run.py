"""Benchmark of the sheafmealy checkers.

    python3 bench/run.py --workload chain-behavior --seed 1 --seconds 20 --trace 0

Runs one workload in this process, on one thread, against the library
sources in ``src/`` next to this directory.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, from spans recorded around the
library's public functions in rounds that alternate with untraced ones, and
the run also prints the tracing overhead.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# workload name -> module that builds its checks
WORKLOADS = {
    "chain-behavior": "wl_chain",
    "rect-topology": "wl_rect",
    "eps-helly": "wl_eps",
    "cli-docs": "wl_cli",
}


def _import_library():
    """Import sheafmealy from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import sheafmealy
    except ImportError as exc:
        sys.exit(f"bench: cannot import sheafmealy from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(sheafmealy.__file__))
    if where != os.path.join(SRC, "sheafmealy"):
        sys.exit(f"bench: sheafmealy imported from {where}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    import harness
    import tracing

    mod = importlib.import_module(WORKLOADS[args.workload])
    workdir = os.path.join(OUT, "work", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    run = harness.Run(lambda: mod.setup(args.seed, workdir), getattr(mod, "FORKED", False))
    if not args.trace:
        rounds = run.rounds_for(args.seconds)
        scale = harness.speed_scale(run.reference_times)
        metrics, note = harness.end_to_end(rounds, run.scaled_setups(), scale)
        raw, _ = harness.end_to_end(rounds, run.setup_times, 1.0)
        print(f"workload {args.workload}, seed {args.seed}: {len(run.checks)} checks per round, "
              f"{len(rounds)} measured rounds")
        print(note)
        print("setup_s is the median of %d set-ups, each at the reference speed: %s" % (
            len(run.setup_times), ", ".join(f"{t:.4f}" for t in run.scaled_setups())))
        print(f"times are at the reference speed: the reference work took "
              f"{1e3 * statistics.mean(run.reference_times):.4f} ms on average against "
              f"{harness.REFERENCE_MS} ms nominal (scale {scale:.4f}); unscaled: "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in raw.items()))
    else:
        tracer = tracing.Tracer()
        overhead, traced_refs = run.alternate(args.seconds, tracer)
        rounds = len(overhead)
        scale = harness.speed_scale(traced_refs)
        per_round = tracer.per_layer(rounds)
        per_round.update(tracing.cold_start(SRC))
        per_round = {k: v * scale if k.endswith("_ms") else v for k, v in per_round.items()}
        print(f"workload {args.workload}, seed {args.seed}: {rounds} untraced and {rounds} "
              f"traced rounds of {len(run.checks)} checks, alternating")
        print(f"tracing overhead: traced rounds take {100 * (statistics.median(overhead) - 1):+.1f}% "
              f"time against the untraced round before each (median of {rounds} pairs, each "
              f"round at its own reference speed; range {100 * (min(overhead) - 1):+.1f}% to "
              f"{100 * (max(overhead) - 1):+.1f}%), {len(tracer.spans)} spans; per-layer times "
              f"are at the reference speed (scale {scale:.4f})")
        share = tracer.setup_share(rounds)
        print("of which set-up, per round: " + (", ".join(
            f"{name} {ms * scale:.3f} ms in {calls:g} calls"
            for name, (ms, calls) in sorted(share.items())) or "no traced library call"))
        os.makedirs(OUT, exist_ok=True)
        span_file = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        tracer.write(span_file)
        print(f"spans written to {os.path.relpath(span_file, ROOT)}")
        metrics = {name: {"value": per_round[name], "unit": _unit(name)}
                   for name in tracing.PER_LAYER}
    for name, fault in sorted(run.faults.items()):
        print(f"known fault, counted as failed: {name}: {fault}")
    for line in run.unexpected:
        print(f"WRONG OUTPUT: {line}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run.unexpected, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

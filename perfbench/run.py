"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload solve-large --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that produces the
per-layer metrics, a Chrome trace and a ledger under
``perfbench/out/traces``.  Every metric is printed by name with its
unit and sample count; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every correctness and composition check passed.
``METRICS.md`` defines every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

# One BLAS thread per process: the serve workloads run a parent and
# two solve processes on a two-core host, and a second BLAS thread in
# each would only oversubscribe the cores.  Set before numpy loads;
# spawned workers inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import common  # noqa: E402

WORKLOADS = ("solve-large", "serve-shared", "serve-distinct")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    # Unwind instead of dying in place, so a terminated serve run still
    # drains its scheduler and unlinks its shared-memory segments.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    try:
        common.use_checkout_program()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "solve-large":
        import solve_large as workload
    else:
        import serving as workload
    try:
        result = workload.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
    finally:
        common.stop_child_processes()
    for note in result.notes:
        print(note)
    for name, m in result.metrics.items():
        print(f"{name:34s} {m.value:14.6g} {m.unit:6s} n={m.samples}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 25 --trace 0

``--trace 0`` measures about ``--seconds`` of work with tracing off (a
number of passes fixed by ``--seconds``, so a seed always gives the same
work and the same checked outputs) and prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` runs the traced,
fixed-work pass and prints every per-layer metric.  The last line is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
line before it carries sample counts and the environment stamp.  The exit
code is 1 when a correctness check fails and 2 when the program under
test is missing.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run: this process's own, plus the rest in child interpreters.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds, and exit")
    return parser.parse_args(argv)


def child_setup_seconds(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size, "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import common, traced, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.make(args.workload, workloads.SIZES[args.size],
                              args.seed)
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # Collections during the timed region should scan what the program
    # allocates there, not the imports, recordings and warm-up garbage of
    # set-up: without this, gen-2 pauses over set-up objects set the
    # serve-stream latency tail.
    gc.collect()
    gc.freeze()

    if args.trace:
        outcome = traced.run_traced(workload, args.seconds, spec["per_layer"])
        names = [metric["name"] for metric in spec["per_layer"]]
    else:
        outcome = workload.measure(args.seconds)
        samples = [setup_s] + [
            child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        outcome.add("setup_s", common.median(samples), "s", len(samples))
        names = [metric["name"] for metric in spec["end_to_end"]]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    common.emit(outcome, names)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

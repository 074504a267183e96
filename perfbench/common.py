"""Shared pieces of the benchmark: statistics, checks, memory, reporting."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Repository root: the directory holding ``BENCHMARK.json`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Pinned layer map, offered load and latency limit (see layers.json).
LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())

#: Samples that must lie beyond a percentile before it counts as measured.
MIN_SAMPLES_BEYOND = 10


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass/iteration ``index`` of a run started with ``seed``.

    Every pass draws a fresh seed (fresh payload, fresh camera noise), so
    no timed pass replays a memoized transmitter plan from an earlier one.
    """
    return seed * 1000 + index


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return int(count * (100.0 - q) / 100.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_rev(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def env_stamp() -> Dict[str, object]:
    import numpy

    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
    }


def payload_prefix_failures(codewords: Sequence[bytes], k: int, payloads) -> int:
    """Decoded payloads that are not the k-byte prefix of a planned codeword.

    Each decoded payload must be the systematic prefix of one codeword the
    transmitter sent; anything else is an undetected miscorrection.
    """
    prefixes = {bytes(codeword[:k]) for codeword in codewords}
    return sum(1 for payload in payloads if bytes(payload) not in prefixes)


def check_payloads(out: "Outcome", where: str, codewords: Sequence[bytes],
                   k: int, payloads) -> None:
    """Count an undetected miscorrection as one failed operation.

    A payload that is no codeword prefix is wrong output the receiver did
    not flag.  RS decoding beyond the code's capability produces it now and
    then, so it is a measured failure rate of the link, not a broken
    benchmark invariant: it counts into ``failed``, not ``correct``.
    """
    bad = payload_prefix_failures(codewords, k, payloads)
    if bad:
        out.fail(f"{where}: {bad} decoded payload(s) are no codeword prefix "
                 "(undetected miscorrection)")


def check_result(out: "Outcome", where: str, result) -> None:
    """:func:`check_payloads` for one ``LinkResult``."""
    check_payloads(out, where, result.plan.codewords,
                   result.config.rs_params().k, result.report.payloads)


@dataclass
class Metric:
    value: float
    unit: str
    #: Samples behind the value (for a percentile: all samples it ranks).
    samples: int = 1
    #: Percentile taken, if the value is one (for the samples-beyond rule).
    q: Optional[float] = None


@dataclass
class Outcome:
    """One run's result: metrics, operation counts, and correctness."""

    workload: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Correctness-check failures, one line each; any makes the run fail.
    errors: List[str] = field(default_factory=list)
    #: Failed operations, one line each (they count into ``failed``).
    failures: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.errors

    def add(self, name: str, value: float, unit: str, samples: int = 1,
            q: Optional[float] = None) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), q)

    def add_percentile(self, name: str, values: Sequence[float], q: float,
                       unit: str, scale: float = 1.0) -> None:
        self.add(name, percentile(values, q) * scale, unit, len(values), q)

    def check(self, ok: bool, message: str) -> None:
        """A correctness check: the program broke one of its contracts."""
        if not ok:
            self.errors.append(message)
            self.failed += 1

    def fail(self, message: str, count: int = 1) -> None:
        """``count`` operations failed, for the reason ``message``."""
        if count:
            self.failed += count
            self.failures.append(message)


def emit(outcome: Outcome, names: Sequence[str], stream=None) -> None:
    """Print one line per metric, a detail line, then the result line.

    ``names`` fixes which metrics the run must print (every end-to-end or
    every per-layer metric of ``BENCHMARK.json``); a missing one is a bug
    in the benchmark and raises.
    """
    stream = stream if stream is not None else sys.stdout
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        raise KeyError(f"{outcome.workload}: no value for {missing}")
    thin = []
    for name in names:
        metric = outcome.metrics[name]
        note = f"n={metric.samples}"
        if metric.q is not None:
            beyond = samples_beyond(metric.samples, metric.q)
            note += f", {beyond} beyond p{metric.q:g}"
            if beyond < MIN_SAMPLES_BEYOND:
                thin.append(name)
        print(f"  {name:<34} {metric.value:>14.6g} {metric.unit:<8} ({note})",
              file=stream)
    attempted = max(outcome.attempted, 1)
    print(f"  failed_frac {outcome.failed / attempted:.6g} "
          f"({outcome.failed}/{outcome.attempted} operations)", file=stream)
    for failure in outcome.failures:
        print(f"  FAILED: {failure}", file=stream)
    for error in outcome.errors:
        print(f"  CHECK FAILED: {error}", file=stream)
    detail = {
        "workload": outcome.workload,
        "env": env_stamp(),
        "failed_frac": outcome.failed / attempted,
        "samples": {name: outcome.metrics[name].samples for name in names},
        "percentiles_below_ten_beyond": thin,
        "failures": outcome.failures,
        "details": outcome.details,
    }
    print(json.dumps(detail, sort_keys=True, default=str), file=stream)
    result = {
        "correct": outcome.correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name].value,
                   "unit": outcome.metrics[name].unit}
            for name in names
        },
    }
    print(json.dumps(result), file=stream)
    stream.flush()

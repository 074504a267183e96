"""The ``colorbars bench`` micro-sweep: the repo's tracked perf trajectory.

Runs a *pinned* micro-sweep (fixed device geometry, grid, seed, durations)
once serially and once through the process-pool executor, and reports:

* wall-clock per pipeline stage (tx-plan / record / inject / decode /
  metrics), summed over the serial run's cells,
* cells/sec for both modes and the parallel speedup,
* environment provenance (git revision, CPU count, worker count),
* contained cell failures (both legs run under the resilient runtime), and
* a bounded ``history`` of prior reports — rerunning the bench folds the
  previous report in instead of clobbering the trajectory.

The JSON report (``BENCH_colorbars.json``) is the contract CI asserts and
archives; keep :data:`REQUIRED_KEYS` stable (grow the schema by bumping
:data:`BENCH_SCHEMA_VERSION` and adding keys, never by renaming).  Speedup
is an observation about the machine that ran the bench — ``cpu_count`` is
recorded precisely so a 1-core container's ~1x is not read as a regression
against a 4-core runner's ~3x.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.camera.color_filter import perturbed_response
from repro.camera.devices import DeviceProfile
from repro.camera.noise import SensorNoise
from repro.camera.optics import Optics
from repro.camera.sensor import DEFAULT_CAPTURE_PATH, SensorTiming
from repro.core.config import SystemConfig
from repro.exceptions import BenchError
from repro.link.simulator import LinkResult, RunSpec
from repro.perf.runtime import RuntimePolicy, run_specs_resilient
from repro.util.clock import wall_clock

#: Bump when the report layout changes; validators check it exactly.
#: v2 added ``failures`` (resilient-runtime cell failures during the bench)
#: and ``history`` (bounded list of prior reports, so the perf trajectory
#: survives reruns instead of being clobbered).
#: v3 added ``speedup_meaningful`` — false on single-CPU machines, where
#: the serial/parallel comparison measures pool overhead, not parallelism.
#: v4 added ``capture_path`` (which recording engine produced the numbers),
#: made the parallel leg optional (``null`` wall/cells-per-sec/speedup on
#: single-CPU hosts, where the comparison is meaningless), and switched the
#: timed legs to run *warm*: one untimed grid cell runs first so the report
#: tracks steady-state throughput instead of allocator/ufunc warm-up and
#: cold RNG-plan draws.
#: v5 added ``adaptive_vs_fixed`` — goodput of the closed-loop link
#: adaptation controller against its best fixed rung over a pinned
#: time-varying channel (:mod:`repro.link.adapt`), so rate-control
#: regressions show up in the tracked trajectory alongside raw throughput.
#: v6 added ``backend`` — which sweep backend ran each leg (``serial`` is
#: always ``inprocess`` semantics; ``parallel`` names the
#: :mod:`repro.perf.backends` backend of the parallel leg, or ``null``
#: when that leg is skipped), so speedup entries in the folded history
#: are attributable to the engine that produced them.
BENCH_SCHEMA_VERSION = 6

#: Default output path (repo root by convention).
BENCH_FILENAME = "BENCH_colorbars.json"

#: Prior runs kept in a report's ``history`` (most recent last).
MAX_HISTORY = 20

#: Every key a valid report must carry.
REQUIRED_KEYS = (
    "schema_version",
    "git_rev",
    "generated_unix",
    "workers",
    "cpu_count",
    "quick",
    "cells",
    "capture_path",
    "backend",
    "failures",
    "stages_s",
    "wall_clock_s",
    "cells_per_sec",
    "speedup",
    "speedup_meaningful",
    "adaptive_vs_fixed",
    "history",
)

#: CI floor for ``cells_per_sec.serial``: a hard regression tripwire, set
#: ~3x below the committed report's value to absorb runner-to-runner
#: variance while still catching a return to the per-frame Python loops
#: (which ran at ~1.8 cells/sec on the same grid).
SERIAL_CELLS_PER_SEC_FLOOR = 3.0

#: The pinned micro-sweep: small enough to finish in seconds, large enough
#: that record/decode dominate as they do in the full artifact sweeps.
_BENCH_SEED = 7
_BENCH_COLUMNS = 32
_FULL_GRID = ((4, 1000.0), (4, 2000.0), (8, 1000.0), (8, 2000.0))
_QUICK_GRID = ((4, 1000.0), (8, 2000.0))
_FULL_DURATION_S = 1.0
_QUICK_DURATION_S = 0.6


def bench_device() -> DeviceProfile:
    """The pinned bench camera: small, fast, and stable across PRs.

    800 rows at 30 fps with a 25% gap gives 16 rows per symbol at 2 kHz
    (32 at 1 kHz) — every pinned grid cell clears the 10-row demodulation
    minimum while frames still render in milliseconds.
    """
    return DeviceProfile(
        name="bench-800",
        timing=SensorTiming(rows=800, cols=64, frame_rate=30.0, gap_fraction=0.25),
        response=perturbed_response(
            name="bench CFA",
            crosstalk=0.08,
            hue_skew=0.1,
            white_balance_error=0.02,
            fidelity=0.5,
        ),
        noise=SensorNoise(row_noise=0.02),
        optics=Optics(ambient_luminance=0.2),
    )


def micro_sweep_specs(quick: bool = False) -> List[RunSpec]:
    """The pinned cells; ``quick`` halves the grid for CI smoke runs."""
    device = bench_device()
    grid = _QUICK_GRID if quick else _FULL_GRID
    duration_s = _QUICK_DURATION_S if quick else _FULL_DURATION_S
    return [
        RunSpec(
            config=SystemConfig(
                csk_order=order,
                symbol_rate=rate,
                design_loss_ratio=device.timing.gap_fraction,
                frame_rate=device.timing.frame_rate,
            ),
            device=device,
            simulated_columns=_BENCH_COLUMNS,
            seed=_BENCH_SEED,
            duration_s=duration_s,
        )
        for order, rate in grid
    ]


#: Pinned adaptation micro-trajectory: clean -> drifted -> clean on the
#: bench camera, two rungs (32 and 16 CSK).  Small on purpose — the entry
#: tracks the controller's goodput trajectory, not the full acceptance
#: experiment (that is the adaptation-smoke CI job on a phone profile).
_ADAPT_RATE = 2000.0
_ADAPT_SEGMENT_S = 0.5


def adaptive_vs_fixed_entry(quick: bool = False) -> Dict:
    """The ``adaptive_vs_fixed`` report entry: one pinned closed-loop run.

    Identical in quick and full mode — the run is sub-second either way,
    and a pinned trajectory keeps the goodput numbers comparable across
    every entry in the folded history.
    """
    from repro.link.adapt import (
        ModulationLadder,
        ModulationRung,
        adaptive_vs_fixed,
    )
    from repro.link.channel import ChannelTrajectory, TrajectorySegment

    del quick  # same entry in both modes, by design
    segment_s = _ADAPT_SEGMENT_S
    trajectory = ChannelTrajectory(
        segments=(
            TrajectorySegment(duration_s=segment_s),
            TrajectorySegment(duration_s=segment_s, drift_intensity=0.5),
            TrajectorySegment(duration_s=segment_s, drift_intensity=0.5),
            TrajectorySegment(duration_s=segment_s),
        )
    )
    ladder = ModulationLadder(
        rungs=(
            ModulationRung(csk_order=32, loss_ratio=0.20),
            ModulationRung(csk_order=16, white_margin=0.02, loss_ratio=0.25),
        )
    )
    start = time.perf_counter()
    comparison = adaptive_vs_fixed(
        trajectory,
        bench_device(),
        ladder=ladder,
        symbol_rate=_ADAPT_RATE,
        seed=_BENCH_SEED,
        simulated_columns=_BENCH_COLUMNS,
    )
    wall = time.perf_counter() - start
    best_index, best = comparison.best_fixed()
    actions = comparison.adaptive.actions()
    return {
        "goodput_bps": {
            "adaptive": round(comparison.adaptive.goodput_bps, 4),
            "best_fixed": round(best.goodput_bps, 4),
        },
        "best_fixed_rung": best_index,
        "downshifts": actions.count("downshift"),
        "upshifts": actions.count("upshift"),
        "quarantined": comparison.adaptive.quarantined,
        "segments": len(trajectory.segments),
        "wall_s": round(wall, 4),
    }


def run_bench(
    workers: int = 4,
    quick: bool = False,
    metrics=None,
    clock=None,
    cells: Optional[int] = None,
    profile_path=None,
    backend: str = "pool",
) -> Dict:
    """Execute the micro-sweep serially and at ``workers``, return the report.

    Both legs run through the resilient runtime (containment only — no
    watchdog, no retry), so a crashing cell degrades the report into a
    nonzero ``failures`` count instead of killing the bench.  One untimed
    grid cell runs first: the timed legs then measure steady-state
    throughput (ufuncs compiled, allocator warm, the deterministic RNG plan
    cache primed) rather than process start-up costs.

    ``cells`` overrides the grid size by cycling the pinned grid — larger
    runs average out scheduler noise, smaller ones make quick profiling
    turns.  ``profile_path`` (a path) profiles the serial leg with cProfile
    and writes a cumulative-time listing there.

    On a single-CPU host (or ``workers <= 1``) the parallel leg is skipped:
    its wall clock, cells/sec, and the speedup are reported as ``null`` —
    a serial/parallel comparison on one core measures pool overhead, not
    parallelism.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) collects
    pipeline counters across every timed leg — on multi-CPU hosts each cell
    runs twice, so counter totals cover 2x the grid.  Observation is
    measurement metadata and does not enter the report's timings comparison
    beyond its own (null-path) overhead.

    ``backend`` (a :mod:`repro.perf.backends` spec, default ``pool``)
    names the engine of the parallel leg and is recorded in the report —
    so a ``remote`` speedup and a ``pool`` speedup in the folded history
    are never conflated.  The serial leg always runs in-process.

    ``clock`` stamps ``generated_unix`` (provenance metadata only) and
    defaults to :data:`repro.util.clock.wall_clock`; tests inject a
    constant for reproducible reports.
    """
    from repro.exceptions import ConfigurationError
    from repro.perf.backends import BACKEND_REGISTRY, parse_backend_spec

    clock = clock if clock is not None else wall_clock
    try:
        backend_name, _ = parse_backend_spec(backend)
    except ConfigurationError as exc:
        raise BenchError(f"bad backend spec: {exc}") from exc
    if backend_name not in BACKEND_REGISTRY:
        raise BenchError(
            f"unknown backend {backend_name!r}; known backends: "
            + ", ".join(sorted(BACKEND_REGISTRY))
        )
    specs = micro_sweep_specs(quick=quick)
    if cells is not None:
        if cells <= 0:
            raise BenchError(f"cells must be positive, got {cells}")
        specs = [specs[i % len(specs)] for i in range(cells)]
    policy = RuntimePolicy()
    cpu_count = _cpu_count()
    run_parallel = workers > 1 and cpu_count > 1

    # Warm-up: one untimed cell from the pinned grid.
    run_specs_resilient(specs[:1], workers=1, policy=policy)

    profiler = None
    if profile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    serial_start = time.perf_counter()
    serial = run_specs_resilient(specs, workers=1, policy=policy, metrics=metrics)
    serial_wall = time.perf_counter() - serial_start
    if profiler is not None:
        profiler.disable()
        _write_profile(profiler, profile_path)

    parallel_wall = None
    parallel_failures = 0
    if run_parallel:
        parallel_start = time.perf_counter()
        parallel = run_specs_resilient(
            specs, workers=workers, policy=policy, metrics=metrics,
            backend=backend,
        )
        parallel_wall = time.perf_counter() - parallel_start
        parallel_failures = len(parallel.failures)

    stages: Dict[str, float] = {}
    for result in serial.results:
        if result is not None:
            for stage, seconds in result.timings.stages.items():
                stages[stage] = stages.get(stage, 0.0) + seconds

    adapt_entry = adaptive_vs_fixed_entry(quick=quick)

    cell_count = len(specs)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_rev": _git_rev(),
        "generated_unix": clock(),
        "workers": workers,
        "cpu_count": cpu_count,
        "quick": quick,
        "cells": cell_count,
        "capture_path": DEFAULT_CAPTURE_PATH,
        "backend": {
            "serial": "inprocess",
            "parallel": backend if run_parallel else None,
        },
        "failures": len(serial.failures) + parallel_failures,
        "history": [],
        "stages_s": {
            stage: round(seconds, 4) for stage, seconds in stages.items()
        },
        "wall_clock_s": {
            "serial": round(serial_wall, 4),
            "parallel": round(parallel_wall, 4) if run_parallel else None,
        },
        "cells_per_sec": {
            "serial": round(cell_count / serial_wall, 4),
            "parallel": (
                round(cell_count / parallel_wall, 4) if run_parallel else None
            ),
        },
        "speedup": round(serial_wall / parallel_wall, 4) if run_parallel else None,
        # On one CPU the two legs contend for the same core: the ratio
        # measures pool overhead, not parallelism, so the leg is skipped
        # outright and the comparison reported as null.
        "speedup_meaningful": run_parallel,
        "adaptive_vs_fixed": adapt_entry,
    }


def _write_profile(profiler, path) -> None:
    """Dump a cProfile session as a cumulative-time listing at ``path``."""
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(60)
    Path(path).write_text(stream.getvalue())


def format_breakdown(report: Dict) -> List[str]:
    """Human-readable per-stage breakdown lines (the CLI prints them)."""
    lines = [
        f"bench: {report['cells']} cells, git {report['git_rev']}, "
        f"{report['cpu_count']} cpu(s)",
        f"{'stage':>10} | {'seconds':>8} | {'share':>6}",
        "-" * 32,
    ]
    total = sum(report["stages_s"].values()) or 1.0
    for stage, seconds in report["stages_s"].items():
        lines.append(f"{stage:>10} | {seconds:8.3f} | {seconds / total:5.1%}")
    wall = report["wall_clock_s"]
    cps = report["cells_per_sec"]
    lines.append(
        f"serial  : {wall['serial']:.3f} s ({cps['serial']:.2f} cells/s) "
        f"[{report.get('capture_path', 'batched')} capture]"
    )
    if wall["parallel"] is None:
        lines.append(
            "parallel: skipped (single CPU — the comparison would measure "
            "pool overhead, not parallelism)"
        )
    else:
        engine = (report.get("backend") or {}).get("parallel") or "pool"
        lines.append(
            f"parallel: {wall['parallel']:.3f} s ({cps['parallel']:.2f} cells/s) "
            f"at {report['workers']} workers on {engine} "
            f"-> speedup {report['speedup']:.2f}x"
        )
    if report.get("failures"):
        lines.append(
            f"DEGRADED: {report['failures']} cell failure(s) contained "
            "during the bench"
        )
    if report.get("history"):
        lines.append(f"history : {len(report['history'])} prior run(s) kept")
    return lines


def _prior_history(path) -> List[Dict]:
    """History carried over from an existing report at ``path``.

    The previous report (sans its own history) becomes the newest history
    entry; unreadable or foreign files contribute nothing, so the bench
    never refuses to write over a corrupt report.
    """
    try:
        prior = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return []
    if not isinstance(prior, dict) or "schema_version" not in prior:
        return []
    history = prior.get("history")
    entries = (
        [entry for entry in history if isinstance(entry, dict)]
        if isinstance(history, list)
        else []
    )
    entries.append({k: v for k, v in prior.items() if k != "history"})
    return entries[-MAX_HISTORY:]


def write_report(report: Dict, path) -> None:
    """Validate then write the report as pretty JSON.

    An existing report at ``path`` is not clobbered: it (and its own
    bounded history) is folded into the new report's ``history`` list, so
    the perf trajectory accumulates across reruns.
    """
    report = dict(report)
    report["history"] = _prior_history(path)
    validate_report(report)
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def validate_report(report: Dict) -> None:
    """Raise :class:`BenchError` unless ``report`` matches the schema."""
    if not isinstance(report, dict):
        raise BenchError(f"bench report must be an object, got {type(report).__name__}")
    missing = [key for key in REQUIRED_KEYS if key not in report]
    if missing:
        raise BenchError(f"bench report is missing keys: {', '.join(missing)}")
    if report["schema_version"] != BENCH_SCHEMA_VERSION:
        raise BenchError(
            f"bench schema version {report['schema_version']!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    parallel_skipped = report["wall_clock_s"].get("parallel") is None
    for section in ("wall_clock_s", "cells_per_sec"):
        values = report[section]
        if not isinstance(values, dict) or set(values) != {"serial", "parallel"}:
            raise BenchError(f"{section} must map exactly serial/parallel")
        for mode, value in values.items():
            if mode == "parallel" and parallel_skipped:
                if value is not None:
                    raise BenchError(
                        f"{section}.parallel must be null when the parallel "
                        f"leg is skipped, got {value!r}"
                    )
                continue
            if not isinstance(value, (int, float)) or value <= 0:
                raise BenchError(f"{section}.{mode} must be positive, got {value!r}")
    if not isinstance(report["stages_s"], dict) or not report["stages_s"]:
        raise BenchError("stages_s must be a non-empty object")
    backend = report["backend"]
    if not isinstance(backend, dict) or set(backend) != {"serial", "parallel"}:
        raise BenchError("backend must map exactly serial/parallel")
    if backend["serial"] != "inprocess":
        raise BenchError(
            f"backend.serial must be 'inprocess', got {backend['serial']!r}"
        )
    if parallel_skipped:
        if backend["parallel"] is not None:
            raise BenchError(
                "backend.parallel must be null when the parallel leg is "
                f"skipped, got {backend['parallel']!r}"
            )
    elif not isinstance(backend["parallel"], str) or not backend["parallel"]:
        raise BenchError(
            "backend.parallel must name the parallel leg's backend, "
            f"got {backend['parallel']!r}"
        )
    if report.get("capture_path") not in ("batched", "reference"):
        raise BenchError(
            f"capture_path must be 'batched' or 'reference', "
            f"got {report.get('capture_path')!r}"
        )
    if parallel_skipped:
        if report["speedup"] is not None:
            raise BenchError(
                "speedup must be null when the parallel leg is skipped, "
                f"got {report['speedup']!r}"
            )
    elif not isinstance(report["speedup"], (int, float)) or report["speedup"] <= 0:
        raise BenchError(f"speedup must be positive, got {report['speedup']!r}")
    if not isinstance(report["speedup_meaningful"], bool):
        raise BenchError(
            "speedup_meaningful must be a boolean, got "
            f"{report['speedup_meaningful']!r}"
        )
    adapt = report["adaptive_vs_fixed"]
    if not isinstance(adapt, dict):
        raise BenchError(
            f"adaptive_vs_fixed must be an object, got {type(adapt).__name__}"
        )
    goodput = adapt.get("goodput_bps")
    if not isinstance(goodput, dict) or set(goodput) != {"adaptive", "best_fixed"}:
        raise BenchError(
            "adaptive_vs_fixed.goodput_bps must map exactly adaptive/best_fixed"
        )
    for mode, value in goodput.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
            raise BenchError(
                f"adaptive_vs_fixed.goodput_bps.{mode} must be a "
                f"non-negative number, got {value!r}"
            )
    if not isinstance(adapt.get("quarantined"), bool):
        raise BenchError(
            "adaptive_vs_fixed.quarantined must be a boolean, got "
            f"{adapt.get('quarantined')!r}"
        )
    failures = report["failures"]
    if not isinstance(failures, int) or isinstance(failures, bool) or failures < 0:
        raise BenchError(
            f"failures must be a non-negative integer, got {failures!r}"
        )
    history = report["history"]
    if not isinstance(history, list) or not all(
        isinstance(entry, dict) for entry in history
    ):
        raise BenchError("history must be a list of prior report objects")
    if len(history) > MAX_HISTORY:
        raise BenchError(
            f"history must keep at most {MAX_HISTORY} entries, got {len(history)}"
        )


def load_and_validate(path) -> Dict:
    """Read a report file and validate it (CI's schema assertion)."""
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read bench report {path}: {exc}") from exc
    validate_report(report)
    return report


def _git_rev() -> str:
    """Short git revision of the working tree, or ``unknown`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
            check=False,
        )
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def _cpu_count() -> int:
    return os.cpu_count() or 1

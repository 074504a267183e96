"""Performance subsystem: sweep execution, resilience, caching, bench.

Every sweep of independent :class:`~repro.link.simulator.RunSpec` cells
runs one way (DESIGN.md §5d): :func:`~repro.perf.runtime.run_specs_resilient`
resolves the policy and the backend, and the sharded driver
(:mod:`repro.perf.backends`) runs the cells on it.

* :mod:`repro.perf.executor` — worker-count resolution
  (``COLORBARS_WORKERS`` / ``--workers``; 1 is serial) and
  :func:`~repro.perf.executor.make_runner`, the link layer's ``Runner``
  over the runtime.
* :mod:`repro.perf.runtime` — the policy front door: per-cell watchdog
  timeouts (``COLORBARS_CELL_TIMEOUT`` / ``--cell-timeout``), crash
  containment into structured :class:`~repro.exceptions.CellFailure`
  records, bounded seed-stable retry, and the JSONL checkpoint journal
  behind ``--resume`` — plus the process-level chaos injectors of
  :mod:`repro.faults.chaos` to prove it.
* :mod:`repro.perf.backends` — the sharded driver and the ``inprocess``,
  ``pool`` and ``remote`` engines; every cell of every sweep bit-identical
  to the serial reference by construction (each cell derives all
  randomness from its own seed).
* :mod:`repro.perf.cache` — memoizes the transmitter plan + optical
  waveform per ``(config, payload)`` so fleet/resilience sweeps stop
  rebuilding the identical broadcast per cell.
* :mod:`repro.perf.bench` — the pinned ``colorbars bench`` micro-sweep
  whose JSON report (``BENCH_colorbars.json``) tracks the perf trajectory.

Stage timings are not kept here: ``LinkResult.timings`` is read off each
run's own stage spans (:mod:`repro.link.simulator`), and the bench sums
those per-cell stages into its ``stages_s`` breakdown.
"""

from repro.perf.bench import (
    BENCH_FILENAME,
    BENCH_SCHEMA_VERSION,
    format_breakdown,
    load_and_validate,
    micro_sweep_specs,
    run_bench,
    validate_report,
    write_report,
)
from repro.perf.cache import PlanCache, config_cache_key
from repro.perf.executor import (
    WORKERS_ENV,
    default_workers,
    make_runner,
    resolve_workers,
    validate_workers,
)
from repro.perf.runtime import (
    CELL_TIMEOUT_ENV,
    RunJournal,
    RuntimePolicy,
    RuntimeResult,
    default_cell_timeout,
    execute_cell,
    resilient_fleet,
    run_specs_resilient,
    spec_fingerprint,
)

__all__ = [
    "BENCH_FILENAME",
    "BENCH_SCHEMA_VERSION",
    "format_breakdown",
    "load_and_validate",
    "micro_sweep_specs",
    "run_bench",
    "validate_report",
    "write_report",
    "PlanCache",
    "config_cache_key",
    "WORKERS_ENV",
    "default_workers",
    "make_runner",
    "resolve_workers",
    "validate_workers",
    "CELL_TIMEOUT_ENV",
    "RunJournal",
    "RuntimePolicy",
    "RuntimeResult",
    "default_cell_timeout",
    "execute_cell",
    "resilient_fleet",
    "run_specs_resilient",
    "spec_fingerprint",
]

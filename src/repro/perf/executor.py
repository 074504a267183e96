"""Sweep worker counts, and the ``Runner`` adapter over the runtime.

How many processes a sweep uses is resolved here, in one place:
``--workers``, the ``COLORBARS_WORKERS`` environment switch, and the
``workers=`` backend option all go through :func:`validate_workers`, and
:func:`resolve_workers` clamps a pool to the cells it will run.
``workers=1`` (the default) keeps a sweep serial and in-process.  The
execution itself is :func:`repro.perf.runtime.run_specs_resilient`;
:func:`make_runner` adapts it to the link layer's ``Runner`` contract.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError, LinkError
from repro.link.simulator import LinkResult, RunSpec, Runner

#: Environment switch: ``COLORBARS_WORKERS=4`` parallelizes every sweep that
#: does not pin an explicit worker count.
WORKERS_ENV = "COLORBARS_WORKERS"


def validate_workers(workers, source: str = "workers") -> int:
    """The one worker-count validator every call site routes through.

    ``source`` names the knob in the error message (``workers``, the CLI
    flag, or :data:`WORKERS_ENV`), so the same rule reads the same
    everywhere: a worker count is a positive integer.  Digit strings are
    accepted (the environment can only supply strings); fractional values
    are rejected rather than silently truncated.
    """
    try:
        value = int(workers)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{source} must be a positive integer, got {workers!r}"
        ) from None
    if isinstance(workers, bool) or (
        isinstance(workers, float) and value != workers
    ):
        raise ConfigurationError(
            f"{source} must be a positive integer, got {workers!r}"
        )
    if value < 1:
        raise ConfigurationError(
            f"{source} must be a positive integer, got {workers!r}"
        )
    return value


def resolve_workers(workers: Optional[int] = None, cell_count: Optional[int] = None) -> int:
    """Validated, clamped worker count for a sweep of ``cell_count`` cells.

    ``None`` consults :func:`default_workers`; explicit values go through
    :func:`validate_workers`; and a pool never exceeds the number of cells
    it will actually run (``cell_count``, when known) — spawning idle
    workers is pure startup cost.
    """
    if workers is None:
        workers = default_workers()
    else:
        workers = validate_workers(workers)
    if cell_count is not None:
        workers = max(1, min(workers, cell_count))
    return workers


def default_workers() -> int:
    """Worker count from :data:`WORKERS_ENV`, defaulting to 1 (serial)."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or not raw.strip():
        return 1
    return validate_workers(raw.strip(), source=WORKERS_ENV)


def make_runner(workers: Optional[int] = None, observe: bool = False) -> Runner:
    """A :data:`~repro.link.simulator.Runner` over the resilient runtime.

    Inject into :func:`repro.link.simulator.sweep`,
    :func:`repro.link.multi.broadcast_to_fleet`, or any other spec-based
    sweep: ``sweep(device, runner=make_runner(4))``.  ``observe=True``
    makes every executed cell carry its span trace and metrics export
    (``result.trace`` / ``result.obs_metrics``).  The ``Runner`` contract
    has no room for a missing result, so a failed cell raises
    :class:`~repro.exceptions.LinkError`.
    """

    def runner(specs: Sequence[RunSpec]) -> List[LinkResult]:
        # Imported here: the runtime imports this module for resolve_workers.
        from repro.perf.runtime import run_specs_resilient

        outcome = run_specs_resilient(specs, workers=workers, observe=observe)
        if outcome.failures:
            raise LinkError(f"sweep cell failed: {outcome.failures[0].describe()}")
        return outcome.results

    return runner

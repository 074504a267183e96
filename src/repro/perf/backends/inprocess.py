"""The serial in-process backend: the reference every backend must match.

Cells run one at a time, in spec order, in the caller's own
process — no pool, no workers, no scheduling freedom — so its result
table *defines* correct output for the sweep.  ``pool`` and ``remote``
(and any third-party backend; see ``docs/BACKENDS.md``) are proven by
byte-comparing against this one.

Because there is no process boundary, this backend cannot enforce a
watchdog deadline and must never host process chaos (a ``worker-crash``
would take the caller down); policies that need isolation are rejected at
construction.  Per-cell exceptions are still contained and retried per
the policy.  This is the engine of every default ``workers=1`` sweep.
"""

from __future__ import annotations

import time
from typing import List

from repro.exceptions import ConfigurationError
from repro.perf.backends.base import (
    CellOutcome,
    Shard,
    SweepBackend,
    cell_tasks,
    register_backend,
)
from repro.perf.runtime import RuntimePolicy, execute_cell


@register_backend
class InProcessBackend(SweepBackend):
    """Serial reference backend (``--backend inprocess``); single lane."""

    name = "inprocess"

    def __init__(
        self, policy: RuntimePolicy = None, observe: bool = False
    ) -> None:
        super().__init__(policy=policy, lanes=1, observe=observe)
        if self.policy.needs_isolation():
            raise ConfigurationError(
                "the inprocess backend cannot enforce a watchdog or host "
                "process chaos (no process boundary); use the pool or "
                "remote backend for policies that need isolation"
            )

    def _drain(self, shards: List[Shard]) -> List[CellOutcome]:
        outcomes: List[CellOutcome] = []
        for task in cell_tasks(shards):
            outcome = None
            while outcome is None:
                try:
                    result = execute_cell(
                        task.cell.index, task.cell.spec, task.attempt,
                        observe=self.observe,
                    )
                except Exception as exc:
                    outcome = task.retry_or_fail(
                        self.policy, "error", type(exc).__name__, str(exc),
                        time.monotonic(),
                    )
                    if outcome is None:
                        self.cells_retried += 1
                        time.sleep(max(0.0, task.ready_at - time.monotonic()))
                else:
                    outcome = task.succeeded(result)
            outcomes.append(outcome)
        return outcomes

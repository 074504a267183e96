"""The process-pool backend: a supervised ``ProcessPoolExecutor`` on this host.

Cells from *all* submitted shards feed one pool in spec-index order, so
lanes stay busy even when shards are unevenly sized, and a sweep
dispatches its cells side by side in the same order whatever its
sharding.  The supervision loop adds three protections over a bare
``pool.map``:

* **watchdog** — a cell's deadline runs from its dispatch to a worker
  slot (in-flight submissions are capped at the pool width, so queueing
  never inflates a deadline); an overdue cell is killed with its pool;
* **crash containment** — a dead worker breaks the pool
  (``BrokenProcessPool``); the pool is torn down and rebuilt, and the
  remaining cells continue;
* **retry** — a failed attempt requeues on the policy's seed-stable
  backoff schedule until ``max_attempts`` is spent.

Only a cell's own crash, timeout, or error consumes one of its attempts,
with one documented exception: once a pool breaks, the crasher is
indistinguishable from its pool-mates, so every in-flight attempt (at
most the pool width) consumes one.  Pool-mates of a *hung* cell are
resubmitted at the same attempt number.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.perf.backends.base import (
    CellOutcome,
    CellTask,
    Shard,
    SweepBackend,
    cell_tasks,
    register_backend,
)
from repro.perf.executor import resolve_workers, validate_workers
from repro.perf.runtime import RuntimePolicy, execute_cell

#: Poll interval of the supervision loop, seconds.
_TICK_S = 0.1


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool hard: terminate every worker, then release the executor.

    ``shutdown`` alone cannot clear a hung worker — the hang *is* the
    running task — so the watchdog terminates the processes first; the
    executor's management thread then observes the deaths and unblocks.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except OSError:
            pass
    pool.shutdown(wait=True, cancel_futures=True)


@register_backend
class PoolBackend(SweepBackend):
    """Supervised process-pool backend (``--backend pool[:workers=N]``)."""

    name = "pool"

    def __init__(
        self,
        policy: Optional[RuntimePolicy] = None,
        workers: Optional[int] = None,
        observe: bool = False,
    ) -> None:
        super().__init__(
            policy=policy, lanes=resolve_workers(workers), observe=observe
        )

    @classmethod
    def from_options(
        cls,
        options: Dict[str, str],
        policy: Optional[RuntimePolicy] = None,
        workers: Optional[int] = None,
        observe: bool = False,
    ) -> "PoolBackend":
        options = dict(options)
        raw = options.pop("workers", None)
        if options:
            raise ConfigurationError(
                f"backend {cls.name!r} only takes workers=N, "
                f"got {sorted(options)}"
            )
        if raw is not None:
            workers = validate_workers(raw, source="backend workers option")
        return cls(policy=policy, workers=workers, observe=observe)

    def _drain(self, shards: List[Shard]) -> List[CellOutcome]:
        policy = self.policy
        pending: Deque[CellTask] = deque(cell_tasks(shards))
        #: In-flight attempts: future -> (task, dispatch time).
        active: Dict[Future, Tuple[CellTask, float]] = {}
        outcomes: List[CellOutcome] = []
        pool: Optional[ProcessPoolExecutor] = None
        pool_width = 0

        def retry_or_fail(task: CellTask, cause, error_type, message, now):
            failed = task.retry_or_fail(policy, cause, error_type, message, now)
            if failed is None:
                pending.append(task)
                self.cells_retried += 1
            else:
                outcomes.append(failed)

        try:
            while pending or active:
                now = time.monotonic()
                if pool is None and any(t.ready_at <= now for t in pending):
                    pool_width = max(1, min(self.lanes, len(pending)))
                    pool = ProcessPoolExecutor(max_workers=pool_width)
                while pool is not None and len(active) < pool_width:
                    task = next((t for t in pending if t.ready_at <= now), None)
                    if task is None:
                        break
                    pending.remove(task)
                    future = pool.submit(
                        execute_cell, task.cell.index, task.cell.spec,
                        task.attempt, policy.chaos, self.observe,
                    )
                    active[future] = (task, time.monotonic())

                if not active:
                    # Everything runnable is backing off; sleep to the gate.
                    wake = min(t.ready_at for t in pending)
                    time.sleep(max(0.0, min(wake - time.monotonic(), _TICK_S)))
                    continue

                done, _ = futures_wait(
                    set(active), timeout=_TICK_S, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                pool_broke = False
                for future in done:
                    task, _ = active.pop(future)
                    error = future.exception()
                    if error is None:
                        outcomes.append(task.succeeded(future.result()))
                    elif isinstance(error, BrokenProcessPool):
                        pool_broke = True
                        retry_or_fail(
                            task, "crash", type(error).__name__,
                            "worker process died", now,
                        )
                    else:
                        retry_or_fail(
                            task, "error", type(error).__name__, str(error), now
                        )

                if pool_broke:
                    # Every other in-flight attempt died with the pool.
                    for task, _ in active.values():
                        retry_or_fail(
                            task, "crash", "BrokenProcessPool",
                            "worker process died", now,
                        )
                    active.clear()
                    _teardown_pool(pool)
                    pool = None
                    continue

                if policy.cell_timeout_s is None:
                    continue
                overdue = [
                    future
                    for future, (_, started_at) in active.items()
                    if now - started_at > policy.cell_timeout_s
                ]
                if overdue:
                    for future in overdue:
                        task, _ = active.pop(future)
                        retry_or_fail(
                            task, "timeout", "TimeoutError",
                            f"cell exceeded {policy.cell_timeout_s:g}s watchdog "
                            f"deadline on attempt {task.attempt}",
                            now,
                        )
                    # Innocent pool-mates: rerun at the same attempt.
                    pending.extend(task for task, _ in active.values())
                    active.clear()
                    _teardown_pool(pool)
                    pool = None
        finally:
            if pool is not None:
                _teardown_pool(pool)
        return outcomes

"""The remote backend: sweep cells on subprocess workers over stdio frames.

Each lane owns one worker process started as ``python -m
repro.perf.backends.remote_worker`` and speaks the length-prefixed
pickle-frame protocol documented there.  The workers stand in for other
hosts — the parent side only ever touches a byte stream, so swapping the
``subprocess`` pipes for TCP sockets changes nothing above the frame
reader — and tests/CI run them on localhost.

All policy lives on the parent side, which is what lets resilience
survive a *dead worker* rather than just a dead cell:

* **watchdog** — each dispatched cell gets a deadline; an overdue worker
  is killed outright (unlike a pool, there is no shared executor to
  break, so only the guilty lane pays) and the cell retries or fails
  with cause ``timeout``;
* **lost worker** — EOF on the worker's stdout before a response (crash,
  ``worker-crash`` chaos, or a ``worker-partition`` that closed the pipe
  while the process lingers) kills whatever is left of the worker,
  respawns the lane, and contains the cell with cause ``crash``;
* **cell error** — the worker stays alive and reports ``("err", ...)``;
  the cell retries on its seed-stable backoff schedule or fails with
  cause ``error``.

Retries requeue to the shared task list, so any lane may run the next
attempt; results cannot change (cells derive everything from their own
seed), which keeps the backend byte-identical to ``inprocess``.
"""

from __future__ import annotations

import os
import pickle
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.exceptions import BackendError, ConfigurationError
from repro.link.simulator import LinkResult
from repro.perf.backends.base import (
    CellOutcome,
    CellTask,
    Shard,
    SweepBackend,
    cell_tasks,
    register_backend,
)
from repro.perf.backends.remote_worker import FRAME_HEADER
from repro.perf.backends.remote_worker import write_frame as _write_frame
from repro.perf.executor import validate_workers
from repro.perf.runtime import RuntimePolicy

#: Default lane count: two localhost workers, the smallest "distributed" run.
DEFAULT_REMOTE_WORKERS = 2

#: How long a freshly spawned worker gets to send its hello frame.
WORKER_STARTUP_TIMEOUT_S = 120.0

#: Poll interval of the parent-side frame reader, seconds.
_TICK_S = 0.1


class _WorkerTimeout(BackendError):
    """Control flow: the watchdog deadline passed before a response."""


class _WorkerLost(BackendError):
    """Control flow: the worker's stdout hit EOF before a response."""


def _read_exact(fd: int, count: int, deadline: Optional[float]) -> bytes:
    """``count`` bytes from ``fd``, polling so a deadline can interrupt."""
    data = b""
    while len(data) < count:
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise _WorkerTimeout("watchdog deadline exceeded")
            timeout = min(_TICK_S, budget)
        else:
            timeout = _TICK_S
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            continue
        chunk = os.read(fd, count - len(data))
        if not chunk:
            raise _WorkerLost("worker connection lost (EOF)")
        data += chunk
    return data


def _read_frame_fd(fd: int, deadline: Optional[float]) -> Any:
    """One protocol frame from a worker's stdout file descriptor."""
    header = _read_exact(fd, FRAME_HEADER.size, deadline)
    (length,) = FRAME_HEADER.unpack(header)
    try:
        return pickle.loads(_read_exact(fd, length, deadline))
    except (_WorkerTimeout, _WorkerLost):
        raise
    except Exception as exc:
        raise BackendError(
            f"unparseable frame from remote worker: {exc}"
        ) from exc


@dataclass
class _DrainState:
    """Shared work list and results of one drain, guarded by ``cond``."""

    policy: RuntimePolicy
    cond: threading.Condition = field(
        default_factory=lambda: threading.Condition(threading.Lock())
    )
    tasks: List[CellTask] = field(default_factory=list)
    outcomes: List[CellOutcome] = field(default_factory=list)
    remaining: int = 0
    retried: int = 0
    restarts: int = 0

    def take(self) -> Optional[CellTask]:
        """Next ready task, blocking through backoff gaps; ``None`` when done."""
        with self.cond:
            while True:
                if self.remaining <= 0:
                    return None
                now = time.monotonic()
                wake: Optional[float] = None
                for task in self.tasks:
                    if task.ready_at <= now:
                        self.tasks.remove(task)
                        return task
                    wake = (
                        task.ready_at
                        if wake is None
                        else min(wake, task.ready_at)
                    )
                timeout = (
                    _TICK_S if wake is None else min(max(wake - now, 0.01), _TICK_S)
                )
                self.cond.wait(timeout)

    def resolve_success(self, task: CellTask, result: LinkResult) -> None:
        with self.cond:
            self.outcomes.append(task.succeeded(result))
            self.remaining -= 1
            self.cond.notify_all()

    def resolve_failure(
        self, task: CellTask, cause: str, error_type: str, message: str
    ) -> None:
        """Requeue for the next attempt, or record the final failure."""
        with self.cond:
            failed = task.retry_or_fail(
                self.policy, cause, error_type, message, time.monotonic()
            )
            if failed is None:
                self.tasks.append(task)
                self.retried += 1
            else:
                self.outcomes.append(failed)
                self.remaining -= 1
            self.cond.notify_all()

    def note_restart(self) -> None:
        with self.cond:
            self.restarts += 1


@register_backend
class RemoteBackend(SweepBackend):
    """Stdio/subprocess worker backend (``--backend remote[:workers=N]``)."""

    name = "remote"

    def __init__(
        self,
        policy: Optional[RuntimePolicy] = None,
        workers: Optional[int] = None,
        observe: bool = False,
    ) -> None:
        lanes = (
            DEFAULT_REMOTE_WORKERS
            if workers is None
            else validate_workers(workers)
        )
        super().__init__(policy=policy, lanes=lanes, observe=observe)
        self._workers_lock = threading.Lock()
        self._live_workers: List[subprocess.Popen] = []

    @classmethod
    def from_options(
        cls,
        options: Dict[str, str],
        policy: Optional[RuntimePolicy] = None,
        workers: Optional[int] = None,
        observe: bool = False,
    ) -> "RemoteBackend":
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

    # -- worker lifecycle --------------------------------------------------

    def _spawn_worker(self) -> subprocess.Popen:
        env = dict(os.environ)
        # this file is src/repro/perf/backends/remote.py -> src is 4 up
        src_root = str(Path(__file__).resolve().parents[3])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        # -c instead of -m: runpy would re-execute a module the package
        # __init__ already imported and warn about the double import.
        worker = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; "
                "from repro.perf.backends.remote_worker import worker_main; "
                "sys.exit(worker_main())",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            hello = _read_frame_fd(
                worker.stdout.fileno(),
                time.monotonic() + WORKER_STARTUP_TIMEOUT_S,
            )
        except BackendError as exc:
            self._destroy_worker(worker)
            raise BackendError(
                f"remote worker failed its startup handshake: {exc}"
            ) from exc
        if not (isinstance(hello, tuple) and hello and hello[0] == "hello"):
            self._destroy_worker(worker)
            raise BackendError(
                f"remote worker sent {hello!r} instead of a hello frame"
            )
        with self._workers_lock:
            self._live_workers.append(worker)
        return worker

    def _destroy_worker(self, worker: subprocess.Popen) -> None:
        """Kill a worker hard and reap it (partitioned workers linger)."""
        with self._workers_lock:
            if worker in self._live_workers:
                self._live_workers.remove(worker)
        try:
            worker.kill()
        except OSError:
            pass
        try:
            worker.wait(timeout=10.0)
        except (subprocess.TimeoutExpired, OSError):
            pass
        for stream in (worker.stdin, worker.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass

    def _retire_worker(self, worker: subprocess.Popen) -> None:
        """Polite shutdown of an idle worker at end of drain/close."""
        try:
            _write_frame(worker.stdin, ("exit",))
        except (OSError, ValueError):
            pass
        self._destroy_worker(worker)

    def _close(self) -> None:
        with self._workers_lock:
            stragglers = list(self._live_workers)
        for worker in stragglers:
            self._retire_worker(worker)

    # -- drain -------------------------------------------------------------

    def _drain(self, shards: List[Shard]) -> List[CellOutcome]:
        state = _DrainState(policy=self.policy, tasks=cell_tasks(shards))
        state.remaining = len(state.tasks)
        if not state.remaining:
            return []

        lane_count = min(self.lanes, state.remaining)
        lanes = [
            threading.Thread(
                target=self._lane_loop,
                args=(state,),
                name=f"colorbars-remote-lane-{lane}",
                daemon=True,
            )
            for lane in range(lane_count)
        ]
        for lane in lanes:
            lane.start()
        for lane in lanes:
            lane.join()
        self.cells_retried += state.retried
        self.worker_restarts += state.restarts
        return state.outcomes

    def _lane_loop(self, state: _DrainState) -> None:
        """One lane: own a worker, pull tasks until the drain is done."""
        worker: Optional[subprocess.Popen] = None
        try:
            while True:
                task = state.take()
                if task is None:
                    return
                if worker is not None and worker.poll() is not None:
                    self._destroy_worker(worker)
                    state.note_restart()
                    worker = None
                if worker is None:
                    try:
                        worker = self._spawn_worker()
                    except BackendError as exc:
                        state.resolve_failure(
                            task, "crash", type(exc).__name__, str(exc)
                        )
                        continue
                if not self._run_task(worker, task, state):
                    worker = None  # destroyed mid-task; lane respawns
        finally:
            if worker is not None:
                self._retire_worker(worker)

    def _run_task(
        self, worker: subprocess.Popen, task: CellTask, state: _DrainState
    ) -> bool:
        """Dispatch one cell; returns whether the worker is still usable."""
        try:
            _write_frame(
                worker.stdin,
                (
                    "cell",
                    task.cell.index,
                    task.cell.spec,
                    task.attempt,
                    self.policy.chaos,
                    self.observe,
                ),
            )
        except (OSError, ValueError):
            self._destroy_worker(worker)
            state.note_restart()
            state.resolve_failure(
                task, "crash", "BrokenPipeError",
                "worker died before the cell could be dispatched",
            )
            return False

        deadline = (
            time.monotonic() + self.policy.cell_timeout_s
            if self.policy.cell_timeout_s is not None
            else None
        )
        try:
            response = _read_frame_fd(worker.stdout.fileno(), deadline)
        except _WorkerTimeout:
            self._destroy_worker(worker)
            state.note_restart()
            state.resolve_failure(
                task, "timeout", "TimeoutError",
                f"cell exceeded {self.policy.cell_timeout_s:g}s watchdog "
                f"deadline on attempt {task.attempt}",
            )
            return False
        except _WorkerLost as exc:
            self._destroy_worker(worker)
            state.note_restart()
            state.resolve_failure(task, "crash", type(exc).__name__, str(exc))
            return False
        except BackendError as exc:
            # Unparseable frame: the stream is out of sync; drop the worker.
            self._destroy_worker(worker)
            state.note_restart()
            state.resolve_failure(task, "crash", type(exc).__name__, str(exc))
            return False

        kind = response[0] if isinstance(response, tuple) and response else None
        if kind == "ok" and response[1] == task.cell.index:
            state.resolve_success(task, response[2])
            return True
        if kind == "err":
            state.resolve_failure(task, "error", response[2], response[3])
            return True
        self._destroy_worker(worker)
        state.note_restart()
        state.resolve_failure(
            task, "crash", "BackendError",
            f"remote worker answered out of protocol: {response!r}",
        )
        return False

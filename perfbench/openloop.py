"""Open-loop frame generator for the serve-stream workload.

Sessions start on a fixed stagger and each delivers its frames at the
camera's frame rate, whether or not the server kept up: a stall delays the
frames behind it instead of slowing the schedule down.  Every frame is
timed from the moment it was *due*, so queueing behind a slow ``pump`` or
``close`` is part of its latency, and the generator reports its own
lateness (how long after its due time each frame was actually submitted).

A server that cannot keep up shows as a growing backlog: frames due well
before the end of the schedule that were still unsubmitted when the last
frame fell due (``backlog_end``), and as frames the server dropped.

The server is anything with ``open(session)``, ``submit(session, frame)``
returning whether the frame was accepted, ``pump()`` and ``close(session)``;
``clock`` and ``sleep`` are injectable so the accounting can be tested
against a stub that only pretends to work.  The default ``sleep`` spins
instead of yielding the CPU: on a virtual machine a descheduled core wakes
late and cold, which made idle-heavy runs far noisier than busy ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List


@dataclass(frozen=True)
class LoadPlan:
    """An open-loop schedule: ``sessions`` staggered 30 fps streams."""

    sessions: int
    frames_per_session: int
    sessions_per_s: float
    fps: float = 30.0

    @property
    def frame_interval_s(self) -> float:
        return 1.0 / self.fps

    @property
    def offered_fps(self) -> float:
        return self.sessions_per_s * self.frames_per_session

    def schedule(self) -> List[tuple]:
        """``(due_s, session, frame)`` for every frame, in due order."""
        events = [
            (s / self.sessions_per_s + j * self.frame_interval_s, s, j)
            for s in range(self.sessions)
            for j in range(self.frames_per_session)
        ]
        events.sort()
        return events


@dataclass
class LoopStats:
    """What one open-loop run measured (all times in seconds)."""

    frame_latency: List[float] = field(default_factory=list)
    close_latency: List[float] = field(default_factory=list)
    #: Per frame: submission time minus due time.
    lag: List[float] = field(default_factory=list)
    submit_s: List[float] = field(default_factory=list)
    pump_s: List[float] = field(default_factory=list)
    close_s: List[float] = field(default_factory=list)
    frames: int = 0
    rejected: int = 0
    backlog_end: int = 0
    wall_s: float = 0.0

    @property
    def busy_s(self) -> float:
        """Time spent inside server calls."""
        return sum(self.submit_s) + sum(self.pump_s) + sum(self.close_s)


def spin(seconds: float) -> None:
    """Busy-wait ``seconds`` on the performance counter."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def run_open_loop(
    server,
    plan: LoadPlan,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = spin,
) -> LoopStats:
    """Drive ``server`` through ``plan`` in real time; see module doc."""
    events = plan.schedule()
    last_frame = plan.frames_per_session - 1
    end_due = events[-1][0]
    # Frames due this long before the end must be in by the end.
    backlog_cutoff = end_due - plan.frame_interval_s
    stats = LoopStats(frames=len(events))
    start = clock()
    backlog_measured = False
    i = 0
    while i < len(events):
        now = clock() - start
        due = events[i][0]
        if due > now:
            sleep(due - now)
            continue
        if not backlog_measured and now >= end_due:
            backlog_measured = True
            stats.backlog_end = sum(
                1 for event in events[i:] if event[0] < backlog_cutoff
            )
        batch = []
        while i < len(events) and events[i][0] <= now:
            due, session, frame = events[i]
            if frame == 0:
                server.open(session)
            before = clock()
            stats.lag.append(before - start - due)
            if not server.submit(session, frame):
                stats.rejected += 1
            stats.submit_s.append(clock() - before)
            batch.append(events[i])
            i += 1
        before = clock()
        server.pump()
        done = clock()
        stats.pump_s.append(done - before)
        for due, _, _ in batch:
            stats.frame_latency.append(done - start - due)
        for due, session, frame in batch:
            if frame == last_frame:
                before = clock()
                server.close(session)
                closed = clock()
                stats.close_s.append(closed - before)
                stats.close_latency.append(closed - start - due)
    stats.wall_s = clock() - start
    return stats

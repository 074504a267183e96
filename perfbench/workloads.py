"""The three workloads, untraced: set-up, a timed loop, correctness checks.

* ``sweep-grid`` — the Figs 9-11 grid on the pinned bench camera, serially
  through ``run_specs_resilient``'s in-process path.
* ``phone-record`` — one long Nexus 5 recording per iteration through
  ``LinkSimulator.run``.
* ``serve-stream`` — an open loop of staggered 30 fps sessions through
  ``SessionManager`` (see :mod:`perfbench.openloop`).

Each pass or iteration draws a fresh seed from ``--seed`` (see
:func:`perfbench.common.pass_seed`).  ``--seconds`` fixes how many passes a
batch run makes, at a pinned nominal pass time, not how many fit before a
clock runs out: the work of a run, and so every output it checks and every
failure it counts, depends on the seed alone.  Goodput is taken over a
fixed number of leading passes.  Batch workloads hand the receiver a whole
recording at once, so every frame of a recording is decoded when the
decode returns: their frame and close latencies are the recording's
decode time, taken from the stage timings ``LinkResult`` already carries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from perfbench.common import (
    LAYERS,
    Outcome,
    check_payloads,
    check_result,
    mean,
    median,
    pass_seed,
    peak_rss_mb,
    percentile,
)
from perfbench.openloop import LoadPlan, run_open_loop

SERVE = LAYERS["serve_stream"]


@dataclass(frozen=True)
class Size:
    """Workload dimensions; ``FULL`` is the benchmark, ``TINY`` a smoke test."""

    orders: Tuple[int, ...]
    rates: Tuple[float, ...]
    sweep_duration_s: float
    #: Nominal wall seconds of one grid pass; ``--seconds`` buys this many.
    sweep_pass_s: float
    goodput_passes: int
    phone_duration_s: float
    phone_warmup_s: float
    #: Nominal wall seconds of one recording through ``LinkSimulator.run``.
    phone_run_s: float
    phone_goodput_runs: int
    serve_recordings: int


FULL = Size(
    orders=(4, 8, 16, 32),
    rates=(1000.0, 2000.0, 3000.0, 4000.0),
    sweep_duration_s=2.0,
    # 2 vCPU at 2.0-2.5 cells/s: 5 passes in a 25 s run.
    sweep_pass_s=5.0,
    goodput_passes=2,
    phone_duration_s=3.0,
    # A 1 s recording is the shortest warm-up after which the first 3 s
    # decode runs at steady-state speed.
    phone_warmup_s=1.0,
    # 2 vCPU at ~1.15 host s per video s: 8 recordings in a 25 s run.
    phone_run_s=3.125,
    phone_goodput_runs=4,
    serve_recordings=24,
)
TINY = Size(
    orders=(4, 8),
    rates=(2000.0,),
    sweep_duration_s=0.3,
    sweep_pass_s=1.0,
    goodput_passes=1,
    phone_duration_s=0.3,
    phone_warmup_s=0.2,
    phone_run_s=1.0,
    phone_goodput_runs=1,
    serve_recordings=2,
)
SIZES = {"full": FULL, "tiny": TINY}


def fixed_passes(seconds: float, nominal_s: float, minimum: int) -> int:
    """Passes a run of ``seconds`` makes at ``nominal_s`` per pass."""
    return max(minimum, int(round(seconds / nominal_s)))


def batch_latencies(results) -> Tuple[List[float], List[float]]:
    """Per-frame and per-recording latency samples of batch decodes.

    A frame is due when the recording reaches the receiver (``record``
    returned) and done when ``process_frames`` returns; the recording is
    closed when its metrics are computed.
    """
    frames: List[float] = []
    closes: List[float] = []
    for result in results:
        stages = result.timings.stages
        decoded = stages.get("inject", 0.0) + stages.get("decode", 0.0)
        frames.extend([decoded] * result.report.frames_processed)
        closes.append(decoded + stages.get("metrics", 0.0))
    return frames, closes


def add_batch_metrics(out: Outcome, passes, video_s: float,
                      goodput_passes: int) -> None:
    """The end-to-end metrics every batch workload shares.

    ``passes`` holds each pass's completed results and its wall seconds; a
    pass is one grid sweep or one recording.
    """
    count = len(passes)
    out.add("cells_per_s", median([len(rs) / wall for rs, wall in passes]),
            "cells/s", count)
    out.add("sim_s_per_video_s",
            median([wall / (len(rs) * video_s) for rs, wall in passes]),
            "s/s", count)
    results = [r for rs, _ in passes for r in rs]
    per_frame = [
        1000.0 * r.timings.stages.get("decode", 0.0) / r.report.frames_processed
        for r in results if r.report.frames_processed
    ]
    out.add("decode_ms_per_frame", median(per_frame), "ms", len(per_frame))
    goodput = [r.metrics.goodput_bps for rs, _ in passes[:goodput_passes]
               for r in rs]
    out.add("goodput_bps", mean(goodput), "bit/s", len(goodput))
    frames, closes = batch_latencies(results)
    out.add_percentile("frame_latency_p50_ms", frames, 50, "ms", 1000.0)
    out.add_percentile("close_latency_p50_ms", closes, 50, "ms", 1000.0)
    out.add_percentile("close_latency_p90_ms", closes, 90, "ms", 1000.0)


class SweepWorkload:
    """``sweep-grid``: the grid serially through the in-process runtime path."""

    name = "sweep-grid"

    def __init__(self, size: Size, seed: int) -> None:
        self.size = size
        self.seed = seed

    def setup(self) -> None:
        from repro.perf.bench import bench_device
        from repro.perf.runtime import RuntimePolicy

        self.device = bench_device()
        # The runtime default without a watchdog or retries, independent of
        # COLORBARS_CELL_TIMEOUT in the environment.
        self.policy = RuntimePolicy()
        # Untimed warm-up on a seed no timed pass uses.
        self.run(self.specs(0)[:2])

    def specs(self, index: int) -> list:
        from repro.link.simulator import sweep_specs

        return list(sweep_specs(
            self.device,
            orders=self.size.orders,
            symbol_rates=self.size.rates,
            duration_s=self.size.sweep_duration_s,
            seed=pass_seed(self.seed, index),
        ).values())

    def run(self, specs, backend=None, metrics=None):
        """One sweep: serial in-process, or through a named backend."""
        from repro.perf.runtime import run_specs_resilient

        return run_specs_resilient(
            specs, workers=1, policy=self.policy, metrics=metrics,
            backend=backend,
        )

    def measure(self, seconds: float) -> Outcome:
        out = Outcome(self.name)
        passes = []
        count = fixed_passes(seconds, self.size.sweep_pass_s,
                             self.size.goodput_passes)
        for index in range(1, count + 1):
            specs = self.specs(index)
            began = time.perf_counter()
            run = self.run(specs)
            passes.append((specs, run, time.perf_counter() - began))
            if index == self.size.goodput_passes:
                # Peak memory over a fixed amount of work: the capture-plan
                # memo keeps growing with every further pass's fresh seed.
                out.add("peak_rss_mb", peak_rss_mb(), "MB")

        results = []
        for specs, run, _ in passes:
            out.attempted += len(specs)
            for failure in run.failures:
                out.fail(f"cell failure: {failure.describe()}")
            for spec, result in zip(specs, run.results):
                if result is None:
                    continue
                results.append(result)
                check_result(out, f"{spec.config.csk_order}-CSK at "
                             f"{spec.config.symbol_rate:g} Hz, seed "
                             f"{spec.seed}", result)
        add_batch_metrics(
            out,
            [([r for r in run.results if r is not None], wall)
             for _, run, wall in passes],
            self.size.sweep_duration_s,
            self.size.goodput_passes,
        )
        out.details.update(passes=len(passes), cells=len(results))
        return out


class PhoneWorkload:
    """``phone-record``: long Nexus 5 recordings through ``LinkSimulator``."""

    name = "phone-record"
    columns = 48

    def __init__(self, size: Size, seed: int) -> None:
        self.size = size
        self.seed = seed

    def setup(self) -> None:
        from repro.camera.devices import nexus_5
        from repro.core.config import SystemConfig

        self.device = nexus_5()
        self.config = SystemConfig(
            csk_order=16,
            symbol_rate=4000.0,
            design_loss_ratio=self.device.timing.gap_fraction,
            frame_rate=self.device.timing.frame_rate,
        )
        # Fills the vignette memo and the allocator on a seed no timed
        # iteration uses.
        self.simulate(0, self.size.phone_warmup_s)

    def simulate(self, index: int, duration_s: float):
        from repro.link.simulator import LinkSimulator

        return LinkSimulator(
            self.config, self.device, simulated_columns=self.columns,
            seed=pass_seed(self.seed, index),
        ).run(duration_s=duration_s)

    def measure(self, seconds: float) -> Outcome:
        out = Outcome(self.name)
        results, walls = [], []
        count = fixed_passes(seconds, self.size.phone_run_s,
                             self.size.phone_goodput_runs)
        for index in range(1, count + 1):
            began = time.perf_counter()
            results.append(self.simulate(index, self.size.phone_duration_s))
            walls.append(time.perf_counter() - began)
            if index == self.size.phone_goodput_runs:
                out.add("peak_rss_mb", peak_rss_mb(), "MB")
        for index, result in enumerate(results, start=1):
            check_result(out, f"recording seed {pass_seed(self.seed, index)}",
                         result)
        out.attempted = len(results)
        add_batch_metrics(
            out, [([r], wall) for r, wall in zip(results, walls)],
            self.size.phone_duration_s, self.size.phone_goodput_runs,
        )
        out.details.update(recordings=len(results))
        return out


class ManagerTarget:
    """Adapts a ``SessionManager`` to the open-loop server protocol."""

    def __init__(self, manager, frames_of) -> None:
        self.manager = manager
        self.frames_of = frames_of

    @staticmethod
    def session_id(session: int) -> str:
        return f"session-{session:05d}"

    def open(self, session: int) -> None:
        self.manager.open_session(self.session_id(session))

    def submit(self, session: int, frame: int) -> bool:
        from repro.serve.manager import SUBMIT_ACCEPTED

        outcome = self.manager.submit_frame(
            self.session_id(session), self.frames_of(session)[frame]
        )
        return outcome == SUBMIT_ACCEPTED

    def pump(self) -> None:
        self.manager.pump()

    def close(self, session: int) -> None:
        record = self.manager.get(self.session_id(session))
        if record.is_active:
            self.manager.close_session(self.session_id(session))


class ServeWorkload:
    """``serve-stream``: staggered 30 fps sessions through the session service.

    Recordings are made during set-up; session ``i`` replays recording
    ``i % recordings`` through an uncalibrated streaming receiver, exactly
    as ``repro.serve.soak.run_soak`` builds its sessions.
    """

    name = "serve-stream"

    def __init__(self, size: Size, seed: int) -> None:
        self.size = size
        self.seed = seed
        self._reference: Dict[int, List[bytes]] = {}

    def setup(self) -> None:
        from repro.core.config import SystemConfig
        from repro.link.simulator import LinkSimulator
        from repro.perf.bench import bench_device

        self.device = bench_device()
        self.config = SystemConfig(
            csk_order=SERVE["csk_order"],
            symbol_rate=SERVE["symbol_rate_hz"],
            design_loss_ratio=self.device.timing.gap_fraction,
            frame_rate=self.device.timing.frame_rate,
        )
        self.recordings = []
        for index in range(self.size.serve_recordings):
            simulator = LinkSimulator(
                self.config, self.device,
                simulated_columns=SERVE["simulated_columns"],
                seed=pass_seed(self.seed, index),
            )
            plan, frames, _ = simulator.record_session(
                duration_s=SERVE["session_s"]
            )
            self.recordings.append((plan, frames))
        lengths = {len(frames) for _, frames in self.recordings}
        if len(lengths) != 1:
            raise RuntimeError(f"recordings differ in length: {lengths}")
        self.frames_per_session = lengths.pop()
        # Warm the streaming path once, off the clock.
        streaming = self.make_streaming()
        for frame in self.recordings[0][1]:
            streaming.feed(frame)
        streaming.finish()

    def make_streaming(self):
        from repro.core.system import make_streaming_receiver

        return make_streaming_receiver(self.config, self.device.timing)

    def load_plan(self, seconds: float) -> LoadPlan:
        rate = SERVE["sessions_per_s"]
        return LoadPlan(
            sessions=max(1, int(round(rate * seconds))),
            frames_per_session=self.frames_per_session,
            sessions_per_s=rate,
            fps=SERVE["fps"],
        )

    def recording_of(self, session: int):
        return self.recordings[session % len(self.recordings)]

    def reference_payloads(self, recording: int) -> List[bytes]:
        """Batch ``process_frames`` payloads of one recording (memoized)."""
        from repro.core.system import make_receiver

        if recording not in self._reference:
            receiver = make_receiver(self.config, self.device.timing)
            report = receiver.process_frames(self.recordings[recording][1])
            self._reference[recording] = list(report.payloads)
        return self._reference[recording]

    def serve(self, plan: LoadPlan, make_streaming=None):
        """Run one open loop; returns ``(manager, loop stats)``."""
        from repro.serve.manager import ServePolicy, SessionManager

        manager = SessionManager(
            make_streaming or (lambda session_id: self.make_streaming()),
            policy=ServePolicy(max_sessions=None, idle_timeout_s=None),
        )
        target = ManagerTarget(
            manager, lambda session: self.recording_of(session)[1]
        )
        stats = run_open_loop(target, plan)
        return manager, stats

    def check_sessions(self, out: Outcome, manager, plan: LoadPlan) -> None:
        """Count failed sessions and frames; check payloads against batch."""
        k = self.config.rs_params().k
        for session in range(plan.sessions):
            record = manager.get(ManagerTarget.session_id(session))
            recording = session % len(self.recordings)
            out.fail(f"session {session}: frames dropped", record.frames_dropped)
            if record.failure is not None:
                out.fail(f"session {session}: quarantined, "
                         f"{record.failure.describe()}")
                continue
            payloads = record.payloads()
            check_payloads(out, f"session {session}",
                           self.recordings[recording][0].codewords, k, payloads)
            if record.frames_dropped == 0:
                out.check(payloads == self.reference_payloads(recording),
                          f"session {session}: streaming payloads differ "
                          "from batch process_frames")

    def measure(self, seconds: float) -> Outcome:
        out = Outcome(self.name)
        plan = self.load_plan(seconds)
        manager, stats = self.serve(plan)
        out.add("peak_rss_mb", peak_rss_mb(), "MB")
        out.attempted = plan.sessions + stats.frames
        self.check_sessions(out, manager, plan)
        video_s = plan.sessions * plan.frames_per_session / plan.fps
        payload_bits = 8 * sum(
            len(payload)
            for session in range(plan.sessions)
            for payload in manager.get(ManagerTarget.session_id(session)).payloads()
        )
        out.add("cells_per_s", plan.sessions / stats.wall_s, "cells/s",
                plan.sessions)
        out.add("sim_s_per_video_s", stats.busy_s / video_s, "s/s",
                stats.frames)
        out.add("decode_ms_per_frame",
                1000.0 * (sum(stats.pump_s) + sum(stats.close_s)) / stats.frames,
                "ms", stats.frames)
        out.add("goodput_bps", payload_bits / video_s, "bit/s", plan.sessions)
        out.add_percentile("frame_latency_p50_ms", stats.frame_latency, 50,
                           "ms", 1000.0)
        out.add_percentile("close_latency_p50_ms", stats.close_latency, 50,
                           "ms", 1000.0)
        out.add_percentile("close_latency_p90_ms", stats.close_latency, 90,
                           "ms", 1000.0)
        limit_ms = SERVE["latency_limit_ms"]
        tail_ms = 1000.0 * percentile(stats.frame_latency, 99)
        out.details.update(
            sessions=plan.sessions,
            offered_fps=plan.offered_fps,
            frame_latency_p99_ms=tail_ms,
            latency_limit_ms=limit_ms,
            p99_within_limit=tail_ms <= limit_ms,
            backlog_end=stats.backlog_end,
            frames_dropped=sum(
                manager.get(ManagerTarget.session_id(s)).frames_dropped
                for s in range(plan.sessions)
            ),
            generator_lag_max_ms=1000.0 * max(stats.lag),
        )
        return out


WORKLOADS = ("sweep-grid", "phone-record", "serve-stream")


def make(name: str, size: Size, seed: int):
    if name == "sweep-grid":
        return SweepWorkload(size, seed)
    if name == "phone-record":
        return PhoneWorkload(size, seed)
    if name == "serve-stream":
        return ServeWorkload(size, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

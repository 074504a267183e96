"""The traced run: per-layer metrics, timed from the benchmark's own files.

Nothing here adds a span to the program.  Batch cells are rebuilt step by
step from the public functions ``LinkSimulator.run`` calls, each call timed
here, with a ``repro.obs.trace.Tracer`` passed in to read the spans the
receiver already emits.  The rebuilt cell must equal ``RunSpec.execute()``
on deterministic content, and ``plan_recording`` + ``develop_frames`` on a
twin camera must reproduce ``record``'s pixels exactly; either mismatch is
a failed check.  The sweep's pool leg and the serve loop time the calls
into their layers the same way.  Traced runs do a fixed amount of work, so
their counts repeat exactly for a seed.
"""

from __future__ import annotations

import inspect
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List

from perfbench.common import Outcome, cpu_count, mean, pass_seed, percentile
from perfbench.workloads import ManagerTarget

#: Receiver spans the program emits, by per-layer metric.
RX_SPANS = {
    "rx.segment_ms": "segment",
    "rx.calibrate_ms": "calibrate",
    "rx.demod_ms": "demod",
    "rx.assemble_ms": "assemble",
    "rx.fec_ms": "fec",
}


def deterministic_content(result) -> tuple:
    """What the determinism contract pins for one ``LinkResult``.

    Metrics, payloads, the on-air symbols and the fault schedule; timings
    and traces are measurement metadata and are left out.
    """
    return (
        result.metrics,
        list(result.report.payloads),
        list(result.plan.symbols),
        result.fault_schedule,
    )


def span_totals(spans) -> Dict[str, float]:
    """Seconds spent in each span name (summed over all spans of it)."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
    return totals


@contextmanager
def timed(into: Dict[str, float], key: str):
    began = time.perf_counter()
    try:
        yield
    finally:
        into[key] = into.get(key, 0.0) + time.perf_counter() - began


@dataclass
class CellTrace:
    """One rebuilt cell: per-call seconds, spans, and what it produced."""

    seconds: Dict[str, float]
    spans: Dict[str, float]
    wall: float
    frames: int
    frame_bytes: int
    report: object
    content: tuple
    split_matches: bool


def rebuild_cell(spec) -> CellTrace:
    """``RunSpec.execute()`` step by step, every layer call timed."""
    import numpy as np

    from repro.camera.capture import develop_frames, plan_recording
    from repro.camera.devices import DeviceProfile
    from repro.camera.sensor import RollingShutterCamera
    from repro.core.metrics import align_ground_truth, compute_link_metrics
    from repro.core.system import ColorBarsTransmitter, make_receiver
    from repro.faults.base import FaultSchedule
    from repro.link.channel import ChannelConditions
    from repro.link.workloads import text_payload
    from repro.obs.trace import Tracer
    from repro.phy.waveform import EXTEND_CYCLE
    from repro.rx.preprocess import frames_to_scanline_lab

    if spec.faults:
        raise ValueError("the rebuilt cell applies no fault injectors")
    config = spec.config
    k = config.rs_params().k
    tracer = Tracer()
    seconds: Dict[str, float] = {}
    began = time.perf_counter()
    with timed(seconds, "tx"):
        transmitter = ColorBarsTransmitter(config)
        payload = spec.payload
        if payload is None:
            payload = text_payload(3 * k, seed=spec.seed)
        plan = transmitter.plan(payload)
        waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
    channel = spec.channel or ChannelConditions.paper_setup()
    profile = DeviceProfile(
        name=spec.device.name,
        timing=spec.device.timing,
        response=spec.device.response,
        noise=spec.device.noise,
        optics=channel.make_optics(),
    )
    camera = profile.make_camera(
        simulated_columns=spec.simulated_columns, seed=spec.seed
    )
    with timed(seconds, "record"):
        frames = camera.record(waveform, duration=spec.duration_s, tracer=tracer)
    with timed(seconds, "receiver_build"):
        receiver = make_receiver(config, profile.timing, tracer=tracer)
    with timed(seconds, "decode"):
        report = receiver.process_frames(frames)
    with timed(seconds, "metrics"):
        matches = align_ground_truth(report.bands, plan.symbols, waveform)
        metrics = compute_link_metrics(
            report=report,
            matches=matches,
            bits_per_symbol=config.bits_per_symbol,
            payload_bytes_per_packet=k,
            duration_s=spec.duration_s,
        )
    wall = time.perf_counter() - began

    # Off the cell's clock: the capture split on a twin camera, and the
    # batched preprocess on the recorded frames.
    defaults = inspect.signature(RollingShutterCamera.record).parameters
    twin = profile.make_camera(
        simulated_columns=spec.simulated_columns, seed=spec.seed
    )
    with timed(seconds, "plan"):
        recording = plan_recording(
            twin, waveform, spec.duration_s,
            defaults["start_time"].default, defaults["frame_jitter_s"].default,
        )
    with timed(seconds, "develop"):
        pixels = develop_frames(twin, recording)
    split_matches = recording.frame_count == len(frames) and all(
        np.array_equal(pixels[i], frame.pixels) for i, frame in enumerate(frames)
    )
    with timed(seconds, "preprocess"):
        frames_to_scanline_lab(frames)
    return CellTrace(
        seconds=seconds,
        spans=span_totals(tracer.spans()),
        wall=wall,
        frames=len(frames),
        frame_bytes=int(frames[0].pixels.nbytes),
        report=report,
        content=(metrics, list(report.payloads), list(plan.symbols),
                 FaultSchedule()),
        split_matches=split_matches,
    )


@dataclass
class Layers:
    """Per-layer values of one traced run; unset metrics read 0."""

    values: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.values[name] = float(value)
        self.samples[name] = int(samples)

    def counts(self, reports) -> None:
        """The rx counters, summed over ``reports``."""
        reports = list(reports)
        seen = sum(r.packets_seen for r in reports)
        decoded = sum(r.packets_decoded for r in reports)
        self.put("rx.symbols_detected", sum(r.symbols_detected for r in reports))
        self.put("rx.symbols_lost_in_gaps",
                 sum(r.symbols_lost_in_gaps for r in reports))
        self.put("rx.packets_seen", seen)
        self.put("rx.packets_decoded", decoded)
        self.put("rx.packet_yield", decoded / seen if seen else 0.0)
        self.put("rx.frames_failed", sum(r.frames_failed for r in reports))

    def rx_spans(self, spans: Dict[str, float], recordings: int,
                 packets_seen: int) -> None:
        for metric, name in RX_SPANS.items():
            self.put(metric, 1000.0 * spans.get(name, 0.0) / recordings,
                     recordings)
        if packets_seen:
            self.put("fec.decode_us_per_packet",
                     1e6 * spans.get("fec", 0.0) / packets_seen, packets_seen)

    def percentiles(self, name: str, values, qs, scale: float) -> None:
        """``name_pQ`` for each ``Q`` in ``qs``, scaled from seconds."""
        for q in qs:
            self.put(f"{name}_p{q}", percentile(values, q) * scale, len(values))


def add_spans(into: Dict[str, float], spans: Dict[str, float]) -> None:
    for name, seconds in spans.items():
        into[name] = into.get(name, 0.0) + seconds


def cell_span_seconds(result) -> float:
    """Duration of the root ``cell`` span an observed cell carries."""
    return sum(s.duration_s for s in result.trace if s.name == "cell")


def retries(registry) -> int:
    from repro.obs.schema import M_CELLS_RETRIED

    return int(registry.export()["counters"].get(M_CELLS_RETRIED, 0))


def trace_cells(out: Outcome, layers: Layers, specs) -> List:
    """Untraced ``RunSpec.execute()`` and the rebuilt cell, spec by spec.

    The untraced cell is timed on its second execution, after the rebuilt
    one, so both timings see the same warm capture-plan memo.
    """
    untraced = [spec.execute() for spec in specs]
    cells = [rebuild_cell(spec) for spec in specs]
    walls = []
    for spec in specs:
        began = time.perf_counter()
        spec.execute()
        walls.append(time.perf_counter() - began)
    for index, (result, cell) in enumerate(zip(untraced, cells)):
        same = cell.content == deterministic_content(result)
        out.check(same, f"cell {index}: rebuilt cell differs from "
                  "RunSpec.execute()")
        out.check(cell.split_matches, f"cell {index}: plan_recording + "
                  "develop_frames differ from record's pixels")
    out.attempted += 2 * len(specs)

    n = len(cells)
    frames = sum(c.frames for c in cells)

    def total(key: str) -> float:
        return sum(c.seconds.get(key, 0.0) for c in cells)

    layers.put("core.tx_plan_ms", 1000.0 * total("tx") / n, n)
    layers.put("core.receiver_build_ms", 1000.0 * total("receiver_build") / n, n)
    layers.put("core.metrics_ms", 1000.0 * total("metrics") / n, n)
    for metric, key in (
        ("camera.record_ms_per_frame", "record"),
        ("camera.plan_ms_per_frame", "plan"),
        ("camera.develop_ms_per_frame", "develop"),
        ("rx.decode_ms_per_frame", "decode"),
        ("rx.preprocess_ms_per_frame", "preprocess"),
    ):
        layers.put(metric, 1000.0 * total(key) / frames, frames)
    layers.put("camera.bytes_per_frame", mean([c.frame_bytes for c in cells]), n)
    spans: Dict[str, float] = {}
    for cell in cells:
        add_spans(spans, cell.spans)
    reports = [c.report for c in cells]
    layers.counts(reports)
    layers.rx_spans(spans, n, sum(r.packets_seen for r in reports))
    layers.percentiles("link.cell_s", walls, (50, 90), 1.0)

    # Coverage: the share of each rebuilt cell explained by its finest
    # measurements -- record by its plan/develop split, decode by the
    # batched preprocess plus the receiver's own spans.
    rx_detail = total("preprocess") + sum(
        spans.get(name, 0.0) for name in RX_SPANS.values()
    )
    attributed = (
        total("tx") + total("receiver_build") + total("metrics")
        + min(total("record"), total("plan") + total("develop"))
        + min(total("decode"), rx_detail)
    )
    wall = sum(c.wall for c in cells)
    layers.put("trace.coverage", attributed / wall, n)
    layers.put("trace.overhead_frac", wall / sum(walls) - 1.0, n)
    return untraced


def trace_sweep_grid(workload, out: Outcome, layers: Layers) -> None:
    """Rebuilt cells, then the same pass serially and through the pool.

    The pool leg carries the perf layer: its cells must equal the serial
    sweep's on deterministic content, cell for cell.
    """
    from repro.obs.metrics import MetricsRegistry

    specs = workload.specs(1)
    n = len(specs)
    untraced = trace_cells(out, layers, specs)
    lanes = min(2, cpu_count())
    pool = f"pool:workers={lanes}"
    walls: Dict[str, float] = {}

    def sweep(key, cells, **kwargs):
        began = time.perf_counter()
        run = workload.run(cells, **kwargs)
        walls[key] = time.perf_counter() - began
        return run

    registry = MetricsRegistry()
    observed = sweep("observed", specs, metrics=registry)
    serial = sweep("serial", specs)
    pooled = sweep("pool", specs, backend=pool)
    sweep("pool-one", specs[:1], backend=pool)
    sweep("serial-one", specs[:1])

    for name, run in (("observed", observed), ("serial", serial),
                      ("pool", pooled)):
        for index, (got, want) in enumerate(zip(run.results, untraced)):
            out.check(
                got is not None
                and deterministic_content(got) == deterministic_content(want),
                f"{name} sweep cell {index} differs from RunSpec.execute()",
            )
        out.attempted += n

    results = [r for r in observed.results if r is not None]
    cell_s = sum(cell_span_seconds(r) for r in results)
    layers.put("perf.driver_overhead_ms_per_cell",
               1000.0 * (walls["observed"] - cell_s) / n, n)
    layers.put("perf.pool_fixed_s", walls["pool-one"] - walls["serial-one"])
    layers.put("perf.parallel_efficiency",
               walls["serial"] / walls["pool"] / lanes, n)
    layers.put("perf.retries", retries(registry))
    # What each unobserved cell sends back across the pool's process
    # boundary (observed ones also carry their spans).
    plain = [r for r in serial.results if r is not None]
    layers.put("perf.result_bytes_per_cell",
               mean([len(pickle.dumps(r)) for r in plain]), n)
    layers.put("perf.report_bytes_per_cell",
               mean([len(pickle.dumps(r.report)) for r in plain]), n)


def trace_phone_record(workload, out: Outcome, layers: Layers) -> None:
    from repro.link.simulator import RunSpec

    spec = RunSpec(
        config=workload.config,
        device=workload.device,
        simulated_columns=workload.columns,
        seed=pass_seed(workload.seed, 1),
        duration_s=workload.size.phone_duration_s,
    )
    trace_cells(out, layers, [spec])


def timed_streaming_factory(workload, feed_s: List[float],
                            finish_s: List[float], spans: Dict[str, float]):
    """Session factory whose receivers time ``feed``/``finish`` calls."""
    from repro.core.system import make_receiver
    from repro.obs.trace import Tracer
    from repro.rx.streaming import StreamingReceiver

    class TimedStreaming(StreamingReceiver):
        def feed(self, frame):
            began = time.perf_counter()
            try:
                return super().feed(frame)
            finally:
                feed_s.append(time.perf_counter() - began)

        def finish(self):
            began = time.perf_counter()
            try:
                return super().finish()
            finally:
                finish_s.append(time.perf_counter() - began)
                add_spans(spans, span_totals(self.receiver.tracer.spans()))

    def make(session_id: str):
        return TimedStreaming(make_receiver(
            workload.config, workload.device.timing, tracer=Tracer()
        ))

    return make


def trace_serve_stream(workload, out: Outcome, layers: Layers,
                       seconds: float) -> None:
    plan = workload.load_plan(seconds / 2.0)
    untraced, untraced_stats = workload.serve(plan)
    feed_s: List[float] = []
    finish_s: List[float] = []
    spans: Dict[str, float] = {}
    traced, stats = workload.serve(
        plan, make_streaming=timed_streaming_factory(
            workload, feed_s, finish_s, spans
        ),
    )
    records = [traced.get(ManagerTarget.session_id(s))
               for s in range(plan.sessions)]
    for session, record in enumerate(records):
        other = untraced.get(ManagerTarget.session_id(session))
        if record.frames_dropped or other.frames_dropped:
            continue
        out.check(record.payloads() == other.payloads(),
                  f"session {session}: traced payloads differ from the "
                  "untraced run")
    out.attempted += plan.sessions
    workload.check_sessions(out, traced, plan)

    layers.percentiles("rx.feed_ms", feed_s, (50, 99), 1000.0)
    layers.percentiles("rx.finish_ms", finish_s, (50,), 1000.0)
    reports = [record.report for record in records]
    layers.counts(reports)
    layers.rx_spans(spans, plan.sessions, sum(r.packets_seen for r in reports))
    layers.percentiles("serve.submit_us", stats.submit_s, (50,), 1e6)
    layers.percentiles("serve.pump_ms", stats.pump_s, (50, 99), 1000.0)
    layers.percentiles("serve.close_ms", stats.close_s, (50,), 1000.0)
    layers.put("serve.queue_depth_peak", traced.peak_queue_depth)
    layers.put("serve.frames_dropped", sum(r.frames_dropped for r in records))
    layers.put("serve.sessions_quarantined", len(traced.failures))
    layers.put("serve.backlog_end", stats.backlog_end)
    layers.put("serve.generator_lag_p99_ms", percentile(stats.lag, 99) * 1000.0,
               len(stats.lag))
    layers.put("serve.frame_latency_p99_ms",
               percentile(stats.frame_latency, 99) * 1000.0,
               len(stats.frame_latency))
    serve_s = sum(stats.pump_s) + sum(stats.close_s)
    layers.put("trace.coverage", (sum(feed_s) + sum(finish_s)) / serve_s)
    layers.put("trace.overhead_frac",
               stats.busy_s / untraced_stats.busy_s - 1.0)


def run_traced(workload, seconds: float, per_layer) -> Outcome:
    """The traced run of ``workload``; ``per_layer`` is BENCHMARK.json's list."""
    out = Outcome(workload.name)
    layers = Layers()
    if workload.name == "sweep-grid":
        trace_sweep_grid(workload, out, layers)
    elif workload.name == "phone-record":
        trace_phone_record(workload, out, layers)
    else:
        trace_serve_stream(workload, out, layers, seconds)
    exercised = set(layers.values)
    for metric in per_layer:
        name = metric["name"]
        out.add(name, layers.values.get(name, 0.0), metric["unit"],
                layers.samples.get(name, 0))
    out.details["not_exercised"] = sorted(
        m["name"] for m in per_layer if m["name"] not in exercised
    )
    return out

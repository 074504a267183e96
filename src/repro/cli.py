"""Command-line interface: run ColorBars links from a shell.

Examples::

    python -m repro run --order 8 --rate 2000 --device nexus5 --duration 2
    python -m repro sweep --device iphone5s --orders 8,16 --rates 1000,4000
    python -m repro info --order 16 --rate 3000
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import List, Optional

from repro.camera.devices import DeviceProfile, generic_device, iphone_5s, nexus_5
from repro.core.config import SystemConfig
from repro.exceptions import (
    BenchError,
    ConfigurationError,
    FaultInjectionError,
    ToolingError,
    TraceError,
)
from repro.faults import CHAOS_REGISTRY, FAULT_REGISTRY, parse_chaos_specs, parse_fault_specs
from repro.link.adapt import (
    EXEC_BATCH,
    EXEC_STREAMING,
    adaptive_vs_fixed,
    simulate_adaptive,
)
from repro.link.channel import ChannelTrajectory
from repro.link.simulator import RunSpec
from repro.link.workloads import text_payload
from repro.obs import (
    MetricsRegistry,
    Tracer,
    assemble_trace,
    format_span_tree,
    read_trace,
    render_reference,
    summarize_spans,
    write_trace,
)
from repro.perf.bench import BENCH_FILENAME, format_breakdown, run_bench, write_report
from repro.perf.executor import resolve_workers
from repro.perf.runtime import (
    RuntimePolicy,
    default_cell_timeout,
    run_specs_resilient,
)
from repro.serve import BACKPRESSURE_POLICIES, ServePolicy, SoakSpec, run_soak
from repro.tooling import (
    ALL_RULES,
    Baseline,
    default_baseline_path,
    format_report,
    get_rules,
    run_analysis,
    to_json,
    to_sarif,
)
from repro.tooling.reports import updated_baseline

#: Exit status for a run that completed degraded (contained cell failures)
#: without ``--allow-degraded``.  Distinct from lint's 1 and bench's 2.
EXIT_DEGRADED = 3

_DEVICES = {
    "nexus5": nexus_5,
    "iphone5s": iphone_5s,
    "generic": generic_device,
}


def _device(name: str) -> DeviceProfile:
    try:
        return _DEVICES[name]()
    except KeyError:
        raise SystemExit(
            f"unknown device {name!r}; choose from {sorted(_DEVICES)}"
        )


def _config(args: argparse.Namespace, device: DeviceProfile) -> SystemConfig:
    return SystemConfig(
        csk_order=args.order,
        symbol_rate=args.rate,
        design_loss_ratio=device.timing.gap_fraction,
        frame_rate=device.timing.frame_rate,
    )


def _runtime_policy(args, chaos=()) -> RuntimePolicy:
    """Resilience policy from CLI flags (falling back to the environment)."""
    timeout = getattr(args, "cell_timeout", None)
    if timeout is None:
        timeout = default_cell_timeout()
    try:
        return RuntimePolicy(
            cell_timeout_s=timeout,
            max_attempts=getattr(args, "max_attempts", 1),
            chaos=tuple(chaos),
        )
    except ConfigurationError as exc:
        raise SystemExit(f"colorbars: {exc}")


def _observability(args) -> "tuple":
    """(observe, registry) from the ``--trace``/``--metrics`` flags."""
    trace_path = getattr(args, "trace", None)
    metrics_target = getattr(args, "metrics", None)
    registry = MetricsRegistry() if metrics_target else None
    return bool(trace_path) or bool(metrics_target), registry


def _emit_trace(path, outcome, root_attributes) -> None:
    """Assemble per-cell traces (spec order) under one root; write JSONL."""
    spans = assemble_trace(
        [getattr(result, "trace", None) for result in outcome.results],
        root_attributes=root_attributes,
    )
    write_trace(path, spans)
    print(f"trace  : wrote {len(spans)} span(s) to {path}")


def _emit_metrics(registry, target) -> None:
    """Dump the registry: ``-`` prints lines, anything else writes JSON."""
    if target == "-":
        for line in registry.format_lines():
            print(line)
        return
    Path(target).write_text(
        json.dumps(registry.export(), indent=2, sort_keys=True) + "\n"
    )
    print(f"metrics: wrote {target}")


def cmd_run(args: argparse.Namespace) -> int:
    device = _device(args.device)
    config = _config(args, device)
    try:
        faults = parse_fault_specs(getattr(args, "fault", None))
    except FaultInjectionError as exc:
        raise SystemExit(f"colorbars: bad --fault: {exc}")
    print(f"device : {device.name}")
    print(f"config : {config.describe()}")
    if faults:
        print("faults : " + ", ".join(f"{f.name}:{f.intensity:g}" for f in faults))
    payload = (
        args.message.encode("utf-8")
        if args.message
        else text_payload(3 * config.rs_params().k, seed=args.seed)
    )
    k = config.rs_params().k
    payload = payload + bytes((-len(payload)) % k)
    spec = RunSpec(
        config=config,
        device=device,
        seed=args.seed,
        faults=faults,
        payload=payload,
        duration_s=args.duration,
    )
    observe, registry = _observability(args)
    outcome = run_specs_resilient(
        [spec],
        workers=1,
        policy=_runtime_policy(args),
        observe=observe,
        metrics=registry,
    )
    if args.trace:
        _emit_trace(args.trace, outcome, {"device": device.name})
    if registry is not None:
        _emit_metrics(registry, args.metrics)
    result = outcome.results[0]
    if result is None:
        print(f"result : FAILED — {outcome.failures[0].describe()}")
        print(outcome.failure_summary())
        return 0 if args.allow_degraded else EXIT_DEGRADED
    print(f"result : {result.metrics.summary()}")
    if faults:
        print(f"injected: {result.fault_schedule.summary()}")
        report = result.report
        contained = report.fec_failures_by_reason()
        detail = ", ".join(f"{k}={v}" for k, v in sorted(contained.items()))
        print(
            f"survived: {report.frames_processed} frames processed, "
            f"{report.frames_failed} contained frame failures"
            + (f"; fec failures: {detail}" if detail else "")
        )
    recovered = result.recovered_broadcast()
    if recovered is not None:
        print(f"payload: fully recovered ({len(recovered)} bytes)")
        if args.message:
            print(f"message: {recovered[: len(args.message)].decode('utf-8', 'replace')!r}")
    else:
        print(
            f"payload: partial ({result.report.packets_decoded} packets; "
            "record longer to cover every block)"
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    device = _device(args.device)
    orders = [int(o) for o in args.orders.split(",")]
    rates = [float(r) for r in args.rates.split(",")]
    try:
        workers = resolve_workers(args.workers)
        chaos = parse_chaos_specs(args.chaos, seed=args.chaos_seed)
    except ConfigurationError as exc:
        raise SystemExit(f"colorbars: {exc}")
    except FaultInjectionError as exc:
        raise SystemExit(f"colorbars: bad --chaos: {exc}")
    if args.resume and not args.journal:
        raise SystemExit("colorbars: --resume requires --journal PATH")
    policy = _runtime_policy(args, chaos=chaos)
    specs = {}
    for order in orders:
        for rate in rates:
            if device.timing.rows_per_symbol(rate) < 10:
                continue
            config = SystemConfig(
                csk_order=order,
                symbol_rate=rate,
                design_loss_ratio=device.timing.gap_fraction,
            )
            specs[(order, rate)] = RunSpec(
                config=config, device=device, seed=args.seed,
                duration_s=args.duration,
            )
    observe, registry = _observability(args)
    backend = None
    if args.backend is not None:
        from repro.perf.backends import make_backend

        try:
            backend = make_backend(
                args.backend, policy=policy, workers=args.workers,
                observe=observe,
            )
        except ConfigurationError as exc:
            raise SystemExit(f"colorbars: bad --backend: {exc}")
    try:
        outcome = run_specs_resilient(
            list(specs.values()),
            workers=workers,
            policy=policy,
            journal=args.journal,
            resume=args.resume,
            observe=observe,
            metrics=registry,
            backend=backend,
        )
    finally:
        if backend is not None:
            backend.close()
    if args.trace:
        root = {"device": device.name, "workers": workers}
        if backend is not None:
            root.update(backend=backend.name, lanes=backend.lanes)
        _emit_trace(args.trace, outcome, root)
    if registry is not None:
        _emit_metrics(registry, args.metrics)
    results = dict(zip(specs, outcome.results))
    failure_by_index = {failure.index: failure for failure in outcome.failures}
    keys = list(specs)
    if backend is not None:
        print(
            f"device: {device.name} "
            f"(backend: {backend.name}, lanes: {backend.lanes})"
        )
    else:
        print(f"device: {device.name} (workers: {workers})")
    print(f"{'order':>6} | {'rate':>6} | {'SER':>8} | {'tput kbps':>9} | {'good kbps':>9}")
    for order in orders:
        for rate in rates:
            if (order, rate) not in specs:
                print(f"{order:>6} | {rate:>6.0f} | {'(band < 10 px)':>32}")
                continue
            result = results.get((order, rate))
            if result is None:
                failure = failure_by_index.get(keys.index((order, rate)))
                cause = failure.cause if failure is not None else "unknown"
                print(f"{order:>6} | {rate:>6.0f} | {'FAILED (' + cause + ')':>32}")
                continue
            m = result.metrics
            print(
                f"{order:>6} | {rate:>6.0f} | {m.data_symbol_error_rate:8.4f}"
                f" | {m.throughput_bps / 1000:9.2f}"
                f" | {m.goodput_bps / 1000:9.2f}"
            )
    if outcome.resumed:
        print(f"resumed: {outcome.resumed} cell(s) restored from {args.journal}")
    if outcome.failures:
        print(outcome.failure_summary())
        return 0 if args.allow_degraded else EXIT_DEGRADED
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    registry = MetricsRegistry() if args.metrics else None
    profile_path = f"{args.output}.profile.txt" if args.profile else None
    try:
        report = run_bench(
            workers=args.workers,
            quick=args.quick,
            metrics=registry,
            cells=args.cells,
            profile_path=profile_path,
            backend=args.backend,
        )
    except BenchError as exc:
        print(f"colorbars bench: error: {exc}", file=sys.stderr)
        return 2
    if profile_path:
        print(f"wrote serial-leg profile to {profile_path}")
    for line in format_breakdown(report):
        print(line)
    if registry is not None:
        _emit_metrics(registry, args.metrics)
    try:
        write_report(report, args.output)
    except BenchError as exc:
        print(f"colorbars bench: error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.output}")
    return 0


def _peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB (Linux: ru_maxrss KiB)."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak_kib /= 1024
    return peak_kib / 1024


def cmd_serve(args: argparse.Namespace) -> int:
    device = _device(args.device)
    try:
        spec = SoakSpec(
            sessions=args.sessions,
            seed=args.seed,
            duration_s=args.duration,
            csk_order=args.order,
            symbol_rate=args.rate,
            distinct_recordings=args.recordings,
            chaos_fraction=args.chaos_sessions,
            poison_fraction=args.poison_sessions,
            stall_fraction=args.stall_sessions,
            fault_intensity=args.fault_intensity,
        )
        spec.validate()
        policy = ServePolicy(
            max_sessions=args.max_sessions,
            max_queued_frames=args.queue_frames,
            max_queued_bytes=args.queue_bytes,
            backpressure=args.backpressure,
            idle_timeout_s=args.idle_timeout,
            quarantine_after=args.quarantine_after,
        )
        policy.validate()
    except ConfigurationError as exc:
        raise SystemExit(f"colorbars: {exc}")
    print(f"device : {device.name}")
    print(
        f"serve  : {spec.sessions} session(s), order {spec.csk_order} at "
        f"{spec.symbol_rate:g} sym/s, {spec.duration_s:g} s each"
    )
    tracer = Tracer() if args.trace else None
    registry = MetricsRegistry() if args.metrics else None
    report = run_soak(
        spec, device=device, policy=policy, tracer=tracer, metrics=registry
    )
    summary = report.as_dict()
    roles = ", ".join(
        f"{role}: {count}" for role, count in sorted(summary["roles"].items())
    )
    print(f"roles  : {roles}")
    print(
        f"goodput: {summary['goodput_bytes']} bytes decoded in "
        f"{summary['packets_decoded']} packet(s)"
    )
    print(
        f"queues : peak depth {summary['peak_queue_depth']} "
        f"(cap {policy.max_queued_frames}), "
        f"{summary['frames_dropped']} frame(s) dropped"
    )
    if summary["rejected"]:
        print(f"rejected: {len(summary['rejected'])} admission refusal(s)")
    if summary["evicted"]:
        print(f"evicted: {len(summary['evicted'])} idle session(s)")
    print(f"peak rss: {_peak_rss_mib():.1f} MiB")
    if args.trace:
        write_trace(args.trace, tracer.spans())
        print(f"trace  : wrote {len(tracer.spans())} span(s) to {args.trace}")
    if registry is not None:
        _emit_metrics(registry, args.metrics)
    if args.output:
        Path(args.output).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    if report.failures:
        for failure in report.failures:
            print(f"quarantined: {failure.describe()}")
        counts = {}
        for failure in report.failures:
            counts[failure.cause] = counts.get(failure.cause, 0) + 1
        detail = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"DEGRADED: {len(report.failures)} session(s) quarantined ({detail})")
        return 0 if args.allow_degraded else EXIT_DEGRADED
    return 0


def cmd_adapt(args: argparse.Namespace) -> int:
    """Replay the pinned drift trajectory: closed loop vs every fixed rung."""
    from repro.exceptions import AdaptationError

    device = _device(args.device)
    trajectory = ChannelTrajectory.drift_demo(segment_s=args.segment)
    execution = EXEC_STREAMING if args.execution == "streaming" else EXEC_BATCH
    tracer = Tracer() if args.trace else None
    registry = MetricsRegistry() if args.metrics else None
    print(f"device : {device.name}")
    print(
        f"channel: {len(trajectory.segments)} segment(s), "
        f"{trajectory.total_duration_s:g} s total, rate {args.rate:g} sym/s"
    )
    try:
        comparison = adaptive_vs_fixed(
            trajectory,
            device,
            symbol_rate=args.rate,
            seed=args.seed,
            simulated_columns=args.columns,
            execution=execution,
            tracer=tracer,
            metrics=registry,
        )
    except AdaptationError as exc:
        raise SystemExit(f"colorbars adapt: {exc}")
    adaptive = comparison.adaptive
    for line in adaptive.trace():
        print(f"  {line}")
    print(
        f"adaptive: {adaptive.payload_bytes} bytes "
        f"({adaptive.goodput_bps:.1f} bps)"
        + (" QUARANTINED" if adaptive.quarantined else "")
    )
    for index, run in sorted(comparison.fixed.items()):
        cliffs = sum(
            1
            for segment in run.segments
            if segment.packets_seen > 0 and segment.packets_decoded == 0
        )
        print(
            f"fixed {index}: {run.label:<24} {run.payload_bytes:>5} bytes "
            f"({run.goodput_bps:.1f} bps), {cliffs} FEC-cliff window(s)"
        )
    best_index, best = comparison.best_fixed()
    verdict = "sustains" if adaptive.payload_bytes >= best.payload_bytes else "BELOW"
    print(
        f"verdict: adaptive {verdict} best fixed rung {best_index} "
        f"({adaptive.payload_bytes} vs {best.payload_bytes} bytes)"
    )
    if args.execution == "both":
        other = simulate_adaptive(
            trajectory,
            device,
            symbol_rate=args.rate,
            seed=args.seed,
            simulated_columns=args.columns,
            execution=EXEC_STREAMING,
        )
        identical = other.trace() == adaptive.trace()
        print(
            "shapes : batch and streaming decision traces "
            + ("identical" if identical else "DIVERGED")
        )
        if not identical:
            return 2
    if args.trace:
        write_trace(args.trace, tracer.spans())
        print(f"trace  : wrote {len(tracer.spans())} span(s) to {args.trace}")
    if registry is not None:
        _emit_metrics(registry, args.metrics)
    if args.output:
        Path(args.output).write_text(
            json.dumps(comparison.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    if adaptive.quarantined:
        return 0 if args.allow_degraded else EXIT_DEGRADED
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.schema:
        print(render_reference(), end="")
        return 0
    if not args.file:
        raise SystemExit(
            "colorbars trace: a trace FILE is required unless --schema is given"
        )
    try:
        spans = read_trace(args.file)
    except TraceError as exc:
        print(f"colorbars trace: error: {exc}", file=sys.stderr)
        return 2
    if args.name:
        named = [span for span in spans if span.name == args.name]
        if not named:
            print(
                f"colorbars trace: no '{args.name}' span among "
                f"{len(spans)} span(s)",
                file=sys.stderr,
            )
            return 1
        total = sum(span.duration_s for span in named)
        print(
            f"{len(named)} '{args.name}' span(s) of {len(spans)}; "
            f"total {total:.3f} s"
        )
        durations = [span.duration_s for span in named]
        print(
            f"mean {total / len(named):.4f} s, "
            f"min {min(durations):.4f} s, max {max(durations):.4f} s"
        )
        return 0
    lines = format_span_tree(spans) if args.tree else summarize_spans(spans)
    for line in lines:
        print(line)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    device = _device(args.device)
    config = _config(args, device)
    params = config.rs_params()
    packetizer = config.make_packetizer()
    print(f"device            : {device.name}")
    print(f"config            : {config.describe()}")
    print(f"bits per symbol   : {config.bits_per_symbol}")
    print(f"illumination ratio: {config.effective_illumination_ratio():.3f}")
    print(f"RS code           : RS({params.n},{params.k}) "
          f"(rate {params.code_rate:.2f}, corrects {params.correctable_errors} errors)")
    print(f"packet length     : {packetizer.packet_length(params.n)} symbols")
    print(f"rows per symbol   : {device.timing.rows_per_symbol(config.symbol_rate):.1f}")
    print(f"symbols lost/gap  : {device.timing.symbols_lost_per_gap(config.symbol_rate):.1f}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in ALL_RULES:
            scope = getattr(rule, "scope", "file")
            print(f"{rule.rule_id:>18}  [{scope:>7}]  {rule.description}")
        return 0
    paths = args.paths or [str(Path(__file__).resolve().parent)]
    strict = args.strict or args.update_baseline
    baseline_path = (
        Path(args.baseline) if args.baseline else default_baseline_path()
    )
    try:
        rules = get_rules(args.rules.split(",")) if args.rules else None
        if rules is not None and not strict:
            skipped = [
                r.rule_id for r in rules if getattr(r, "scope", "file") == "project"
            ]
            if skipped:
                print(
                    "colorbars lint: note: contract rule(s)"
                    f" {', '.join(skipped)} run only with --strict",
                    file=sys.stderr,
                )
        baseline = Baseline.load(baseline_path) if strict else None
        result = run_analysis(
            paths, rules=rules, strict=strict, baseline=baseline
        )
    except ToolingError as exc:
        print(f"colorbars lint: error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        new_baseline = updated_baseline(result, baseline)
        new_baseline.save(baseline_path)
        print(
            f"colorbars lint: baseline updated:"
            f" {len(new_baseline.entries)} entries -> {baseline_path}"
        )
        return 0
    if args.format == "json":
        print(to_json(result))
    elif args.format == "sarif":
        print(to_sarif(result))
    else:
        print(format_report(result.findings, result.files_checked))
        if result.suppressed:
            print(
                f"colorbars lint: {len(result.suppressed)} finding(s)"
                f" suppressed by baseline {baseline_path}",
                file=sys.stderr,
            )
        for entry in result.stale_baseline_entries:
            print(
                "colorbars lint: stale baseline entry (no longer matches):"
                f" {entry.path} {entry.rule} {entry.message}",
                file=sys.stderr,
            )
    return 1 if result.findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ColorBars LED-to-camera link simulator (CoNEXT 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--device", default="nexus5", help="nexus5 | iphone5s | generic")
        p.add_argument("--order", type=int, default=8, help="CSK order: 4/8/16/32")
        p.add_argument("--rate", type=float, default=2000.0, help="symbols per second")
        p.add_argument("--seed", type=int, default=0)

    def observability(p):
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write a JSONL span trace of the run/sweep to PATH",
        )
        p.add_argument(
            "--metrics", default=None, metavar="PATH",
            help="dump the metrics registry as JSON to PATH ('-' prints lines)",
        )

    def resilience(p, journal: bool = False):
        p.add_argument(
            "--cell-timeout", type=float, default=None, metavar="SECONDS",
            help="watchdog deadline per cell "
            "(default: $COLORBARS_CELL_TIMEOUT or off)",
        )
        p.add_argument(
            "--max-attempts", type=int, default=1, metavar="N",
            help="attempts per cell before it is recorded as failed (default 1)",
        )
        p.add_argument(
            "--allow-degraded", action="store_true",
            help="exit 0 even when some cells failed (default: exit 3)",
        )
        if journal:
            p.add_argument(
                "--journal", default=None, metavar="PATH",
                help="append each completed cell to a JSONL checkpoint journal",
            )
            p.add_argument(
                "--resume", action="store_true",
                help="skip cells already recorded in --journal",
            )
            p.add_argument(
                "--chaos", action="append", metavar="NAME:INTENSITY",
                help="inject process-level chaos (repeatable); names: "
                + ", ".join(sorted(CHAOS_REGISTRY)),
            )
            p.add_argument(
                "--chaos-seed", type=int, default=0,
                help="seed for the deterministic chaos schedule",
            )

    run_p = sub.add_parser(
        "run",
        aliases=["simulate"],
        help="run one end-to-end link (optionally with injected faults)",
    )
    common(run_p)
    run_p.add_argument("--duration", type=float, default=2.0, help="recording seconds")
    run_p.add_argument("--message", default=None, help="UTF-8 payload to broadcast")
    run_p.add_argument(
        "--fault",
        action="append",
        metavar="NAME:INTENSITY",
        help="inject a fault (repeatable); names: "
        + ", ".join(sorted(FAULT_REGISTRY)),
    )
    resilience(run_p)
    observability(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep CSK orders x symbol rates")
    sweep_p.add_argument("--device", default="nexus5")
    sweep_p.add_argument("--orders", default="4,8,16,32")
    sweep_p.add_argument("--rates", default="1000,2000,3000,4000")
    sweep_p.add_argument("--duration", type=float, default=2.0)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument(
        "--workers", type=int, default=None,
        help="parallel sweep processes (default: $COLORBARS_WORKERS or 1)",
    )
    sweep_p.add_argument(
        "--backend", default=None, metavar="NAME[:OPTS]",
        help="sweep backend: inprocess | pool[:workers=N] | "
        "remote[:workers=N] (default: inprocess for one worker with no "
        "watchdog or chaos, otherwise pool with --workers)",
    )
    resilience(sweep_p, journal=True)
    observability(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    bench_p = sub.add_parser(
        "bench",
        help="run the pinned perf micro-sweep and write BENCH_colorbars.json",
    )
    bench_p.add_argument(
        "--workers", type=int, default=4,
        help="pool size for the parallel leg of the bench (default 4)",
    )
    bench_p.add_argument(
        "--backend", default="pool", metavar="NAME[:OPTS]",
        help="backend for the parallel leg: inprocess | pool[:workers=N] | "
        "remote[:workers=N] (default pool; recorded in the report)",
    )
    bench_p.add_argument(
        "--quick", action="store_true",
        help="half-size grid and shorter recordings (CI smoke)",
    )
    bench_p.add_argument(
        "--output", default=BENCH_FILENAME,
        help=f"report path (default ./{BENCH_FILENAME})",
    )
    bench_p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="dump pipeline metrics across both legs ('-' prints lines)",
    )
    bench_p.add_argument(
        "--cells", type=int, default=None, metavar="N",
        help="run N cells by cycling the pinned grid (default: the full grid)",
    )
    bench_p.add_argument(
        "--profile", action="store_true",
        help="profile the serial leg with cProfile; writes <output>.profile.txt",
    )
    bench_p.set_defaults(func=cmd_bench)

    serve_p = sub.add_parser(
        "serve",
        help="soak the streaming session service (admission, backpressure,"
        " eviction, quarantine) with optional chaos",
    )
    common(serve_p)
    serve_p.add_argument(
        "--sessions", type=int, default=200,
        help="concurrent receiver sessions to drive (default 200)",
    )
    serve_p.add_argument(
        "--duration", type=float, default=0.5,
        help="recording seconds per session (default 0.5)",
    )
    serve_p.add_argument(
        "--recordings", type=int, default=6,
        help="distinct simulated recordings shared across sessions (default 6)",
    )
    serve_p.add_argument(
        "--chaos-sessions", type=float, default=0.0, metavar="FRACTION",
        help="fraction of sessions whose frames pass a fault injector",
    )
    serve_p.add_argument(
        "--poison-sessions", type=float, default=0.0, metavar="FRACTION",
        help="fraction of sessions whose every frame fails in the receiver",
    )
    serve_p.add_argument(
        "--stall-sessions", type=float, default=0.0, metavar="FRACTION",
        help="fraction of sessions that go silent and must be idle-evicted",
    )
    serve_p.add_argument(
        "--fault-intensity", type=float, default=0.3,
        help="injector intensity for chaos sessions (default 0.3)",
    )
    serve_p.add_argument(
        "--max-sessions", type=int, default=1024,
        help="admission cap on concurrently active sessions (default 1024)",
    )
    serve_p.add_argument(
        "--queue-frames", type=int, default=8,
        help="per-session frame queue cap (default 8)",
    )
    serve_p.add_argument(
        "--queue-bytes", type=int, default=None,
        help="per-session queued-bytes cap (default: frame cap only)",
    )
    serve_p.add_argument(
        "--backpressure", choices=BACKPRESSURE_POLICIES, default="drop-oldest",
        help="full-queue policy (default drop-oldest)",
    )
    serve_p.add_argument(
        "--idle-timeout", type=float, default=0.2, metavar="SECONDS",
        help="evict sessions silent this long on the soak's virtual clock"
        " (default 0.2)",
    )
    serve_p.add_argument(
        "--quarantine-after", type=int, default=8, metavar="N",
        help="consecutive contained frame failures before quarantine"
        " (default 8)",
    )
    serve_p.add_argument(
        "--allow-degraded", action="store_true",
        help="exit 0 even when sessions were quarantined (default: exit 3)",
    )
    serve_p.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the JSON soak report to PATH",
    )
    observability(serve_p)
    serve_p.set_defaults(func=cmd_serve)

    adapt_p = sub.add_parser(
        "adapt",
        help="replay the pinned time-varying channel with the closed-loop"
        " rate controller and compare against every fixed rung",
    )
    adapt_p.add_argument("--device", default="nexus5", help="nexus5 | iphone5s | generic")
    adapt_p.add_argument(
        "--rate", type=float, default=1500.0, help="symbols per second"
    )
    adapt_p.add_argument("--seed", type=int, default=7)
    adapt_p.add_argument(
        "--columns", type=int, default=48,
        help="simulated sensor columns per frame (default 48)",
    )
    adapt_p.add_argument(
        "--segment", type=float, default=0.8, metavar="SECONDS",
        help="trajectory segment length (default 0.8)",
    )
    adapt_p.add_argument(
        "--execution", choices=("batch", "streaming", "both"), default="batch",
        help="decode shape; 'both' also verifies the decision traces match",
    )
    adapt_p.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the JSON adaptive-vs-fixed comparison to PATH",
    )
    adapt_p.add_argument(
        "--allow-degraded", action="store_true",
        help="exit 0 even when the adaptive run quarantined (default: exit 3)",
    )
    observability(adapt_p)
    adapt_p.set_defaults(func=cmd_adapt)

    trace_p = sub.add_parser(
        "trace", help="summarize/filter a --trace JSONL file, or print the schema"
    )
    trace_p.add_argument(
        "file", nargs="?", default=None,
        help="trace file written by run/sweep --trace",
    )
    trace_p.add_argument(
        "--name", default=None, metavar="SPAN",
        help="aggregate only spans with this name (e.g. decode)",
    )
    trace_p.add_argument(
        "--tree", action="store_true",
        help="print the indented span tree instead of the per-name rollup",
    )
    trace_p.add_argument(
        "--schema", action="store_true",
        help="print the generated span/metric reference (docs/METRICS.md)",
    )
    trace_p.set_defaults(func=cmd_trace)

    info_p = sub.add_parser("info", help="show derived link parameters")
    common(info_p)
    info_p.set_defaults(func=cmd_info)

    lint_p = sub.add_parser(
        "lint", help="run reprolint static-analysis checks over the package"
    )
    lint_p.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    lint_p.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all rules)",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    lint_p.add_argument(
        "--strict", action="store_true",
        help="also run whole-program contract rules (determinism,"
             " pickle-safety, obs-schema, exception-taxonomy)",
    )
    lint_p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text; json/sarif print one document)",
    )
    lint_p.add_argument(
        "--baseline", default=None,
        help="baseline of grandfathered findings, applied under --strict"
             " (default: the packaged tooling/baseline.json)",
    )
    lint_p.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover all current findings and exit 0"
             " (implies --strict; new entries get a TODO reason)",
    )
    lint_p.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

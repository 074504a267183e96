"""One sweep engine: the default front door equals its explicit backend.

``run_specs_resilient`` without a ``backend`` picks ``inprocess`` for one
worker with no isolation need, and ``pool`` otherwise; these tests pin that
the choice is unobservable: same results, same failure records, same span
tree as naming the backend explicitly.
"""

import base64
import pickle

import pytest

from repro.core.config import SystemConfig
from repro.faults.chaos import WorkerCrashChaos
from repro.link.simulator import RunSpec
from repro.obs import MetricsRegistry, assemble_trace, tree_signature
from repro.obs.schema import M_BACKEND_CELLS, M_BACKEND_LANES
from repro.perf.backends import make_backend, run_specs_sharded
from repro.perf.runtime import RunJournal, RuntimePolicy, run_specs_resilient


def _spec(tiny_device, seed=0, duration_s=0.4):
    return RunSpec(
        config=SystemConfig(
            csk_order=4,
            symbol_rate=1000.0,
            design_loss_ratio=tiny_device.timing.gap_fraction,
            frame_rate=tiny_device.timing.frame_rate,
        ),
        device=tiny_device,
        simulated_columns=32,
        seed=seed,
        duration_s=duration_s,
    )


def _specs(tiny_device, count=3):
    return [_spec(tiny_device, seed=seed) for seed in range(count)]


def _signature(result):
    if result is None:
        return None
    return (
        result.metrics,
        result.report.payloads,
        result.plan.symbols,
        result.fault_schedule.events,
    )


def _tree(outcome):
    return tree_signature(
        assemble_trace([getattr(r, "trace", None) for r in outcome.results])
    )


def _first_two_cells_crash():
    """Chaos under which cells 0 and 1 crash on attempt 1 and cell 2 runs.

    Both crashers die whatever they share a pool with, and cell 2 then
    runs alone, so the failure records are the same at any pool width.
    """
    for chaos_seed in range(256):
        chaos = WorkerCrashChaos(0.5, seed=chaos_seed)
        if [chaos.triggers(index, 1) for index in range(3)] == [True, True, False]:
            return chaos
    raise AssertionError("no chaos seed crashes exactly cells 0 and 1")


@pytest.mark.parametrize(
    "workers, plain_backend, isolated_backend",
    [
        (1, "inprocess", "pool:workers=1"),
        (2, "pool:workers=2", "pool:workers=2"),
    ],
)
class TestDefaultBackendIsExplicitBackend:
    def test_results_and_trees_match(
        self, tiny_device, workers, plain_backend, isolated_backend
    ):
        specs = _specs(tiny_device)
        default = run_specs_resilient(specs, workers=workers, observe=True)
        explicit = run_specs_resilient(
            specs, workers=workers, observe=True, backend=plain_backend
        )
        assert not default.failures and not explicit.failures
        assert [_signature(r) for r in default.results] == [
            _signature(r) for r in explicit.results
        ]
        assert _tree(default) == _tree(explicit)

    def test_crash_failures_match(
        self, tiny_device, workers, plain_backend, isolated_backend
    ):
        specs = _specs(tiny_device)
        policy = RuntimePolicy(chaos=(_first_two_cells_crash(),))
        default = run_specs_resilient(specs, workers=workers, policy=policy)
        explicit = run_specs_resilient(
            specs, workers=workers, policy=policy, backend=isolated_backend
        )
        assert [(f.index, f.cause) for f in default.failures] == [
            (0, "crash"), (1, "crash"),
        ]
        assert default.failures == explicit.failures
        assert [_signature(r) for r in default.results] == [
            _signature(r) for r in explicit.results
        ]


class TestDefaultBackendChoice:
    def test_serial_sweep_reports_backend_metrics(self, tiny_device):
        registry = MetricsRegistry()
        run_specs_resilient(_specs(tiny_device, count=2), workers=1, metrics=registry)
        exported = registry.export()
        assert exported["gauges"][M_BACKEND_LANES] == 1.0
        assert exported["counters"][M_BACKEND_CELLS] == 2

    def test_pool_lanes_clamped_to_cells(self, tiny_device):
        registry = MetricsRegistry()
        run_specs_resilient(
            _specs(tiny_device, count=2), workers=4,
            policy=RuntimePolicy(cell_timeout_s=120.0), metrics=registry,
        )
        assert registry.export()["gauges"][M_BACKEND_LANES] == 2.0


class TestObserveIsPerSweep:
    def test_observed_sweep_does_not_leak_into_the_next(self, tiny_device):
        specs = [_spec(tiny_device)]
        with make_backend("inprocess") as backend:
            before = run_specs_sharded(specs, backend)
            observed = run_specs_sharded(specs, backend, observe=True)
            after = run_specs_sharded(specs, backend)
        assert before.results[0].trace is None
        assert observed.results[0].trace is not None
        assert after.results[0].trace is None
        assert after.results[0].obs_metrics is None
        assert not backend.observe

    def test_backend_built_observing_stays_observing(self, tiny_device):
        with make_backend("inprocess", observe=True) as backend:
            outcome = run_specs_sharded([_spec(tiny_device)], backend)
            assert backend.observe
        assert outcome.results[0].trace is not None


class TestJournalCodec:
    def test_records_carry_the_appended_payload(self, tiny_device, tmp_path):
        spec = _spec(tiny_device)
        source = RunJournal(tmp_path / "a.jsonl")
        source.append("f" * 64, spec.execute())
        ((fingerprint, payload, result),) = list(source.records())
        target = RunJournal(tmp_path / "b.jsonl")
        target.append_record(fingerprint, payload)
        assert target.path.read_bytes() == source.path.read_bytes()
        assert _signature(target.load()[fingerprint]) == _signature(result)

    def test_non_link_result_payload_is_skipped(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.append_record(
            "x", base64.b64encode(pickle.dumps({"not": "a result"})).decode("ascii")
        )
        assert list(journal.records()) == []
        assert journal.load() == {}

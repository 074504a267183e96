"""Resilient runtime contracts: equivalence, containment, retry, resume."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.exceptions import ConfigurationError, JournalError
from repro.faults import make_injector
from repro.faults.chaos import CellHangChaos, SlowCellChaos, WorkerCrashChaos
from repro.link.simulator import RunSpec
from repro.perf.runtime import (
    CELL_TIMEOUT_ENV,
    RunJournal,
    RuntimePolicy,
    backoff_delay_s,
    default_cell_timeout,
    resilient_fleet,
    run_specs_resilient,
    spec_fingerprint,
)


def _spec(tiny_device, seed=0, faults=(), duration_s=0.5):
    config = SystemConfig(
        csk_order=4,
        symbol_rate=1000.0,
        design_loss_ratio=tiny_device.timing.gap_fraction,
        frame_rate=tiny_device.timing.frame_rate,
    )
    return RunSpec(
        config=config,
        device=tiny_device,
        simulated_columns=32,
        seed=seed,
        faults=tuple(faults),
        duration_s=duration_s,
    )


def _assert_results_identical(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a is not None and b is not None
        assert a.metrics == b.metrics
        assert a.report.payloads == b.report.payloads
        assert a.plan.symbols == b.plan.symbols
        assert a.fault_schedule.events == b.fault_schedule.events


class TestFingerprint:
    def test_stable_across_constructions(self, tiny_device):
        assert spec_fingerprint(_spec(tiny_device, seed=3)) == spec_fingerprint(
            _spec(tiny_device, seed=3)
        )

    def test_distinguishes_seeds(self, tiny_device):
        assert spec_fingerprint(_spec(tiny_device, seed=3)) != spec_fingerprint(
            _spec(tiny_device, seed=4)
        )


class TestPolicyValidation:
    def test_defaults_are_plain_containment(self):
        policy = RuntimePolicy()
        assert policy.cell_timeout_s is None
        assert policy.max_attempts == 1
        assert not policy.needs_isolation()

    def test_timeout_or_chaos_forces_isolation(self):
        assert RuntimePolicy(cell_timeout_s=5.0).needs_isolation()
        assert RuntimePolicy(chaos=(SlowCellChaos(0.0),)).needs_isolation()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_timeout_s": 0.0},
            {"cell_timeout_s": -1.0},
            {"max_attempts": 0},
            {"max_attempts": 1.5},
            {"backoff_base_s": -0.1},
            {"backoff_factor": 0.5},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RuntimePolicy(**kwargs)


class TestDefaultCellTimeout:
    def test_unset_disables_watchdog(self, monkeypatch):
        monkeypatch.delenv(CELL_TIMEOUT_ENV, raising=False)
        assert default_cell_timeout() is None

    def test_env_sets_deadline(self, monkeypatch):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "120")
        assert default_cell_timeout() == 120.0

    @pytest.mark.parametrize("raw", ["0", "-3", "soon"])
    def test_bad_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, raw)
        with pytest.raises(ConfigurationError):
            default_cell_timeout()


class TestBackoff:
    def test_deterministic(self):
        policy = RuntimePolicy(max_attempts=3)
        assert backoff_delay_s(policy, 7, 2) == backoff_delay_s(policy, 7, 2)

    def test_grows_with_attempt(self):
        policy = RuntimePolicy(max_attempts=4, backoff_factor=2.0)
        assert backoff_delay_s(policy, 7, 3) > backoff_delay_s(policy, 7, 2)

    def test_zero_base_is_immediate(self):
        policy = RuntimePolicy(max_attempts=3, backoff_base_s=0.0)
        assert backoff_delay_s(policy, 7, 2) == 0.0


class TestEquivalence:
    """A default ``workers=1`` sweep (the ``inprocess`` backend, called
    "inline" in the test names) equals a bare ``spec.execute()`` loop (the
    "fast path") cell for cell."""

    def test_inline_matches_fast_path(self, tiny_device):
        specs = [_spec(tiny_device, seed=3), _spec(tiny_device, seed=4)]
        baseline = [spec.execute() for spec in specs]
        outcome = run_specs_resilient(specs, workers=1)
        assert not outcome.degraded
        assert outcome.resumed == 0
        _assert_results_identical(baseline, outcome.results)

    def test_inline_matches_fast_path_with_faults(self, tiny_device):
        specs = [
            _spec(tiny_device, seed=3, faults=[make_injector("frame-drop", 0.3)])
        ]
        baseline = [spec.execute() for spec in specs]
        outcome = run_specs_resilient(specs, workers=1)
        assert baseline[0].fault_schedule.events
        _assert_results_identical(baseline, outcome.results)

    def test_slow_cell_under_deadline_is_byte_identical(self, tiny_device):
        # Chaos that merely delays a cell must not change its result.
        specs = [_spec(tiny_device, seed=5)]
        baseline = [spec.execute() for spec in specs]
        outcome = run_specs_resilient(
            specs,
            workers=1,
            policy=RuntimePolicy(
                cell_timeout_s=120.0,
                chaos=(SlowCellChaos(1.0, max_delay_s=0.2),),
            ),
        )
        assert not outcome.degraded
        _assert_results_identical(baseline, outcome.results)

    def test_zero_intensity_chaos_is_byte_identical(self, tiny_device):
        specs = [_spec(tiny_device, seed=5)]
        baseline = [spec.execute() for spec in specs]
        outcome = run_specs_resilient(
            specs,
            workers=1,
            policy=RuntimePolicy(chaos=(WorkerCrashChaos(0.0),)),
        )
        assert not outcome.degraded
        _assert_results_identical(baseline, outcome.results)


class TestCrashContainment:
    def test_certain_crash_becomes_structured_failures(self, tiny_device):
        specs = [_spec(tiny_device, seed=1), _spec(tiny_device, seed=2)]
        outcome = run_specs_resilient(
            specs,
            workers=2,
            policy=RuntimePolicy(chaos=(WorkerCrashChaos(1.0),)),
        )
        assert outcome.degraded
        assert outcome.completed == 0
        assert len(outcome.failures) == 2
        for failure in outcome.failures:
            assert failure.cause == "crash"
            assert failure.attempts == 1
            assert failure.fingerprint == spec_fingerprint(specs[failure.index])
        assert "crash=2" in outcome.failure_summary()

    def test_retry_outlasts_transient_crash(self, tiny_device):
        # Pick a chaos seed whose attempt-1 draw is below its attempt-2
        # draw, then an intensity between them: attempt 1 deterministically
        # crashes and attempt 2 deterministically survives.
        chaos = None
        for chaos_seed in range(32):
            probe = WorkerCrashChaos(0.5, seed=chaos_seed)
            first, second = probe.trigger_draw(0, 1), probe.trigger_draw(0, 2)
            if first < second:
                chaos = WorkerCrashChaos((first + second) / 2, seed=chaos_seed)
                break
        assert chaos is not None
        assert chaos.triggers(0, 1) and not chaos.triggers(0, 2)

        specs = [_spec(tiny_device, seed=6)]
        baseline = [spec.execute() for spec in specs]
        outcome = run_specs_resilient(
            specs,
            workers=1,
            policy=RuntimePolicy(
                max_attempts=2, backoff_base_s=0.0, chaos=(chaos,)
            ),
        )
        assert not outcome.degraded
        _assert_results_identical(baseline, outcome.results)


class TestWatchdog:
    def test_hung_cell_is_timed_out(self, tiny_device):
        specs = [_spec(tiny_device, seed=1)]
        outcome = run_specs_resilient(
            specs,
            workers=1,
            policy=RuntimePolicy(
                cell_timeout_s=1.0,
                chaos=(CellHangChaos(1.0, hang_s=60.0),),
            ),
        )
        assert outcome.degraded
        (failure,) = outcome.failures
        assert failure.cause == "timeout"
        assert "watchdog" in failure.message
        assert outcome.results == [None]


class TestErrorContainment:
    def test_cell_exception_is_contained_inline(self, tiny_device):
        # 4 kHz on the tiny sensor leaves 4 rows/symbol — below the 10-row
        # demodulation minimum, so the cell raises during execution.
        config = SystemConfig(
            csk_order=4,
            symbol_rate=4000.0,
            design_loss_ratio=tiny_device.timing.gap_fraction,
            frame_rate=tiny_device.timing.frame_rate,
        )
        bad = RunSpec(
            config=config,
            device=tiny_device,
            simulated_columns=32,
            seed=1,
            duration_s=0.5,
        )
        good = _spec(tiny_device, seed=2)
        outcome = run_specs_resilient([bad, good], workers=1)
        assert outcome.completed == 1
        (failure,) = outcome.failures
        assert failure.cause == "error"
        assert failure.index == 0
        assert outcome.results[0] is None
        assert outcome.results[1] is not None


class TestJournalResume:
    def test_resume_is_byte_identical_to_uninterrupted(self, tiny_device, tmp_path):
        specs = [_spec(tiny_device, seed=s) for s in (1, 2, 3)]
        baseline = [spec.execute() for spec in specs]
        journal = tmp_path / "sweep.jsonl"

        # "Kill" the sweep after two cells, then resume the full grid.
        partial = run_specs_resilient(specs[:2], workers=1, journal=journal)
        assert partial.completed == 2
        resumed = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True
        )
        assert resumed.resumed == 2
        assert not resumed.degraded
        _assert_results_identical(baseline, resumed.results)

    def test_resume_is_byte_identical_with_faults(self, tiny_device, tmp_path):
        specs = [
            _spec(tiny_device, seed=1, faults=[make_injector("frame-drop", 0.3)]),
            _spec(
                tiny_device,
                seed=2,
                faults=[make_injector("scanline-corruption", 0.2)],
            ),
        ]
        baseline = [spec.execute() for spec in specs]
        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs[:1], workers=1, journal=journal)
        resumed = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True
        )
        assert resumed.resumed == 1
        _assert_results_identical(baseline, resumed.results)

    def test_fresh_run_discards_existing_journal(self, tiny_device, tmp_path):
        specs = [_spec(tiny_device, seed=1)]
        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs, workers=1, journal=journal)
        assert len(journal.read_text().splitlines()) == 1
        run_specs_resilient(specs, workers=1, journal=journal)
        # The old journal was discarded, not appended to.
        assert len(journal.read_text().splitlines()) == 1

    def test_truncated_line_reruns_that_cell(self, tiny_device, tmp_path):
        specs = [_spec(tiny_device, seed=1), _spec(tiny_device, seed=2)]
        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs, workers=1, journal=journal)
        lines = journal.read_text().splitlines()
        journal.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2] + "\n")
        resumed = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True
        )
        assert resumed.resumed == 1
        assert resumed.completed == 2

    def test_wrong_schema_rejected(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        journal.write_text(
            json.dumps({"schema": 99, "fingerprint": "x", "result": ""}) + "\n"
        )
        with pytest.raises(JournalError, match="schema"):
            RunJournal(journal).load()

    def test_resume_requires_no_reexecution(self, tiny_device, tmp_path):
        # A fully journaled sweep resumes without touching any worker: even
        # certain-crash chaos cannot hurt it.
        specs = [_spec(tiny_device, seed=1)]
        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs, workers=1, journal=journal)
        resumed = run_specs_resilient(
            specs,
            workers=1,
            journal=journal,
            resume=True,
            policy=RuntimePolicy(chaos=(WorkerCrashChaos(1.0),)),
        )
        assert resumed.resumed == 1
        assert not resumed.degraded


class TestResilientFleet:
    def test_fleet_surfaces_member_failures(self, tiny_device):
        report = resilient_fleet(
            [tiny_device],
            workers=1,
            policy=RuntimePolicy(chaos=(WorkerCrashChaos(1.0),)),
            csk_order=4,
            symbol_rate=1000.0,
            duration_s=0.5,
            compare_dedicated=False,
        )
        assert report.degraded
        (member,) = report.members
        assert member.failure is not None
        assert member.failure.cause == "crash"
        assert member.shared_metrics is None
        assert any("FAILED" in line for line in report.summary_lines())

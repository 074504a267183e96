"""Sweep-backend contracts: registry, lifecycle, sharding, merge, parity.

The byte-identity contract is over *deterministic content* — metrics,
decoded payloads, the symbol plan, the fault schedule — not whole-result
pickles: ``LinkResult.timings`` is wall-clock, and pickle memoization of
shared references inside ``config`` differs across process round trips,
so the same cell pickles differently from the ``inprocess`` backend and
from a ``pool`` worker.
"""

import base64
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.conftest import make_tiny_device

from repro.core.config import SystemConfig
from repro.exceptions import BackendError, ConfigurationError, JournalError
from repro.faults.chaos import WorkerCrashChaos, WorkerPartitionChaos
from repro.link.simulator import RunSpec
from repro.obs import assemble_trace, tree_signature
from repro.obs.schema import SPAN_CELL, SPAN_SWEEP
from repro.perf.backends import (
    BACKEND_REGISTRY,
    InProcessBackend,
    RemoteBackend,
    Shard,
    ShardCell,
    SweepBackend,
    existing_shard_journals,
    make_backend,
    make_shards,
    merge_journals,
    parse_backend_spec,
    run_specs_sharded,
    shard_journal_path,
)
from repro.perf.runtime import (
    RunJournal,
    RuntimePolicy,
    run_specs_resilient,
    spec_fingerprint,
)


def _spec(tiny_device, seed=0, duration_s=0.4):
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
        duration_s=duration_s,
    )


def _specs(tiny_device, count=3):
    return [_spec(tiny_device, seed=seed) for seed in range(count)]


def _signature(result):
    """The deterministic content every backend must reproduce exactly."""
    return (
        result.metrics,
        result.report.payloads,
        result.plan.symbols,
        result.fault_schedule.events,
    )


def _cells(specs):
    return [
        ShardCell(index=i, fingerprint=spec_fingerprint(s), spec=s)
        for i, s in enumerate(specs)
    ]


class TestRegistryAndSpec:
    def test_shipped_backends_registered(self):
        assert {"inprocess", "pool", "remote"} <= set(BACKEND_REGISTRY)

    def test_parse_plain_name(self):
        assert parse_backend_spec("pool") == ("pool", {})

    def test_parse_options(self):
        name, options = parse_backend_spec("remote:workers=2,x=y")
        assert name == "remote"
        assert options == {"workers": "2", "x": "y"}

    @pytest.mark.parametrize("bad", ["", "   ", "pool:workers", "pool:=2", "pool:a="])
    def test_malformed_spec_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_backend_spec(bad)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_backend("teleport")

    def test_inprocess_takes_no_options(self):
        with pytest.raises(ConfigurationError, match="no options"):
            make_backend("inprocess:workers=2")

    def test_spec_workers_option_wins_over_argument(self):
        with make_backend("pool:workers=3", workers=2) as backend:
            assert backend.lanes == 3

    def test_bad_workers_option_rejected(self):
        with pytest.raises(ConfigurationError):
            make_backend("pool:workers=zero")


class TestLifecycle:
    def test_closed_backend_rejects_submit_and_drain(self):
        backend = InProcessBackend()
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(BackendError, match="closed"):
            backend.submit_shard(Shard(shard_id=0, cells=()))
        with pytest.raises(BackendError, match="closed"):
            backend.drain()

    def test_duplicate_shard_id_rejected(self):
        with InProcessBackend() as backend:
            backend.submit_shard(Shard(shard_id=0, cells=()))
            with pytest.raises(BackendError, match="already submitted"):
                backend.submit_shard(Shard(shard_id=0, cells=()))

    def test_non_shard_rejected(self):
        with InProcessBackend() as backend:
            with pytest.raises(BackendError, match="takes a Shard"):
                backend.submit_shard("shard zero")

    def test_drain_empties_the_queue(self, tiny_device):
        with InProcessBackend() as backend:
            backend.submit_shard(
                Shard(shard_id=0, cells=tuple(_cells([_spec(tiny_device)])))
            )
            assert len(backend.drain()) == 1
            assert backend.drain() == []

    def test_bad_lane_count_rejected(self):
        with pytest.raises(ConfigurationError, match="lanes"):
            SweepBackend(lanes=0)

    def test_inprocess_refuses_isolation_policies(self):
        policy = RuntimePolicy(cell_timeout_s=5.0)
        with pytest.raises(ConfigurationError, match="isolation"):
            InProcessBackend(policy=policy)


class TestSharding:
    def test_round_robin_assignment(self, tiny_device):
        cells = _cells(_specs(tiny_device, count=5))
        shards = make_shards(cells, lanes=2)
        assert [c.index for c in shards[0].cells] == [0, 2, 4]
        assert [c.index for c in shards[1].cells] == [1, 3]

    def test_no_empty_shards(self, tiny_device):
        cells = _cells(_specs(tiny_device, count=2))
        shards = make_shards(cells, lanes=8)
        assert len(shards) == 2
        assert all(shard.cells for shard in shards)

    def test_no_cells_no_shards(self):
        assert make_shards([], lanes=4) == []

    def test_journal_paths_derive_from_sweep_journal(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        shards = make_shards(_cells(_specs(tiny_device)), 2, journal_path=journal)
        assert shards[0].journal_path == f"{journal}.shard-0"
        assert shards[0].journal().path == Path(f"{journal}.shard-0")
        assert shard_journal_path(journal, 1) == f"{journal}.shard-1"

    def test_existing_shard_journals_sorted_numerically(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        for shard_id in (10, 2, 0):
            Path(shard_journal_path(journal, shard_id)).write_text("")
        found = existing_shard_journals(journal)
        assert [p.name for p in found] == [
            "sweep.jsonl.shard-0",
            "sweep.jsonl.shard-2",
            "sweep.jsonl.shard-10",
        ]


class TestByteIdentity:
    """Every backend reproduces the inprocess reference exactly."""

    @pytest.fixture(scope="class")
    def reference(self):
        specs = _specs(make_tiny_device())
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded(specs, backend)
        assert not outcome.failures
        return [_signature(r) for r in outcome.results]

    @pytest.mark.parametrize("spec", ["pool:workers=2", "remote:workers=2"])
    def test_backend_matches_reference(self, spec, tiny_device, reference):
        with make_backend(spec) as backend:
            outcome = run_specs_sharded(_specs(tiny_device), backend)
        assert not outcome.failures
        assert [_signature(r) for r in outcome.results] == reference

    def test_shard_of_records_the_plan(self, tiny_device):
        with make_backend("pool:workers=2") as backend:
            outcome = run_specs_sharded(_specs(tiny_device), backend)
        assert outcome.shard_of == [0, 1, 0]

    def test_run_specs_resilient_accepts_backend_spec(self, tiny_device, reference):
        outcome = run_specs_resilient(_specs(tiny_device), backend="pool:workers=2")
        assert [_signature(r) for r in outcome.results] == reference


class TestJournalMerge:
    def _seed_shard(self, journal, shard_id, spec, result):
        shard = RunJournal(shard_journal_path(journal, shard_id))
        shard.append(spec_fingerprint(spec), result)
        return shard.path

    def test_merge_splices_bytes_verbatim(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        spec = _spec(tiny_device)
        result = spec.execute()
        path = self._seed_shard(journal, 0, spec, result)
        shard_bytes = path.read_text()
        report = merge_journals([path], journal)
        assert report.appended == 1 and report.conflicts == 0
        assert journal.read_text() == shard_bytes
        assert set(report.entries) == {spec_fingerprint(spec)}

    def test_identical_duplicate_is_noop(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        spec = _spec(tiny_device)
        result = spec.execute()
        a = self._seed_shard(journal, 0, spec, result)
        b = self._seed_shard(journal, 1, spec, result)
        report = merge_journals([a, b], journal)
        assert report.appended == 1 and report.conflicts == 0
        assert len(journal.read_text().splitlines()) == 1

    def test_conflicting_fingerprint_last_wins(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        spec = _spec(tiny_device)
        result = spec.execute()
        a = self._seed_shard(journal, 0, spec, result)
        b = self._seed_shard(journal, 1, spec, result)
        # Tamper shard 1's payload so the same fingerprint maps to
        # different bytes — still a valid pickled LinkResult.
        record = json.loads(b.read_text())
        tampered = pickle.loads(base64.b64decode(record["result"]))
        object.__setattr__(tampered, "timings", None)
        record["result"] = base64.b64encode(
            pickle.dumps(tampered, protocol=4)
        ).decode("ascii")
        b.write_text(json.dumps(record) + "\n")
        report = merge_journals([a, b], journal)
        assert report.conflicts == 1
        assert report.entries[spec_fingerprint(spec)].timings is None
        loaded = RunJournal(journal).load()
        assert loaded[spec_fingerprint(spec)].timings is None

    def test_conflicting_fingerprint_error_mode_raises(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        spec = _spec(tiny_device)
        result = spec.execute()
        a = self._seed_shard(journal, 0, spec, result)
        b = self._seed_shard(journal, 1, spec, result)
        record = json.loads(b.read_text())
        record["fingerprint"] = spec_fingerprint(spec)
        tampered = pickle.loads(base64.b64decode(record["result"]))
        object.__setattr__(tampered, "timings", None)
        record["result"] = base64.b64encode(
            pickle.dumps(tampered, protocol=4)
        ).decode("ascii")
        b.write_text(json.dumps(record) + "\n")
        with pytest.raises(JournalError, match="disagrees"):
            merge_journals([a, b], journal, on_conflict="error")

    def test_bad_conflict_mode_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="on_conflict"):
            merge_journals([], tmp_path / "sweep.jsonl", on_conflict="first")

    def test_corrupt_trailing_record_skipped(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        spec = _spec(tiny_device)
        path = self._seed_shard(journal, 0, spec, spec.execute())
        with path.open("a") as handle:
            handle.write('{"schema": 1, "fingerprint": "abc", "resu')
        report = merge_journals([path], journal)
        assert report.appended == 1
        assert set(report.entries) == {spec_fingerprint(spec)}

    def test_schema_mismatch_is_a_hard_error(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        shard = Path(shard_journal_path(journal, 0))
        shard.write_text('{"schema": 99, "fingerprint": "x", "result": "eA=="}\n')
        with pytest.raises(JournalError, match="schema"):
            merge_journals([shard], journal)


class TestResume:
    def test_resume_splices_shard_leftovers(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        # A "killed" run checkpointed cell 1 into a shard journal only.
        shard = RunJournal(shard_journal_path(journal, 1))
        shard.append(spec_fingerprint(specs[1]), specs[1].execute())
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded(specs, backend, journal=journal, resume=True)
        assert outcome.resumed == 1
        assert outcome.shard_of[1] is None  # resumed, never re-sharded
        assert not outcome.failures
        assert not existing_shard_journals(journal)  # shards cleaned up
        assert len(RunJournal(journal).load()) == len(specs)

    def test_fresh_run_discards_leftovers(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        shard = RunJournal(shard_journal_path(journal, 0))
        shard.append(spec_fingerprint(specs[0]), specs[0].execute())
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded(specs, backend, journal=journal, resume=False)
        assert outcome.resumed == 0
        assert not existing_shard_journals(journal)

    def test_resumed_rerun_is_byte_identical(self, tiny_device, tmp_path):
        specs = _specs(tiny_device)
        with make_backend("inprocess") as backend:
            full = run_specs_sharded(specs, backend)
        journal = tmp_path / "sweep.jsonl"
        shard = RunJournal(shard_journal_path(journal, 0))
        shard.append(spec_fingerprint(specs[0]), specs[0].execute())
        with make_backend("pool:workers=2") as backend:
            resumed = run_specs_sharded(specs, backend, journal=journal, resume=True)
        assert [_signature(r) for r in resumed.results] == [
            _signature(r) for r in full.results
        ]


class TestDrainContract:
    def test_hole_in_outcomes_raises(self, tiny_device):
        class HoleBackend(SweepBackend):
            name = "hole"

            def _drain(self, shards):
                return []  # violates one-outcome-per-cell

        with HoleBackend() as backend:
            with pytest.raises(BackendError, match="no outcome"):
                run_specs_sharded([_spec(tiny_device)], backend)

    def test_cell_error_contained_as_failure(self, tiny_device):
        spec = _spec(tiny_device)
        bad = RunSpec(
            config=spec.config,
            device=spec.device,
            simulated_columns=spec.simulated_columns,
            seed=spec.seed,
            duration_s=1e-9,  # too short to fit one symbol: raises in execute
        )
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded([bad], backend)
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.cause == "error"
        assert failure.index == 0


class TestRemoteResilience:
    @staticmethod
    def _transient_crash(cell=0):
        # A chaos whose attempt-1 draw deterministically triggers and
        # whose attempt-2 draw deterministically survives for ``cell``
        # (same probing trick as the runtime retry tests).
        for chaos_seed in range(64):
            probe = WorkerCrashChaos(0.5, seed=chaos_seed)
            first, second = probe.trigger_draw(cell, 1), probe.trigger_draw(cell, 2)
            if first < second:
                return WorkerCrashChaos((first + second) / 2, seed=chaos_seed)
        raise AssertionError("no transient chaos seed found")

    def test_worker_crash_is_retried(self, tiny_device):
        chaos = self._transient_crash(cell=0)
        policy = RuntimePolicy(
            max_attempts=2, backoff_base_s=0.0, chaos=(chaos,)
        )
        with RemoteBackend(policy=policy, workers=1) as backend:
            outcome = run_specs_sharded([_spec(tiny_device)], backend)
            assert backend.worker_restarts >= 1
            assert backend.cells_retried >= 1
        assert not outcome.failures
        reference = _spec(tiny_device).execute()
        assert _signature(outcome.results[0]) == _signature(reference)

    def test_partitioned_worker_is_killed_and_contained(self, tiny_device):
        policy = RuntimePolicy(
            cell_timeout_s=60.0,
            max_attempts=2,
            backoff_base_s=0.0,
            chaos=(WorkerPartitionChaos(1.0, seed=5),),
        )
        with RemoteBackend(policy=policy, workers=1) as backend:
            outcome = run_specs_sharded([_spec(tiny_device)], backend)
            assert backend.worker_restarts >= 1
        causes = {f.cause for f in outcome.failures}
        if outcome.failures:
            assert causes <= {"crash", "timeout"}
        else:
            assert backend.cells_retried >= 1

    def test_exhausted_attempts_become_crash_failures(self, tiny_device):
        policy = RuntimePolicy(
            max_attempts=1, chaos=(WorkerCrashChaos(1.0, seed=5),)
        )
        with RemoteBackend(policy=policy, workers=1) as backend:
            outcome = run_specs_sharded([_spec(tiny_device)], backend)
        assert len(outcome.failures) == 1
        assert outcome.failures[0].cause == "crash"
        assert outcome.failures[0].attempts == 1


class TestKilledSweepResume:
    def test_mid_sweep_kill_then_resume_is_byte_identical(
        self, tiny_device, tmp_path
    ):
        """SIGKILL a remote sweep mid-flight; --resume splices the shards."""
        journal = tmp_path / "sweep.jsonl"
        driver = (
            "import pickle, sys\n"
            "from repro.perf.backends import make_backend, run_specs_sharded\n"
            "specs = pickle.load(open(sys.argv[1], 'rb'))\n"
            "with make_backend('remote:workers=2') as backend:\n"
            "    run_specs_sharded(specs, backend, journal=sys.argv[2])\n"
        )
        specs = _specs(tiny_device, count=4)
        specs_path = tmp_path / "specs.pkl"
        specs_path.write_bytes(pickle.dumps(specs, protocol=4))
        # Fingerprints are stable only within one pickling generation
        # (memoization of shared references shifts bytes on the first
        # round trip), so resume with the same generation the subprocess
        # driver unpickled and journaled.
        specs = pickle.loads(specs_path.read_bytes())
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", driver, str(specs_path), str(journal)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120.0
        try:
            # Kill as soon as any shard journal holds a completed cell.
            while time.monotonic() < deadline:
                leftovers = existing_shard_journals(journal)
                if any(p.stat().st_size > 0 for p in leftovers):
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        checkpointed = sum(
            len(RunJournal(p).load()) for p in existing_shard_journals(journal)
        ) + len(RunJournal(journal).load())
        with make_backend("inprocess") as backend:
            resumed = run_specs_sharded(specs, backend, journal=journal, resume=True)
        assert resumed.resumed == checkpointed
        assert not resumed.failures
        with make_backend("inprocess") as backend:
            reference = run_specs_sharded(specs, backend)
        assert [_signature(r) for r in resumed.results] == [
            _signature(r) for r in reference.results
        ]
        assert not existing_shard_journals(journal)


class TestBackendTrace:
    def test_root_shard_cell_hierarchy(self, tiny_device):
        """Cells sit directly under the root; each names the shard that ran it."""
        with make_backend("pool:workers=2") as backend:
            outcome = run_specs_sharded(
                _specs(tiny_device), backend, observe=True
            )
            spans = assemble_trace(
                [r.trace for r in outcome.results],
                root_attributes={"backend": backend.name, "lanes": backend.lanes},
            )
        root = spans[0]
        assert root.name == SPAN_SWEEP
        assert root.attributes["backend"] == "pool"
        assert root.attributes["lanes"] == 2
        cell_spans = [s for s in spans if s.parent_id == root.span_id]
        assert [s.name for s in cell_spans] == [SPAN_CELL] * 3
        assert [s.attributes["shard"] for s in cell_spans] == [0, 1, 0]
        assert outcome.shard_of == [0, 1, 0]

    def test_resumed_cells_group_under_trailing_span(self, tiny_device, tmp_path):
        """A resumed cell keeps its spec position and is marked ``resumed``."""
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        RunJournal(journal).append(
            spec_fingerprint(specs[2]), specs[2].execute(observe=True)
        )
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded(
                specs, backend, journal=journal, resume=True, observe=True
            )
        spans = assemble_trace([r.trace for r in outcome.results])
        root = spans[0]
        cell_spans = [s for s in spans if s.parent_id == root.span_id]
        assert [s.attributes["shard"] for s in cell_spans] == [0, 0, "resumed"]
        assert outcome.shard_of == [0, 0, None]

    def test_one_tree_shape_for_every_backend_and_resume(
        self, tiny_device, tmp_path
    ):
        specs = _specs(tiny_device)
        outcomes = {
            "default": run_specs_resilient(specs, workers=2, observe=True)
        }
        for spec in ("inprocess", "pool:workers=2", "remote:workers=2"):
            with make_backend(spec) as backend:
                outcomes[spec] = run_specs_sharded(specs, backend, observe=True)
        journal = tmp_path / "sweep.jsonl"
        with make_backend("inprocess") as backend:
            run_specs_sharded(specs[2:], backend, journal=journal, observe=True)
        with make_backend("pool:workers=2") as backend:
            outcomes["resumed"] = run_specs_sharded(
                specs, backend, journal=journal, resume=True, observe=True
            )
        assert outcomes["resumed"].resumed == 1

        signatures = {
            name: tree_signature(
                assemble_trace([r.trace for r in outcome.results])
            )
            for name, outcome in outcomes.items()
        }
        ((root, cells),) = signatures["default"]
        assert root == SPAN_SWEEP
        assert [cell[0] for cell in cells] == [SPAN_CELL] * len(specs)
        assert set(signatures.values()) == {signatures["default"]}

        for outcome in outcomes.values():
            assert [r.trace[0].attributes["shard"] for r in outcome.results] == [
                "resumed" if shard is None else shard
                for shard in outcome.shard_of
            ]
        assert outcomes["remote:workers=2"].shard_of == [0, 1, 0]
        assert outcomes["resumed"].shard_of == [0, 1, None]

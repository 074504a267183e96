"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, workloads  # noqa: E402
from perfbench.openloop import LoadPlan, run_open_loop  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the open-loop generator, against a stub that only pretends to work --


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += max(seconds, 0.0)


class SleepyServer:
    """Pumping costs ``per_frame_s`` per queued frame; closing ``close_s``."""

    def __init__(self, clock, per_frame_s, close_s=0.0, refuse=()):
        self.clock = clock
        self.per_frame_s = per_frame_s
        self.close_s = close_s
        self.refuse = set(refuse)
        self.queued = 0
        self.opened, self.closed = [], []

    def open(self, session):
        self.opened.append(session)

    def submit(self, session, frame):
        if (session, frame) in self.refuse:
            return False
        self.queued += 1
        return True

    def pump(self):
        self.clock.sleep(self.queued * self.per_frame_s)
        self.queued = 0

    def close(self, session):
        self.clock.sleep(self.close_s)
        self.closed.append(session)


def drive(per_frame_s, close_s=0.0, sessions=4, frames=30, refuse=()):
    clock = FakeClock()
    server = SleepyServer(clock, per_frame_s, close_s, refuse)
    plan = LoadPlan(sessions=sessions, frames_per_session=frames,
                    sessions_per_s=2.0)
    stats = run_open_loop(server, plan, clock=clock, sleep=clock.sleep)
    return plan, server, stats


def test_server_that_keeps_up_has_no_lag_or_backlog():
    plan, server, stats = drive(per_frame_s=0.001)
    assert stats.frames == plan.sessions * plan.frames_per_session
    assert len(stats.frame_latency) == stats.frames
    # Frames of two sessions can fall due together and share one pump.
    assert max(stats.lag) <= 0.002
    assert max(stats.frame_latency) <= 0.003
    assert stats.backlog_end == 0
    assert server.opened == server.closed == list(range(plan.sessions))
    assert len(stats.close_latency) == plan.sessions


def test_latency_counts_from_due_time_behind_a_stall():
    # Each close stalls 0.1 s: frames due during it wait, and their
    # latency includes the wait, not just their own pump.
    plan, _, stats = drive(per_frame_s=0.001, close_s=0.1)
    assert max(stats.frame_latency) > 0.05
    assert max(stats.lag) > 0.05
    assert min(stats.close_latency) >= 0.1
    assert stats.backlog_end == 0


def test_overloaded_server_shows_growing_lag_and_backlog():
    # Pumping a frame costs twice its share of real time: the schedule does
    # not slow down, so lateness grows and frames are still due at the end.
    _, _, stats = drive(per_frame_s=0.05, sessions=4, frames=30)
    assert stats.backlog_end > 0
    third = len(stats.lag) // 3
    assert sum(stats.lag[-third:]) > 2 * sum(stats.lag[:third])
    assert stats.wall_s > 2 * (3 / 2.0 + 29 / 30.0)


def test_refused_frames_are_counted():
    _, _, stats = drive(per_frame_s=0.001, refuse={(0, 3), (2, 7)})
    assert stats.rejected == 2


# -- statistics and checks ----------------------------------------------


def test_percentile_and_samples_beyond():
    values = list(range(1, 101))
    assert common.percentile(values, 50) == pytest.approx(50.5)
    assert common.percentile(values, 0) == 1
    assert common.percentile(values, 100) == 100
    assert common.samples_beyond(1000, 99) == 10
    assert common.samples_beyond(100, 90) == 10


def test_payload_prefix_check_flags_miscorrection():
    codewords = [b"abcdefgh", b"ijklmnop"]
    assert common.payload_prefix_failures(codewords, 4, [b"abcd", b"ijkl"]) == 0
    assert common.payload_prefix_failures(codewords, 4, [b"abcd", b"abce"]) == 1


def load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_in_process(monkeypatch, capsys, workload):
    runner = load_runner()
    monkeypatch.setattr(runner, "child_setup_seconds", lambda args: 1.0)
    code = runner.main(["--workload", workload, "--seed", "3",
                        "--seconds", "0.5", "--size", "tiny"])
    return code, capsys.readouterr().out.strip().splitlines()


def test_miscorrection_counts_as_a_failed_operation(monkeypatch, capsys):
    monkeypatch.setattr(common, "payload_prefix_failures",
                        lambda codewords, k, payloads: 1)
    code, lines = run_in_process(monkeypatch, capsys, "sweep-grid")
    last = json.loads(lines[-1])
    assert code == 0 and last["correct"] is True
    assert last["failed"] == last["attempted"]
    assert any("undetected miscorrection" in line for line in lines)


def test_seconds_fix_the_work_not_the_clock(monkeypatch, capsys):
    assert workloads.fixed_passes(25, workloads.FULL.sweep_pass_s, 2) == 5
    assert workloads.fixed_passes(25, workloads.FULL.phone_run_s, 4) == 8
    assert workloads.fixed_passes(0.5, 5.0, 2) == 2
    # A clock that races ahead changes nothing about what runs or fails.
    ticks = iter(range(0, 10**9, 1000))
    _, fast = run_in_process(monkeypatch, capsys, "sweep-grid")
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: next(ticks))
    _, slow = run_in_process(monkeypatch, capsys, "sweep-grid")
    first, second = json.loads(fast[-1]), json.loads(slow[-1])
    assert (first["attempted"], first["failed"]) == (
        second["attempted"], second["failed"])
    assert json.loads(fast[-2])["details"] == json.loads(slow[-2])["details"]


def test_broken_contract_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads.ServeWorkload, "reference_payloads",
                        lambda self, recording: [b"not what was sent"])
    code, lines = run_in_process(monkeypatch, capsys, "serve-stream")
    last = json.loads(lines[-1])
    assert code == 1 and last["correct"] is False
    assert last["failed"] >= 1
    assert any("differ from batch process_frames" in line for line in lines)


# -- the contract of BENCHMARK.json and of every run ---------------------


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    # Every per-layer metric has its layer and the metric it should move.
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(
        common.LAYERS["per_layer"]
    )


def run_benchmark(workload, trace, cwd=ROOT, runner=RUN):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    completed = run_benchmark(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    detail = json.loads(lines[-2])
    # Undetected RS miscorrections are a known defect of the receiver on
    # the phone link; they are counted, and nothing else may fail.
    assert bool(detail["failures"]) == (result["failed"] > 0)
    assert all("undetected miscorrection" in f for f in detail["failures"])
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        if not trace:
            assert printed["value"] > 0, metric["name"]
        assert any(line.split()[:1] == [metric["name"]] for line in lines)
    assert set(detail["env"]) == {"nproc", "python", "numpy", "git_rev"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("sweep-grid", 0, cwd=tmp_path,
                              runner=tmp_path / "perfbench" / "run.py")
    assert completed.returncode != 0
    assert completed.stdout == ""

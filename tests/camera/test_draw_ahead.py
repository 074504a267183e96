"""Draw-ahead capture: routing, worker lifecycle and fork safety.

A recording whose noise plan is too large for the process-wide memo draws
its shot noise on one worker thread while the caller forms the image
(``repro.camera.capture.DrawAheadPlan``).  Byte identity with the other
engines is pinned in ``test_capture_equivalence.py``; these tests pin
which plans take the path and that the worker never outlives its
recording — not on an error, and not across a fork.
"""

import gc
import hashlib
import multiprocessing
import sys
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout

import numpy as np
import pytest

from repro.camera import capture
from repro.camera.capture import (
    CaptureDrawPlan,
    DrawAheadPlan,
    DrawPlanSpec,
    cached_capture_plan,
    develop_frames,
    draw_capture_plan,
    plan_recording,
)
from repro.exceptions import CameraError
from repro.phy.symbols import data_symbol, white_symbol
from repro.phy.waveform import EXTEND_CYCLE

from tests.conftest import make_tiny_device


@pytest.fixture
def waveform(modulator8):
    symbols = [white_symbol() if i % 3 == 0 else data_symbol(i % 8) for i in range(300)]
    return modulator8.waveform(symbols, extend=EXTEND_CYCLE)


@pytest.fixture
def streamed(monkeypatch):
    """Send every recording down the draw-ahead path, one frame per chunk."""
    monkeypatch.setattr(capture, "_PLAN_CACHE_MAX_BYTES", 0)
    monkeypatch.setattr(capture, "_CHUNK_ELEMENTS", 1)


@pytest.fixture
def late_row_gains(monkeypatch):
    """Hold the worker's row-gain draw until the caller hands over the tail.

    Every chunk then finishes its noise before the row gains exist, so
    the whole gain/encode pass runs as the shared tail.
    """
    release = threading.Event()
    draw_row_gain = capture.draw_row_gain
    share_tail = capture.DrawAheadPlan.share_tail

    def held_row_gain(spec, rng):
        release.wait(timeout=30)
        return draw_row_gain(spec, rng)

    def releasing_share_tail(plan, finish, chunks):
        release.set()
        return share_tail(plan, finish, chunks)

    monkeypatch.setattr(capture, "draw_row_gain", held_row_gain)
    monkeypatch.setattr(capture.DrawAheadPlan, "share_tail", releasing_share_tail)
    return release


def _camera(path="batched", seed=4):
    return make_tiny_device().make_camera(
        simulated_columns=16, seed=seed, capture_path=path
    )


def _draw_ahead_threads():
    return [t for t in threading.enumerate() if t.name == "draw-ahead"]


def _digest(frames) -> str:
    h = hashlib.sha256()
    for frame in frames:
        h.update(frame.pixels.tobytes())
        h.update(repr((frame.start_time, frame.exposure)).encode())
    return h.hexdigest()


def _record_digest(waveform, duration, path="batched", seed=4) -> str:
    camera = _camera(path, seed)
    frames = camera.record(waveform, duration=duration)
    return _digest(frames) + repr(camera.rng.bit_generator.state)


class TestRouting:
    @pytest.mark.parametrize("prnu", [0.0, 0.01])
    @pytest.mark.parametrize("row_noise", [0.0, 0.03])
    @pytest.mark.parametrize("drift", [0.0, 0.02])
    def test_spec_nbytes_matches_drawn_plan(self, prnu, row_noise, drift):
        spec = DrawPlanSpec(
            frame_count=5, rows=40, cols=6, jitter_sigma=0.0,
            drift_sigma=drift, prnu=prnu, row_noise=row_noise,
        )
        plan = draw_capture_plan(spec, np.random.default_rng(0))
        assert spec.nbytes == plan.nbytes

    def test_plan_above_cap_is_never_memoized(self, monkeypatch):
        spec = DrawPlanSpec(
            frame_count=4, rows=40, cols=6, jitter_sigma=0.0,
            drift_sigma=0.0, prnu=0.0, row_noise=0.0,
        )
        monkeypatch.setattr(capture, "_PLAN_CACHE", {})
        monkeypatch.setattr(capture, "_PLAN_CACHE_MAX_BYTES", spec.nbytes - 1)
        cached_capture_plan(spec, np.random.default_rng(0))
        assert capture._PLAN_CACHE == {}
        monkeypatch.setattr(capture, "_PLAN_CACHE_MAX_BYTES", spec.nbytes)
        cached_capture_plan(spec, np.random.default_rng(0))
        assert len(capture._PLAN_CACHE) == 1

    def test_recording_above_cap_draws_ahead_without_the_memo(
        self, monkeypatch, waveform
    ):
        monkeypatch.setattr(capture, "_PLAN_CACHE", {})
        monkeypatch.setattr(capture, "_PLAN_CACHE_MAX_BYTES", 0)
        camera = _camera()
        rec = plan_recording(camera, waveform, 0.2, 0.0, 0.0)
        assert isinstance(rec.draws, DrawAheadPlan)
        develop_frames(camera, rec)
        assert capture._PLAN_CACHE == {}

    def test_reference_path_never_draws_ahead(self, streamed, waveform):
        rec = plan_recording(_camera("reference"), waveform, 0.2, 0.0, 0.0)
        assert isinstance(rec.draws, CaptureDrawPlan)


class TestLifecycle:
    def test_worker_joined_after_record(self, streamed, waveform):
        _camera().record(waveform, duration=0.2)
        assert _draw_ahead_threads() == []

    def test_consumed_plan_cannot_develop_again(self, streamed, waveform):
        camera = _camera()
        rec = plan_recording(camera, waveform, 0.2, 0.0, 0.0)
        develop_frames(camera, rec)
        with pytest.raises(CameraError):
            develop_frames(camera, rec)
        assert _draw_ahead_threads() == []

    def test_shared_tail_matches_reference(self, streamed, late_row_gains, waveform):
        got = _record_digest(waveform, 0.3)
        assert late_row_gains.is_set()
        assert got == _record_digest(waveform, 0.3, "reference")

    def test_developed_plan_freed_by_reference_count(
        self, streamed, late_row_gains, waveform
    ):
        # The ~170 MB shot buffer of a phone recording must go when the
        # recording does, not at the next cycle collection.
        camera = _camera()
        rec = plan_recording(camera, waveform, 0.2, 0.0, 0.0)
        develop_frames(camera, rec)
        assert late_row_gains.is_set()
        plan = weakref.ref(rec.draws)
        gc.disable()
        try:
            del rec
            assert plan() is None
        finally:
            gc.enable()

    def test_prologue_error_reraised_and_worker_joined(self, streamed, waveform):
        class Boom(Exception):
            pass

        class FailingWaveform:
            """Raises on the third frame's scanline integration."""

            calls = 0

            def mean_xyz(self, starts, stops):
                self.calls += 1
                if self.calls == 3:
                    raise Boom("scene integration failed")
                return waveform.mean_xyz(starts, stops)

        states = {}
        for path in ("batched", "reference"):
            camera = _camera(path)
            with pytest.raises(Boom):
                camera.record(FailingWaveform(), duration=0.3)
            assert _draw_ahead_threads() == []
            state = repr(camera.rng.bit_generator.state)
            time.sleep(0.05)
            assert repr(camera.rng.bit_generator.state) == state
            states[path] = state
        # The worker finished its draws before the join, so the generator
        # ends where a fully drawn plan leaves it.
        assert states["batched"] == states["reference"]

    def test_streamed_recording_in_forked_pool_worker(self, streamed, waveform):
        # A thread started (and joined) in the parent must not wedge a
        # fork-started pool worker that records the same way.
        parent = _record_digest(waveform, 0.2)
        assert _draw_ahead_threads() == []
        context = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
        future = pool.submit(_record_digest, waveform, 0.2)
        try:
            child = future.result(timeout=120)
        except FuturesTimeout:
            for process in pool._processes.values():
                process.terminate()
            raise
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        assert child == parent

    def test_concurrent_recordings_under_fast_thread_switching(
        self, streamed, waveform
    ):
        # More recording threads than cores, each with its own draw-ahead
        # worker, switching every microsecond: a chunk read before its
        # normals were published, or a lost tail chunk, changes the bytes.
        seeds = range(4)
        expected = [_record_digest(waveform, 0.3, "reference", s) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                futures = [
                    pool.submit(_record_digest, waveform, 0.3, "batched", s)
                    for s in seeds
                ]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert _draw_ahead_threads() == []

"""Whole-recording capture engine: pre-drawn noise plans and batched kernels.

The per-frame capture loop of early revisions spent most of its time in
Python/numpy dispatch over small arrays.  This module restructures a
recording so that everything *deterministic* runs as a handful of numpy
passes over a ``(frames, rows, cols, 3)`` block, while the inherently
*sequential* state — frame-jitter drift accumulation, the AE controller,
the AWB EWMA — is threaded through a cheap per-frame prologue that only
touches ``(rows, 3)`` scanline statistics.

The vectorized-capture contract (DESIGN.md §5i):

* **Canonical draw order.**  All randomness for a recording is drawn from
  the camera RNG up front, in one documented order: (1) frame jitter
  ``(F,)``, (2) AE drift ``(F,)``, (3) the PRNU fixed pattern
  ``(rows, cols, 3)`` — once per camera lifetime, (4) shot-noise normals
  ``(F, rows, cols, 3)``, (5) row-noise gains ``(F, rows, 1, 3)``.  Draw
  shapes depend only on the recording geometry and noise flags, never on
  signal values, so the order is reproducible by construction.
* **Sequential prologue.**  AE and AWB meter on per-scanline statistics
  (signal rows times the vignette row means) — the way a real ISP's
  statistics engine meters on decimated raw stats — so the settings chain
  ``settings[i+1] = f(settings[i], stats[i], drift[i])`` costs O(rows)
  per frame and never blocks the heavy image formation.
* **Batched image formation.**  Vignette broadcast, Bayer mosaic/demosaic,
  the fused shot/read/PRNU noise kernel, row-noise gains, AWB gains and
  the sRGB encode all run over the whole recording (chunked to bound
  memory).  The image pipeline computes in float32 — distribution-faithful
  for a sensor model whose output is 8-bit — while all *timing* stays in
  float64.
* **Fast ↔ reference equivalence.**  :func:`develop_frames` (batched) and
  :func:`develop_frame` (one frame at a time) consume the same prologue
  arrays and the same float32 kernels, differing only in whether the
  leading frames axis is present; every kernel is elementwise or
  per-frame-spatial, so the two paths produce byte-identical pixels.
  ``RollingShutterCamera(capture_path="reference")`` keeps the slow path
  selectable, and ``tests/camera/test_capture_equivalence.py`` pins the
  guarantee.

Plans are memoized process-wide keyed on the *exact RNG state* plus the
draw-plan spec: sweep cells sharing a seed (the bench, resilience sweeps)
draw their noise once, and a cache hit restores the generator to the same
end state a miss would have left, so cache state can never change results.

A plan too large for the memo (``DrawPlanSpec.nbytes`` above
``_PLAN_CACHE_MAX_BYTES``, e.g. phone-length Nexus 5 recordings) is never
shared, so its recording owns the noise buffer: a :class:`DrawAheadPlan`
draws slots 4-5 on one worker thread while the caller runs the prologue
and forms the image, and the develop loop writes the noisy signal into
the shot buffer in place.  The draw order, and so every byte, is the same.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.bayer import mosaic_roundtrip_nd
from repro.color.srgb import xyz_to_linear_rgb
from repro.exceptions import CameraError

#: Dtype of the batched image pipeline (timing stays float64).
PIXEL_DTYPE = np.float32

#: Row-luminance floor for the scanline gray-world AWB metering, matching
#: the pixel-level floor of the single-frame path.
AWB_ROW_LUMINANCE_FLOOR = 0.05

#: Frames are developed in chunks of at most this many float32 elements:
#: bounds peak RSS on phone-resolution recordings and keeps each chunk's
#: working set cache-resident (measured ~30% faster than one whole-recording
#: block on the bench geometry).  Chunking cannot change results — every
#: kernel is per-frame independent.
_CHUNK_ELEMENTS = 480_000

#: Distance from an integer within which a frame-count product rounds to it.
_FRAME_COUNT_TOLERANCE = 1e-9


def _chunk_frames(rows: int, cols: int) -> int:
    """Frames per develop (and draw-ahead) chunk for a frame geometry."""
    return max(1, _CHUNK_ELEMENTS // (rows * cols * 3))


# -- the draw plan ---------------------------------------------------------


@dataclass(frozen=True)
class DrawPlanSpec:
    """Everything that determines a recording's draw shapes and sigmas.

    Value-only and hashable: together with the RNG state it is the memo key
    for :func:`cached_capture_plan`.  ``drift_sigma`` is zero when AE is
    locked (no drift draws happen); ``prnu`` is zero when the camera's
    fixed pattern has already been drawn.
    """

    frame_count: int
    rows: int
    cols: int
    jitter_sigma: float
    drift_sigma: float
    prnu: float
    row_noise: float

    def __post_init__(self) -> None:
        if self.frame_count <= 0 or self.rows <= 0 or self.cols <= 0:
            raise CameraError(
                f"draw plan needs positive dimensions, got {self}"
            )

    @property
    def nbytes(self) -> int:
        """Bytes of the plan :func:`draw_capture_plan` draws for this spec."""
        frames, pixels = self.frame_count, self.rows * self.cols * 3
        itemsize = np.dtype(PIXEL_DTYPE).itemsize
        # jitter and drift are float64 (F,) even when their sigma is zero.
        total = 2 * frames * 8 + frames * pixels * itemsize
        if self.prnu > 0:
            total += pixels * itemsize
        if self.row_noise > 0:
            total += frames * self.rows * 3 * itemsize
        return total


class CaptureDrawPlan:
    """All RNG draws for one recording, in the canonical order.

    Arrays are read-only: plans are shared through the process-wide memo
    and must never be mutated by a consumer.  Every draw is available up
    front, so the develop loop never waits and never writes in place.
    """

    __slots__ = ("spec", "jitter", "drift", "prnu_gain", "shot", "row_gain")

    owns_shot = False
    row_gain_drawn = True

    def __init__(
        self,
        spec: DrawPlanSpec,
        jitter: np.ndarray,
        drift: np.ndarray,
        prnu_gain: Optional[np.ndarray],
        shot: np.ndarray,
        row_gain: Optional[np.ndarray],
    ) -> None:
        self.spec = spec
        self.jitter = jitter
        self.drift = drift
        self.prnu_gain = prnu_gain
        self.shot = shot
        self.row_gain = row_gain
        for array in (jitter, drift, prnu_gain, shot, row_gain):
            if array is not None:
                array.flags.writeable = False

    @property
    def nbytes(self) -> int:
        total = 0
        for array in (self.jitter, self.drift, self.prnu_gain, self.shot, self.row_gain):
            if array is not None:
                total += array.nbytes
        return total

    def claim(self) -> None:
        """A shared plan can be developed any number of times."""

    def shot_frames(self, lo: int, hi: int) -> np.ndarray:
        return self.shot[lo:hi]

    def close(self) -> None:
        """Nothing to release: no worker draws into a memoizable plan."""


def draw_capture_plan(
    spec: DrawPlanSpec, rng: np.random.Generator
) -> CaptureDrawPlan:
    """Draw a recording's noise plan in the canonical order (see module doc)."""
    jitter, drift, prnu_gain = draw_leading(spec, rng)
    shot = rng.standard_normal(
        (spec.frame_count, spec.rows, spec.cols, 3), dtype=PIXEL_DTYPE
    )
    row_gain = draw_row_gain(spec, rng)
    return CaptureDrawPlan(spec, jitter, drift, prnu_gain, shot, row_gain)


def draw_leading(spec: DrawPlanSpec, rng: np.random.Generator):
    """Slots 1-3 of the canonical order: ``(jitter, drift, prnu_gain)``."""
    frames = spec.frame_count
    jitter = (
        rng.normal(0.0, spec.jitter_sigma, frames)
        if spec.jitter_sigma > 0
        else np.zeros(frames)
    )
    drift = (
        rng.normal(0.0, spec.drift_sigma, frames)
        if spec.drift_sigma > 0
        else np.zeros(frames)
    )
    prnu_gain = None
    if spec.prnu > 0:
        prnu_gain = draw_prnu_gain(spec.prnu, spec.rows, spec.cols, rng)
    return jitter, drift, prnu_gain


def draw_row_gain(
    spec: DrawPlanSpec, rng: np.random.Generator
) -> Optional[np.ndarray]:
    """Slot 5: per-frame row-noise gains ``(F, rows, 1, 3)``, or ``None``."""
    if spec.row_noise <= 0:
        return None
    return (
        1.0 + rng.normal(0.0, spec.row_noise, (spec.frame_count, spec.rows, 1, 3))
    ).astype(PIXEL_DTYPE)


def draw_prnu_gain(
    prnu: float, rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw the camera-lifetime PRNU fixed-pattern gain ``(rows, cols, 3)``.

    Photo-response non-uniformity is a property of the silicon, not of a
    frame: it is drawn once per camera (draw-order slot 3) and reused for
    every subsequent frame and recording.
    """
    gain = (1.0 + rng.normal(0.0, prnu, (rows, cols, 3))).astype(PIXEL_DTYPE)
    gain.flags.writeable = False
    return gain


#: Process-wide plan memo: (bit-generator state, spec) -> (plan, end state).
#: Sweeps reuse one seed across cells, so every cell after the first gets
#: its draws for free; restoring the stored end state on a hit makes the
#: cache observationally invisible to the generator.
_PLAN_CACHE: Dict[Tuple, Tuple[CaptureDrawPlan, dict]] = {}
_PLAN_CACHE_MAX_BYTES = 128_000_000


def _plan_cache_key(spec: DrawPlanSpec, rng: np.random.Generator) -> Tuple:
    # ``repr`` of the state dict is deterministic: numpy builds it with a
    # fixed insertion order for a given bit generator.
    return (repr(rng.bit_generator.state), spec)


def cached_capture_plan(
    spec: DrawPlanSpec, rng: np.random.Generator
) -> CaptureDrawPlan:
    """Draw (or fetch) a plan; the RNG always ends in the post-draw state."""
    key = _plan_cache_key(spec, rng)
    hit = _PLAN_CACHE.get(key)
    if hit is not None:
        plan, end_state = hit
        rng.bit_generator.state = end_state
        return plan
    plan = draw_capture_plan(spec, rng)
    end_state = rng.bit_generator.state
    if spec.nbytes <= _PLAN_CACHE_MAX_BYTES:
        used = sum(entry[0].nbytes for entry in _PLAN_CACHE.values())
        while _PLAN_CACHE and used + plan.nbytes > _PLAN_CACHE_MAX_BYTES:
            evicted, _ = _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
            used -= evicted.nbytes
        _PLAN_CACHE[key] = (plan, end_state)
    return plan


class DrawAheadPlan:
    """A never-memoized recording's draws, slots 4-5 drawn on a worker thread.

    The caller draws slots 1-3 and hands them in; the constructor starts
    the recording's one worker, which fills ``shot`` chunk by chunk
    (publishing each finished chunk), then draws ``row_gain``.  Chunked
    fills continue the PCG64 stream bit for bit, so the draws and the RNG
    end state equal :func:`draw_capture_plan`'s.  The worker then waits
    for the develop loop's tail — the row-gain/AWB multiply and sRGB
    encode of chunks that finished their noise before the row gains
    existed — and drains it together with the caller.

    The recording owns ``shot``: :func:`develop_frames` overwrites it with
    the noisy signal, so a plan develops once.  The camera RNG belongs to
    the worker until :meth:`close`, which joins the thread and which every
    exit path calls.
    """

    owns_shot = True

    def __init__(
        self,
        spec: DrawPlanSpec,
        rng: np.random.Generator,
        jitter: np.ndarray,
        drift: np.ndarray,
        prnu_gain: Optional[np.ndarray],
    ) -> None:
        self.spec = spec
        self.jitter = jitter
        self.drift = drift
        self.prnu_gain = prnu_gain
        self.shot = np.empty(
            (spec.frame_count, spec.rows, spec.cols, 3), dtype=PIXEL_DTYPE
        )
        self.row_gain: Optional[np.ndarray] = None
        self.row_gain_drawn = False
        self._filled = 0
        self._error: Optional[BaseException] = None
        self._tail: Optional[Tuple[Callable[[int, int], None], Deque]] = None
        self._closed = False
        self._claimed = False
        self._cond = threading.Condition()
        self._thread = threading.Thread(
            target=_draw_ahead, args=(self, rng), name="draw-ahead", daemon=True
        )
        self._thread.start()

    def claim(self) -> None:
        """Mark the plan developed; a second claim raises ``CameraError``."""
        if self._claimed:
            raise CameraError(
                "a draw-ahead plan develops once: its shot buffer already "
                "holds the developed signal"
            )
        self._claimed = True

    def shot_frames(self, lo: int, hi: int) -> np.ndarray:
        """The normals of frames ``[lo, hi)``, waiting for the worker."""
        self._wait(lambda: self._filled >= hi)
        return self.shot[lo:hi]

    def share_tail(
        self, finish: Callable[[int, int], None], chunks: List[Tuple[int, int]]
    ) -> None:
        """Run ``finish(lo, hi)`` over ``chunks`` here and on the worker."""
        self._wait(lambda: self.row_gain_drawn)
        queue: Deque[Tuple[int, int]] = deque(chunks)
        with self._cond:
            self._tail = (finish, queue)
            self._cond.notify_all()
        _drain(finish, queue)
        self._thread.join()
        if self._error is not None:
            raise CameraError("develop tail failed on the worker") from self._error

    def close(self) -> None:
        """Release the worker (abandoning any tail left) and join it."""
        with self._cond:
            self._closed = True
            if self._tail is not None:
                self._tail[1].clear()
            self._cond.notify_all()
        self._thread.join()
        # The tail closure holds the recording plan, which holds this
        # plan: drop it so the shot buffer is freed by reference count.
        self._tail = None

    def _wait(self, ready: Callable[[], bool]) -> None:
        with self._cond:
            self._cond.wait_for(lambda: ready() or self._error is not None)
            if not ready():
                raise CameraError("shot-noise draw failed") from self._error

    def _publish(self, **state) -> None:
        with self._cond:
            for name, value in state.items():
                setattr(self, name, value)
            self._cond.notify_all()

    def _next_tail(self):
        with self._cond:
            self._cond.wait_for(lambda: self._tail is not None or self._closed)
            return self._tail


def _draw_ahead(plan: DrawAheadPlan, rng: np.random.Generator) -> None:
    """Worker body: slot 4 chunk by chunk, slot 5, then a share of the tail."""
    spec = plan.spec
    chunk = _chunk_frames(spec.rows, spec.cols)
    try:
        for lo in range(0, spec.frame_count, chunk):
            hi = min(lo + chunk, spec.frame_count)
            rng.standard_normal(dtype=PIXEL_DTYPE, out=plan.shot[lo:hi])
            plan._publish(_filled=hi)
        plan._publish(row_gain=draw_row_gain(spec, rng), row_gain_drawn=True)
        tail = plan._next_tail()
        if tail is not None:
            _drain(*tail)
    except BaseException as exc:
        # Wake a caller waiting on this thread, then end it as raised.
        plan._publish(_error=exc)
        raise


def _drain(finish: Callable[[int, int], None], queue: Deque) -> None:
    """Run ``finish`` on chunks popped from ``queue`` until it is empty."""
    while True:
        try:
            lo, hi = queue.popleft()
        except IndexError:
            return
        finish(lo, hi)


# -- the sequential prologue ----------------------------------------------


@dataclass
class RecordingPlan:
    """Per-frame deterministic state shared by both develop paths.

    Produced once per recording by :func:`plan_recording`; both the batched
    and the reference path read these arrays (float32 casts included), so
    no settings/gain value can ever differ between them.
    """

    frame_count: int
    start_times: np.ndarray        # (F,) float64
    settings: List[ExposureSettings]
    electron_rows: np.ndarray      # (F, rows, 3) float32, photoelectron-scaled
    awb_gains: Optional[np.ndarray]   # (F, 1, 1, 3) float32, None = AWB off
    electron_inv_scale: np.ndarray  # (F, 1, 1, 1) float32
    draws: Union[CaptureDrawPlan, DrawAheadPlan]


def plan_recording(
    camera,
    waveform,
    duration: float,
    start_time: float,
    frame_jitter_s: float,
) -> Optional[RecordingPlan]:
    """Run the sequential prologue: draws, timing, AE/AWB, row signals.

    Mutates the camera's AE controller and AWB gains exactly as the
    recording proceeds (this *is* the recording's control loop); returns
    ``None`` when the duration is too short for a single frame.

    A plan too large for the memo is drawn ahead (:class:`DrawAheadPlan`)
    on the batched path: slots 1-3 here, slots 4-5 on a worker thread that
    runs while this prologue — which never touches the RNG — does.  Hand
    the result to :func:`develop_frames`, which joins the worker; the
    camera RNG must not be used in between.  The reference path always
    draws in full on the calling thread.
    """
    timing = camera.timing
    frame_count = recording_frame_count(duration, timing.frame_rate)
    if frame_count <= 0:
        return None

    rows = timing.rows
    cols = camera.simulated_columns
    noise = camera.noise
    ae = camera.auto_exposure
    auto = not ae.locked
    spec = DrawPlanSpec(
        frame_count=frame_count,
        rows=rows,
        cols=cols,
        jitter_sigma=frame_jitter_s,
        drift_sigma=ae.drift_sigma if auto else 0.0,
        prnu=noise.prnu if camera._prnu_gain is None else 0.0,
        row_noise=noise.row_noise,
    )
    if spec.nbytes > _PLAN_CACHE_MAX_BYTES and camera.capture_path != "reference":
        draws = DrawAheadPlan(spec, camera.rng, *draw_leading(spec, camera.rng))
    else:
        draws = cached_capture_plan(spec, camera.rng)
    if spec.prnu > 0:
        camera._prnu_gain = draws.prnu_gain
    try:
        return _run_prologue(camera, waveform, start_time, frame_jitter_s, draws)
    except BaseException:
        draws.close()
        raise


def recording_frame_count(duration: float, frame_rate: float) -> int:
    """Whole frames in ``duration`` seconds at ``frame_rate``.

    A product within ``1e-9`` of an integer counts as that integer, so
    float rounding cannot drop a frame (``4.1 * 30`` is ``122.99999…``).
    """
    product = duration * frame_rate
    nearest = round(product)
    if abs(product - nearest) <= _FRAME_COUNT_TOLERANCE:
        return int(nearest)
    return math.floor(product)


def _run_prologue(
    camera, waveform, start_time: float, frame_jitter_s: float, draws
) -> RecordingPlan:
    """The per-frame control loop of :func:`plan_recording`."""
    timing = camera.timing
    frame_count = draws.spec.frame_count
    rows = timing.rows
    noise = camera.noise
    ae = camera.auto_exposure
    auto = not ae.locked

    row_offsets = np.arange(rows) * timing.row_period
    vignette_row_mean = camera._vignette_row_mean

    start_times = np.empty(frame_count)
    settings: List[ExposureSettings] = []
    signal_rows = np.empty((frame_count, rows, 3))
    awb_gains = np.empty((frame_count, 3)) if camera.enable_awb else None
    iso_values = np.empty(frame_count)

    drift_t = 0.0
    for i in range(frame_count):
        if frame_jitter_s > 0:
            drift_t += float(draws.jitter[i])
        t0 = start_time + i * timing.frame_period + drift_t
        applied = ae.settings
        row_starts = t0 + row_offsets
        row_stops = row_starts + applied.exposure_s

        scene_xyz = waveform.mean_xyz(row_starts, row_stops)
        scene_xyz = scene_xyz * camera._scene_gain + camera._scene_ambient
        camera_linear = xyz_to_linear_rgb(scene_xyz) @ camera._response_matrix_t
        gain = (
            camera.radiometric_gain
            * applied.exposure_s
            * (applied.iso / noise.reference_iso)
        )
        rows_signal = np.clip(camera_linear * gain, 0.0, None)

        # Scanline metering basis: the row signal under the mean vignette of
        # its scanline — the exact per-row mean of the pre-mosaic image.
        row_rgb = rows_signal * vignette_row_mean[:, np.newaxis]
        if camera.enable_awb:
            camera._update_awb_rows(row_rgb)
            awb_gains[i] = camera._awb_gains
        if auto:
            metered = row_rgb * camera._awb_gains if camera.enable_awb else row_rgb
            mean_level = float(np.clip(metered, 0.0, 1.0).mean())
            ae.step(mean_level, float(draws.drift[i]))

        start_times[i] = t0
        settings.append(applied)
        signal_rows[i] = rows_signal
        iso_values[i] = applied.iso

    iso_gain = iso_values / noise.reference_iso
    scale = (noise.full_well_electrons / iso_gain).astype(PIXEL_DTYPE)
    inv_scale = (iso_gain / noise.full_well_electrons).astype(PIXEL_DTYPE)
    # The per-frame electron scale is folded into the row signal here: the
    # vignette multiply and the (linear) CFA roundtrip commute with a
    # per-frame scalar, so the develop kernels start directly from
    # photoelectron rows and skip one full-resolution multiply.
    electron_rows = signal_rows.astype(PIXEL_DTYPE)
    electron_rows *= scale[:, np.newaxis, np.newaxis]
    return RecordingPlan(
        frame_count=frame_count,
        start_times=start_times,
        settings=settings,
        electron_rows=electron_rows,
        awb_gains=(
            awb_gains.astype(PIXEL_DTYPE).reshape(frame_count, 1, 1, 3)
            if awb_gains is not None
            else None
        ),
        electron_inv_scale=inv_scale.reshape(frame_count, 1, 1, 1),
        draws=draws,
    )


# -- float32 kernels (shared verbatim by both develop paths) ---------------


def apply_sensor_noise(
    electrons: np.ndarray,
    inv_scale: np.ndarray,
    read_noise_sq: np.float32,
    shot: np.ndarray,
    prnu_gain: Optional[np.ndarray],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused shot/read/PRNU noise: photoelectrons in, linear signal out.

    The Gaussian shot/read approximation uses one fused
    ``sqrt(electrons + read^2)`` standard deviation; ``shot`` holds the
    pre-drawn unit normals, ``prnu_gain`` the camera's fixed pattern.  The
    output is *unclipped* — the pipeline saturates exactly once, inside
    :func:`encode_srgb_bytes`.  ``out`` (the caller's own ``shot`` buffer,
    never a shared plan's) receives the result in place.
    """
    std = electrons + read_noise_sq
    np.sqrt(std, out=std)
    noisy = np.multiply(shot, std, out=out)
    noisy += electrons
    if prnu_gain is not None:
        noisy *= prnu_gain
    noisy *= inv_scale
    return noisy


def encode_srgb_bytes(linear: np.ndarray) -> np.ndarray:
    """Gamma-encode linear float32 and quantize to uint8 in one pass.

    Clips to [0, 1] first — this is the pipeline's single saturation point.
    """
    x = np.clip(linear, 0.0, 1.0)
    srgb = np.power(x, 1.0 / 2.4)
    srgb *= 1.055
    srgb -= 0.055
    np.copyto(srgb, x * 12.92, where=x <= 0.0031308)
    srgb *= 255.0
    np.round(srgb, out=srgb)
    return srgb.astype(np.uint8)


def _form_signal(camera, rec: RecordingPlan, key) -> np.ndarray:
    """Photoelectron image of frame ``key`` (an index or a slice).

    The electron rows under the vignette, through the CFA roundtrip.
    """
    signal = (
        rec.electron_rows[key][..., np.newaxis, :]
        * camera._vignette_f32[..., np.newaxis]
    )
    if camera.enable_bayer:
        signal = mosaic_roundtrip_nd(signal)
    return signal


def _apply_gains(rec: RecordingPlan, signal: np.ndarray, key) -> None:
    """Multiply the row-noise and AWB gains of frame ``key`` in place."""
    row_gain = rec.draws.row_gain
    if row_gain is not None and rec.awb_gains is not None:
        signal *= row_gain[key] * rec.awb_gains[key]
    elif row_gain is not None:
        signal *= row_gain[key]
    elif rec.awb_gains is not None:
        signal *= rec.awb_gains[key]


def _finish_frames(
    rec: RecordingPlan,
    pixels: np.ndarray,
    lo: int,
    hi: int,
    signal: Optional[np.ndarray] = None,
) -> None:
    """Gains and sRGB encode of frames ``[lo, hi)`` into ``pixels``.

    ``signal`` defaults to the draw-ahead buffer, which by then holds the
    frames' noisy signal.
    """
    if signal is None:
        signal = rec.draws.shot[lo:hi]
    _apply_gains(rec, signal, slice(lo, hi))
    pixels[lo:hi] = encode_srgb_bytes(signal)


def develop_frames(camera, rec: RecordingPlan) -> np.ndarray:
    """The batched path: all frames' pixels, ``(F, rows, cols, 3)`` uint8.

    One loop over frame chunks (bounded memory; every kernel is per-frame
    independent, so chunking cannot change a single byte).  Each chunk's
    image is formed, then its shot normals are awaited and the noise is
    applied; a chunk whose row gains are already drawn is finished at once
    — always, for a memoizable plan.  On a :class:`DrawAheadPlan` the noise
    is written into the plan's own buffer, and chunks done before the row
    gains exist are finished afterwards by this thread and the worker
    together.  The worker is joined on every exit, and such a plan
    develops once (a second call raises ``CameraError``).
    """
    draws = rec.draws
    try:
        draws.claim()
        rows, cols = camera.timing.rows, camera.simulated_columns
        chunk = _chunk_frames(rows, cols)
        pixels = np.empty((rec.frame_count, rows, cols, 3), dtype=np.uint8)
        tail: List[Tuple[int, int]] = []
        for lo in range(0, rec.frame_count, chunk):
            hi = min(lo + chunk, rec.frame_count)
            signal = _form_signal(camera, rec, slice(lo, hi))
            shot = draws.shot_frames(lo, hi)
            signal = apply_sensor_noise(
                signal,
                rec.electron_inv_scale[lo:hi],
                camera._read_noise_sq,
                shot,
                camera._prnu_gain,
                out=shot if draws.owns_shot else None,
            )
            if draws.row_gain_drawn:
                _finish_frames(rec, pixels, lo, hi, signal)
            else:
                tail.append((lo, hi))
        if tail:
            draws.share_tail(functools.partial(_finish_frames, rec, pixels), tail)
    finally:
        draws.close()
    return pixels


def develop_frame(camera, rec: RecordingPlan, index: int) -> np.ndarray:
    """The reference path: one frame's pixels via the same kernels.

    Identical arithmetic to :func:`develop_frames` on the matching slice —
    the fast↔reference equivalence gate asserts byte equality.  It reads
    fully drawn plans only (the reference path never draws ahead).
    """
    if rec.draws.owns_shot:
        raise CameraError("develop_frame needs a fully drawn plan")
    signal = apply_sensor_noise(
        _form_signal(camera, rec, index),
        rec.electron_inv_scale[index],
        camera._read_noise_sq,
        rec.draws.shot[index],
        camera._prnu_gain,
    )
    _apply_gains(rec, signal, index)
    return encode_srgb_bytes(signal)

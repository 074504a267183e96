"""Unit tests for frame preprocessing."""

import tracemalloc

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.core.config import SystemConfig
from repro.core.system import make_receiver
from repro.exceptions import DemodulationError
from repro.rx.preprocess import (
    _CHUNK_FRAMES,
    column_color_variance,
    frame_to_scanline_lab,
    frames_to_scanline_lab,
    scanline_chroma,
)


def make_frame(pixels):
    return CapturedFrame(
        index=0,
        pixels=pixels.astype(np.uint8),
        start_time=0.0,
        row_period=1e-5,
        exposure=ExposureSettings(1e-4, 100),
    )


class TestScanlineReduction:
    def test_output_shape(self):
        frame = make_frame(np.full((50, 10, 3), 128))
        assert frame_to_scanline_lab(frame).shape == (50, 3)

    def test_gray_rows_near_neutral(self):
        frame = make_frame(np.full((20, 10, 3), 180))
        lab = frame_to_scanline_lab(frame)
        assert np.all(np.abs(lab[:, 1:]) < 1.0)

    def test_dark_rows_low_lightness(self):
        pixels = np.full((30, 10, 3), 200)
        pixels[10:20] = 5
        lab = frame_to_scanline_lab(make_frame(pixels), smooth_rows=1)
        assert lab[15, 0] < 10
        assert lab[5, 0] > 60

    def test_red_rows_positive_a(self):
        pixels = np.zeros((10, 8, 3))
        pixels[..., 0] = 220
        lab = frame_to_scanline_lab(make_frame(pixels))
        assert np.all(lab[:, 1] > 30)

    def test_smoothing_reduces_row_noise(self):
        rng = np.random.default_rng(0)
        pixels = np.clip(
            128 + rng.normal(0, 30, (200, 1, 3)), 0, 255
        ).repeat(8, axis=1)
        rough = frame_to_scanline_lab(make_frame(pixels), smooth_rows=1)
        smooth = frame_to_scanline_lab(make_frame(pixels), smooth_rows=5)
        assert smooth[:, 1].std() < rough[:, 1].std()


class TestScanlineChroma:
    def test_drops_lightness(self):
        lab = np.array([[50.0, 1.0, 2.0], [60.0, 3.0, 4.0]])
        chroma = scanline_chroma(lab)
        assert chroma.shape == (2, 2)
        assert np.allclose(chroma, [[1, 2], [3, 4]])

    def test_bad_shape(self):
        with pytest.raises(DemodulationError):
            scanline_chroma(np.zeros((5, 2)))


class TestColumnColorVariance:
    def test_lab_below_rgb_under_brightness_gradient(self):
        """Fig 8(b): a brightness ramp inflates RGB variance, not ab variance."""
        ramp = np.linspace(0.3, 1.0, 40)[:, np.newaxis, np.newaxis]
        pixels = (np.array([0.8, 0.2, 0.2]) * ramp * 255).repeat(10, axis=1)
        frame_pixels = pixels.astype(np.uint8)
        rgb_var = column_color_variance(frame_pixels, slice(0, 40), space="rgb")
        lab_var = column_color_variance(frame_pixels, slice(0, 40), space="lab")
        assert lab_var < rgb_var

    def test_invalid_space(self):
        with pytest.raises(DemodulationError):
            column_color_variance(np.zeros((4, 4, 3), dtype=np.uint8), slice(0, 4),
                                  space="hsv")

    def test_empty_slice(self):
        with pytest.raises(DemodulationError):
            column_color_variance(np.zeros((4, 4, 3), dtype=np.uint8), slice(0, 0))


class TestBatchedScanlines:
    """frames_to_scanline_lab is the vectorized receive-side entry point:
    one stacked pass must be bitwise identical to the per-frame loop."""

    @staticmethod
    def _frames(count=5, rows=40, cols=12, seed=3):
        rng = np.random.default_rng(seed)
        return [
            make_frame(rng.integers(0, 256, size=(rows, cols, 3)))
            for _ in range(count)
        ]

    def test_bitwise_identical_to_per_frame(self):
        frames = self._frames()
        batched = frames_to_scanline_lab(frames)
        assert len(batched) == len(frames)
        for frame, scanlines in zip(frames, batched):
            reference = frame_to_scanline_lab(frame)
            assert scanlines.dtype == reference.dtype
            assert np.array_equal(scanlines, reference)

    def test_smoothing_parameter_forwarded(self):
        frames = self._frames(count=3)
        for smooth in (1, 5):
            batched = frames_to_scanline_lab(frames, smooth_rows=smooth)
            for frame, scanlines in zip(frames, batched):
                assert np.array_equal(
                    scanlines, frame_to_scanline_lab(frame, smooth_rows=smooth)
                )

    def test_empty_recording(self):
        assert frames_to_scanline_lab([]) == []

    def test_mismatched_shapes_rejected(self):
        frames = self._frames(count=2) + self._frames(count=1, rows=20)
        with pytest.raises(DemodulationError, match="one shape"):
            frames_to_scanline_lab(frames)

    @pytest.mark.parametrize(
        "count",
        [1, _CHUNK_FRAMES - 1, _CHUNK_FRAMES, _CHUNK_FRAMES + 1,
         2 * _CHUNK_FRAMES + 1],
    )
    @pytest.mark.parametrize("smooth", [1, 3, 5])
    def test_chunk_boundaries_bitwise(self, count, smooth):
        frames = self._frames(count=count, seed=count)
        batched = frames_to_scanline_lab(frames, smooth_rows=smooth)
        assert len(batched) == count
        for frame, scanlines in zip(frames, batched):
            reference = frame_to_scanline_lab(frame, smooth_rows=smooth)
            assert scanlines.dtype == reference.dtype
            assert scanlines.tobytes() == reference.tobytes()

    def test_working_set_bounded_by_a_chunk(self):
        """Peak memory grows with recording length only by the outputs.

        A whole-recording stack and sRGB gather would add the recording's
        pixels several times over (intp indices, float32 linear RGB); chunk
        streaming keeps that to one chunk, so only the ``(rows, 3)`` float64
        scanline arrays accumulate.
        """
        rows, cols, short, long = 3264, 48, 8, 32
        rng = np.random.default_rng(11)
        frames = [
            make_frame(rng.integers(0, 256, size=(rows, cols, 3), dtype=np.uint8))
            for _ in range(long)
        ]

        def peak_bytes(recording):
            tracemalloc.start()
            try:
                frames_to_scanline_lab(recording)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        output_bytes = rows * 3 * np.dtype(np.float64).itemsize
        growth = peak_bytes(frames) - peak_bytes(frames[:short])
        assert growth <= (long - short + _CHUNK_FRAMES) * output_bytes


class TestPreprocessRecording:
    """The receiver's batch preprocess groups frames by shape and streams
    each group through chunks; every entry must equal per-frame conversion."""

    def test_mixed_shape_groups_bitwise(self, tiny_device):
        config = SystemConfig(
            csk_order=8, symbol_rate=1000, design_loss_ratio=0.25,
            illumination_ratio=0.8,
        )
        receiver = make_receiver(config, tiny_device.timing)
        rng = np.random.default_rng(21)
        shapes = [(40, 12, 3), (24, 12, 3), (40, 6, 3)]
        pattern = [0, 1, 0, 0, 2, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 2]
        frames = [
            make_frame(rng.integers(0, 256, size=shapes[group])) for group in pattern
        ]
        results = receiver._preprocess_recording(frames)
        assert len(results) == len(frames)
        for frame, lab in zip(frames, results):
            assert lab is not None
            assert lab.tobytes() == frame_to_scanline_lab(frame).tobytes()

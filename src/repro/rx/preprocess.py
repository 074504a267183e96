"""Frame preprocessing: color-space conversion and dimension reduction.

Paper §7 steps 1-2: convert the received frame from RGB to CIELab (removing
the non-uniform brightness via the lightness channel) and collapse the 2-D
frame to one mean color per scanline to keep per-frame processing cheap on a
phone.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.camera.frame import CapturedFrame
from repro.camera.noise import dequantize_8bit
from repro.color.cielab import xyz_to_lab
from repro.color.illuminants import ILLUMINANT_D65
from repro.color.srgb import SRGB_BYTE_TO_LINEAR, srgb_to_linear
from repro.color.srgb import SRGB_TO_XYZ_MATRIX, linear_rgb_to_xyz
from repro.exceptions import DemodulationError


def _read_only_f32(values: np.ndarray) -> np.ndarray:
    table = np.ascontiguousarray(values, dtype=np.float32)
    table.flags.writeable = False
    return table


#: Float32 fusion of the receive-path color chain.  An 8-bit frame has only
#: 256 distinct channel values, so gamma decode is a table lookup; the
#: XYZ matrix and the white-point division fuse into one matmul
#: (``ratios = linear @ (M.T / white)``), and Lab's channel mixing
#: (``L = 116 fy - 16`` etc.) is itself a matmul plus an offset.  The only
#: per-pixel transcendental left is the CIELab cube root.  Scanline means
#: are a float32 weighted contraction over the column axis; the result
#: matches the reference ``xyz_to_lab(linear_rgb_to_xyz(srgb_to_linear``
#: ``(...)))`` chain to float32 rounding (~1e-6 relative) — far below the
#: ΔE = 2.3 decision scale.
_SRGB_BYTE_TO_LINEAR_F32 = _read_only_f32(SRGB_BYTE_TO_LINEAR)
_RGB_TO_XYZ_RATIOS_F32 = _read_only_f32(
    SRGB_TO_XYZ_MATRIX.T / ILLUMINANT_D65.XYZ[np.newaxis, :]
)
_LAB_BASIS = np.array(
    [[0.0, 500.0, 0.0], [116.0, -500.0, 200.0], [0.0, 0.0, -200.0]]
)
_LAB_BASIS.flags.writeable = False
_LAB_OFFSET = np.array([-16.0, 0.0, 0.0])
_LAB_OFFSET.flags.writeable = False
#: CIELab toe: f(t) = t / (3 δ²) + 4/29 for t <= δ³, δ = 6/29.
_LAB_TOE_THRESHOLD = (6.0 / 29.0) ** 3
_LAB_TOE_SCALE = 1.0 / (3.0 * (6.0 / 29.0) ** 2)
_LAB_TOE_OFFSET = 4.0 / 29.0
#: Frames per chunk of the batched conversion (cache blocking): bounds the
#: working set of :func:`frames_to_scanline_lab` by a chunk, not a recording.
_CHUNK_FRAMES = 4


def _scanlines_from_pixels(pixels: np.ndarray, smooth_rows: int) -> np.ndarray:
    """sRGB bytes ``(frames, rows, cols, 3)`` -> scanline Lab ``(frames, rows, 3)``.

    The per-chunk core of the single-frame and batched entry points: gamma
    decode by byte lookup, one fused RGB->XYZ/white matmul, the Lab cube
    root, one Lab-mixing matmul, column mean, box smooth.  Every step is
    elementwise, a per-row matmul, or a per-frame reduction/convolution, so
    a frame's result does not depend on which chunk it shares.  Callers pass
    at most ``_CHUNK_FRAMES`` frames, which bounds the float32 working set
    (and the intp index temporary of the byte lookup) by a chunk.
    """
    frames, rows, cols = pixels.shape[:3]
    linear = np.take(_SRGB_BYTE_TO_LINEAR_F32, pixels.reshape(-1, 3))
    ratios = linear @ _RGB_TO_XYZ_RATIOS_F32
    f = np.cbrt(ratios)
    toe = ratios <= _LAB_TOE_THRESHOLD
    ratios *= _LAB_TOE_SCALE
    ratios += _LAB_TOE_OFFSET
    np.copyto(f, ratios, where=toe)
    col_weights = np.full(cols, 1.0 / cols, dtype=np.float32)
    f_rows = np.einsum(
        "frck,c->frk", f.reshape(frames, rows, cols, 3), col_weights
    ).astype(np.float64)
    # Lab's channel mixing is linear, so it commutes with the column mean:
    # mix the (rows, 3) means instead of every pixel.
    scanlines = f_rows @ _LAB_BASIS
    scanlines += _LAB_OFFSET
    if smooth_rows > 1:
        kernel = np.ones(smooth_rows) / smooth_rows
        smoothed = np.empty_like(scanlines)
        for index in range(frames):
            for channel in range(3):
                smoothed[index, :, channel] = np.convolve(
                    scanlines[index, :, channel], kernel, mode="same"
                )
        scanlines = smoothed
    return scanlines


def frame_to_scanline_lab(
    frame: CapturedFrame, smooth_rows: int = 3
) -> np.ndarray:
    """Reduce a captured frame to per-scanline CIELab colors.

    Returns ``(rows, 3)`` — the mean (L, a, b) of each scanline.  Conversion
    happens per pixel *before* averaging (as the paper's receiver does), so
    the lightness non-uniformity is removed where it arises rather than
    being smeared into the mean.  A short box filter (``smooth_rows``)
    suppresses scanline-scale pipeline noise; it is narrow relative to the
    10-row minimum band width, so band edges stay sharp enough to segment.
    """
    return _scanlines_from_pixels(frame.pixels[np.newaxis], smooth_rows)[0]


def frames_to_scanline_lab(
    frames: Sequence[CapturedFrame], smooth_rows: int = 3
) -> List[np.ndarray]:
    """Batched :func:`frame_to_scanline_lab` over a same-shape recording.

    Streams the recording through ``_CHUNK_FRAMES``-frame chunks, stacked
    straight from the frame list, instead of a Python loop of per-frame
    passes; returns one ``(rows, 3)`` array per frame, bitwise identical to
    the per-frame results.  The working set is bounded by one chunk, not by
    the recording: only the outputs grow with its length.  All frames must
    share a pixel shape (recordings do — fault injectors preserve shapes and
    only ever drop whole frames).
    """
    if not frames:
        return []
    shape = frames[0].pixels.shape
    for frame in frames:
        if frame.pixels.shape != shape:
            raise DemodulationError(
                f"frames_to_scanline_lab needs one shape, got {shape} "
                f"and {frame.pixels.shape}"
            )
    scanlines: List[np.ndarray] = []
    for lo in range(0, len(frames), _CHUNK_FRAMES):
        chunk = np.stack([frame.pixels for frame in frames[lo : lo + _CHUNK_FRAMES]])
        scanlines.extend(_scanlines_from_pixels(chunk, smooth_rows))
    return scanlines


def scanline_chroma(scanline_lab: np.ndarray) -> np.ndarray:
    """Drop the lightness channel: ``(rows, 3)`` Lab -> ``(rows, 2)`` ab."""
    scanline_lab = np.asarray(scanline_lab, dtype=float)
    if scanline_lab.ndim != 2 or scanline_lab.shape[1] != 3:
        raise DemodulationError(
            f"expected (rows, 3) Lab array, got {scanline_lab.shape}"
        )
    return scanline_lab[:, 1:]


def column_color_variance(
    pixels: np.ndarray, row_slice: slice, space: str = "lab"
) -> float:
    """Variance of per-pixel distance from a band's mean color (Fig 8b).

    Computes, for the pixels of one band (a row range), the variance of the
    Euclidean distance from each pixel's color to the band's mean color —
    in CIELab's ab-plane (``space='lab'``) or raw RGB (``space='rgb'``).
    The paper uses this to show CIELab absorbs brightness non-uniformity.
    """
    pixels = np.asarray(pixels)
    band = dequantize_8bit(pixels[row_slice])
    if band.size == 0:
        raise DemodulationError("row_slice selects an empty band")
    if space == "rgb":
        samples = band.reshape(-1, 3) * 255.0
    elif space == "lab":
        linear = srgb_to_linear(band)
        lab = xyz_to_lab(linear_rgb_to_xyz(linear))
        samples = lab.reshape(-1, 3)[:, 1:]
    else:
        raise DemodulationError(f"space must be 'rgb' or 'lab', got {space!r}")
    mean = samples.mean(axis=0)
    distances = np.sqrt(np.sum((samples - mean) ** 2, axis=1))
    return float(distances.var())

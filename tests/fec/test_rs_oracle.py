"""Differential test: the table-driven RS decoder against the reference.

Every code the link can deploy — each ``SystemConfig.rs_params()`` over
CSK 4-32 x 1-4 kHz on both phone presets — plus the classic (255, 223) is
driven with error and erasure loads from zero to beyond capacity.  The two
decoders must agree exactly: the same payload (miscorrections included) or
the same :class:`UncorrectableBlockError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.camera.devices import iphone_5s, nexus_5
from repro.core.config import SystemConfig
from repro.exceptions import UncorrectableBlockError
from repro.fec.reed_solomon import ReedSolomonCodec
from tests.fec.reference_rs import ReferenceRSDecoder


def _deployed_codes():
    codes = {(255, 223)}
    for device in (nexus_5(), iphone_5s()):
        for order in (4, 8, 16, 32):
            for rate in (1000.0, 2000.0, 3000.0, 4000.0):
                params = SystemConfig(
                    csk_order=order,
                    symbol_rate=rate,
                    design_loss_ratio=device.timing.gap_fraction,
                    frame_rate=device.timing.frame_rate,
                ).rs_params()
                codes.add((params.n, params.k))
    return sorted(codes)


CODES = _deployed_codes()


def _outcome(decode, received, erasures):
    try:
        return "decoded", decode(received, erasures)
    except UncorrectableBlockError as exc:
        return "uncorrectable", str(exc)


def _assert_decoders_agree(n, k, received, erasures):
    table = ReedSolomonCodec(n, k).decode
    reference = ReferenceRSDecoder(n, k).decode
    assert _outcome(table, received, erasures) == _outcome(
        reference, received, erasures
    )


def _corrupt(codeword, erasures, errors, error_values):
    """Zero the erased symbols (a gap fill) and XOR the error values in."""
    word = bytearray(codeword)
    for pos in erasures:
        word[pos] = 0
    for pos, value in zip(errors, error_values):
        word[pos] ^= value
    return bytes(word)


@st.composite
def errata_cases(draw):
    n, k = draw(st.sampled_from(CODES))
    parity = n - k
    data = draw(st.binary(min_size=k, max_size=k))
    num_erasures = draw(st.integers(0, min(n, parity + 2)))
    num_errors = draw(st.integers(0, min(n - num_erasures, parity // 2 + 3)))
    positions = draw(
        st.lists(
            st.integers(0, n - 1),
            min_size=num_erasures + num_errors,
            max_size=num_erasures + num_errors,
            unique=True,
        )
    )
    error_values = draw(
        st.lists(st.integers(1, 255), min_size=num_errors, max_size=num_errors)
    )
    erasures, errors = positions[:num_erasures], positions[num_erasures:]
    codeword = ReedSolomonCodec(n, k).encode(data)
    return n, k, _corrupt(codeword, erasures, errors, error_values), erasures


class TestDifferentialOracle:
    def test_codes_cover_the_deployed_grid(self):
        assert (255, 223) in CODES
        assert len(CODES) > 20

    @settings(max_examples=400, deadline=None)
    @given(errata_cases())
    def test_agrees_with_reference(self, case):
        _assert_decoders_agree(*case)

    @pytest.mark.parametrize("n,k", CODES)
    def test_agrees_across_loads_for_every_code(self, n, k):
        """Seeded sweep so every code sees correctable, boundary and
        over-capacity loads, whatever Hypothesis happens to draw."""
        rng = np.random.default_rng(n * 1000 + k)
        codec = ReedSolomonCodec(n, k)
        parity = n - k
        outcomes = set()
        for _ in range(24):
            num_erasures = int(rng.integers(0, parity + 1))
            max_errors = min(n - num_erasures, (parity - num_erasures) // 2 + 3)
            num_errors = int(rng.integers(0, max_errors + 1))
            positions = rng.choice(n, num_erasures + num_errors, replace=False)
            erasures = positions[:num_erasures].tolist()
            errors = positions[num_erasures:].tolist()
            data = bytes(rng.integers(0, 256, k).tolist())
            received = _corrupt(
                codec.encode(data), erasures, errors,
                rng.integers(1, 256, num_errors).tolist(),
            )
            _assert_decoders_agree(n, k, received, erasures)
            outcomes.add(_outcome(codec.decode, received, erasures)[0])
        assert "decoded" in outcomes

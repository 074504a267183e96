"""Unit and property tests for the Reed-Solomon codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ReedSolomonError, UncorrectableBlockError
from repro.fec.reed_solomon import ReedSolomonCodec, rs_params_for_loss


@pytest.fixture(scope="module")
def codec():
    return ReedSolomonCodec(60, 40)


class TestConstruction:
    @pytest.mark.parametrize("n,k", [(0, 0), (10, 10), (10, 12), (256, 200), (5, 0)])
    def test_invalid_dimensions(self, n, k):
        with pytest.raises(ReedSolomonError):
            ReedSolomonCodec(n, k)

    def test_properties(self, codec):
        assert codec.num_parity == 20
        assert codec.t == 10

    def test_generator_has_consecutive_roots(self, codec):
        from repro.fec.gf256 import GF256

        for i in range(codec.num_parity):
            assert codec._generator.evaluate(GF256.exp(i)) == 0


class TestEncode:
    def test_systematic_prefix(self, codec):
        data = bytes(range(40))
        assert codec.encode(data)[:40] == data

    def test_codeword_length(self, codec):
        assert len(codec.encode(bytes(40))) == 60

    def test_wrong_input_length(self, codec):
        with pytest.raises(ReedSolomonError):
            codec.encode(bytes(39))

    def test_valid_codeword_has_zero_syndromes(self, codec):
        word = codec.encode(bytes(range(40)))
        assert all(s == 0 for s in codec._syndromes(list(word)))

    def test_encode_blocks_padding(self, codec):
        blocks = codec.encode_blocks(bytes(50))
        assert len(blocks) == 2
        assert all(len(b) == 60 for b in blocks)


class TestDecodeErrors:
    def test_error_free_passthrough(self, codec):
        data = bytes(range(40))
        assert codec.decode(codec.encode(data)) == data

    @pytest.mark.parametrize("num_errors", [1, 5, 10])
    def test_corrects_up_to_t_errors(self, codec, num_errors):
        rng = np.random.default_rng(num_errors)
        data = bytes(rng.integers(0, 256, 40, dtype=np.uint8))
        word = bytearray(codec.encode(data))
        for pos in rng.choice(60, size=num_errors, replace=False):
            word[pos] ^= int(rng.integers(1, 256))
        assert codec.decode(bytes(word)) == data

    def test_beyond_capacity_detected(self, codec):
        rng = np.random.default_rng(99)
        data = bytes(rng.integers(0, 256, 40, dtype=np.uint8))
        word = bytearray(codec.encode(data))
        for pos in rng.choice(60, size=25, replace=False):
            word[pos] ^= int(rng.integers(1, 256))
        with pytest.raises(UncorrectableBlockError):
            codec.decode(bytes(word))

    def test_wrong_length_rejected(self, codec):
        with pytest.raises(ReedSolomonError):
            codec.decode(bytes(59))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_error_patterns_property(self, seed):
        codec = ReedSolomonCodec(30, 20)
        rng = np.random.default_rng(seed)
        data = bytes(rng.integers(0, 256, 20, dtype=np.uint8))
        word = bytearray(codec.encode(data))
        num_errors = int(rng.integers(0, 6))
        for pos in rng.choice(30, size=num_errors, replace=False):
            word[pos] ^= int(rng.integers(1, 256))
        assert codec.decode(bytes(word)) == data


class TestDecodeErasures:
    def test_full_parity_of_erasures(self, codec):
        rng = np.random.default_rng(5)
        data = bytes(rng.integers(0, 256, 40, dtype=np.uint8))
        word = bytearray(codec.encode(data))
        positions = sorted(rng.choice(60, size=20, replace=False).tolist())
        for pos in positions:
            word[pos] = 0
        assert codec.decode(bytes(word), erasure_positions=positions) == data

    def test_burst_erasure(self, codec):
        # The inter-frame gap scenario: a contiguous run of lost symbols.
        data = bytes(range(40))
        word = bytearray(codec.encode(data))
        burst = list(range(25, 43))
        for pos in burst:
            word[pos] = 0
        assert codec.decode(bytes(word), erasure_positions=burst) == data

    def test_mixed_errors_and_erasures(self, codec):
        rng = np.random.default_rng(6)
        data = bytes(rng.integers(0, 256, 40, dtype=np.uint8))
        word = bytearray(codec.encode(data))
        erasures = [3, 4, 5, 6, 7, 8]  # f = 6
        for pos in erasures:
            word[pos] = 0
        for pos in (20, 30, 40, 50, 55, 59):  # e = 6, 2e + f = 18 <= 20
            word[pos] ^= 0x5A
        assert codec.decode(bytes(word), erasure_positions=erasures) == data

    def test_too_many_erasures(self, codec):
        word = codec.encode(bytes(40))
        with pytest.raises(UncorrectableBlockError):
            codec.decode(word, erasure_positions=list(range(21)))

    def test_erasure_position_out_of_range(self, codec):
        word = codec.encode(bytes(40))
        with pytest.raises(ReedSolomonError):
            codec.decode(word, erasure_positions=[60])

    def test_empty_numpy_erasures(self, codec):
        data = bytes(range(40))
        word = bytearray(codec.encode(data))
        word[7] ^= 0x33
        erasures = np.array([], dtype=np.int64)
        assert codec.decode(bytes(word), erasure_positions=erasures) == data

    def test_numpy_array_erasures(self, codec):
        data = bytes(range(40))
        word = bytearray(codec.encode(data))
        erasures = np.array([2, 9, 31, 47])
        for pos in erasures:
            word[pos] = 0
        assert codec.decode(bytes(word), erasure_positions=erasures) == data

    def test_numpy_integer_positions(self, codec):
        data = bytes(range(40))
        word = bytearray(codec.encode(data))
        erasures = [np.int64(5), np.int64(17), np.int32(5)]
        for pos in erasures:
            word[pos] = 0
        assert codec.decode(bytes(word), erasure_positions=erasures) == data

    @pytest.mark.parametrize("position", [1.5, 2.0, "3", np.float64(4.0), None])
    def test_non_integral_erasure_position(self, codec, position):
        word = codec.encode(bytes(40))
        with pytest.raises(ReedSolomonError, match="not an integer"):
            codec.decode(word, erasure_positions=[0, position])

    def test_received_symbols_validated(self, codec):
        with pytest.raises(ReedSolomonError, match="bytes in"):
            codec.decode([0] * 59 + [256])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_capacity_boundary_property(self, seed):
        # Any mix with 2e + f <= n - k must decode.
        codec = ReedSolomonCodec(40, 24)
        rng = np.random.default_rng(seed)
        data = bytes(rng.integers(0, 256, 24, dtype=np.uint8))
        word = bytearray(codec.encode(data))
        f = int(rng.integers(0, 17))
        e = int(rng.integers(0, (16 - f) // 2 + 1))
        positions = rng.choice(40, size=f + e, replace=False)
        erasures = positions[:f].tolist()
        for pos in erasures:
            word[pos] = 0
        for pos in positions[f:]:
            word[pos] ^= int(rng.integers(1, 256))
        assert codec.decode(bytes(word), erasure_positions=erasures) == data


class TestDecodeBlocks:
    def test_roundtrip(self, codec):
        data = bytes(range(120))
        blocks = codec.encode_blocks(data)
        assert codec.decode_blocks(blocks) == data

    def test_numpy_erasure_map(self, codec):
        data = bytes(range(80))
        blocks = [bytearray(block) for block in codec.encode_blocks(data)]
        erasure_map = np.array([[1, 2, 3], [40, 50, 59]])
        for block, erasures in zip(blocks, erasure_map):
            for pos in erasures:
                block[pos] = 0
        assert codec.decode_blocks(blocks, erasure_map=erasure_map) == data

    def test_erasure_map_alignment(self, codec):
        blocks = codec.encode_blocks(bytes(80))
        with pytest.raises(ReedSolomonError):
            codec.decode_blocks(blocks, erasure_map=[[]])


class TestRsParamsForLoss:
    def test_paper_example(self):
        # §5 worked example: FS = 150 received + LS = 30 lost per frame
        # period (S/F = 180), 8-CSK, eta = 4/5 -> 36-byte message.
        params = rs_params_for_loss(
            symbol_rate=180 * 30,
            frame_rate=30,
            loss_ratio=1 / 6,
            bits_per_symbol=3,
            illumination_ratio=0.8,
        )
        assert params.k == 36
        assert params.n == 54

    def test_code_rate_shrinks_with_loss(self):
        low = rs_params_for_loss(3000, 30, 0.1, 4, 0.8)
        high = rs_params_for_loss(3000, 30, 0.4, 4, 0.8)
        assert high.code_rate < low.code_rate

    def test_parity_even(self):
        for loss in (0.05, 0.15, 0.25, 0.35):
            params = rs_params_for_loss(2000, 30, loss, 3, 0.8)
            assert params.parity % 2 == 0

    def test_invalid_loss_ratio(self):
        with pytest.raises(ReedSolomonError):
            rs_params_for_loss(2000, 30, 0.6, 3, 0.8)

    def test_invalid_rates(self):
        with pytest.raises(ReedSolomonError):
            rs_params_for_loss(0, 30, 0.2, 3, 0.8)

    def test_zero_loss_minimal_parity(self):
        params = rs_params_for_loss(2000, 30, 0.0, 3, 0.8)
        assert params.parity >= 2

    def test_erasure_capacity_covers_gap(self):
        # The dimensioning must let erasure decoding absorb a gap's worth
        # of lost data bytes: parity >= bytes lost per gap.
        for rate in (1000, 2000, 3000, 4000):
            for loss in (0.23, 0.37):
                params = rs_params_for_loss(rate, 30, loss, 4, 0.8)
                bytes_lost = 0.8 * 4 * loss * rate / 30 / 8
                assert params.parity >= int(bytes_lost)

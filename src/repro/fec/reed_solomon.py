"""Systematic Reed-Solomon codec over GF(2^8) with errors-and-erasures decoding.

The codec operates on byte symbols.  ``ReedSolomonCodec(n, k)`` produces
codewords of ``n`` bytes carrying ``k`` data bytes and ``2t = n - k`` parity
bytes; it corrects up to ``t`` symbol errors, or any mix of ``e`` errors and
``f`` erasures with ``2e + f <= n - k``.  Shortened codes (n < 255) are
supported by the standard zero-prefix construction.

The decode path is the classical chain: syndromes -> erasure locator ->
Berlekamp-Massey (errata-aware) -> Chien search -> Forney magnitudes, run on
plain int lists through the flat GF(2^8) log/antilog tables (inputs are
validated once, at :meth:`ReedSolomonCodec.decode`), with numpy table
gathers for the syndromes and for evaluating polynomials at every position.

ColorBars dimensions the code from the inter-frame loss ratio (paper §5);
:func:`rs_params_for_loss` implements that sizing rule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ReedSolomonError, UncorrectableBlockError
from repro.fec.gf256 import _EXP, _LOG, GF256
from repro.fec.polynomial import GFPolynomial

#: Log/antilog tables as numpy arrays for the vectorized syndrome pass,
#: Chien search and Forney magnitudes (``_LOG_TABLE[0]`` is a placeholder).
_EXP_TABLE = np.array(_EXP[: GF256.order], dtype=np.uint8)
_EXP_TABLE.flags.writeable = False
_LOG_TABLE = np.array(_LOG, dtype=np.int64)
_LOG_TABLE.flags.writeable = False


@dataclass(frozen=True)
class RSParams:
    """Reed-Solomon code dimensions and the channel assumptions behind them.

    Produced by :func:`rs_params_for_loss`; consumed by the transmitter to
    build a :class:`ReedSolomonCodec` matched to the receiver's inter-frame
    gap.
    """

    n: int
    k: int
    symbols_per_frame: int
    symbols_lost_per_gap: int

    @property
    def parity(self) -> int:
        return self.n - self.k

    @property
    def correctable_errors(self) -> int:
        return (self.n - self.k) // 2

    @property
    def code_rate(self) -> float:
        return self.k / self.n


def rs_params_for_loss(
    symbol_rate: float,
    frame_rate: float,
    loss_ratio: float,
    bits_per_symbol: int,
    illumination_ratio: float,
) -> RSParams:
    """Dimension an RS code per ColorBars §5.

    With symbol rate ``S``, frame rate ``F`` and inter-frame loss ratio ``l``:

    * symbols received per frame  ``FS = (1 - l) * S / F``
    * symbols lost per gap        ``LS = l * S / F``
    * codeword bits  ``n = eta * C * (FS + LS)``
    * data bits      ``k = eta * C * (FS - LS)``

    where ``eta`` is the illumination ratio (useful-data share of symbols) and
    ``C`` the bits per CSK symbol.  Bits are converted to whole bytes, with
    parity rounded up so the byte-level code still covers the gap.

    The paper's worked example (FS = 150, loss 1/6, 8-CSK, eta = 4/5) yields a
    36-byte message, which this function reproduces.
    """
    if symbol_rate <= 0 or frame_rate <= 0:
        raise ReedSolomonError("symbol_rate and frame_rate must be positive")
    if not 0 <= loss_ratio < 0.5:
        raise ReedSolomonError(
            f"loss_ratio must be in [0, 0.5) for a decodable RS sizing, "
            f"got {loss_ratio}"
        )
    if bits_per_symbol <= 0:
        raise ReedSolomonError("bits_per_symbol must be positive")
    if not 0 < illumination_ratio <= 1:
        raise ReedSolomonError("illumination_ratio must be in (0, 1]")

    symbols_per_period = symbol_rate / frame_rate
    fs = (1.0 - loss_ratio) * symbols_per_period
    ls = loss_ratio * symbols_per_period

    n_bits = illumination_ratio * bits_per_symbol * (fs + ls)
    k_bits = illumination_ratio * bits_per_symbol * (fs - ls)

    n_bytes = max(int(n_bits // 8), 3)
    k_bytes = max(int(k_bits // 8), 1)
    # Keep parity even (2t) and at least 2.
    parity = n_bytes - k_bytes
    if parity < 2:
        parity = 2
    if parity % 2:
        parity += 1
    n_bytes = k_bytes + parity
    if n_bytes > 255:
        # Shorten by scaling k down; the symbol alphabet caps n at 255.
        overshoot = n_bytes - 255
        k_bytes = max(k_bytes - overshoot, 1)
        n_bytes = k_bytes + parity
        if n_bytes > 255:
            raise ReedSolomonError(
                f"loss ratio {loss_ratio} at rate {symbol_rate} needs parity "
                f"{parity} > field limit"
            )
    return RSParams(
        n=n_bytes,
        k=k_bytes,
        symbols_per_frame=int(round(fs)),
        symbols_lost_per_gap=int(round(ls)),
    )


class ReedSolomonCodec:
    """Systematic RS(n, k) encoder/decoder over GF(2^8).

    >>> codec = ReedSolomonCodec(255, 223)
    >>> word = codec.encode(bytes(range(223)))
    >>> codec.decode(word) == bytes(range(223))
    True
    """

    #: First consecutive root exponent of the generator polynomial.
    FIRST_ROOT = 0

    def __init__(self, n: int, k: int) -> None:
        if not 0 < k < n <= 255:
            raise ReedSolomonError(
                f"invalid RS dimensions: need 0 < k < n <= 255, got n={n}, k={k}"
            )
        self.n = n
        self.k = k
        self.num_parity = n - k
        self.t = self.num_parity // 2
        self._generator = self._build_generator(self.num_parity)

    @staticmethod
    def _build_generator(num_parity: int) -> GFPolynomial:
        gen = GFPolynomial.one()
        for i in range(num_parity):
            root = GF256.exp(ReedSolomonCodec.FIRST_ROOT + i)
            gen = gen * GFPolynomial([1, root])
        return gen

    # -- encoding ----------------------------------------------------------

    def encode(self, data: bytes) -> bytes:
        """Append ``n - k`` parity bytes to exactly ``k`` data bytes."""
        if len(data) != self.k:
            raise ReedSolomonError(
                f"encode expects exactly k={self.k} bytes, got {len(data)}"
            )
        message = GFPolynomial(list(data) or [0])
        shifted = message.shift(self.num_parity)
        remainder = shifted % self._generator
        parity = list(remainder.coeffs)
        parity = [0] * (self.num_parity - len(parity)) + parity
        return bytes(data) + bytes(parity)

    def encode_blocks(self, data: bytes, pad: int = 0) -> List[bytes]:
        """Split arbitrary-length data into k-byte blocks and encode each.

        The final block is padded with ``pad`` bytes; callers carry the true
        length out of band (ColorBars puts it in the packet header).
        """
        blocks: List[bytes] = []
        for offset in range(0, max(len(data), 1), self.k):
            chunk = data[offset : offset + self.k]
            if len(chunk) < self.k:
                chunk = chunk + bytes([pad]) * (self.k - len(chunk))
            blocks.append(self.encode(chunk))
        return blocks

    # -- decoding ----------------------------------------------------------

    def decode(
        self,
        received: bytes,
        erasure_positions: Optional[Iterable[int]] = None,
    ) -> bytes:
        """Decode one codeword, correcting errors and the given erasures.

        ``erasure_positions`` are indices into ``received`` whose values are
        known to be unreliable (e.g. symbols lost in the inter-frame gap and
        filled with zeros); any iterable of integers works, numpy arrays
        included.  Raises :class:`UncorrectableBlockError` when the errata
        exceed the code's capability.
        """
        if len(received) != self.n:
            raise ReedSolomonError(
                f"decode expects exactly n={self.n} bytes, got {len(received)}"
            )
        try:
            codeword = list(bytes(received))
        except (TypeError, ValueError) as exc:
            raise ReedSolomonError(
                f"received symbols must be bytes in [0, 255]: {exc}"
            ) from exc
        erasures = sorted(
            {self._erasure_position(pos) for pos in erasure_positions}
            if erasure_positions is not None
            else ()
        )
        if len(erasures) > self.num_parity:
            raise UncorrectableBlockError(
                f"{len(erasures)} erasures exceed parity budget {self.num_parity}"
            )

        syndromes = self._syndromes(codeword)
        if not any(syndromes):
            return bytes(codeword[: self.k])

        corrected = self._correct(codeword, syndromes, erasures)
        return bytes(corrected[: self.k])

    def decode_blocks(
        self,
        blocks: Sequence[bytes],
        erasure_map: Optional[Sequence[Iterable[int]]] = None,
    ) -> bytes:
        """Decode a sequence of codewords and concatenate the payloads."""
        if erasure_map is not None and len(erasure_map) != len(blocks):
            raise ReedSolomonError(
                "erasure_map must align one entry per block "
                f"({len(erasure_map)} != {len(blocks)})"
            )
        out = bytearray()
        for index, block in enumerate(blocks):
            erasures = erasure_map[index] if erasure_map is not None else None
            out.extend(self.decode(bytes(block), erasures))
        return bytes(out)

    # -- decoder internals ---------------------------------------------------
    #
    # Everything below runs on validated plain ints: codeword symbols are
    # bytes and positions are checked by decode(), so field products go
    # straight through the flat log/antilog tables of repro.fec.gf256
    # (``_EXP`` is doubled, so ``_EXP[log a + log b]`` needs no modulo).
    # Polynomials are int lists indexed by power (``poly[i]`` multiplies
    # ``x^i``).  Positions index the codeword from its start; the location
    # exponent counts from its end (degree n-1 is position 0), so position
    # ``p`` has locator ``X = alpha^(n-1-p)``.

    def _erasure_position(self, pos: object) -> int:
        try:
            position = operator.index(pos)
        except TypeError:
            raise ReedSolomonError(
                f"erasure position {pos!r} is not an integer"
            ) from None
        if not 0 <= position < self.n:
            raise ReedSolomonError(
                f"erasure position {position} outside codeword of length {self.n}"
            )
        return int(position)

    def _syndromes(self, codeword: List[int]) -> List[int]:
        # S_i = C(alpha^(FIRST_ROOT+i)); the codeword lists its coefficients
        # highest degree first.
        roots = np.arange(self.FIRST_ROOT, self.FIRST_ROOT + self.num_parity)
        return _evaluate_at_powers(codeword[::-1], roots).tolist()

    def _erasure_locator(self, erasures: Sequence[int]) -> List[int]:
        """Gamma(x) = prod over erasures of (1 + X_j x)."""
        locator = [1]
        for pos in erasures:
            x_log = self.n - 1 - pos
            shifted = [0] + [
                _EXP[_LOG[c] + x_log] if c else 0 for c in locator
            ]
            locator.append(0)
            locator = [a ^ b for a, b in zip(locator, shifted)]
        return locator

    def _forney_syndromes(
        self, syndromes: List[int], erasure_locator: List[int]
    ) -> List[int]:
        """Modified syndromes that see only the *errors*, not the erasures.

        With erasure locator Gamma and syndrome polynomial S, the product
        ``Xi = Gamma * S mod x^2t`` has coefficients ``Xi_f .. Xi_{2t-1}``
        forming a syndrome sequence for the unknown error positions alone.
        """
        num_erasures = len(erasure_locator) - 1
        xi = _mul_truncated(erasure_locator, syndromes, self.num_parity)
        return xi[num_erasures:]

    @staticmethod
    def _berlekamp_massey(sequence: List[int]) -> Tuple[List[int], int]:
        """Textbook Berlekamp-Massey: shortest LFSR generating ``sequence``.

        Returns the connection polynomial C(x) = 1 + C_1 x + ... (trailing
        zero coefficients possible) and its LFSR length L.
        """
        c = [1]
        b_poly = [1]
        length = 0
        m = 1
        b_log = 0
        for n, s_n in enumerate(sequence):
            discrepancy = s_n
            for i in range(1, min(length, len(c) - 1) + 1):
                c_i = c[i]
                s_i = sequence[n - i]
                if c_i and s_i:
                    discrepancy ^= _EXP[_LOG[c_i] + _LOG[s_i]]
            if discrepancy == 0:
                m += 1
                continue
            # c(x) - (d / b) x^m B(x)
            scale_log = (_LOG[discrepancy] - b_log) % GF256.order
            updated = c + [0] * (len(b_poly) + m - len(c))
            for j, b_j in enumerate(b_poly):
                if b_j:
                    updated[j + m] ^= _EXP[_LOG[b_j] + scale_log]
            if 2 * length <= n:
                b_poly = c
                length = n + 1 - length
                b_log = _LOG[discrepancy]
                m = 1
            else:
                m += 1
            c = updated
        return c, length

    def _chien_search(self, locator: List[int]) -> List[int]:
        """Return errata positions (indices into the codeword)."""
        # Position p is a root when locator(X_p^-1) = 0, X_p^-1 = alpha^(p-n+1).
        values = _evaluate_at_powers(locator, np.arange(self.n) - (self.n - 1))
        positions = np.flatnonzero(values == 0).tolist()
        degree = _degree(locator)
        if len(positions) != degree:
            raise UncorrectableBlockError(
                f"Chien search found {len(positions)} roots for a locator of "
                f"degree {degree}; block is uncorrectable"
            )
        return positions

    def _correct(
        self,
        codeword: List[int],
        syndromes: List[int],
        erasures: Sequence[int],
    ) -> List[int]:
        erasure_locator = self._erasure_locator(erasures)
        error_syndromes = self._forney_syndromes(syndromes, erasure_locator)
        error_locator, lfsr_length = self._berlekamp_massey(error_syndromes)
        if lfsr_length > (self.num_parity - len(erasures)) // 2:
            raise UncorrectableBlockError(
                f"{lfsr_length} errors plus {len(erasures)} erasures exceed the "
                f"capability of parity {self.num_parity}"
            )
        locator = _mul_truncated(
            error_locator, erasure_locator, len(error_locator) + len(erasures)
        )
        positions = self._chien_search(locator)

        # Forney with first root b = 0: the error magnitude at location X_i is
        # X_i^(1-b) * Omega(X_i^-1) / Lambda'(X_i^-1) = X_i * Omega / Lambda'.
        # The formal derivative keeps the odd-power terms (characteristic 2).
        omega = _mul_truncated(syndromes, locator, self.num_parity)
        derivative = [c if power % 2 else 0 for power, c in enumerate(locator)][1:]

        inverse_logs = np.asarray(positions, dtype=np.int64) - (self.n - 1)
        denominators = _evaluate_at_powers(derivative, inverse_logs)
        if not denominators.all():
            raise UncorrectableBlockError(
                "Forney denominator vanished; block is uncorrectable"
            )
        numerators = _evaluate_at_powers(omega, inverse_logs)
        magnitudes = np.where(
            numerators != 0,
            _EXP_TABLE[
                (_LOG_TABLE[numerators] - _LOG_TABLE[denominators] - inverse_logs)
                % GF256.order
            ],
            0,
        )
        for position, magnitude in zip(positions, magnitudes.tolist()):
            codeword[position] ^= magnitude

        if any(self._syndromes(codeword)):
            raise UncorrectableBlockError(
                "residual syndromes after correction; block is uncorrectable"
            )
        return codeword


def _degree(poly: List[int]) -> int:
    """Degree of an index-by-power int polynomial (0 for constants)."""
    for power in range(len(poly) - 1, 0, -1):
        if poly[power]:
            return power
    return 0


def _mul_truncated(a: List[int], b: List[int], terms: int) -> List[int]:
    """The first ``terms`` coefficients of ``a * b`` (``a * b mod x^terms``)."""
    product = [0] * terms
    b_terms = [(j, _LOG[b_j]) for j, b_j in enumerate(b[:terms]) if b_j]
    for i, a_i in enumerate(a[:terms]):
        if not a_i:
            continue
        a_log = _LOG[a_i]
        for j, b_log in b_terms:
            if i + j >= terms:
                break
            product[i + j] ^= _EXP[a_log + b_log]
    return product


def _evaluate_at_powers(poly: List[int], exponents: np.ndarray) -> np.ndarray:
    """``poly(alpha^e)`` for every ``e`` in ``exponents`` (negative allowed).

    Term ``c_p x^p`` at ``alpha^e`` is ``exp(log c_p + e * p)`` and field
    addition is XOR, so one (len(exponents), nonzero-terms) table gather,
    XOR-reduced per point, evaluates every point at once.
    """
    coeffs = np.asarray(poly, dtype=np.int64)
    powers = np.flatnonzero(coeffs)
    logs = _LOG_TABLE[coeffs[powers]]
    index = logs[np.newaxis, :] + exponents[:, np.newaxis] * powers[np.newaxis, :]
    return np.bitwise_xor.reduce(_EXP_TABLE[index % GF256.order], axis=1)

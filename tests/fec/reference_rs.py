"""Reference Reed-Solomon errata decoder built on ``GFPolynomial``.

A straight transcription of the textbook chain — erasure locator, Forney
syndromes, Berlekamp-Massey, Chien search, Forney magnitudes — through the
validated public field and polynomial API, one ``GF256.mul`` at a time.  It
is slow and obviously correct, which makes it the differential oracle for
the table-driven decoder in :mod:`repro.fec.reed_solomon`: both must return
the same payload (miscorrections included) or raise the same
:class:`UncorrectableBlockError` on every input.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ReedSolomonError, UncorrectableBlockError
from repro.fec.gf256 import GF256
from repro.fec.polynomial import GFPolynomial

#: First consecutive root exponent of the generator (as in the codec).
FIRST_ROOT = 0


class ReferenceRSDecoder:
    """Errors-and-erasures decoder for systematic RS(n, k) codewords."""

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k
        self.num_parity = n - k

    def decode(
        self, received: bytes, erasure_positions: Optional[Iterable[int]] = None
    ) -> bytes:
        if len(received) != self.n:
            raise ReedSolomonError(
                f"decode expects exactly n={self.n} bytes, got {len(received)}"
            )
        erasures = sorted(
            {int(pos) for pos in erasure_positions}
            if erasure_positions is not None
            else ()
        )
        for pos in erasures:
            if not 0 <= pos < self.n:
                raise ReedSolomonError(
                    f"erasure position {pos} outside codeword of length {self.n}"
                )
        if len(erasures) > self.num_parity:
            raise UncorrectableBlockError(
                f"{len(erasures)} erasures exceed parity budget {self.num_parity}"
            )
        codeword = list(received)
        syndromes = self._syndromes(codeword)
        if all(s == 0 for s in syndromes):
            return bytes(codeword[: self.k])
        return bytes(self._correct(codeword, syndromes, erasures)[: self.k])

    def _syndromes(self, codeword: List[int]) -> List[int]:
        poly = GFPolynomial(codeword)
        return [
            poly.evaluate(GF256.exp(FIRST_ROOT + i)) for i in range(self.num_parity)
        ]

    def _erasure_locator(self, erasures: Sequence[int]) -> GFPolynomial:
        locator = GFPolynomial.one()
        for pos in erasures:
            exponent = self.n - 1 - pos
            locator = locator * GFPolynomial([GF256.exp(exponent), 1])
        return locator

    def _forney_syndromes(
        self, syndromes: List[int], erasure_locator: GFPolynomial, num_erasures: int
    ) -> List[int]:
        syndrome_poly = GFPolynomial(list(reversed(syndromes)) or [0])
        xi = (erasure_locator * syndrome_poly) % GFPolynomial.monomial(
            1, self.num_parity
        )
        return [xi.coefficient(j) for j in range(num_erasures, self.num_parity)]

    @staticmethod
    def _berlekamp_massey(sequence: List[int]) -> Tuple[GFPolynomial, int]:
        c = GFPolynomial.one()
        b_poly = GFPolynomial.one()
        length = 0
        m = 1
        b = 1
        for n, s_n in enumerate(sequence):
            discrepancy = s_n
            for i in range(1, length + 1):
                discrepancy ^= GF256.mul(c.coefficient(i), sequence[n - i])
            if discrepancy == 0:
                m += 1
            elif 2 * length <= n:
                previous_c = c
                c = c + b_poly.scale(GF256.div(discrepancy, b)).shift(m)
                length = n + 1 - length
                b_poly = previous_c
                b = discrepancy
                m = 1
            else:
                c = c + b_poly.scale(GF256.div(discrepancy, b)).shift(m)
                m += 1
        return c, length

    def _chien_search(self, locator: GFPolynomial) -> List[int]:
        positions: List[int] = []
        for position in range(self.n):
            exponent = self.n - 1 - position
            value = locator.evaluate(GF256.inverse(GF256.exp(exponent)))
            if value == 0:
                positions.append(position)
        if len(positions) != locator.degree:
            raise UncorrectableBlockError(
                f"Chien search found {len(positions)} roots for a locator of "
                f"degree {locator.degree}; block is uncorrectable"
            )
        return positions

    def _correct(
        self, codeword: List[int], syndromes: List[int], erasures: Sequence[int]
    ) -> List[int]:
        erasure_locator = self._erasure_locator(erasures)
        error_syndromes = self._forney_syndromes(
            syndromes, erasure_locator, len(erasures)
        )
        error_locator, lfsr_length = self._berlekamp_massey(error_syndromes)
        if lfsr_length > (self.num_parity - len(erasures)) // 2:
            raise UncorrectableBlockError(
                f"{lfsr_length} errors plus {len(erasures)} erasures exceed the "
                f"capability of parity {self.num_parity}"
            )
        locator = error_locator * erasure_locator
        positions = self._chien_search(locator)

        syndrome_poly = GFPolynomial(list(reversed(syndromes)) or [0])
        omega = (syndrome_poly * locator) % GFPolynomial.monomial(1, self.num_parity)
        derivative = locator.derivative()

        for position in positions:
            x_i = GF256.exp(self.n - 1 - position)
            x_inverse = GF256.inverse(x_i)
            denominator = derivative.evaluate(x_inverse)
            if denominator == 0:
                raise UncorrectableBlockError(
                    "Forney denominator vanished; block is uncorrectable"
                )
            magnitude = GF256.mul(
                x_i, GF256.div(omega.evaluate(x_inverse), denominator)
            )
            codeword[position] ^= magnitude

        if any(s != 0 for s in self._syndromes(codeword)):
            raise UncorrectableBlockError(
                "residual syndromes after correction; block is uncorrectable"
            )
        return codeword

"""Products of truncated power series over Z/p^N.

A series is a residue list: ints mod p^prec, lowest degree first, one
precision for the whole series.  Every product goes through `polymul`,
a Kronecker-substitution kernel with two paths: short factors in slots
of up to 8 bytes pack in C into Python ints, long factors and wider
slots into decimals, which libmpdec multiplies by number-theoretic
transform.
`TruncSeries` carries p and the precision with the residues; it is the
value type of the polynomial h.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from itertools import repeat
from operator import mod
from struct import pack, unpack
from typing import Sequence

from .padic import Padic

# A product whose shorter factor has _DECIMAL_TERMS terms or more, or whose
# slots are wider than 8 bytes, is multiplied as two decimals: libmpdec
# multiplies long operands by number-theoretic transform, where a Python
# int product is Karatsuba.  Measured with Python 3.11 on a 2-vCPU Xeon VM
# at moduli 3^7, 5^8 and 2^20 (slots of 5 to 8 bytes), the decimal product
# takes 2.1 to 2.8 times as long as the word product at 729 terms, 0.9 to
# 1.8 times at 2,000, 0.74 to 0.85 at 4,000 and about half at 20,000.  At
# 5^16 and 3^30 (slots of 10 to 13 bytes) it takes 1.5 to 1.9 times as long
# as packing residue by residue at 5 to 100 terms, as long at 729 and
# half as long at 3,000.
_DECIMAL_TERMS = 4000
_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)  # every product exact


def polymul(a: Sequence[int], b: Sequence[int], modulus: int, n_out: int) -> list[int]:
    """Coefficients 0..n_out-1 of the product a*b mod modulus.

    a and b hold residues in [0, modulus), lowest degree first.  Kronecker
    substitution: each vector is packed into one number at a slot wide
    enough for any coefficient of the exact product, the two numbers are
    multiplied once, and the product is unpacked slot by slot.  A slot of
    up to 8 bytes packs in C, through little-endian 8-byte words and
    strided byte slices, into a Python int.  Long factors and wider slots
    pack into decimals instead: each factor is one string of fixed-width
    decimal slots, highest degree first, read into a `Decimal`, and the
    digits of the product are cut into slots from the right."""
    a, b = (v if len(v) <= n_out else v[:n_out] for v in (a, b))  # no copy unless cut
    if not a or not b:
        return [0] * n_out
    terms = min(len(a), len(b))
    bound = (modulus - 1) ** 2 * terms  # the largest coefficient of the exact product
    width = -(-bound.bit_length() // 8)  # bytes
    size = len(a) + len(b) - 1
    slots = min(size, n_out)
    if width > 8 or terms >= _DECIMAL_TERMS:
        width = len(str(bound))
        slot = f"%0{width}d"
        x, y = (Decimal((slot * len(v)) % tuple(reversed(v))) for v in (a, b))
        digits = format(_DECIMAL.multiply(x, y), "f")[-slots * width:].zfill(slots * width)
        out = [int(digits[i - width:i]) % modulus for i in range(slots * width, 0, -width)]
    else:
        cut = len(a) * width
        words, buf = pack(f"<{size + 1}Q", *a, *b), bytearray((size + 1) * width)
        for j in range(width):
            buf[j::width] = words[j::8]
        x, y = int.from_bytes(buf[:cut], "little"), int.from_bytes(buf[cut:], "little")
        raw = (x * y).to_bytes(size * width, "little")
        words = bytearray(8 * slots)
        for j in range(width):
            words[j::8] = raw[j:slots * width:width]
        out = list(map(mod, unpack(f"<{slots}Q", words), repeat(modulus)))
    out += repeat(0, n_out - slots)
    return out


def polymul_spread(a: Sequence[int], b: Sequence[int], p: int, modulus: int,
                   n_out: int) -> list[int]:
    """Coefficients 0..n_out-1 of a(t)*b(t^p) mod modulus.

    Class r mod p of the product is class r of a times b, so the product
    is p `polymul` calls on vectors 1/p as long, and the zeros of b(t^p)
    are never packed."""
    out = [0] * n_out
    for r in range(min(p, n_out)):
        out[r::p] = polymul(a[r::p], b, modulus, len(range(r, n_out, p)))
    return out


@dataclass(frozen=True)
class TruncSeries:
    """A truncated power series with coefficients in Z/p^prec."""

    p: int
    prec: int
    residues: tuple[int, ...]

    @property
    def coeffs(self) -> tuple[Padic, ...]:
        return tuple(Padic(self.p, self.prec, r) for r in self.residues)

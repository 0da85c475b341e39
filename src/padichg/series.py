"""Products of truncated power series over Z/p^N.

A series is a residue list: ints mod p^prec, lowest degree first, one
precision for the whole series.  Every product goes through one
Kronecker-substitution kernel, `_slots`, which adds the products of
factor pairs: `polymul` reads one product off it as residues, and
`first_nonzero` decides a sum of products ≡ 0 with no coefficient list.
`TruncSeries` carries p and the precision with the residues; it is the
value type of the polynomial h.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import mod
from struct import pack, unpack_from
from typing import Iterator, Optional, Sequence

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


def _slots(pairs: Sequence[tuple], modulus: int, n_out: int) -> Iterator[int]:
    """Coefficients 0..n_out-1 mod modulus of the sum of the products f*g
    over the pairs (f, g) of residue lists mod modulus (-x for a product
    subtracted), up to the last one a product reaches, converted chunk by
    chunk.  Each factor is packed into one number at one slot width, which
    holds any coefficient of the exact sum (the pairs' shorter lengths
    added, times (modulus - 1)^2); each pair is multiplied once and the
    products are added.  Slots of up to 8 bytes pack and unpack in C,
    through little-endian 8-byte words and strided byte slices.  A pair
    with both factors _DECIMAL_TERMS long or longer, or a wider slot, packs
    every factor as one string of fixed-width decimal slots, highest degree
    first, read into a `Decimal`; the slots are cut from its digits."""
    # each factor cut at n_out terms, with no copy unless it is longer
    pairs = [(f if len(f) <= n_out else f[:n_out], g if len(g) <= n_out else g[:n_out])
             for f, g in pairs if f and g]
    if not pairs or n_out < 1:
        return iter(())
    terms = [min(len(f), len(g)) for f, g in pairs]
    bound = (modulus - 1) ** 2 * sum(terms)  # the largest coefficient of the exact sum
    width = -(-bound.bit_length() // 8)  # bytes
    size = max(len(f) + len(g) for f, g in pairs) - 1
    slots = min(size, n_out)
    if width > 8 or max(terms) >= _DECIMAL_TERMS:
        width = len(str(bound))
        slot = f"%0{width}d"
        total = reduce(_DECIMAL.add, (_DECIMAL.multiply(
            Decimal((slot * len(f)) % tuple(reversed(f))),
            Decimal((slot * len(g)) % tuple(reversed(g)))) for f, g in pairs))
        digits = format(total, "f")[-slots * width:].zfill(slots * width)
        chunk = 4096 * width  # 4,096 slots per list comprehension, which outruns a generator
        return chain.from_iterable([int(digits[i - width:i]) % modulus for i in range(
            end, max(end - chunk, 0), -width)] for end in range(slots * width, 0, -chunk))
    total = 0
    for f, g in pairs:
        words = pack(f"<{len(f) + len(g)}Q", *f, *g)
        buf = bytearray((len(f) + len(g)) * width)
        for j in range(width):
            buf[j::width] = words[j::8]
        cut = len(f) * width
        total += int.from_bytes(buf[:cut], "little") * int.from_bytes(buf[cut:], "little")
    raw, words = total.to_bytes(size * width, "little"), bytearray(8 * slots)
    for j in range(width):
        words[j::8] = raw[j:slots * width:width]
    return chain.from_iterable(map(mod, unpack_from(f"<{min(slots - lo, 1024)}Q", words, 8 * lo),
                                   repeat(modulus)) for lo in range(0, slots, 1024))


def polymul(a: Sequence[int], b: Sequence[int], modulus: int, n_out: int) -> list[int]:
    """Coefficients 0..n_out-1 of the product a*b mod modulus."""
    out = list(_slots([(a, b)], modulus, n_out))
    out += repeat(0, n_out - len(out))
    return out


def first_nonzero(pairs: Sequence[tuple], modulus: int, n_out: int) -> Optional[int]:
    """The first index below n_out at which the sum of the products f*g
    over pairs is not 0 mod modulus, or None."""
    return next(compress(count(), _slots(pairs, modulus, n_out)), None)


@dataclass(frozen=True)
class TruncSeries:
    """A truncated power series with coefficients in Z/p^prec."""

    p: int
    prec: int
    residues: tuple[int, ...]

    @property
    def coeffs(self) -> tuple[Padic, ...]:
        return tuple(Padic(self.p, self.prec, r) for r in self.residues)

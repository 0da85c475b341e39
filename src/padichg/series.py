"""Products of truncated power series over Z/p^N.

A series is a residue list: ints mod p^prec, lowest degree first, one
precision for the whole series.  Every product goes through `polymul`,
a Kronecker-substitution kernel that packs slots of up to 8 bytes in C.
`TruncSeries` carries p and the precision with the residues; it is the
value type of the polynomial h.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import mod
from struct import pack, unpack
from typing import Sequence

from .padic import Padic


def polymul(a: Sequence[int], b: Sequence[int], modulus: int, n_out: int) -> list[int]:
    """Coefficients 0..n_out-1 of the product a*b mod modulus.

    a and b hold residues in [0, modulus), lowest degree first.  Kronecker
    substitution: each vector is packed into one integer at a byte-aligned
    slot wide enough for any coefficient of the exact product, the two
    integers are multiplied once, and the product is unpacked slot by slot,
    in C through little-endian 8-byte words and strided byte slices when a
    slot fits in a word."""
    a, b = a[:n_out], b[:n_out]
    if not a or not b:
        return [0] * n_out
    width = ((modulus - 1) ** 2 * min(len(a), len(b))).bit_length() // 8 + 1
    size, cut = len(a) + len(b) - 1, len(a) * width
    slots = min(size, n_out)
    if width > 8:
        buf = b"".join(r.to_bytes(width, "little") for v in (a, b) for r in v)
    else:
        words, buf = pack(f"<{size + 1}Q", *a, *b), bytearray((size + 1) * width)
        for j in range(width):
            buf[j::width] = words[j::8]
    x, y = int.from_bytes(buf[:cut], "little"), int.from_bytes(buf[cut:], "little")
    raw = (x * y).to_bytes(size * width, "little")
    if width > 8:
        out = [int.from_bytes(raw[i:i + width], "little") % modulus
               for i in range(0, slots * width, width)]
    else:
        words = bytearray(8 * slots)
        for j in range(width):
            words[j::8] = raw[j:slots * width:width]
        out = list(map(mod, unpack(f"<{slots}Q", words), repeat(modulus)))
    return out + [0] * (n_out - slots)


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

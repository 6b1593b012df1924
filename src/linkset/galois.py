"""Array arithmetic in the Galois ring GR(2^e, t), and so in GF(2^t) = GR(2, t).

Ring elements are integer ids encoding polynomial coefficient vectors in
mixed radix 2^e: the coefficient of X^i is digit i.  The modulus is the
monic basic irreducible of degree t obtained by lifting the
lexicographically smallest irreducible polynomial over GF(2) with 0/1
coefficients.  ``GaloisRing.mul`` multiplies whole id arrays exactly in
int64; the difference-matrix and Kerdock constructions build their tables
from it.
"""

from __future__ import annotations

import numpy as np

from .groups import _int_scalar


def gf2_is_irreducible(poly: int, deg: int) -> bool:
    """Trial division by every polynomial of degree 1..deg//2."""
    poly, deg = _int_scalar(poly, "poly", 0), _int_scalar(deg, "deg", 1)
    for fdeg in range(1, deg // 2 + 1):
        for f in range(1 << fdeg, 1 << (fdeg + 1)):
            if _gf2_mod(poly, f) == 0:
                return False
    return True


def _gf2_mod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def irreducible_poly(t: int) -> int:
    """Smallest monic irreducible of degree t over GF(2), as a bit mask."""
    if (t := _int_scalar(t, "t", 1)) == 1:
        return 0b10  # X
    for low in range(1 << t):
        poly = (1 << t) | low
        if gf2_is_irreducible(poly, t):
            return poly
    raise AssertionError("no irreducible polynomial found")


class GaloisRing:
    """GR(2^e, t): polynomials over Z_{2^e} modulo a basic irreducible."""

    def __init__(self, e: int, t: int):
        e, t = _int_scalar(e, "e", 1), _int_scalar(t, "t", 1)
        if e * t > 31:
            raise ValueError("GR(2^e, t) with e*t > 31 is past exact int64 products")
        self.e = e
        self.t = t
        self.char = 2 ** e
        self.size = 2 ** (e * t)
        poly = irreducible_poly(t)
        self.modulus = tuple((poly >> i) & 1 for i in range(t))  # low coefficients

    def mul(self, a, b) -> np.ndarray:
        """Exact products of the ring elements with ids ``a`` and ``b``
        (int64 arrays, broadcast against each other).

        Digit i of b is the coefficient of X^i; the shifts X^i b are reduced
        modulo the monic lift (X^t = -(low coefficients)) one step at a time
        and accumulated with weight digit i of a, so the scratch memory is
        t arrays of the broadcast shape plus t of b's shape, and every
        intermediate stays below t 4^e <= 2^62 (e t <= 31).
        """
        e, t, mask = self.e, self.t, self.char - 1
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        shifted = [(b >> (e * j)) & mask for j in range(t)]  # digits of X^i b
        acc = [0] * t
        for i in range(t):
            digit = (a >> (e * i)) & mask
            for j in range(t):
                acc[j] = acc[j] + digit * shifted[j]
            top = shifted[-1]
            shifted = [(low - top * c) & mask
                       for low, c in zip([0] + shifted[:-1], self.modulus)]
        return sum((d & mask) << (e * j) for j, d in enumerate(acc))

    def teichmueller(self) -> np.ndarray:
        """The 2^t Teichmueller representatives, sorted by id: a^(2^(t(e-1)))
        over the lifts a of GF(2^t) with 0/1 digits."""
        bits = np.arange(2 ** self.t)
        z = sum(((bits >> i) & 1) << (self.e * i) for i in range(self.t))
        for _ in range(self.t * (self.e - 1)):
            z = self.mul(z, z)
        out = np.sort(z)
        if np.any(out[1:] == out[:-1]):
            raise AssertionError("two lifts share a Teichmueller representative")
        return out

"""Arithmetic in GF(2^t) and the Galois ring GR(2^e, t).

Ring elements are integers encoding polynomial coefficient vectors in mixed
radix 2^e: the coefficient of X^i is digit i.  The modulus is the monic
basic irreducible of degree t obtained by lifting the lexicographically
smallest irreducible polynomial over GF(2) with 0/1 coefficients.
"""

from __future__ import annotations


def gf2_is_irreducible(poly: int, deg: int) -> bool:
    """Trial division by every polynomial of degree 1..deg//2."""
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
    if t < 1:
        raise ValueError("degree must be positive")
    if t == 1:
        return 0b10  # X
    for low in range(1 << t):
        poly = (1 << t) | low
        if gf2_is_irreducible(poly, t):
            return poly
    raise AssertionError("no irreducible polynomial found")


class GaloisRing:
    """GR(2^e, t): polynomials over Z_{2^e} modulo a basic irreducible."""

    def __init__(self, e: int, t: int):
        if e < 1 or t < 1:
            raise ValueError("e and t must be positive")
        self.e = e
        self.t = t
        self.char = 2 ** e
        self.size = 2 ** (e * t)
        poly = irreducible_poly(t)
        self.modulus = tuple((poly >> i) & 1 for i in range(t))  # low coefficients
        self._mul_cache: dict[tuple[int, int], int] = {}

    def decode(self, z: int) -> list[int]:
        digits = []
        for _ in range(self.t):
            digits.append(z % self.char)
            z //= self.char
        return digits

    def encode(self, digits) -> int:
        z = 0
        for d in reversed(list(digits)):
            z = z * self.char + (d % self.char)
        return z

    def add(self, a: int, b: int) -> int:
        x, y = self.decode(a), self.decode(b)
        return self.encode((u + v) % self.char for u, v in zip(x, y))

    def sub(self, a: int, b: int) -> int:
        x, y = self.decode(a), self.decode(b)
        return self.encode((u - v) % self.char for u, v in zip(x, y))

    def mul(self, a: int, b: int) -> int:
        key = (a, b)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        x, y = self.decode(a), self.decode(b)
        t, char = self.t, self.char
        prod = [0] * (2 * t - 1)
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y):
                    prod[i + j] = (prod[i + j] + u * v) % char
        # reduce modulo the monic lift: X^t = -(low coefficients)
        for i in range(2 * t - 2, t - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(t):
                    prod[i - t + j] = (prod[i - t + j] - c * self.modulus[j]) % char
        out = self.encode(prod[:t])
        self._mul_cache[key] = out
        return out

    def pow(self, a: int, n: int) -> int:
        acc = 1
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def teichmueller(self) -> list[int]:
        """The 2^t fixed points of z -> z^(2^t), found by iterating the map
        from every residue; sorted by integer encoding."""
        reps = set()
        q = 2 ** self.t
        for z in range(self.size):
            u = z
            for _ in range(self.e * self.t + 2):
                nxt = self.pow(u, q)
                if nxt == u:
                    break
                u = nxt
            if self.pow(u, q) == u:
                reps.add(u)
        out = sorted(reps)
        if len(out) != q:
            raise AssertionError(f"Teichmueller set has size {len(out)}, expected {q}")
        return out

    def is_unit(self, a: int) -> bool:
        # the ring is local with maximal ideal (2): units reduce to nonzero mod 2
        return any(d % 2 for d in self.decode(a))

"""Boolean functions, the Walsh-Hadamard transform, bent sets, and the
pipeline from a Kerdock-type bent set to a reduced linking system in an
elementary abelian 2-group.

Truth tables are little-endian: input bit i of a function corresponds to
bit i of the table index and to generator x_{i+1} of Z_2^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import GaloisRing
from .groups import FiniteGroup, abelian_element
from .linking import ReducedLinkingSystem, verify_reduced


@dataclass(frozen=True)
class BooleanFunction:
    arity: int
    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=np.uint8)
        if arr.shape != (2 ** self.arity,):
            raise ValueError("truth table length must be 2^arity")
        if not np.all(arr <= 1):
            raise ValueError("truth table entries must be bits")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BooleanFunction) and self.arity == other.arity
                and bool(np.array_equal(self.table, other.table)))

    def __hash__(self):
        return hash((self.arity, self.table.tobytes()))

    def __add__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return BooleanFunction(self.arity, self.table ^ other.table)

    def is_zero(self) -> bool:
        return not self.table.any()

    def weight(self) -> int:
        return int(self.table.sum())

    def complement(self) -> "BooleanFunction":
        return BooleanFunction(self.arity, self.table ^ 1)

    def to_hex(self) -> str:
        bits = np.packbits(self.table, bitorder="little")
        return bits.tobytes().hex()

    @classmethod
    def from_hex(cls, arity: int, hex_string: str) -> "BooleanFunction":
        raw = np.frombuffer(bytes.fromhex(hex_string), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[: 2 ** arity]
        return cls(arity, bits)


def zero_function(arity: int) -> BooleanFunction:
    return BooleanFunction(arity, np.zeros(2 ** arity, dtype=np.uint8))


def wht(f: BooleanFunction) -> np.ndarray:
    """Exact Walsh-Hadamard transform by in-place butterflies, O(n 2^n)."""
    w = np.where(f.table == 0, 1, -1).astype(np.int64)
    return wht_signs(w)


def wht_signs(signs: np.ndarray) -> np.ndarray:
    w = signs.astype(np.int64, copy=True)
    n = w.shape[-1]
    h = 1
    while h < n:
        w = w.reshape(*w.shape[:-1], -1, 2 * h)
        a = w[..., :h].copy()
        b = w[..., h:].copy()
        w[..., :h] = a + b
        w[..., h:] = a - b
        w = w.reshape(*signs.shape)
        h *= 2
    return w


def is_bent(f: BooleanFunction) -> bool:
    """All transform values equal +/- 2^(n/2) (even arity only)."""
    if f.arity % 2 != 0:
        raise ValueError("bent functions require even arity")
    target = 2 ** (f.arity // 2)
    return bool(np.all(np.abs(wht(f)) == target))


def subset_of(f: BooleanFunction, G: FiniteGroup) -> tuple[int, ...]:
    """Support of f as elements x_1^{y_1} ... x_n^{y_n} of Z_2^n."""
    n = f.arity
    if G.cyclic_factors != (2,) * n:
        raise ValueError("group must be Z_2^n built to match the arity")
    out = []
    for idx in np.nonzero(f.table)[0]:
        bits = [(int(idx) >> i) & 1 for i in range(n)]
        out.append(abelian_element(G, bits))
    return tuple(sorted(out))


def is_bent_set(fns) -> bool:
    """All pairwise sums bent (the defining property; members may repeat only
    if equal functions never pair, so any repeat fails via the zero sum)."""
    fns = list(fns)
    if not fns:
        raise ValueError("empty function list")
    arity = fns[0].arity
    if any(f.arity != arity for f in fns):
        raise ValueError("arity mismatch in bent set")
    for i in range(len(fns)):
        for j in range(i + 1, len(fns)):
            if not is_bent(fns[i] + fns[j]):
                return False
    return True


def translate_to_zero(fns) -> list[BooleanFunction]:
    """Add the first function to all members, making it the zero function."""
    fns = list(fns)
    if not fns:
        raise ValueError("empty function list")
    f0 = fns[0]
    return [f + f0 for f in fns]


def _field_trace_table(m: int) -> tuple[GaloisRing, list[int]]:
    F = GaloisRing(1, m)
    traces = []
    for x in range(2 ** m):
        acc, cur = 0, x
        for _ in range(m):
            acc ^= cur
            cur = F.mul(cur, cur)
        traces.append(acc & 1)
    return F, traces


def _kerdock_trace_family(d: int) -> list[BooleanFunction]:
    """Quadratic trace forms on GF(2^(2d+1)) x GF(2):
    F_u(x, y) = tr(sum_i (ux)^(2^i+1)) + y tr(ux) for i = 1..d."""
    m = 2 * d + 1
    n = m + 1
    F, tr = _field_trace_table(m)
    xs = list(range(2 ** m))
    fns = []
    for u in range(2 ** m):
        ux = [F.mul(u, x) for x in xs]
        q = [0] * (2 ** m)
        for i in range(1, d + 1):
            exp = 2 ** i + 1
            for x in xs:
                q[x] ^= tr[F.pow(ux[x], exp)]
        table = np.empty(2 ** n, dtype=np.uint8)
        for x in xs:
            lin = tr[ux[x]]
            table[x] = q[x]
            table[x | (1 << m)] = q[x] ^ lin
        fns.append(BooleanFunction(n, table))
    return fns


def _normalize_light(fns) -> list[BooleanFunction]:
    """Complement members heavier than 2^(n-1); preserves the bent-set
    property and forces all supports onto the k <= v/2 parameter branch."""
    out = []
    for f in fns:
        heavy = f.weight() > 2 ** (f.arity - 1)
        out.append(f.complement() if heavy else f)
    return out


def kerdock_bent_set(d: int) -> list[BooleanFunction]:
    """A verified bent set of the maximum size 2^(2d+1) on arity 2d+2,
    containing the zero function.

    The trace-form family is not trusted: is_bent_set gates the output,
    and a family that fails it raises AssertionError.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        fns = [zero_function(2), BooleanFunction(2, np.array([0, 0, 0, 1], dtype=np.uint8))]
        if not is_bent_set(fns):
            raise AssertionError("base bent set failed verification")
        return fns
    fns = _normalize_light(_kerdock_trace_family(d))
    if not any(f.is_zero() for f in fns):
        fns = translate_to_zero(fns)
    if len(set(fns)) == 2 ** (2 * d + 1) and is_bent_set(fns):
        return fns
    raise AssertionError("trace-form bent set failed verification")


def bent_linking(fns, G: FiniteGroup | None = None) -> ReducedLinkingSystem:
    """Reduced linking system {S(f_1), ..., S(f_l)} from a bent set that
    contains the zero function.

    Members heavier than half are complemented first so every subset lands
    on the k <= v/2 parameter branch (complementation preserves the bent-set
    property and the supports stay distinct difference sets).
    """
    fns = list(fns)
    if not any(f.is_zero() for f in fns):
        raise ValueError("bent set must contain the zero function; apply translate_to_zero")
    arity = fns[0].arity
    nonzero = _normalize_light([f for f in fns if not f.is_zero()])
    if len(nonzero) < 2:
        raise ValueError("need at least two nonzero members (system size >= 2)")
    if any(f.is_zero() for f in nonzero):
        raise ValueError("bent set contains the constant-one function")
    if G is None:
        from .groups import make_abelian

        G = make_abelian([2] * arity)
    sets = [subset_of(f, G) for f in nonzero]
    system = verify_reduced(G, sets)
    if system is None:
        raise AssertionError("bent-set subsets failed linking verification")
    return system


def enumerate_bent(arity: int) -> list[BooleanFunction]:
    """All bent functions of the given (small, even) arity by exhaustion."""
    if arity % 2 != 0:
        raise ValueError("bent functions require even arity")
    if arity > 4:
        raise ValueError("exhaustive enumeration supported up to arity 4")
    size = 2 ** arity
    tables = np.arange(2 ** size, dtype=np.uint32)
    bits = ((tables[:, None] >> np.arange(size)[None, :]) & 1).astype(np.int8)
    signs = 1 - 2 * bits
    spectra = wht_signs(signs)
    mask = np.all(np.abs(spectra) == 2 ** (arity // 2), axis=1)
    return [BooleanFunction(arity, bits[i].astype(np.uint8)) for i in np.nonzero(mask)[0]]

"""Boolean functions, the Walsh-Hadamard transform, bent sets, and the
pipeline from a Kerdock-type bent set to a reduced linking system in an
elementary abelian 2-group.

Truth tables are little-endian: input bit i of a function corresponds to
bit i of the table index and to generator x_{i+1} of Z_2^n.

The Kerdock trace forms come from one multiplication table of GF(2^m),
built by the array ``GaloisRing.mul``, by table gathers.  ``is_bent``,
``is_bent_set`` and ``enumerate_bent`` share one batched test on the
Walsh-Hadamard spectra of stacked truth tables.  The spectra come from the
verifiers' exact transform, ``group_ring._Transform`` on the factors
(2,)*n, whose characters on Z_2^n are +/-1; arities run up to 12, the
largest Z_2^n with a group table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import GaloisRing
from .group_ring import _factor_transform
from .groups import MAX_TABLE_ORDER, FiniteGroup, _radix_weights, _span_table, make_abelian
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
        """The inverse of ``to_hex``: ValueError unless exactly its bytes, padding bits zero."""
        raw = np.frombuffer(bytes.fromhex(hex_string), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        if len(raw) != -(-2 ** arity // 8) or bits[2 ** arity:].any():
            raise ValueError(f"a truth table of arity {arity} is {-(-2 ** arity // 8)} bytes "
                             f"with zero padding bits, got {len(raw)} bytes")
        return cls(arity, bits[:2 ** arity])


def zero_function(arity: int) -> BooleanFunction:
    return BooleanFunction(arity, np.zeros(2 ** arity, dtype=np.uint8))


def wht(f: BooleanFunction) -> np.ndarray:
    """The Walsh-Hadamard transform W(u) = sum_x (-1)^(f(x) + u.x) (int64)."""
    return _spectra(f.table[None], f.arity)[:, 0].astype(np.int64)


def _spectra(tables: np.ndarray, arity: int) -> np.ndarray:
    """The Walsh-Hadamard spectra of the rows of an (n, 2^arity) 0/1 array
    (integer or bool), as the columns of a float64 (2^arity, n) array:
    ``group_ring``'s transform of Z[Z_2^arity], whose characters are +/-1,
    on the rows (-1)^f = 1 - 2f, made in one float64 array in place.
    ValueError past arity 12 (2^arity > MAX_TABLE_ORDER, the largest Z_2^n
    that ``bent_linking`` can use), before any transform."""
    if 2 ** arity > MAX_TABLE_ORDER:
        raise ValueError(f"arity {arity} is past 12 (2^{arity} > {MAX_TABLE_ORDER})")
    signs = np.multiply(tables, -2.0, dtype=np.float64)
    signs += 1.0
    return _factor_transform((2,) * arity)(signs, 1, True)


def _bent_rows(tables: np.ndarray, arity: int) -> np.ndarray:
    """Whether each row of an (n, 2^arity) 0/1 array is bent: every
    transform value is +/- 2^(n/2) (even arity only).  Exact: the rows
    (-1)^f are +/-1 (bound 1), so |W| <= 2^arity < p/2 - 2 as the prime is
    p > 2v + 4, and the residue ``_reduce`` returns is the value itself."""
    if arity % 2 != 0:
        raise ValueError("bent functions require even arity")
    return np.all(np.abs(_spectra(tables, arity)) == 2 ** (arity // 2), axis=0)


def is_bent(f: BooleanFunction) -> bool:
    """All transform values equal +/- 2^(n/2) (even arity only)."""
    return bool(_bent_rows(f.table[None], f.arity)[0])


def subset_of(f: BooleanFunction, G: FiniteGroup) -> tuple[int, ...]:
    """Support of f as elements x_1^{y_1} ... x_n^{y_n} of Z_2^n: one gather
    of the span of x_n, ..., x_1, whose element i has the bits y of i."""
    if G.cyclic_factors != (2,) * f.arity:
        raise ValueError("group must be Z_2^n built to match the arity")
    span = _span_table(G, _radix_weights(G.cyclic_factors)[::-1], 2)
    return tuple(np.sort(span[np.flatnonzero(f.table)]).tolist())


def is_bent_set(fns) -> bool:
    """All pairwise sums bent (the defining property; members may repeat only
    if equal functions never pair, so any repeat fails via the zero sum).
    Each member's sums with the later members are tested as one batch."""
    fns = list(fns)
    if not fns:
        raise ValueError("empty function list")
    arity = fns[0].arity
    if any(f.arity != arity for f in fns):
        raise ValueError("arity mismatch in bent set")
    tables = np.array([f.table for f in fns])
    # a lone member is tested against no others, which still checks its arity
    return all(_bent_rows(tables[i] ^ tables[i + 1:], arity).all()
               for i in range(max(1, len(fns) - 1)))


def translate_to_zero(fns) -> list[BooleanFunction]:
    """Add the first function to all members, making it the zero function."""
    fns = list(fns)
    if not fns:
        raise ValueError("empty function list")
    f0 = fns[0]
    return [f + f0 for f in fns]


def _kerdock_trace_family(d: int) -> list[BooleanFunction]:
    """Quadratic trace forms on GF(2^(2d+1)) x GF(2):
    F_u(x, y) = tr(sum_i (ux)^(2^i+1)) + y tr(ux) for i = 1..d (for d = 0,
    the zero function and xy).

    One multiplication table of GF(2^m) = GR(2, m) serves everything by
    gathers: row u of the table is ux over all x, its diagonal squares, and
    field addition is XOR of ids."""
    m = 2 * d + 1
    ids = np.arange(2 ** m)
    table = GaloisRing(1, m).mul(ids[:, None], ids[None, :])
    square = table[ids, ids]
    trace, power = np.zeros_like(ids), ids
    for _ in range(m):
        trace ^= power
        power = square[power]
    q = np.zeros_like(table)
    power = table
    for _ in range(d):
        power = square[power]  # (ux)^(2^i)
        q ^= trace[table[power, table]]
    tables = np.concatenate([q, q ^ trace[table]], axis=1).astype(np.uint8)
    return [BooleanFunction(m + 1, row) for row in tables]


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

    The domain is 0 <= d <= 4: the field table has 4^(2d+1) entries and
    the check tests 4^(2d+1)/2 pairs, so d = 4 takes seconds and d = 5
    would not finish at desk scale.  The trace-form family is not trusted:
    is_bent_set gates the output, and a family that fails it raises
    AssertionError.
    """
    if not 0 <= d <= 4:
        raise ValueError(f"d must be between 0 and 4, got {d}")
    fns = _normalize_light(_kerdock_trace_family(d))
    if not any(f.is_zero() for f in fns):
        fns = translate_to_zero(fns)
    if len(set(fns)) == 2 ** (2 * d + 1) and is_bent_set(fns):
        return fns
    raise AssertionError("trace-form bent set failed verification")


def bent_linking(fns) -> ReducedLinkingSystem:
    """Reduced linking system {S(f_1), ..., S(f_l)} in Z_2^arity from a bent
    set that contains the zero function.

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
    bits = ((tables[:, None] >> np.arange(size)[None, :]) & 1).astype(np.uint8)
    return [BooleanFunction(arity, bits[i]) for i in np.nonzero(_bent_rows(bits, arity))[0]]

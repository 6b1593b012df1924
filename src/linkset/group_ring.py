"""Exact integer group-ring arithmetic over a finite group.

A ring element is an int64 coefficient vector indexed by element id.  All
operations are pure; products respect the group's multiplication order, so
nonabelian groups are handled correctly.

Two batched kernels serve the verifiers and searches, whose operands are
subsets (0/1 coefficient vectors): ``pair_products`` gives every product
X Y^(-1) of a block of left sets against a block of right sets, and
``autocorrelations`` gives S S^(-1) for many sets at once.  ``mul`` stays
the general-coefficient product and the oracle both kernels are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup

# Largest block of gathered table entries pair_products holds at once
# (float32), and largest block of sets one FFT transforms: together they cap
# the kernels' scratch memory at a few MB whatever the batch size or order.
GATHER_BLOCK = 1 << 16
FFT_BLOCK = 64
# Quotients (and counts) _count_autocorrelations holds at once: about 1 MB
# of int64 each.
COUNT_BLOCK = 1 << 17
# autocorrelations uses the FFT only above this order; at and below it the
# exact bincount is faster for every set size.
FFT_MIN_ORDER = 64


@dataclass(frozen=True)
class GroupRingElement:
    group: FiniteGroup
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.int64)
        if arr.shape != (self.group.order,):
            raise ValueError("coefficient vector length must equal the group order")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupRingElement)
                and self.group is other.group
                and bool(np.array_equal(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((id(self.group), self.coeffs.tobytes()))

    def __repr__(self) -> str:
        terms = [f"{int(c)}*{self.group.name(i)}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def zero(G: FiniteGroup) -> GroupRingElement:
    return GroupRingElement(G, np.zeros(G.order, dtype=np.int64))


def one(G: FiniteGroup) -> GroupRingElement:
    c = np.zeros(G.order, dtype=np.int64)
    c[0] = 1
    return GroupRingElement(G, c)


def all_ones(G: FiniteGroup) -> GroupRingElement:
    """The element G = sum of all group elements."""
    return GroupRingElement(G, np.ones(G.order, dtype=np.int64))


def from_subset(G: FiniteGroup, S) -> GroupRingElement:
    c = np.zeros(G.order, dtype=np.int64)
    c[_subset_ids(G, S)] = 1
    return GroupRingElement(G, c)


def is_subset(x: GroupRingElement):
    """The support as a sorted tuple iff all coefficients are 0 or 1."""
    c = x.coeffs
    if np.all((c == 0) | (c == 1)):
        return tuple(int(i) for i in np.nonzero(c)[0])
    return None


def _same_group(x: GroupRingElement, y: GroupRingElement) -> FiniteGroup:
    if x.group is not y.group:
        raise ValueError("group-ring operands live in different groups")
    return x.group


def add(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    return GroupRingElement(_same_group(x, y), x.coeffs + y.coeffs)


def sub(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    return GroupRingElement(_same_group(x, y), x.coeffs - y.coeffs)


def scale(k: int, x: GroupRingElement) -> GroupRingElement:
    return GroupRingElement(x.group, int(k) * x.coeffs)


def mul(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Convolution: the coefficient of g*h accumulates x[g]*y[h]."""
    G = _same_group(x, y)
    out = np.zeros(G.order, dtype=np.int64)
    table, inv = G.table, G.inv_table
    support = np.nonzero(x.coeffs)[0]
    # out[g*h] += x[g]*y[h]  <=>  out += x[g] * y[g^-1 * (.)]
    for g in support:
        out += x.coeffs[g] * y.coeffs[table[inv[g]]]
    return GroupRingElement(G, out)


def involution(x: GroupRingElement) -> GroupRingElement:
    """Move the coefficient of g to g^-1 (the map S -> S^(-1))."""
    out = np.zeros_like(x.coeffs)
    out[x.group.inv_table] = x.coeffs
    return GroupRingElement(x.group, out)


def decompose_two_valued(x: GroupRingElement, mu: int, nu: int):
    """Solve x = (mu - nu)*D + nu*G for a subset D, if possible.

    Returns the support of D (coefficient mu positions) as a sorted tuple
    when every coefficient of x is mu or nu; otherwise None.
    """
    if mu == nu:
        raise ValueError("mu and nu must be distinct")
    c = x.coeffs
    if not np.all((c == mu) | (c == nu)):
        return None
    return tuple(int(i) for i in np.nonzero(c == mu)[0])


def pair_products(G: FiniteGroup, left, right) -> np.ndarray:
    """Every product of a left set with the inverse of a right set.

    ``left`` (a x v) and ``right`` (b x v) hold 0/1 indicator rows of subsets
    X_1..X_a and Y_1..Y_b.  Returns the float32 array P of shape (a, b, v)
    with P[s, t] the coefficients of X_s Y_t^(-1): the coefficient of h is
    sum_z Y_t[z] X_s[h z], so one table gather X_s[table] (v x v) and one
    GEMM against the right rows give a whole row of products, in any group.
    The gather runs in blocks of at most GATHER_BLOCK entries (several left
    rows at small v, slices of one row's table at large v).

    float32 is exact: every addend is 0 or 1, so every partial sum is an
    integer in [0, v] with v <= MAX_TABLE_ORDER = 4096 < 2^24, and float32
    represents every integer up to 2^24 exactly.  Rows that are not 0/1 are
    rejected, since they would void that bound.
    """
    return _pair_products(G, _indicator_rows(G, left, "left"),
                          _indicator_rows(G, right, "right"))


def _pair_products(G: FiniteGroup, L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``pair_products`` without the input check, for float32 0/1 rows built
    by ``indicators``: the verifiers and searches check and cast their sets
    once and then call this for every left row."""
    v = G.order
    out = np.empty((len(L), len(R), v), dtype=np.float32)
    # blocks of c left rows times hc values of h, with c * hc * v <= GATHER_BLOCK
    hc = min(v, max(1, GATHER_BLOCK // v))
    c = max(1, GATHER_BLOCK // (hc * v))
    for s in range(0, len(L), c):
        for h in range(0, v, hc):
            gathered = L[s:s + c][:, G.table[h:h + hc]]    # [s, h, z] = X_s[h z]
            if hc == v:
                np.matmul(R, gathered.transpose(0, 2, 1), out=out[s:s + c])
            else:
                out[s:s + c, :, h:h + hc] = np.matmul(R, gathered.transpose(0, 2, 1))
    return out


def indicators(G: FiniteGroup, sets) -> np.ndarray:
    """0/1 indicator rows (float32, shape (n, v)) of subsets given by ids,
    ready for ``pair_products``."""
    ids = _subset_rows(G, sets)
    out = np.zeros((len(ids), G.order), dtype=np.float32)
    if isinstance(ids, np.ndarray):
        out[np.arange(len(ids))[:, None], ids] = 1
    else:
        for t, S in enumerate(ids):
            out[t, S] = 1
    return out


def _indicator_rows(G: FiniteGroup, rows, name: str) -> np.ndarray:
    m = np.asarray(rows)
    if m.ndim != 2 or m.shape[1] != G.order:
        raise ValueError(f"{name} rows must have shape (n, {G.order})")
    if not ((m == 0) | (m == 1)).all():
        raise ValueError(f"{name} rows must be 0/1 indicator vectors")
    return m.astype(np.float32, copy=False)


def autocorrelations(G: FiniteGroup, sets) -> np.ndarray:
    """Coefficients of S S^(-1) for each subset S (int64, shape (n, v)).

    Each S is an iterable of distinct element ids, or ``sets`` is one
    (n, k) array of id rows.  Sets are counted exactly
    (``_count_autocorrelations``, any group); in a group built from cyclic
    factors, sets large enough that it pays go through a rounded and
    checked float64 FFT instead (``_fft_autocorrelations``), in blocks of
    at most FFT_BLOCK sets.
    """
    ids = _subset_rows(G, sets)
    batch = min(len(ids), FFT_BLOCK)
    pays = {k: _fft_pays(G, k, batch) for k in {len(S) for S in ids}}
    fft = np.array([pays[len(S)] for S in ids], dtype=bool)
    out = np.empty((len(ids), G.order), dtype=np.int64)
    out[~fft] = _count_autocorrelations(G, ids[~fft] if isinstance(ids, np.ndarray)
                                        else [S for S, f in zip(ids, fft) if not f])
    fft_rows = np.flatnonzero(fft)
    for s in range(0, len(fft_rows), FFT_BLOCK):
        block = fft_rows[s:s + FFT_BLOCK]
        out[block] = _fft_autocorrelations(G, [ids[t] for t in block])
    return out


def _count_autocorrelations(G: FiniteGroup, sets) -> np.ndarray:
    """S S^(-1) for each set of distinct ids: an exact integer count of the
    quotients s t^(-1) over all pairs of S.

    An (n, k) array of id rows goes through in blocks of at most
    COUNT_BLOCK quotients and counts: table[S[:, :, None], inv[S[:, None, :]]]
    gives every quotient of each set of the block, offset by v times its
    row, and one bincount counts them all.  A list of sets is counted one
    set at a time, which is cheaper for the few sets a verifier checks.
    """
    v = G.order
    out = np.empty((len(sets), v), dtype=np.int64)
    if isinstance(sets, np.ndarray):
        step = max(1, COUNT_BLOCK // max(sets.shape[1] ** 2, v))
        for s in range(0, len(sets), step):
            block = sets[s:s + step]
            quot = G.table[block[:, :, None], G.inv_table[block][:, None, :]]
            quot += (v * np.arange(len(block), dtype=np.int32))[:, None, None]
            out[s:s + step] = np.bincount(quot.ravel(),
                                          minlength=len(block) * v).reshape(-1, v)
        return out
    for t, S in enumerate(sets):
        S = np.asarray(S, dtype=np.int64)
        out[t] = np.bincount(G.table[S[:, None], G.inv_table[S]].ravel(), minlength=v)
    return out


def _subset_rows(G: FiniteGroup, sets):
    """The checked ids of each subset: one (n, k) int64 array when ``sets``
    is one, else a list of ``_subset_ids`` arrays."""
    if isinstance(sets, np.ndarray) and sets.ndim == 2:
        arr = _check_range(G, sets.astype(np.int64, copy=False))
        ordered = np.sort(arr, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError("subset contains a repeated element")
        return arr
    return [_subset_ids(G, S) for S in sets]


def _subset_ids(G: FiniteGroup, S) -> np.ndarray:
    """The ids of S as an int64 array; rejects out-of-range and repeated ids."""
    arr = _check_range(G, np.asarray(S if isinstance(S, np.ndarray) else list(S),
                                     dtype=np.int64).reshape(-1))
    if arr.size and np.bincount(arr).max() > 1:
        raise ValueError("subset contains a repeated element")
    return arr


def _check_range(G: FiniteGroup, arr: np.ndarray) -> np.ndarray:
    if arr.size and (arr.min() < 0 or arr.max() >= G.order):
        bad = arr[(arr < 0) | (arr >= G.order)][0]
        raise ValueError(f"element id {bad} out of range")
    return arr


def _fft_pays(G: FiniteGroup, k: int, batch: int) -> bool:
    """Whether the FFT beats the count for one k-set among ``batch`` sets.

    Costs in ns, measured with numpy's pocketfft: about 8 k^2 for the
    count; for the FFT, v * sum(120/n + 10) over the cyclic factors n per
    set plus 150,000 per call, shared by the sets of a block.
    """
    v, factors = G.order, G.cyclic_factors
    if factors is None or v <= FFT_MIN_ORDER:
        return False
    fft_ns = v * sum(120 / n + 10 for n in factors) + 150_000 / batch
    return 8 * k * k > fft_ns


def _fft_autocorrelations(G: FiniteGroup, sets) -> np.ndarray:
    """S S^(-1) as the cyclic autocorrelation ifftn(|fftn(x)|^2) of each
    indicator x, laid out on the mixed-radix axes of ``G.cyclic_factors``.

    Error bound: one float64 FFT of length v has relative 2-norm error
    gamma <= 5 * log2(v) * 2^-53, so the computed correlation is off by at
    most about 3 * gamma * k^2 in each coefficient; at k = v = 4096 that is
    under 1e-6.  The rounding check below (distance to the nearest integer
    under 1/4) turns any breach of that bound into an error, never into a
    wrong count.
    """
    factors = G.cyclic_factors
    axes = tuple(range(1, len(factors) + 1))
    x = np.zeros((len(sets), G.order), dtype=np.float64)
    for t, S in enumerate(sets):
        x[t, S] = 1.0
    spectrum = np.fft.rfftn(x.reshape((len(sets),) + factors), axes=axes)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    corr = np.fft.irfftn(power, s=factors, axes=axes).reshape(len(sets), G.order)
    rounded = np.rint(corr)
    if np.max(np.abs(corr - rounded)) >= 0.25:
        raise ArithmeticError("FFT autocorrelation failed its rounding check")
    return rounded.astype(np.int64)

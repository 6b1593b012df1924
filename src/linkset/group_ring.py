"""Exact integer group-ring arithmetic over a finite group.

A ring element is an int64 coefficient vector indexed by element id.  All
operations are pure; products respect the group's multiplication order, so
nonabelian groups are handled correctly.

Each product of subsets (0/1 coefficient vectors) that the verifiers and
searches need has one exact route per group:

* the pair products X Y^(-1) (``RowProducts``, ``pair_products``) take the
  transform ``_Transform`` in a group built from cyclic factors of order
  at most NTT_BLOCK, from order NTT_MIN_ORDER up: the discrete Fourier
  transform of Z[G] modulo one prime p > 2v + 4, as float64 GEMMs whose
  every partial sum stays below 2^53 by a written bound; elsewhere, a
  table gather and a float32 GEMM;
* the difference-set checks (``designs._autocorrelation_params``) read
  |chi(S)|^2 = T(S S^(-1)) mod p at every character off one forward
  transform per block of sets (``character_norm_blocks``) in a group with
  a transform, and count S S^(-1) (``autocorrelation_blocks``) elsewhere.

``autocorrelations`` is that exact count in every group, the oracle of the
spectral test, with which it shares no code; ``mul`` stays the
general-coefficient product and the oracle the kernels are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, _id_array, _int_scalar, _prime_factors, _scratch_rows

# Largest root-of-unity matrix of the transform: a group takes the
# transform only if each cyclic factor fits in one block.  It sets the
# transform's stages and exactness bound, not a scratch size.
NTT_BLOCK = 64
# Smallest order whose pair products take the transform; below it the
# table-gather GEMM is faster (see README, "Product kernels").  The
# difference-set checks take the transform's spectrum at every order.
NTT_MIN_ORDER = 128
# The transform keeps every value and every partial sum below this bound:
# float64 holds every integer below 2^53 exactly, and the margin keeps the
# reduction's rounded quotient times p below 2^53 as well.
EXACT_LIMIT = 2.0 ** 52


@dataclass(frozen=True)
class GroupRingElement:
    group: FiniteGroup
    coeffs: np.ndarray

    def __post_init__(self):
        """Takes numeric coefficients of integral value; rejects any other (a
        bool, a string, a fraction, past int64) rather than coerce it."""
        given = np.asarray(self.coeffs)
        if given.shape != (self.group.order,):
            raise ValueError("coefficient vector length must equal the group order")
        kind = given.dtype.kind
        # signed integers convert exactly; an unsigned or a float value must
        # be a whole number below 2^63 (nan and inf fail the bound)
        if not (kind == "i" or kind in "uf" and (abs(given) < 2.0 ** 63).all()
                and (given == np.round(given)).all()):
            raise ValueError(f"coefficients must be integers, got {given.dtype} values")
        arr = given.astype(np.int64)
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
    c[_subset_rows(G, [S])[0]] = 1
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
    """k x for an int or a numpy integer k (a float or a bool is rejected)."""
    return GroupRingElement(x.group, _int_scalar(k, "scalar") * x.coeffs)


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


# -- the transform route ---------------------------------------------------------


class _Transform:
    """The discrete Fourier transform of Z[G] modulo a prime, for a group G
    = Z_n1 x ... x Z_nr laid out in mixed radix (factor 1 most significant).

    p is the least prime above 2v + 4 with p = 1 (mod exp G), so Z/p holds
    a primitive n-th root of unity w_n for every factor n, v is invertible,
    and every integer in [0, v] is its own residue of least absolute value.
    T(x)[j] = sum_m x[m] prod_i w_ni^(j_i m_i) is x evaluated at the
    character j; T(x y) = T(x) T(y), T(y^(-1)) = T(y) o neg with neg the
    gather by ``G.inv_table``, and T(T(x)) = v x o neg.  Hence

        X Y^(-1) = v^(-1) T(T(X) o neg . T(Y))   (mod p),

    and since every coefficient of a product of two subsets lies in [0, v],
    the reduced residues (``_reduce``) are the coefficients themselves.

    The transform runs one block of consecutive axes at a time: ``blocks``
    splits the factors into blocks of order at most NTT_BLOCK, and each
    block is one float64 GEMM against the Kronecker product of its axes'
    root-of-unity matrices, with entries reduced to |entry| <= p // 2.

    Exactness bound: a GEMM stage of order b on data of absolute value at
    most B sums b terms of absolute value at most B * (p // 2), so every
    partial sum is an integer of absolute value at most b * B * (p // 2).
    ``stages`` carries that bound from stage to stage and has the data
    reduced (to |x| <= ``half`` = p // 2 + 2, ``_reduce``) before any stage
    whose bound would reach EXACT_LIMIT = 2^52; the constructor checks that
    one stage on products of two reduced values stays below it.  Below
    2^53 float64 adds and multiplies integers exactly, in any order of
    summation, so every value is exact.  On Z4^5 no transform reduces
    between its stages; at order 4096 the inverse reduces once
    (tests/test_group_ring.py pins the bound).
    """

    def __init__(self, factors: tuple[int, ...]):
        self.v = v = math.prod(factors)
        self.p = p = _ntt_prime(2 * v + 4, math.lcm(*factors))
        self.half = p // 2 + 2
        self.vinv = pow(v, -1, p)
        g = _primitive_root(p)
        self.matrices = [_block_matrix(blk, p, g) for blk in _blocks(factors)]
        for M in self.matrices:
            M.setflags(write=False)
        # the written bound: one stage on products of two reduced values
        # stays exact (a raise, not an assert, so ``python -O`` keeps it)
        if self.half * self.half * NTT_BLOCK * (p // 2) >= EXACT_LIMIT:
            raise ArithmeticError(f"transform of order {v} is past the exactness bound")

    def __call__(self, x: np.ndarray, bound: float, batch_first: bool) -> np.ndarray:
        """T of each vector of a batch, reduced (|entry| <= ``half``).

        ``x`` holds n vectors with entries of absolute value at most
        ``bound`` (and may be reduced in place): an (n, v) array when
        ``batch_first``, else (v, n).  The result comes in the other
        layout, so no stage copies its data: a batch-first stage takes the
        trailing axis and puts its output first, a batch-last stage takes
        the leading axis and puts it last; after every block the axes are
        back in mixed-radix order.
        """
        shape = (self.v, len(x)) if batch_first else (x.shape[1], self.v)
        for M, reduce, _ in self.stages(bound, batch_first):
            if reduce:
                x = self._reduce(x)
            b = len(M)
            x = M @ x.reshape(-1, b).T if batch_first else x.reshape(b, -1).T @ M
        return self._reduce(x).reshape(shape)

    def stages(self, bound: float, batch_first: bool) -> list[tuple[np.ndarray, bool, float]]:
        """The GEMM stages of one transform of data of absolute value at
        most ``bound``: (matrix, whether the data is reduced first, the
        bound on every partial sum of the stage), in the order they run."""
        p2 = self.p // 2
        out = []
        for M in (self.matrices[::-1] if batch_first else self.matrices):
            reduce = bound * len(M) * p2 >= EXACT_LIMIT
            bound = (self.half if reduce else bound) * len(M) * p2
            out.append((M, reduce, bound))
        return out

    def _reduce(self, x: np.ndarray) -> np.ndarray:
        """x - p * rint(x / p) in place: the residue of x with |residue| <=
        p // 2 + 2, for |x| < EXACT_LIMIT = 2^52 (the computed quotient is
        within 2/p of x / p, so its rounding within 1/2 + 2/p; the product
        with p stays below 2^53 and the difference is exact)."""
        q = x * (1.0 / self.p)
        np.rint(q, out=q)
        q *= self.p
        x -= q
        return x

    def left(self, spectra: np.ndarray, inv_table: np.ndarray) -> np.ndarray:
        """v^(-1) T(X) o neg, reduced, for the spectra T(X) (the columns of
        a batch-last array): the left factor of X Y^(-1) = T(v^(-1) T(X) o
        neg . T(Y)).  Its products with reduced spectra are bounded by
        half^2, and ``__call__`` takes them unreduced."""
        return self._reduce(spectra[inv_table] * self.vinv)


def _transform(G: FiniteGroup) -> _Transform | None:
    """G's transform, or None where G has none (nonabelian, or with a
    cyclic factor past NTT_BLOCK)."""
    factors = G.cyclic_factors
    if factors is None or max(factors, default=1) > NTT_BLOCK:
        return None
    return _factor_transform(factors)


@functools.cache
def _factor_transform(factors: tuple[int, ...]) -> _Transform:
    """The transform of Z_n1 x ... x Z_nr, built once per factor tuple; it
    serves ``_transform`` and the Walsh-Hadamard spectra of ``bent``."""
    return _Transform(factors)


def _ntt_prime(low: int, e: int) -> int:
    """The least prime p > low with p = 1 (mod e)."""
    p = low + 1 + (-low) % e
    while _prime_factors(p) != [p]:
        p += e
    return p


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p."""
    qs = _prime_factors(p - 1)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def _blocks(factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Consecutive runs of factors, each of order at most NTT_BLOCK: the
    fewest stages (each one costs a pass over the data and a reduction, as
    much as about 60 madds an entry), then the least total order (the
    madds an entry of one transform)."""
    best: dict[int, tuple[int, int, list]] = {0: (0, 0, [])}  # (stages, cost, runs)
    for end in range(1, len(factors) + 1):
        options = []
        for start in range(end - 1, -1, -1):
            order = math.prod(factors[start:end])
            if order > NTT_BLOCK:
                break
            stages, cost, runs = best[start]
            options.append((stages + 1, cost + order, runs + [factors[start:end]]))
        best[end] = min(options, key=lambda o: o[:2])
    return best[len(factors)][2]


def _block_matrix(block: tuple[int, ...], p: int, g: int) -> np.ndarray:
    """Kronecker product of the root-of-unity matrices W_n[j, m] = w_n^(jm)
    over the block's factors, entries reduced to |entry| <= p // 2."""
    M = np.ones((1, 1), dtype=np.int64)
    for n in block:
        w = pow(g, (p - 1) // n, p)
        powers = np.array([pow(w, k, p) for k in range(n)], dtype=np.int64)
        ids = np.arange(n)
        M = np.kron(M, powers[np.outer(ids, ids) % n]) % p
    return np.where(M > p // 2, M - p, M).astype(np.float64)


# -- products of subsets -----------------------------------------------------------


class RowProducts:
    """The products X_s X_t^(-1) among the rows of one 0/1 indicator matrix.

    ``rows`` (n x v) are indicator rows as ``indicators`` builds them; they
    are prepared once (transformed, on the transform route), and each call
    ``products(left, right)`` with two index sequences returns the array P
    of shape (a, b, v), P[s, t] the coefficients of X_left[s]
    X_right[t]^(-1).  Entries are exact integers in [0, v] held as float32.

    On the transform route (groups with a transform, of order at least
    NTT_MIN_ORDER) each left row is one pointwise product with the right
    rows' spectra and one transform.  On the table route the
    coefficient of h is sum_z Y[z] X[h z], so one table gather X[table]
    (v x v) and one float32 GEMM against the right rows give a whole row,
    in any group.  The gather runs in blocks of at most SCRATCH_BYTES of
    float32 (several left rows at small v, slices of one row's table at
    large v).
    float32 is exact: every addend is 0 or 1, so every partial sum is an
    integer in [0, v] with v <= MAX_TABLE_ORDER = 4096 < 2^24.
    """

    def __init__(self, G: FiniteGroup, rows: np.ndarray):
        self.group = G
        self.rows = rows
        self._transform = _transform(G) if G.order >= NTT_MIN_ORDER else None
        if self._transform is not None:
            self._spectra = self._transform(rows, 1, True)

    def __call__(self, left, right) -> np.ndarray:
        G, v = self.group, self.group.order
        left, right = np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
        out = np.empty((len(left), len(right), v), dtype=np.float32)
        tr = self._transform
        if tr is not None:
            spectra = self._spectra[:, _span(right)]
            lefts = tr.left(self._spectra[:, _span(left)], G.inv_table)
            pointwise = np.empty_like(spectra)
            for s in range(len(left)):
                np.multiply(spectra, lefts[:, s:s + 1], out=pointwise)
                out[s] = tr(pointwise, tr.half ** 2, False)
            return out
        R = self.rows[right]
        # blocks of c left rows times hc values of h: c * hc * v float32 entries
        hc = min(v, _scratch_rows(4 * v))
        c = _scratch_rows(4 * hc * v)
        for s in range(0, len(left), c):
            for h in range(0, v, hc):
                gathered = self.rows[left[s:s + c]][:, G.table[h:h + hc]]  # [s, h, z] = X_s[h z]
                if hc == v:
                    np.matmul(R, gathered.transpose(0, 2, 1), out=out[s:s + c])
                else:
                    out[s:s + c, :, h:h + hc] = np.matmul(R, gathered.transpose(0, 2, 1))
        return out


def _span(ids: np.ndarray):
    """``ids`` as a slice when they run consecutively (so that indexing by
    them takes a view, not a copy), else ``ids`` itself."""
    if len(ids) and (np.diff(ids) == 1).all():
        return slice(int(ids[0]), int(ids[-1]) + 1)
    return ids


def pair_products(G: FiniteGroup, left, right) -> np.ndarray:
    """Every product of a left set with the inverse of a right set.

    ``left`` (a x v) and ``right`` (b x v) hold 0/1 indicator rows of subsets
    X_1..X_a and Y_1..Y_b.  Returns the float32 array P of shape (a, b, v)
    with P[s, t] the coefficients of X_s Y_t^(-1) (see ``RowProducts``).
    Rows that are not 0/1 are rejected, since they would void the
    exactness bounds of both routes.
    """
    L = _indicator_rows(G, left, "left")
    R = _indicator_rows(G, right, "right")
    return RowProducts(G, np.concatenate([L, R]))(range(len(L)), range(len(L), len(L) + len(R)))


def indicators(G: FiniteGroup, sets) -> np.ndarray:
    """0/1 indicator rows (float32, shape (n, v)) of subsets given by ids,
    ready for ``RowProducts``."""
    return _indicator_matrix(G, _subset_rows(G, sets))


def _indicator_matrix(G: FiniteGroup, ids) -> np.ndarray:
    """``indicators`` of checked ids (an (n, k) array or a list of arrays)."""
    out = np.zeros((len(ids), G.order), dtype=np.float32)
    if isinstance(ids, np.ndarray):
        # one flat scatter: a two-axis fancy index takes about three times as long
        out.reshape(-1)[(ids + G.order * np.arange(len(ids))[:, None]).ravel()] = 1
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
    """Coefficients of S S^(-1) for each subset S (int64, shape (n, v)),
    counted exactly in every group (``_count_autocorrelations``).

    Each S is an iterable of distinct element ids, or ``sets`` is one
    (n, k) array of id rows.
    """
    out = np.empty((len(sets), G.order), dtype=np.int64)
    for start, block in autocorrelation_blocks(G, _subset_rows(G, sets)):
        out[start:start + len(block)] = block
    return out


def coefficient_autocorrelations(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """C C^(-1) (int64, (n, w)) for each integer row C over the group with
    table ``table``, a quotient's say: coefficient h is sum_y C[h y] C[y],
    one gather and row-wise dot per h; exact in int64 for nonnegative rows,
    whose w coefficients sum to (sum of C)^2."""
    out = np.empty((len(rows), len(table)), dtype=np.int64)
    for h, row in enumerate(table):
        out[:, h] = np.einsum("ij,ij->i", rows[:, row], rows)
    return out


def autocorrelation_blocks(G: FiniteGroup, ids):
    """``autocorrelations`` a block of sets at a time, on the checked ids
    that ``_subset_rows`` returns: yields (start, the block's rows), so a
    caller can reduce each block as it comes out.

    Sets of one size are counted in blocks of their quotients and counts,
    at most SCRATCH_BYTES of 8-byte values each, as ``np.bincount`` takes
    and gives them; a list of sets of several sizes is counted one set at
    a time.
    """
    if isinstance(ids, np.ndarray):
        step = _scratch_rows(8 * max(ids.shape[1] ** 2, G.order))
        for start in range(0, len(ids), step):
            yield start, _count_autocorrelations(G, ids[start:start + step])
    else:
        for start, S in enumerate(ids):
            yield start, _count_autocorrelations(G, S[None])


def character_norm_blocks(G: FiniteGroup, ids):
    """``_character_norms`` a block of sets at a time, on the checked ids
    that ``_subset_rows`` returns, in a group with a transform: yields
    (start, the block's norms), each block at most SCRATCH_BYTES of float64
    rows."""
    step = _scratch_rows(8 * G.order)
    for start in range(0, len(ids), step):
        yield start, _character_norms(G, ids[start:start + step])


def _character_norms(G: FiniteGroup, sets) -> np.ndarray:
    """|chi(S)|^2 at every character chi, mod p: T(S) . T(S) o neg = T(S
    S^(-1)) (see ``_Transform``), reduced (|entry| <= ``half``), for each
    set's 0/1 indicator row; a batch-last (v, n) float64 array, from one
    forward transform and no inverse.  The pointwise products of reduced
    spectra are below half^2 < EXACT_LIMIT, so ``_reduce`` takes them."""
    tr = _transform(G)
    spectra = tr(_indicator_matrix(G, sets), 1, True)
    return tr._reduce(spectra[G.inv_table] * spectra)


def _count_autocorrelations(G: FiniteGroup, sets: np.ndarray) -> np.ndarray:
    """S S^(-1) for each row of an (n, k) array of distinct ids: an exact
    integer count of the quotients s t^(-1) over all pairs of S.
    table[S[:, :, None], inv[S[:, None, :]]] gives every quotient of each
    set, offset by v times its row, and one bincount counts them all
    (``autocorrelation_blocks`` keeps a block within the scratch bound)."""
    v = G.order
    quot = G.table[sets[:, :, None], G.inv_table[sets][:, None, :]]
    quot += (v * np.arange(len(sets), dtype=np.int32))[:, None, None]
    return np.bincount(quot.ravel(), minlength=len(sets) * v).reshape(-1, v)


def _subset_rows(G: FiniteGroup, sets):
    """The ids of each subset, through the id door ``groups._id_array``: one
    (n, k) int64 array when ``sets`` is one or holds sets of one size k,
    else a list of int64 arrays.  Rejects a set that is no flat sequence of
    ids (one id, or a nested one) and a set with a repeated id."""
    if isinstance(sets, np.ndarray) and sets.ndim == 2:
        rows = _id_array(G, sets)
    else:
        rows = [_id_array(G, S) for S in sets]
        shapes = {np.shape(S) for S in rows}
        if any(len(shape) != 1 for shape in shapes):
            raise ValueError("each set must be a flat sequence of ids, not one id or nested rows")
        if len(shapes) == 1:
            rows = np.stack(rows)
    for S in [rows] if isinstance(rows, np.ndarray) else rows:
        S = np.sort(S, axis=-1)
        if (S[..., 1:] == S[..., :-1]).any():
            raise ValueError("subset contains a repeated element")
    return rows

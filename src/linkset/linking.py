"""Reduced and full linking systems of difference sets: verification,
interconversion, (mu, nu) arithmetic, and reversibility checks.

Every linking decision is one pair check, ``PairCheck``: over one batch
of difference sets with common parameters, under the (mu, nu) branch that
each call names, it computes the full product rows D_i D_j^(-1) of the
pairs i < j in blocks (``PairCheck._upper``) and keeps the pairs valued in
{mu, nu}: those are the linked pairs (the lemma in its docstring), and each
(j, i) follows from (i, j) by the involution.  Two results read that one
pass: ``links``, the linked pairs, for the census and the sweeps
(``search``), and ``witness_ids``, every pair's mu-support or None, for
``verify_reduced`` and ``verify_full`` (the theorem in its docstring).
Nothing else here makes products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import group_ring as rg
from .designs import (
    DifferenceSetRecord,
    DSParams,
    _autocorrelation_params,
    _inverse_closed,
    complement,
    is_difference_set,  # noqa: F401  bench/test_bench.py checks the tracer wraps it here
)
from .groups import FiniteGroup, _scratch_rows


@dataclass(frozen=True)
class MuNu:
    mu: int
    nu: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.mu, self.nu)


def mu_nu_candidates(params: DSParams) -> list[MuNu]:
    """Integer (mu, nu) branches allowed by nu = k(k +/- sqrt(n))/v and
    mu = nu -/+ sqrt(n); empty when n is not a positive perfect square
    (n = 0 would give mu = nu, which decomposes nothing)."""
    v, k, _, n = params.as_tuple()
    root = math.isqrt(n)
    if root == 0 or root * root != n:
        return []
    out = []
    for sign in (1, -1):
        num = k * (k + sign * root)
        if num % v == 0:
            nu = num // v
            out.append(MuNu(nu - sign * root, nu))
    return out


@dataclass(frozen=True)
class ReducedLinkingSystem:
    """Difference sets D_1..D_l with a common (mu, nu) and, for each ordered
    pair (i, j) of distinct 1-based indices, the witness set D(i, j) with
    D_i D_j^(-1) = (mu - nu) D(i, j) + nu G.

    The witnesses are held as one (l(l-1), k) int32 array of sorted element ids,
    ``witness_ids``, one row per pair in the order (1,2), (1,3), ..., (l,l-1):
    pair (i, j) is row ``pair_row(i, j)``.
    """

    group: FiniteGroup
    records: tuple[DifferenceSetRecord, ...]
    munu: MuNu
    witness_ids: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.records)

    @property
    def params(self) -> DSParams:
        return self.records[0].params

    def sets(self) -> list[tuple[int, ...]]:
        return [r.elements for r in self.records]

    def pairs(self) -> list[tuple[int, int]]:
        """The ordered pairs (i, j) in the row order of ``witness_ids``."""
        ell = self.size
        return [(i, j) for i in range(1, ell + 1) for j in range(1, ell + 1) if i != j]

    def pair_row(self, i: int, j: int) -> int:
        """The row of ``witness_ids`` that holds D(i, j)."""
        return (i - 1) * (self.size - 1) + j - 1 - (j > i)

    @cached_property
    def witnesses(self) -> dict[tuple[int, int], DifferenceSetRecord]:
        """The witness record of each ordered pair, in row order, built from
        ``witness_ids`` on first use."""
        G, params = self.group, self.params
        return {pair: DifferenceSetRecord._of_sorted(G, tuple(ids), params)
                for pair, ids in zip(self.pairs(), self.witness_ids.tolist())}


@dataclass(frozen=True)
class LinkingSystem:
    """A full system: difference sets D_(i,j) for 0 <= i != j <= l."""

    group: FiniteGroup
    entries: dict[tuple[int, int], DifferenceSetRecord]
    munu: MuNu

    @property
    def top_index(self) -> int:
        return max(i for i, _ in self.entries)


def verify_reduced(G: FiniteGroup, sets) -> ReducedLinkingSystem | None:
    """Check Definition-level linking of a list of element sets: every set
    a difference set with common parameters, and under a single (mu, nu)
    branch every ordered pair linked, by ``PairCheck.witness_ids`` over the
    sets, which stops at the first pair that does not link and otherwise
    writes the supports in pair order.  Returns the verified system or None."""
    if len(sets) < 2:
        return None
    check = PairCheck(G, sets)
    if check.params is None:
        return None
    for munu in mu_nu_candidates(check.params):
        found = check.witness_ids(munu)
        if found is not None:
            records = tuple(DifferenceSetRecord._of_sorted(G, tuple(S), check.params)
                            for S in np.sort(check.ids, axis=-1).tolist())
            return ReducedLinkingSystem(G, records, munu, found)
    return None


class PairCheck:
    """The pair check over one batch of sets (an (n, k) id array or a list
    of sets; malformed ids raise ValueError): the ordered pairs of distinct
    sets that link under a (mu, nu) branch, and their mu-supports.  One
    batch of ``designs._autocorrelation_params`` (on the spectrum, where
    the group has a transform) gives ``params``, the sets' common
    ``DSParams``, or None.  Every call names its (mu, nu), and ``check_branch`` raises
    ValueError before any product unless it is a branch of ``params``, so
    no pair is checked unless both preconditions of the lemma below hold;
    a pair then links iff its product is valued in {mu, nu}.

    Lemma.  Let D_i, D_j be (v, k, lambda) difference sets in a group G,
    n = k - lambda, and (mu, nu) a branch of ``mu_nu_candidates``, so that
    (mu - nu)^2 = n > 0 and mu k + nu (v - k) = k^2.  If X = D_i D_j^(-1)
    has every coefficient in {mu, nu}, its mu-support W is a (v, k, lambda)
    difference set.

    Proof.  Write X = (mu - nu) W + nu G.  The coefficients of X sum to
    k^2 = (mu - nu)|W| + nu v, and k^2 = (mu - nu) k + nu v, so |W| = k.
    In any group D^(-1) D = n + lambda G holds with D D^(-1) = n + lambda G
    (the dual of a symmetric design is one: Beth, Jungnickel, Lenz, Design
    Theory, ch. VI), so X X^(-1) = D_i (n + lambda G) D_i^(-1)
    = n^2 + (n lambda + lambda k^2) G, and X G = G X^(-1) = k^2 G.  Hence
    n W W^(-1) = (X - nu G)(X^(-1) - nu G) = n^2 + c G for an integer c,
    and W W^(-1) = n + c' G with c' = c / n an integer, the coefficient of
    W W^(-1) at any g != 1.  So W is a difference set, and its coefficient
    at 1, |W| = k = n + c', gives c' = lambda.
    """

    def __init__(self, G: FiniteGroup, sets):
        # checked and converted once: the difference-set batch and the products read ``ids``
        self.group, self.ids = G, rg._subset_rows(G, sets)
        k, lam = _autocorrelation_params(G, self.ids)  # lambda -1: no difference set
        common = len(k) > 0 and lam[0] >= 0 and (k == k[0]).all() and (lam == lam[0]).all()
        self.params = (DSParams(G.order, int(k[0]), int(lam[0]), int(k[0] - lam[0]))
                       if common else None)

    def check_branch(self, munu: MuNu) -> None:
        """Raise ValueError unless ``params`` is set and (mu, nu) one of its branches."""
        if self.params is None or munu not in mu_nu_candidates(self.params):
            raise ValueError(f"(mu, nu) = {munu.as_tuple()} needs difference sets with common "
                             f"parameters that it is a branch of, got {self.params}")

    @cached_property
    def _products(self) -> rg.RowProducts:
        """The product rows of the batch, built on first use for every branch."""
        return rg.RowProducts(self.group, rg._indicator_matrix(self.group, self.ids))

    def links(self, munu: MuNu, rows: range | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (i, j), i < j, with i in ``rows`` (by default every
        set) that link under (mu, nu), as two int64 arrays in order of
        (i, j); (j, i) links too (the involution in ``_upper``).  The
        --jobs pool maps this over ranges of rows."""
        found = []
        for block, cols, linked, _ in self._upper(munu, rows):
            s, t = np.nonzero(linked)
            found.append((block[s], cols[t]))
        i, j = (np.concatenate(part) for part in zip((np.zeros(0, dtype=np.int64),) * 2, *found))
        return i, j

    def witness_ids(self, munu: MuNu) -> np.ndarray | None:
        """The mu-supports under (mu, nu) of every ordered pair of distinct
        sets, one (n(n-1), k) int32 id array in
        ``ReducedLinkingSystem.pair_row`` order, or None from the first pair
        that does not link.  Each support is written once, as its block
        comes out, with W_ji = W_ij^(-1)."""
        self.check_branch(munu)
        n, k, v = len(self.ids), self.params.k, self.group.order
        out = np.empty((n * (n - 1), k), dtype=np.int32)
        for block, cols, linked, is_mu in self._upper(munu):
            s, t = np.nonzero(linked)
            if len(s) < (n - 1 - block).sum():  # row i holds the n-1-i pairs (i, j > i)
                return None
            i, j = block[s], cols[t]
            found = (np.flatnonzero(is_mu[s, t]) % v).astype(np.int32).reshape(len(s), k)
            out[i * (n - 1) + j - 1] = found  # |W| = k by the lemma
            out[j * (n - 1) + i] = np.sort(self.group.inv_table[found], axis=1)
        return out

    def _upper(self, munu: MuNu, rows: range | None = None):
        """The pair pass under (mu, nu) over the pairs i < j with i in
        ``rows`` (by default every set): per block of those left rows
        against every later set (float32 product rows within SCRATCH_BYTES,
        or one row), one ``RowProducts`` call and one comparison with mu yield
        (block, cols, linked, is_mu): the block's left rows and the later
        sets as int64 arrays, the (len(block), len(cols)) bool mask of the
        pairs i < j valued in {mu, nu}, and the mu-masks of the block's
        product rows.  ``check_branch`` runs before the first product.

        Involution.  The map x -> x^(-1) of Z[G], the coefficient of g moved
        to g^(-1), reverses products in any group: (XY)^(-1) = Y^(-1) X^(-1).
        So D_j D_i^(-1) = (D_i D_j^(-1))^(-1), whose coefficient at g is that
        of D_i D_j^(-1) at g^(-1).  Hence (j, i) is valued in {mu, nu} iff
        (i, j) is, and its mu-support is W_ji = W_ij^(-1), the sorted
        ``inv_table[W_ij]``: the pairs i < j decide every ordered pair.
        """
        self.check_branch(munu)
        n, v = len(self.ids), self.group.order
        rows = range(n) if rows is None else rows
        start, stop = rows.start, min(rows.stop, n - 1)
        while start < stop:
            cols = np.arange(start + 1, n)
            block = np.arange(start, min(stop, start + _scratch_rows(4 * len(cols) * v)))
            prods = self._products(block, cols)
            is_mu = prods == munu.mu
            linked = (is_mu | (prods == munu.nu)).all(axis=2) & (cols > block[:, None])
            del prods  # the float32 block does not outlive the yield
            yield block, cols, linked, is_mu
            start = int(block[-1]) + 1


def expand(reduced: ReducedLinkingSystem) -> LinkingSystem:
    """Full system on indices 0..l: D_(i,0) = D_i, D_(0,i) = D_i^(-1), and
    D_(i,j) the stored witness for nonzero i != j."""
    G = reduced.group
    entries: dict[tuple[int, int], DifferenceSetRecord] = {}
    sets = np.array([rec.elements for rec in reduced.records], dtype=np.int64)
    inverses = np.sort(G.inv_table[sets], axis=1).tolist()
    for i, (rec, inv_set) in enumerate(zip(reduced.records, inverses), start=1):
        entries[(i, 0)] = rec
        entries[(0, i)] = DifferenceSetRecord._of_sorted(G, tuple(inv_set), rec.params)
    entries.update(reduced.witnesses)
    full = LinkingSystem(G, entries, reduced.munu)
    if not verify_full(full):
        raise ValueError("expanded system failed full verification")
    return full


def reduce_system(full: LinkingSystem) -> ReducedLinkingSystem:
    """Reduced system D_i = D_(i,0), whose witnesses are the supports that
    ``verify_full``'s pair check recomputed and compared with the entries."""
    reduced = _reduced_of(full)
    if reduced is None:
        raise ValueError("input system failed full verification")
    if reduced.size < 2:
        raise ValueError("reduction failed verification: a reduced system has two or more sets")
    return reduced


def verify_full(full: LinkingSystem) -> bool:
    """Whether ``full`` is a linking system: entries that state one set of
    parameters, (mu, nu) a branch, D_(h,i) D_(i,j) = (mu - nu) D_(h,j) + nu G
    for distinct h, i, j, and D_(i,j) = D_(j,i)^(-1).  By the theorem below,
    one ``PairCheck`` over the sets D_(i,0) and a comparison decide it.

    Theorem.  Let D_1..D_l be (v, k, lambda) difference sets and (mu, nu) a
    branch.  The entries with D_(i,0) = D_i form a full system iff all pairs
    link, D_(0,i) = D_i^(-1) and D_(i,j) = W_ij, the mu-support of D_i D_j^(-1).

    Proof.  Let a = mu - nu, so a^2 = n and nu v = k(k - a) (``mu_nu_candidates``).
    lambda (v - 1) = k(k - 1) gives k^2 - k + lambda = lambda v, so nu (k + a)
    = k(k^2 - n)/v = k lambda.  Let all pairs link, a W_ij = D_i D_j^(-1) - nu G,
    and use D^(-1) D = n + lambda G (the lemma in ``PairCheck``).  Through
    the middle index 0 the identity is the definition of W_ij.  For h = 0,
    a D_i^(-1) W_ij = n D_j^(-1) + k(lambda - nu) G, and k(lambda - nu) = a nu;
    j = 0 is the same algebra: a W_hi D_i = n D_h + k(lambda - nu) G.  For h,
    i, j >= 1, n W_hi W_ij = n D_h D_j^(-1) + (lambda k^2 - 2 nu k^2 + nu^2 v) G,
    and the bracket is k(k lambda - nu (k + a)) = 0.  W_ji = W_ij^(-1), the
    mu-support of (D_i D_j^(-1))^(-1): the transpose identity.  Conversely,
    the identity through 0 with D_(0,j) = D_(j,0)^(-1) makes D_h D_j^(-1)
    = a D_(h,j) + nu G, two-valued with mu-support D_(h,j).
    """
    return _reduced_of(full) is not None


def _reduced_of(full: LinkingSystem) -> ReducedLinkingSystem | None:
    """The reduced system D_i = D_(i,0) with witnesses D_(i,j) when ``full``
    is a linking system (``verify_full``'s check), else None."""
    G, ell = full.group, full.top_index
    idx = range(ell + 1)
    if set(full.entries) != {(i, j) for i in idx for j in idx if i != j}:
        raise ValueError("malformed system: wrong index set")
    params = next(iter(full.entries.values())).params
    records = list(full.entries.values())
    if any(rec.params != params or len(rec.elements) != params.k for rec in records):
        return None
    firsts = tuple(full.entries[(i, 0)] for i in idx[1:])
    check = PairCheck(G, np.array([rec.elements for rec in firsts], dtype=np.int64))
    if check.params != params:
        return None
    try:
        check.check_branch(full.munu)
    except ValueError:  # the stated (mu, nu) is no branch of the parameters
        return None
    supports = check.witness_ids(full.munu)
    if supports is None:
        return None
    # the D_(0,i), then the D_(i,j) in witness_ids' pair order (1,2), (1,3), ..., (l,l-1)
    stated = np.array([full.entries[(h, j)].elements for h in idx for j in idx[1:] if h != j],
                      dtype=np.int32)
    if not (np.array_equal(stated[:ell], np.sort(G.inv_table[check.ids], axis=1))
            and np.array_equal(stated[ell:], supports)):
        return None
    return ReducedLinkingSystem(G, firsts, full.munu, supports)


def reversibility_profile(reduced: ReducedLinkingSystem) -> tuple[bool, ...]:
    return tuple(_inverse_closed(reduced.group, reduced.sets()).tolist())


def is_reversible_system(reduced: ReducedLinkingSystem) -> bool:
    """True iff every difference set of the expanded full system is
    reversible.  By ``verify_full``'s theorem those sets are the D_i, their
    inverses (reversible iff D_i is) and the witnesses W_ij, so the rows of
    ``sets()`` and ``witness_ids`` decide it and nothing is expanded."""
    rows = np.concatenate([np.asarray(reduced.sets(), dtype=np.int64), reduced.witness_ids])
    return bool(_inverse_closed(reduced.group, rows).all())


def complement_system(reduced: ReducedLinkingSystem) -> ReducedLinkingSystem:
    """Complement every set; (mu', nu') = (v - 2k + nu, v - 2k + mu)."""
    G = reduced.group
    comp_sets = [complement(r).elements for r in reduced.records]
    out = verify_reduced(G, comp_sets)
    if out is None:
        raise ValueError("complement system failed verification")
    v, k = reduced.params.v, reduced.params.k
    want = (v - 2 * k + reduced.munu.nu, v - 2 * k + reduced.munu.mu)
    if out.munu.as_tuple() != want:
        raise ValueError("complement system produced unexpected (mu, nu)")
    return out

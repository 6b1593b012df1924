"""Difference-set verification, parameter arithmetic, and the classical
hyperplane-based constructions (McFarland/Dillon and Spence).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import group_ring as rg
from .groups import (
    FiniteGroup,
    Subgroup,
    _check_subgroup_of,
    _cosets,
    _distinct_cosets,
    _id_array,
    _ilog,
    _independent_basis,
    _int_scalar,
    _prime,
    _span_table,
    exponent,
    is_central,
)


@dataclass(frozen=True)
class DSParams:
    v: int
    k: int
    lam: int
    n: int

    def __post_init__(self):
        if self.n != self.k - self.lam:
            raise ValueError("n must equal k - lambda")
        if self.k * (self.k - 1) != self.lam * (self.v - 1):
            raise ValueError("counting relation k(k-1) = lambda(v-1) violated")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.n)


@dataclass(frozen=True)
class DifferenceSetRecord:
    group: FiniteGroup
    elements: tuple[int, ...]
    params: DSParams

    def __post_init__(self):
        # the ids of a set of G, through the subset door (ValueError for an
        # id that is no integer or out of range and for a repeated id), sorted
        ids = rg._subset_rows(self.group, [self.elements])[0]
        object.__setattr__(self, "elements", tuple(np.sort(ids).tolist()))

    @classmethod
    def _of_sorted(cls, group: FiniteGroup, elements: tuple[int, ...],
                   params: DSParams) -> "DifferenceSetRecord":
        """A record of ids that are already sorted and distinct (a support
        from ``np.nonzero``), built without ``__post_init__``'s normalization."""
        record = object.__new__(cls)
        object.__setattr__(record, "group", group)
        object.__setattr__(record, "elements", elements)
        object.__setattr__(record, "params", params)
        return record

    def ring_element(self) -> rg.GroupRingElement:
        return rg.from_subset(self.group, self.elements)


def is_difference_set(G: FiniteGroup, S):
    """DSParams of S if S S^(-1) = n*1 + lambda*G in Z[G], else None."""
    return difference_set_params(G, [S])[0]


def difference_set_params(G: FiniteGroup, sets) -> list:
    """is_difference_set for each of many sets, from one batch of
    ``_autocorrelation_params``."""
    v = G.order
    k, lam = _autocorrelation_params(G, rg._subset_rows(G, sets))
    return [DSParams(v, a, b, a - b) if b >= 0 else None
            for a, b in zip(k.tolist(), lam.tolist())]


def difference_set_mask(G: FiniteGroup, sets, params: DSParams) -> np.ndarray:
    """Whether each set is a difference set with parameters ``params``: a
    bool array, from one batch of ``_autocorrelation_params`` and no
    per-set objects."""
    k, lam = _autocorrelation_params(G, rg._subset_rows(G, sets))
    return (k == params.k) & (lam == params.lam) & (G.order == params.v)


def _autocorrelation_params(G: FiniteGroup, ids) -> tuple[np.ndarray, np.ndarray]:
    """(k, lambda) of each set of checked ids (as ``group_ring._subset_rows``
    returns them) as int64 arrays, lambda -1 where the set is no difference
    set.  S is a (v, k, lambda) difference set iff S S^(-1) = n + lambda G,
    n = k - lambda.

    In a group with a transform (``group_ring._Transform``, modulo a prime
    p > 2v + 4) the test is on the spectrum (Turyn: S is a difference set
    iff |chi(S)|^2 = n at every nontrivial character chi).  lambda is
    k(k - 1)/(v - 1) where that is an integer, and S is accepted iff the
    reduced P = T(S) . T(S) o neg (``group_ring._character_norms``, one
    forward transform of each block and no inverse) is n at every j != 0.
    The test is exact:

    * the coefficients of S S^(-1) and of n + lambda G lie in [0, v], so
      those of their difference lie in [-v, v], and p > 2v + 4: the
      difference is 0 iff it is 0 mod p;
    * T is invertible mod p and T(S S^(-1)) = T(S) . T(S) o neg, while
      T(n + lambda G) is n + lambda v at j = 0 and n elsewhere; so S S^(-1)
      = n + lambda G iff P = T(n + lambda G) mod p at every j;
    * every value in [0, v] has one residue r with |r| <= p // 2 + 2 (the
      bound ``_reduce`` keeps), itself, so P[j] = n mod p iff P[j] == n;
    * at j = 0, P = k^2 = n + lambda v holds iff lambda (v - 1) = k(k - 1),
      which the choice of lambda settles;
    * in the trivial group (v = 1, p = 7) k is 0 or 1, so k(k - 1) = 0 and
      lambda = 0 (the division is by max(v - 1, 1)); there is no j != 0,
      and S S^(-1) = k = n + lambda G: every set is accepted, as
      (1, k, 0, k).

    Elsewhere (nonabelian groups, or a cyclic factor past NTT_BLOCK) S
    S^(-1) itself is counted (``group_ring.autocorrelation_blocks``): k is
    its coefficient at the identity, and S is a difference set iff it is
    constant (lambda) off the identity.  On either route each block is cut
    down to (k, lambda) as it comes out of the kernel, so no (n, v) array
    of the whole batch ever exists.
    """
    v = G.order
    if rg._transform(G) is None:
        ks, lams = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for _, prods in rg.autocorrelation_blocks(G, ids):
            lam = prods[:, 1:2].sum(axis=1)  # 0 in a trivial group built from a table
            constant = (prods[:, 1:] == prods[:, 1:2]).all(axis=1)
            ks.append(prods[:, 0])
            lams.append(np.where(constant, lam, -1))
        return np.concatenate(ks), np.concatenate(lams)
    k = (np.full(len(ids), ids.shape[1], dtype=np.int64) if isinstance(ids, np.ndarray)
         else np.array([len(S) for S in ids], dtype=np.int64))
    lam, rest = np.divmod(k * (k - 1), max(v - 1, 1))
    lam[rest != 0] = -1
    n = k - lam
    for start, norms in rg.character_norm_blocks(G, ids):
        block = slice(start, start + norms.shape[1])
        lam[block] = np.where((norms[1:] == n[block]).all(axis=0), lam[block], -1)
    return k, lam


def make_record(G: FiniteGroup, S) -> DifferenceSetRecord:
    params = is_difference_set(G, S)
    if params is None:
        raise ValueError("set is not a difference set")
    return DifferenceSetRecord(G, tuple(S), params)


def complement(record: DifferenceSetRecord) -> DifferenceSetRecord:
    G = record.group
    members = set(record.elements)
    comp = tuple(a for a in G.elements() if a not in members)
    v, k, lam, n = record.params.as_tuple()
    return DifferenceSetRecord(G, comp, DSParams(v, v - k, v - 2 * k + lam, n))


def is_reversible(record: DifferenceSetRecord) -> bool:
    """True iff the set is inverse-closed (D = D^(-1))."""
    return bool(_inverse_closed(record.group, [record.elements])[0])


def _inverse_closed(G: FiniteGroup, rows) -> np.ndarray:
    """Whether each row of sorted distinct ids is reversible (D = D^(-1))."""
    rows = np.asarray(rows, dtype=np.int64)
    return (np.sort(G.inv_table[rows], axis=1) == rows).all(axis=1)


def two_group_params(r: int) -> DSParams:
    """Parameters forced on any nontrivial difference set in a group of order 2^r."""
    r = _int_scalar(r, "r")
    if r % 2 != 0 or r < 2:
        raise ValueError(f"no valid difference-set parameters in order 2^{r}")
    d = (r - 2) // 2
    return DSParams(2 ** (2 * d + 2), 2 ** d * (2 ** (d + 1) - 1),
                    2 ** d * (2 ** d - 1), 2 ** (2 * d))


def _two_group_depth(G: FiniteGroup) -> int:
    """d for a group of order 2^(2d+2), d >= 0; ValueError for any other order."""
    r = G.order.bit_length() - 1
    if 2 ** r != G.order or r % 2 != 0 or r < 2:
        raise ValueError("group order must be 2^(2d+2) with d >= 0")
    return (r - 2) // 2


def kraemer_exists(G: FiniteGroup) -> bool:
    """Kraemer's criterion: an abelian group of order 2^(2d+2) contains a
    difference set iff its exponent is at most 2^(d+2)."""
    if not G.abelian:
        raise ValueError("criterion applies to abelian groups")
    return exponent(G) <= 2 ** (_two_group_depth(G) + 2)


@dataclass(frozen=True)
class HyperplaneFamily:
    """The index-p subgroups of an elementary abelian p-group E.

    Members are enumerated as kernels of the nonzero linear functionals on E
    (normalized so the first nonzero coefficient is 1), in lexicographic
    order of the coefficient vectors; this fixes the labels H_1..H_s.
    """

    subgroup: Subgroup
    prime: int
    basis: tuple[int, ...]
    members: tuple[Subgroup, ...]

    @property
    def count(self) -> int:
        return len(self.members)


def hyperplanes(E: Subgroup, p: int, basis=None) -> HyperplaneFamily:
    """The hyperplanes of E over ``basis``, by default the greedy
    minimal-id basis of E (``groups._independent_basis``).  Every element
    of E gets its coordinate vector from ``_span_table`` (element i of the
    span has the base-p digits of i), and the kernel of each functional is
    read off one product of the coordinate matrix with the functionals,
    mod p."""
    G, p = E.group, _prime(p)
    if basis is None:
        basis = _independent_basis(G, E.elements, p)
    basis = tuple(_id_array(G, basis).tolist())
    d1 = len(basis)
    if p ** d1 != E.order:
        raise ValueError("basis size does not match the subgroup order")
    _check_elementary(E, p)
    span = _span_table(G, basis, p)
    inside = np.zeros(G.order, dtype=bool)
    inside[span] = True
    if np.count_nonzero(inside) != len(span):
        raise ValueError("basis does not span the subgroup freely")
    if not np.array_equal(np.flatnonzero(inside), E.elements):
        raise ValueError("basis span does not equal the subgroup")
    coords = np.array(list(itertools.product(range(p), repeat=d1)), dtype=np.int64)
    # the functionals: the coordinate vectors whose first nonzero entry is 1
    first_nonzero = (np.cumsum(coords != 0, axis=1) == 1) & (coords != 0)
    functionals = coords[(coords * first_nonzero).sum(axis=1) == 1]
    kernels = (coords @ functionals.T) % p == 0
    members = [Subgroup(G, span[kernel]) for kernel in kernels.T]
    if len({m.elements for m in members}) != len(members):
        raise ValueError("hyperplane enumeration produced duplicates")
    return HyperplaneFamily(E, p, basis, tuple(members))


def _check_elementary(E: Subgroup, p: int) -> None:
    """E is elementary abelian of exponent p: every element has a^p = 1."""
    if np.any(p % E.group.element_orders[list(E.elements)]):
        raise ValueError(f"subgroup is not elementary abelian of exponent {p}")


def _check_central_elementary(G: FiniteGroup, E: Subgroup, p: int, d: int) -> None:
    _check_subgroup_of(G, E)
    if not is_central(G, E):
        raise ValueError("subgroup must be central")
    if E.order != p ** (d + 1):
        raise ValueError(f"subgroup must have order {p ** (d + 1)}")
    _check_elementary(E, p)


def mcfarland_construct(G: FiniteGroup, family: HyperplaneFamily,
                        transversal_reps, assignment) -> DifferenceSetRecord:
    """Union of cosets g_{assignment[i]} H_i over the s hyperplane slots.

    ``transversal_reps`` lists one representative per coset of E (s+1 of
    them); ``assignment`` maps slot i (0-based over the s hyperplanes) to an
    index into that list, injectively, leaving exactly one coset unused.
    """
    return make_record(G, _hyperplane_sets(G, family, transversal_reps, None,
                                           assignment)[0].tolist())


def spence_construct(G: FiniteGroup, family: HyperplaneFamily,
                     transversal_reps, complemented_slot: int) -> DifferenceSetRecord:
    """Coset of E minus H_m at one slot plus cosets of the other hyperplanes."""
    return make_record(G, _hyperplane_sets(G, family, transversal_reps, complemented_slot,
                                           range(family.count))[0].tolist())


def construction_sets(family: HyperplaneFamily, reps,
                      complemented_slot: int | None = None) -> np.ndarray:
    """Every set the McFarland construction (``complemented_slot`` None) or
    the Spence construction (slot m) gives over ``family`` (``_hyperplane_sets``):
    an (N, k) int64 array, one sorted row per choice, duplicates kept."""
    return _hyperplane_sets(family.subgroup.group, family, reps, complemented_slot)


def _hyperplane_sets(G: FiniteGroup, family: HyperplaneFamily, reps,
                     complemented_slot: int | None, assignment=None) -> np.ndarray:
    """The one builder behind the three fronts, and the one scope that
    checks their preconditions: E central elementary abelian of order
    p^(d+1) and of index s + 1 (McFarland, no ``complemented_slot``) or s
    (Spence: p = 3 and a slot m in 0..s-1), one representative per coset
    of E, and integers (``groups._int_scalar``) for m and ``assignment``.

    Slot i of a set is the coset c_a(i) t_i P_i, P_i being H_i, or E minus
    H_m at slot m.  An ``assignment`` (an injective map from the slots to
    ``reps``) gives one set, with a = assignment and t_i = 1.  Without one,
    a runs over the injective maps (``itertools.permutations`` order) and
    t_i over the minimal-id transversal of H_i in E (``itertools.product``
    order, inner).  Both constructions give v = |G|, n = p^(2d) and k the
    sum of the slot sizes; as v and k fix lambda and n of any difference
    set, a row that ``make_record`` accepts has these parameters."""
    E, p, s, m = family.subgroup, family.prime, family.count, complemented_slot
    if m is not None and p != 3:
        raise ValueError("the Spence construction works over GF(3)")
    if m is not None and not 0 <= _int_scalar(m, "complemented slot") < s:
        raise ValueError("complemented slot out of range")
    cosets = s + 1 if m is None else s
    d = _ilog(E.order, p) - 1
    _check_central_elementary(G, E, p, d)
    if G.order != E.order * cosets:
        raise ValueError(f"subgroup index must be {'s + 1' if m is None else 's'}")
    reps = _id_array(G, reps)
    if len(reps) != cosets:
        raise ValueError(f"expected {cosets} coset representatives, got {len(reps)}")
    _distinct_cosets(G, E, reps)
    parts = _slot_parts(family, m)
    k, n = sum(map(len, parts)), p ** (2 * d)
    DSParams(G.order, k, k - n, n)  # ValueError unless v and k give n = p^(2d)
    if assignment is None:
        maps = np.array(list(itertools.permutations(range(cosets), s)), dtype=np.int64)
        # the cosets of H_i inside E are the ones whose minimal element is in E
        translates = [minima[np.isin(minima, E.elements)]
                      for minima in (_cosets(G, H)[1] for H in family.members)]
    else:
        maps = [_int_scalar(a, "assignment entry") for a in assignment]
        if len(maps) != s or not all(0 <= a < cosets for a in maps) or len(set(maps)) != s:
            raise ValueError("assignment must injectively map the s slots into the s+1 cosets")
        maps = np.array([maps], dtype=np.int64)
        translates = [np.zeros(1, dtype=np.int64)] * s
    picks = np.array(list(itertools.product(*(range(len(t)) for t in translates))),
                     dtype=np.int64)
    slot_reps = np.empty((len(maps), len(picks), s), dtype=np.int64)
    for i in range(s):
        # table[coset, translate]: the coset representative of slot i
        slot_reps[:, :, i] = G.table[reps[maps[:, i]][:, None], translates[i][picks[:, i]]]
    return _coset_unions(G, slot_reps.reshape(-1, s), parts)


def _slot_parts(family: HyperplaneFamily, m: int | None) -> list[np.ndarray]:
    """H_i per slot, or E minus H_m at the complemented slot m."""
    parts = [np.array(H.elements, dtype=np.int64) for H in family.members]
    if m is not None:
        E = np.array(family.subgroup.elements, dtype=np.int64)
        parts[m] = E[~np.isin(E, parts[m])]
    return parts


def _coset_unions(G: FiniteGroup, slot_reps, parts) -> np.ndarray:
    """Row r: the union over slots i of slot_reps[r][i] * parts[i], sorted."""
    slot_reps = np.asarray(slot_reps, dtype=np.int64)
    rows = np.concatenate([G.table[slot_reps[:, i, None], part[None, :]]
                           for i, part in enumerate(parts)], axis=1).astype(np.int64)
    rows.sort(axis=1)
    return rows

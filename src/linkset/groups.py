"""Finite groups on dense element ids 0..v-1 with precomputed tables.

Element id 0 is always the identity.  Every group carries a full v x v
multiplication table (groups here are desk-scale, v <= 4096), an inverse
table, and printable element names built from generator words such as
``x1^3*x2`` or ``a^2*b``.

Work over many elements is a table gather, not a loop of scalar products:
``FiniteGroup.element_orders`` caches the order of every element, which
``element_order``, ``exponent``, ``abelian_invariants`` and the torsion
filters read, and subgroup closures and spans grow by gathers into
membership masks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_TABLE_ORDER = 4096
# Bytes of scratch that any batched loop of the package holds at once, read
# at call time through ``_scratch_rows``: each loop takes as many rows of its
# own dtype as fit, so no temporary grows with the batch or the order.
SCRATCH_BYTES = 1 << 18


def _scratch_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes fit in SCRATCH_BYTES: the step
    of a batched loop, at least one row."""
    return max(1, SCRATCH_BYTES // max(1, row_bytes))


class FiniteGroup:
    """A finite group with elements 0..order-1 and id 0 the identity."""

    def __init__(
        self,
        table: np.ndarray,
        names: list[str],
        generators: list[tuple[str, int]],
        spec: object,
        cyclic_factors: tuple[int, ...] | None = None,
    ):
        _check_table_order(len(table))
        self.table = np.ascontiguousarray(table, dtype=np.int32)
        self.order = int(self.table.shape[0])
        self.names = list(names)
        self.generators = list(generators)
        self.spec = spec
        self.cyclic_factors = cyclic_factors
        # the inverse of a is the position of id 0 in row a; ``_validate``
        # rejects a row that is not a permutation, so that position is unique
        self.inv_table = self.table.argmin(axis=1).astype(np.int32)
        self.abelian = _commutes(self.table)
        self._name_to_id = {n: i for i, n in enumerate(self.names)}
        self._validate()

    def _validate(self) -> None:
        v = self.order
        ids = np.arange(v)
        if not np.array_equal(self.table[0], ids):
            raise ValueError("id 0 is not a left identity")
        if not np.array_equal(self.table[:, 0], ids):
            raise ValueError("id 0 is not a right identity")
        # cancellation: each row and each column is a permutation, checked
        # a block of table rows (or columns) at a time
        if self.table.min() < 0 or self.table.max() >= v:
            raise ValueError("a table row is not a permutation")
        step = _scratch_rows(v * self.table.itemsize)
        if not all(_rows_permute(self.table[a:a + step]) for a in range(0, v, step)):
            raise ValueError("a table row is not a permutation")
        if self.abelian:
            return  # the columns are the rows
        if not all(_rows_permute(self.table[:, a:a + step].T) for a in range(0, v, step)):
            raise ValueError("a table column is not a permutation")

    # -- basic operations ----------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return int(self.table[_id_array(self, a), _id_array(self, b)])

    def inv(self, a: int) -> int:
        return int(self.inv_table[_id_array(self, a)])

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        return self.names[_id_array(self, a)]

    @cached_property
    def name_array(self) -> np.ndarray:
        """The element names as an object array: ``name_array[ids]`` names
        many ids at once."""
        return np.array(self.names, dtype=object)

    def element_ids(self, names) -> list[int]:
        """``element`` of each name in a list: one dict lookup per name
        while every name is an exact element name, and ``element``'s parser
        for all of them after a miss (an equivalent generator word, or a
        name that raises ValueError)."""
        try:
            return list(map(self._name_to_id.__getitem__, names))
        except (KeyError, TypeError):
            return [self.element(n) for n in names]

    def element(self, name: str) -> int:
        """Parse a generator word like ``x1^3*x2`` (identity is ``1``)."""
        name = name.strip()
        if name in self._name_to_id:
            return self._name_to_id[name]
        if name == "1":
            return 0
        gens = dict(self.generators)
        acc = 0
        for token in name.split("*"):
            base, sep, exp = token.strip().partition("^")
            if base not in gens:
                raise ValueError(f"unknown generator {base!r} in element name {name!r}")
            acc = int(self.table[acc, self.power(gens[base], int(exp) if sep else 1)])
        return acc

    @cached_property
    def element_orders(self) -> np.ndarray:
        """The order of every element as an int64 array, one ladder per
        prime p dividing |G|: with p^k the largest power of p dividing |G|,
        b = a^(|G|/p^k) has order the p-part of a's order, p^i for the least
        i with b^(p^i) = 1, so the ladder raises every b not yet at the
        identity to the p-th power, at most k times.  Each power is a
        square-and-multiply over all those elements at once: O(log |G|)
        gathers per prime."""
        v = self.order
        orders = np.ones(v, dtype=np.int64)
        for p in _prime_factors(v):
            q = p
            while v % (q * p) == 0:
                q *= p
            live = np.arange(v)
            powers = _power_gather(self.table, live, v // q)
            keep = powers != 0
            while keep.any():
                live, powers = live[keep], powers[keep]
                orders[live] *= p
                powers = _power_gather(self.table, powers, p)
                keep = powers != 0
        return orders

    def element_order(self, a: int) -> int:
        return int(self.element_orders[_id_array(self, a)])

    def power(self, a: int, e: int) -> int:
        """a^e by square-and-multiply over the table, two lookups per bit of
        |e|; a negative e powers a^(-1).  ValueError unless e is an int or
        a numpy integer (a bool, a float or a string is none)."""
        a = _id_array(self, a)
        e = _int_scalar(e, "exponent")
        return int(_power_gather(self.table, self.inv_table[a] if e < 0 else a, abs(e)))

    def __repr__(self) -> str:
        kind = "abelian" if self.abelian else "nonabelian"
        return f"FiniteGroup(order={self.order}, {kind}, spec={self.spec!r})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted element-id list."""

    group: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        G = self.group
        inside = np.zeros(G.order, dtype=bool)
        inside[_id_array(G, self.elements)] = True
        e = np.flatnonzero(inside)
        object.__setattr__(self, "elements", tuple(e.tolist()))
        if not inside[0]:
            raise ValueError("subgroup must contain the identity")
        # the first element, in id order, with its inverse or a product
        # outside the set names the failure
        no_inverse = ~inside[G.inv_table[e]]
        bad = np.flatnonzero(no_inverse | ~inside[G.table[np.ix_(e, e)]].all(axis=1))
        if len(bad):
            raise ValueError("subgroup not closed under inverses" if no_inverse[bad[0]]
                             else "subgroup not closed under products")
        if G.order % len(e) != 0:
            raise ValueError("subgroup order does not divide group order")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in set(self.elements)


@dataclass(frozen=True)
class CosetTransversal:
    """One representative per left coset of a subgroup; identity represents H."""

    subgroup: Subgroup
    reps: tuple[int, ...]

    def __post_init__(self):
        H = self.subgroup
        if len(_distinct_cosets(H.group, H, self.reps)) != H.group.order // H.order:
            raise ValueError("coset representatives do not cover the group")


def _commutes(table: np.ndarray) -> bool:
    """Whether the table equals its transpose, compared one square tile of
    at most SCRATCH_BYTES (and at least one entry) at a time against its
    mirror tile, over the tiles on and above the diagonal."""
    v, side = len(table), math.isqrt(_scratch_rows(table.itemsize))
    return all(np.array_equal(table[a:a + side, b:b + side], table[b:b + side, a:a + side].T)
               for a in range(0, v, side) for b in range(a, v, side))


def _rows_permute(block: np.ndarray) -> bool:
    """Whether each row of an (r, v) block of entries in 0..v-1 is a
    permutation: row i marks i*v + each of its entries in one flat mask of
    r*v, and every mark must be hit."""
    r, v = block.shape
    seen = np.zeros(r * v, dtype=bool)
    seen[block + (np.arange(r) * v)[:, None]] = True  # intp positions: int32 ones get a cast
    return bool(seen.all())


def _id_array(G: FiniteGroup, ids) -> np.ndarray:
    """The element ids ``ids`` (an array, or a sequence of ids or of rows of
    ids) as an int64 array of their shape, and one id (an int or a numpy
    integer, from a scalar accessor) as an int: the one door through which
    every public entry lets ids in.  ValueError names the first value that
    is no integer (a float, a bool, a string: numpy reads True and 1.5 as 1)
    or no id of G (outside 0..|G|-1: numpy wraps -1 round to |G|-1)."""
    if one := type(ids) is int or isinstance(ids, np.integer):
        arr = lo = hi = int(ids)
    else:
        arr = ids
        if not isinstance(ids, np.ndarray):
            if isinstance(ids, str) or not hasattr(ids, "__iter__"):
                ids = [ids]  # one value that is no id (1.5, True, "1"), for the scan below
            arr = np.asarray(ids := list(ids))
            if arr.dtype.kind not in "iu" or not {bool, np.bool_}.isdisjoint(map(
                    type, ids if arr.ndim == 1 else np.asarray(ids, dtype=object).flat)):
                arr = np.asarray(ids, dtype=object)  # the values as given, for the scan below
        if arr.dtype.kind not in "iu":
            for x in arr.flat:
                if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
                    raise ValueError(f"element id {x!r} is not an integer")
        lo, hi = (arr.min(), arr.max()) if arr.size else (0, 0)
    if lo < 0 or hi >= G.order:
        bad = arr if one else arr[(arr < 0) | (arr >= G.order)].flat[0]
        raise ValueError(f"element id {bad} out of range for a group of order {G.order}")
    return arr if one else arr.astype(np.int64, copy=False)


def _int_scalar(x, what: str) -> int:
    """x as an int if it is an int or a numpy integer; ValueError naming it
    as ``what`` for any other value (a bool, a float, a string)."""
    if type(x) is not int and not isinstance(x, np.integer):
        raise ValueError(f"{what} {x!r} is not an integer")
    return int(x)


def _check_table_order(v: int) -> None:
    """Reject an order past MAX_TABLE_ORDER before its v x v table exists."""
    if v > MAX_TABLE_ORDER:
        raise ValueError(f"group order {v} exceeds table limit {MAX_TABLE_ORDER}")


# -- constructors -------------------------------------------------------------


def make_abelian(invariant_factors: list[int] | tuple[int, ...]) -> FiniteGroup:
    """Direct product of cyclic groups; elements are mixed-radix exponent tuples.

    Generators are named x1, x2, ...; factor i is most significant in the id
    encoding, so the identity (all exponents zero) is id 0.
    """
    factors = tuple(int(n) for n in invariant_factors)
    if any(n < 2 for n in factors):
        raise ValueError("cyclic factors must be >= 2")
    v = 1
    for n in factors:
        v *= n
        _check_table_order(v)  # stop at the first partial product past the limit
    table = np.zeros((1, 1), dtype=np.int32)
    for n in reversed(factors):  # the long axes, the table so far, innermost
        cyclic = np.arange(n, dtype=np.int32)
        table = _product_table((cyclic[:, None] + cyclic) % n, table)
    # the name parts of factor i are "", "xi", "xi^2", ...; itertools.product
    # runs the last factor fastest, as the ids do
    parts = [[""] + [f"x{i+1}" + (f"^{e}" if e > 1 else "") for e in range(1, n)]
             for i, n in enumerate(factors)]
    names = ["*".join(filter(None, word)) or "1" for word in itertools.product(*parts)]
    weights = _radix_weights(factors)
    gens = [(f"x{i+1}", int(weights[i])) for i in range(len(factors))]
    return FiniteGroup(table, names, gens, {"abelian": list(factors)}, cyclic_factors=factors)


def _product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The table of the direct product of two tables, ids packed as
    a * len(t2) + b: T[(a1,b1),(a2,b2)] = t1[a1,a2] v2 + t2[b1,b2], written
    into one int32 array on the axes (a1, b1, a2, b2) with no temporary."""
    v1, v2 = len(t1), len(t2)
    out = np.empty((v1, v2, v1, v2), dtype=np.int32)
    np.multiply(t1[:, None, :, None], np.int32(v2), out=out)
    out += t2[None, :, None, :]
    return out.reshape(v1 * v2, v1 * v2)


def _radix_weights(factors: tuple[int, ...]) -> np.ndarray:
    w = np.ones(len(factors), dtype=np.int64)
    for i in range(len(factors) - 2, -1, -1):
        w[i] = w[i + 1] * factors[i + 1]
    return w


def _word_name(gen_names: list[str], exps) -> str:
    parts = []
    for g, e in zip(gen_names, exps):
        e = int(e)
        if e == 1:
            parts.append(g)
        elif e > 1:
            parts.append(f"{g}^{e}")
    return "*".join(parts) if parts else "1"


def _presentation_order8(twist: int, name: str) -> FiniteGroup:
    """Order-8 group <a,b> with a^4=1, b a b^-1 = a^-1, b^2 = a^twist."""
    ids = [(i, j) for j in range(2) for i in range(4)]  # id = i + 4j
    idx = {e: k for k, e in enumerate(ids)}
    table = np.zeros((8, 8), dtype=np.int32)
    for (i1, j1) in ids:
        for (i2, j2) in ids:
            i = (i1 + (i2 if j1 == 0 else -i2) + twist * j1 * j2) % 4
            j = (j1 + j2) % 2
            table[idx[(i1, j1)], idx[(i2, j2)]] = idx[(i, j)]
    names = [_word_name(["a", "b"], (i, j)) for (i, j) in ids]
    gens = [("a", idx[(1, 0)]), ("b", idx[(0, 1)])]
    return FiniteGroup(table, names, gens, name)


def make_dihedral8() -> FiniteGroup:
    """Dihedral group of order 8: a^4 = b^2 = 1, b a b^-1 = a^-1."""
    return _presentation_order8(0, "D4")


def make_quaternion8() -> FiniteGroup:
    """Quaternion group of order 8: a^4 = 1, b^2 = a^2, b a b^-1 = a^-1."""
    return _presentation_order8(2, "Q8")


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """Componentwise product; ids are packed as a*|G2| + b, names concatenate."""
    v1, v2 = G1.order, G2.order
    _check_table_order(v1 * v2)
    table = _product_table(G1.table, G2.table)
    names, gens = _product_names(G1, G2)
    factors = None
    if G1.cyclic_factors is not None and G2.cyclic_factors is not None:
        factors = G1.cyclic_factors + G2.cyclic_factors
    return FiniteGroup(table, names, gens, {"product": [G1.spec, G2.spec]},
                       cyclic_factors=factors)


def _product_names(G1: FiniteGroup, G2: FiniteGroup) -> tuple[list[str], list[tuple[str, int]]]:
    # renumber abelian generators x1..xk across the product; keep a/b as is,
    # except that a name of the second factor that the first factor uses
    # gets the first free numeric suffix (a -> a2 in D4 x D4)
    rename1, rename2 = {}, {}
    counter = itertools.count(1)
    for (gname, _), rename in [(g, rename1) for g in G1.generators] + [(g, rename2) for g in G2.generators]:
        rename[gname] = f"x{next(counter)}" if gname.startswith("x") else gname
    first = set(rename1.values())
    taken = first | set(rename2.values())
    for gname, new in rename2.items():
        if new in first:
            rename2[gname] = next(f"{new}{i}" for i in itertools.count(2)
                                  if f"{new}{i}" not in taken)
            taken.add(rename2[gname])
    v2 = G2.order

    def combined(a: int, b: int) -> str:
        p1 = _rename_word(G1.names[a], rename1)
        p2 = _rename_word(G2.names[b], rename2)
        parts = [p for p in (p1, p2) if p != "1"]
        return "*".join(parts) if parts else "1"

    names = [combined(a, b) for a in range(G1.order) for b in range(v2)]
    gens = [(rename1[n], i * v2) for n, i in G1.generators]
    gens += [(rename2[n], i) for n, i in G2.generators]
    return names, gens


def _rename_word(word: str, rename: dict[str, str]) -> str:
    if word == "1":
        return word
    out = []
    for token in word.split("*"):
        base, sep, exp = token.partition("^")
        out.append(rename[base] + sep + exp)
    return "*".join(out)


def group_from_spec(spec: object) -> FiniteGroup:
    """Build a group from its JSON description.

    Accepted forms: ``{"abelian": [4,4]}`` (a list of plain integers;
    strings, floats and booleans are rejected, not coerced), ``"D4"``,
    ``"Q8"``, and ``{"product": [spec1, spec2]}`` (a list of exactly two
    specs) nesting any of these.  A spec object has its one form key and
    no other.
    """
    if spec == "D4":
        return make_dihedral8()
    if spec == "Q8":
        return make_quaternion8()
    if isinstance(spec, dict) and len(spec) != 1:
        raise ValueError(f"a group spec object has exactly one key, got {list(spec)}")
    if isinstance(spec, dict) and "abelian" in spec:
        factors = spec["abelian"]
        if not isinstance(factors, list) or not all(
                isinstance(n, int) and not isinstance(n, bool) for n in factors):
            raise ValueError(f"abelian factors must be a list of integers, got {factors!r}")
        return make_abelian(factors)
    if isinstance(spec, dict) and "product" in spec:
        parts = spec["product"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise ValueError(f"product spec must be a list of exactly two factors, got {parts!r}")
        return direct_product(group_from_spec(parts[0]), group_from_spec(parts[1]))
    raise ValueError(f"unrecognized group spec {spec!r}")


# -- structure operations ------------------------------------------------------


def center(G: FiniteGroup) -> Subgroup:
    mask = np.all(G.table == G.table.T, axis=1)
    return Subgroup(G, np.flatnonzero(mask))


def exponent(G: FiniteGroup) -> int:
    return int(np.lcm.reduce(G.element_orders))


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Primary cyclic factors (sorted descending) of an abelian group.

    For each prime p let d_k = log_p #{g : g^(p^k) = 1}; the number of
    factors of order exactly p^k is 2*d_k - d_(k-1) - d_(k+1).
    """
    if not G.abelian:
        raise ValueError("abelian invariants require an abelian group")
    orders = G.element_orders
    out: list[int] = []
    for p in _prime_factors(G.order):
        dims = [0]
        k = 1
        while True:
            cnt = int(np.count_nonzero((p ** k) % orders == 0))
            dims.append(_ilog(cnt, p))
            if k > 1 and dims[-1] == dims[-2]:
                break
            k += 1
        dims.append(dims[-1])
        for k in range(1, len(dims) - 1):
            mult = 2 * dims[k] - dims[k - 1] - dims[k + 1]
            out.extend([p ** k] * mult)
    return tuple(sorted(out, reverse=True))


def _ilog(n: int, p: int) -> int:
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def abelian_rank(G: FiniteGroup) -> int:
    """Number of cyclic factors in the invariant decomposition (abelian only)."""
    if not G.abelian:
        raise ValueError("rank is defined here for abelian groups only")
    inv = abelian_invariants(G)
    primes = {_prime_factors(n)[0] for n in inv}
    return max((sum(1 for n in inv if n % p == 0) for p in primes), default=0)


def subgroup_generated(G: FiniteGroup, gens) -> Subgroup:
    """The closure of the identity under left and right products with the
    generators: each round gathers frontier x generator and generator x
    frontier from the table and keeps the products not yet in the
    membership mask as the next frontier."""
    gens = _id_array(G, gens)
    inside = np.zeros(G.order, dtype=bool)
    inside[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        fresh = np.zeros(G.order, dtype=bool)
        fresh[G.table[frontier[:, None], gens]] = True
        fresh[G.table[gens[:, None], frontier]] = True
        fresh &= ~inside
        inside |= fresh
        frontier = np.flatnonzero(fresh)
    return Subgroup(G, np.flatnonzero(inside))


def is_central(G: FiniteGroup, S) -> bool:
    elems = _id_array(G, S.elements if isinstance(S, Subgroup) else S)
    return bool(np.array_equal(G.table[:, elems], G.table[elems, :].T))


def is_normal(G: FiniteGroup, N: Subgroup) -> bool:
    """Whether g h g^(-1) lies in N for every g in G and h in N: one table
    gather of all the conjugates and one membership mask."""
    inside = np.zeros(G.order, dtype=bool)
    inside[list(N.elements)] = True
    conjugates = G.table[G.table[:, list(N.elements)], G.inv_table[:, None]]
    return bool(inside[conjugates].all())


def normal_series(G: FiniteGroup) -> list[Subgroup]:
    """Normal subgroups 1 = N_0 < N_1 < ... < N_t = G, N_(i+1) the normal
    closure of N_i and one g of prime order p mod N_i: central mod N_i for
    the least such p if G/N_i has a nontrivial centre (index p, so prime in
    nilpotent groups), else the g of least closure (a minimal normal subgroup
    of G/N_i is the closure of any of its elements of prime order)."""
    ids = np.arange(G.order)
    series = [Subgroup(G, (0,))]
    while series[-1].order < G.order:
        N = series[-1]
        proj = _cosets(G, N)[0]
        central = (proj[G.table] == proj[G.table.T]).all(axis=1)
        candidates = [g for p in _prime_factors(G.order // N.order)
                      for g in np.flatnonzero(proj[_power_gather(G.table, ids, p)] == 0).tolist()
                      if proj[g]]
        picks = [g for g in candidates if central[g]][:1] or candidates
        closures = (subgroup_generated(G, [*N.elements, *G.table[G.table[:, g], G.inv_table]])
                    for g in picks)  # N and the conjugates x g x^(-1)
        series.append(min(closures, key=lambda H: H.order))
    return series


def _check_subgroup_of(G: FiniteGroup, H: Subgroup) -> None:
    """ValueError unless H is a subgroup of G itself (not of a copy)."""
    if H.group is not G:
        raise ValueError("subgroup belongs to a different group")


def _cosets(G: FiniteGroup, H: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """The left coset id of every element of G and the minimal element of
    each left coset of H, ids numbered by increasing minimal element (the
    identity's coset is 0, and the minima come out sorted)."""
    _check_subgroup_of(G, H)
    reps, ids = np.unique(G.table[:, list(H.elements)].min(axis=1), return_inverse=True)
    return ids, reps


def _distinct_cosets(G: FiniteGroup, H: Subgroup, reps) -> np.ndarray:
    """The left coset id (numbered as ``_cosets`` numbers them) of each of
    the representatives ``reps``; ValueError when two of them lie in one
    coset of H."""
    ids = _cosets(G, H)[0][_id_array(G, reps)]
    if np.bincount(ids, minlength=1).max() > 1:
        raise ValueError("representatives do not lie in distinct cosets")
    return ids


def quotient(G: FiniteGroup, N: Subgroup):
    """Quotient group on coset ids plus the projection map g -> coset id.

    Coset ids are assigned in increasing order of the minimal element id in
    each coset, so the image of the identity is 0.
    """
    proj, reps = _cosets(G, N)
    if not is_normal(G, N):
        raise ValueError("subgroup is not normal; quotient undefined")
    table = proj[G.table[np.ix_(reps, reps)]]
    names = [G.names[r] for r in reps]
    gens = [(f"c{i}", i) for i in range(1, len(reps))]  # quotient generators unnamed; expose all cosets
    Q = FiniteGroup(table, names, gens, {"quotient": [G.spec, list(N.elements)]})
    return Q, proj


def coset_transversal(G: FiniteGroup, H: Subgroup) -> CosetTransversal:
    """Minimum element id per left coset, sorted; identity represents H."""
    return CosetTransversal(H, tuple(_cosets(G, H)[1].tolist()))


def find_central_elementary_abelian(G: FiniteGroup, rank: int, p: int = 2) -> list[Subgroup]:
    """All central subgroups isomorphic to Z_p^rank, in deterministic order.

    Enumerates within the elements of order dividing p inside the center,
    viewing them as a GF(p) vector space and walking echelon-form bases.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    Z = np.array(center(G).elements)
    torsion = Z[p % G.element_orders[Z] == 0].tolist()  # the a with a^p = 1
    basis = _independent_basis(G, torsion, p)
    t = len(basis)
    if t < rank:
        return []
    span = _span_table(G, basis, p)
    digits = p ** np.arange(t - 1, -1, -1)
    out = [subgroup_generated(G, span[np.array(rows) @ digits])
           for rows in _echelon_bases(t, rank, p)]
    out.sort(key=lambda s: s.elements)
    return out


def _independent_basis(G: FiniteGroup, torsion, p: int) -> list[int]:
    """The greedy basis of the span of ``torsion``: each element, in id
    order, that the basis so far does not span joins it (the span mask is
    refilled from ``_span_table``)."""
    basis: list[int] = []
    spanned = np.zeros(G.order, dtype=bool)
    spanned[0] = True
    for a in sorted(int(a) for a in torsion):
        if not spanned[a]:
            basis.append(a)
            spanned[_span_table(G, basis, p)] = True
    return basis


def _span_table(G: FiniteGroup, gens, orders) -> np.ndarray:
    """The element g_1^e_1 ... g_t^e_t of each exponent vector
    (e_1, ..., e_t) with 0 <= e_i < orders[i], in mixed-radix order (e_1
    most significant): one gather of the span so far times the powers of
    each generator.  An int ``orders`` is the same order for every
    generator.

    This is the one map from exponent vectors to ids.  Over a GF(p) basis
    it lists the span by coordinates.  Position i of the table is the id i
    of make_abelian(orders), so the table maps that group's elements to
    their words in ``gens``: over a group's own cyclic generators and
    factors it is the identity, and over other generators it is the
    section that puts a quotient's (or a product's) exponents on them."""
    if isinstance(orders, int):
        orders = [orders] * len(gens)
    span = np.zeros(1, dtype=np.int64)
    for g, n in zip(gens, orders, strict=True):
        span = G.table[span[:, None], _powers(G, int(g), int(n))].ravel()
    return span


def _power_gather(table, a, e: int):
    """a^e for e >= 0 by square-and-multiply over ``table``, two gathers per
    bit of e; ``a`` is one id or an array of ids."""
    x = 0
    while e:
        if e & 1:
            x = table[x, a]
        a = table[a, a]
        e >>= 1
    return x


def _powers(G: FiniteGroup, a: int, n: int) -> np.ndarray:
    """a^0, a^1, ..., a^(n-1) as an id array."""
    out = np.zeros(n, dtype=np.int64)
    for e in range(1, n):
        out[e] = G.table[out[e - 1], a]
    return out


def _echelon_bases(t: int, r: int, p: int):
    """Reduced-echelon r x t matrices over GF(p); one per r-dim subspace."""
    for pivots in itertools.combinations(range(t), r):
        free_pos = []
        for i in range(r):
            for j in range(t):
                if j > pivots[i] and j not in pivots:
                    free_pos.append((i, j))
        for values in itertools.product(range(p), repeat=len(free_pos)):
            rows = []
            for i in range(r):
                row = [0] * t
                row[pivots[i]] = 1
                rows.append(row)
            for (i, j), val in zip(free_pos, values):
                rows[i][j] = val
            yield [tuple(row) for row in rows]

"""Group difference matrices and the machine that turns a (G/E, m, 1)
difference matrix into a reduced linking system of difference sets.

The four drivers at the bottom (general / improved / tyken / nonreversible)
build the infinite families in abelian 2-groups, D4 x K, and Z_4^(d+1) by
one construction, ``_build_from_quotient_dm``, and differ only in the
generators they name: those of a central E = Z_2^(d+1) (also the basis of
its hyperplanes) and those of a section of G/E.  A difference matrix over
an abelian model of G/E goes into G through ``groups._span_table``, the one
map from exponent vectors to ids, then to coset unions over the hyperplanes.
Difference matrices themselves come from a pipeline: one Galois-ring
matrix per run of equal invariant factors (whole rows of ring products from
the array ``GaloisRing.mul``), composed across the runs and mapped onto the
group's factor order, then a checked-in library of matrices that neither
gives (``data/difference_matrices.json``), then a bounded search that
closes the remaining gaps at desk scale; the row-pair verifier is the sole
arbiter.

The search (``_backtrack_dm``) fills rows one at a time, column by column,
trying values in increasing order, with forward checking on one packed
Python int per open column: the mask of values that column c forbids owns
bits [c(v+1), c(v+1)+v), with a zero guard bit above it, and the int kept
for column j holds the fields of the columns after it from bit 0 up.  A
placement ORs in one kill row per earlier row, the bit of d row[c] in the
field of every column c for the difference d the placed value makes with
that row; row 0's is the low bit of every field shifted by d, and the
others are packed on first use (one numpy scatter, ``np.packbits`` and
``int.from_bytes``) and cached up to KILL_CACHE_BYTES, past which only the
fields still open are packed, on each use.  A later column with no value
left shows as one carry: adding 1 to every field carries into a guard bit.
The value side takes the AND over the later fields by log2(v) shift-ANDs:
a value is dropped too when some value not yet in the row fits no later
column (every row is a permutation of G), and values that only the next
column allows then rule out every other value there without placing it.
The search drops only partial rows that have no completion, so its first
solution is the lexicographically first matrix of the symmetry-reduced
space, and an exhausted space proves absence.  One budget node is one value
tried.  The search has two answers, the rows it found or None when its
space is exhausted (absence proved), and raises SearchInconclusive at the
node where the budget runs out; ``dm_auto`` passes each of the three on.
The value side takes Z8 x Z2 with 4 rows from 13,375 nodes to 8,547 and
Z4^2 from 4,102 to 2,696.  The README gives the times of default-budget
runs from |G| = 16 to 1024.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from .designs import (
    HyperplaneFamily,
    _check_central_elementary,
    _coset_unions,
    _two_group_depth,
    hyperplanes,
    is_reversible,
    two_group_params,
)
from .galois import GaloisRing
from .groups import (
    MAX_TABLE_ORDER,
    FiniteGroup,
    Subgroup,
    _cosets,
    _distinct_cosets,
    _id_array,
    _radix_weights,
    _span_table,
    abelian_rank,
    direct_product,
    exponent,
    make_abelian,
    make_dihedral8,
    subgroup_generated,
)
from .linking import ReducedLinkingSystem, verify_reduced

DEFAULT_SEARCH_BUDGET = 5 * 10 ** 5
# Bytes of packed kill rows the difference-matrix search caches at once
# (32 MiB, 256 rows at |G| = 1024).  A cache, not scratch: rows kept here
# are not packed again, so it trades memory for search time.
KILL_CACHE_BYTES = 1 << 25


@dataclass(frozen=True)
class DifferenceMatrix:
    """An m x (lam*|G|) array of element ids whose row-pair quotients cover
    the group exactly lam times.  ``rows`` may be given as any rows of ids
    (an int array, say); they pass the id door and are held as tuples."""

    group: FiniteGroup
    lam: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError(f"lam must be at least 1, got {self.lam}")
        if not len(self.rows):
            raise ValueError("a difference matrix needs at least one row")
        width = self.lam * self.group.order
        if any(len(row) != width for row in self.rows):
            raise ValueError(f"every row must have lam*|G| = {width} entries")
        rows = _id_array(self.group, self.rows)
        object.__setattr__(self, "rows", tuple(map(tuple, rows.tolist())))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)


def verify_dm(M: DifferenceMatrix) -> bool:
    """Exact row-pair difference-multiset check."""
    return _row_pairs_cover(M.group, M.array(), np.arange(M.group.order), M.lam)


def _row_pairs_cover(G: FiniteGroup, arr: np.ndarray, ids: np.ndarray, lam: int) -> bool:
    """Whether for every ordered pair of distinct rows i, r the quotients
    arr[i, j] arr[r, j]^(-1) fall exactly lam times into each class of
    ``ids`` (a class number 0..max for each element of G).  Row i is
    checked against all other rows with one bincount, class c of the k-th
    other row counted in bin k*width + c."""
    width = int(ids.max()) + 1
    m = len(arr)
    offsets = (np.arange(m - 1) * width)[:, None]
    for i in range(m):
        diffs = ids[G.table[arr[i], G.inv_table[np.delete(arr, i, axis=0)]]]
        if not np.all(np.bincount((diffs + offsets).ravel(), minlength=(m - 1) * width) == lam):
            return False
    return True


def normalize(M: DifferenceMatrix) -> DifferenceMatrix:
    """Make row 0 and column 0 all-identity.

    Columns are right-multiplied by b_{0,j}^{-1}; rows are then
    left-multiplied by b_{i,0}^{-1} (left so the difference property is
    preserved in nonabelian groups too; for abelian groups this is the
    textbook normalization).
    """
    if not verify_dm(M):
        raise ValueError("cannot normalize an unverified difference matrix")
    G = M.group
    arr = M.array()
    arr = G.table[arr, np.broadcast_to(G.inv_table[arr[0]], arr.shape)]
    first = G.inv_table[arr[:, 0]]
    arr = G.table[first[:, None], arr]
    out = DifferenceMatrix(G, M.lam, arr)
    if not verify_dm(out):
        raise AssertionError("normalization broke the difference property")
    return out


# -- constructions -------------------------------------------------------------


def dm_galois_ring(e: int, t: int) -> DifferenceMatrix:
    """(Z_{2^e}^t, 2^t, 1)-difference matrix from GR(2^e, t).

    Rows are indexed by the Teichmueller representatives, columns by all
    ring elements; entry (i, j) is the ring product.  Differences of
    distinct Teichmueller elements are units, so every row pair covers the
    additive group exactly once.
    """
    ring = GaloisRing(e, t)
    G = make_abelian([2 ** e] * t)
    taus = ring.teichmueller()
    products = ring.mul(taus[:, None], np.arange(ring.size))
    # ring digit i (the coefficient of X^i) is the exponent of factor i of G
    ids = _span_table(G, _radix_weights(G.cyclic_factors)[::-1], 2 ** e)[products]
    M = DifferenceMatrix(G, 1, ids)
    if not verify_dm(M):
        raise AssertionError("Galois-ring construction failed verification")
    return M


def dm_field_elementary(t: int) -> DifferenceMatrix:
    """(Z_2^t, 2^t, 1)-difference matrix b_{i,j} = a_i * a_j over GF(2^t)."""
    return dm_galois_ring(1, t)


def dm_product(M1: DifferenceMatrix, M2: DifferenceMatrix) -> DifferenceMatrix:
    """Componentwise composition over G1 x G2 with min(m1, m2) rows."""
    if M1.lam != 1 or M2.lam != 1:
        raise ValueError("product composition requires lambda = 1")
    G = direct_product(M1.group, M2.group)
    m = min(M1.num_rows, M2.num_rows)
    rows = M1.array()[:m, :, None] * M2.group.order + M2.array()[:m, None, :]
    M = DifferenceMatrix(G, 1, rows.reshape(m, -1))
    if not verify_dm(M):
        raise AssertionError("product composition failed verification")
    return M


def _factor_exponent(n: int) -> int:
    e = n.bit_length() - 1
    if 2 ** e != n:
        raise ValueError("group is not a 2-group")
    return e


def dm_auto(G: FiniteGroup, target_rows: int,
            budget: int | None = None) -> DifferenceMatrix | None:
    """A (G, m, 1)-difference matrix with m >= target_rows, or None when
    none exists.

    Pipeline: for target_rows <= 2 the identity row and the elements in id
    order; else one Galois-ring matrix per run of equal invariant factors,
    composed by ``dm_product`` (a homogeneous group is a single run) and
    mapped onto G's factor order; then the library entry over
    G.cyclic_factors, if it has at least target_rows rows (``_dm_library``;
    all its rows are returned, as the Galois route returns all of its);
    then the exact forward-checking search ``_backtrack_dm`` within
    ``budget`` nodes (default DEFAULT_SEARCH_BUDGET).  A library hit takes
    no nodes, so ``budget`` bounds the search only.  None means absence is
    proved: the search exhausted its space, or target_rows > |G|.  A search
    that runs out of budget raises SearchInconclusive.  Whatever the route,
    the matrix passes ``verify_dm`` before it is returned, and a library
    entry that fails it, names an element G lacks or has a row of the wrong
    length raises AssertionError.
    """
    if G.cyclic_factors is None:
        raise ValueError("dm_auto needs a group built from cyclic factors")
    if not G.abelian:
        raise ValueError("dm_auto handles abelian 2-groups only")
    factors = G.cyclic_factors
    for n in factors:
        _factor_exponent(n)
    if target_rows < 1:
        raise ValueError(f"a difference matrix needs at least one row, got {target_rows}")
    v = G.order
    if target_rows > v:
        return None
    positions = _sorted_positions(factors)
    runs = [(n, len(list(run))) for n, run in itertools.groupby(factors[p] for p in positions)]
    if target_rows <= 2:
        rows = [[0] * v, list(range(v))]
    elif min(2 ** count for _, count in runs) >= target_rows:
        M = functools.reduce(dm_product, [dm_galois_ring(_factor_exponent(n), count)
                                          for n, count in runs])
        section = _span_table(G, _radix_weights(factors)[positions],
                              [factors[p] for p in positions])
        rows = section[M.array()]
    elif len(names := _dm_library().get(factors, ())) >= target_rows:
        rows = _library_rows(G, names)
    else:
        rows = _backtrack_dm(G, target_rows,
                             DEFAULT_SEARCH_BUDGET if budget is None else budget).rows
        if rows is None:
            return None
    M = DifferenceMatrix(G, 1, rows)
    if not verify_dm(M):
        raise AssertionError("difference matrix failed verification")
    return M


_DM_LIBRARY_FILE = "difference_matrices.json"


@functools.cache
def _dm_library() -> dict[tuple[int, ...], list[list[str]]]:
    """The checked-in difference matrices, ``data/difference_matrices.json``,
    as element-name rows keyed by cyclic factors, read on the first lookup,
    not at import (``_read_dm_library``)."""
    return _read_dm_library((files(__package__) / "data" / _DM_LIBRARY_FILE)
                            .read_text(encoding="utf-8"))


def _read_dm_library(text: str) -> dict[tuple[int, ...], list[list[str]]]:
    """Parse the library: a list of ``dm_to_json`` payloads of abelian
    groups, each with a ``made`` recipe ("search": the first solution of
    ``_backtrack_dm`` at the default budget; {"product": parts}: the
    ``dm_product`` of the named parts), one per group.  A file that does
    not parse, an entry without ``group`` or ``rows`` or a group with two
    entries raises AssertionError naming the file.  ``dm_auto`` verifies each
    entry it serves, and tests/test_diffmat.py rebuilds every entry from
    its recipe."""
    try:
        entries = [(tuple(entry["group"]["abelian"]), entry["rows"]) for entry in json.loads(text)]
    except (KeyError, TypeError, ValueError) as exc:
        raise AssertionError(f"{_DM_LIBRARY_FILE} is malformed: {exc!r}") from exc
    library = dict(entries)
    if len(library) != len(entries):
        raise AssertionError(f"{_DM_LIBRARY_FILE} has two entries over one group")
    return library


def _library_rows(G: FiniteGroup, names: list[list[str]]) -> list[list[int]]:
    """The ids over G of a library entry's element names."""
    try:
        rows = [G.element_ids(row) for row in names]
    except (TypeError, ValueError) as exc:
        raise AssertionError(f"{_DM_LIBRARY_FILE}: the entry over {list(G.cyclic_factors)} "
                             f"names an element outside the group: {exc}") from exc
    if any(len(row) != G.order for row in rows):
        raise AssertionError(f"{_DM_LIBRARY_FILE}: the entry over {list(G.cyclic_factors)} "
                             f"has a row without |G| = {G.order} entries")
    return rows


@dataclass(frozen=True)
class DMSearch:
    """What one run of ``_backtrack_dm`` settled: the m ``rows`` it found,
    or None when the search space is exhausted, so no (G, m, 1) difference
    matrix exists; ``nodes`` counts the values tried.  A search whose budget
    runs out returns nothing: it raises SearchInconclusive."""

    rows: tuple[tuple[int, ...], ...] | None
    nodes: int


class SearchInconclusive(Exception):
    """The difference-matrix search used up its node budget without finding
    a matrix or proving that none exists."""

    def __init__(self, group: FiniteGroup, rows: int, budget: int):
        super().__init__(f"inconclusive: the search for a difference matrix with {rows} "
                         f"rows over {json.dumps(group.spec)} used its budget of "
                         f"{budget} nodes")
        self.group, self.rows, self.budget = group, rows, budget


def _backtrack_dm(G: FiniteGroup, m: int, budget: int) -> DMSearch:
    """Exact forward-checking search for an m-row (G, m, 1) difference matrix.

    Symmetry reduction: row 0 is the identity row, row 1 is the elements in
    id order (valid because columns of a difference matrix may be permuted
    freely), and column 0 is all-identity.  Rows are filled one at a time,
    column by column, each column trying its values in increasing order, so
    the first solution is the lexicographically first matrix of the reduced
    space.

    Forward checking on packed Python ints: column c's mask of forbidden
    values owns bits [c(v+1), c(v+1)+v) with a zero guard bit above it, and
    each open column j of the row being filled keeps one int with the masks
    of columns j+1.. from bit 0 up.  Placing x at column j uses the
    difference d = x row_r[j]^(-1) against each earlier row r (row 0
    included, where d is x itself), so in each later column c the one value
    d row_r[c] with that difference is forbidden: the kill row of (r, d),
    that bit in the field of every column, is OR-ed in.  A value is dropped
    when its placement forbids every value of some later column (adding 1 to
    every field carries into a guard bit), or when some value not yet in the
    row is forbidden in every later column (the value side, an AND over the
    later fields: a row of a normalized matrix is a permutation of G, after
    J.-C. Regin's all-different filtering, AAAI 1994).  Either way the
    partial row has no completion, so dropping it changes neither the first
    solution nor the proof of absence when the space runs out.  The value
    side also names, for the next column, the values that no column after it
    allows: they must all go there, so with one of them every other value
    of that column is dropped without its placement, and with two every
    value is.  One budget node is one value tried, counted before any check,
    dropped or not, and the first node past ``budget`` raises
    SearchInconclusive.

    Row 0's kill row of d is the low bit of every field shifted by d.  Those
    of later rows are packed on first use and cached while they fit in
    KILL_CACHE_BYTES; past that, each use packs only the fields of the
    columns still open.  The table is read in place (no v x v Python list).

    Before any node, Paige's sum argument settles abelian groups whose
    elements do not sum to the identity (those with exactly one involution,
    such as the cyclic 2-groups): a third row x against rows 0 and 1 would
    need both sum(x) = sum(G) and sum(x) - sum(G) = sum(G), so no matrix
    with m >= 3 rows exists.
    """
    v = G.order
    first_rows = ((0,) * v, tuple(range(v)))
    if m <= 2:
        return DMSearch(first_rows[:m], 0)
    table = memoryview(G.table)  # scalar products without a v x v Python list
    if G.abelian and functools.reduce(lambda a, b: table[a, b], range(v)) != 0:
        return DMSearch(None, 0)
    width = v + 1  # bits per column field, the top one its guard bit
    full = (1 << v) - 1
    offsets = np.arange(v) * width

    def pack(positions: np.ndarray, fields: int = v) -> int:
        bits = np.zeros(fields * width, dtype=bool)
        bits[positions] = True
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    low = pack(offsets)  # bit 0 of every field; row 0's kill row of d is low << d
    guard = low << v
    # per column j, the shifts whose shift-ANDs fold fields 1..n of the int
    # of columns j+1.. (n = v-2-j) into field 1: the last p onto the first p
    # (p the largest power of 2 <= n; none when n = p), then halvings
    folds = []
    for n in range(v - 2, -1, -1):
        p = 1 << max(n.bit_length() - 1, 0)
        halvings = [(p >> k) * width for k in range(1, p.bit_length())]
        folds.append([(n - p) * width] * (n > p) + halvings)
    room = KILL_CACHE_BYTES * 8 // (v * width)  # kill rows still to be cached
    rows = [list(r) for r in first_rows]
    earlier = []  # rows 1.. as (ids, kill rows by difference, entry inverses)

    def open_row(row: list[int]) -> None:
        earlier.append((np.array(row), [None] * v, G.inv_table[row].tolist()))

    def close_row() -> None:
        nonlocal room
        room += sum(k is not None for k in earlier.pop()[1])

    def kill(ids: np.ndarray, kills: list, d: int, j: int) -> int:
        """The kill row of difference d against the row ``ids`` from column
        j+1 on: the bit of d ids[c] in field c-j-1 for every column c > j.
        While there is room, the whole row is packed and cached as kills[d];
        without it, only the fields asked for are packed."""
        nonlocal room
        if room:
            room -= 1
            kills[d] = pack(offsets + G.table[d, ids])
            return kills[d] >> (j + 1) * width
        return pack(offsets[:v - 1 - j] + G.table[d, ids[j + 1:]], v - 1 - j)

    open_row(rows[1])
    nodes = 0

    def fill() -> bool:
        nonlocal nodes
        if len(rows) == m:
            return True
        # column 0 used difference 0 (the identity) against every earlier row
        forb = low
        for ids, kills, _ in earlier:
            forb |= kills[0] or kill(ids, kills, 0, -1)
        row = [0] * v
        # per open column j: the masks of columns j+1.. (field i is column
        # j+1+i), its untried values, and the values it may take without
        # leaving a forced one out
        forbs, cands, onlys = [forb >> 2 * width], [full ^ ((forb >> width) & full)], [full]
        while cands:
            c = cands[-1]
            if not c:
                forbs.pop()
                cands.pop()
                onlys.pop()
                continue
            bit = c & -c
            cands[-1] = c ^ bit
            nodes += 1
            if nodes > budget:
                raise SearchInconclusive(G, m, budget)
            if not bit & onlys[-1]:
                continue
            val = bit.bit_length() - 1
            j = len(cands)
            row[j] = val
            if j == v - 1:
                rows.append(row[:])
                open_row(row)
                if fill():
                    return True
                rows.pop()
                close_row()
                continue
            shift = (j + 1) * width
            base = low >> shift  # bit 0 of the fields of columns j+1..
            nxt = forbs[-1] | base << val
            for ids, kills, inv_row in earlier:
                d = table[val, inv_row[j]]
                k = kills[d]
                nxt |= (k >> shift) if k else kill(ids, kills, d, j)
            if (nxt + base) & guard:
                continue  # a later column allows no value
            # the values that every column after j + 1 forbids; the j + 1
            # values of the row are among them through row 0's differences
            rest = full
            if j < v - 2:
                acc = nxt
                for step in folds[j]:
                    acc &= acc >> step
                rest = (acc >> width) & full
            col = nxt & full
            if (rest & col).bit_count() > j + 1:
                continue  # a value outside the row fits no later column
            forced = rest & ~col  # values only column j+1 allows
            forbs.append(nxt >> width)
            cands.append(full ^ col)
            if not forced:
                onlys.append(full)
            else:
                onlys.append(0 if forced & (forced - 1) else forced)
        return False

    try:
        found = fill()
    finally:
        del fill  # it refers to itself: free it and the kill rows now, not at the next full gc
    return DMSearch(tuple(map(tuple, rows)) if found else None, nodes)


# -- difference matrix -> linking system ---------------------------------------


def linked_from_dm(G: FiniteGroup, E: Subgroup, bmat, lifts=None,
                   family: HyperplaneFamily | None = None) -> ReducedLinkingSystem:
    """Difference sets D_i = sum_j b_{i,j} e_{i,j} H_j from matrix rows.

    ``bmat`` is an m x 2^(d+1) array of G element ids whose cosets modulo E
    form a (G/E, m, 1)-difference matrix with row 0 inside E (row multiples
    of a normalized matrix are accepted; the construction only needs row 0
    to project to the identity).  ``lifts`` is an (m-1) x s array over E,
    defaulting to all-identity.  Rows 1..m-1 and columns 1..s produce the
    system, which is re-verified before being returned.
    """
    d = _two_group_depth(G)
    _check_central_elementary(G, E, 2, d)
    s = 2 ** (d + 1) - 1
    m = len(bmat)
    if m < 3:
        raise ValueError("need at least 3 matrix rows (system size m-1 >= 2)")
    if any(len(row) != s + 1 for row in bmat):
        raise ValueError(f"matrix must have {s + 1} columns")
    bmat = _id_array(G, bmat)
    coset = _cosets(G, E)[0]
    if coset[bmat[0]].any():
        raise ValueError("row 0 must project to the identity coset")
    if not _row_pairs_cover(G, bmat, coset, 1):
        raise ValueError("matrix does not project to a (G/E, m, 1)-difference matrix")
    if family is None:
        family = hyperplanes(E, 2)
    if family.subgroup.elements != E.elements:
        raise ValueError("hyperplane family does not belong to E")
    if lifts is None:
        lifts = np.zeros((m - 1, s), dtype=np.int64)
    if len(lifts) != m - 1 or any(len(row) != s for row in lifts):
        raise ValueError(f"lift choice must be {(m - 1)} x {s}")
    lifts = _id_array(G, lifts)
    if coset[lifts].any():
        raise ValueError("lift entries must lie in E")

    slot_reps = G.table[bmat[1:, 1:], lifts]
    parts = [np.array(H.elements) for H in family.members]
    system = verify_reduced(G, _coset_unions(G, slot_reps, parts).tolist())
    if system is None:
        raise AssertionError("difference-matrix construction failed verification")
    if system.params != two_group_params(2 * d + 2):
        raise AssertionError("verified system has unexpected parameters")
    return system


def witness_direct(G: FiniteGroup, family: HyperplaneFamily, f_reps, g_reps) -> tuple[int, ...]:
    """The witness D = sum_i f_i g_i^(-1) (E - H_i) of the direct formula.

    {f_i}, {g_i}, {f_i g_i^(-1)} must each occupy s distinct cosets of E and
    the implied index-0 cosets must close up, so all three extend to full
    transversals; outside those conditions the formula's output is not a
    linking witness (at f = g the product has identity coefficient k rather
    than a two-valued shape), and ValueError is raised.
    """
    E = family.subgroup
    s = family.count
    f, g = _id_array(G, f_reps), _id_array(G, g_reps)
    if len(f) != s or len(g) != s:
        raise ValueError(f"expected {s} representatives per side")
    prods = G.table[f, G.inv_table[g]]
    missing = [(set(range(s + 1)) - set(_distinct_cosets(G, E, seq).tolist())).pop()
               for seq in (f, g, prods)]
    coset, coset_min = _cosets(G, E)
    f0, g0 = coset_min[missing[0]], coset_min[missing[1]]
    if coset[G.table[f0, G.inv_table[g0]]] != missing[2]:
        raise ValueError("transversal condition violated at the omitted coset")
    elems = np.array(E.elements)
    parts = [elems[~np.isin(elems, H.elements)] for H in family.members]
    return tuple(_coset_unions(G, [prods], parts)[0].tolist())


# -- family drivers --------------------------------------------------------------


def _sorted_positions(factors: tuple[int, ...]) -> list[int]:
    return sorted(range(len(factors)), key=lambda i: (-factors[i], i))


def _abelian_2group_depth(G: FiniteGroup) -> int:
    """d for an abelian group of order 2^(2d+2) built from cyclic factors
    (which are then powers of 2) of rank at least d + 1, the rank that the
    central E = Z_2^(d+1) of both abelian drivers needs."""
    if not G.abelian or G.cyclic_factors is None:
        raise ValueError("driver needs an abelian group built from cyclic factors")
    d = _two_group_depth(G)
    if abelian_rank(G) < d + 1:
        raise ValueError(f"rank must be at least {d + 1}")
    return d


def _quotient_gens(G: FiniteGroup, d: int):
    """(e_gens, q_gens, q_orders) for an abelian 2-group built from cyclic
    factors.  E is generated by the involutions of the d+1 largest factors
    (equal factors in factor order).  G/E has the halved orders of those
    factors (where still above 1) and the orders of the others, listed by
    decreasing order, ties keeping that sequence; q_gens are the
    generators of G that map onto them."""
    factors = G.cyclic_factors
    weights = _radix_weights(factors).tolist()
    pos = _sorted_positions(factors)
    e_gens = [weights[p] * (factors[p] // 2) for p in pos[:d + 1]]
    quotient = [(factors[p] // 2, weights[p]) for p in pos[:d + 1] if factors[p] > 2]
    quotient += [(factors[p], weights[p]) for p in pos[d + 1:]]
    quotient.sort(key=lambda q: -q[0])
    return e_gens, [g for _, g in quotient], [n for n, _ in quotient]


def _build_from_quotient_dm(G: FiniteGroup, e_gens, q_gens, q_orders, m: int,
                            budget: int | None = None) -> ReducedLinkingSystem:
    """The construction every driver runs.  E = <e_gens> is central
    elementary abelian, and e_gens is also the basis of its hyperplanes.
    G/E is modelled by Q = make_abelian(q_orders): the element of Q with
    exponents (e_1, ..., e_t) maps to q_gens[0]^e_1 ... q_gens[t-1]^e_t,
    a section of G/E.  An m-row (Q, m, 1) difference matrix from dm_auto
    goes through that section into linked_from_dm.

    Raises ValueError when Q provably has no m-row difference matrix and
    SearchInconclusive when dm_auto's search (``budget`` nodes, default
    DEFAULT_SEARCH_BUDGET) runs out first."""
    E = subgroup_generated(G, e_gens)
    Q = make_abelian(q_orders)
    M = dm_auto(Q, m, budget=budget)
    if M is None:
        raise ValueError(f"no difference matrix with {m} rows exists over the "
                         f"quotient {json.dumps(Q.spec)}")
    bmat = _span_table(G, q_gens, q_orders)[M.array()[:m]]
    return linked_from_dm(G, E, bmat, family=hyperplanes(E, 2, e_gens))


def build_general(G: FiniteGroup, budget: int | None = None) -> ReducedLinkingSystem:
    """Size-3 system in an abelian group of order 2^(2d+2) with d >= 1,
    rank >= d+1, exponent <= 2^(d+1), via a 4-row quotient difference matrix
    (``budget`` as in dm_auto)."""
    d = _abelian_2group_depth(G)
    if d == 0:
        # the quotient would be Z2, and no 4-row difference matrix over Z2 exists
        raise ValueError("d must be at least 1 (order at least 16)")
    if exponent(G) > 2 ** (d + 1):
        raise ValueError(f"exponent must be at most {2 ** (d + 1)}")
    return _build_from_quotient_dm(G, *_quotient_gens(G, d), 4, budget)


def build_improved(G: FiniteGroup, budget: int | None = None) -> ReducedLinkingSystem:
    """Size 2^floor((d+1)/(e-1)) - 1 system for exponent 2^e with
    2 <= e <= (d+3)/2, via a larger quotient difference matrix (``budget``
    as in dm_auto)."""
    d = _abelian_2group_depth(G)
    e = _factor_exponent(exponent(G))
    if not 2 <= e <= (d + 3) / 2:
        raise ValueError("exponent 2^e must satisfy 2 <= e <= (d+3)/2")
    m = 2 ** ((d + 1) // (e - 1))
    return _build_from_quotient_dm(G, *_quotient_gens(G, d), m, budget)


def _check_depth(d: int) -> None:
    """Reject d < 1, or a d whose groups of order 2^(2d+2) are past the table
    limit, from the exponent alone, before any power of 2 is formed."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    if 2 * d + 2 > MAX_TABLE_ORDER.bit_length() - 1:
        raise ValueError(f"group order 2^{2 * d + 2} exceeds table limit {MAX_TABLE_ORDER}")


def build_tyken(d: int, K: FiniteGroup) -> ReducedLinkingSystem:
    """Size 2^(d+1)-1 system in D4 x K for abelian K of order 2^(2d-1) and
    exponent at most 4."""
    _check_depth(d)
    if not K.abelian or K.cyclic_factors is None:
        raise ValueError("K must be an abelian group built from cyclic factors")
    if K.order != 2 ** (2 * d - 1):
        raise ValueError(f"K must have order {2 ** (2 * d - 1)}")
    if exponent(K) > 4:
        raise ValueError("K must have exponent at most 4")
    D4 = make_dihedral8()
    G = direct_product(D4, K)
    # K's generators are ids of G; D4's are multiples of |K|
    a, b, a_sq = (D4.element(w) * K.order for w in ("a", "b", "a^2"))
    kgens = _radix_weights(K.cyclic_factors).tolist()
    fours = [g for g, n in zip(kgens, K.cyclic_factors) if n == 4]
    twos = [g for g, n in zip(kgens, K.cyclic_factors) if n == 2]
    c = len(fours)
    # E = <a^2, squares of the Z4 factors, first d-c Z2 factors>, and
    # G/E = Z2^(d+1) through a, b and the rest of K's generators
    e_gens = [a_sq] + [2 * g for g in fours] + twos[:d - c]
    q_gens = [a, b] + fours + twos[d - c:]
    return _build_from_quotient_dm(G, e_gens, q_gens, [2] * (d + 1), 2 ** (d + 1))


def build_nonreversible(d: int) -> ReducedLinkingSystem:
    """Size 2^(d+1)-1 system in Z_4^(d+1) whose first set is not reversible.

    The hyperplane labelled H_1 omits x_1^2, the matrix entry b_{1,1} lifts
    to x_1, and the lift e_{1,1} is the identity, so D_1 contains x_1 but
    not x_1^3.
    """
    _check_depth(d)
    G = make_abelian([4] * (d + 1))
    e_gens, q_gens, q_orders = _quotient_gens(G, d)
    system = _build_from_quotient_dm(G, e_gens[::-1], q_gens, q_orders, 2 ** (d + 1))
    if is_reversible(system.records[0]):
        raise AssertionError("first difference set is unexpectedly reversible")
    return system

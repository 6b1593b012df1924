"""Exhaustive search engines: difference-set enumeration, the linking graph
and its clique census, and the McFarland/Spence nonexistence sweeps.

All searches are exact.  Difference sets are enumerated by contraction
down a normal series: coset counts over each quotient are split one level
at a time and kept while their autocorrelation is n + lambda |N| (G/N)
(``enumerate_difference_sets``).  Every linking decision, in the census
(the linking graph and the re-verification of its cliques) and behind the
sweeps' sieve, is one ``linking.PairCheck.links`` over the sets
concerned: full product rows (``group_ring.RowProducts``) of the pairs
i < j and one two-valued test, each (j, i) mirrored by the involution.

The census runs on index arrays: the clique listing grows (m, t) arrays
of vertex indices block by block, each clique carrying the AND row of its
common neighbourhood (``_clique_indices``), the systems are a view over
the records and those indices (``CensusSystems``), and the cliques are
re-verified by one pair check of their members against each other
(``_reverify_cliques``).

The sweeps build their sets as rows of one array with
``designs.construction_sets`` and dedup them, and their projections, with
``_distinct_rows``.  One GEMM gives the exact float64 keys, sum of
2^(v-1-x) over the ids x, of all v left translates of a block of sets
(``_translation_classes``, v <= 53).  Pairs are decided by the projection
argument (``_projection_sieve``): a pair whose product projected onto
Z[G/K], K the elements of order prime to 3, cannot be (mu - nu) W + nu
|K| (G/K) with every coefficient of W in [0, |K|] is dropped exactly; none
survive in the sweeps, and any that did would get the pair check
(``_sweep_pairs``).
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bent import enumerate_bent
from .designs import (
    DifferenceSetRecord,
    DSParams,
    construction_sets,
    difference_set_mask,
    hyperplanes,
)
from .group_ring import coefficient_autocorrelations
from .groups import (
    FiniteGroup,
    Subgroup,
    _cosets,
    _int_scalar,
    _scratch_rows,
    coset_transversal,
    find_central_elementary_abelian,
    is_normal,
    normal_series,
    quotient,
)
from .linking import MuNu, PairCheck, mu_nu_candidates

# Candidate rows that enumerate_difference_sets holds at once per level: not
# a scratch bound but the rows that share one loop over the quotient's
# elements (``coefficient_autocorrelations``), and fewer rows slow it.
CONTRACTION_BLOCK = 1 << 13
# Largest group order whose translate keys are exact in float64
# (_set_weights, used by _translation_classes)
KEY_MAX_ORDER = 53
# Distinct Spence sets over which the slot-sharing pair counts are sampled
SLOT_SAMPLE = 200


def enumerate_difference_sets(G: FiniteGroup, k: int) -> list[DifferenceSetRecord]:
    """Every k-subset of G that is a difference set, in lexicographic order,
    by contraction down ``groups.normal_series`` 1 = N_0 < ... < N_t = G.

    For N normal and rho: Z[G] -> Z[G/N], the coefficients of rho(D) count
    D in each coset of N, so lie in [0, |N|], and a (v, k, lambda)
    difference set D has rho(D) rho(D)^(-1) = n + lambda |N| (G/N).  Level
    t is the one row (k) over G/G.  Each row of level i + 1 is split over
    the cosets of N_i in each coset of N_(i+1), parts in [0, |N_i|]
    (``_splits``), and a split is kept if its autocorrelation over G/N_i
    (``group_ring.coefficient_autocorrelations``) is n [h = 1] + lambda
    |N_i|.  Summing rho_(N_i)(D) over those cosets gives rho_(N_(i+1))(D),
    so the contraction of every difference set is a split of the one above
    and passes every level: none is dropped.  The level-0 rows are the 0/1
    rows of k-subsets, each once (a subset fixes its contractions), and
    ``difference_set_mask`` admits exactly the difference sets among them,
    since a k-subset that is one has lambda = k(k-1)/(v-1).  Without an
    integer lambda there is none (``_size_params``).  Each level holds at
    most CONTRACTION_BLOCK candidate rows at once.
    """
    params = _size_params(G, k)
    if params is None:
        return []
    lam = params.lam
    series = normal_series(G)
    cosets = [_cosets(G, N) for N in series]
    levels = [None]  # levels[i]: how a row of level i splits into level i - 1
    for N, (proj, reps), (coarse, _) in zip(series, cosets, cosets[1:]):
        target = lam * N.order + (k - lam) * (np.arange(len(reps)) == 0)
        levels.append((_split_table(coarse[reps], N.order, k),
                       proj[G.table[np.ix_(reps, reps)]], target))

    def refine(i: int, rows: np.ndarray):
        if i == 0:
            yield np.nonzero(rows)[1].reshape(len(rows), k)
            return
        split, table, target = levels[i]
        for fine in _splits(rows, *split):
            if i > 1:
                fine = fine[(coefficient_autocorrelations(table, fine) == target).all(axis=1)]
            if len(fine):
                yield from refine(i - 1, fine)

    ids = np.concatenate([np.zeros((0, k), dtype=np.int64)] + [
        block[difference_set_mask(G, block, params)]
        for block in refine(len(series) - 1, np.array([[k]]))])
    del refine  # it refers to itself: free its levels now, not at the next full gc
    return [DifferenceSetRecord._of_sorted(G, row, params)
            for row in map(tuple, ids[_distinct_rows(ids)[0]].tolist())]


def _size_params(G: FiniteGroup, k: int) -> DSParams | None:
    """The parameters of every k-subset of G that is a difference set, or
    None when lambda = k(k-1)/(v-1) is no integer; ValueError unless k is
    an integer (``groups._int_scalar``) with 0 <= k <= v/2."""
    if not 0 <= (k := _int_scalar(k, "k")) <= G.order // 2:
        raise ValueError("enumerate with 0 <= k <= v/2; complements are mirrored")
    lam, rem = divmod(k * (k - 1), max(1, G.order - 1))
    return None if rem else DSParams(G.order, k, lam, k - lam)


def _split_table(coarse: np.ndarray, bound: int, top: int):
    """(parts, first, number, position), coarse[f] the coarse coset of fine
    coset f: the splits of a count m <= top into p parts in [0, bound] are
    parts[first[m]:first[m] + number[m]], and part j of coarse coset c goes
    to the fine coset f with position[f] = p c + j."""
    p = len(coarse) // (int(coarse.max()) + 1)
    parts = np.array(sorted((c for c in itertools.product(range(bound + 1), repeat=p)
                             if sum(c) <= top), key=sum), dtype=np.int64).reshape(-1, p)
    number = np.bincount(parts.sum(axis=1), minlength=top + 1)
    position = np.argsort(np.lexsort([coarse]))
    return parts, np.cumsum(number) - number, number, position


def _splits(rows: np.ndarray, parts, first, number, position):
    """Every split (``_split_table``) of the count rows, in chunks of at most
    CONTRACTION_BLOCK rows: a row's splits are mixed-radix numbers, digit c
    picking a split of rows[:, c], decoded for a range of (row, number)
    indices at once."""
    choices = number[rows]
    if np.prod(choices, axis=1, dtype=float).sum() >= 2.0 ** 62:
        raise ValueError("too many splits to index in int64")
    sizes = np.prod(choices, axis=1)
    offsets = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    for start in range(0, total, CONTRACTION_BLOCK):
        flat = np.arange(start, min(start + CONTRACTION_BLOCK, total))
        row = np.searchsorted(offsets, flat, side="right") - 1
        local = flat - offsets[row]
        out = np.empty((len(flat), rows.shape[1], parts.shape[1]), dtype=np.int64)
        for c in range(rows.shape[1]):
            local, digit = np.divmod(local, choices[row, c])
            out[:, c] = parts[first[rows[row, c]] + digit]
        yield out.reshape(len(flat), -1)[:, position]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for the rows of a 2-D array of nonnegative integers,
    as ``np.unique(rows, axis=0, return_index=True, return_inverse=True)``
    gives them, without importing ``numpy.ma``: each row as big-endian bytes
    of the narrowest width, read as big-endian uint64 words that order the
    rows lexicographically, and a stable ``np.lexsort`` of the words."""
    n, c = rows.shape
    width = next(b for b in (1, 2, 4, 8) if int(rows.max(initial=0)) < 1 << 8 * b)
    data = np.zeros((n, max(1, -(-c * width // 8)) * 8), dtype=np.uint8)
    data[:, :c * width] = rows.astype(f">u{width}").view(np.uint8).reshape(n, c * width)
    words = data.view(">u8").astype(np.uint64)
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


@dataclass(frozen=True)
class LinkingGraph:
    """Vertices are difference sets; (i, j) is an edge iff both ordered
    products are valued in {mu, nu}, which makes their mu-supports
    difference-set witnesses (the lemma in ``linking.PairCheck``)."""

    group: FiniteGroup
    records: tuple[DifferenceSetRecord, ...]
    munu: MuNu
    adjacency: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.records)

    @property
    def linked_pairs(self) -> int:
        """Ordered pairs i != j with a product valued in {mu, nu}."""
        return int(np.count_nonzero(self.adjacency))

    def num_edges(self) -> int:
        return self.linked_pairs // 2

    @cached_property
    def ids(self) -> np.ndarray:
        """The vertices' sets as one (n, k) id array."""
        return np.array([r.elements for r in self.records], dtype=np.int64)

    @cached_property
    def masks(self) -> list[int]:
        """Neighbour bitmasks (bit j of masks[i] set iff i ~ j), built once
        per graph for the clique listing and the maximum-clique search."""
        return _adjacency_masks(self.adjacency)


def build_linking_graph(G: FiniteGroup, records, munu: MuNu, jobs: int = 1) -> LinkingGraph:
    """The linking graph of the records under (mu, nu), from a pool of one
    process per row range (``_row_chunks``) when there are several; unless
    the records (one at least) are difference sets with common parameters
    and (mu, nu) a branch, ValueError before any worker process exists."""
    jobs = _int_scalar(jobs, "jobs", 1)
    records = tuple(records)
    check = PairCheck(G, np.array([r.elements for r in records], dtype=np.int64))
    check.check_branch(munu)
    n = len(records)
    chunks = _row_chunks(n, jobs)
    if len(chunks) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            found = list(pool.map(check.links, [munu] * len(chunks), chunks))
    else:
        found = [check.links(munu)]
    i, j = (np.concatenate(part) for part in zip(*found))
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[i, j] = adjacency[j, i] = True  # (j, i) links iff (i, j) does
    return LinkingGraph(G, records, munu, adjacency)


def _row_chunks(n: int, jobs: int) -> list[range]:
    """At most jobs consecutive row ranges covering 0..n-1, one for each of
    at most n-1 equal shares of the n(n-1)/2 pairs i < j (row i has n-1-i
    of them), so that every range has pairs when n > 1."""
    parts = max(1, min(jobs, n - 1))
    area = np.cumsum(np.arange(n - 1, -1, -1))  # the pairs of rows 0..r
    cuts = np.searchsorted(area, area[-1] * np.arange(1, parts) / parts) + 1
    bounds = [0, *cuts.tolist(), n]
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]


class CensusSystems(Sequence):
    """The systems of a census as a read-only list of record tuples.

    A view over the graph's records and an (m, ell) array of vertex indices,
    one row per system (``cliques``), so no tuple exists until one is asked
    for.  Supports ``len``, indexing, iteration and ``==`` with a list.
    ``verified_pairs`` counts the distinct directed pairs re-verified.
    """

    def __init__(self, records, cliques: np.ndarray, verified_pairs: int = 0):
        self.records = tuple(records)
        self.cliques = cliques
        self.verified_pairs = verified_pairs

    def __len__(self) -> int:
        return len(self.cliques)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return tuple(self.records[i] for i in self.cliques[index].tolist())

    def __iter__(self):
        records = self.records
        for row in self.cliques.tolist():
            yield tuple(records[i] for i in row)

    def __eq__(self, other) -> bool:
        if isinstance(other, (CensusSystems, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"CensusSystems({len(self)} systems of size {self.cliques.shape[1]})"


def enumerate_systems(graph: LinkingGraph, ell: int) -> CensusSystems:
    """All ell-vertex cliques as unordered record tuples, lexicographic in
    vertex order, each re-verified before emission (``_reverify_cliques``)."""
    ell = _int_scalar(ell, "system size", 2)
    cliques = _clique_indices(graph.adjacency, ell)
    verified = _reverify_cliques(graph, cliques)
    return CensusSystems(graph.records, cliques, verified)


def _clique_indices(adjacency: np.ndarray, ell: int) -> np.ndarray:
    """Every ell-vertex clique of the graph with bool adjacency matrix
    ``adjacency`` as a row of increasing vertex indices, shape (m, ell),
    rows in lexicographic order.

    Each t-clique carries its common neighbourhood beyond its last member:
    a row of the upper triangle for a vertex, and for a clique grown by
    vertex j, its parent's row AND j's row.  ``np.flatnonzero`` over a
    block of those rows lists the extensions row by row, each row's in
    increasing order, and a block is grown to full size before the next, so
    lexicographic order carries over.  No block of bool rows holds more
    than SCRATCH_BYTES.
    """
    n = len(adjacency)
    upper = np.triu(adjacency, 1)
    step = _scratch_rows(n)
    found = [np.zeros((0, ell), dtype=np.int64)]

    def grow(cliques: np.ndarray, common: np.ndarray | None) -> None:
        if cliques.shape[1] == ell:
            found.append(cliques)
            return
        s, j = np.divmod(np.flatnonzero(common), n)
        final = cliques.shape[1] + 1 == ell  # the grown cliques need no rows
        for a in range(0, len(s), step):
            parent, last = s[a:a + step], j[a:a + step]
            rows = None
            if not final:
                rows = common[parent]
                rows &= upper[last]
            grown = np.column_stack([cliques[parent], last])
            grow(grown, rows)

    for a in range(0, n, step):
        grow(np.arange(a, min(a + step, n), dtype=np.int64)[:, None], upper[a:a + step])
    del grow  # it refers to itself: free found and upper now, not at the next full gc
    return np.concatenate(found)


def _reverify_cliques(graph: LinkingGraph, cliques: np.ndarray) -> int:
    """Raise AssertionError unless every clique (a row of vertex indices) is
    a reduced linking system under ``graph.munu``; returns the number of
    distinct directed pairs re-verified.

    Exact: for a fixed (mu, nu), verify_reduced accepts S_1..S_l iff every
    S_i is a difference set with common parameters and every ordered pair
    (i, j) has D_i D_j^(-1) valued in {mu, nu} with a mu-support that is a
    difference set with the same parameters, which for a (mu, nu) from
    ``mu_nu_candidates`` it always is (the lemma in ``linking.PairCheck``).
    So one ``PairCheck`` over the m clique members runs the linking graph's
    pair scan once over the members against each other, and a clique
    passes iff all its l(l-1) ordered pairs are among the linked ones.  Only
    pairs of members are ever asked, so scanning the members alone is exact.
    """
    if not len(cliques):
        return 0
    present = np.bincount(cliques.ravel(), minlength=graph.num_vertices) > 0
    local = (np.cumsum(present) - 1)[cliques]  # each member's row among the members
    try:
        check = PairCheck(graph.group, graph.ids[present])
        i, j = check.links(graph.munu)
    except ValueError as exc:
        raise AssertionError("clique failed re-verification") from exc
    m = len(check.ids)
    linked = np.zeros((m, m), dtype=bool)
    linked[i, j] = linked[j, i] = True
    asked = np.zeros((m, m), dtype=bool)
    for a, b in itertools.permutations(range(cliques.shape[1]), 2):
        asked[local[:, a], local[:, b]] = True
    if (asked & ~linked).any():
        raise AssertionError("clique failed re-verification")
    return int(asked.sum())


def _adjacency_masks(adjacency: np.ndarray) -> list[int]:
    """Row i of the bool adjacency matrix as the int with bit j set iff
    adjacency[i, j]: little-endian packed bytes, one int.from_bytes a row."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little")
            for i in range(len(packed))]


def max_system_size(graph: LinkingGraph) -> int:
    """Maximum clique size (0 for an empty graph): the largest possible
    reduced linking system on these vertices."""
    return _max_clique(graph.masks)


def _max_clique(masks: list[int]) -> int:
    """Size of a maximum clique of the graph with neighbour bitmasks
    ``masks``, 0 for none, by Tomita and Seki's MCQ branch and bound.  A node
    (a clique of ``size`` vertices and the candidates adjacent to all of
    them, one entry of an explicit stack) colours its candidates greedily
    once, each colour class an independent set grown from the lowest vertex
    left, and branches on them in nondecreasing colour from the last down,
    dropping each after its branch: at v the candidates left have colours
    1..colour(v) and a clique takes at most one of each, so once size +
    colour(v) is no more than the best found, the node is done."""
    best = 0
    stack = [[(1 << len(masks)) - 1, 0, None, None]]  # candidates, size, order, colours
    while stack:
        node = stack[-1]
        candidates, size, order, colours = node
        if order is None:
            order, colours = node[2], node[3] = [], []
            remaining, colour = candidates, 0
            while remaining:
                colour += 1
                cls = remaining
                while cls:
                    low = cls & -cls
                    v = low.bit_length() - 1
                    order.append(v)
                    colours.append(colour)
                    remaining ^= low
                    cls = (cls ^ low) & ~masks[v]
        if not order or size + colours.pop() <= best:
            stack.pop()
            continue
        v = order.pop()
        node[0] = candidates = candidates ^ (1 << v)
        if candidates & masks[v]:
            stack.append([candidates & masks[v], size + 1, None, None])
        else:
            best = max(best, size + 1)
    return best


# -- nonexistence sweeps ---------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Counts of one nonexistence sweep.

    ``pairs_tested`` is n^2 over the n sets scanned (every distinct set in
    full mode, one per translation class in pruned mode): every ordered
    pair is decided exactly, most by the projection sieve and the rest by
    the full pair check.  ``linked_pairs`` counts the ordered pairs of
    distinct sets that link.
    ``same_slot_pairs``/``cross_slot_pairs`` (Spence only) are sampled, not
    totals: they count the ordered pairs among the first SLOT_SAMPLE = 200
    distinct sets that do and do not share a complemented slot.
    """

    group_spec: object
    family: str
    mode: str
    constructed_count: int
    distinct_count: int
    class_count: int
    pairs_tested: int
    linked_pairs: int
    munu: tuple[int, int]
    verified_sets: int = 0
    same_slot_pairs: int = 0
    cross_slot_pairs: int = 0
    runtime_seconds: float = 0.0

    @property
    def all_pairs_fail(self) -> bool:
        return self.linked_pairs == 0


def _central_e(G: FiniteGroup, rank: int, p: int) -> Subgroup:
    found = find_central_elementary_abelian(G, rank, p=p)
    if not found:
        raise ValueError(f"group has no central Z_{p}^{rank}")
    return found[0]


def _set_weights(v: int) -> np.ndarray:
    """w[x] = 2^(v-1-x) as float64, so that key(S) = sum of w[x] over x in S
    (the translate keys of ``_translation_classes``).

    For sets of equal size a lexicographically smaller sorted row has the
    larger key: at the first position where two rows differ, the smaller
    id's bit exceeds all later bits of the other row together.  Keys are
    exact: a key, and so each entry of the translate GEMM, is a sum of k
    distinct powers of two, each at most 2^52, so every partial sum is an
    integer below 2^53 in any summation order (FMA included).  Raises
    ValueError for v > 53.
    """
    if v > KEY_MAX_ORDER:
        raise ValueError(f"set keys need group order <= {KEY_MAX_ORDER}, got {v}")
    return np.ldexp(1.0, np.arange(v - 1, -1, -1))


def _translation_classes(G: FiniteGroup, sets: np.ndarray) -> np.ndarray:
    """One canonical representative, the lexicographically smallest sorted
    left translate a S, per translation class of the rows of ``sets``
    (sorted (n, k) id rows), in order of first appearance.

    With P[x, a] = 2^(v-1-a x), the indicator rows times P give the keys of
    all v left translates at once (``_set_weights``: exact for v <= 53); the
    largest key picks the smallest translate.  Raises ValueError for v > 53
    or a row that is not a strictly increasing list of element ids.
    """
    v = G.order
    weights = _set_weights(v)
    if len(sets) and ((np.diff(sets, axis=1) <= 0).any()
                      or sets[:, 0].min() < 0 or sets[:, -1].max() >= v):
        raise ValueError("rows must be strictly increasing lists of element ids")
    P = weights[G.table.T]
    block = _scratch_rows(8 * v)  # float64 indicator rows and translate keys
    best = np.empty(len(sets), dtype=np.intp)
    canon = np.empty(len(sets))
    for start in range(0, len(sets), block):
        rows = sets[start:start + block]
        indicator = np.zeros((len(rows), v))
        indicator[np.arange(len(rows))[:, None], rows] = 1.0
        keys = indicator @ P                      # [s, a] = key(a S_s)
        top = keys.argmax(axis=1)
        best[start:start + block] = top
        canon[start:start + block] = keys[np.arange(len(keys)), top]
    _, first = np.unique(canon, return_index=True)
    first.sort()
    return np.sort(G.table[best[first, None], sets[first]], axis=1)


def _prime_to_3_subgroup(G: FiniteGroup) -> Subgroup:
    """K, the elements of G of order prime to 3, for a group whose Sylow
    3-subgroup is a central Z_3^2 E: then G = E x K and G/K = E.

    Raises ValueError unless K is a normal subgroup of order v/9.
    """
    elements = np.flatnonzero(G.element_orders % 3).tolist()
    if 9 * len(elements) != G.order:
        raise ValueError("the elements of order prime to 3 do not have index 9")
    K = Subgroup(G, tuple(elements))  # raises unless closed
    if not is_normal(G, K):
        raise ValueError("the elements of order prime to 3 are not a normal subgroup")
    return K


def _projection_sieve(G: FiniteGroup, sets, N: Subgroup,
                      munu: MuNu) -> tuple[np.ndarray, np.ndarray]:
    """The projection test of the pairs among ``sets`` (equal-length id
    rows) on G/N, N a normal subgroup: (classes, keep), where classes[i]
    numbers the distinct projection of set i and keep[a, b] is False only
    when no set projecting to a links with a set projecting to b.

    With rho: Z[G] -> Z[G/N], a linked pair X Y^(-1) = (mu - nu) W + nu G
    projects to rho(X) rho(Y)^(-1) = (mu - nu) rho(W) + nu |N| (G/N), and
    each coefficient of rho(W) counts the elements of a coset of N in W, so
    lies in [0, |N|].  A pair of projections whose product breaks that
    congruence or that range cannot link, so dropping it is exact, and sets
    with equal projections get equal verdicts.  The coefficient of c in
    rho(X) rho(Y)^(-1) is sum_b rho(Y)[b] rho(X)[c b]: one float64 GEMM of
    the distinct projections per coset c.  Exactness bound: every addend is
    a product of two coset counts and the counts of a projection sum to k,
    so every partial sum is an integer of at most k^2 < 2^53, exact in
    float64 in any order of summation.  The allowed coefficients, nu |N| +
    (mu - nu) t for t = 0..|N|, are one bool table over 0..k^2, and each
    coefficient is one lookup in it.
    """
    Q, proj = quotient(G, N)
    ids = np.asarray(sets, dtype=np.int64)
    n, k, w = len(ids), ids.shape[-1], Q.order
    counts = np.bincount((proj[ids] + w * np.arange(n)[:, None]).ravel(),
                         minlength=n * w).reshape(n, w)
    first, classes = _distinct_rows(counts)
    images = counts[first].astype(np.float64)
    mu, nu = munu.as_tuple()
    values = nu * N.order + (mu - nu) * np.arange(N.order + 1)
    allowed = np.zeros(k * k + 1, dtype=bool)
    allowed[values[(values >= 0) & (values <= k * k)]] = True
    keep = np.ones((len(images), len(images)), dtype=bool)
    for c in range(w):
        keep &= allowed[(images[:, Q.table[c]] @ images.T).astype(np.intp)]
    return classes, keep


def _sweep_pairs(G: FiniteGroup, sets, munu: MuNu, N: Subgroup) -> tuple[int, int]:
    """Decide every ordered pair of the sets (sorted (n, k) id rows) and
    count the linked pairs of distinct sets: the projection sieve on G/N
    (``_projection_sieve``), then one ``linking.PairCheck`` over the sets
    whose projection has a kept partner.  Both projections of a linked pair
    are kept, so the pairs outside that check link with nothing."""
    classes, keep = _projection_sieve(G, sets, N, munu)
    kept = sets[keep.any(axis=1)[classes]]
    linked = 0
    if len(kept):
        linked = 2 * len(PairCheck(G, kept).links(munu)[0])
    return len(sets) ** 2, linked


def mcfarland_pair_sweep(G: FiniteGroup, mode: str = "pruned") -> SweepReport:
    """Sweep all pairs of McFarland-constructed (45,12,3,9) difference sets
    over the central Z_3^2 of a group of order 45: zero pairs may link.

    Constructions range over the omitted coset, the slot assignment, and the
    within-coset translates (5 * 4! * 3^4 = 9720 sets before dedup); the
    pruned mode tests one representative per translation class, which is
    equivalent by the translation invariance of the linking test.
    """
    start = time.time()
    params = DSParams(45, 12, 3, 9)
    family, reps, munu, K = _sweep_setup(G, mode, params)
    constructed = construction_sets(family, reps)
    distinct = constructed[_distinct_rows(constructed)[0]]
    return _sweep_report(G, "mcfarland-q3-d1", mode, len(constructed), distinct,
                         params, munu, K, start)


def spence_pair_sweep(G: FiniteGroup, mode: str = "pruned") -> SweepReport:
    """Sweep all pairs of Spence-constructed (36,15,6,9) difference sets
    over the central Z_3^2 of an order-36 group: zero pairs may link."""
    start = time.time()
    params = DSParams(36, 15, 6, 9)
    family, reps, munu, K = _sweep_setup(G, mode, params)
    s = family.count
    by_slot = [construction_sets(family, reps, m) for m in range(s)]
    constructed = np.concatenate(by_slot)
    first, where = _distinct_rows(constructed)
    distinct = constructed[first]

    # slots[t, m]: distinct set t arises with slot m complemented; two sets
    # share a slot iff their rows overlap (sampled over the first sets)
    slots = np.zeros((len(distinct), s), dtype=np.int64)
    slots[where, np.repeat(np.arange(s), [len(c) for c in by_slot])] = 1
    sample = slots[:SLOT_SAMPLE]
    same = int(np.count_nonzero(sample @ sample.T)) - len(sample)
    cross = len(sample) * (len(sample) - 1) - same
    return _sweep_report(G, "spence-d1", mode, len(constructed), distinct, params, munu,
                         K, start, same_slot_pairs=same, cross_slot_pairs=cross)


def _sweep_setup(G: FiniteGroup, mode: str, params: DSParams):
    """The hyperplanes of a central Z_3^2, its coset representatives, the
    unique integer (mu, nu) branch of ``params`` and the subgroup K of the
    projection sieve."""
    if mode not in ("full", "pruned"):
        raise ValueError("mode must be 'full' or 'pruned'")
    if G.order != params.v:
        raise ValueError(f"expected a group of order {params.v}")
    E = _central_e(G, 2, 3)
    K = _prime_to_3_subgroup(G)
    family = hyperplanes(E, 3)
    branches = mu_nu_candidates(params)
    if len(branches) != 1:
        raise AssertionError("expected a unique integer (mu, nu) branch")
    return family, coset_transversal(G, E).reps, branches[0], K


def _sweep_report(G: FiniteGroup, family: str, mode: str, constructed: int,
                  distinct: np.ndarray, params: DSParams, munu: MuNu, K: Subgroup,
                  start: float, **slot_pairs) -> SweepReport:
    """Check that every distinct set is a difference set with ``params``,
    decide the pairs the mode asks for on G/K and report."""
    class_reps = _translation_classes(G, distinct)
    verified = int(difference_set_mask(G, distinct, params).sum())
    if verified != len(distinct):
        raise AssertionError("a constructed set failed difference-set verification")
    tested, linked = _sweep_pairs(G, distinct if mode == "full" else class_reps, munu, K)
    return SweepReport(G.spec, family, mode, constructed, len(distinct), len(class_reps),
                       tested, linked, munu.as_tuple(), verified_sets=verified,
                       runtime_seconds=time.time() - start, **slot_pairs)


# -- whole-group censuses --------------------------------------------------------


@dataclass(frozen=True)
class CensusResult:
    graph: LinkingGraph
    systems: CensusSystems
    max_size: int
    runtime_seconds: float

    @property
    def count(self) -> int:
        return len(self.systems)

    @property
    def counts(self) -> dict[str, int]:
        """What the census did: the graph's vertices, its linked directed
        pairs, the directed pairs re-verified and the cliques listed."""
        return {"vertices": self.graph.num_vertices,
                "linked_pairs": self.graph.linked_pairs,
                "verified_pairs": self.systems.verified_pairs,
                "cliques": len(self.systems)}


def census_systems(G: FiniteGroup, k: int, ell: int, jobs: int = 1) -> CensusResult:
    """Exhaustive census of size-ell reduced linking systems of k-subsets
    under the first (mu, nu) branch of the parameters that (v, k) fixes:
    ValueError before any work unless k, ell and jobs are integers (ell at
    least 2, jobs at least 1) and lambda and a branch are integers."""
    jobs, ell = _int_scalar(jobs, "jobs", 1), _int_scalar(ell, "system size", 2)
    start = time.time()
    params = _size_params(G, k)
    branches = mu_nu_candidates(params) if params else []
    if not branches:
        raise ValueError(f"(v, k) = ({G.order}, {k}) has no integer lambda with an "
                         "integer (mu, nu) branch")
    records = enumerate_difference_sets(G, k)
    graph = (build_linking_graph(G, records, branches[0], jobs=jobs) if records
             else LinkingGraph(G, (), branches[0], np.zeros((0, 0), dtype=bool)))
    systems = enumerate_systems(graph, ell)
    max_size = max_system_size(graph)
    return CensusResult(graph, systems, max_size, time.time() - start)


# -- bent clique bound -----------------------------------------------------------


def bent_max_clique() -> int:
    """Maximum size of a bent set on arity 4 (d = 1) including the adjoined
    zero function: an exact colour-ordered maximum clique (``_max_clique``)."""
    # each truth table as one 16-bit int; f + g is bent iff bent[f ^ g]
    tables = np.packbits([f.table for f in enumerate_bent(4)], axis=1,
                         bitorder="little").view("<u2")[:, 0]
    bent = np.zeros(1 << 16, dtype=bool)
    bent[tables] = True
    masks = _adjacency_masks(bent[tables[:, None] ^ tables[None, :]])
    # zero function is adjacent to every bent function (0 + f = f is bent)
    return _max_clique(masks) + 1

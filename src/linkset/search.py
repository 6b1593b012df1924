"""Exhaustive search engines: difference-set enumeration, the linking graph
and its clique census, and the McFarland/Spence nonexistence sweeps.

All searches are exact.  The heavy inner loop, the products of one set
against many, is ``group_ring.pair_products``: a table gather and one
float32 GEMM per left set, exact because every coefficient is a count of at
most v <= 4096 < 2^24 ones.  Each search checks and casts its sets to
indicator rows once (``group_ring.indicators``) and reuses them for every
left set through the unchecked ``group_ring._pair_products``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import group_ring as rg
from .designs import (
    DifferenceSetRecord,
    DSParams,
    difference_set_params,
    hyperplanes,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    coset_transversal,
    find_central_elementary_abelian,
)
from .linking import MuNu, mu_nu_candidates, verify_reduced

# k-subsets checked per autocorrelation batch by enumerate_difference_sets
ENUMERATION_CHUNK = 1024


def enumerate_difference_sets(G: FiniteGroup, k: int) -> list[DifferenceSetRecord]:
    """Every k-subset of G that is a difference set, in lexicographic order."""
    if k > G.order // 2:
        raise ValueError("enumerate with k <= v/2; complements are mirrored")
    out = []
    combos = itertools.combinations(range(G.order), k)
    while chunk := list(itertools.islice(combos, ENUMERATION_CHUNK)):
        for combo, params in zip(chunk, difference_set_params(G, chunk)):
            if params is not None:
                out.append(DifferenceSetRecord(G, combo, params))
    return out


@dataclass(frozen=True)
class LinkingGraph:
    """Vertices are difference sets; (i, j) is an edge iff both ordered
    products decompose two-valuedly with difference-set witnesses."""

    group: FiniteGroup
    records: tuple[DifferenceSetRecord, ...]
    munu: MuNu
    adjacency: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.records)

    def num_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2


def _two_valued_pairs(args) -> list[tuple[int, int, tuple[int, ...]]]:
    """(i, j, support of the mu coefficients) for each row i in the range
    and every row j of the indicator matrix with members[i] members[j]^(-1)
    valued in {mu, nu}.

    Module level so that the --jobs process pool can run it.
    """
    G, members, mu, nu, rows = args
    out = []
    for i in rows:
        prods = rg._pair_products(G, members[i:i + 1], members)[0]
        # coefficient by coefficient over the surviving candidates: most
        # products leave {mu, nu} within a few coefficients
        cand = np.arange(len(prods))
        for h in range(G.order):
            coeff = prods[cand, h]
            cand = cand[(coeff == mu) | (coeff == nu)]
            if not len(cand):
                break
        for j in cand.tolist():
            out.append((i, j, tuple(np.flatnonzero(prods[j] == mu).tolist())))
    return out


def build_linking_graph(G: FiniteGroup, records, munu: MuNu, jobs: int = 1) -> LinkingGraph:
    records = tuple(records)
    if not records:
        raise ValueError("no vertices")
    params = records[0].params
    if any(r.params != params for r in records):
        raise ValueError("records must share parameters")
    n = len(records)
    indicators = rg.indicators(G, [r.elements for r in records])
    mu, nu = munu.as_tuple()
    chunks = _row_chunks(n, jobs)
    args = [(G, indicators, mu, nu, chunk) for chunk in chunks]
    if jobs > 1 and len(chunks) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_two_valued_pairs, args))
    else:
        results = [_two_valued_pairs(a) for a in args]

    pairs = [(i, j, support) for chunk_result in results
             for i, j, support in chunk_result if i != j]
    supports = sorted({support for _, _, support in pairs})
    linked = {support for support, p in zip(supports, difference_set_params(G, supports))
              if p == params}
    directed = np.zeros((n, n), dtype=bool)
    for i, j, support in pairs:
        if support in linked:
            directed[i, j] = True
    adjacency = directed & directed.T
    np.fill_diagonal(adjacency, False)
    return LinkingGraph(G, records, munu, adjacency)


def _row_chunks(n: int, jobs: int) -> list[range]:
    jobs = max(1, min(jobs, n)) if n else 1
    bounds = np.linspace(0, n, jobs + 1, dtype=int)
    return [range(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]


def enumerate_systems(graph: LinkingGraph, ell: int,
                      reverify: bool = True) -> list[tuple[DifferenceSetRecord, ...]]:
    """All ell-vertex cliques as unordered record tuples, lexicographic in
    vertex order; each clique re-verified by verify_reduced before emission."""
    if ell < 2:
        raise ValueError("system size must be at least 2")
    n = graph.num_vertices
    masks = _adjacency_masks(graph.adjacency)
    out: list[tuple[DifferenceSetRecord, ...]] = []

    def extend(clique: list[int], candidates: int, start: int) -> None:
        if len(clique) == ell:
            members = tuple(graph.records[i] for i in clique)
            if reverify:
                system = verify_reduced(graph.group, [r.elements for r in members])
                if system is None:
                    raise AssertionError("clique failed re-verification")
            out.append(members)
            return
        remaining = candidates >> start
        idx = start
        while remaining:
            step = (remaining & -remaining).bit_length() - 1
            idx += step
            remaining >>= step + 1
            clique.append(idx)
            extend(clique, candidates & masks[idx], idx + 1)
            clique.pop()
            idx += 1

    extend([], (1 << n) - 1, 0)
    return out


def _adjacency_masks(adjacency: np.ndarray) -> list[int]:
    masks = []
    for row in adjacency:
        m = 0
        for j in np.nonzero(row)[0]:
            m |= 1 << int(j)
        masks.append(m)
    return masks


def max_system_size(graph: LinkingGraph) -> int:
    """Maximum clique size (0 for an empty graph): the largest possible
    reduced linking system on these vertices."""
    masks = _adjacency_masks(graph.adjacency)
    n = graph.num_vertices
    best = [0]

    def expand(candidates: int, size: int) -> None:
        if candidates == 0:
            best[0] = max(best[0], size)
            return
        if size + bin(candidates).count("1") <= best[0]:
            return
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            if size + bin(candidates).count("1") <= best[0]:
                return
            candidates &= candidates - 1
            expand(candidates & masks[v], size + 1)

    expand((1 << n) - 1, 0)
    return best[0]


# -- nonexistence sweeps ---------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
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


def _subgroup_transversal_in(G: FiniteGroup, E: Subgroup, H: Subgroup) -> list[int]:
    """Coset reps of H inside E (minimal ids)."""
    seen: set[int] = set()
    reps = []
    for a in E.elements:
        if a not in seen:
            reps.append(a)
            for h in H.elements:
                seen.add(G.mul(a, h))
    return reps


def _translation_classes(G: FiniteGroup, sets: list[tuple[int, ...]]):
    """Canonical representative (lexicographically smallest left translate)
    per set; returns (distinct sets, class reps, set -> class index)."""
    classes: dict[tuple[int, ...], int] = {}
    reps: list[tuple[int, ...]] = []
    assign: dict[tuple[int, ...], int] = {}
    for S in sets:
        canon = min(tuple(sorted(G.mul(a, x) for x in S)) for a in G.elements())
        if canon not in classes:
            classes[canon] = len(reps)
            reps.append(canon)
        assign[S] = classes[canon]
    return reps, assign


def _sweep_pairs(G: FiniteGroup, sets, munu: MuNu, params: DSParams) -> tuple[int, int]:
    """Count linked ordered pairs of distinct sets (exact two-valued test
    plus a difference-set check on any surviving witness)."""
    members = rg.indicators(G, sets)
    mu, nu = munu.as_tuple()
    linked = 0
    for i in range(len(sets)):
        supports = [support for _, j, support in _two_valued_pairs((G, members, mu, nu, [i]))
                    if j != i]
        if supports:
            linked += sum(p == params for p in difference_set_params(G, supports))
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
    if G.order != 45:
        raise ValueError("expected a group of order 45")
    q, d = 3, 1
    E = _central_e(G, d + 1, q)
    family = hyperplanes(E, q, _greedy_basis(G, E, q))
    reps = list(coset_transversal(G, E).reps)
    s = family.count
    params = DSParams(45, 12, 3, 9)
    branches = mu_nu_candidates(params)
    if len(branches) != 1:
        raise AssertionError("expected the unique integer branch (1, 4)")
    munu = branches[0]

    h_transversals = [_subgroup_transversal_in(G, E, H) for H in family.members]
    constructed: list[tuple[int, ...]] = []
    for omitted in range(s + 1):
        cosets = [reps[i] for i in range(s + 1) if i != omitted]
        for perm in itertools.permutations(range(s)):
            for translates in itertools.product(*(range(len(t)) for t in h_transversals)):
                elems: list[int] = []
                for slot in range(s):
                    g = G.mul(cosets[perm[slot]], h_transversals[slot][translates[slot]])
                    elems.extend(G.mul(g, h) for h in family.members[slot].elements)
                constructed.append(tuple(sorted(elems)))
    distinct = sorted(set(constructed))
    class_reps, _assign = _translation_classes(G, distinct)
    verified = sum(p == params for p in difference_set_params(G, distinct))
    if verified != len(distinct):
        raise AssertionError("a constructed set failed difference-set verification")

    if mode == "full":
        tested, linked = _sweep_pairs(G, distinct, munu, params)
    elif mode == "pruned":
        tested, linked = _sweep_pairs(G, class_reps, munu, params)
    else:
        raise ValueError("mode must be 'full' or 'pruned'")
    return SweepReport(G.spec, "mcfarland-q3-d1", mode, len(constructed), len(distinct),
                       len(class_reps), tested, linked, munu.as_tuple(),
                       verified_sets=verified, runtime_seconds=time.time() - start)


def spence_pair_sweep(G: FiniteGroup, mode: str = "pruned") -> SweepReport:
    """Sweep all pairs of Spence-constructed (36,15,6,9) difference sets
    over the central Z_3^2 of an order-36 group: zero pairs may link."""
    start = time.time()
    if G.order != 36:
        raise ValueError("expected a group of order 36")
    d = 1
    E = _central_e(G, d + 1, 3)
    family = hyperplanes(E, 3, _greedy_basis(G, E, 3))
    reps = list(coset_transversal(G, E).reps)
    s = family.count
    params = DSParams(36, 15, 6, 9)
    branches = mu_nu_candidates(params)
    if len(branches) != 1:
        raise AssertionError("expected the unique integer branch (8, 5)")
    munu = branches[0]

    h_transversals = [_subgroup_transversal_in(G, E, H) for H in family.members]
    constructed: list[tuple[int, ...]] = []
    slot_of: dict[tuple[int, ...], set[int]] = {}
    for m_slot in range(s):
        for perm in itertools.permutations(range(s)):
            for translates in itertools.product(*(range(len(t)) for t in h_transversals)):
                elems = []
                for slot in range(s):
                    g = G.mul(reps[perm[slot]], h_transversals[slot][translates[slot]])
                    H = family.members[slot]
                    if slot == m_slot:
                        part = [h for h in E.elements if h not in set(H.elements)]
                    else:
                        part = list(H.elements)
                    elems.extend(G.mul(g, h) for h in part)
                S = tuple(sorted(elems))
                constructed.append(S)
                slot_of.setdefault(S, set()).add(m_slot)
    distinct = sorted(set(constructed))
    class_reps, _assign = _translation_classes(G, distinct)

    same = cross = 0
    for S1 in distinct[: min(len(distinct), 200)]:
        for S2 in distinct[: min(len(distinct), 200)]:
            if S1 == S2:
                continue
            if slot_of[S1] & slot_of[S2]:
                same += 1
            else:
                cross += 1

    verified = sum(p == params for p in difference_set_params(G, distinct))
    if verified != len(distinct):
        raise AssertionError("a constructed set failed difference-set verification")

    if mode == "full":
        tested, linked = _sweep_pairs(G, distinct, munu, params)
    elif mode == "pruned":
        tested, linked = _sweep_pairs(G, class_reps, munu, params)
    else:
        raise ValueError("mode must be 'full' or 'pruned'")
    return SweepReport(G.spec, "spence-d1", mode, len(constructed), len(distinct),
                       len(class_reps), tested, linked, munu.as_tuple(),
                       verified_sets=verified, same_slot_pairs=same, cross_slot_pairs=cross,
                       runtime_seconds=time.time() - start)


def _greedy_basis(G: FiniteGroup, E: Subgroup, p: int) -> tuple[int, ...]:
    basis: list[int] = []
    span = {0}
    for a in E.elements:
        if a not in span:
            basis.append(a)
            span = {G.mul(x, G.power(a, e)) for x in span for e in range(p)}
    return tuple(basis)


# -- whole-group censuses --------------------------------------------------------


@dataclass(frozen=True)
class CensusResult:
    group: FiniteGroup
    graph: LinkingGraph
    systems: list[tuple[DifferenceSetRecord, ...]]
    max_size: int
    runtime_seconds: float

    @property
    def count(self) -> int:
        return len(self.systems)


def census_systems(G: FiniteGroup, k: int, ell: int, jobs: int = 1) -> CensusResult:
    """Exhaustive census of size-ell reduced linking systems of k-subsets."""
    start = time.time()
    records = enumerate_difference_sets(G, k)
    if not records:
        return CensusResult(G, LinkingGraph(G, (), MuNu(0, 1, True), np.zeros((0, 0), dtype=bool)),
                            [], 0, time.time() - start)
    branches = mu_nu_candidates(records[0].params)
    if not branches:
        raise ValueError("parameters admit no integer (mu, nu)")
    graph = build_linking_graph(G, records, branches[0], jobs=jobs)
    systems = enumerate_systems(graph, ell)
    max_size = max_system_size(graph)
    return CensusResult(G, graph, systems, max_size, time.time() - start)


# -- bent clique bound -----------------------------------------------------------


def bent_max_clique(d: int = 1) -> int:
    """Maximum size of a bent set on arity 2d+2 including the adjoined zero
    function; exact branch-and-bound over all bent functions (d = 1 only)."""
    if d != 1:
        raise ValueError("exhaustive bent clique supported only at d = 1")
    from .bent import enumerate_bent

    bents = enumerate_bent(4)
    tables = [int.from_bytes(np.packbits(f.table, bitorder="little").tobytes(), "little")
              for f in bents]
    bent_ints = set(tables)
    n = len(tables)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if tables[i] ^ tables[j] in bent_ints:
                masks[i] |= 1 << j
                masks[j] |= 1 << i

    best = [0]

    def expand(candidates: int, size: int) -> None:
        if candidates == 0:
            if size > best[0]:
                best[0] = size
            return
        bound = size + _greedy_color_bound(candidates, masks)
        if bound <= best[0]:
            return
        while candidates:
            if size + bin(candidates).count("1") <= best[0]:
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            expand(candidates & masks[v], size + 1)

    expand((1 << n) - 1, 0)
    # zero function is adjacent to every bent function (0 + f = f is bent)
    return best[0] + 1


def _greedy_color_bound(candidates: int, masks: list[int]) -> int:
    colors = 0
    remaining = candidates
    while remaining:
        colors += 1
        cls = remaining
        while cls:
            v = (cls & -cls).bit_length() - 1
            cls &= cls - 1
            remaining &= ~(1 << v)
            cls &= ~masks[v]
    return colors

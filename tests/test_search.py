import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linkset import group_ring as rg
from linkset.designs import is_difference_set
from linkset.groups import Subgroup, make_abelian
from linkset.linking import mu_nu_candidates, verify_reduced
from linkset.search import (
    build_linking_graph,
    census_systems,
    enumerate_difference_sets,
    enumerate_systems,
    max_system_size,
    mcfarland_pair_sweep,
    spence_pair_sweep,
)
from linkset.worked_examples import linked_triple_z4z4

ROOT = Path(__file__).resolve().parent.parent


def test_enumerate_singletons():
    G = make_abelian([2, 2])
    records = enumerate_difference_sets(G, 1)
    assert [r.elements for r in records] == [(0,), (1,), (2,), (3,)]
    assert all(r.params.as_tuple() == (4, 1, 0, 1) for r in records)


def test_enumerate_z4z4_count(z4z4_census):
    records = z4z4_census.records
    assert len(records) == 192  # derived constant, frozen
    # lexicographic order over element tuples
    assert [r.elements for r in records] == sorted(r.elements for r in records)


def test_enumerate_z8z2_nonempty():
    G = make_abelian([8, 2])
    records = enumerate_difference_sets(G, 6)
    assert len(records) == 192  # derived constant, frozen
    assert all(r.params.as_tuple() == (16, 6, 2, 4) for r in records)


def test_graph_triple_adjacent(z4z4, z4z4_census):
    records, graph = z4z4_census.records, z4z4_census.graph
    _, sets = linked_triple_z4z4()
    index = {r.elements: i for i, r in enumerate(records)}
    ids = [index[tuple(s)] for s in sets]
    for i, j in itertools.permutations(ids, 2):
        assert graph.adjacency[i, j]
    assert not graph.adjacency.diagonal().any()


def test_graph_symmetry(z4z4_census):
    graph = z4z4_census.graph
    assert np.array_equal(graph.adjacency, graph.adjacency.T)


def test_directed_check_symmetric_by_involution(z4z4, z4z4_census):
    """If D_i D_j^(-1) decomposes with witness W, the reverse order
    decomposes with witness W^(-1); spot-check the computational fact."""
    records, graph = z4z4_census.records, z4z4_census.graph
    rng = random.Random(5)
    munu = graph.munu
    for _ in range(200):
        i, j = rng.randrange(len(records)), rng.randrange(len(records))
        if i == j:
            continue
        xi = records[i].ring_element()
        xj = records[j].ring_element()
        fwd = rg.decompose_two_valued(rg.mul(xi, rg.involution(xj)), *munu.as_tuple())
        bwd = rg.decompose_two_valued(rg.mul(xj, rg.involution(xi)), *munu.as_tuple())
        assert (fwd is None) == (bwd is None)
        if fwd is not None:
            assert tuple(sorted(z4z4.inv(a) for a in fwd)) == bwd


def test_census_counts(z4z4_census):
    graph, systems, max_size = z4z4_census.graph, z4z4_census.systems, z4z4_census.max_size
    assert len(systems) == 65536
    assert max_size == 3
    assert enumerate_systems(graph, 4) == []


def test_census_substructure(z4z4_census):
    records, graph = z4z4_census.records, z4z4_census.graph
    assert graph.num_edges() == 6144  # derived constant, frozen
    # every edge is a size-2 reduced system; spot-verify a sample
    edges = np.argwhere(graph.adjacency)
    rng = random.Random(8)
    for _ in range(20):
        i, j = edges[rng.randrange(len(edges))]
        assert verify_reduced(graph.group, [records[i].elements, records[j].elements])


def test_census_deterministic(z4z4_census):
    graph, systems = z4z4_census.graph, z4z4_census.systems
    again = enumerate_systems(graph, 3)
    assert [[r.elements for r in s] for s in systems] == \
        [[r.elements for r in s] for s in again]


def test_census_with_jobs_matches(z4z4, z4z4_census):
    records, graph = z4z4_census.records, z4z4_census.graph
    munu = mu_nu_candidates(records[0].params)[0]
    parallel = build_linking_graph(z4z4, records, munu, jobs=2)
    assert np.array_equal(parallel.adjacency, graph.adjacency)


def test_jobs_below_one_are_rejected_before_any_work(z4z4, monkeypatch):
    from linkset import search

    records = enumerate_difference_sets(z4z4, 6)
    munu = mu_nu_candidates(records[0].params)[0]
    monkeypatch.setattr(search, "enumerate_difference_sets", None)
    monkeypatch.setattr(search, "PairCheck", None)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            build_linking_graph(z4z4, records, munu, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            census_systems(z4z4, 6, 2, jobs=jobs)


def test_a_mu_nu_that_is_no_branch_is_rejected_before_the_pool(z4z4_census, monkeypatch):
    """``build_linking_graph`` binds (mu, nu) before it starts the --jobs
    process pool, so a (mu, nu) that is no branch raises ValueError with no
    worker process; the patched pool is reached with a branch."""
    import concurrent.futures

    from linkset.linking import MuNu

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    G, records = z4z4_census.graph.group, z4z4_census.records
    with pytest.raises(ValueError, match="branch"):
        build_linking_graph(G, records, MuNu(3, 1, False), jobs=2)
    with pytest.raises(AssertionError, match="pool"):
        build_linking_graph(G, records, z4z4_census.graph.munu, jobs=2)


def test_the_census_checks_its_sets_with_one_batch_each(z4z4_census, monkeypatch):
    """``build_linking_graph`` checks its 192 vertices, and the clique
    re-verification its clique members, with one autocorrelation batch
    each."""
    batches = []
    blocks = rg.autocorrelation_blocks
    monkeypatch.setattr(rg, "autocorrelation_blocks",
                        lambda G, sets: batches.append(len(sets)) or blocks(G, sets))
    graph = z4z4_census.graph
    build_linking_graph(graph.group, graph.records, graph.munu)
    assert batches == [192]
    batches.clear()
    edges = [(i, int(np.flatnonzero(graph.adjacency[i])[-1])) for i in (0, 5)]
    assert len(enumerate_systems(_edges_only(graph, edges), 2)) == 2
    assert batches == [4]


def test_translation_invariance(z4z4, z4z4_census):
    """linking success of (D1, D2) equals that of (aD1, D2b) in abelian G."""
    records, graph = z4z4_census.records, z4z4_census.graph
    G = z4z4
    rng = random.Random(12)
    munu = graph.munu
    for _ in range(50):
        r1 = records[rng.randrange(len(records))]
        r2 = records[rng.randrange(len(records))]
        a, b = rng.randrange(16), rng.randrange(16)
        t1 = tuple(sorted(G.mul(a, x) for x in r1.elements))
        t2 = tuple(sorted(G.mul(x, b) for x in r2.elements))

        def links(s1, s2):
            prod = rg.mul(rg.from_subset(G, s1), rg.involution(rg.from_subset(G, s2)))
            support = rg.decompose_two_valued(prod, *munu.as_tuple())
            if support is None:
                return False
            return is_difference_set(G, support) == r1.params

        assert links(r1.elements, r2.elements) == links(t1, t2)


def test_z8z2_no_systems():
    G = make_abelian([8, 2])
    result = census_systems(G, 6, 2)
    assert len(result.graph.records) == 192
    assert result.count == 0
    assert result.max_size <= 1


def test_mcfarland_sweep_structure():
    report = mcfarland_pair_sweep(make_abelian([3, 3, 5]), mode="pruned")
    assert report.constructed_count == 5 * 24 * 81  # 9720
    assert report.distinct_count == 9720
    assert report.class_count == 216
    assert report.munu == (1, 4)
    assert report.linked_pairs == 0
    assert report.verified_sets == report.distinct_count  # all are (45,12,3,9) sets
    with pytest.raises(ValueError):
        mcfarland_pair_sweep(make_abelian([3, 3, 5]), mode="bogus")
    with pytest.raises(ValueError):
        mcfarland_pair_sweep(make_abelian([3, 3]), mode="full")


def test_mcfarland_constructed_sets_are_difference_sets():
    from linkset.designs import construction_sets, difference_set_params, hyperplanes
    from linkset.groups import coset_transversal, find_central_elementary_abelian

    G = make_abelian([3, 3, 5])
    E = find_central_elementary_abelian(G, 2, p=3)[0]
    fam = hyperplanes(E, 3, (G.element("x1"), G.element("x2")))
    rows = construction_sets(fam, coset_transversal(G, E).reps)
    assert rows.shape == (5 * 24 * 81, 12)
    sample = rows[random.Random(3).sample(range(len(rows)), 200)]
    for params in difference_set_params(G, sample):
        assert params is not None and params.as_tuple() == (45, 12, 3, 9)


def test_spence_sweep_structure():
    report = spence_pair_sweep(make_abelian([3, 3, 2, 2]), mode="pruned")
    assert report.constructed_count == 4 * 24 * 81  # 7776
    assert (report.distinct_count, report.class_count) == (7776, 216)
    # sampled over the first 200 distinct sets; derived constants, frozen
    assert (report.same_slot_pairs, report.cross_slot_pairs) == (9806, 29994)
    assert report.munu == (8, 5)
    assert report.linked_pairs == 0
    assert report.verified_sets == report.distinct_count  # all are (36,15,6,9) sets
    assert report.same_slot_pairs > 0 and report.cross_slot_pairs > 0


@pytest.mark.parametrize("argv", [["nonexist", "mcfarland-q3"],
                                  ["nonexist", "spence-d1", "--full"]])
def test_sweeps_leave_numpy_ma_unimported(argv):
    """np.unique without index, inverse or count outputs imports numpy.ma
    (about 20 ms); the sweeps' dedup, translation classes and transversal
    checks use none."""
    code = ("import sys; from linkset.cli import run; "
            f"assert run({argv!r}) == 1; print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("factors, images", [([3, 3, 5], 81), ([3, 3, 2, 2], 324),
                                             ([3, 3, 4], 324)])
def test_projection_sieve_alone_decides_the_q3_sweeps(factors, images):
    """On G/K (K the elements of order prime to 3) the sieve drops every
    ordered pair of the full McFarland (order 45) and Spence (order 36)
    set lists.  The sweeps' dedup gives np.unique(axis=0)'s rows, in its
    order, and its inverse, on the constructed sets and on the projections."""
    from linkset.designs import DSParams, construction_sets
    from linkset.groups import quotient
    from linkset.linking import _distinct_rows
    from linkset.search import _projection_sieve, _sweep_setup

    G = make_abelian(factors)
    params = DSParams(45, 12, 3, 9) if G.order == 45 else DSParams(36, 15, 6, 9)
    family, reps, munu, K = _sweep_setup(G, "full", params)
    slots = [None] if G.order == 45 else range(family.count)
    constructed = np.concatenate([construction_sets(family, reps, m) for m in slots])
    want, want_where = np.unique(constructed, axis=0, return_inverse=True)
    first, where = _distinct_rows(constructed)
    sets = constructed[first]
    assert np.array_equal(sets, want) and np.array_equal(where, want_where.reshape(-1))
    assert len(sets) == {45: 9720, 36: 7776}[G.order]
    classes, keep = _projection_sieve(G, sets, K, munu)
    assert keep.shape == (images, images)
    proj = quotient(G, K)[1]
    counts = np.stack([np.bincount(row, minlength=9) for row in proj[sets]])
    assert np.array_equal(classes, np.unique(counts, axis=0, return_inverse=True)[1].reshape(-1))
    sizes = np.bincount(classes)
    assert sizes.sum() == len(sets) and int(sizes @ keep @ sizes) == 0


def _subgroups(G):
    """Every subgroup of G, by closing each one found under one more element."""
    from linkset.groups import subgroup_generated

    found = {(0,): ()}
    frontier = [((0,), ())]
    while frontier:
        elements, gens = frontier.pop()
        for g in G.elements():
            if g not in elements:
                H = subgroup_generated(G, [*gens, g]).elements
                if H not in found:
                    found[H] = (*gens, g)
                    frontier.append((H, found[H]))
    return [Subgroup(G, H) for H in found]


@pytest.mark.parametrize("factors, directed, proper", [([4, 4], 12288, 13),
                                                       ([4, 2, 2], 36864, 25),
                                                       ([2, 2, 2, 2], 86016, 65)])
def test_projection_sieve_keeps_every_linked_pair(factors, directed, proper):
    """Soundness (mu < nu): every directed linked pair of the (16,6,2)
    census passes the projection test on G/N for every proper nontrivial N."""
    from linkset.search import _projection_sieve

    G = make_abelian(factors)
    records = enumerate_difference_sets(G, 6)
    munu = mu_nu_candidates(records[0].params)[0]
    adjacency = build_linking_graph(G, records, munu).adjacency
    assert munu.as_tuple() == (1, 3) and int(adjacency.sum()) == directed
    left, right = np.nonzero(adjacency)
    subgroups = [N for N in _subgroups(G) if 1 < N.order < G.order]
    assert len(subgroups) == proper
    for N in subgroups:
        classes, keep = _projection_sieve(G, [r.elements for r in records], N, munu)
        assert keep[classes[left], classes[right]].all()


def test_sweep_pairs_survivor_path_matches_the_exhaustive_scan():
    """With a weak N (order 2) pairs survive the sieve, and the full pair
    check behind it finds exactly the linked pairs the exhaustive scan does."""
    from linkset.designs import difference_set_params
    from linkset.search import _projection_sieve, _sweep_pairs

    G = make_abelian([4, 4])
    records = enumerate_difference_sets(G, 6)
    sets = np.array([r.elements for r in records])
    params = records[0].params
    munu = mu_nu_candidates(params)[0]
    pairs = _full_scan(G, rg.indicators(G, sets), *munu.as_tuple())
    supports = [support for i, j, support in pairs if i != j]
    want = sum(p == params for p in difference_set_params(G, supports))
    assert want == 12288
    order2 = [N for N in _subgroups(G) if N.order == 2]
    assert len(order2) == 3
    for N in order2:
        classes, keep = _projection_sieve(G, sets, N, munu)
        sizes = np.bincount(classes)
        assert int(sizes @ keep @ sizes) > want  # the full check rejects some survivors
        assert _sweep_pairs(G, sets, munu, N) == (len(sets) ** 2, want)


def test_sweeps_reject_a_group_without_a_normal_3_complement():
    """K must be a normal subgroup of index 9; in S3 x S3 the elements of
    order prime to 3 are 16 of 36 (and the centre is trivial)."""
    from linkset.groups import FiniteGroup
    from linkset.search import _prime_to_3_subgroup

    perms = list(itertools.product(itertools.permutations(range(3)), repeat=2))
    table = [[perms.index(tuple(tuple(a[i][b[i][x]] for x in range(3)) for i in (0, 1)))
              for b in perms] for a in perms]
    G = FiniteGroup(np.array(table), ["1", *(f"s{i}" for i in range(1, 36))], [], "S3xS3")
    with pytest.raises(ValueError):
        _prime_to_3_subgroup(G)
    with pytest.raises(ValueError):
        spence_pair_sweep(G, mode="full")
    assert _prime_to_3_subgroup(make_abelian([3, 3, 4])).order == 4


def brute_max_clique(adj):
    n = len(adj)
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(adj[i][j] for i in combo for j in combo if i < j):
                return r
    return 0


def test_max_system_size_matches_brute_force():
    from linkset.linking import MuNu
    from linkset.search import LinkingGraph

    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(3, 11)
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i, j] = adj[j, i] = True
        graph = LinkingGraph(make_abelian([2]), tuple(range(n)), MuNu(1, 3, True), adj)
        assert max_system_size(graph) == brute_max_clique(adj.tolist())


@pytest.mark.parametrize("factors, size", [([2, 2, 2, 2], 7), ([4, 2, 2], 3)])
def test_max_system_size_order16(factors, size):
    """The (16,6,2,4) linking graphs of Z2^4 (448 vertices) and Z4 x Z2^2."""
    G = make_abelian(factors)
    records = enumerate_difference_sets(G, 6)
    graph = build_linking_graph(G, records, mu_nu_candidates(records[0].params)[0])
    assert max_system_size(graph) == size


def test_enumerate_systems_matches_brute_force(monkeypatch):
    """The clique listing behind enumerate_systems, on random graphs and the
    empty graph, for sizes 2..5: in one block, and ANDing 5 entries at a
    time (one clique a block)."""
    from linkset import search
    from linkset.search import _clique_indices

    rng = random.Random(43)
    graphs = [np.zeros((0, 0), dtype=bool), np.zeros((6, 6), dtype=bool)]
    for _ in range(10):
        n = rng.randint(4, 12)
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    adj[i, j] = adj[j, i] = True
        graphs.append(adj)
    for block in (search.LISTING_BLOCK, 5):
        monkeypatch.setattr(search, "LISTING_BLOCK", block)
        for adj in graphs:
            n = len(adj)
            for ell in range(2, 6):
                got = _clique_indices(adj, ell)
                want = [c for c in itertools.combinations(range(n), ell)
                        if all(adj[i][j] for i in c for j in c if i < j)]
                assert got.shape == (len(want), ell)
                assert [tuple(c) for c in got.tolist()] == want


def test_adjacency_masks_match_rows():
    from linkset.search import _adjacency_masks

    rng = np.random.default_rng(44)
    for n in (0, 1, 7, 8, 9, 70):
        adj = rng.random((n, n)) < 0.4
        want = [sum(1 << j for j in range(n) if adj[i, j]) for i in range(n)]
        assert _adjacency_masks(adj) == want


def test_bent_clique_graph_matches_the_pairwise_loop(monkeypatch):
    """bent_max_clique's table-lookup adjacency equals the pairwise rule
    (f ~ g iff f + g is bent), built pair by pair over the 896 arity-4 bent
    functions."""
    from linkset import search
    from linkset.bent import enumerate_bent

    tables = [int.from_bytes(np.packbits(f.table, bitorder="little").tobytes(), "little")
              for f in enumerate_bent(4)]
    bent = set(tables)
    want = [sum(1 << j for j, g in enumerate(tables) if f ^ g in bent) for f in tables]
    seen = []
    monkeypatch.setattr(search, "_max_clique", lambda masks: seen.append(masks) or 7)
    assert search.bent_max_clique(1) == 8
    assert seen == [want] and len(want) == 896


def test_census_builds_masks_once(monkeypatch):
    from linkset import search

    calls = []
    real = search._adjacency_masks
    monkeypatch.setattr(search, "_adjacency_masks", lambda adj: calls.append(1) or real(adj))
    result = census_systems(make_abelian([4, 4]), 6, 2)
    assert len(calls) == 1
    assert result.max_size == 3 and result.count > 0


def test_census_reverifies_with_one_pair_scan(z4z4_census, monkeypatch):
    """enumerate_systems re-verifies all 65,536 size-3 cliques of the Z4^2
    census with one call of the pair check, over the clique members."""
    from linkset import search

    calls = []
    real = search.PairCheck.block
    monkeypatch.setattr(search.PairCheck, "block",
                        lambda self, rows, cols: calls.append(len(rows)) or real(self, rows, cols))
    systems = enumerate_systems(z4z4_census.graph, 3)
    assert len(systems) == 65536 and systems.verified_pairs == 12288
    assert calls == [192]


def _edges_only(graph, edges):
    """The graph with only the given undirected edges."""
    from dataclasses import replace

    adj = np.zeros_like(graph.adjacency)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return replace(graph, adjacency=adj)


def test_false_edge_fails_reverification(z4z4_census):
    """An edge between two unlinked sets is caught, as a size-2 clique and
    inside a size-3 clique, at each position of the clique."""
    from dataclasses import replace

    graph = z4z4_census.graph
    adj = graph.adjacency
    found = {}  # where the common neighbour m sits relative to i < j
    for i, j in zip(*np.nonzero(np.triu(~adj, 1))):
        for m in np.flatnonzero(adj[i] & adj[j]).tolist():
            found.setdefault(int(m > i) + int(m > j), (int(i), int(j), m))
        if len(found) == 3:
            break
    assert len(found) == 3
    for i, j, m in found.values():
        assert verify_reduced(graph.group, [graph.records[i].elements,
                                            graph.records[j].elements]) is None
        assert len(enumerate_systems(_edges_only(graph, [(i, m), (j, m)]), 2)) == 2
        for ell in (2, 3):
            with pytest.raises(AssertionError, match="re-verification"):
                enumerate_systems(_edges_only(graph, [(i, m), (j, m), (i, j)]), ell)
    i, j, _ = found[0]
    with_edge = adj.copy()
    with_edge[i, j] = with_edge[j, i] = True
    for ell in (2, 3):
        with pytest.raises(AssertionError, match="re-verification"):
            enumerate_systems(replace(graph, adjacency=with_edge), ell)


def test_wrong_graph_data_fails_reverification(z4z4_census):
    """A graph carrying the wrong (mu, nu), or a vertex that is not a
    difference set, fails re-verification."""
    from dataclasses import replace

    from linkset.designs import DifferenceSetRecord
    from linkset.linking import MuNu

    graph = z4z4_census.graph
    assert graph.munu.as_tuple() == (1, 3)
    # every edge product is valued in {3, 1} too, but its 3-support has 10
    # elements and is no (16, 6, 2) difference set
    for munu in (MuNu(3, 1, False), MuNu(1, 2, True)):
        with pytest.raises(AssertionError, match="re-verification"):
            enumerate_systems(replace(graph, munu=munu), 2)
    i = int(np.flatnonzero(graph.adjacency.any(axis=1))[0])
    records = list(graph.records)
    records[i] = DifferenceSetRecord(graph.group, (0, 1, 2, 3, 4, 5), records[i].params)
    assert is_difference_set(graph.group, records[i].elements) is None
    with pytest.raises(AssertionError, match="re-verification"):
        enumerate_systems(replace(graph, records=tuple(records)), 2)


def test_pair_verdicts_match_verify_reduced(z4z4_census):
    """The pair check's verdicts and witnesses (``PairCheck.block`` over all
    n x n pairs) equal verify_reduced on the 2-set system: every edge and a
    sample of non-edges, each in both orientations."""
    from linkset.linking import PairCheck

    graph = z4z4_census.graph
    G, records, n = graph.group, graph.records, graph.num_vertices
    rng = np.random.default_rng(71)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    edges = np.argwhere(graph.adjacency & upper)
    non_edges = np.argwhere(~graph.adjacency & upper)
    pairs = np.concatenate([edges, non_edges[rng.choice(len(non_edges), 300, replace=False)]])
    assert len(edges) == 6144
    everyone = np.arange(n)
    s, t, supports = PairCheck(G, graph.ids).bind(graph.munu).block(everyone, everyone)
    found = np.full((n, n), -1)
    found[s, t] = np.arange(len(s))
    for i, j in pairs.tolist():
        system = verify_reduced(G, [records[i].elements, records[j].elements])
        linked = system is not None and system.munu == graph.munu
        assert (found[i, j] >= 0) == (found[j, i] >= 0) == linked
        if linked:
            assert tuple(supports[found[i, j]].tolist()) == system.witnesses[(1, 2)].elements
            assert tuple(supports[found[j, i]].tolist()) == system.witnesses[(2, 1)].elements
    assert (found[pairs[:, 0], pairs[:, 1]] >= 0).sum() == 6144


def test_two_valued_pairs_match_the_ring_product():
    """The linking graph's counts and edges against rg.mul, pair by pair."""
    cases = [(make_abelian([4, 4]), 4), (_d4z2(), 3)]
    for G, stride in cases:
        records = enumerate_difference_sets(G, 6)[::stride]
        params = records[0].params
        munu = mu_nu_candidates(params)[0]
        graph = build_linking_graph(G, records, munu)
        two_valued, directed = 0, np.zeros((len(records),) * 2, dtype=bool)
        for (i, X), (j, Y) in itertools.permutations(enumerate(records), 2):
            prod = rg.mul(X.ring_element(), rg.involution(Y.ring_element()))
            support = rg.decompose_two_valued(prod, *munu.as_tuple())
            if support is not None:
                two_valued += 1
                directed[i, j] = is_difference_set(G, support) == params
        assert graph.linked_pairs == two_valued == int(directed.sum()) > 0
        assert np.array_equal(graph.adjacency, directed & directed.T)


def _d4z2():
    from linkset.groups import direct_product, make_dihedral8

    return direct_product(make_dihedral8(), make_abelian([2]))


def _full_scan(G, members, mu, nu):
    """The two-valued pairs (i, j, mu-support), i == j included, from a
    full product row for every pair, one left row at a time."""
    out = []
    products = rg.RowProducts(G, members)
    for i in range(len(members)):
        prods = products([i], range(len(members)))[0]
        for j in np.flatnonzero(((prods == mu) | (prods == nu)).all(axis=1)).tolist():
            out.append((i, j, tuple(np.flatnonzero(prods[j] == mu).tolist())))
    return out


@pytest.mark.parametrize("group, k, sample, two_valued", [
    ("Z4xZ4", 6, None, 12288), ("Z4xZ2xZ2", 6, None, 36864), ("Z8xZ2", 6, None, 0),
    ("D4xZ2", 6, 70, None), ("Z4xZ4", 1, None, 240)])
def test_linking_graph_matches_full_products(group, k, sample, two_valued, monkeypatch):
    """The graph's adjacency and linked count against a full
    product row per pair (``_full_scan``), one difference-set check per
    mu-support and verify_reduced on sampled pairs: in one product block,
    over two jobs and in blocks of two left rows; and the pair check on a
    rectangle whose rows and columns overlap in part.  Singletons (k = 1)
    link with themselves too, so the diagonal must be dropped."""
    from linkset import linking
    from linkset.designs import difference_set_params

    G = {"Z4xZ4": make_abelian([4, 4]), "Z4xZ2xZ2": make_abelian([4, 2, 2]),
         "Z8xZ2": make_abelian([8, 2]), "D4xZ2": _d4z2()}[group]
    records = enumerate_difference_sets(G, k)
    rng = random.Random(67)
    if sample:
        records = sorted(rng.sample(records, sample), key=lambda r: r.elements)
    n, params = len(records), records[0].params
    munu = mu_nu_candidates(params)[0]
    scan = [(i, j, support) for i, j, support in _full_scan(
        G, rg.indicators(G, [r.elements for r in records]), *munu.as_tuple()) if i != j]
    linked = [p == params for p in difference_set_params(G, [s for _, _, s in scan])]
    assert two_valued in (None, len(scan))
    directed = np.zeros((n, n), dtype=bool)
    for (i, j, _), ok in zip(scan, linked):
        directed[i, j] = ok
    want = directed & directed.T
    for i, j in (rng.sample(range(n), 2) for _ in range(10)):
        system = verify_reduced(G, [records[i].elements, records[j].elements])
        assert want[i, j] == (system is not None and system.munu == munu)

    rows, cols = np.arange(2 * n // 3), np.arange(n // 3, n)
    in_rect = [(i, j, support, ok) for (i, j, support), ok in zip(scan, linked)
               if i < 2 * n // 3 and j >= n // 3]
    want_rect = [(i, j - n // 3, support) for i, j, support, ok in in_rect if ok]
    ids = np.array([r.elements for r in records])

    def check():
        s, t, supports = linking.PairCheck(G, ids).bind(munu).block(rows, cols)
        assert len(s) == len(in_rect)
        assert [(a, b, tuple(c)) for a, b, c in zip(s.tolist(), t.tolist(),
                                                    supports.tolist())] == want_rect

    graphs = [build_linking_graph(G, records, munu), build_linking_graph(G, records, munu, jobs=2)]
    check()
    monkeypatch.setattr(linking, "PRODUCT_BLOCK", 2 * n * G.order)
    graphs.append(build_linking_graph(G, records, munu))
    check()
    for graph in graphs:
        assert np.array_equal(graph.adjacency, want)
        assert graph.linked_pairs == len(scan) == sum(linked)


@pytest.mark.parametrize("block_sets", [None, 7])
def test_translation_classes_match_brute_force(block_sets, monkeypatch):
    """Canonical representatives are the smallest sorted left translates,
    listed in order of first appearance, in abelian and nonabelian groups
    and at orders 52 and 53, where id 0 carries the top key bit 2^52 (in
    one block of sets, and in blocks of 7)."""
    from linkset import search
    from linkset.groups import direct_product, make_dihedral8
    from linkset.search import _translation_classes

    rng = random.Random(61)
    for G in (make_abelian([3, 3, 5]), direct_product(make_dihedral8(), make_abelian([3])),
              make_abelian([4, 13]), make_abelian([53])):
        base = [rng.sample(range(G.order), 7) for _ in range(12)]
        sets = []
        for _ in range(60):
            a = rng.randrange(G.order)  # one translate per set
            sets.append(sorted(G.mul(a, x) for x in rng.choice(base)))
        assert all(len(set(S)) == 7 for S in sets)
        if block_sets:
            monkeypatch.setattr(search, "CLASS_BLOCK", block_sets * G.order)
        got = _translation_classes(G, np.array(sets))

        def canon(S, side):
            return min(tuple(sorted(G.mul(a, x) if side == "left" else G.mul(x, a) for x in S))
                       for a in G.elements())

        want = list(dict.fromkeys(canon(S, "left") for S in sets))
        assert [tuple(r) for r in got.tolist()] == want
        if not G.abelian:  # right translates would give other representatives
            assert want != list(dict.fromkeys(canon(S, "right") for S in sets))


@pytest.mark.parametrize("rows", [[[1, 1, 2]], [[0, 3, 2]], [[0, 1, 2], [5, 4, 6]],
                                  [[-1, 2, 3]], [[1, 2, 45]]])
def test_translation_classes_reject_rows_that_are_not_sets(rows):
    from linkset.search import _translation_classes

    with pytest.raises(ValueError, match="strictly increasing"):
        _translation_classes(make_abelian([3, 3, 5]), np.array(rows))


def test_set_keys_reject_orders_past_53_before_allocating():
    """Past order 53 a translate key would need more than float64's 53
    bits; _translation_classes raises before its first array (one float64
    entry per id of the 4,000 rows below already takes 192 kB)."""
    import tracemalloc

    from linkset.search import _translation_classes

    G = make_abelian([54])
    sets = np.sort(np.random.default_rng(5).permuted(np.tile(np.arange(54), (4000, 1)),
                                                     axis=1)[:, :6], axis=1)
    tracemalloc.start()
    with pytest.raises(ValueError, match="order <= 53"):
        _translation_classes(G, sets)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 50_000


def test_distinct_rows_match_numpy_unique_on_random_sets():
    """The one row dedup gives np.unique(axis=0)'s first indices, in its
    (lexicographic) order, and its inverse: for rows of 1 to 17 entries
    (padding inside and past one 8-byte word) whose largest entry needs 1,
    2 or 4 bytes, duplicates included, and for no rows at all (the sweeps'
    own sets are compared in test_projection_sieve_alone_decides_the_q3_sweeps)."""
    from linkset.linking import _distinct_rows

    rng = np.random.default_rng(53)
    for width, top in itertools.product([1, 7, 8, 9, 17], [1, 255, 256, 65535, 65536]):
        drawn = rng.integers(0, top + 1, size=(60, width))
        drawn[1::2, 1:] = drawn[::2, 1:]  # rows that differ only in their first entry
        rows = drawn[rng.integers(0, 60, size=180)]
        rows[rng.integers(180), rng.integers(width)] = top
        assert 0 < len(np.unique(rows, axis=0)) < len(rows) and rows.max() == top
        for case in (rows, rows[:0]):
            _, want_first, want_where = np.unique(case, axis=0, return_index=True,
                                                  return_inverse=True)
            first, where = _distinct_rows(case)
            assert np.array_equal(first, want_first)
            assert np.array_equal(where, want_where.reshape(-1))


def test_linking_graph_rejects_a_record_that_is_no_difference_set(z4z4_census):
    """``build_linking_graph`` checks its vertex records once: a record
    claiming (16, 6, 2) parameters that is no difference set raises
    ValueError, and so does a (mu, nu) that is no branch of them."""
    from linkset.designs import DifferenceSetRecord
    from linkset.linking import MuNu

    G, records = z4z4_census.graph.group, list(z4z4_census.records[:5])
    munu = z4z4_census.graph.munu
    bad = DifferenceSetRecord(G, (0, 1, 2, 3, 4, 5), records[0].params)
    with pytest.raises(ValueError, match="difference set"):
        build_linking_graph(G, records + [bad], munu)
    with pytest.raises(ValueError, match="branch"):
        build_linking_graph(G, records, MuNu(3, 1, False))
    assert build_linking_graph(G, records, munu).num_vertices == 5

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linkset import group_ring as rg
from linkset import search
from linkset.designs import (
    DifferenceSetRecord,
    difference_set_mask,
    difference_set_params,
    is_difference_set,
)
from linkset.groups import (
    FiniteGroup,
    Subgroup,
    _prime_factors,
    direct_product,
    make_abelian,
    make_dihedral8,
    make_quaternion8,
)
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


def _subset_walk(G, k):
    """The enumeration the contraction replaced, kept as its oracle: every
    k-subset in lexicographic order, checked by ``difference_set_params``
    in batches of 1024."""
    out = []
    combos = itertools.combinations(range(G.order), k)
    while chunk := list(itertools.islice(combos, 1024)):
        ids = np.array(chunk, dtype=np.int64).reshape(len(chunk), k)
        out += [DifferenceSetRecord(G, combo, params)
                for combo, params in zip(chunk, difference_set_params(G, ids))
                if params is not None]
    return out


def _permutation_group(name, gens):
    """The group generated by permutations of 0..n-1 (tuples), elements in
    order of discovery from the identity (id 0), a*b = a after b."""
    elements = [tuple(range(len(gens[0])))]
    index = {elements[0]: 0}
    for a in elements:  # grows while it is walked
        for g in gens:
            b = tuple(g[x] for x in a)
            if b not in index:
                index[b] = len(elements)
                elements.append(b)
    table = [[index[tuple(a[x] for x in b)] for b in elements] for a in elements]
    names = ["1", *(f"{name.lower()}{i}" for i in range(1, len(elements)))]
    return FiniteGroup(np.array(table), names, [], name)


def _order16_groups():
    Z2 = make_abelian([2])
    return {"Z4xZ4": make_abelian([4, 4]), "Z8xZ2": make_abelian([8, 2]),
            "Z4xZ2xZ2": make_abelian([4, 2, 2]), "Z2^4": make_abelian([2, 2, 2, 2]),
            "D4xZ2": direct_product(make_dihedral8(), Z2),
            "Q8xZ2": direct_product(make_quaternion8(), Z2)}


# S3, A4 and the Frobenius group Z7 : Z3 of order 21 have trivial centres
CENTRELESS = {"S3": [(1, 0, 2), (1, 2, 0)], "A4": [(1, 2, 0, 3), (0, 2, 3, 1)],
              "F21": [(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)]}


def test_normal_series_steps_are_normal_of_least_index():
    """Each step of ``normal_series`` is a normal subgroup containing the
    one before; in nilpotent groups every index is prime, and a centreless
    group steps through its least normal closure: A3 in S3, V4 in A4 (index
    4) and Z7 in Z7 : Z3."""
    from linkset.groups import is_normal, normal_series

    groups = list(_order16_groups().values()) + [make_abelian([6, 6]), make_abelian([15])]
    groups += [_permutation_group(name, gens) for name, gens in CENTRELESS.items()]
    orders = []
    for G in groups:
        series = normal_series(G)
        assert series[0].elements == (0,) and series[-1].elements == tuple(range(G.order))
        for N, M in zip(series, series[1:]):
            assert is_normal(G, M) and set(N.elements) < set(M.elements)
        orders.append([N.order for N in series])
    for chain in orders[:-3]:
        assert all(_prime_factors(b // a) == [b // a] for a, b in zip(chain, chain[1:]))
    assert orders[-4:] == [[1, 3, 15], [1, 3, 6], [1, 4, 12], [1, 7, 21]]
    assert orders[-5] == [1, 2, 4, 12, 36]


@pytest.mark.parametrize("name, k", [(name, k) for name in _order16_groups() for k in (0, 1, 6)])
def test_enumeration_matches_the_subset_walk_on_order_16(name, k, monkeypatch):
    """Elements, params and order as the subset walk gives them, with fewer
    than C(16, 6) / 4 = 2002 rows reaching the final difference-set check."""
    G = _order16_groups()[name]
    checked = []

    def counting(G, ids, params):
        checked.append(len(ids))
        return difference_set_mask(G, ids, params)

    monkeypatch.setattr(search, "difference_set_mask", counting)
    got = enumerate_difference_sets(G, k)
    assert [(r.elements, r.params) for r in got] == [
        (r.elements, r.params) for r in _subset_walk(G, k)]
    assert len(got) == {0: 1, 1: 16}.get(k, len(got)) and len(got) <= sum(checked) < 2002


def test_enumeration_in_small_blocks_and_its_index_bound(monkeypatch):
    """Blocks of 5 candidate rows cut one row's splits across blocks and
    give the same records; a row with 2^64 splits, past int64 indices, is
    refused before any block is decoded."""
    from linkset.search import _split_table, _splits

    G = _order16_groups()["Q8xZ2"]
    want = enumerate_difference_sets(G, 6)
    monkeypatch.setattr(search, "CONTRACTION_BLOCK", 5)
    assert enumerate_difference_sets(G, 6) == want
    split = _split_table(np.repeat(np.arange(64), 2), 1, 2)  # a count 1 splits two ways
    with pytest.raises(ValueError, match="too many splits"):
        next(_splits(np.ones((1, 64), dtype=np.int64), *split))


@pytest.mark.parametrize("group, k, count", [
    ("Z7", 3, 14), ("Z13", 4, 52), ("Z11", 5, 22), ("Z15", 7, 30), ("Z15", 4, 0),
    ("Z4xZ4", 5, 0), ("S3", 0, 1), ("S3", 1, 6), ("S3", 3, 0), ("A4", 1, 12), ("A4", 6, 0),
    ("F21", 5, None), ("F21", 4, 0)])
def test_enumeration_matches_the_subset_walk(group, k, count):
    """Cyclic Singer and Paley parameters, k with no integer lambda (no
    difference set, so nothing is searched), and centreless groups whose
    series has a composite or noncentral step."""
    G = (_permutation_group(group, CENTRELESS[group]) if group in CENTRELESS
         else make_abelian([4, 4]) if group == "Z4xZ4" else make_abelian([int(group[1:])]))
    got = enumerate_difference_sets(G, k)
    assert [(r.elements, r.params) for r in got] == [
        (r.elements, r.params) for r in _subset_walk(G, k)]
    assert count in (None, len(got)) and (count is not None or len(got) > 0)


@pytest.mark.parametrize("k", [-1, 9])
def test_enumeration_rejects_k_outside_0_to_half_the_order(k):
    with pytest.raises(ValueError, match="0 <= k <= v/2"):
        enumerate_difference_sets(make_abelian([4, 4]), k)


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
    records = enumerate_difference_sets(z4z4, 6)
    munu = mu_nu_candidates(records[0].params)[0]
    monkeypatch.setattr(search, "enumerate_difference_sets", None)
    monkeypatch.setattr(search, "PairCheck", None)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            build_linking_graph(z4z4, records, munu, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            census_systems(z4z4, 6, 2, jobs=jobs)


@pytest.mark.parametrize("factors", [[36], [2, 2, 9]])
def test_a_census_without_sets_reports_its_branch(factors):
    """A group with no (36, 15, 6) difference set gives an empty census
    under the one branch of those parameters, (mu, nu) = (8, 5), through
    the graph and clique listing that every census takes."""
    import linkset.io as lio
    from linkset.linking import MuNu

    G = make_abelian(factors)
    result = census_systems(G, 15, 2)
    assert result.graph.munu == MuNu(8, 5)
    assert (result.graph.num_vertices, result.count, result.max_size) == (0, 0, 0)
    assert lio.census_payload(G, result.systems, result.max_size, 0.0)["digest"] == (
        "c6857f826116dc1ba14d4ce10125efcae1156a0961ebcb4cef8688fd7ceb9850")


def test_a_census_without_integer_parameters_is_rejected_before_any_work(z4z4, monkeypatch):
    """k = 5 in Z4^2 gives no integer lambda = 20/15, and k = 0 no branch:
    ValueError before the enumeration starts."""
    monkeypatch.setattr(search, "enumerate_difference_sets", None)
    for k in (5, 0):
        with pytest.raises(ValueError, match="integer lambda"):
            census_systems(z4z4, k, 2)


def test_a_mu_nu_that_is_no_branch_is_rejected_before_the_pool(z4z4_census, monkeypatch):
    """``build_linking_graph`` checks (mu, nu) before it starts the --jobs
    process pool, so a (mu, nu) that is no branch raises ValueError with no
    worker process; the patched pool is reached with a branch."""
    import concurrent.futures

    from linkset.linking import MuNu

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    G, records = z4z4_census.graph.group, z4z4_census.records
    with pytest.raises(ValueError, match="branch"):
        build_linking_graph(G, records, MuNu(3, 1), jobs=2)
    with pytest.raises(AssertionError, match="pool"):
        build_linking_graph(G, records, z4z4_census.graph.munu, jobs=2)


def test_the_census_checks_its_sets_with_one_batch_each(z4z4_census, monkeypatch):
    """``build_linking_graph`` checks its 192 vertices, and the clique
    re-verification its clique members, with one batch of character
    norms each (Z4^2 is on the spectral route)."""
    batches = []
    blocks = rg.character_norm_blocks
    monkeypatch.setattr(rg, "character_norm_blocks",
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
    from linkset.search import _distinct_rows, _projection_sieve, _sweep_setup

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


def _sieve_oracle(G, sets, N, munu):
    """The projection sieve in integers, as it ran before the float64 GEMM
    and the allowed-value table: (classes, keep) from one int64 matmul per
    coset and the congruence and range of the witness count by // and %."""
    from linkset.groups import quotient

    Q, proj = quotient(G, N)
    counts = np.stack([np.bincount(row, minlength=Q.order) for row in proj[np.asarray(sets)]])
    images, classes = np.unique(counts, axis=0, return_inverse=True)
    mu, nu = munu.as_tuple()
    keep = np.ones((len(images), len(images)), dtype=bool)
    for c in range(Q.order):
        excess = images[:, Q.table[c]] @ images.T - nu * N.order
        witness = excess // (mu - nu)
        keep &= (excess % (mu - nu) == 0) & (witness >= 0) & (witness <= N.order)
    return classes.reshape(-1), keep


@pytest.mark.parametrize("factors, k, munu", [([3, 3, 2, 2], 15, (8, 5)),
                                              ([3, 3, 5], 12, (1, 4)),
                                              ([3, 3, 2, 2], 15, (60, 3))])
def test_projection_sieve_matches_its_integer_oracle(factors, k, munu):
    """The allowed-value lookup against the // and % test on random count
    matrices (the projections of random k-sets onto G/K, K the elements of
    order prime to 3, next to the constructed sets) for both signs of
    mu - nu: the Spence branch (8, 5) and the McFarland branch (1, 4).
    The branch (60, 3) puts allowed values past k^2, off the table.  The
    constructed sets are McFarland's in order 45 and Spence's (slot 0) in
    order 36, as the sweeps build them."""
    from linkset.designs import DSParams, construction_sets
    from linkset.linking import MuNu
    from linkset.search import _projection_sieve, _sweep_setup

    G = make_abelian(factors)
    params = DSParams(45, 12, 3, 9) if G.order == 45 else DSParams(36, 15, 6, 9)
    family, reps, _, K = _sweep_setup(G, "full", params)
    rng = np.random.default_rng(sum(factors) + munu[0])
    random_sets = np.sort(np.argsort(rng.random((400, G.order)), axis=1)[:, :k], axis=1)
    branch = MuNu(*munu)
    kept = []
    slot = None if G.order == 45 else 0
    for sets in (random_sets, construction_sets(family, reps, slot)[:400]):
        classes, keep = _projection_sieve(G, sets, K, branch)
        want_classes, want_keep = _sieve_oracle(G, sets, K, branch)
        assert np.array_equal(classes, want_classes) and np.array_equal(keep, want_keep)
        kept.append(int(keep.sum()))
    # the random matrices give kept and dropped pairs on the real branches
    assert (kept[0] > 0) == (munu != (60, 3)) and kept[1] == 0


@pytest.mark.parametrize("complemented", [False, True])
def test_projection_sieve_matches_its_integer_oracle_on_every_subgroup(complemented):
    """The same comparison where the sieve keeps pairs and drops others:
    the Z4^2 (16, 6, 2) census sets on the branch (1, 3), and their
    complements on (7, 5), projected onto every proper nontrivial subgroup."""
    from linkset.designs import complement
    from linkset.search import _projection_sieve

    G = make_abelian([4, 4])
    records = enumerate_difference_sets(G, 6)
    if complemented:
        records = [complement(r) for r in records]
    munu = mu_nu_candidates(records[0].params)[0]
    assert munu.as_tuple() == ((7, 5) if complemented else (1, 3))
    sets = np.array([r.elements for r in records])
    for N in [N for N in _subgroups(G) if 1 < N.order < G.order]:
        classes, keep = _projection_sieve(G, sets, N, munu)
        want_classes, want_keep = _sieve_oracle(G, sets, N, munu)
        assert np.array_equal(classes, want_classes) and np.array_equal(keep, want_keep)
        assert keep[classes].any()


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
        edges = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i, j] = adj[j, i] = True
                    edges += 1
        graph = LinkingGraph(make_abelian([2]), tuple(range(n)), MuNu(1, 3), adj)
        assert max_system_size(graph) == brute_max_clique(adj.tolist())
        # the linked pairs are read off the adjacency: both orders of each edge
        assert graph.linked_pairs == 2 * edges and graph.num_edges() == edges


def clique_union_masks(sizes):
    """Neighbour bitmasks of the disjoint union of cliques of these sizes."""
    masks, start = [], 0
    for s in sizes:
        block = ((1 << s) - 1) << start
        masks += [block ^ (1 << (start + i)) for i in range(s)]
        start += s
    return masks


@pytest.mark.parametrize("masks, size", [
    ([], 0),                                 # no vertices
    ([0] * 6, 1),                            # no edges
    (clique_union_masks([9]), 9),            # K_9
    (clique_union_masks([3, 6, 1, 5]), 6),   # the largest of a disjoint union
    (clique_union_masks([4, 2, 2]), 4),      # the largest first
])
def test_max_clique_edge_cases(masks, size):
    assert search._max_clique(masks) == size


@pytest.mark.parametrize("density", [0.3, 0.7, 0.9])
def test_max_clique_matches_brute_force_across_densities(density):
    """The colour-ordered search against the subset walk on sparse to dense
    graphs (the density-0.5 case is test_max_system_size_matches_brute_force)."""
    rng = random.Random(int(density * 10))
    for _ in range(25):
        n = rng.randint(1, 13)
        adj = [[False] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            adj[i][j] = adj[j][i] = rng.random() < density
        masks = [sum(1 << j for j in range(n) if adj[i][j]) for i in range(n)]
        assert search._max_clique(masks) == brute_max_clique(adj)


@pytest.mark.parametrize("factors, size", [([2, 2, 2, 2], 7), ([4, 2, 2], 3)])
def test_max_system_size_order16(factors, size):
    """The (16,6,2,4) linking graphs of Z2^4 (448 vertices) and Z4 x Z2^2."""
    G = make_abelian(factors)
    records = enumerate_difference_sets(G, 6)
    graph = build_linking_graph(G, records, mu_nu_candidates(records[0].params)[0])
    assert max_system_size(graph) == size


def test_enumerate_systems_matches_brute_force(monkeypatch):
    """The clique listing behind enumerate_systems, on random graphs and the
    empty graph, for sizes 2..5: in one block, and with 5 bytes of scratch,
    so ANDing 5 bool entries at a time (one clique a block)."""
    from linkset.groups import SCRATCH_BYTES
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
    for scratch in (SCRATCH_BYTES, 5):
        monkeypatch.setattr("linkset.groups.SCRATCH_BYTES", scratch)
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
    from linkset.bent import enumerate_bent

    tables = [int.from_bytes(np.packbits(f.table, bitorder="little").tobytes(), "little")
              for f in enumerate_bent(4)]
    bent = set(tables)
    want = [sum(1 << j for j, g in enumerate(tables) if f ^ g in bent) for f in tables]
    seen = []
    monkeypatch.setattr(search, "_max_clique", lambda masks: seen.append(masks) or 7)
    assert search.bent_max_clique() == 8
    assert seen == [want] and len(want) == 896


def test_census_builds_masks_once(monkeypatch):
    calls = []
    real = search._adjacency_masks
    monkeypatch.setattr(search, "_adjacency_masks", lambda adj: calls.append(1) or real(adj))
    result = census_systems(make_abelian([4, 4]), 6, 2)
    assert len(calls) == 1
    assert result.max_size == 3 and result.count > 0


def test_census_reverifies_with_one_pair_scan(z4z4_census, monkeypatch):
    """enumerate_systems re-verifies all 65,536 size-3 cliques of the Z4^2
    census with one pair pass, over the clique members against each other,
    and asks for no witnesses."""

    calls = []
    real = search.PairCheck._upper
    monkeypatch.setattr(search.PairCheck, "_upper", lambda self, munu, rows=None:
                        calls.append(len(self.ids)) or real(self, munu, rows))

    def no_witnesses(self, munu):
        raise AssertionError("the re-verification asked for witnesses")

    monkeypatch.setattr(search.PairCheck, "witness_ids", no_witnesses)
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
    for munu in (MuNu(3, 1), MuNu(1, 2)):
        with pytest.raises(AssertionError, match="re-verification"):
            enumerate_systems(replace(graph, munu=munu), 2)
    i = int(np.flatnonzero(graph.adjacency.any(axis=1))[0])
    records = list(graph.records)
    records[i] = DifferenceSetRecord(graph.group, (0, 1, 2, 3, 4, 5), records[i].params)
    assert is_difference_set(graph.group, records[i].elements) is None
    with pytest.raises(AssertionError, match="re-verification"):
        enumerate_systems(replace(graph, records=tuple(records)), 2)


def test_pair_verdicts_match_verify_reduced(z4z4_census, rectangle):
    """The pair check's verdicts (``PairCheck.links`` and their mirror
    images) and the witnesses of the full n x n product rectangle (the
    ``rectangle`` oracle) equal verify_reduced on the 2-set system: every
    edge and a sample of non-edges, each in both orientations."""
    from linkset.linking import PairCheck

    graph = z4z4_census.graph
    G, records, n = graph.group, graph.records, graph.num_vertices
    rng = np.random.default_rng(71)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    edges = np.argwhere(graph.adjacency & upper)
    non_edges = np.argwhere(~graph.adjacency & upper)
    pairs = np.concatenate([edges, non_edges[rng.choice(len(non_edges), 300, replace=False)]])
    assert len(edges) == 6144
    i, j = PairCheck(G, graph.ids).links(graph.munu)
    linked_pairs = np.zeros((n, n), dtype=bool)
    linked_pairs[i, j] = linked_pairs[j, i] = True
    s, t, supports = rectangle(G, graph.ids, graph.munu)
    assert np.array_equal(np.argwhere(linked_pairs), np.column_stack([s, t]))
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
    """The graph's adjacency and linked count against a full product row
    per pair (``_full_scan``), one difference-set check per mu-support and
    verify_reduced on sampled pairs: in one product block, over 2, 3 and 5
    jobs and in blocks of two left rows; and the pair pass over the first
    two thirds of the rows, whose pairs i < j reach into the rest.
    Singletons (k = 1) link with themselves too, so the diagonal must be
    dropped."""
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

    rows = range(2 * n // 3)
    in_rows = [(i, j, support, ok) for (i, j, support), ok in zip(scan, linked)
               if i in rows and i < j]
    want_rows = [(i, j, support) for i, j, support, ok in in_rows if ok]
    ids = np.array([r.elements for r in records])

    def check():
        pass_check = linking.PairCheck(G, ids)
        found = [(int(block[a]), int(cols[b]), tuple(np.flatnonzero(is_mu[a, b]).tolist()))
                 for block, cols, linked, is_mu in pass_check._upper(munu, rows)
                 for a, b in zip(*np.nonzero(linked))]
        assert len(found) == len(in_rows) and found == want_rows
        i, j = pass_check.links(munu, rows)
        assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a, b, _ in want_rows]

    graphs = [build_linking_graph(G, records, munu, jobs=jobs) for jobs in (1, 2, 3, 5)]
    check()
    monkeypatch.setattr("linkset.groups.SCRATCH_BYTES", 4 * 2 * n * G.order)  # float32 rows
    graphs.append(build_linking_graph(G, records, munu))
    check()
    for graph in graphs:
        assert np.array_equal(graph.adjacency, want)
        assert graph.linked_pairs == len(scan) == sum(linked)


def test_row_chunks_cover_every_row_once():
    """``_row_chunks`` splits 0..n-1 into at most min(jobs, n - 1)
    consecutive nonempty ranges (one for n = 1), each holding a row with
    pairs i < j, n = 1 and jobs > n included, each within one row of an
    equal share of the pairs i < j."""
    for n in (1, 2, 3, 10, 31, 448):
        for jobs in (1, 2, 3, 5, 64, 10 ** 13):
            chunks = search._row_chunks(n, jobs)
            assert [r for chunk in chunks for r in chunk] == list(range(n))
            assert 1 <= len(chunks) <= min(jobs, max(1, n - 1)) and all(len(c) for c in chunks)
            assert n == 1 or all(chunk.start < n - 1 for chunk in chunks)  # each has pairs
            area = [sum(n - 1 - i for i in chunk) for chunk in chunks]
            assert max(area) <= n * (n - 1) / 2 / len(chunks) + n - 1
    assert [(c.start, c.stop) for c in search._row_chunks(10, 3)] == [(0, 2), (2, 4), (4, 10)]


@pytest.mark.parametrize("block_sets", [None, 7])
def test_translation_classes_match_brute_force(block_sets, monkeypatch):
    """Canonical representatives are the smallest sorted left translates,
    listed in order of first appearance, in abelian and nonabelian groups
    and at orders 52 and 53, where id 0 carries the top key bit 2^52 (in
    one block of sets, and in blocks of 7)."""
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
            # float64 indicator rows and keys: block_sets rows of v a block
            monkeypatch.setattr("linkset.groups.SCRATCH_BYTES", 8 * block_sets * G.order)
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
    from linkset.search import _distinct_rows

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
    ValueError, and so do a (mu, nu) that is no branch of them and no
    records at all."""
    from linkset.designs import DifferenceSetRecord
    from linkset.linking import MuNu

    G, records = z4z4_census.graph.group, list(z4z4_census.records[:5])
    munu = z4z4_census.graph.munu
    bad = DifferenceSetRecord(G, (0, 1, 2, 3, 4, 5), records[0].params)
    with pytest.raises(ValueError, match="difference set"):
        build_linking_graph(G, records + [bad], munu)
    with pytest.raises(ValueError, match="branch"):
        build_linking_graph(G, records, MuNu(3, 1))
    with pytest.raises(ValueError, match="difference sets"):
        build_linking_graph(G, [], munu)
    assert build_linking_graph(G, records, munu).num_vertices == 5


@pytest.mark.parametrize("ell", [1, 2.5, True])
def test_a_census_rejects_its_system_size_before_it_enumerates(monkeypatch, ell):
    monkeypatch.setattr(search, "enumerate_difference_sets", None)  # no work may start
    with pytest.raises(ValueError, match="^system size (must be at least 2|.+ is not an integer)"):
        census_systems(make_abelian([6, 6]), 15, ell)


def test_cyclic_factors_are_established_by_the_constructors_only():
    """A group built from a table has no cyclic factors, whatever table it
    is: the spectral test's mixed-radix layout is never claimed for a
    table it does not describe.  Over the D4 x Z2 table the 8008 6-subsets
    get the same verdicts as over the product, 192 of them (16,6,2) sets."""
    P = direct_product(make_dihedral8(), make_abelian([2]))
    G = FiniteGroup(P.table, P.names, P.generators, P.spec)
    assert P.cyclic_factors is None and G.cyclic_factors is None
    with pytest.raises(TypeError):
        FiniteGroup(P.table, P.names, P.generators, P.spec, cyclic_factors=(4, 4))
    A = make_abelian([4, 4])
    assert FiniteGroup(A.table, A.names, A.generators, A.spec).cyclic_factors is None
    sets = np.array(list(itertools.combinations(range(16), 6)))
    verdicts = difference_set_params(G, sets)
    assert verdicts == difference_set_params(P, sets)
    assert sum(p is not None for p in verdicts) == 192

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import random
import time

import numpy as np
import pytest

from linkset import group_ring as rg
from linkset.bent import _bent_rows, bent_linking, is_bent_set, kerdock_bent_set
from linkset.designs import hyperplanes, is_reversible
from linkset.diffmat import (
    DifferenceMatrix,
    build_general,
    build_improved,
    build_nonreversible,
    build_tyken,
    linked_from_dm,
    verify_dm,
)
from linkset.groups import make_abelian, make_dihedral8, make_quaternion8, subgroup_generated
from linkset.linking import expand, reduce_system, reversibility_profile, verify_reduced
from linkset.search import bent_max_clique, census_systems, mcfarland_pair_sweep, spence_pair_sweep
from linkset.worked_examples import (
    construction_side_systems,
    linked_triple_z4z4,
    order16_worked_example,
    witness_21_z4z4,
)


def report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_linked_triple_reproduction():
    start = time.time()
    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, sets)
    elapsed = time.time() - start
    ok = (system is not None
          and system.munu.as_tuple() == (1, 3)
          and system.witnesses[(2, 1)].elements == witness_21_z4z4(G)
          and reversibility_profile(system) == (True, False, False)
          and elapsed < 1.0)
    report(1, ok, f"{elapsed:.3f}s")


def test_criterion_02_order16_worked_example():
    start = time.time()
    G, E, family, bmat, emat, expected, witness23 = order16_worked_example()
    system = linked_from_dm(G, E, bmat, emat, family=family)
    elapsed = time.time() - start
    ok = ([r.elements for r in system.records] == expected
          and system.witnesses[(2, 3)].elements == witness23
          and elapsed < 1.0)
    report(2, ok, f"{elapsed:.3f}s")


def test_criterion_03_census_counts(z4z4_census):
    systems, max_size = z4z4_census.systems, z4z4_census.max_size
    ok = (len(systems) == 65536 and max_size == 3
          and z4z4_census.elapsed < 600)
    report(3, ok, f"{len(systems)} systems, max size {max_size}, "
                  f"census wall time {z4z4_census.elapsed:.1f}s")


def test_criterion_04_construction_census_bijection(z4z4, z4z4_census):
    start = time.time()
    systems = z4z4_census.systems
    census = {frozenset(frozenset(r.elements) for r in members) for members in systems}
    construction = construction_side_systems(z4z4)
    elapsed = time.time() - start
    ok = (len(construction) == 65536 and construction == census and elapsed < 900)
    report(4, ok, f"{len(construction)} construction-side systems, {elapsed:.1f}s")


def test_criterion_05_z8z2_nonexistence():
    start = time.time()
    result = census_systems(make_abelian([8, 2]), 6, 2)
    elapsed = time.time() - start
    ok = (len(result.graph.records) > 0
          and result.count == 0
          and result.max_size <= 1
          and elapsed < 300)
    report(5, ok, f"{len(result.graph.records)} difference sets, "
                  f"0 linked pairs, {elapsed:.1f}s")


@pytest.mark.parametrize("factors,size", [
    ([8, 2, 2, 2], 3),
    ([8, 4, 2], 3),
])
def test_criterion_06_general(factors, size):
    start = time.time()
    system = build_general(make_abelian(factors))
    elapsed = time.time() - start
    ok = system.size == size and elapsed < 30
    report("6(general)", ok, f"{factors} -> size {system.size}, {elapsed:.1f}s")


@pytest.mark.parametrize("factors,size", [
    ([4, 2, 2, 2, 2], 7),
    ([4, 4, 2, 2], 7),
    ([4, 4, 4], 7),
    ([4, 4, 4, 4], 15),
])
def test_criterion_06_improved(factors, size):
    start = time.time()
    system = build_improved(make_abelian(factors))
    elapsed = time.time() - start
    ok = system.size == size and elapsed < 30
    report("6(improved)", ok, f"{factors} -> size {system.size}, {elapsed:.1f}s")


def test_criterion_07_nonabelian_family():
    start = time.time()
    s16 = build_tyken(1, make_abelian([2]))
    s64 = build_tyken(2, make_abelian([2, 2, 2]))
    elapsed = time.time() - start
    ok = (s16.size == 3 and s16.group.order == 16 and not s16.group.abelian
          and s64.size == 7 and s64.group.order == 64 and not s64.group.abelian
          and elapsed < 60)
    report(7, ok, f"sizes {s16.size}/{s64.size}, {elapsed:.1f}s")


def test_criterion_08_nonreversible_family():
    start = time.time()
    results = []
    for d in (1, 2):
        system = build_nonreversible(d)
        results.append(system.size == 2 ** (d + 1) - 1
                       and not is_reversible(system.records[0]))
    elapsed = time.time() - start
    ok = all(results) and elapsed < 60
    report(8, ok, f"{elapsed:.1f}s")


def test_criterion_09_bent_pipeline():
    start = time.time()
    ok = True
    for d, set_size, sys_size in ((1, 8, 7), (2, 32, 31)):
        fns = kerdock_bent_set(d)
        ok &= len(fns) == set_size and is_bent_set(fns)
        system = bent_linking(fns)
        ok &= system.size == sys_size
    elapsed = time.time() - start
    ok &= elapsed < 120
    report(9, ok, f"{elapsed:.1f}s")


def test_criterion_10_dillon_equivalence():
    start = time.time()
    G = make_abelian([2, 2, 2, 2])
    size = 16
    tables = np.arange(2 ** size, dtype=np.uint32)
    bits = ((tables[:, None] >> np.arange(size)[None, :]) & 1).astype(np.int8)
    bent_mask = _bent_rows(bits, 4)
    B = bits.astype(np.int32)
    coeffs = np.empty((2 ** size, size), dtype=np.int32)
    for h in range(size):
        coeffs[:, h] = (B * B[:, G.table[h]]).sum(axis=1)
    k = B.sum(axis=1)
    ds_mask = (coeffs[:, 0] == k) & np.all(coeffs[:, 1:] == coeffs[:, 1:2], axis=1)
    nontrivial = (k >= 2) & (k <= size - 2)
    elapsed = time.time() - start
    ok = bool(np.array_equal(bent_mask, ds_mask & nontrivial)) and elapsed < 60
    report(10, ok, f"{int(bent_mask.sum())} bent functions, {elapsed:.1f}s")


def test_criterion_11_nonexistence_sweeps():
    start = time.time()
    ok = True
    lines = []
    r = mcfarland_pair_sweep(make_abelian([3, 3, 5]), mode="pruned")
    ok &= r.all_pairs_fail
    lines.append(f"mcfarland pruned {r.pairs_tested}")
    r = mcfarland_pair_sweep(make_abelian([3, 3, 5]), mode="full")
    ok &= r.all_pairs_fail
    # every ordered pair of the distinct sets decided (derived constants, frozen)
    ok &= (r.pairs_tested, r.linked_pairs, r.distinct_count, r.class_count) == (
        9720 ** 2, 0, 9720, 216)
    lines.append(f"full {r.pairs_tested}")
    for factors in ([3, 3, 2, 2], [3, 3, 4]):
        r = spence_pair_sweep(make_abelian(factors), mode="pruned")
        ok &= r.all_pairs_fail and r.same_slot_pairs > 0 and r.cross_slot_pairs > 0
        r = spence_pair_sweep(make_abelian(factors), mode="full")
        ok &= r.all_pairs_fail
        ok &= (r.pairs_tested, r.linked_pairs, r.distinct_count, r.class_count) == (
            7776 ** 2, 0, 7776, 216)
        lines.append(f"spence {factors} full {r.pairs_tested}")
    elapsed = time.time() - start
    ok &= elapsed < 7200
    report(11, ok, "; ".join(lines) + f", {elapsed:.1f}s")


def test_criterion_12_property_suites():
    start = time.time()
    ok = True

    # hyperplane products for q in {2, 3}, d <= 3
    for q, dmax in ((2, 3), (3, 3)):
        for d in range(1, dmax + 1):
            E_group = make_abelian([q] * (d + 1))
            E = subgroup_generated(E_group, [E_group.element(f"x{i+1}") for i in range(d + 1)])
            fam = hyperplanes(E, q, tuple(E_group.element(f"x{i+1}") for i in range(d + 1)))
            ring = [rg.from_subset(E_group, H.elements) for H in fam.members]
            allg = rg.all_ones(E_group)
            for i, hi in enumerate(ring):
                for j, hj in enumerate(ring):
                    want = rg.scale(q ** d, hi) if i == j else rg.scale(q ** (d - 1), allg)
                    ok &= rg.mul(hi, hj) == want

    # (mu, nu) integrality on constructed systems + expand/reduce round trips,
    # covering diffmat- and bent-produced systems at orders 16 and 64
    # (including the nonabelian D4 x Z2^3 family)
    G, sets = linked_triple_z4z4()
    systems = [verify_reduced(G, sets), build_general(make_abelian([4, 4])),
               build_nonreversible(1), bent_linking(kerdock_bent_set(1)),
               build_tyken(2, make_abelian([2, 2, 2])),
               bent_linking(kerdock_bent_set(2))]
    for system in systems:
        v, k, _, n = system.params.as_tuple()
        mu, nu = system.munu.as_tuple()
        root = math.isqrt(n)
        ok &= root * root == n and (mu - nu) ** 2 == n
        ok &= nu * v in (k * (k + root), k * (k - root))
        back = reduce_system(expand(system))
        ok &= [r.elements for r in back.records] == [r.elements for r in system.records]

    # DM verifier vs definition-level oracle on random small matrices
    rng = random.Random(99)
    from collections import Counter

    for factors in ([2, 2], [4, 2]):
        Gm = make_abelian(factors)
        for _ in range(10):
            rows = tuple(tuple(rng.randrange(Gm.order) for _ in range(Gm.order))
                         for _ in range(3))
            M = DifferenceMatrix(Gm, 1, rows)
            oracle = True
            for i, ri in enumerate(rows):
                for r, rr in enumerate(rows):
                    if i == r:
                        continue
                    counts = Counter(Gm.mul(a, Gm.inv(b)) for a, b in zip(ri, rr))
                    oracle &= all(counts.get(g, 0) == 1 for g in Gm.elements())
            ok &= verify_dm(M) == oracle

    # group-ring associativity and the involution anti-homomorphism
    for Gr in (make_dihedral8(), make_quaternion8()):
        for _ in range(5):
            x, y, z = (rg.GroupRingElement(
                Gr, np.array([rng.randint(-2, 2) for _ in Gr.elements()]))
                for _ in range(3))
            ok &= rg.mul(rg.mul(x, y), z) == rg.mul(x, rg.mul(y, z))
            ok &= rg.involution(rg.mul(x, y)) == rg.mul(rg.involution(y), rg.involution(x))

    elapsed = time.time() - start
    ok &= elapsed < 120
    report(12, ok, f"{elapsed:.1f}s")


def test_criterion_13_bent_max_clique():
    start = time.time()
    result = bent_max_clique()
    elapsed = time.time() - start
    report(13, result == 8, f"max bent set size {result}, {elapsed:.1f}s")

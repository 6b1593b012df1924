import math
import random

import pytest

from linkset.designs import DSParams
from linkset.diffmat import linked_from_dm
from linkset.groups import FiniteGroup, subgroup_generated
from linkset.designs import hyperplanes
from linkset.linking import (
    MuNu,
    complement_system,
    expand,
    is_reversible_system,
    mu_nu_candidates,
    reduce_system,
    reversibility_profile,
    verify_full,
    verify_reduced,
)
from linkset.worked_examples import (
    ALL_REVERSIBLE_B_WORDS,
    NONE_REVERSIBLE_B_WORDS,
    linked_triple_z4z4,
    witness_21_z4z4,
)


def test_mu_nu_candidates():
    assert [m.as_tuple() for m in mu_nu_candidates(DSParams(16, 6, 2, 4))] == [(1, 3)]
    assert [m.as_tuple() for m in mu_nu_candidates(DSParams(36, 15, 6, 9))] == [(8, 5)]
    assert [m.as_tuple() for m in mu_nu_candidates(DSParams(45, 12, 3, 9))] == [(1, 4)]
    assert mu_nu_candidates(DSParams(11, 5, 2, 3)) == []  # n not a square


def test_verify_reduced_triple():
    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, sets)
    assert system is not None and system.munu.as_tuple() == (1, 3)
    assert system.witnesses[(2, 1)].elements == witness_21_z4z4(G)
    assert reversibility_profile(system) == (True, False, False)


def test_records_are_normalized_or_come_normalized():
    from linkset.designs import DifferenceSetRecord

    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, [list(reversed(S)) for S in sets])
    assert [r.elements for r in system.records] == [tuple(sorted(S)) for S in sets]
    # witnesses come from the kernel already sorted and distinct
    for w in system.witnesses.values():
        assert type(w.elements) is tuple and all(type(a) is int for a in w.elements)
        assert w == DifferenceSetRecord(G, tuple(reversed(w.elements)), w.params)


def test_verify_reduced_rejects():
    G, sets = linked_triple_z4z4()
    assert verify_reduced(G, [sets[0], sets[0]]) is None  # duplicate
    # a translate a*D1*b never links with D1: the product is a translate of
    # D1 D1^(-1) = 4*1 + 2G, whose coefficients {2, 6} are not {1, 3}
    rng = random.Random(2)
    for _ in range(10):
        a, b = rng.randrange(16), rng.randrange(16)
        partner = tuple(sorted(G.mul(G.mul(a, t), b) for t in sets[0]))
        if partner == tuple(sets[0]):
            continue
        assert verify_reduced(G, [sets[0], partner]) is None
    assert verify_reduced(G, [sets[0]]) is None  # size < 2
    not_ds = [0, 1, 2, 3, 4, 5]
    assert verify_reduced(G, [sets[0], not_ds]) is None


def test_expand_reduce_round_trip():
    G, sets = linked_triple_z4z4()
    reduced = verify_reduced(G, sets)
    full = expand(reduced)
    assert len(full.entries) == 12  # l(l+1) with l = 3
    assert verify_full(full)
    back = reduce_system(full)
    assert [r.elements for r in back.records] == [r.elements for r in reduced.records]
    assert back.munu == reduced.munu

    two = verify_reduced(G, sets[:2])
    assert two is not None
    assert len(expand(two).entries) == 6


def test_reduce_system_reads_the_supports_of_its_one_pair_check(monkeypatch):
    """``reduce_system(expand(r))`` gives back r, witnesses included, from
    the one ``PairCheck`` that ``verify_full``'s check builds; a full system
    of one set has no reduced system."""
    import numpy as np
    import pytest

    from linkset import linking
    from linkset.bent import bent_linking, kerdock_bent_set

    G, sets = linked_triple_z4z4()
    built = []

    class CountedCheck(linking.PairCheck):
        def __init__(self, G, sets):
            built.append(len(sets))
            super().__init__(G, sets)

    for reduced in (verify_reduced(G, sets), bent_linking(kerdock_bent_set(2))):
        full = expand(reduced)
        monkeypatch.setattr(linking, "PairCheck", CountedCheck)
        built.clear()
        back = reduce_system(full)
        monkeypatch.undo()
        assert built == [reduced.size]
        assert back == reduced and back.witness_ids.dtype == reduced.witness_ids.dtype
        assert np.array_equal(back.witness_ids, reduced.witness_ids)
    one = linking.LinkingSystem(full.group, {p: full.entries[p] for p in ((0, 1), (1, 0))},
                                full.munu)
    assert verify_full(one)
    with pytest.raises(ValueError, match="two or more sets"):
        reduce_system(one)


def test_verify_reduced_checks_its_sets_once(monkeypatch):
    """``verify_reduced`` checks and converts its sets with one
    ``_subset_rows`` call, which its ``PairCheck`` keeps for the
    difference-set batch and for the indicator rows of the products; on
    bent d = 2 (a list of 31 sets) and on the improved system in Z4^4."""
    from linkset import group_ring as rg
    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.diffmat import build_improved
    from linkset.groups import make_abelian

    systems = [bent_linking(kerdock_bent_set(2)), build_improved(make_abelian([4] * 4))]
    calls = []
    subset_rows = rg._subset_rows
    monkeypatch.setattr(rg, "_subset_rows",
                        lambda G, sets: calls.append(len(sets)) or subset_rows(G, sets))
    for system in systems:
        calls.clear()
        assert verify_reduced(system.group, system.sets()) == system
        assert calls == [system.size]


def test_verify_full_rejects_a_wrong_index_set():
    from linkset.linking import LinkingSystem

    G, sets = linked_triple_z4z4()
    full = expand(verify_reduced(G, sets))
    entries = dict(full.entries)
    del entries[(2, 1)]
    with pytest.raises(ValueError, match="wrong index set"):
        verify_full(LinkingSystem(G, entries, full.munu))


def test_verify_full_catches_mutations():
    from linkset.designs import DifferenceSetRecord
    from linkset.linking import LinkingSystem

    G, sets = linked_triple_z4z4()
    full = expand(verify_reduced(G, sets))
    rng = random.Random(99)
    keys = sorted(full.entries)
    for _ in range(100):
        key = rng.choice(keys)
        rec = full.entries[key]
        drop = rng.choice(rec.elements)
        add = rng.choice([a for a in G.elements() if a not in set(rec.elements)])
        mutated = tuple(sorted(set(rec.elements) - {drop} | {add}))
        entries = dict(full.entries)
        entries[key] = DifferenceSetRecord(G, mutated, rec.params)
        assert not verify_full(LinkingSystem(G, entries, full.munu))


def test_reversibility_steering():
    G, _ = linked_triple_z4z4()
    E = subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")])
    fam = hyperplanes(E, 2, (G.element("x1^2"), G.element("x2^2")))
    rng = random.Random(4)

    def run(b_words):
        bmat = [[G.element(w) for w in row] for row in b_words]
        lifts = [[rng.choice(E.elements) for _ in range(3)] for _ in range(3)]
        return linked_from_dm(G, E, bmat, lifts, family=fam)

    for _ in range(3):
        assert reversibility_profile(run(ALL_REVERSIBLE_B_WORDS)) == (True, True, True)
        assert reversibility_profile(run(NONE_REVERSIBLE_B_WORDS)) == (False, False, False)


def test_is_reversible_system():
    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, sets)
    # D_2 is not reversible, so the expanded system cannot be fully reversible
    assert not is_reversible_system(system)


def test_reversibility_reads_the_rows_as_the_expanded_system_does():
    """``is_reversible_system`` and ``reversibility_profile`` read the rows of
    the sets and witnesses; they agree with ``is_reversible`` over every
    entry of the expanded full system and over each D_i, on systems whose
    answer is true and false.  In an abelian group reversible D_i make every
    witness reversible; in D4 x Z2 two reversible sets link with witnesses
    that are not, so the witness rows decide."""
    from linkset.designs import is_reversible
    from linkset.diffmat import build_general, build_improved, build_nonreversible
    from linkset.groups import direct_product, make_abelian, make_dihedral8
    from linkset.search import enumerate_difference_sets

    D4Z2 = direct_product(make_dihedral8(), make_abelian([2]))
    reversible = [r.elements for r in enumerate_difference_sets(D4Z2, 6) if is_reversible(r)]
    nonabelian = verify_reduced(D4Z2, [reversible[0], reversible[8]])
    assert reversibility_profile(nonabelian) == (True, True)
    assert not is_reversible_system(nonabelian)

    G, sets = linked_triple_z4z4()
    E = subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")])
    fam = hyperplanes(E, 2, (G.element("x1^2"), G.element("x2^2")))
    rng = random.Random(5)
    steered = [linked_from_dm(G, E, [[G.element(w) for w in row] for row in words],
                              [[rng.choice(E.elements) for _ in range(3)] for _ in range(3)],
                              family=fam)
               for words in (ALL_REVERSIBLE_B_WORDS, NONE_REVERSIBLE_B_WORDS)]
    systems = [verify_reduced(G, sets), *steered, build_general(make_abelian([2, 2, 2, 2])),
               build_improved(make_abelian([4, 4, 4])), build_nonreversible(1), nonabelian]
    answers = []
    for system in systems:
        full = expand(system)
        answers.append(is_reversible_system(system))
        assert answers[-1] == all(is_reversible(rec) for rec in full.entries.values())
        assert reversibility_profile(system) == tuple(map(is_reversible, system.records))
    assert True in answers and False in answers


def test_complement_system():
    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, sets)
    comp = complement_system(system)
    assert comp.params.as_tuple() == (16, 10, 6, 4)
    assert comp.munu.as_tuple() == (7, 5)
    again = complement_system(comp)
    assert [r.elements for r in again.records] == [r.elements for r in system.records]
    assert again.munu.as_tuple() == (1, 3)


def test_mu_nu_integrality_invariant():
    """(mu - nu)^2 = n and nu = k(k +/- sqrt n)/v exactly on verified systems."""
    G, sets = linked_triple_z4z4()
    for system in (verify_reduced(G, sets), complement_system(verify_reduced(G, sets))):
        v, k, _, n = system.params.as_tuple()
        mu, nu = system.munu.as_tuple()
        root = math.isqrt(n)
        assert (mu - nu) ** 2 == n
        assert nu * v in (k * (k + root), k * (k - root))


# -- the batched verifiers on larger and nonabelian systems ------------------------


def _swap_one(G, elements, rng):
    drop = rng.choice(elements)
    add = rng.choice([a for a in G.elements() if a not in set(elements)])
    return tuple(sorted(set(elements) - {drop} | {add}))


def test_verify_reduced_batched_rejections_z4_4(monkeypatch):
    import numpy as np

    from linkset import group_ring as rg
    from linkset import linking
    from linkset.designs import is_difference_set
    from linkset.diffmat import build_improved
    from linkset.groups import make_abelian

    G = make_abelian([4] * 4)
    sets = [r.elements for r in build_improved(G).records]
    assert len(sets) == 15

    # the sets in one batch go through the transform path, the witnesses
    # (203 distinct of 210) are not checked again, and one pair pass of
    # the batch against itself covers every pair, with no scan for links
    calls, checks = [], []
    norms = rg._character_norms
    monkeypatch.setattr(rg, "_character_norms",
                        lambda G, block: calls.append(len(block)) or norms(G, block))
    upper = linking.PairCheck._upper
    monkeypatch.setattr(linking.PairCheck, "_upper", lambda self, munu, rows=None:
                        checks.append(len(self.ids)) or upper(self, munu, rows))

    def no_links(self, munu, rows=None):
        raise AssertionError("verify_reduced scanned for links")

    monkeypatch.setattr(linking.PairCheck, "links", no_links)
    system = verify_reduced(G, sets)
    assert system is not None and len(system.witnesses) == 15 * 14
    assert calls == [15] and len({tuple(r) for r in system.witness_ids.tolist()}) == 203
    assert checks == [15]

    rng = random.Random(41)
    for i in (0, 7, 14):
        mutated = list(sets)
        mutated[i] = _swap_one(G, sets[i], rng)
        assert verify_reduced(G, mutated) is None
    # an image under an automorphism (x1 <-> x2) is still a difference set
    # with the same parameters, but it no longer links with the others
    def swap(a):
        e = np.unravel_index(a, G.cyclic_factors)
        return int(np.ravel_multi_index((e[1], e[0]) + e[2:], G.cyclic_factors))

    image = tuple(sorted(swap(a) for a in sets[3]))
    assert image != sets[3]
    assert is_difference_set(G, image) == is_difference_set(G, sets[3])
    mutated = list(sets)
    mutated[3] = image
    assert verify_reduced(G, mutated) is None


def test_verify_reduced_rejections_z4_5():
    """The improved system in Z4^5 (v = 1024, on the transform route) stops
    verifying after one swapped element, and after one set is replaced by
    its complement, a difference set of the other parameter family."""
    from linkset import group_ring as rg
    from linkset.designs import complement
    from linkset.diffmat import build_improved
    from linkset.groups import make_abelian

    G = make_abelian([4] * 5)
    system = build_improved(G)
    assert rg._transform(G) is not None
    sets = system.sets()
    again = verify_reduced(G, sets)
    assert again.witnesses == system.witnesses and again.munu == system.munu
    mutated = list(sets)
    mutated[5] = _swap_one(G, sets[5], random.Random(47))
    assert verify_reduced(G, mutated) is None
    other = complement(system.records[5])
    assert other.params != system.params
    mutated[5] = other.elements
    assert verify_reduced(G, mutated) is None


def _perturbations(full, rng):
    """Mutated copies of a verified full system, each breaking one identity."""
    from linkset.designs import DifferenceSetRecord
    from linkset.linking import LinkingSystem

    G = full.group
    g = next(a for a in G.elements() if a != 0)
    out = []
    for key in (sorted(full.entries)[1], (1, 2)):
        i, j = key
        rec = full.entries[key]
        swapped = dict(full.entries)
        swapped[key] = DifferenceSetRecord(G, _swap_one(G, rec.elements, rng), rec.params)
        out.append(swapped)
        # a left translate is still a difference set, but no longer the
        # inverse of its transpose ...
        moved = tuple(G.mul(g, a) for a in rec.elements)
        translated = dict(full.entries)
        translated[key] = DifferenceSetRecord(G, moved, rec.params)
        out.append(translated)
        # ... and with its transpose moved along, only a product breaks
        both = dict(translated)
        both[(j, i)] = DifferenceSetRecord(G, tuple(G.inv(a) for a in moved), rec.params)
        out.append(both)
    return [LinkingSystem(G, entries, full.munu) for entries in out]


def test_verify_full_rejects_perturbed_bent_system():
    from linkset.bent import bent_linking, kerdock_bent_set

    full = expand(bent_linking(kerdock_bent_set(2)))
    assert full.top_index == 31 and full.group.order == 64
    assert verify_full(full)
    for mutated in _perturbations(full, random.Random(43)):
        assert not verify_full(mutated)


def test_verify_full_rejects_perturbed_nonabelian_system():
    from linkset.diffmat import build_tyken
    from linkset.groups import make_abelian

    for d, K in ((1, make_abelian([2])), (2, make_abelian([2, 2, 2]))):
        full = expand(build_tyken(d, K))
        assert not full.group.abelian and verify_full(full)
        for mutated in _perturbations(full, random.Random(47)):
            assert not verify_full(mutated)


def test_is_difference_set_rejects_malformed_sets():
    import pytest

    from linkset.designs import is_difference_set

    G, sets = linked_triple_z4z4()
    with pytest.raises(ValueError, match="out of range"):
        is_difference_set(G, [0, 1, 16])
    with pytest.raises(ValueError, match="out of range"):
        is_difference_set(G, [-1, 1])
    with pytest.raises(ValueError, match="repeated"):
        is_difference_set(G, [0, 1, 1])
    with pytest.raises(ValueError, match="repeated"):
        verify_reduced(G, [sets[0], list(sets[1][:-1]) + [sets[1][0]]])


def test_verify_full_checks_the_transpose_identity_alone():
    """With l = 1 there is no index triple: only D_(0,1) = D_(1,0)^(-1)
    separates a valid system from one whose (0,1) entry is D itself."""
    from linkset.designs import DifferenceSetRecord
    from linkset.linking import LinkingSystem

    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, sets)
    D = system.records[1]  # not reversible: D != D^(-1)
    inverse = DifferenceSetRecord(G, tuple(G.inv(a) for a in D.elements), D.params)
    assert inverse.elements != D.elements
    assert verify_full(LinkingSystem(G, {(1, 0): D, (0, 1): inverse}, system.munu))
    assert not verify_full(LinkingSystem(G, {(1, 0): D, (0, 1): D}, system.munu))


def test_linked_block_matches_a_per_row_check(monkeypatch):
    """The pair pass over the first rows of a batch, in blocks of left
    rows, against a per-row check: its verdicts are exactly the pairs i < j
    valued in {mu, nu}, each mu-mask is that row's, and ``links`` keeps the
    two-valued pairs.  The rows are D_i D_j^(-1) for (16, 6, 2) difference
    sets of Z4^2, some two-valued and most not, with the pairs i >= j
    masked out."""
    import numpy as np

    from linkset import group_ring as rg
    from linkset import linking
    from linkset.groups import make_abelian
    from linkset.linking import MuNu
    from linkset.search import enumerate_difference_sets

    G = make_abelian([4, 4])
    params = DSParams(16, 6, 2, 4)
    rng = np.random.default_rng(91)
    good = [r.elements for r in enumerate_difference_sets(G, 6)]
    sets = [good[i] for i in rng.choice(len(good), 25, replace=False)]
    products = rg.RowProducts(G, rg.indicators(G, sets))
    rows = range(10)
    prods = products(np.arange(10), np.arange(25))
    upper = [(a, b) for a in rows for b in range(a + 1, 25)]
    want = [(a, b) for a, b in upper if set(prods[a, b].tolist()) <= {1.0, 3.0}]
    assert 0 < len(want) < len(upper)

    # blocks of 3 left rows against 24 and 21 later sets, then 4 against 18
    monkeypatch.setattr("linkset.groups.SCRATCH_BYTES", 4 * 3 * 24 * 16)  # float32 rows
    check = linking.PairCheck(G, np.array(sets))
    assert check.params == params
    blocks = list(check._upper(MuNu(1, 3), rows))
    assert [block.tolist() for block, _, _, _ in blocks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    assert all(cols.tolist() == list(range(block[0] + 1, 25)) for block, cols, _, _ in blocks)
    found = [(int(block[a]), int(cols[b])) for block, cols, linked, _ in blocks
             for a, b in zip(*np.nonzero(linked))]
    masks = np.concatenate([is_mu[linked] for _, _, linked, is_mu in blocks])
    assert found == want and masks.dtype == bool
    assert np.array_equal(masks, np.array([prods[a, b] == 1 for a, b in want]))
    i, j = check.links(MuNu(1, 3), rows)
    assert list(zip(i.tolist(), j.tolist())) == want


def _square_batches():
    """(name, group, sets) batches for the symmetric pair check: on the
    transform route, on the table route where most pairs do not link, in a
    nonabelian group, and with one set replaced by its image under an
    automorphism (x1 <-> x2), a difference set with the same parameters
    that fails to link with most other sets, first and last in the batch."""
    import numpy as np

    from linkset.diffmat import build_improved, build_tyken
    from linkset.groups import make_abelian
    from linkset.search import enumerate_difference_sets

    G = make_abelian([4] * 5)
    yield "Z4^5 improved", G, build_improved(G).sets()
    G = make_abelian([4, 4])
    yield "Z4^2 (16,6,2) sets", G, [r.elements for r in enumerate_difference_sets(G, 6)]
    system = build_tyken(2, make_abelian([2, 2, 2]))
    yield "tyken Z2^3", system.group, system.sets()
    G = make_abelian([4] * 4)
    sets = build_improved(G).sets()

    def swap(a):
        e = np.unravel_index(a, G.cyclic_factors)
        return int(np.ravel_multi_index((e[1], e[0]) + e[2:], G.cyclic_factors))

    for i in (0, len(sets) - 1):
        mutated = list(sets)
        mutated[i] = tuple(sorted(swap(a) for a in sets[i]))
        assert mutated[i] != sets[i]
        yield f"Z4^4 improved, set {i} moved", G, mutated


def test_square_is_the_rectangle(rectangle):
    """The pair pass over the batch against itself, which computes the
    pairs i < j and reads each (j, i) from the involution, gives exactly
    the rectangle of every set against every set (the ``rectangle``
    oracle): ``links`` and their mirror images are the rectangle's pairs,
    and ``witness_ids`` are its supports when every pair links and None
    otherwise, whichever triangle the failing pairs lie in for the
    rectangle; ``verify_reduced`` agrees."""
    import numpy as np

    from linkset.linking import PairCheck

    linked = {}
    for name, G, sets in _square_batches():
        n = len(sets)
        check = PairCheck(G, np.array(sets))
        munu = mu_nu_candidates(check.params)[0]
        want = rectangle(G, sets, munu)
        i, j = check.links(munu)
        assert i.dtype == j.dtype == np.int64 and (i < j).all(), name
        got = sorted(zip(i.tolist(), j.tolist())) + sorted(zip(j.tolist(), i.tolist()))
        assert sorted(got) == list(zip(want[0].tolist(), want[1].tolist())), name
        complete = check.witness_ids(munu)
        every = len(want[0]) == n * (n - 1)
        assert (complete is not None) == every == (verify_reduced(G, sets) is not None), name
        if every:
            assert complete.dtype == np.int32 and np.array_equal(complete, want[2]), name
        linked[name] = len(want[0])
        if not G.abelian:  # W_ji = W_ij^(-1) is a real inversion here
            inverses = np.sort(G.inv_table[want[2]], axis=1)
            assert (inverses != want[2]).any(axis=1).any()
    assert linked == {"Z4^5 improved": 930, "Z4^2 (16,6,2) sets": 12288, "tyken Z2^3": 42,
                      "Z4^4 improved, set 0 moved": 14 * 13 + 2 * 6,
                      "Z4^4 improved, set 14 moved": 14 * 13 + 2 * 4}


def test_witness_ids_stop_at_a_failing_pair_in_the_last_block(monkeypatch, rectangle):
    """``witness_ids`` is None when the only pair that does not link lies in
    the last block of the pass: the Kerdock d = 1 system with its first set
    moved to the end and repeated there, so that only the repeated pair
    (n-2, n-1) fails, in blocks of one left row."""
    import numpy as np

    from linkset import linking
    from linkset.bent import bent_linking, kerdock_bent_set

    system = bent_linking(kerdock_bent_set(1))
    G, sets = system.group, system.sets()
    sets = sets[1:] + [sets[0], sets[0]]
    n = len(sets)
    want = rectangle(G, sets, system.munu)
    assert len(want[0]) == n * (n - 1) - 2  # only (n-2, n-1) and (n-1, n-2) fail
    monkeypatch.setattr("linkset.groups.SCRATCH_BYTES", 1)
    check = linking.PairCheck(G, sets)
    blocks = [block.tolist() for block, _, _, _ in check._upper(system.munu)]
    assert blocks == [[i] for i in range(n - 1)]
    assert check.witness_ids(system.munu) is None and verify_reduced(G, sets) is None
    assert check.links(system.munu)[0].tolist().count(n - 2) == 0


def test_verify_reduced_peak_is_its_witnesses():
    """``verify_reduced`` on the Kerdock d = 3 sets (16,002 witnesses of 120
    ids) writes each support once, into the array it returns: its traced
    peak stays below 1.5 times that array plus one product block."""
    import tracemalloc

    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.groups import SCRATCH_BYTES

    system = bent_linking(kerdock_bent_set(3))
    G, sets = system.group, system.sets()
    tracemalloc.start()
    try:
        again = verify_reduced(G, sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == system and again.witness_ids.shape == (16002, 120)
    assert peak < 1.5 * again.witness_ids.nbytes + SCRATCH_BYTES


def _witness_systems():
    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.diffmat import build_improved, build_tyken
    from linkset.groups import make_abelian

    yield build_improved(make_abelian([4] * 4)), None
    yield bent_linking(kerdock_bent_set(3)), 60  # 16,002 pairs: a sample
    yield build_tyken(2, make_abelian([2, 2, 2])), None


def test_witness_ids_rows_are_the_pair_witnesses():
    """Row n of ``witness_ids`` is the mu-support of D_i D_j^(-1) for the
    n-th pair in the order (1,2), (1,3), ..., (l,l-1), computed here with
    the plain convolution ``rg.mul``; the ``witnesses`` dict is built from
    the rows on first use and agrees with them."""
    import numpy as np

    from linkset import group_ring as rg

    for system, sample in _witness_systems():
        G, ell, (mu, nu) = system.group, system.size, system.munu.as_tuple()
        pairs = [(i, j) for i in range(1, ell + 1) for j in range(1, ell + 1) if i != j]
        assert system.pairs() == pairs
        ids = system.witness_ids
        assert ids.shape == (ell * (ell - 1), system.params.k) and ids.dtype == np.int32
        assert "witnesses" not in system.__dict__  # not built by verification
        assert [system.pair_row(i, j) for i, j in pairs] == list(range(len(pairs)))
        rows = range(len(pairs))
        if sample is not None:
            rows = np.random.default_rng(5).choice(len(pairs), sample, replace=False).tolist()
        for n in rows:
            i, j = pairs[n]
            X = rg.from_subset(G, system.records[i - 1].elements)
            Y = rg.involution(rg.from_subset(G, system.records[j - 1].elements))
            assert tuple(ids[n].tolist()) == rg.decompose_two_valued(rg.mul(X, Y), mu, nu)
        assert list(system.witnesses) == pairs
        assert [w.elements for w in system.witnesses.values()] == [tuple(r) for r in ids.tolist()]


def test_certificate_round_trip_builds_no_witness_records():
    """A Z4^5 certificate is written and read from the id array alone."""
    from linkset import io as lio
    from linkset.diffmat import build_improved
    from linkset.groups import make_abelian

    system = build_improved(make_abelian([4] * 5))
    obj = lio.system_to_json(system)
    back = lio.system_from_json(obj)
    assert "witnesses" not in system.__dict__ and "witnesses" not in back.__dict__
    assert (back.witness_ids == system.witness_ids).all() and back.munu == system.munu
    assert back.sets() == system.sets()
    assert obj == lio.system_to_json(back)


def test_verify_full_rejects_entries_of_different_sizes():
    """Entries that claim the common parameters but hold sets of another
    size fail verification instead of breaking the (n, k) id array."""
    from linkset.designs import DifferenceSetRecord
    from linkset.linking import LinkingSystem

    G, sets = linked_triple_z4z4()
    full = expand(verify_reduced(G, sets))
    for key, cut in (((1, 2), 1), ((0, 3), 2), ((2, 0), -1)):
        entries = dict(full.entries)
        rec = entries[key]
        elements = rec.elements[:-cut] if cut > 0 else rec.elements + (
            next(a for a in G.elements() if a not in rec.elements),)
        entries[key] = DifferenceSetRecord(G, elements, rec.params)
        assert not verify_full(LinkingSystem(G, entries, full.munu))


def test_expand_checks_its_entries_in_count_blocks(monkeypatch):
    """``verify_full`` hands the 7 sets D_(i,0) of its 56 entries (the
    Tyken system in D4 x Z2^3, l = 7, v = 64, nonabelian and so on the
    counting route) to the kernel as one id array, counted in one block,
    not one set at a time; the other entries are difference sets by the
    lemma in ``linking.PairCheck``."""
    from linkset import group_ring as rg
    from linkset.diffmat import build_tyken
    from linkset.groups import SCRATCH_BYTES, make_abelian

    reduced = build_tyken(2, make_abelian([2, 2, 2]))
    v, k = reduced.group.order, reduced.params.k
    assert rg._transform(reduced.group) is None
    calls = []
    count = rg._count_autocorrelations
    monkeypatch.setattr(rg, "_count_autocorrelations",
                        lambda G, sets: calls.append(len(sets)) or count(G, sets))
    full = expand(reduced)
    step = SCRATCH_BYTES // (8 * max(k * k, v))  # 8-byte quotients and counts
    assert len(full.entries) == 56 and sum(calls) == 7
    assert len(calls) == math.ceil(7 / step) == 1 and calls[0] == 7 < step


def test_expand_checks_its_entries_in_one_transform_block(monkeypatch):
    """The transform twin of the count-block test: ``verify_full`` on bent
    d = 2 (l = 31, v = 64, abelian, so on the transform route) hands the
    31 sets D_(i,0) of its 992 entries to one ``_character_norms`` block,
    and never counts."""
    from linkset import group_ring as rg
    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.groups import SCRATCH_BYTES

    reduced = bent_linking(kerdock_bent_set(2))
    v = reduced.group.order
    assert rg._transform(reduced.group) is not None
    calls = []
    norms = rg._character_norms
    monkeypatch.setattr(rg, "_character_norms",
                        lambda G, sets: calls.append(len(sets)) or norms(G, sets))
    monkeypatch.setattr(rg, "_count_autocorrelations", None)  # no count may start
    full = expand(reduced)
    assert len(full.entries) == 992
    assert calls == [31] and 31 < SCRATCH_BYTES // (8 * v)  # float64 rows


def test_expand_inverts_the_sets_with_one_gather(monkeypatch):
    """``expand`` builds every D_(0,i) from ``inv_table``: on bent d = 2
    (l = 31, v = 64) it makes no scalar ``FiniteGroup.inv`` call."""
    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.designs import is_reversible
    from linkset.groups import FiniteGroup

    reduced = bent_linking(kerdock_bent_set(2))
    G = reduced.group
    calls = []
    inv = FiniteGroup.inv
    monkeypatch.setattr(FiniteGroup, "inv", lambda self, a: calls.append(a) or inv(self, a))
    assert G.inv(1) == inv(G, 1) and calls == [1]  # the counter sees a call
    calls.clear()
    full = expand(reduced)
    assert calls == [] and len(full.entries) == 992
    for i, rec in enumerate(reduced.records, start=1):
        assert full.entries[(0, i)].elements == tuple(sorted(inv(G, a) for a in rec.elements))
    is_reversible(full.entries[(0, 1)])
    assert calls == []


def witness_filter_oracle(G: FiniteGroup, sets, munu: MuNu,
                          params: DSParams) -> tuple[int, int]:
    """The witness filter that ``linking.PairCheck`` leaves out, as an
    oracle for the lemma in its docstring: (pairs, rejected), the ordered
    pairs i != j of ``sets`` whose product D_i D_j^(-1) is valued in
    {mu, nu}, and those of them whose mu-support is not a difference set
    with ``params``.  Each distinct product with at most two values goes to
    ``group_ring.decompose_two_valued``; all n^2 products are held at once.
    """
    import numpy as np

    from linkset import group_ring as rg
    from linkset.designs import is_difference_set
    from linkset.search import _distinct_rows

    rows = rg.indicators(G, sets)
    prods = rg.pair_products(G, rows, rows)[~np.eye(len(sets), dtype=bool)]
    values = np.sort(prods, axis=1)
    prods = prods[(values[:, 1:] != values[:, :-1]).sum(axis=1) <= 1].astype(np.int64)
    first, inverse = _distinct_rows(prods)
    pairs = rejected = 0
    for row, count in zip(prods[first], np.bincount(inverse, minlength=len(first)).tolist()):
        support = rg.decompose_two_valued(rg.GroupRingElement(G, row), *munu.as_tuple())
        if support is not None:
            pairs += count
            rejected += count * (is_difference_set(G, support) != params)
    return pairs, rejected


def _oracle_cases():
    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.diffmat import build_improved
    from linkset.groups import direct_product, make_abelian, make_dihedral8, make_quaternion8
    from linkset.search import enumerate_difference_sets

    Z2 = make_abelian([2])
    for G, supports in ((make_abelian([4, 4]), 12288), (make_abelian([4, 2, 2]), 36864),
                        (make_abelian([2, 2, 2, 2]), 86016), (make_abelian([8, 2]), 0),
                        (direct_product(make_dihedral8(), Z2), 12288),
                        (direct_product(make_quaternion8(), Z2), 12288)):
        records = enumerate_difference_sets(G, 6)
        yield G, [r.elements for r in records], records[0].params, supports
    for system, supports in ((build_improved(make_abelian([4] * 4)), 210),
                             (bent_linking(kerdock_bent_set(2)), 930)):
        yield system.group, system.sets(), system.params, supports


def test_the_witness_filter_never_rejects():
    """The filter the pair check no longer runs, as an oracle that does not
    call it: on every k = 6 census graph of order 16, on build_improved(Z4^4)
    and on bent d = 2, every ordered pair whose product is valued in
    {mu, nu} has a mu-support of k elements that is a difference set with
    the common parameters (the lemma in ``linking.PairCheck``)."""
    for G, sets, params, supports in _oracle_cases():
        (munu,) = mu_nu_candidates(params)
        assert witness_filter_oracle(G, sets, munu, params) == (supports, 0)


def test_the_witness_filter_oracle_rejects_supports_that_are_no_difference_sets():
    """The oracle counts a two-valued pair whose mu-support is not a
    difference set with the parameters: the Z4^2 census sets under the
    swapped branch (3, 1), whose 3-supports have 10 elements, and under the
    right branch against parameters of another order."""
    from linkset.groups import make_abelian
    from linkset.search import enumerate_difference_sets

    G = make_abelian([4, 4])
    sets = [r.elements for r in enumerate_difference_sets(G, 6)]
    assert witness_filter_oracle(G, sets, MuNu(3, 1), DSParams(16, 6, 2, 4)) == (
        12288, 12288)
    assert witness_filter_oracle(G, sets, MuNu(1, 3), DSParams(31, 6, 1, 5)) == (
        12288, 12288)


def test_the_pair_check_rejects_a_mu_nu_that_is_no_branch():
    """``PairCheck.check_branch``, and so ``links`` and ``witness_ids``,
    raise ValueError unless (mu, nu) is one of ``mu_nu_candidates(params)``:
    the lemma needs it."""
    import pytest

    from linkset.linking import MuNu, PairCheck

    G, sets = linked_triple_z4z4()
    check = PairCheck(G, sets)
    assert check.params == DSParams(16, 6, 2, 4)
    for munu in (MuNu(3, 1), MuNu(1, 2)):
        for question in (check.check_branch, check.links, check.witness_ids):
            with pytest.raises(ValueError, match="branch"):
                question(munu)
    check.check_branch(MuNu(1, 3))
    assert 2 * len(check.links(MuNu(1, 3))[0]) == 6


def test_binding_checks_the_lemma_before_any_product(monkeypatch):
    """``links``, ``witness_ids`` and the pair pass ``_upper`` raise
    ValueError for a (mu, nu) that is no branch, and for sets that are not
    difference sets with common parameters (``params`` None, which
    ``witness_ids`` never reads), before any ``RowProducts`` exists; one
    check, and so ``verify_reduced``, builds one ``RowProducts``, on its
    first pair pass, for every branch."""
    import pytest

    from linkset import group_ring as rg
    from linkset.linking import MuNu, PairCheck

    G, sets = linked_triple_z4z4()
    check = PairCheck(G, sets)
    mixed = PairCheck(G, sets[:2] + [(0, 1, 2, 3, 4, 5)])
    assert mixed.params is None
    built = []
    products = rg.RowProducts

    def no_products(*args):
        raise AssertionError("RowProducts built")

    monkeypatch.setattr(rg, "RowProducts", no_products)
    for question in (check.links, check.witness_ids, lambda munu: next(check._upper(munu))):
        for munu in (MuNu(3, 1), MuNu(1, 2)):
            with pytest.raises(ValueError, match="branch"):
                question(munu)
    for question in (mixed.links, mixed.witness_ids, lambda munu: next(mixed._upper(munu))):
        with pytest.raises(ValueError, match="difference sets"):
            question(MuNu(1, 3))
    with pytest.raises(AssertionError, match="RowProducts"):  # the patch sees a product
        check.links(MuNu(1, 3))
    monkeypatch.setattr(rg, "RowProducts", lambda *args: built.append(1) or products(*args))
    assert check.witness_ids(MuNu(1, 3)) is not None and len(check.links(MuNu(1, 3))[0]) == 3
    assert built == [1]
    assert verify_reduced(G, sets) is not None and built == [1, 1]


def test_pair_check_params_need_every_set():
    """``PairCheck.params`` is the common DSParams of the batch, and None
    when one set is no difference set, when one has other parameters (its
    complement) or other size; malformed ids raise ValueError, in a batch
    of equal sizes or not."""
    import numpy as np
    import pytest

    from linkset.designs import complement, make_record
    from linkset.linking import PairCheck

    G, sets = linked_triple_z4z4()
    params = DSParams(16, 6, 2, 4)
    assert PairCheck(G, sets).params == PairCheck(G, np.array(sets)).params == params
    other = complement(make_record(G, sets[2])).elements
    for third in ((0, 1, 2, 3, 4, 5), other, sets[2][:5]):
        assert PairCheck(G, sets[:2] + [third]).params is None
    assert PairCheck(G, np.array(sets[:2] + [(0, 1, 2, 3, 4, 5)])).params is None
    assert PairCheck(G, sets[:0]).params is None
    # lambda = 0 is the one value two sizes share: a singleton and the empty set
    assert PairCheck(G, [(0,), (1,)]).params == DSParams(16, 1, 0, 1)
    assert PairCheck(G, [(0,), ()]).params is None
    for bad in ((0, 1, 16), (0, 1, 1), (0, 1, 1, 2, 3, 4, 5), (-1, 2)):
        with pytest.raises(ValueError, match="out of range|repeated"):
            PairCheck(G, sets[:2] + [bad])
    with pytest.raises(ValueError, match="repeated"):
        PairCheck(G, np.array(sets[:2] + [(0, 1, 1, 2, 3, 4)]))


def test_verify_reduced_runs_one_autocorrelation_batch(monkeypatch):
    """``verify_reduced`` checks its sets with one batch, on the spectral
    route (bent d = 2 in Z2^6 and the improved system in Z4^4) and on the
    counting route (Tyken in D4 x Z2^3, nonabelian)."""
    from linkset import group_ring as rg
    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.diffmat import build_improved, build_tyken
    from linkset.groups import make_abelian

    systems = [bent_linking(kerdock_bent_set(2)), build_improved(make_abelian([4] * 4)),
               build_tyken(2, make_abelian([2, 2, 2]))]
    assert [rg._transform(s.group) is None for s in systems] == [False, False, True]
    batches = []
    for name in ("character_norm_blocks", "autocorrelation_blocks"):
        monkeypatch.setattr(rg, name, lambda G, sets, blocks=getattr(rg, name):
                            batches.append(len(sets)) or blocks(G, sets))
    for system in systems:
        batches.clear()
        assert verify_reduced(system.group, system.sets()) == system
        assert batches == [system.size]


def test_mu_nu_needs_a_positive_n():
    """n = 0 (the whole group, k = v, and the empty set, k = 0) would give
    mu = nu: no branch, so such sets never verify."""
    from linkset.groups import make_abelian

    assert mu_nu_candidates(DSParams(16, 16, 16, 0)) == []
    assert mu_nu_candidates(DSParams(16, 0, 0, 0)) == []
    G = make_abelian([4])
    assert verify_reduced(G, [[0, 1, 2, 3], [0, 1, 2, 3]]) is None
    assert verify_reduced(G, [[], []]) is None


def test_verify_full_rejects_a_mu_nu_that_is_no_branch():
    """The expanded bent d = 2 system with (mu, nu) swapped fails, though
    every entry is a difference set with the common parameters; so does a
    system with l = 1, which has no index triple to catch it."""
    from dataclasses import replace

    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.linking import LinkingSystem, MuNu

    full = expand(bent_linking(kerdock_bent_set(2)))
    mu, nu = full.munu.as_tuple()
    assert verify_full(full)
    assert not verify_full(replace(full, munu=MuNu(nu, mu)))
    one = LinkingSystem(full.group, {key: full.entries[key] for key in ((1, 0), (0, 1))},
                        full.munu)
    assert verify_full(one)
    assert not verify_full(replace(one, munu=MuNu(nu, mu)))


def test_verify_full_checks_the_stated_parameters():
    """A system whose records all state the parameters of another group
    order, (31, 6, 1, 5), fails: its sets D_(i,0) are (16, 6, 2, 4)
    difference sets, and (mu, nu) = (1, 3) is a branch of those."""
    from dataclasses import replace

    G, sets = linked_triple_z4z4()
    full = expand(verify_reduced(G, sets))
    other = DSParams(31, 6, 1, 5)
    entries = {key: replace(rec, params=other) for key, rec in full.entries.items()}
    assert verify_full(full) and not verify_full(replace(full, entries=entries))


def test_verify_full_checks_the_sets_d_i0():
    """With l = 1 no product identity constrains D_(1,0): a 6-set that is
    no difference set, with its inverse as D_(0,1), fails only by the
    difference-set check of the sets D_(i,0)."""
    from linkset.designs import DifferenceSetRecord
    from linkset.linking import LinkingSystem

    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, sets)
    for elements, ok in ((sets[1], True), ((0, 1, 2, 3, 4, 5), False)):
        D = DifferenceSetRecord(G, elements, system.params)
        inverse = DifferenceSetRecord(G, tuple(G.inv(a) for a in D.elements), D.params)
        assert verify_full(LinkingSystem(G, {(1, 0): D, (0, 1): inverse}, system.munu)) == ok


def _dense_verify_full(full) -> bool:
    """``verify_full`` as it was before it became one pair check, kept as
    its oracle: the same index-set, parameter and (mu, nu) checks, then the
    entries scattered into a dense (l+1, l+1, v) array F, the transpose
    identity on F, and for each middle index i the products D_(h,i)
    D_(j,i)^(-1) = D_(h,i) D_(i,j) compared with (mu - nu) D_(h,j) + nu G."""
    import numpy as np

    from linkset import group_ring as rg
    from linkset.designs import difference_set_params

    G, ell = full.group, full.top_index
    idx = range(ell + 1)
    if set(full.entries) != {(i, j) for i in idx for j in idx if i != j}:
        raise ValueError("malformed system: wrong index set")
    params = next(iter(full.entries.values())).params
    mu, nu = full.munu.as_tuple()
    if any(rec.params != params or len(rec.elements) != params.k
           for rec in full.entries.values()):
        return False
    firsts = [full.entries[(i, 0)].elements for i in range(1, ell + 1)]
    if (any(p != params for p in difference_set_params(G, firsts))
            or (mu, nu) not in [m.as_tuple() for m in mu_nu_candidates(params)]):
        return False
    F = np.zeros((ell + 1, ell + 1, G.order), dtype=np.float32)
    for (i, j), rec in full.entries.items():
        F[i, j, list(rec.elements)] = 1
    if not np.array_equal(F, F.transpose(1, 0, 2)[:, :, G.inv_table]):
        return False
    diag = np.arange(ell)
    for i in idx:
        others = [h for h in idx if h != i]
        prods = rg.pair_products(G, F[others, i], F[others, i])
        want = (mu - nu) * F[np.ix_(others, others)] + nu
        want[diag, diag] = prods[diag, diag]  # h = j is not a triple
        if not np.array_equal(prods, want):
            return False
    return True


def _mutations(full, rng, count):
    """``count`` mutated copies of a full system, each by one of six moves:
    one element swapped, an entry translated on the left, the same with its
    transpose moved along, two entries exchanged, one row D_(m,j) translated
    on the right, and row m translated on the left by g with column m on the
    right by g^(-1) (which keeps a system valid in any group)."""
    from linkset.designs import DifferenceSetRecord
    from linkset.linking import LinkingSystem

    G = full.group
    keys = sorted(full.entries)

    def moved(key, left, right):
        rec = full.entries[key]
        ids = G.table[G.table[left, list(rec.elements)], right].tolist()
        return DifferenceSetRecord(G, tuple(ids), rec.params)

    out = []
    for _ in range(count):
        entries = dict(full.entries)
        key = rng.choice(keys)
        i, j = key
        g = rng.randrange(1, G.order)
        kind = rng.randrange(6)
        if kind == 0:
            rec = entries[key]
            entries[key] = DifferenceSetRecord(G, _swap_one(G, rec.elements, rng), rec.params)
        elif kind in (1, 2):
            entries[key] = moved(key, g, 0)
            if kind == 2:
                entries[(j, i)] = moved((j, i), 0, G.inv(g))
        elif kind == 3:
            other = rng.choice([x for x in keys if x != key])
            entries[key], entries[other] = entries[other], entries[key]
        else:
            for x in (x for x in keys if x[0] == i):
                entries[x] = moved(x, 0 if kind == 4 else g, g if kind == 4 else 0)
            for x in (x for x in keys if x[1] == i and kind == 5):
                entries[x] = moved(x, 0, G.inv(g))
        out.append(LinkingSystem(G, entries, full.munu))
    return out


def test_verify_full_agrees_with_the_dense_identity_check():
    """``verify_full`` (one pair check over the sets D_(i,0) and a
    comparison of the other entries) gives the dense check's verdict on
    expanded systems in abelian and nonabelian groups, on both kernel
    routes, on their l = 1 subsystems, with (mu, nu) swapped, and on 100
    mutants of each, valid and invalid ones."""
    from dataclasses import replace

    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.diffmat import build_improved, build_nonreversible, build_tyken
    from linkset.groups import make_abelian
    from linkset.linking import LinkingSystem, MuNu

    G, sets = linked_triple_z4z4()
    systems = [expand(reduced) for reduced in (
        verify_reduced(G, sets), bent_linking(kerdock_bent_set(2)),
        build_tyken(1, make_abelian([2])), build_tyken(2, make_abelian([2, 2, 2])),
        build_improved(make_abelian([4] * 4)), build_nonreversible(2))]
    assert [full.top_index for full in systems] == [3, 31, 3, 7, 15, 7]
    corpus = []
    for full in systems:
        mu, nu = full.munu.as_tuple()
        ones = [LinkingSystem(full.group, {(1, 0): full.entries[(m, 0)],
                                           (0, 1): full.entries[(0, m)]}, full.munu)
                for m in (1, full.top_index)]
        for system in [full] + ones:
            corpus += [system, replace(system, munu=MuNu(nu, mu))]
        rng = random.Random(full.top_index * full.group.order)
        for system in (full, ones[0]):
            corpus += _mutations(system, rng, 100)
    verdicts = [_dense_verify_full(system) for system in corpus]
    disagree = [n for n, (system, ok) in enumerate(zip(corpus, verdicts))
                if verify_full(system) != ok]
    assert len(corpus) == 1236 and disagree == []
    assert 100 < sum(verdicts) < len(corpus) - 100  # valid and invalid systems alike


def test_verify_reduced_counts_a_list_of_sets_at_once(monkeypatch):
    """A list of sets of one size (the 7 Tyken sets in D4 x Z2^3, v = 64,
    nonabelian and so on the counting route) is checked as one (n, k) id
    array: one count of all 7 sets.  A list of sets of several sizes is
    counted one set at a time and has no common parameters."""
    from linkset import group_ring as rg
    from linkset.diffmat import build_tyken
    from linkset.groups import make_abelian
    from linkset.linking import PairCheck

    system = build_tyken(2, make_abelian([2, 2, 2]))
    G, sets = system.group, [list(S) for S in system.sets()]
    assert rg._transform(G) is None
    calls = []
    count = rg._count_autocorrelations
    monkeypatch.setattr(rg, "_count_autocorrelations",
                        lambda G, sets: calls.append(len(sets)) or count(G, sets))
    assert verify_reduced(G, sets) == system
    assert calls == [7]
    calls.clear()
    assert PairCheck(G, sets[:2] + [sets[2][:-1]]).params is None
    assert calls == [1, 1, 1]


def test_verify_reduced_transforms_a_list_of_sets_at_once(monkeypatch):
    """The transform twin: the 31 bent d = 2 sets (v = 64, abelian, on the
    transform route) given as a list are one ``_character_norms`` block,
    and so is a list of sets of several sizes, which has no common
    parameters; nothing is counted."""
    from linkset import group_ring as rg
    from linkset.bent import bent_linking, kerdock_bent_set
    from linkset.linking import PairCheck

    system = bent_linking(kerdock_bent_set(2))
    G, sets = system.group, [list(S) for S in system.sets()]
    assert rg._transform(G) is not None
    calls = []
    norms = rg._character_norms
    monkeypatch.setattr(rg, "_character_norms",
                        lambda G, sets: calls.append(len(sets)) or norms(G, sets))
    monkeypatch.setattr(rg, "_count_autocorrelations", None)  # no count may start
    assert verify_reduced(G, sets) == system
    assert calls == [31]
    calls.clear()
    assert PairCheck(G, sets[:2] + [sets[2][:-1]]).params is None
    assert calls == [3]

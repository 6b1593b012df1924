import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from linkset import group_ring as rg
from linkset.designs import (
    DSParams,
    _autocorrelation_params,
    complement,
    construction_sets,
    difference_set_mask,
    difference_set_params,
    hyperplanes,
    is_difference_set,
    is_reversible,
    kraemer_exists,
    make_record,
    mcfarland_construct,
    spence_construct,
    two_group_params,
)
from linkset.groups import (
    coset_transversal,
    find_central_elementary_abelian,
    make_abelian,
    quotient,
    subgroup_generated,
)
from linkset.worked_examples import linked_triple_z4z4


def naive_is_difference_set(G, S):
    """All-pairs difference-multiset oracle straight from the definition."""
    S = list(S)
    counts = Counter(G.mul(a, G.inv(b)) for a in S for b in S if a != b)
    lams = {counts.get(g, 0) for g in G.elements() if g != 0}
    if len(S) <= 1:
        lam = 0
    elif len(lams) != 1:
        return None
    else:
        lam = lams.pop()
    return (G.order, len(S), lam, len(S) - lam)


def test_params_validation():
    with pytest.raises(ValueError):
        DSParams(16, 6, 2, 3)
    with pytest.raises(ValueError):
        DSParams(16, 7, 2, 5)


def test_is_difference_set_examples():
    G, sets = linked_triple_z4z4()
    assert is_difference_set(G, sets[0]).as_tuple() == (16, 6, 2, 4)
    assert is_difference_set(G, [0]).as_tuple() == (16, 1, 0, 1)
    bad = [G.element(w) for w in ("1", "x1", "x1^2", "x1^3", "x2", "x2^2")]
    assert is_difference_set(G, bad) is None
    assert naive_is_difference_set(G, bad) is None


def test_verifier_matches_oracle_on_all_6_subsets(z4z4):
    hits = 0
    for combo in itertools.combinations(range(16), 6):
        got = is_difference_set(z4z4, combo)
        want = naive_is_difference_set(z4z4, combo)
        assert (got.as_tuple() if got else None) == want or (got is None and want is None)
        if got is not None:
            hits += 1
    assert hits == 192  # derived constant, frozen after first exhaustive run


def test_difference_set_mask_matches_difference_set_params():
    """The bool parameter check against difference_set_params on random
    rows: difference sets, the same sets with one element moved, random
    subsets, asked for the right and for wrong parameters, as one id array
    and as a list of sets of mixed sizes, in Z4^2 and Z4^4 (both on the
    spectral route)."""
    from linkset.diffmat import build_improved
    from linkset.search import enumerate_difference_sets

    rng = np.random.default_rng(81)
    Z44 = make_abelian([4, 4])
    cases = [(Z44, np.array([r.elements for r in enumerate_difference_sets(Z44, 6)]))]
    big = build_improved(make_abelian([4, 4, 4, 4]))
    cases.append((big.group, np.array([r.elements for r in big.records]
                                      + [w.elements for w in big.witnesses.values()][:40])))
    for G, good in cases:
        v, k = G.order, good.shape[1]
        moved = good.copy()
        for row in moved:
            outside = np.setdiff1d(np.arange(v), row)
            row[rng.integers(k)] = rng.choice(outside)
        random_rows = np.array([rng.choice(v, k, replace=False) for _ in range(60)])
        rows = np.concatenate([good, moved, random_rows])
        rows = rows[rng.permutation(len(rows))]
        right = difference_set_params(G, good[:1])[0]
        wrong = [DSParams(v, v - k, v - 2 * k + right.lam, right.n), DSParams(v, 1, 0, 1),
                 two_group_params(6)]
        mixed = [row[:rng.integers(1, k + 1)] if rng.random() < 0.3 else row for row in rows]
        for sets in (rows, mixed):
            found = difference_set_params(G, sets)
            for params in [right, *wrong]:
                got = difference_set_mask(G, sets, params)
                assert got.dtype == bool and got.tolist() == [p == params for p in found]
            assert 0 < difference_set_mask(G, sets, right).sum() < len(sets)
        assert difference_set_mask(G, good, right).all()
    assert difference_set_mask(Z44, np.zeros((0, 6), dtype=np.int64), right).shape == (0,)


def _counted_params(G, sets):
    """(k, lambda) of each set from the exact count
    (``group_ring.autocorrelations``), lambda -1 where S S^(-1) is not
    constant off the identity.  A set of more than v/2 elements is counted
    through its complement C, as C C^(-1) = S S^(-1) + (v - 2k) G, so no
    count holds more than (v/2)^2 quotients."""
    v, ks, lams = G.order, [], []
    for S in sets:
        k = len(S)
        if 2 * k > v:
            prods = rg.autocorrelations(G, [np.setdiff1d(np.arange(v), S)])[0] - (v - 2 * k)
        else:
            prods = rg.autocorrelations(G, [S])[0]
        ks.append(int(prods[0]))
        lams.append(int(prods[1:2].sum()) if (prods[1:] == prods[1:2]).all() else -1)
    return ks, lams


def _planted_sets(G):
    """Nontrivial difference sets of G where a construction gives them
    cheaply: the linked triple in Z4^2, McFarland sets in Z3^2 x Z5 and
    Spence sets in Z3^2 x Z2^2."""
    if G.cyclic_factors == (4, 4):
        return [list(S) for S in linked_triple_z4z4()[1]]
    if G.cyclic_factors in ((3, 3, 5), (3, 3, 2, 2)):
        E = find_central_elementary_abelian(G, 2, p=3)[0]
        family = hyperplanes(E, 3, _basis3(G, E))
        slot = 0 if G.order == 36 else None
        return construction_sets(family, coset_transversal(G, E).reps, slot)[:12].tolist()
    return []


@pytest.mark.parametrize("factors", [[2], [3], [2, 2], [4, 4], [8, 2], [3, 3, 2, 2], [6, 6],
                                     [3, 3, 5], [2] * 6, [4] * 5, [64, 64]],
                         ids=lambda f: "x".join(map(str, f)))
def test_spectral_params_match_the_count(factors, monkeypatch):
    """The spectral route's (k, lambda) equal the count's on random rows:
    at every k up to v = 64, and at the edges, the middle and the
    difference-set size above (order 1024, and Z64^2, whose prime 8513 is
    the largest of the order-4096 transforms); on planted difference sets
    and their one-element moves; as one id array per size and as one list
    of sets of mixed sizes."""
    G = make_abelian(factors)
    v = G.order
    rng = np.random.default_rng(v)
    if v <= 64:
        sizes = range(v + 1)
    else:
        edges = [0, 1, 2, 3, v // 2 - 1, v // 2, v // 2 + 1, v - 3, v - 2, v - 1, v]
        sizes = edges + [two_group_params(v.bit_length() - 1).k]
    by_size = [np.sort([rng.choice(v, k, replace=False) for _ in range(3)], axis=1)
               .astype(np.int64).reshape(3, k) for k in sizes]
    planted = _planted_sets(G)
    moved = []
    for S in planted:
        S = list(S)
        S[rng.integers(len(S))] = int(rng.choice(np.setdiff1d(np.arange(v), S)))
        moved.append(S)
    mixed = [list(map(int, row)) for rows in by_size for row in rows] + planted + moved
    mixed = [mixed[i] for i in rng.permutation(len(mixed))]
    want = [_counted_params(G, rows) for rows in by_size]
    mixed_want = _counted_params(G, mixed)
    assert [lam >= 0 for lam in _counted_params(G, planted)[1]] == [True] * len(planted)
    assert rg._transform(G).p == 8513 if v == 4096 else rg._transform(G) is not None
    monkeypatch.setattr(rg, "autocorrelation_blocks", None)  # nothing is counted
    for rows, counted in zip(by_size, want):
        k, lam = _autocorrelation_params(G, rg._subset_rows(G, rows))
        assert (k.tolist(), lam.tolist()) == counted
    k, lam = _autocorrelation_params(G, rg._subset_rows(G, mixed))
    assert (k.tolist(), lam.tolist()) == mixed_want
    assert difference_set_params(G, mixed) == [
        DSParams(v, a, b, a - b) if b >= 0 else None for a, b in zip(*mixed_want)]
    # k = 0, 1, v - 1 and v are difference sets in every group
    edge = difference_set_params(G, [[], [0], list(range(1, v)), list(range(v))])
    assert [p.as_tuple() for p in edge] == [(v, 0, 0, 0), (v, 1, 0, 1),
                                            (v, v - 1, v - 2, 1), (v, v, v, 0)]


def test_the_trivial_group_takes_the_spectral_route(monkeypatch):
    """v = 1 has a transform (p = 7, no stages) and takes the spectral
    route like every group with one: lambda = k(k - 1) / max(v - 1, 1) = 0
    for k in {0, 1}, there is no nontrivial character, and {1} is a
    (1, 1, 0, 1) difference set; nothing is counted."""
    T = make_abelian([])
    assert rg._transform(T).p == 7
    monkeypatch.setattr(rg, "autocorrelation_blocks", None)
    assert is_difference_set(T, [0]) == DSParams(1, 1, 0, 1)
    assert difference_set_params(T, [[0], []]) == [DSParams(1, 1, 0, 1), DSParams(1, 0, 0, 0)]


def test_the_spectral_route_takes_one_forward_transform_per_block(monkeypatch):
    """Each block of sets is one ``_Transform.__call__``, forward (batch
    first, on 0/1 rows) and never an inverse, and nothing else of the
    transform runs: 70 sets of Z4^5 (v = 1024) are three blocks of at most
    SCRATCH_BYTES of float64 rows, through ``difference_set_params``,
    ``difference_set_mask`` and ``PairCheck`` alike."""
    from linkset.groups import SCRATCH_BYTES
    from linkset.linking import PairCheck

    G = make_abelian([4] * 5)
    v, step = G.order, SCRATCH_BYTES // (8 * G.order)
    rng = np.random.default_rng(3)
    rows = np.sort([rng.choice(v, 496, replace=False) for _ in range(70)], axis=1)
    calls = []
    forward = rg._Transform.__call__
    monkeypatch.setattr(rg._Transform, "__call__", lambda self, x, bound, batch_first: calls.append(
        (len(x), bound, batch_first)) or forward(self, x, bound, batch_first))
    monkeypatch.setattr(rg._Transform, "left", None)
    monkeypatch.setattr(rg, "_count_autocorrelations", None)
    blocks = [(min(step, 70 - a), 1, True) for a in range(0, 70, step)]
    assert step == 32 and len(blocks) == 3
    for check in (lambda: difference_set_params(G, rows),
                  lambda: difference_set_mask(G, list(rows), two_group_params(10)),
                  lambda: PairCheck(G, [*rows[:40], rows[40, :-1], *rows[41:]])):
        calls.clear()
        check()
        assert calls == blocks


def test_complement():
    G, sets = linked_triple_z4z4()
    rec = make_record(G, sets[0])
    comp = complement(rec)
    assert comp.params.as_tuple() == (16, 10, 6, 4)
    assert is_difference_set(G, comp.elements).as_tuple() == (16, 10, 6, 4)
    assert complement(comp).elements == rec.elements


def test_is_reversible():
    G, sets = linked_triple_z4z4()
    flags = [is_reversible(make_record(G, s)) for s in sets]
    assert flags == [True, False, False]
    # subgroups are inverse-closed; {1} and G are the subgroup difference sets
    assert is_reversible(make_record(G, (0,)))
    assert is_reversible(make_record(G, tuple(G.elements())))


def test_two_group_params():
    assert two_group_params(4).as_tuple() == (16, 6, 2, 4)
    assert two_group_params(6).as_tuple() == (64, 28, 12, 16)
    assert two_group_params(2).as_tuple() == (4, 1, 0, 1)
    with pytest.raises(ValueError):
        two_group_params(5)


def test_kraemer():
    assert kraemer_exists(make_abelian([8, 2, 2, 2]))
    assert not kraemer_exists(make_abelian([32, 2]))
    assert kraemer_exists(make_abelian([2] * 6))
    with pytest.raises(ValueError):
        kraemer_exists(make_abelian([4, 2]))  # order 8 is not 2^(2d+2)


def test_hyperplane_counts():
    G = make_abelian([2, 2])
    E = subgroup_generated(G, [1, 2])
    fam = hyperplanes(E, 2, (G.element("x1"), G.element("x2")))
    assert fam.count == 3 and all(m.order == 2 for m in fam.members)

    G = make_abelian([2, 2, 2])
    E = subgroup_generated(G, list(range(1, 8)))
    fam = hyperplanes(E, 2, tuple(G.element(w) for w in ("x1", "x2", "x3")))
    assert fam.count == 7 and all(m.order == 4 for m in fam.members)

    G = make_abelian([3, 3])
    E = subgroup_generated(G, [G.element("x1"), G.element("x2")])
    fam = hyperplanes(E, 3, (G.element("x1"), G.element("x2")))
    assert fam.count == 4 and all(m.order == 3 for m in fam.members)

    G = make_abelian([4])
    with pytest.raises(ValueError):
        hyperplanes(subgroup_generated(G, [G.element("x1")]), 2, (G.element("x1"),))


@pytest.mark.parametrize("q,dmax", [(2, 3), (3, 3)])
def test_hyperplane_products(q, dmax):
    """H_i H_j = q^d H_i when i = j and q^(d-1) E otherwise."""
    for d in range(1, dmax + 1):
        E_group = make_abelian([q] * (d + 1))
        E = subgroup_generated(E_group, [E_group.element(f"x{i+1}") for i in range(d + 1)])
        fam = hyperplanes(E, q, tuple(E_group.element(f"x{i+1}") for i in range(d + 1)))
        allg = rg.all_ones(E_group)
        ring = [rg.from_subset(E_group, H.elements) for H in fam.members]
        for i, hi in enumerate(ring):
            for j, hj in enumerate(ring):
                prod = rg.mul(hi, hj)
                if i == j:
                    assert prod == rg.scale(q ** d, hi)
                else:
                    assert prod == rg.scale(q ** (d - 1), allg)


def test_mcfarland_reproduces_first_triple_member(z4z4):
    G = z4z4
    _, sets = linked_triple_z4z4()
    E = subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")])
    fam = hyperplanes(E, 2, (G.element("x1^2"), G.element("x2^2")))
    reps = [0, G.element("x1"), G.element("x2"), G.element("x1*x2^3")]
    rec = mcfarland_construct(G, fam, reps, [1, 2, 3])
    assert rec.elements == tuple(sets[0])
    assert rec.params.as_tuple() == (16, 6, 2, 4)


def test_mcfarland_q3():
    G = make_abelian([3, 3, 5])
    E = find_central_elementary_abelian(G, 2, p=3)[0]
    fam = hyperplanes(E, 3, (G.element("x1"), G.element("x2")))
    reps = coset_transversal(G, E).reps
    rec = mcfarland_construct(G, fam, reps, [1, 2, 3, 4])
    assert rec.params.as_tuple() == (45, 12, 3, 9)


def test_mcfarland_degenerate():
    G = make_abelian([2, 2])
    E = subgroup_generated(G, [G.element("x1")])
    fam = hyperplanes(E, 2, (G.element("x1"),))
    rec = mcfarland_construct(G, fam, [0, G.element("x2")], [1])
    assert rec.params.as_tuple() == (4, 1, 0, 1)


def test_mcfarland_errors(z4z4):
    G = z4z4
    E = subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")])
    fam = hyperplanes(E, 2, (G.element("x1^2"), G.element("x2^2")))
    reps = coset_transversal(G, E).reps
    with pytest.raises(ValueError):
        mcfarland_construct(G, fam, reps, [1, 1, 2])  # not injective
    with pytest.raises(ValueError):
        mcfarland_construct(G, fam, reps[:3], [1, 2, 3])  # wrong transversal size
    with pytest.raises(ValueError, match="distinct cosets"):
        mcfarland_construct(G, fam, [*reps[:3], G.element("x1^3")], [1, 2, 3])  # x1^3 in x1's coset
    # E of another group object (an equal copy): one check, the same message,
    # from the builder and from the coset numbering
    other = make_abelian([4, 4])
    with pytest.raises(ValueError, match="subgroup belongs to a different group"):
        mcfarland_construct(other, fam, reps, [1, 2, 3])
    with pytest.raises(ValueError, match="subgroup belongs to a different group"):
        quotient(other, E)


@pytest.mark.parametrize("factors", [[3, 3, 2, 2], [3, 3, 4]])
def test_spence(factors):
    G = make_abelian(factors)
    E = find_central_elementary_abelian(G, 2, p=3)[0]
    fam = hyperplanes(E, 3, _basis3(G, E))
    reps = coset_transversal(G, E).reps
    for m in range(4):
        rec = spence_construct(G, fam, reps, m)
        assert rec.params.as_tuple() == (36, 15, 6, 9)
        # |E \ H| + (s-1)|H| = 6 + 9 = 15
        assert len(rec.elements) == 15


def _min_transversal(G, E, H):
    """Minimal element of each coset of H in E, ascending (from the definition)."""
    return sorted({min(G.mul(a, h) for h in H.elements) for a in E.elements})


def test_construction_sets_match_the_constructions():
    """Rows of the array generator against the one-set constructions, for
    sampled (injective slot assignment, translates) choices."""
    rng = random.Random(17)
    for factors, m in [([3, 3, 5], None), ([3, 3, 2, 2], 0), ([3, 3, 4], 2)]:
        G = make_abelian(factors)
        E = find_central_elementary_abelian(G, 2, p=3)[0]
        fam = hyperplanes(E, 3, _basis3(G, E))
        reps = coset_transversal(G, E).reps
        s = fam.count
        rows = construction_sets(fam, reps, m)
        perms = list(itertools.permutations(range(len(reps)), s))
        picks = list(itertools.product(*(_min_transversal(G, E, H) for H in fam.members)))
        assert rows.shape == (len(perms) * len(picks), 12 if m is None else 15)
        for r in rng.sample(range(len(rows)), 40):
            perm, translates = perms[r // len(picks)], picks[r % len(picks)]
            slot_reps = list(reps)
            if m is None:  # McFarland: slot i uses coset perm[i], one coset unused
                for i in range(s):
                    slot_reps[perm[i]] = G.mul(reps[perm[i]], translates[i])
                want = mcfarland_construct(G, fam, slot_reps, perm)
            else:  # Spence: slot i uses coset perm[i]
                slot_reps = [G.mul(reps[perm[i]], translates[i]) for i in range(s)]
                want = spence_construct(G, fam, slot_reps, m)
            assert tuple(rows[r].tolist()) == want.elements


def _sweep_inputs(factors):
    """G, the hyperplane family and the coset representatives that the
    sweeps build: McFarland's over Z3^2 x Z5, Spence's in order 36."""
    from linkset.search import _sweep_setup

    G = make_abelian(factors)
    params = DSParams(45, 12, 3, 9) if G.order == 45 else DSParams(36, 15, 6, 9)
    family, reps = _sweep_setup(G, "full", params)[:2]
    return G, family, list(reps)


def _front_calls():
    """Each front of the McFarland/Spence builder on valid input, with the
    output it gave before the fronts shared the builder: the set's ids, or
    the shape and the SHA-256 of the little-endian int64 rows."""
    G45, fam45, reps45 = _sweep_inputs([3, 3, 5])
    G36, fam36, reps36 = _sweep_inputs([3, 3, 2, 2])

    def rows(family, reps, m):
        out = construction_sets(family, reps, m)
        return out.shape, hashlib.sha256(out.astype("<i8").tobytes()).hexdigest()

    return {
        "mcfarland_construct": (
            lambda: mcfarland_construct(G45, fam45, reps45, [4, 0, 2, 1]).elements,
            (0, 1, 2, 4, 9, 14, 15, 21, 27, 30, 37, 41)),
        "spence_construct": (
            lambda: spence_construct(G36, fam36, reps36, 1).elements,
            (0, 2, 3, 4, 5, 8, 9, 17, 19, 21, 22, 29, 30, 33, 35)),
        "construction_sets": (lambda: [rows(fam45, reps45, None), rows(fam36, reps36, 2)], [
            ((9720, 12), "70b4dae163ae8913dc5b45e56f4c873f719f46eb5856c03638c99099bf24f7ef"),
            ((1944, 15), "bd2855d3bf43e8033f4e803a57b93d0e75983fe2d73579caabe9b5932aac611e")]),
    }


@pytest.mark.parametrize("front", sorted(_front_calls()))
def test_each_front_keeps_its_output(front):
    call, want = _front_calls()[front]
    assert call() == want


def _builder_rejections():
    """Input that each front of the McFarland/Spence builder once took,
    building sets from it (or failing with an IndexError or TypeError), as
    (call, the ValueError message it now raises): McFarland over an E of
    index s (it needs s + 1) and Spence over index s + 1, a Spence slot
    over p = 2, a slot or an assignment entry that is out of range or no
    plain integer (True read as 1, 1.5 cut to 1 by int(), -1 as the last
    slot)."""
    G45, fam45, reps45 = _sweep_inputs([3, 3, 5])
    G36, fam36, reps36 = _sweep_inputs([3, 3, 2, 2])
    G16 = make_abelian([4, 4])
    E16 = subgroup_generated(G16, G16.element_ids(["x1^2", "x2^2"]))
    fam16, reps16 = hyperplanes(E16, 2), coset_transversal(G16, E16).reps
    slot = "complemented slot out of range"
    return {
        "construction_sets McFarland, index s": (
            lambda: construction_sets(fam36, reps36), r"subgroup index must be s \+ 1"),
        "construction_sets Spence, index s + 1": (
            lambda: construction_sets(fam45, reps45, 0), "subgroup index must be s$"),
        "construction_sets Spence, p = 2": (
            lambda: construction_sets(fam16, reps16, 0), r"works over GF\(3\)"),
        **{f"construction_sets slot {m!r}": (lambda m=m: construction_sets(fam36, reps36, m), slot)
           for m in (-1, 4, 1.5, True)},
        **{f"spence_construct slot {m!r}": (lambda m=m: spence_construct(G36, fam36, reps36, m),
                                            slot) for m in (1.5, True)},
        **{f"mcfarland_construct assignment {a}": (
            lambda a=a: mcfarland_construct(G45, fam45, reps45, a), "assignment must injectively")
           for a in ([1.5, 2, 3, 4], [True, 2, 3, 4])},
    }


@pytest.mark.parametrize("case", sorted(_builder_rejections()))
def test_the_builder_rejects_what_its_fronts_once_took(case):
    """Every front checks its slot, index and assignment in the builder's
    one scope, and raises ValueError: never a silent set of the wrong
    construction, an IndexError or a TypeError."""
    call, message = _builder_rejections()[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_construction_sets_in_z4z4(z4z4):
    """Every McFarland set over the Klein four subgroup of Z4^2 is a
    (16,6,2,4) difference set, and the linked triple's first member is one."""
    G = z4z4
    E = subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")])
    fam = hyperplanes(E, 2, (G.element("x1^2"), G.element("x2^2")))
    rows = construction_sets(fam, coset_transversal(G, E).reps)
    assert rows.shape == (4 * 3 * 2 * 2 ** 3, 6)
    assert all(p is not None and p.as_tuple() == (16, 6, 2, 4)
               for p in difference_set_params(G, rows))
    assert tuple(linked_triple_z4z4()[1][0]) in {tuple(r) for r in rows.tolist()}


def _basis3(G, E):
    basis, span = [], {0}
    for a in E.elements:
        if a not in span:
            basis.append(a)
            span = {G.mul(x, G.power(a, e)) for x in span for e in range(3)}
    return tuple(basis)

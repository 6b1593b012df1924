import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from linkset.designs import hyperplanes
from linkset.groups import (
    CosetTransversal,
    FiniteGroup,
    Subgroup,
    _independent_basis,
    _span_table,
    _word_names,
    abelian_invariants,
    abelian_rank,
    center,
    coset_transversal,
    direct_product,
    exponent,
    find_central_elementary_abelian,
    group_from_spec,
    is_central,
    is_normal,
    make_abelian,
    make_dihedral8,
    make_quaternion8,
    quotient,
    subgroup_generated,
)

SMALL_GROUPS = [
    make_abelian([4, 4]),
    make_abelian([8, 2]),
    make_abelian([3, 3, 5]),
    make_dihedral8(),
    make_quaternion8(),
    direct_product(make_dihedral8(), make_abelian([2])),
]


def test_make_abelian_orders():
    assert make_abelian([4, 4]).order == 16
    G = make_abelian([2, 2])
    assert sum(1 for a in G.elements() if G.element_order(a) == 2) == 3
    G = make_abelian([8, 2])
    assert G.order == 16 and exponent(G) == 8


def test_make_abelian_trivial():
    T = make_abelian([])
    assert T.order == 1 and T.names == ["1"]


def test_make_abelian_bad_factor():
    with pytest.raises(ValueError):
        make_abelian([4, 1])


def test_dihedral_structure():
    D4 = make_dihedral8()
    Z = center(D4)
    assert Z.elements == (0, D4.element("a^2"))
    assert sum(1 for a in D4.elements() if D4.element_order(a) == 4) == 2
    assert not D4.abelian
    # defining relations
    a, b = D4.element("a"), D4.element("b")
    assert D4.power(a, 4) == 0 and D4.power(b, 2) == 0
    assert D4.mul(D4.mul(b, a), D4.inv(b)) == D4.inv(a)


def test_quaternion_structure():
    Q8 = make_quaternion8()
    assert sum(1 for a in Q8.elements() if Q8.element_order(a) == 2) == 1
    a, b = Q8.element("a"), Q8.element("b")
    assert Q8.mul(b, b) == Q8.mul(a, a)
    assert Q8.mul(Q8.mul(b, a), Q8.inv(b)) == Q8.inv(a)


def test_direct_product():
    D4 = make_dihedral8()
    G = direct_product(D4, make_abelian([2]))
    assert G.order == 16 and not G.abelian
    H = direct_product(make_abelian([4]), make_abelian([2, 2]))
    assert H.order == 16 and H.abelian and exponent(H) == 4
    T = make_abelian([])
    P = direct_product(T, make_abelian([4, 4]))
    base = make_abelian([4, 4])
    assert P.order == base.order
    assert sorted(P.element_order(x) for x in P.elements()) == \
        sorted(base.element_order(x) for x in base.elements())


def test_inverse_antihomomorphism():
    for G in SMALL_GROUPS:
        for g in G.elements():
            for h in G.elements():
                assert G.inv(G.mul(g, h)) == G.mul(G.inv(h), G.inv(g))


@pytest.mark.parametrize("spec", ["D4", "Q8", {"product": ["D4", {"abelian": [4]}]},
                                  {"product": ["Q8", {"abelian": [2]}]}])
def test_inverse_table_agrees_with_brute_force(spec):
    """The inverse table (the position of id 0 in each row) against a search
    of every product, in nonabelian groups."""
    G = group_from_spec(spec)
    assert not G.abelian and G.inv_table.dtype == np.int32
    for g in G.elements():
        assert [h for h in G.elements() if G.mul(g, h) == 0 == G.mul(h, g)] == [G.inv(g)]


def test_center_exponent_rank():
    assert exponent(make_abelian([4, 2, 2, 2, 2])) == 4
    G = direct_product(make_dihedral8(), make_abelian([2, 2]))
    assert center(G).order == 8
    assert abelian_rank(make_abelian([4, 4, 2, 2])) == 4
    with pytest.raises(ValueError):
        abelian_rank(make_dihedral8())


def test_abelian_invariants():
    assert abelian_invariants(make_abelian([4, 2, 2])) == (4, 2, 2)
    assert abelian_invariants(make_abelian([2, 4, 2])) == (4, 2, 2)
    G = make_abelian([4, 4])
    Q, _ = quotient(G, subgroup_generated(G, []))
    # quotient by the trivial subgroup: an isomorphic copy
    assert abelian_invariants(Q) == (4, 4)


def test_subgroup_generated_and_central():
    G = make_abelian([4, 4])
    E = subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")])
    assert E.order == 4
    D4 = make_dihedral8()
    assert is_central(D4, subgroup_generated(D4, [D4.element("a^2")]))
    assert not is_central(D4, subgroup_generated(D4, [D4.element("a")]))


def _mixed_radix_reference(factors):
    """make_abelian's group written out id by id: id a has exponents
    e_1..e_r in mixed radix (factor 1 most significant), products add
    exponents mod each factor, names are generator words."""
    v = int(np.prod(factors, dtype=np.int64))
    weights = [int(np.prod(factors[i + 1:], dtype=np.int64)) for i in range(len(factors))]
    exps = np.array([[a // w % n for n, w in zip(factors, weights)] for a in range(v)],
                    dtype=np.int64).reshape(v, len(factors))
    ids = exps @ np.array(weights, dtype=np.int64)
    assert (ids == np.arange(v)).all()
    names = []
    for row in exps.tolist():
        word = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(row) if e]
        names.append("*".join(word) or "1")
    inverse = ((-exps) % np.array(factors, dtype=np.int64)) @ np.array(weights, dtype=np.int64)
    gens = [(f"x{i + 1}", w) for i, w in enumerate(weights)]
    return v, exps, np.array(weights, dtype=np.int64), names, inverse, gens


@pytest.mark.parametrize("factors", [[], [2], [8, 2], [3, 3, 5], [13, 4], [4] * 5, [64, 64]])
def test_make_abelian_matches_a_mixed_radix_reference(factors):
    v, exps, weights, names, inverse, gens = _mixed_radix_reference(factors)
    G = make_abelian(factors)
    assert G.order == v and G.table.dtype == np.int32
    # the reference table a block of rows at a time (64 MB at order 4096 whole)
    for start in range(0, v, 256):
        block = exps[start:start + 256, None, :] + exps[None, :, :]
        want = (block % np.array(factors, dtype=np.int64)) @ weights
        assert np.array_equal(G.table[start:start + 256], want)
    assert np.array_equal(G.inv_table, inverse)
    assert G.names == names
    assert G.generators == gens
    assert G.spec == {"abelian": factors} and G.cyclic_factors == tuple(factors)
    assert G.abelian


def test_subgroup_validation():
    G = make_abelian([4, 4])
    with pytest.raises(ValueError, match="closed under inverses"):
        Subgroup(G, (0, G.element("x1")))
    with pytest.raises(ValueError, match="contain the identity"):
        Subgroup(G, (G.element("x1^2"),))
    with pytest.raises(ValueError, match="closed under products"):
        Subgroup(G, (0, G.element("x1^2"), G.element("x2^2")))
    Z8 = make_abelian([8])
    # the first element in id order that fails names the failure: 2 * 2 = 4
    # is missing before the inverse of 3 (5) is
    with pytest.raises(ValueError, match="closed under products"):
        Subgroup(Z8, (0, 2, 6, 3))
    with pytest.raises(ValueError, match="closed under inverses"):
        Subgroup(Z8, (0, 1, 2))
    assert Subgroup(Z8, (6, 0, 4, 2)).elements == (0, 2, 4, 6)


def test_quotients():
    D4 = make_dihedral8()
    Q, proj = quotient(D4, subgroup_generated(D4, [D4.element("a^2")]))
    assert Q.order == 4 and exponent(Q) == 2  # Klein four-group
    G = make_abelian([4, 4])
    Q2, _ = quotient(G, subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")]))
    assert Q2.order == 4 and exponent(Q2) == 2
    Q3, _ = quotient(G, Subgroup(G, tuple(G.elements())))
    assert Q3.order == 1
    with pytest.raises(ValueError):
        quotient(D4, subgroup_generated(D4, [D4.element("b")]))  # not normal


def test_is_normal_matches_the_scalar_definition():
    """The table gather agrees with g h g^(-1) in N, one product at a time,
    on D4's rotation subgroup (normal) and a reflection subgroup (not)."""
    D4 = make_dihedral8()
    rotations = subgroup_generated(D4, [D4.element("a")])
    reflection = subgroup_generated(D4, [D4.element("b")])
    for N, normal in ((rotations, True), (reflection, False)):
        scalar = all(D4.mul(D4.mul(g, h), D4.inv(g)) in N.elements
                     for g in D4.elements() for h in N.elements)
        assert is_normal(D4, N) is scalar is normal
    quotient(D4, rotations)
    with pytest.raises(ValueError, match="not normal"):
        quotient(D4, reflection)


def _left_cosets(G, H):
    """The left cosets {a h : h in H}, sorted by minimal element (from the definition)."""
    return sorted({frozenset(G.mul(a, h) for h in H.elements) for a in G.elements()}, key=min)


def test_projection_is_homomorphism():
    D4Z2 = direct_product(make_dihedral8(), make_abelian([2]))
    Q8Z2 = direct_product(make_quaternion8(), make_abelian([2]))
    cases = [
        (make_abelian([8, 2]), ["x1^4", "x2"]),
        (make_abelian([4, 4]), ["x1^2", "x2^2"]),
        (D4Z2, ["a^2", "x1"]),
        (D4Z2, ["a"]),
        (D4Z2, ["a^2", "b"]),
        (Q8Z2, ["b"]),
        (Q8Z2, ["a^2", "x1"]),
        (Q8Z2, ["a*b*x1"]),
    ]
    for G, gen_words in cases:
        N = subgroup_generated(G, [G.element(w) for w in gen_words])
        Q, proj = quotient(G, N)
        for g in G.elements():
            for h in G.elements():
                assert proj[G.mul(g, h)] == Q.mul(proj[g], proj[h])
        # cosets numbered by increasing minimal element; names from the minima
        cosets = _left_cosets(G, N)
        assert [proj[g] for g in G.elements()] == [
            next(i for i, c in enumerate(cosets) if g in c) for g in G.elements()]
        assert Q.names == [G.name(min(c)) for c in cosets]


def test_coset_transversal():
    G = make_abelian([4, 4])
    E = subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")])
    trans = coset_transversal(G, E)
    assert len(trans.reps) == 4 and trans.reps[0] == 0
    full = coset_transversal(G, Subgroup(G, tuple(G.elements())))
    assert full.reps == (0,)
    G45 = make_abelian([3, 3, 5])
    E9 = subgroup_generated(G45, [G45.element("x1"), G45.element("x2")])
    assert len(coset_transversal(G45, E9).reps) == 5
    # partition property
    covered = set()
    t = coset_transversal(G45, E9)
    for r in t.reps:
        coset = {G45.mul(r, h) for h in E9.elements}
        assert not (covered & coset)
        covered |= coset
    assert len(covered) == G45.order
    # nonabelian groups and non-normal subgroups: the minima of the left
    # cosets, and inside a central E the minima of the cosets of H <= E
    for G in (direct_product(make_dihedral8(), make_abelian([2])),
              direct_product(make_quaternion8(), make_abelian([2]))):
        E = subgroup_generated(G, [G.element("a^2"), G.element("x1")])
        for gen_words in (["b"], ["a*b"], ["b", "x1"], ["a*b*x1"], ["a"], ["a^2"], ["x1"]):
            H = subgroup_generated(G, [G.element(w) for w in gen_words])
            reps = coset_transversal(G, H).reps
            assert reps == tuple(min(c) for c in _left_cosets(G, H))
            if set(H.elements) <= set(E.elements):
                assert [r for r in reps if r in E] == sorted(
                    {min(G.mul(a, h) for h in H.elements) for a in E.elements})


def test_transversal_validation():
    G = make_abelian([4, 4])
    E = subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")])
    with pytest.raises(ValueError):
        CosetTransversal(E, (0, G.element("x1^2")))  # overlapping cosets


def test_find_central_elementary_abelian():
    G = make_abelian([4, 4])
    found = find_central_elementary_abelian(G, 2)
    target = subgroup_generated(G, [G.element("x1^2"), G.element("x2^2")])
    assert any(s.elements == target.elements for s in found)

    GK = direct_product(make_dihedral8(), make_abelian([2]))
    a2 = GK.element("a^2")
    x1 = GK.element("x1")
    target = subgroup_generated(GK, [a2, x1])
    found = [s.elements for s in find_central_elementary_abelian(GK, 2)]
    assert target.elements in found

    G82 = make_abelian([8, 2])
    target = subgroup_generated(G82, [G82.element("x1^4"), G82.element("x2")])
    found = [s.elements for s in find_central_elementary_abelian(G82, 2)]
    assert found == [target.elements]  # the unique one


def test_group_from_spec_round_trip():
    for spec in ["D4", "Q8", {"abelian": [4, 4]},
                 {"product": ["D4", {"abelian": [2]}]}]:
        G = group_from_spec(spec)
        again = group_from_spec(G.spec)
        assert np.array_equal(G.table, again.table)
    with pytest.raises(ValueError):
        group_from_spec({"weird": 1})


@pytest.mark.parametrize("factors", [["D4", "D4"], ["Q8", "D4"], ["Q8", "Q8"]])
def test_products_of_nonabelian_factors_build(factors):
    """Both factors name their generators a, b: the second factor's become
    a2, b2, the names stay distinct and each parses back to its element,
    through the name table and through the generator-word parser."""
    G = group_from_spec({"product": factors})
    assert G.order == 64 and len(set(G.names)) == 64
    assert [g for g, _ in G.generators] == ["a", "b", "a2", "b2"]
    for i, name in enumerate(G.names):
        assert G.element(name) == i
        assert G.element(" * ".join(name.split("*"))) == i
    assert group_from_spec(G.spec).names == G.names
    # the first factor's names are kept
    assert [G.names[8 * a] for a in range(8)] == group_from_spec(factors[0]).names


def _product(a, b):
    return {"product": [a, b]}


# the SHA-256 of each group's names and generators (as JSON) and its int32
# table: certificates and golden digests name elements by these names, so
# the bytes must not move
NAMING_PINS = [
    ({"abelian": []}, "c002459f24f896e60ad9abacd7dc8b7d0dee1f4ff2e5ac08c0cb6384d2430d0c"),
    ({"abelian": [2]}, "b7de6d3398a37c314868476547e1bc9c88443bed680772834a61dbc291592ac0"),
    ({"abelian": [4, 4]}, "069ce5feddf9ae76c4f539e83119b6d15c13d231da491d6df9333bbc4e7e3039"),
    ({"abelian": [4, 2, 2]}, "acba3c8ce249cc301ddbd2a939940f8c2aadc124d90d762dccf375ba562ed138"),
    ({"abelian": [8, 2]}, "55cb98d5290441d29eb2f1d7d3c1acf7fc183d60dcb2da0e3d82b2453e148aac"),
    ({"abelian": [4] * 5}, "8bbc15dc1328c194c1487f874ed47dd0ecae81c75f54b145066aa77aa5ada938"),
    ({"abelian": [2] * 12}, "c3f4c53c9e343011843c457b882a169ef87da20b034a84d1551be07bf6f43260"),
    ({"abelian": [16, 16, 16]}, "6534a8a6056d91ed84db6b518e5efc7db588e6d591b344e925d365e32e170276"),
    ("D4", "398d0605a37afc2f288e82d3c96bfd8a4126ba931a4fa29e76a5d63f5aa8ca86"),
    ("Q8", "f786268b29624ff5a07adb3b71f3d7be13d1579cf65b481662b2e445473043c7"),
    (_product("D4", "D4"), "057ae234c9a0b01861df748de86f54e827405b3490d3166b8be800f17bed2a72"),
    (_product(_product("D4", "D4"), "D4"),
     "21ba879ea8592bb880f1bf4467f8f36828da46bd1c5d0d7cb3becc12fc3f2f02"),
    (_product("Q8", "Q8"), "52fd8a9efcc728ab7362546d983d43747bd1282cd6c83af8f0c012edc586c39e"),
    (_product("D4", _product("Q8", "D4")),
     "56f2dfd89ef38da1350fc834b87c8ac8604a3eebfe6babc1b8b3a51c53c0fa4b"),
    (_product("Q8", {"abelian": [4, 2]}),
     "54e33b9f158cfd80e08c3764d76d6ec5defd497b161f8965981369d9b7a7c84c"),
    (_product("D4", {"abelian": [4, 4, 4, 4, 2]}),
     "43c810cd5b825fd5818ccf056f806bf39133a299abe434798a2cbd9b8d4f03d7"),
    ({"abelian": [3, 5]}, "676349774363ad4cc09b3990417c2025f23ee12844aecb865685a297b7bcf4b8"),
]


@pytest.mark.parametrize("spec,digest", NAMING_PINS, ids=[json.dumps(s) for s, _ in NAMING_PINS])
def test_every_constructor_names_its_group_by_one_rule(spec, digest):
    """``make_abelian``, D4, Q8 and ``direct_product`` name their groups by
    ``groups._word_names`` and keep their names, generators and tables byte
    for byte, and every name is the word of its id: multiplied out through
    the generators' powers, not looked up in the name table."""
    G = group_from_spec(spec)
    h = hashlib.sha256(json.dumps([G.names, G.generators]).encode())
    h.update(G.table.tobytes())
    assert h.hexdigest() == digest
    gens = dict(G.generators)
    for x, name in enumerate(G.names):
        word = 0
        for token in name.split("*") if name != "1" else []:
            base, _, e = token.partition("^")
            word = int(G.table[word, G.power(gens[base], int(e or 1))])
        assert word == x, name


def test_direct_product_takes_only_groups_named_by_the_rule():
    """A factor whose names do not follow the rule is a ValueError up front,
    in either place, where parsing its names once raised KeyError: a
    quotient (its generators c1, c2, ... are every coset, no place values),
    a table given no generators, and a table whose ids are the words of
    normal-form generators but whose names differ from the rule's."""
    Z2, Z4 = make_abelian([2]), make_abelian([4])
    G = make_abelian([4, 4])
    factors = [quotient(G, subgroup_generated(G, [G.element("x1^2")]))[0],
               FiniteGroup(Z2.table, Z2.names, [], "bare"),
               FiniteGroup(Z4.table, Z4.names, [("x1", 1), ("x2", 2)], "Z4 over x1, x2")]
    for F in factors:
        for pair in [(F, Z2), (Z2, F)]:
            with pytest.raises(ValueError, match="place values|words of the generators"):
                direct_product(*pair)
    # the words are joined in list order and must multiply out to their ids:
    # in D4 the id i + 4j is a^i b^j, and b a is not a b
    D4 = make_dihedral8()
    assert _word_names(D4.table, D4.generators) == D4.names
    assert D4.names[5] == "a*b"
    with pytest.raises(ValueError, match="words of the generators"):
        _word_names(D4.table, D4.generators[::-1])
    # a generator id of 0 or past the order is no place value
    for gens in ([("x1", 0)], [("x1", 1), ("x2", 8)]):
        with pytest.raises(ValueError, match="no place values"):
            _word_names(Z4.table, gens)


def test_group_from_spec_rejects_malformed_factors():
    """A spec's factors are a list, each let in by make_abelian's door."""
    for factors in ["44", (4, 4), 4]:
        with pytest.raises(ValueError, match="list of integers"):
            group_from_spec({"abelian": factors})
    for factors in [[4, 4.5], [4, 4.0], [4, "4"], [True, 4]]:
        with pytest.raises(ValueError, match=r"^cyclic factor .+ is not an integer$"):
            group_from_spec({"abelian": factors})
    with pytest.raises(ValueError, match="cyclic factor 4.5 is not an integer"):
        group_from_spec({"product": [{"abelian": [4, 4.5]}, "D4"]})


@pytest.mark.parametrize("spec", [
    {"abelian": [8192]},
    {"abelian": [64, 128]},
    {"product": [{"abelian": [64]}, {"abelian": [128]}]},
    {"product": ["D4", {"abelian": [1024]}]},
    {"abelian": [2] * 60},
    {"abelian": [10 ** 12]},
    {"product": [{"abelian": [1024]}, {"abelian": [1024]}]},
])
def test_orders_past_the_table_limit_are_rejected_before_allocating(spec):
    """Orders past MAX_TABLE_ORDER = 4096 (8192, and far past it) raise
    ValueError before any v x v table or v-row array is allocated."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds table limit 4096"):
            group_from_spec(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only the factor groups are built (a 1024-element one peaks at about
    # 17 MB); an 8192 x 8192 int32 table alone would be 256 MB
    assert peak < 32 * 2 ** 20


def test_make_abelian_stops_its_product_past_the_table_limit():
    """A million factors of 2 stop at the first partial product past the
    limit, 8192, and the message names that order: the product of them all
    is never formed, so neither is a number too long to print."""
    with pytest.raises(ValueError, match="^group order 8192 exceeds table limit 4096$"):
        make_abelian([2] * 10 ** 6)


def test_element_name_round_trip():
    for G in SMALL_GROUPS:
        for a in G.elements():
            assert G.element(G.name(a)) == a
    G = make_abelian([4, 4])
    assert G.element("x1^-1") == G.inv(G.element("x1"))
    with pytest.raises(ValueError):
        G.element("z9")


def test_names_by_table_with_the_parser_on_a_miss():
    from linkset import io as lio

    for G in SMALL_GROUPS:
        ids = list(G.elements())
        assert G.name_array[ids].tolist() == [G.name(a) for a in ids]
        assert G.element_ids(G.names) == ids
    G = make_abelian([4, 4])
    words = ["x2", "x1*x1", "x1^-1*x2", "1"]  # equivalent words, not table names
    assert G.element_ids(words) == [G.element(w) for w in words]
    assert lio.names_to_set(G, words) == tuple(sorted(G.element(w) for w in words))
    assert lio.set_to_names(G, (5, 0, 3)) == [G.name(0), G.name(3), G.name(5)]
    with pytest.raises(ValueError):
        G.element_ids(["x1", "z9"])


@pytest.mark.parametrize("rows,message", [
    ([[1, 2, 0], [2, 0, 1], [0, 1, 2]], "not a left identity"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "not a right identity"),
    ([[0, 1, 2], [1, 2, 2], [2, 0, 1]], "row is not a permutation"),
    ([[0, 1, 2], [1, 2, 3], [2, 0, 1]], "row is not a permutation"),
    ([[0, 1, 2], [1, -1, 0], [2, 0, 1]], "row is not a permutation"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column is not a permutation"),
    # symmetric, so its columns are its rows and only the rows are scanned
    ([[0, 1, 2], [1, 1, 0], [2, 0, 2]], "row is not a permutation"),
])
def test_table_validation(rows, message):
    with pytest.raises(ValueError, match=message):
        FiniteGroup(np.array(rows), ["1", "a", "b"], [], "bad")
    assert FiniteGroup(np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
                       ["1", "a", "b"], [], "Z3").abelian


def _last_block_defects():
    """(name, table, message) for order-512 tables, past one block of
    SCRATCH_BYTES in every scan, whose only defect lies in the last block
    of the scan that must find it."""
    from linkset.groups import SCRATCH_BYTES

    abelian = make_abelian([4, 4, 4, 4, 2]).table.copy()
    nonabelian = direct_product(make_dihedral8(), make_abelian([4, 4, 4])).table.copy()
    v = len(abelian)
    assert v == 512 and abelian.nbytes > SCRATCH_BYTES
    row = abelian.copy()
    row[v - 1, v - 1] = row[v - 1, v - 2]  # a repeated entry in the last row
    yield "row", row, "row is not a permutation"
    column = nonabelian.copy()  # two entries of the last row swapped: the row
    column[v - 1, [v - 2, v - 1]] = column[v - 1, [v - 1, v - 2]]  # stays a permutation
    yield "column", column, "column is not a permutation"


def test_table_checks_find_a_defect_in_the_last_block():
    """The row and column scans run in blocks of at most SCRATCH_BYTES and
    still find a defect in the last block, with the same messages; the
    abelian test compares tiles against their mirrors and finds a single
    non-commuting pair in an off-diagonal tile."""
    from linkset.groups import SCRATCH_BYTES, _commutes

    names = [str(a) for a in range(512)]
    for name, table, message in _last_block_defects():
        with pytest.raises(ValueError, match=message):
            FiniteGroup(table, names, [], name)
    table = make_abelian([4, 4, 4, 4, 2]).table.copy()
    assert _commutes(table) and FiniteGroup(table, names, [], "Z4^4xZ2").abelian
    side = math.isqrt(SCRATCH_BYTES // table.itemsize)
    assert side < len(table)
    for a, b in ((len(table) - 1, 1), (1, len(table) - 1), (side - 1, side)):
        odd = table.copy()
        odd[a, b] = odd[a, b - 1]  # table[a, b] != table[b, a], and nothing else
        assert not _commutes(odd)
    assert not direct_product(make_dihedral8(), make_abelian([4, 4, 4])).abelian


def test_make_abelian_peaks_near_its_table():
    """make_abelian([4]*6), a 64 MiB table, traces a peak below 1.5 times
    its table: the checks hold no v x v temporary."""
    import tracemalloc

    tracemalloc.start()
    try:
        G = make_abelian([4] * 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order == 4096 and G.abelian
    assert peak < 1.5 * G.table.nbytes


def test_product_table_writes_into_its_result():
    """make_abelian([2]*10) traces a peak of at most 1.3 times its 4 MiB
    table: ``_product_table`` writes each product into one preallocated
    array, with no temporary the size of its first factor's table (the
    broadcast sum peaked at 1.52 times).  The table is a XOR b."""
    import tracemalloc

    tracemalloc.start()
    try:
        G = make_abelian([2] * 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ids = np.arange(G.order)
    assert np.array_equal(G.table, ids[:, None] ^ ids)
    assert peak <= 1.3 * G.table.nbytes


# -- the table gathers against scalar references ----------------------------------
#
# element_orders, exponent, abelian_invariants, subgroup_generated, the span
# helpers and hyperplanes are table gathers; the references below are the
# element-by-element loops they replace, over scalar products.


def _scalar_power(G, a, e):
    x = 0
    for _ in range(e):
        x = G.mul(x, a)
    return x


def _scalar_order(G, a):
    k, x = 1, a
    while x != 0:
        x = G.mul(x, a)
        k += 1
    return k


def _cyclic_orders(factors):
    """The order of every id of make_abelian(factors): the lcm over the
    factors n of n / gcd(e, n), for the exponents e of the id."""
    v = math.prod(factors)
    out = []
    for a in range(v):
        exps = []
        for n in reversed(factors):
            a, e = divmod(a, n)
            exps.append(e)
        out.append(math.lcm(*(n // math.gcd(e, n) for n, e in zip(reversed(factors), exps))))
    return out


def _primary_parts(factors):
    """The invariants of Z_n1 x ... x Z_nr: each n split into its prime
    powers, sorted descending."""
    out = []
    for n in factors:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return tuple(sorted(out, reverse=True))


def _scalar_closure(G, gens):
    closure, frontier = {0}, [0]
    while frontier:
        a = frontier.pop()
        for g in gens:
            for b in (G.mul(a, g), G.mul(g, a)):
                if b not in closure:
                    closure.add(b)
                    frontier.append(b)
    return tuple(sorted(closure))


def _scalar_span(G, basis, orders):
    if isinstance(orders, int):
        orders = [orders] * len(basis)
    span = []
    for vec in itertools.product(*map(range, orders)):
        x = 0
        for b, e in zip(basis, vec):
            x = G.mul(x, _scalar_power(G, b, e))
        span.append(x)
    return span


def _scalar_basis(G, torsion, p):
    basis, spanned = [], {0}
    for a in sorted(torsion):
        if a not in spanned:
            basis.append(a)
            spanned = {G.mul(x, _scalar_power(G, a, e)) for x in spanned for e in range(p)}
    return basis


def _scalar_hyperplanes(G, E, basis, p):
    coords = dict(zip(_scalar_span(G, basis, p), itertools.product(range(p), repeat=len(basis))))
    kernels = []
    for func in itertools.product(range(p), repeat=len(basis)):
        if next((f for f in func if f), None) == 1:
            kernels.append(tuple(sorted(
                a for a in E.elements if sum(f * c for f, c in zip(func, coords[a])) % p == 0)))
    return kernels


ABELIAN_REFERENCE = [[], [2], [4, 2], [8, 4, 2], [3, 3, 4], [12, 6], [9, 3, 5], [16, 16],
                     [4] * 5, [64, 64], [2] * 12, [16, 16, 16], [4096]]


def _quotient_group():
    """(D4 x Z4) / <a^2>: abelian of type (4, 2, 2), not built from cyclic factors."""
    G = direct_product(make_dihedral8(), make_abelian([4]))
    return quotient(G, subgroup_generated(G, [G.element("a^2")]))[0]


NONCYCLIC_REFERENCE = SMALL_GROUPS + [_quotient_group()]


@pytest.mark.parametrize("factors", ABELIAN_REFERENCE, ids=str)
def test_element_orders_of_abelian_groups_match_the_exponent_formula(factors):
    G = make_abelian(factors)
    orders = G.element_orders
    assert orders.dtype == np.int64 and orders.tolist() == _cyclic_orders(factors)
    assert exponent(G) == math.lcm(*factors)
    assert abelian_invariants(G) == _primary_parts(factors)
    assert G.element_order(G.order - 1) == orders[-1]


@pytest.mark.parametrize("G", NONCYCLIC_REFERENCE, ids=repr)
def test_element_orders_match_the_scalar_power_loop(G):
    want = [_scalar_order(G, a) for a in G.elements()]
    assert G.element_orders.tolist() == want
    assert exponent(G) == math.lcm(*want)
    assert [G.power(a, 3) for a in G.elements()] == [_scalar_power(G, a, 3) for a in G.elements()]
    # random exponents, negative ones included, against e mod ord(a) products
    rng = random.Random(G.order)
    for a, e in [(rng.randrange(G.order), rng.randint(-50, 50)) for _ in range(40)]:
        assert G.power(a, e) == _scalar_power(G, a, e % want[a])


class _CountingTable:
    """A group table that counts its lookups."""

    def __init__(self, table):
        self.table, self.lookups = table, 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.table[key]


def test_power_takes_two_lookups_per_bit():
    """x1^4095 in Z4096 is 24 table lookups, a product and a squaring per
    bit of 4095, where one product per unit of exponent took 4,095."""
    G = make_abelian([4096])
    G.table = _CountingTable(G.table)
    assert G.power(1, 4095) == 4095 and G.table.lookups == 24
    # a word the name dict does not hold goes through power: 26 lookups for
    # the 13 bits of 8191, one for the product into the word
    G.table.lookups = 0
    assert G.element("x1^8191") == 4095 and G.table.lookups == 27
    G.table.lookups = 0
    assert G.element("x1^-1") == 4095 and G.table.lookups == 3


@pytest.mark.parametrize("e", [True, False, np.True_, 1.5, 2.0, "2", None, [2], np.float64(2)])
def test_power_rejects_an_exponent_that_is_no_integer(e):
    """``power`` takes an int or a numpy integer exponent; a bool (read as
    1 or 0), a float or a string raises ValueError, not a silent power or
    a TypeError from the ladder."""
    G = make_abelian([4, 4])
    with pytest.raises(ValueError, match="exponent"):
        G.power(1, e)


def test_power_takes_int_and_numpy_integer_exponents():
    G = make_abelian([4, 4])
    x1 = G.element("x1")
    assert [G.power(x1, e) for e in (0, 1, 2, 3, 4, -1)] == [0, x1, *(G.element(w) for w in (
        "x1^2", "x1^3")), 0, G.element("x1^3")]
    assert [G.power(x1, e) for e in (np.int64(-3), np.uint8(6), np.int32(2**31 - 1))] == [
        x1, G.element("x1^2"), G.element("x1^3")]


def _ladder_orders(G):
    """Element orders by the step-by-step power ladder: step k gathers
    a^k = a^(k-1) a for the elements whose order is not yet known."""
    orders = np.ones(G.order, dtype=np.int64)
    live = powers = np.arange(1, G.order)
    k = 1
    while live.size:
        k += 1
        powers = G.table[powers, live]
        done = powers == 0
        orders[live[done]] = k
        live, powers = live[~done], powers[~done]
    return orders


ORDER_LADDER_GROUPS = {
    "Z4096": lambda: make_abelian([4096]),
    "Z3^2xZ5": lambda: make_abelian([3, 3, 5]),
    "D4xZ2": lambda: direct_product(make_dihedral8(), make_abelian([2])),
    "Q8xZ4": lambda: direct_product(make_quaternion8(), make_abelian([4])),
}


@pytest.mark.parametrize("name", sorted(ORDER_LADDER_GROUPS))
def test_element_orders_match_the_power_ladder(name):
    """element_orders squares its way up each prime power of |G|: a few
    dozen table gathers on Z4096, where the step-by-step ladder takes 4,095."""
    G = ORDER_LADDER_GROUPS[name]()
    want = _ladder_orders(G)
    G.table = _CountingTable(G.table)
    assert G.element_orders.tolist() == want.tolist()
    assert G.table.lookups <= 40


def test_abelian_invariants_of_a_quotient():
    Q = _quotient_group()
    assert Q.cyclic_factors is None and abelian_invariants(Q) == (4, 2, 2)
    assert abelian_rank(Q) == 3


def test_trivial_group_has_rank_zero():
    T = make_abelian([])
    assert abelian_invariants(T) == () and abelian_rank(T) == 0 and exponent(T) == 1


@pytest.mark.parametrize("G", NONCYCLIC_REFERENCE + [make_abelian([4, 2, 2, 2]),
                                                     make_abelian([8, 4, 3])], ids=repr)
def test_subgroup_generated_matches_the_scalar_closure(G):
    rng = random.Random(G.order)
    for size in (0, 1, 1, 2, 2, 3):
        gens = rng.sample(range(G.order), size)
        assert subgroup_generated(G, gens).elements == _scalar_closure(G, gens)


SPAN_CASES = [(make_abelian([4, 4, 2]), 2), (make_abelian([2] * 6), 2),
              (make_abelian([3, 3, 4]), 3), (make_abelian([9, 3, 3]), 3),
              (direct_product(make_dihedral8(), make_abelian([2, 2])), 2),
              (direct_product(make_quaternion8(), make_abelian([4])), 2)]


@pytest.mark.parametrize("G, p", SPAN_CASES, ids=str)
def test_span_helpers_and_hyperplanes_match_scalar_references(G, p):
    torsion = [a for a in center(G).elements if _scalar_power(G, a, p) == 0]
    basis = _independent_basis(G, torsion, p)
    assert basis == _scalar_basis(G, torsion, p) and len(basis) >= 2
    assert _span_table(G, basis, p).tolist() == _scalar_span(G, basis, p)
    # a basis out of id order spans the same elements in another order
    assert _span_table(G, basis[::-1], p).tolist() == _scalar_span(G, basis[::-1], p)
    # an order per generator: G's generators, last first, each with its own order
    gens = [g for _, g in G.generators]
    orders = G.element_orders[gens[::-1]].tolist()
    assert _span_table(G, gens[::-1], orders).tolist() == _scalar_span(G, gens[::-1], orders)
    if G.cyclic_factors is not None:  # over its factors the span is the id encoding
        assert _span_table(G, gens, G.cyclic_factors).tolist() == list(range(G.order))
    E = subgroup_generated(G, basis)
    for order in (basis, basis[::-1]):
        family = hyperplanes(E, p, order)
        assert [H.elements for H in family.members] == _scalar_hyperplanes(G, E, order, p)
    assert hyperplanes(E, p).basis == tuple(basis)  # E is the torsion: the same greedy basis
    # every central Z_p^2: the distinct closures of two torsion elements that have order p^2
    pairs = {_scalar_closure(G, pair) for pair in itertools.combinations(torsion, 2)}
    assert [H.elements for H in find_central_elementary_abelian(G, 2, p=p)] == sorted(
        H for H in pairs if len(H) == p * p)


def _id_entries():
    """Each public entry that takes element ids, as (G, the id x that makes
    its input valid, a call with x in one place of an id): the scalar
    accessors of a group, the sets of the group ring, designs and linking
    layers, the subgroup layer, the hyperplane constructions and the
    difference-matrix layer."""
    from linkset import group_ring as rg
    from linkset.designs import (
        construction_sets,
        is_difference_set,
        mcfarland_construct,
        spence_construct,
    )
    from linkset.diffmat import DifferenceMatrix, linked_from_dm, witness_direct
    from linkset.io import set_to_names
    from linkset.linking import verify_reduced
    from linkset.worked_examples import linked_triple_z4z4, triple_dm_data

    G, sets = linked_triple_z4z4()
    E, family, bmat, lifts = triple_dm_data(G)
    reps = list(coset_transversal(G, E).reps)
    G3 = make_abelian([3, 3, 2, 2])
    E3 = find_central_elementary_abelian(G3, 2, p=3)[0]
    family3 = hyperplanes(E3, 3)
    reps3 = list(coset_transversal(G3, E3).reps)
    V4 = make_abelian([2, 2])

    def put(rows, x, i=1, j=1):
        """``rows`` with row i, column j replaced by ``x``."""
        out = [list(row) for row in rows]
        out[i][j] = x
        return out

    f = [G.mul(bmat[1][c], lifts[0][c - 1]) for c in range(1, 4)]
    g = [G.mul(bmat[2][c], lifts[1][c - 1]) for c in range(1, 4)]
    return {
        "FiniteGroup.mul left": (G, 1, lambda x: G.mul(x, 1)),
        "FiniteGroup.mul right": (G, 1, lambda x: G.mul(1, x)),
        "FiniteGroup.inv": (G, 1, G.inv),
        "FiniteGroup.power": (G, 1, lambda x: G.power(x, 2)),
        "FiniteGroup.name": (G, 1, G.name),
        "FiniteGroup.element_order": (G, 1, G.element_order),
        "from_subset": (G, 1, lambda x: rg.from_subset(G, [0, x])),
        "autocorrelations": (G, 1, lambda x: rg.autocorrelations(G, [[0, x]])),
        "indicators": (G, 1, lambda x: rg.indicators(G, [[0, x], [1, 2]])),
        "is_difference_set": (G, sets[0][-1],
                              lambda x: is_difference_set(G, [*sets[0][:-1], x])),
        "verify_reduced": (G, sets[0][0], lambda x: verify_reduced(G, put(sets, x, 0, 0))),
        "Subgroup": (G, 0, lambda x: Subgroup(G, (0, x))),
        "CosetTransversal": (G, reps[-1], lambda x: CosetTransversal(E, (*reps[:-1], x))),
        "subgroup_generated": (G, 1, lambda x: subgroup_generated(G, [x])),
        "is_central": (G, 0, lambda x: is_central(G, [0, x])),
        "hyperplanes": (G, family.basis[1],
                        lambda x: hyperplanes(E, 2, (family.basis[0], x))),
        "mcfarland_construct": (G, reps[-1], lambda x: mcfarland_construct(
            G, family, [*reps[:-1], x], [1, 2, 3])),
        "spence_construct": (G3, reps3[-1], lambda x: spence_construct(
            G3, family3, [*reps3[:-1], x], 0)),
        "construction_sets": (G, reps[-1], lambda x: construction_sets(family, [*reps[:-1], x])),
        "DifferenceMatrix": (V4, 1, lambda x: DifferenceMatrix(V4, 1, put([[0] * 4, range(4)], x))),
        "linked_from_dm bmat": (G, bmat[1][1], lambda x: linked_from_dm(
            G, E, put(bmat, x), lifts, family=family)),
        "linked_from_dm lifts": (G, lifts[0][0], lambda x: linked_from_dm(
            G, E, bmat, put(lifts, x, 0, 0), family=family)),
        "witness_direct": (G, f[-1], lambda x: witness_direct(G, family, [*f[:-1], x], g)),
        "set_to_names": (G, 1, lambda x: set_to_names(G, [0, x])),
    }


ID_ENTRIES = sorted(_id_entries())


@pytest.mark.parametrize("bad", [-1, "|G|", 1.5, True, "1"], ids=str)
@pytest.mark.parametrize("entry", ID_ENTRIES)
def test_every_id_entry_rejects_what_is_no_id(entry, bad):
    """Every public entry that takes element ids lets them in through one
    door, ``groups._id_array``: an id outside 0..|G|-1 (-1 and |G|, which
    numpy would wrap round or index past) and a value that is no integer
    (a float, a bool, a string, which numpy would read as 1) raise
    ValueError naming the value, never a silent result or an IndexError."""
    G, _, call = _id_entries()[entry]
    with pytest.raises(ValueError, match=r"^element id .+ (out of range|is not an integer)"):
        call(G.order if bad == "|G|" else bad)


def test_the_id_entries_accept_their_valid_input():
    """With the valid id in the bad value's place every call of the test
    above goes through, so each rejection there is the bad value's."""
    for _, good, call in _id_entries().values():
        call(good)


def test_ids_pass_through_the_door_unchanged():
    """Good ids come out as int64 arrays of their shape, from lists, tuples,
    rows, generators and numpy arrays of any integer type, and one id (an
    int or a numpy integer) as an int; a -1 in an unsigned array and an int
    past int64 are out of range too."""
    from linkset.groups import _id_array

    G = make_abelian([4, 4])
    for ids, want in [([3, 0, 15], [3, 0, 15]), ((np.int32(2), 5), [2, 5]), ([], []),
                      ((x for x in (1, 2)), [1, 2]), ([[0, 1], (2, 3)], [[0, 1], [2, 3]]),
                      (np.array([7, 8], dtype=np.uint8), [7, 8])]:
        out = _id_array(G, ids)
        assert out.dtype == np.int64 and out.tolist() == want
    for one in (15, np.int32(3), np.uint8(0)):
        out = _id_array(G, one)
        assert type(out) is int and out == one
    for ids in (np.array([2 ** 64 - 1], dtype=np.uint64), [2 ** 70], [[0, 1], [2, True]],
                np.array([1.0]), np.array([True]), 2 ** 70, np.uint64(16), np.float64(1.0),
                np.True_, None):
        with pytest.raises(ValueError, match="element id"):
            _id_array(G, ids)


def _door_rejections():
    """Each public integer parameter that once took a float, a bool or a
    string, building something from it or failing with a TypeError, as
    name -> call."""
    from linkset.bent import BooleanFunction, enumerate_bent, kerdock_bent_set
    from linkset.designs import two_group_params
    from linkset.diffmat import (
        DifferenceMatrix,
        build_general,
        build_nonreversible,
        build_tyken,
        dm_auto,
        dm_galois_ring,
    )
    from linkset.galois import gf2_is_irreducible, irreducible_poly
    from linkset.search import census_systems

    G = make_abelian([4, 4])
    E = subgroup_generated(G, G.element_ids(["x1^2", "x2^2"]))
    rows = [[0] * 16, list(range(16))]
    return {
        "make_abelian ['4', 4]": lambda: make_abelian(["4", 4]),
        "make_abelian [4.0, 4]": lambda: make_abelian([4.0, 4]),
        "dm_auto rows 2.5": lambda: dm_auto(G, 2.5),
        "dm_auto rows True": lambda: dm_auto(G, True),
        "kerdock_bent_set True": lambda: kerdock_bent_set(True),
        "build_tyken True": lambda: build_tyken(True, make_abelian([2])),
        "build_nonreversible True": lambda: build_nonreversible(True),
        "find_central_elementary_abelian p = 4": lambda: find_central_elementary_abelian(
            make_abelian([4, 4, 2]), 1, p=4),
        "hyperplanes p = 2.0": lambda: hyperplanes(E, 2.0),
        "two_group_params 4.0": lambda: two_group_params(4.0),
        "DifferenceMatrix lam True": lambda: DifferenceMatrix(G, True, rows),
        "BooleanFunction arity 2.0": lambda: BooleanFunction(2.0, np.zeros(4, dtype=np.uint8)),
        "build_general budget 2.5": lambda: build_general(G, budget=2.5),
        "census_systems ell 2.5": lambda: census_systems(G, 6, 2.5),
        "dm_galois_ring e True": lambda: dm_galois_ring(True, 2),
        "dm_galois_ring t True": lambda: dm_galois_ring(1, True),
        "dm_galois_ring t 2.0": lambda: dm_galois_ring(1, 2.0),
        "BooleanFunction.from_hex arity 2.0": lambda: BooleanFunction.from_hex(2.0, "0f"),
        "enumerate_bent arity 2.0": lambda: enumerate_bent(2.0),
        "irreducible_poly True": lambda: irreducible_poly(True),
        "irreducible_poly 2.0": lambda: irreducible_poly(2.0),
        "gf2_is_irreducible deg True": lambda: gf2_is_irreducible(7, True),
        "gf2_is_irreducible poly 7.0": lambda: gf2_is_irreducible(7.0, 2),
    }


@pytest.mark.parametrize("case", sorted(_door_rejections()))
def test_integer_parameters_come_in_through_one_door(case):
    """A count, depth, size or prime that is no integer, or a p that is no
    prime, is a ValueError at the entry, never read as 1 (True), cut to an
    int (2.5, "4") or passed on as a float."""
    with pytest.raises(ValueError, match="is not an integer|must be a prime"):
        _door_rejections()[case]()


def test_the_door_bounds_from_below_and_takes_numpy_integers():
    from linkset.groups import _int_scalar, _prime

    assert _int_scalar(np.int8(3), "n", 3) == 3 and type(_int_scalar(np.uint64(3), "n")) is int
    with pytest.raises(ValueError, match="^n must be at least 4, got 3$"):
        _int_scalar(np.int64(3), "n", 4)
    for x in (True, np.bool_(True), 3.0, np.float64(3), "3", None, [3]):
        with pytest.raises(ValueError, match="^n .+ is not an integer$"):
            _int_scalar(x, "n")
    assert [_prime(p) for p in (2, np.int64(3), 4093)] == [2, 3, 4093]
    for p in (-3, 0, 1, 4, 9, 4099):
        with pytest.raises(ValueError, match=f"^p must be a prime at most 4096, got {p}$"):
            _prime(p)
    assert find_central_elementary_abelian(make_abelian([4, 4, 2]), 1, p=3) == []

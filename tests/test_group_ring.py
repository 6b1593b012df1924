import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from linkset import group_ring as rg
from linkset.designs import DSParams, difference_set_params
from linkset.groups import (
    direct_product,
    make_abelian,
    make_dihedral8,
    make_quaternion8,
)
from linkset.worked_examples import linked_triple_z4z4, witness_21_z4z4


def naive_mul(G, x, y):
    """Multiset-of-products oracle: expand every (g, h) pair."""
    out = np.zeros(G.order, dtype=np.int64)
    for g in range(G.order):
        for h in range(G.order):
            out[G.mul(g, h)] += x.coeffs[g] * y.coeffs[h]
    return rg.GroupRingElement(G, out)


def random_element(G, rng, lo=-3, hi=3):
    return rg.GroupRingElement(G, np.array([rng.randint(lo, hi) for _ in G.elements()]))


def test_from_subset_and_is_subset():
    G = make_abelian([4, 4])
    s = rg.from_subset(G, [1, 5, 9])
    assert int(s.coeffs.sum()) == 3
    assert rg.is_subset(rg.all_ones(G)) == tuple(G.elements())
    assert rg.is_subset(rg.scale(2, rg.one(G))) is None
    with pytest.raises(ValueError):
        rg.from_subset(G, [1, 1])


@pytest.mark.parametrize("coeffs", [[0.5] * 16, ["3"] * 16, [True] * 16, [1] * 15 + [1.5],
                                    [np.inf] * 16, [np.nan] * 16, np.full(16, 2.0 ** 63),
                                    [1j] * 16],
                         ids=["half", "string", "bool", "one-fraction", "inf", "nan", "2^63",
                              "complex"])
def test_group_ring_elements_reject_coefficients_that_are_no_integers(coeffs):
    """A coefficient that is no integer raises ValueError rather than being
    coerced (0.5 to 0, '3' to 3, True to 1)."""
    with pytest.raises(ValueError, match="coefficients must be integers"):
        rg.GroupRingElement(make_abelian([4, 4]), coeffs)


def test_group_ring_elements_take_integral_numeric_coefficients():
    G = make_abelian([4, 4])
    want = np.arange(-8, 8)
    for coeffs in (want, want.tolist(), want.astype(np.int8), want.astype(np.float32),
                   [float(c) for c in want]):
        x = rg.GroupRingElement(G, coeffs)
        assert x.coeffs.dtype == np.int64 and np.array_equal(x.coeffs, want)
    assert rg.GroupRingElement(G, np.arange(16, dtype=np.uint8)).coeffs.tolist() == list(range(16))


def test_scale_takes_integer_scalars_only():
    """``scale`` takes an int or a numpy integer k, as ``FiniteGroup.power``
    takes its exponent; a float (even an integral one), a bool or a string
    raises ValueError instead of being truncated."""
    G = make_abelian([4, 4])
    x = rg.from_subset(G, [1, 5])
    for k in (1.5, 2.0, np.float64(2), True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match="scalar"):
            rg.scale(k, x)
    for k in (3, -2, np.int64(3), np.uint8(3), np.int32(-2)):
        assert rg.scale(k, x).coeffs.tolist() == (int(k) * x.coeffs).tolist()


def test_mul_matches_multiset_oracle():
    rng = random.Random(7)
    for G in [make_abelian([4, 4]), make_abelian([8, 2]), make_dihedral8(),
              make_quaternion8(), make_abelian([3, 3])]:
        for _ in range(5):
            a = rg.from_subset(G, rng.sample(range(G.order), min(8, G.order // 2)))
            b = rg.from_subset(G, rng.sample(range(G.order), min(6, G.order // 2)))
            assert rg.mul(a, b) == naive_mul(G, a, b)


def test_mul_group_mismatch():
    a = rg.one(make_abelian([4]))
    b = rg.one(make_abelian([4]))
    with pytest.raises(ValueError):
        rg.mul(a, b)  # distinct group objects


def test_mul_respects_noncommutative_order():
    D4 = make_dihedral8()
    a = rg.from_subset(D4, [D4.element("a")])
    b = rg.from_subset(D4, [D4.element("b")])
    assert rg.mul(a, b) != rg.mul(b, a)


def test_associativity():
    rng = random.Random(11)
    # exhaustive over basis elements on order <= 16
    for G in [make_abelian([4, 4]), make_dihedral8(), make_quaternion8()]:
        for g in G.elements():
            for h in G.elements():
                for k in G.elements():
                    assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))
    # random ring elements on order <= 64
    for G in [make_abelian([8, 2, 2, 2]), direct_product(make_quaternion8(), make_abelian([4, 2]))]:
        for _ in range(3):
            x, y, z = (random_element(G, rng) for _ in range(3))
            assert rg.mul(rg.mul(x, y), z) == rg.mul(x, rg.mul(y, z))


def test_involution_basic():
    G = make_abelian([4, 4])
    xy3 = G.element("x1*x2^3")
    x3y = G.element("x1^3*x2")
    e = rg.from_subset(G, [xy3])
    assert rg.is_subset(rg.involution(e)) == (x3y,)
    rng = random.Random(3)
    for _ in range(5):
        x = random_element(G, rng)
        assert rg.involution(rg.involution(x)) == x


def test_involution_antihomomorphism():
    rng = random.Random(5)
    for G in [make_dihedral8(), make_quaternion8()]:
        # exhaustive on basis elements
        for g in G.elements():
            for h in G.elements():
                x = rg.from_subset(G, [g])
                y = rg.from_subset(G, [h])
                lhs = rg.involution(rg.mul(x, y))
                rhs = rg.mul(rg.involution(y), rg.involution(x))
                assert lhs == rhs
        for _ in range(5):
            x, y = random_element(G, rng), random_element(G, rng)
            assert rg.involution(rg.mul(x, y)) == rg.mul(rg.involution(y), rg.involution(x))


def test_subset_times_all_ones():
    G = make_dihedral8()
    s = rg.from_subset(G, [0, 2, 5])
    assert rg.mul(s, rg.all_ones(G)) == rg.scale(3, rg.all_ones(G))
    assert rg.mul(rg.all_ones(G), s) == rg.scale(3, rg.all_ones(G))


def test_linked_triple_products():
    G, sets = linked_triple_z4z4()
    d1 = rg.from_subset(G, sets[0])
    d2 = rg.from_subset(G, sets[1])
    # D_i D_i^(-1) = 4*1 + 2*G
    expect = rg.add(rg.scale(4, rg.one(G)), rg.scale(2, rg.all_ones(G)))
    for s in sets:
        d = rg.from_subset(G, s)
        assert rg.mul(d, rg.involution(d)) == expect
    # D_2 D_1^(-1) = -2*D + 3*G with the recorded witness
    prod = rg.mul(d2, rg.involution(d1))
    w = rg.from_subset(G, witness_21_z4z4(G))
    assert prod == rg.add(rg.scale(-2, w), rg.scale(3, rg.all_ones(G)))


def test_decompose_two_valued():
    G, sets = linked_triple_z4z4()
    d1 = rg.from_subset(G, sets[0])
    d2 = rg.from_subset(G, sets[1])
    prod = rg.mul(d2, rg.involution(d1))
    assert rg.decompose_two_valued(prod, 1, 3) == witness_21_z4z4(G)
    # 4*1 + 2G is not {1,3}-valued (coefficient 6 at the identity)
    bad = rg.mul(d1, rg.involution(d1))
    assert rg.decompose_two_valued(bad, 1, 3) is None
    # nu*G decomposes to the empty set
    assert rg.decompose_two_valued(rg.scale(3, rg.all_ones(G)), 1, 3) == ()
    with pytest.raises(ValueError):
        rg.decompose_two_valued(prod, 2, 2)


def test_counter_oracle_matches_convolution():
    # second oracle: Counter over name pairs, independent of numpy paths
    G = make_quaternion8()
    rng = random.Random(13)
    s1 = rng.sample(range(8), 4)
    s2 = rng.sample(range(8), 4)
    counts = Counter(G.mul(g, h) for g in s1 for h in s2)
    prod = rg.mul(rg.from_subset(G, s1), rg.from_subset(G, s2))
    for a in G.elements():
        assert prod.coeffs[a] == counts.get(a, 0)


# -- the batched kernels ----------------------------------------------------------


def _kernel_groups():
    D4, Q8, Z2 = make_dihedral8(), make_quaternion8(), make_abelian([2])
    return [make_abelian([4, 4]), make_abelian([8, 2]), make_abelian([3, 3]), D4, Q8,
            direct_product(D4, Z2), direct_product(Q8, Z2)]


def test_pair_products_match_mul():
    rng = random.Random(17)
    for G in _kernel_groups():
        sets = [rng.sample(range(G.order), rng.randint(0, G.order)) for _ in range(5)]
        ring = [rg.from_subset(G, S) for S in sets]
        # below NTT_MIN_ORDER the pair products stay on the table route
        assert G.order < rg.NTT_MIN_ORDER
        assert rg.RowProducts(G, rg.indicators(G, sets))._transform is None
        P = rg.pair_products(G, rg.indicators(G, sets[:3]), rg.indicators(G, sets))
        assert P.shape == (3, 5, G.order)
        noncommuting = False
        for a in range(3):
            for b in range(5):
                want = rg.mul(ring[a], rg.involution(ring[b]))
                assert np.array_equal(P[a, b], want.coeffs)
                if a == 0 and b == 1:
                    assert want == naive_mul(G, ring[a], rg.involution(ring[b]))
                noncommuting |= want != rg.mul(rg.involution(ring[b]), ring[a])
        # X Y^(-1) keeps its factor order: in a nonabelian group it differs
        # from Y^(-1) X for some pair
        assert noncommuting == (not G.abelian)


def test_pair_products_reject_rows_that_are_not_indicators():
    G = make_abelian([4, 4])
    good = rg.indicators(G, [[0, 1, 2]])
    with pytest.raises(ValueError):
        rg.pair_products(G, 2 * good, good)
    with pytest.raises(ValueError):
        rg.pair_products(G, good, 0.5 * good)
    bad = good.astype(np.int64)
    bad[0, 5] = -1
    with pytest.raises(ValueError):
        rg.pair_products(G, good, bad)
    with pytest.raises(ValueError):
        rg.pair_products(G, good[0], good)  # not a 2-D block of rows
    with pytest.raises(ValueError):
        rg.pair_products(G, good, np.ones((1, 8)))  # wrong length


def test_autocorrelations_match_mul_in_any_group():
    rng = random.Random(23)
    for G in _kernel_groups():
        sets = [rng.sample(range(G.order), rng.randint(0, G.order)) for _ in range(4)]
        A = rg.autocorrelations(G, sets)
        for S, row in zip(sets, A):
            s = rg.from_subset(G, S)
            assert np.array_equal(row, rg.mul(s, rg.involution(s)).coeffs)


def test_coefficient_autocorrelations_match_mul_in_any_group():
    """C C^(-1) of nonnegative integer rows over a group table, against
    the plain product, in abelian and nonabelian groups; no rows give an
    empty batch."""
    rng = np.random.default_rng(41)
    for G in _kernel_groups():
        rows = rng.integers(0, 5, size=(6, G.order))
        got = rg.coefficient_autocorrelations(G.table, rows)
        for row, auto in zip(rows, got):
            x = rg.GroupRingElement(G, row)
            assert np.array_equal(auto, rg.mul(x, rg.involution(x)).coeffs)
        assert got.sum(axis=1).tolist() == (rows.sum(axis=1) ** 2).tolist()
        assert rg.coefficient_autocorrelations(G.table, rows[:0]).shape == (0, G.order)


def _counted_params(G, counts):
    """is_difference_set's answers read off the exact counts of S S^(-1):
    DSParams where the row is constant off the identity, else None."""
    v = G.order
    return [DSParams(v, int(c[0]), int(c[1]), int(c[0] - c[1])) if (c[1:] == c[1]).all()
            else None for c in counts]


def test_autocorrelation_paths_agree_on_improved_witnesses():
    """The 930 witnesses of the improved system in Z4^5: the count, mul
    and the spectral test all make each a (1024, 496, 240, 256)
    difference set."""
    from linkset.diffmat import build_improved

    G = make_abelian([4] * 5)
    system = build_improved(G)
    witnesses = [w.elements for w in system.witnesses.values()]
    assert len(witnesses) == 31 * 30
    k = len(witnesses[0])
    got = rg.autocorrelations(G, witnesses)
    s = rg.from_subset(G, witnesses[0])
    assert np.array_equal(got[0], rg.mul(s, rg.involution(s)).coeffs)
    assert np.all(got[:, 0] == k) and np.all(got[:, 1:] == 240)
    assert rg._transform(G) is not None  # the difference-set checks read the spectrum here
    assert difference_set_params(G, witnesses) == [DSParams(1024, k, 240, 256)] * len(witnesses)


def test_autocorrelation_paths_agree_on_mixed_radix_sets():
    """Random sets and the sets of 0, 1, v - 1 and v elements of Z16 x Z4 x
    Z2^2: the spectral test's parameters are the count's, and the count is
    mul's."""
    G = make_abelian([16, 4, 2, 2])
    v = G.order
    rng = random.Random(29)
    sets = [[], [0], list(range(1, v)), list(range(v))]
    sets += [rng.sample(range(v), rng.randint(0, v)) for _ in range(70)]
    got = rg.autocorrelations(G, sets)
    for S, row in zip(sets[:7], got):
        s = rg.from_subset(G, S)
        assert np.array_equal(row, rg.mul(s, rg.involution(s)).coeffs)
    assert rg._transform(G) is not None
    counted = _counted_params(G, got)
    assert counted[:4] == [DSParams(v, 0, 0, 0), DSParams(v, 1, 0, 1),
                           DSParams(v, v - 1, v - 2, 1), DSParams(v, v, v, 0)]
    assert difference_set_params(G, sets) == counted


@pytest.mark.parametrize("factors", [[2], [3], [2, 2], [4, 4], [8, 2], [3, 3, 2, 2], [3, 3, 5],
                                     [6, 6], [2] * 6])
def test_transform_autocorrelations_agree_with_the_count_at_small_orders(factors):
    """The spectral route's values are the transform of S S^(-1) as the
    count gives it, below NTT_MIN_ORDER too: ``_character_norms`` (staged
    GEMMs on the indicator rows, then T(S) . T(S) o neg) equals, mod p, one
    dense root-of-unity matrix over all factors times the counted
    coefficients, at every character, on the empty set, every singleton,
    the full group and random sets of mixed sizes."""
    G = make_abelian(factors)
    v, tr = G.order, rg._transform(G)
    assert v < rg.NTT_MIN_ORDER and tr is not None
    rng = random.Random(v)
    sets = [[], list(range(v))] + [[a] for a in range(v)]
    sets += [rng.sample(range(v), rng.randint(0, v)) for _ in range(20)]
    dft = rg._block_matrix(tuple(factors), tr.p, rg._primitive_root(tr.p)).astype(np.int64)
    want = rg.autocorrelations(G, sets) @ dft.T % tr.p
    norms = rg._character_norms(G, rg._subset_rows(G, sets))
    assert np.array_equal(norms.T.astype(np.int64) % tr.p, want)


def test_autocorrelations_reject_malformed_sets():
    G = make_abelian([4, 4])
    with pytest.raises(ValueError):
        rg.autocorrelations(G, [[0, 16]])
    with pytest.raises(ValueError):
        rg.autocorrelations(G, [[3, 3]])
    assert rg.autocorrelations(G, []).shape == (0, 16)
    # the same checks on one array of id rows
    for rows in ([[0, 1], [2, 16]], [[0, 1], [3, 3]], [[-1, 2]]):
        with pytest.raises(ValueError):
            rg.autocorrelations(G, np.array(rows))
        with pytest.raises(ValueError):
            rg.indicators(G, np.array(rows))
    rows = np.array([[0, 1, 5], [2, 7, 9]])
    assert np.array_equal(rg.autocorrelations(G, rows), rg.autocorrelations(G, rows.tolist()))
    assert np.array_equal(rg.indicators(G, rows), rg.indicators(G, rows.tolist()))


@pytest.mark.parametrize("check, sets", [
    (rg.autocorrelations, [[[0, 1], [2, 3]]]),  # one set nested in two rows
    (difference_set_params, np.zeros((1, 1, 1), dtype=np.int64)),  # a 3-D id array
    (rg.autocorrelations, np.array([0, 1, 2])),  # one set where the list of sets belongs
], ids=["nested-set", "3d-array", "1d-array"])
def test_sets_that_are_not_flat_are_rejected(check, sets):
    """The subset door ``_subset_rows`` takes sets only as flat sequences
    of ids: a nested set is not flattened, and a bare id is no set."""
    with pytest.raises(ValueError, match="flat sequence"):
        check(make_abelian([4, 4]), sets)


def _partitions(n, largest):
    """The partitions of n into parts of at most ``largest``, parts descending."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1)
            for rest in _partitions(n - k, k)]


def test_transform_exactness_bound():
    """The written bound at the largest orders: every abelian group of order
    4096 that takes the transform (cyclic factors up to NTT_BLOCK = 64), and
    odd orders with three stages, keep every partial sum of the forward
    transform of 0/1 rows and of the inverse of unreduced pointwise
    products below 2^53.  In Z4^6 (two stages of 64) the forward transform
    never reduces between stages and the inverse once; in Z4^5 neither."""
    cases = [tuple(2 ** e for e in parts) for parts in _partitions(12, 6)]
    cases += [(3,) * 7, (5,) * 5, (7,) * 4, (3,) * 5 + (2,) * 4]
    for factors in cases:
        tr = rg._Transform(factors)
        assert tr.p > 2 * tr.v + 4 and (tr.p - 1) % max(factors) == 0
        for bound, batch_first in ((1, True), (tr.half ** 2, False)):
            stages = tr.stages(bound, batch_first)
            assert max(partial for _, _, partial in stages) < 2 ** 53
    for factors, p, sizes, reductions in (((4,) * 6, 8209, [64, 64], [0, 1]),
                                          ((4,) * 5, 2053, [64, 16], [0, 0])):
        tr = rg._Transform(factors)
        assert tr.p == p and [len(M) for M in tr.matrices] == sizes
        assert [sum(reduce for _, reduce, _ in tr.stages(bound, batch_first))
                for bound, batch_first in ((1, True), (tr.half ** 2, False))] == reductions
    # near-half-size sets on an order-4096 group: the pair products' forward
    # and inverse transforms give X X^(-1) on the diagonal, against the count
    G = make_abelian([4] * 6)
    rng = random.Random(31)
    sets = [rng.sample(range(G.order), 2048 + d) for d in (-1, 0, 1)]
    products = rg.RowProducts(G, rg.indicators(G, sets))
    assert products._transform is not None
    diagonal = products(range(3), range(3))[range(3), range(3)]
    assert np.array_equal(diagonal, rg.autocorrelations(G, sets))


def test_transform_bound_is_checked_under_python_O():
    """The transform's exactness check is a raise, not an assert, so it
    holds under ``python -O`` too: with the limit forced below the bound,
    building a transform raises ArithmeticError."""
    code = ("import linkset.group_ring as rg\n"
            "assert False, 'asserts are stripped'\n"
            "rg.EXACT_LIMIT = 1.0\n"
            "try:\n    rg._Transform((4, 4))\n"
            "except ArithmeticError as exc:\n    print('raised:', exc)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert done.returncode == 0 and done.stdout.startswith("raised: "), done.stderr


def _routes(G, rows, monkeypatch):
    """All products among ``rows`` on the transform route (at any order)
    and on the table route."""
    everything = range(len(rows))
    monkeypatch.setattr(rg, "NTT_MIN_ORDER", 1)
    assert rg._transform(G) is not None
    products = rg.RowProducts(G, rows)
    assert products._transform is not None
    transform = products(everything, everything)
    monkeypatch.setattr(rg, "_transform", lambda G: None)
    table = rg.RowProducts(G, rows)(everything, everything)
    monkeypatch.undo()
    return transform, table


def test_transform_pair_products_match_the_table_route(monkeypatch):
    from linkset.diffmat import build_improved

    Z45 = make_abelian([4] * 5)
    rng = random.Random(37)
    cases = [(Z45, [r.elements for r in build_improved(Z45).records])]
    for factors in ([16, 4, 2, 2], [8, 4, 4], [2] * 8, [3, 3, 5]):
        G = make_abelian(factors)
        cases.append((G, [rng.sample(range(G.order), rng.randint(0, G.order))
                          for _ in range(12)]))
    for G, sets in cases:
        transform, table = _routes(G, rg.indicators(G, sets), monkeypatch)
        assert np.array_equal(transform, table)
        x, y = rg.from_subset(G, sets[0]), rg.from_subset(G, sets[1])
        assert np.array_equal(transform[0, 1], rg.mul(x, rg.involution(y)).coeffs)


def test_row_products_index_consecutive_rows_by_a_view():
    """``_span`` turns consecutive ids (``PairCheck.square``'s rows and
    columns) into a slice, so the transform route reads those spectra
    through a view, and leaves other ids as they are; both give the same
    products as the full square."""
    assert rg._span(np.arange(3, 7)) == slice(3, 7)
    for ids in (np.array([2, 4]), np.array([5, 4]), np.zeros(0, dtype=np.int64)):
        assert rg._span(ids) is ids
    G = make_abelian([4] * 4)
    rng = random.Random(53)
    products = rg.RowProducts(G, rg.indicators(G, [rng.sample(range(G.order), 100)
                                                    for _ in range(7)]))
    assert products._transform is not None
    assert np.shares_memory(products._spectra[:, rg._span(np.arange(2, 5))], products._spectra)
    square = products(range(7), range(7))
    assert np.array_equal(products(range(2, 5), range(1, 7)), square[2:5, 1:])
    assert np.array_equal(products([4, 1], [0, 5, 2]), square[[4, 1]][:, [0, 5, 2]])


def test_nonabelian_groups_never_reach_the_transform(monkeypatch):
    def refuse(*args):
        raise AssertionError("transform called")

    monkeypatch.setattr(rg, "NTT_MIN_ORDER", 1)
    monkeypatch.setattr(rg._Transform, "__call__", refuse)
    rng = random.Random(43)
    for G in (direct_product(make_dihedral8(), make_abelian([2])),
              direct_product(make_quaternion8(), make_abelian([2]))):
        assert rg._transform(G) is None
        sets = [rng.sample(range(G.order), rng.randint(1, G.order)) for _ in range(5)]
        ind = rg.indicators(G, sets)
        P = rg.pair_products(G, ind, ind)
        A = rg.autocorrelations(G, sets)
        for S, row in zip(sets, A):
            s = rg.from_subset(G, S)
            assert np.array_equal(row, rg.mul(s, rg.involution(s)).coeffs)
            assert np.array_equal(P[0, 0], A[0])


@pytest.mark.parametrize("block_sets", [None, 7])
def test_count_autocorrelations_in_blocks(block_sets, monkeypatch):
    """Equal-size sets as one array, counted in blocks, against rg.mul in a
    nonabelian group (in one block, and in blocks of 7 sets)."""
    G = direct_product(make_dihedral8(), make_abelian([2]))
    rng = random.Random(71)
    rows = np.array([sorted(rng.sample(range(G.order), 5)) for _ in range(50)])
    if block_sets:
        # 8-byte quotients: block_sets sets of 5 * 5 (more than v = 16) a block
        monkeypatch.setattr("linkset.groups.SCRATCH_BYTES", 8 * block_sets * 5 * 5)
    blocks = [len(block) for _, block in rg.autocorrelation_blocks(G, rows)]
    assert blocks == ([block_sets] * 7 + [1] if block_sets else [50])
    got = rg.autocorrelations(G, rows)
    for S, coeffs in zip(rows.tolist(), got):
        x = rg.from_subset(G, S)
        assert np.array_equal(coeffs, rg.mul(x, rg.involution(x)).coeffs)

import random

import numpy as np
import pytest

from linkset import bent
from linkset.bent import (
    BooleanFunction,
    bent_linking,
    enumerate_bent,
    is_bent,
    is_bent_set,
    kerdock_bent_set,
    subset_of,
    translate_to_zero,
    wht,
    zero_function,
)
from linkset.designs import is_difference_set
from linkset.groups import make_abelian


def naive_wht(f):
    """O(4^n) double sum straight from the definition."""
    n = f.arity
    size = 2 ** n
    out = np.zeros(size, dtype=np.int64)
    for u in range(size):
        total = 0
        for x in range(size):
            dot = bin(u & x).count("1") & 1
            total += (-1) ** (int(f.table[x]) ^ dot)
        out[u] = total
    return out


def from_anf(arity, monomials):
    """Truth table from a list of variable-index tuples (1-based), XORed."""
    table = np.zeros(2 ** arity, dtype=np.uint8)
    for x in range(2 ** arity):
        val = 0
        for mono in monomials:
            val ^= all((x >> (i - 1)) & 1 for i in mono)
        table[x] = val
    return BooleanFunction(arity, table)


QUAD44 = from_anf(4, [(1, 2), (3, 4)])  # x1 x2 + x3 x4


def test_from_hex_reads_exactly_what_to_hex_writes():
    """``from_hex`` inverts ``to_hex`` at every small arity and rejects a
    table with a byte too many or too few, or a padding bit set past 2^n
    (arity < 3)."""
    rng = np.random.default_rng(5)
    for arity in range(7):
        f = BooleanFunction(arity, rng.integers(0, 2, 2 ** arity))
        text = f.to_hex()
        assert len(text) == 2 * max(1, 2 ** arity // 8)
        assert BooleanFunction.from_hex(arity, text) == f
        for wrong in (text + "00", text[2:]):
            with pytest.raises(ValueError, match="bytes"):
                BooleanFunction.from_hex(arity, wrong)
    for arity, text in ((0, "02"), (1, "04"), (2, "f0"), (2, "10")):
        with pytest.raises(ValueError, match="padding bit"):
            BooleanFunction.from_hex(arity, text)


def test_wht_zero_function():
    w = wht(zero_function(4))
    assert w[0] == 16 and np.all(w[1:] == 0)


def test_wht_matches_naive():
    rng = random.Random(31)
    for n in (2, 3, 4, 6, 8):
        f = BooleanFunction(n, np.array([rng.randint(0, 1) for _ in range(2 ** n)],
                                        dtype=np.uint8))
        assert np.array_equal(wht(f), naive_wht(f))


def test_wht_matches_the_sylvester_hadamard_product():
    """``wht`` (the transform of Z[Z_2^n]) against the int64 product with
    the Sylvester-Hadamard matrix on random functions of every arity 0..12."""
    rng = np.random.default_rng(41)
    hadamard = np.ones((1, 1), dtype=np.int64)
    for n in range(13):
        if n:
            hadamard = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int64), hadamard)
        for table in rng.integers(0, 2, size=(3, 2 ** n)):
            got = wht(BooleanFunction(n, table))
            assert got.dtype == np.int64
            assert np.array_equal(got, (1 - 2 * table.astype(np.int64)) @ hadamard)


def test_spectra_read_bool_and_integer_tables_alike():
    """The +/-1 rows come from the table's bits whatever its dtype: bool,
    uint8 and int8 tables give the same spectra (a bool array is not taken
    for a mask), equal to the Sylvester-Hadamard product, and the same
    bent verdicts."""
    rng = np.random.default_rng(43)
    for n in (2, 4, 6):
        hadamard = np.ones((1, 1), dtype=np.int64)
        for _ in range(n):
            hadamard = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int64), hadamard)
        tables = rng.integers(0, 2, size=(5, 2 ** n)).astype(np.uint8)
        tables[0] = 0
        tables[1] = 1
        want = ((1 - 2 * tables.astype(np.int64)) @ hadamard).T
        for dtype in (np.bool_, np.uint8, np.int8):
            got = bent._spectra(tables.astype(dtype), n)
            assert got.dtype == np.float64 and np.array_equal(got, want)
            assert np.array_equal(bent._bent_rows(tables.astype(dtype), n),
                                  np.all(np.abs(want) == 2 ** (n // 2), axis=0))


def test_transforms_past_arity_12_raise_before_any_work(monkeypatch):
    """2^n past MAX_TABLE_ORDER (arity > 12, past the largest Z_2^n that
    bent_linking can use) is a ValueError before any transform is built,
    for a bent set also when it has no pair to test."""
    monkeypatch.setattr(bent, "_factor_transform", None)  # no transform may start
    for arity in (13, 14):
        f = zero_function(arity)
        with pytest.raises(ValueError, match="past 12"):
            wht(f)
        with pytest.raises(ValueError, match="even arity" if arity % 2 else "past 12"):
            is_bent(f)
    for members in ([zero_function(14)], [zero_function(14), zero_function(14).complement()]):
        with pytest.raises(ValueError, match="past 12"):
            is_bent_set(members)


def test_parseval():
    rng = random.Random(37)
    for n in (2, 4, 6, 8, 10):
        f = BooleanFunction(n, np.array([rng.randint(0, 1) for _ in range(2 ** n)],
                                        dtype=np.uint8))
        assert int((wht(f).astype(object) ** 2).sum()) == 2 ** (2 * n)


def test_is_bent():
    assert np.all(np.abs(wht(QUAD44)) == 4)
    assert is_bent(QUAD44)
    assert not is_bent(zero_function(4))
    assert is_bent(from_anf(2, [(1, 2)]))
    with pytest.raises(ValueError):
        is_bent(zero_function(3))


def test_subset_of():
    G = make_abelian([2, 2])
    f = from_anf(2, [(1, 2)])
    assert subset_of(f, G) == (G.element("x1*x2"),)
    G4 = make_abelian([2, 2, 2, 2])
    assert len(subset_of(QUAD44, G4)) == QUAD44.weight()
    with pytest.raises(ValueError):
        subset_of(QUAD44, make_abelian([4, 4]))


@pytest.mark.parametrize("d", range(4))
def test_subset_of_matches_the_scalar_element_map_on_kerdock_sets(d):
    """The gather names the same elements as the row-major id (first factor
    most significant) of the bits of each support index (bit i the exponent
    of x_(i+1))."""
    n = 2 * d + 2
    G = make_abelian([2] * n)
    for f in kerdock_bent_set(d):
        want = sorted(int(np.ravel_multi_index([(int(i) >> b) & 1 for b in range(n)], [2] * n))
                      for i in np.flatnonzero(f.table))
        assert subset_of(f, G) == tuple(want)


def test_dillon_equivalence_exhaustive():
    """bent <-> the support is a nontrivial difference set, all 2^16 functions."""
    G = make_abelian([2, 2, 2, 2])
    size = 16
    tables = np.arange(2 ** size, dtype=np.uint32)
    bits = ((tables[:, None] >> np.arange(size)[None, :]) & 1).astype(np.int8)
    bent_mask = bent._bent_rows(bits, 4)
    assert int(bent_mask.sum()) == 896

    B = bits.astype(np.int32)
    coeffs = np.empty((2 ** size, size), dtype=np.int32)
    for h in range(size):
        coeffs[:, h] = (B * B[:, G.table[h]]).sum(axis=1)
    k = B.sum(axis=1)
    ds_mask = (coeffs[:, 0] == k) & np.all(coeffs[:, 1:] == coeffs[:, 1:2], axis=1)
    nontrivial = (k >= 2) & (k <= size - 2)
    assert np.array_equal(bent_mask, ds_mask & nontrivial)


def test_dillon_spot_checks():
    G = make_abelian([2, 2, 2, 2])
    rng = random.Random(41)
    for _ in range(50):
        f = BooleanFunction(4, np.array([rng.randint(0, 1) for _ in range(16)],
                                        dtype=np.uint8))
        params = is_difference_set(G, subset_of(f, G))
        nontrivial = params is not None and 2 <= params.k <= 14
        assert is_bent(f) == nontrivial


def test_is_bent_set():
    assert is_bent_set(kerdock_bent_set(1))
    assert is_bent_set([zero_function(4), QUAD44])
    assert not is_bent_set([zero_function(4), zero_function(4)])
    with pytest.raises(ValueError):
        is_bent_set([zero_function(4), zero_function(2)])


def test_is_bent_set_rejects_odd_arity_at_any_size():
    """Bent functions have even arity, so a set of odd arity is rejected
    also when it has no pair to test."""
    for arity in (1, 3, 5):
        for size in (1, 2):
            with pytest.raises(ValueError, match="even arity"):
                is_bent_set([zero_function(arity)] * size)


def test_is_bent_set_matches_the_pairwise_definition():
    rng = np.random.default_rng(5)
    fns = kerdock_bent_set(2)
    verdicts = set()
    for _ in range(20):
        members = [fns[i] for i in rng.choice(len(fns), 6, replace=False)]
        if rng.random() < 0.7:  # flip one bit of one member
            j, x = rng.integers(6), rng.integers(64)
            table = members[j].table.copy()
            table[x] ^= 1
            members[j] = BooleanFunction(6, table)
        pairwise = all(is_bent(f + g) for i, f in enumerate(members)
                       for g in members[i + 1:])
        assert is_bent_set(members) == pairwise
        verdicts.add(pairwise)
    assert verdicts == {True, False}
    assert is_bent_set([QUAD44])
    with pytest.raises(ValueError, match="even arity"):
        is_bent_set([zero_function(3), zero_function(3)])


@pytest.mark.parametrize("d", [-1, 5, 6])
def test_kerdock_outside_its_domain_raises_before_any_work(monkeypatch, d):
    monkeypatch.setattr(bent, "_kerdock_trace_family", None)
    with pytest.raises(ValueError, match="between 0 and 4"):
        kerdock_bent_set(d)


def test_the_kerdock_gate_requires_the_zero_function(monkeypatch):
    """A trace family moved by a linear function is still a bent set of
    the full size (pairwise sums are unchanged) but has no zero function,
    so the gate fails it instead of translating it."""
    linear = BooleanFunction(4, np.arange(16) & 1)
    moved = [f + linear for f in bent._kerdock_trace_family(1)]
    assert is_bent_set(moved) and not any(f.is_zero() for f in moved)
    monkeypatch.setattr(bent, "_kerdock_trace_family", lambda d: moved)
    with pytest.raises(AssertionError, match="failed verification"):
        kerdock_bent_set(1)


@pytest.mark.parametrize("d,size", [(0, 2), (1, 8), (2, 32)])
def test_kerdock_sizes(d, size):
    fns = kerdock_bent_set(d)
    assert len(fns) == size
    assert fns[0].arity == 2 * d + 2
    assert any(f.is_zero() for f in fns)
    assert len(set(fns)) == size


def test_translate_to_zero():
    fns = kerdock_bent_set(1)
    shifted = [f + fns[3] for f in fns]
    back = translate_to_zero(shifted)
    assert back[0].is_zero()
    assert is_bent_set(back)
    assert translate_to_zero(back) == back  # idempotent once zero leads


def test_bent_linking_d1():
    system = bent_linking(kerdock_bent_set(1))
    assert system.size == 7
    assert system.params.as_tuple() == (16, 6, 2, 4)
    assert system.munu.as_tuple() == (1, 3)


def test_bent_linking_requires_zero_and_size():
    fns = kerdock_bent_set(1)
    with pytest.raises(ValueError):
        bent_linking([f for f in fns if not f.is_zero()])
    with pytest.raises(ValueError):
        bent_linking([zero_function(4), QUAD44])  # only one nonzero member


def test_enumerate_bent_small():
    assert len(enumerate_bent(2)) == 8
    bents4 = enumerate_bent(4)
    assert len(bents4) == 896
    assert all(is_bent(f) for f in bents4[:10])


def test_bent_pipeline_d3():
    fns = kerdock_bent_set(3)
    assert len(fns) == 128 and fns[0].arity == 8
    system = bent_linking(fns)
    assert system.size == 127
    assert system.params.as_tuple() == (256, 120, 56, 64)

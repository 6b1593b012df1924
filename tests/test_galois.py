"""The array Galois-ring arithmetic against a naive polynomial product, the
Teichmueller sets, and pinned digests of the constructions built on them."""

import hashlib

import numpy as np
import pytest

from linkset.bent import _kerdock_trace_family
from linkset.diffmat import dm_galois_ring
from linkset.galois import GaloisRing, gf2_is_irreducible, irreducible_poly


def naive_mul(e, t, a, b):
    """Schoolbook product of the coefficient lists, then long division by
    the monic lift of the GF(2) modulus, coefficients mod 2^e."""
    q = 2 ** e
    x = [a // q ** i % q for i in range(t)]
    y = [b // q ** i % q for i in range(t)]
    prod = [0] * (2 * t - 1)
    for i in range(t):
        for j in range(t):
            prod[i + j] += x[i] * y[j]
    poly = irreducible_poly(t)
    modulus = [(poly >> i) & 1 for i in range(t + 1)]
    for k in range(2 * t - 2, t - 1, -1):
        c = prod[k]
        for i in range(t + 1):
            prod[k - t + i] -= c * modulus[i]
    return sum(prod[i] % q * q ** i for i in range(t))


def sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("e,t", [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3), (1, 6)])
def test_mul_matches_the_naive_product_on_every_pair(e, t):
    ring = GaloisRing(e, t)
    ids = np.arange(ring.size)
    table = ring.mul(ids[:, None], ids[None, :])
    assert table.shape == (ring.size, ring.size)
    naive = [[naive_mul(e, t, a, b) for b in range(ring.size)] for a in range(ring.size)]
    assert table.tolist() == naive


@pytest.mark.parametrize("e,t", [(3, 3), (4, 2), (2, 5), (1, 9), (6, 2), (12, 1)])
def test_mul_matches_the_naive_product_on_samples(e, t):
    ring = GaloisRing(e, t)
    rng = np.random.default_rng(e * 16 + t)
    a, b = rng.integers(0, ring.size, (2, 400))
    assert ring.mul(a, b).tolist() == [naive_mul(e, t, int(x), int(y)) for x, y in zip(a, b)]
    assert int(ring.mul(int(a[0]), int(b[0]))) == naive_mul(e, t, int(a[0]), int(b[0]))


def test_rings_past_exact_int64_products_are_rejected():
    assert GaloisRing(31, 1).mul(2 ** 31 - 1, 2 ** 31 - 1) == 1
    for e, t in [(32, 1), (8, 4), (1, 32)]:
        with pytest.raises(ValueError, match="exact int64"):
            GaloisRing(e, t)


def test_modulus_is_irreducible():
    for t in range(1, 9):
        assert gf2_is_irreducible(irreducible_poly(t), t)


def test_the_polynomial_helpers_bound_their_integers():
    """A degree is at least 1 and a polynomial mask at least 0, through the
    integer door (a bool or a float is rejected there, see
    ``tests/test_groups.py``), and numpy integers are taken."""
    for call, message in [(lambda: irreducible_poly(0), "^t must be at least 1, got 0$"),
                          (lambda: gf2_is_irreducible(7, 0), "^deg must be at least 1, got 0$"),
                          (lambda: gf2_is_irreducible(-7, 2), "^poly must be at least 0, got -7$")]:
        with pytest.raises(ValueError, match=message):
            call()
    assert irreducible_poly(np.int64(3)) == 0b1011
    assert gf2_is_irreducible(np.int64(7), np.int8(2))


@pytest.mark.parametrize("e,t", [(e, t) for t in range(1, 6) for e in range(1, 13)
                                 if e * t <= 12])
def test_teichmueller_sets(e, t):
    ring = GaloisRing(e, t)
    taus = ring.teichmueller()
    q = 2 ** t
    assert len(taus) == q and np.all(np.diff(taus) > 0)
    # each residue of GF(2^t) (the digits mod 2) has exactly one representative
    residues = sum(((taus >> (e * i)) & 1) << i for i in range(t))
    assert sorted(residues.tolist()) == list(range(q))
    # fixed by z -> z^(2^t)
    z = taus
    for _ in range(t):
        z = ring.mul(z, z)
    assert np.array_equal(z, taus)
    # closed under products
    assert np.all(np.isin(ring.mul(taus[:, None], taus[None, :]), taus))


# sha256 of the rows as little-endian int64: a construction whose output
# changes by one entry fails here
DM_GALOIS_RING_DIGESTS = {
    (1, 1): "013f21dd7052786e2c338b57f23ec2c7feb0c12f7b3b28fbb5affaca27103f51",
    (2, 1): "9372cbe7347111c3b539a5d9e5c9728cb2590a25586024dde52ceb7ff338fa81",
    (3, 1): "eae4463d43e0a5a4353247d64c50cf5fe0de57e0ecff4533a12b47a8c1e3d86b",
    (4, 1): "55553ffb64d0eee92e1fc43a5ae2f58101521d81f8c96ead2fc2af05b1e167aa",
    (5, 1): "857469c81d86084a62d361271a5576919e1b2e1dae9d30724e92d14a2ea2d476",
    (6, 1): "708b8946e19895107e13bda16914f9291cb30a13822982b70aa641e66ab23c94",
    (7, 1): "6646f979475795017f706162ee3eed7a6773dfb1dec225c92d2fe42b59a821d4",
    (8, 1): "a307a05820f44a29c71fad24f5f28d96204049a07fb64c721971ffc73d194ce0",
    (9, 1): "51a7ff84c25c20b242290385cede70498436ccc60c409fe3f0e485793668025d",
    (10, 1): "b1b2f2ed33324de5b9541db75210c939a2c59dbc6b7541ab75f2d10a97aec5bf",
    (1, 2): "322c806c8d237eebecaeed2c017cca34a2594a2042d1ca79c90c9c74612b2a4a",
    (2, 2): "718b40b2f62350e32080590ea91d644b6bf5ec48f52f7a1fce0fe084e58d6e2c",
    (3, 2): "3789b96b54a630fecef44f51f54c1a2d5a8140affdc7ecc98aeb278d803b6b09",
    (4, 2): "bd7f6f6cccf83ed3c9ea850fdb57dab41c9472280745b6c606befa29668b77fc",
    (5, 2): "3696d5ada0d91b4f596683d33280db66d80d03d5d02b5cf491d3ca37ac4362a2",
    (1, 3): "8831efb9fafdb1772730641e2201d011541a1a44cb6226e9208a3aa9c6a28523",
    (2, 3): "cb43be04a8d1710f0de3e15c5be2b7499a9613a500dbf56a7244cae4e98d87b4",
    (3, 3): "e58b51a46fd41c1f2b0f57bb82e0cf5d90635a1936e79f2899becdf5e045efae",
    (1, 4): "00f280f70b559fbd12ef756c382267e59e1b89dfd4ab1d5f0135fab05aeb5539",
    (2, 4): "6a567ffa8063a2bfa72824d210f50e208530f749c5f8da2834913ded6121899c",
    (1, 5): "67599693e6ee3d064d0973492bc59ffd859f467109796b98ec3ec442ee23b18d",
    (2, 5): "7fd134b262c80b4b7db9f6c9ef9e6f5bf02cf4cf80a345dbf67e6d1e82f5b44e",
}

# sha256 of the stacked uint8 truth tables, recorded the same way
TRACE_FAMILY_DIGESTS = {
    1: "d1f7638765da15bde4dc7db9cabfc73d645ca4c0d7de85c5aed2fdf7a8919b23",
    2: "630672354402afb910da3e47e2afa8f963ab4b7a21ef18c4481af7e4d3555663",
    3: "c59ed3a17ba3f35f8bf8b519ab867460eefe1efaf1afebdf1c039e7f0f0acce1",
}


@pytest.mark.parametrize("e,t", sorted(DM_GALOIS_RING_DIGESTS))
def test_dm_galois_ring_rows_are_pinned(e, t):
    rows = np.asarray(dm_galois_ring(e, t).rows, dtype="<i8")
    assert sha256(rows) == DM_GALOIS_RING_DIGESTS[(e, t)]


@pytest.mark.parametrize("d", sorted(TRACE_FAMILY_DIGESTS))
def test_kerdock_trace_family_is_pinned(d):
    tables = np.stack([f.table for f in _kerdock_trace_family(d)]).astype(np.uint8)
    assert tables.shape == (2 ** (2 * d + 1), 2 ** (2 * d + 2))
    assert sha256(tables) == TRACE_FAMILY_DIGESTS[d]

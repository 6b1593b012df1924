"""End-to-end selftest over the worked examples, a cross-check of the
pair products against the plain group-ring product and of the spectral
difference-set test against the exact count, and the witness filter the
pair check leaves out, run as an oracle."""

from __future__ import annotations

import random

import numpy as np

from . import group_ring as rg
from .designs import DSParams, difference_set_params, is_difference_set
from .diffmat import linked_from_dm, normalize, verify_dm, witness_direct
from .groups import FiniteGroup, direct_product, make_abelian, make_dihedral8
from .linking import MuNu, mu_nu_candidates, reversibility_profile, verify_reduced
from .search import _distinct_rows, enumerate_difference_sets
from .worked_examples import (
    dm_z2z2,
    linked_triple_z4z4,
    order16_worked_example,
    triple_dm_data,
    witness_21_z4z4,
)


def _check(name: str, ok: bool, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if not ok:
        failures.append(name)


def _kernel_checks(failures: list[str]) -> None:
    """pair_products against mul on a nonabelian group (table route) and on
    an abelian one (transform route), and the spectral difference-set test
    against the exact count of S S^(-1)."""
    rng = random.Random(0)
    Z = make_abelian([8, 4, 4])
    for label, G in (("D4xZ2", direct_product(make_dihedral8(), make_abelian([2]))),
                     ("Z8xZ4xZ4", Z)):
        sets = [rng.sample(range(G.order), rng.randint(1, G.order)) for _ in range(6)]
        ring = [rg.from_subset(G, S) for S in sets]
        prods = rg.pair_products(G, rg.indicators(G, sets), rg.indicators(G, sets))
        _check(f"pair_products agrees with mul on {label}",
               all(np.array_equal(prods[a, b], rg.mul(ring[a], rg.involution(ring[b])).coeffs)
                   for a in range(6) for b in range(6)), failures)
    # one group above NTT_MIN_ORDER and one below it: the difference-set
    # checks take the spectrum at every order; the sets of 0, 1, v - 1 and
    # v elements are difference sets in every group
    for label, G in (("Z8xZ4xZ4", Z), ("Z3xZ3xZ2xZ2", make_abelian([3, 3, 2, 2]))):
        v = G.order
        sets = [[], [0], list(range(1, v)), list(range(v))]
        sets += [rng.sample(range(v), rng.randint(1, v)) for _ in range(6)]
        counted = [DSParams(v, int(c[0]), int(c[1]), int(c[0] - c[1]))
                   if (c[1:] == c[1]).all() else None for c in rg.autocorrelations(G, sets)]
        _check(f"difference-set params: spectrum and count agree on {label}",
               rg._transform(G) is not None and difference_set_params(G, sets) == counted,
               failures)


def witness_filter_oracle(G: FiniteGroup, sets, munu: MuNu,
                          params: DSParams) -> tuple[int, int]:
    """The witness filter that ``linking.PairCheck`` leaves out, as an
    oracle for the lemma in its docstring: (pairs, rejected), the ordered
    pairs i != j of ``sets`` whose product D_i D_j^(-1) is valued in
    {mu, nu}, and those of them whose mu-support is not a difference set
    with ``params``.  Each distinct product with at most two values goes to
    ``group_ring.decompose_two_valued``; all n^2 products are held at once.
    """
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


def run_selftest() -> bool:
    failures: list[str] = []

    # the worked examples below run on these kernels
    _kernel_checks(failures)
    if failures:
        return False

    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, sets)
    _check("linked triple in Z4xZ4 verifies", system is not None, failures)
    if system is not None:
        _check("triple has (mu, nu) = (1, 3)", system.munu.as_tuple() == (1, 3), failures)
        _check("triple witness (2,1) matches",
               system.witnesses[(2, 1)].elements == witness_21_z4z4(G), failures)
        _check("triple reversibility profile (T, F, F)",
               reversibility_profile(system) == (True, False, False), failures)

    E, family, bmat, emat = triple_dm_data(G)
    rebuilt = linked_from_dm(G, E, bmat, emat, family=family)
    _check("matrix data reproduces the triple",
           {r.elements for r in rebuilt.records} == {tuple(s) for s in sets}, failures)

    M = dm_z2z2()
    _check("(Z2^2, 4, 1) matrix verifies", verify_dm(M), failures)
    _check("matrix is normalization fixed point", normalize(M).rows == M.rows, failures)

    G16, E16, family16, b16, e16, expected, witness23 = order16_worked_example()
    system16 = linked_from_dm(G16, E16, b16, e16, family=family16)
    _check("order-16 worked example reproduces its three sets",
           [r.elements for r in system16.records] == expected, failures)
    _check("order-16 witness (2,3) matches",
           system16.witnesses[(2, 3)].elements == witness23, failures)
    f_reps = [G16.mul(b16[2][j], e16[1][j - 1]) for j in range(1, 4)]
    g_reps = [G16.mul(b16[3][j], e16[2][j - 1]) for j in range(1, 4)]
    _check("direct witness formula agrees",
           witness_direct(G16, family16, f_reps, g_reps) == witness23, failures)

    Z44 = make_abelian([4, 4])
    census = [r.elements for r in enumerate_difference_sets(Z44, 6)]
    params = DSParams(16, 6, 2, 4)
    _check("every two-valued pair of the Z4xZ4 census sets has a difference-set witness",
           witness_filter_oracle(Z44, census, mu_nu_candidates(params)[0], params) == (12288, 0),
           failures)

    if not failures:
        print("all selftest checks passed")
    return not failures

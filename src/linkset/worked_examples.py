"""Hand-checkable worked examples used by the selftest, the test suite, and
the demo scripts.

The centerpiece is a classical reduced (16,6,2,4;3)-linking system in
Z_4 x Z_4 together with the difference-matrix data that reproduces it, and
an order-16 worked example over Z_4 x Z_2 x Z_2.
"""

from __future__ import annotations

import itertools

import numpy as np

from .designs import _coset_unions, hyperplanes
from .diffmat import DifferenceMatrix
from .groups import FiniteGroup, make_abelian, subgroup_generated


def _ids(G: FiniteGroup, words: list[str]) -> tuple[int, ...]:
    return tuple(sorted(G.element_ids(words)))


def _matrix_ids(G: FiniteGroup, rows: list[list[str]]) -> list[list[int]]:
    return [G.element_ids(row) for row in rows]


# -- the linked triple in Z4 x Z4 ------------------------------------------------

LINKED_TRIPLE_WORDS = [
    ["x1", "x1^3*x2", "x2^3", "x1^3", "x1*x2^3", "x2"],
    ["x1", "x1^3*x2", "x2^3", "x1*x2^2", "x1*x2", "x1^2*x2"],
    ["x1", "x1^3*x2", "x2^3", "x1^2*x2^3", "x1^3*x2^3", "x1^3*x2^2"],
]

# witness for the ordered pair (2, 1): D_2 D_1^(-1) = -2 D + 3 G
WITNESS_21_WORDS = ["x2^3", "x1", "x1^2*x2^3", "x1^3*x2", "x1^3*x2^2", "x1^3*x2^3"]


def linked_triple_z4z4():
    G = make_abelian([4, 4])
    return G, [_ids(G, words) for words in LINKED_TRIPLE_WORDS]


def witness_21_z4z4(G: FiniteGroup) -> tuple[int, ...]:
    return _ids(G, WITNESS_21_WORDS)


# difference-matrix data reproducing the triple: D_i = sum_j b_ij e_ij H_j
# over E = <x1^2, x2^2> with H_1 = <x1^2>, H_2 = <x2^2>, H_3 = <x1^2*x2^2>
TRIPLE_B_WORDS = [
    ["1", "1", "1", "1"],
    ["1", "x1", "x2", "x1*x2"],
    ["1", "x1*x2", "x1", "x2"],
    ["1", "x2", "x1*x2", "x1"],
]
TRIPLE_E_WORDS = [
    ["1", "1", "x2^2"],
    ["1", "1", "x2^2"],
    ["x2^2", "x1^2", "1"],
]


def triple_dm_data(G: FiniteGroup):
    basis = G.element_ids(["x1^2", "x2^2"])
    E = subgroup_generated(G, basis)
    return (E, hyperplanes(E, 2, basis), _matrix_ids(G, TRIPLE_B_WORDS),
            _matrix_ids(G, TRIPLE_E_WORDS))


# a (Z2^2, 4, 1)-difference matrix in the words x1, x2: the (Z2^2, 4, 1)
# example, the matrix of the order-16 worked example, and the first of the
# two base matrices whose row multiples and lift choices generate every
# maximum-size reduced linking system in Z4 x Z4
DM_Z2Z2_WORDS = [
    ["1", "1", "1", "1"],
    ["1", "x1", "x2", "x1*x2"],
    ["1", "x2", "x1*x2", "x1"],
    ["1", "x1*x2", "x1", "x2"],
]
# the second base matrix: with it no member of the resulting system is
# reversible (for any lift choice); with the matrix after it all three
# members are reversible
NONE_REVERSIBLE_B_WORDS = [
    ["1", "1", "1", "1"],
    ["1", "x1", "x1*x2", "x2"],
    ["1", "x2", "x1", "x1*x2"],
    ["1", "x1*x2", "x2", "x1"],
]
ALL_REVERSIBLE_B_WORDS = [
    ["1", "1", "1", "1"],
    ["x1", "1", "x2", "x1*x2"],
    ["x2", "x1", "1", "x1*x2"],
    ["x1*x2", "x1", "x2", "1"],
]


def construction_side_systems(G: FiniteGroup) -> set[frozenset[frozenset[int]]]:
    """All 2^16 maximum-size systems in Z4 x Z4 built from the two base
    matrices, the 4^3 row multiples, and the 2^9 effective lift choices."""
    E, family = triple_dm_data(G)[:2]
    lift_options = [(0, next(h for h in E.elements if h not in H.elements))
                    for H in family.members]
    coset_reps = G.element_ids(["1", "x1", "x2", "x1*x2"])

    row_mults = np.array(list(itertools.product(coset_reps, repeat=3)))
    lifts = np.array(list(itertools.product(*(lift_options[j % 3] for j in range(9)))))
    parts = [np.array(H.elements) for H in family.members]
    out: set[frozenset[frozenset[int]]] = set()
    for words in (DM_Z2Z2_WORDS, NONE_REVERSIBLE_B_WORDS):
        # slot_reps[r, l, i, j] = b_ij * row_mults[r, i] * lifts[l, i, j], members i, j = 1..3
        b = G.table[np.array(_matrix_ids(G, words))[None, 1:, 1:], row_mults[:, :, None]]
        slot_reps = G.table[b[:, None], lifts.reshape(1, -1, 3, 3)]
        members = _coset_unions(G, slot_reps.reshape(-1, 3), parts).reshape(-1, 3, 6)
        out |= {frozenset(map(frozenset, system)) for system in members.tolist()}
    return out


# -- a (Z2^2, 4, 1)-difference matrix --------------------------------------------


def dm_z2z2() -> DifferenceMatrix:
    G = make_abelian([2, 2])
    return DifferenceMatrix(G, 1, _matrix_ids(G, DM_Z2Z2_WORDS))


# -- the order-16 worked example over Z4 x Z2 x Z2 -------------------------------

ORDER16_E_WORDS = [
    ["1", "1", "1"],
    ["x3", "x1^2", "x1^2"],
    ["x3", "1", "1"],
]
ORDER16_EXPECTED_SETS = [
    ["x1", "x1^3", "x2", "x2*x3", "x1*x2", "x1^3*x2*x3"],
    ["x2*x3", "x1^2*x2*x3", "x1^3*x2", "x1^3*x2*x3", "x1^3", "x1*x3"],
    ["x1*x2*x3", "x1^3*x2*x3", "x1", "x1*x3", "x2", "x1^2*x2*x3"],
]
ORDER16_WITNESS_23 = ["x1*x3", "x1^3*x3", "x2", "x2*x3", "x1*x2", "x1^3*x2*x3"]


def order16_worked_example():
    """Group, central subgroup, hyperplane family, matrices, expected sets."""
    G = make_abelian([4, 2, 2])
    basis = G.element_ids(["x1^2", "x3"])
    E = subgroup_generated(G, basis)
    return (G, E, hyperplanes(E, 2, basis), _matrix_ids(G, DM_Z2Z2_WORDS),
            _matrix_ids(G, ORDER16_E_WORDS), [_ids(G, words) for words in ORDER16_EXPECTED_SETS],
            _ids(G, ORDER16_WITNESS_23))

import copy
import functools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from linkset import diffmat
from linkset import group_ring as rg
from linkset import io as lio
from linkset.cli import run
from linkset.designs import hyperplanes, is_reversible
from linkset.diffmat import (
    DEFAULT_SEARCH_BUDGET,
    KILL_CACHE_BYTES,
    DifferenceMatrix,
    DMSearch,
    SearchInconclusive,
    _backtrack_dm,
    build_general,
    build_improved,
    build_nonreversible,
    build_tyken,
    dm_auto,
    dm_field_elementary,
    dm_galois_ring,
    dm_product,
    linked_from_dm,
    normalize,
    verify_dm,
    witness_direct,
)
from linkset.groups import (
    direct_product,
    make_abelian,
    make_dihedral8,
    make_quaternion8,
    subgroup_generated,
)
from linkset.linking import verify_reduced
from linkset.worked_examples import (
    dm_z2z2,
    linked_triple_z4z4,
    order16_worked_example,
    triple_dm_data,
)


def naive_verify_dm(M):
    """Row-pair multiset oracle straight from the definition."""
    G = M.group
    for i, ri in enumerate(M.rows):
        for r, rr in enumerate(M.rows):
            if i == r:
                continue
            counts = Counter(G.mul(a, G.inv(b)) for a, b in zip(ri, rr))
            if any(counts.get(g, 0) != M.lam for g in G.elements()):
                return False
    return True


def test_verify_dm_examples():
    M = dm_z2z2()
    assert verify_dm(M) and naive_verify_dm(M)
    bad = DifferenceMatrix(M.group, 1, (M.rows[1], M.rows[1]))
    assert not verify_dm(bad) and not naive_verify_dm(bad)
    single = DifferenceMatrix(M.group, 1, (tuple([0] * 4),))
    assert verify_dm(single)  # vacuous


def test_verify_dm_matches_oracle_random():
    rng = random.Random(21)
    for G in [make_abelian([2, 2]), make_abelian([4, 2]), make_abelian([8]), make_dihedral8()]:
        for _ in range(10):
            rows = tuple(tuple(rng.randrange(G.order) for _ in range(G.order))
                         for _ in range(3))
            M = DifferenceMatrix(G, 1, rows)
            assert verify_dm(M) == naive_verify_dm(M)


def test_normalize():
    M = dm_z2z2()
    assert normalize(M).rows == M.rows  # already normalized
    G = M.group
    # scramble columns by right-multiplying with fixed elements
    scrambled = tuple(
        tuple(G.mul(M.rows[i][j], (j + 1) % 4) for j in range(4)) for i in range(4)
    )
    S = DifferenceMatrix(G, 1, scrambled)
    assert verify_dm(S)
    N = normalize(S)
    assert verify_dm(N)
    assert all(x == 0 for x in N.rows[0])
    assert all(row[0] == 0 for row in N.rows)
    # each nonzero row of a normalized matrix is a permutation of G
    for row in N.rows[1:]:
        assert sorted(row) == list(G.elements())
    with pytest.raises(ValueError):
        normalize(DifferenceMatrix(G, 1, (M.rows[1], M.rows[1])))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_field_matrices(t):
    M = dm_field_elementary(t)
    assert M.group.cyclic_factors == (2,) * t
    assert M.num_rows == 2 ** t
    assert verify_dm(M)
    assert all(x == 0 for x in M.rows[0])
    assert all(row[0] == 0 for row in M.rows)


def test_field_t2_matches_worked_example_shape():
    M = dm_field_elementary(2)
    W = dm_z2z2()
    assert M.num_rows == W.num_rows
    # same group and same multiset of rows up to column order
    assert sorted(tuple(sorted(r)) for r in M.rows) == \
        sorted(tuple(sorted(r)) for r in W.rows)


def test_galois_ring_matrices():
    M = dm_galois_ring(2, 1)
    assert M.group.cyclic_factors == (4,)
    assert M.rows == ((0, 0, 0, 0), (0, 1, 2, 3))
    M = dm_galois_ring(2, 2)
    assert M.group.cyclic_factors == (4, 4) and M.num_rows == 4
    assert verify_dm(M)
    assert dm_galois_ring(1, 3).rows == dm_field_elementary(3).rows


def test_dm_product():
    A = dm_field_elementary(2)
    B = dm_galois_ring(2, 1)
    P = dm_product(A, B)
    assert P.group.order == 16 and P.num_rows == 2
    assert verify_dm(P)
    single = DifferenceMatrix(B.group, 1, (B.rows[0],))
    assert dm_product(A, single).num_rows == 1
    PP = dm_product(A, A)
    assert PP.group.cyclic_factors == (2, 2, 2, 2) and PP.num_rows == 4
    assert verify_dm(PP)


def test_dm_auto():
    G = make_abelian([4, 2])
    M = dm_auto(G, 4)
    assert M is not None and M.num_rows >= 4 and verify_dm(M)
    for t in range(1, 6):
        G = make_abelian([2] * t)
        M = dm_auto(G, 2 ** t)
        assert M is not None and M.num_rows == 2 ** t and verify_dm(M)
    assert dm_auto(make_abelian([4]), 3) is None  # cyclic: no third row exists
    assert dm_auto(make_abelian([2, 2]), 5) is None  # above the |G| ceiling
    for rows in (0, -3):
        with pytest.raises(ValueError, match="rows must be at least 1"):
            dm_auto(make_abelian([2, 2]), rows)
    with pytest.raises(ValueError):
        dm_auto(make_abelian([3, 3]), 2)  # not a 2-group


@pytest.mark.parametrize("factors,m", [([2, 4, 2, 4], 4), ([2, 8, 2, 8], 4),
                                       ([4, 2, 4, 4, 2], 4), ([2, 2, 4, 4], 4)])
def test_dm_auto_maps_the_galois_ring_product_onto_any_factor_order(factors, m):
    """The matrix over G is the one over the descending factor order with
    each element's exponents moved to G's positions (equal factors keep
    their relative order)."""
    G = make_abelian(factors)
    S = make_abelian(sorted(factors, reverse=True))
    M, MS = dm_auto(G, m), dm_auto(S, m)
    assert verify_dm(M) and M.num_rows == MS.num_rows >= m
    order = sorted(range(len(factors)), key=lambda i: (-factors[i], i))
    for row, srow in zip(M.rows, MS.rows):
        for x, y in zip(row, srow):
            exps = np.unravel_index(x, G.cyclic_factors)
            assert tuple(exps[p] for p in order) == np.unravel_index(y, S.cyclic_factors)


@pytest.mark.parametrize("factors, m", [([4, 2], 2), ([2, 2], 4)], ids=["two-rows", "galois-ring"])
def test_dm_auto_verifies_every_route(monkeypatch, factors, m):
    """Whatever the route, dm_auto returns no matrix that fails verify_dm:
    the two-row route (all-identity and id order) raises as the Galois
    route does."""
    monkeypatch.setattr(diffmat, "verify_dm", lambda M: False)
    with pytest.raises(AssertionError, match="failed verification"):
        dm_auto(make_abelian(factors), m)


def test_dm_auto_row_ceiling():
    for factors, m in [([2, 2], 4), ([4, 2], 4), ([4, 4], 4)]:
        M = dm_auto(make_abelian(factors), m)
        assert M is not None and M.num_rows <= M.group.order


# The lexicographically first matrices of the reduced search space (row 0
# all-identity, row 1 the elements in id order, column 0 all-identity), as
# the column-by-column backtracking without forward checking returned them.
FIRST_ROWS = {
    (8, 2): ((0, 2, 1, 5, 8, 3, 12, 15, 13, 14, 4, 10, 7, 9, 11, 6),
             (0, 3, 6, 14, 10, 13, 11, 5, 4, 2, 1, 8, 15, 12, 7, 9)),
    (4, 2): ((0, 2, 1, 6, 5, 7, 4, 3),
             (0, 3, 6, 4, 1, 2, 7, 5)),
}


@pytest.mark.parametrize("factors", sorted(FIRST_ROWS))
def test_search_returns_the_lexicographically_first_matrix(monkeypatch, factors):
    G = make_abelian(list(factors))
    v = G.order
    search = _backtrack_dm(G, 4, 10 ** 6)
    assert search.rows == ((0,) * v, tuple(range(v))) + FIRST_ROWS[factors]
    assert verify_dm(DifferenceMatrix(G, 1, search.rows))
    # neither Galois ring nor product gives four rows here: dm_auto serves
    # the search's matrix from the library, and without the library it
    # runs the search itself
    assert dm_auto(G, 4).rows == search.rows
    monkeypatch.setattr(diffmat, "_dm_library", dict)
    assert dm_auto(G, 4).rows == search.rows


# Nodes of the searches that settle: the value-side check drops a partial row
# as soon as some value outside it fits no later column, which without it
# took 13,375 nodes on Z8 x Z2 and 4,102 on Z4^2.
SEARCH_NODES = {(8, 2): 8547, (4, 4): 2696, (4, 2, 2): 75}


@pytest.mark.parametrize("factors", sorted(SEARCH_NODES))
def test_search_node_counts(factors):
    G = make_abelian(list(factors))
    search = _backtrack_dm(G, 4, 10 ** 6)
    assert search.rows is not None and search.nodes == SEARCH_NODES[factors]
    assert verify_dm(DifferenceMatrix(G, 1, search.rows))
    # one node short of the count is a budget-out
    with pytest.raises(SearchInconclusive):
        _backtrack_dm(G, 4, search.nodes - 1)


def test_every_budget_short_of_the_search_is_inconclusive():
    G = make_abelian([4, 2, 2])
    for budget in range(SEARCH_NODES[(4, 2, 2)]):
        with pytest.raises(SearchInconclusive) as info:
            _backtrack_dm(G, 4, budget)
        assert (info.value.group, info.value.rows, info.value.budget) == (G, 4, budget)


# The nonabelian searches that find a matrix: rows 2.. and nodes, recorded
# at 57e2d57
NONABELIAN_SEARCHES = {
    "D4xZ2": (lambda: direct_product(make_dihedral8(), make_abelian([2])), 7486,
              ((0, 2, 1, 5, 8, 10, 11, 14, 3, 7, 6, 15, 9, 12, 4, 13),
               (0, 3, 5, 15, 11, 8, 2, 13, 14, 12, 9, 10, 7, 4, 6, 1))),
    "Q8": (make_quaternion8, 18, ((0, 2, 4, 6, 1, 7, 5, 3),)),
}


@pytest.mark.parametrize("name", sorted(NONABELIAN_SEARCHES))
def test_nonabelian_search_rows_and_node_counts(name):
    make, nodes, rows = NONABELIAN_SEARCHES[name]
    G = make()
    v = G.order
    search = _backtrack_dm(G, 2 + len(rows), 10 ** 6)
    assert search == DMSearch(((0,) * v, tuple(range(v))) + rows, nodes)
    assert verify_dm(DifferenceMatrix(G, 1, search.rows))


def _traced_peak(call):
    """(result, peak bytes traced by tracemalloc during the call)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sum_argument_settles_before_any_copy_of_the_table():
    """Z4096 has one involution, so Paige's sum proves at node 0 that no
    third row exists, read off the group's own table: no v x v copy of it
    (a Python list of the table took about 600 MiB)."""
    G = make_abelian([4096])
    search, peak = _traced_peak(lambda: _backtrack_dm(G, 3, 10))
    assert search == DMSearch(None, 0)
    assert peak < 2 * 2 ** 20


def test_search_memory_stays_within_the_kill_row_cap():
    """Z32 x Z16 x Z2 with 4 rows, 1,000 nodes: the third row gets about
    530 columns deep, where the packed ints of its open columns take about
    52 MB, and cached kill rows never take more than KILL_CACHE_BYTES.  An
    unbounded cache (126 MiB here) or v x v Python lists of the table and
    kill rows (102 MiB) would break the bound."""
    G = make_abelian([32, 16, 2])
    info, peak = _traced_peak(lambda: pytest.raises(SearchInconclusive, _backtrack_dm, G, 4, 1000))
    assert info.value.budget == 1000
    assert peak < KILL_CACHE_BYTES + 64 * 2 ** 20


def test_the_search_leaves_no_reference_cycles_behind():
    """The search's recursive ``fill`` is unbound on every way out, so no
    reference cycle keeps its closures and the kill-row cache alive until
    the next full collection: after a found search (Z4 x Z2 x Z2), an
    absent one (Z4 x Z2, 5 rows) and an inconclusive one (Z8 x Z4)."""
    import gc

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert _backtrack_dm(make_abelian([4, 2, 2]), 4, 10 ** 6).rows is not None
        assert _backtrack_dm(make_abelian([4, 2]), 5, 10 ** 6).rows is None
        with pytest.raises(SearchInconclusive):
            _backtrack_dm(make_abelian([8, 4]), 4, 100)
        gc.collect()
        names = {getattr(obj, "__qualname__", "") for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not [name for name in names if name.startswith("_backtrack_dm.")]


@pytest.mark.parametrize("factors", [[4], [8], [16]])
def test_search_proves_absence_on_cyclic_groups(factors):
    search = _backtrack_dm(make_abelian(factors), 3, 10 ** 6)
    assert search.rows is None
    assert dm_auto(make_abelian(factors), 3, budget=10 ** 6) is None


@pytest.mark.parametrize("G, m", [(make_abelian([4, 2]), 5), (make_dihedral8(), 4)])
def test_search_exhausts_to_prove_absence(G, m):
    """Cases the sum argument does not settle: the search runs out of space,
    in 3,350 nodes on Z4 x Z2 (m = 5) and 2,472 on D4 (m = 4); 3,796 and
    2,800 without the value-side check."""
    search = _backtrack_dm(G, m, 10 ** 6)
    assert search == DMSearch(None, {5: 3350, 4: 2472}[m])


def test_budget_out_is_inconclusive():
    G = make_abelian([8, 4])
    with pytest.raises(SearchInconclusive, match="inconclusive") as info:
        _backtrack_dm(G, 4, 100)
    assert info.value.budget == 100 and info.value.rows == 4
    with pytest.raises(SearchInconclusive, match="inconclusive") as info:
        dm_auto(G, 4, budget=100)
    assert info.value.budget == 100 and info.value.rows == 4
    with pytest.raises(SearchInconclusive):
        build_general(make_abelian([32, 4, 2, 2, 2]), budget=100)  # quotient Z16 x Z2


def test_library_hit_takes_no_search_nodes():
    # quotient Z8 x Z2: its matrix comes from the library, so a budget far
    # short of the search's 8,547 nodes still builds
    assert build_general(make_abelian([16, 4, 2, 2]), budget=100).size == 3


LIBRARY = json.loads((files("linkset") / "data" / "difference_matrices.json")
                     .read_text(encoding="utf-8"))


def _made(recipe, factors, m):
    """The m rows that a library recipe makes over make_abelian(factors):
    the search's first solution at the default budget, or the dm_product of
    the named parts."""
    if recipe == "search":
        return _backtrack_dm(make_abelian(factors), m, DEFAULT_SEARCH_BUDGET).rows
    parts = []
    for part in recipe["product"]:
        (kind, arg), = part.items()
        if kind == "search":
            parts.append(DifferenceMatrix(make_abelian(arg), 1, _made(kind, arg, m)))
        else:
            assert kind == "galois_ring"
            parts.append(dm_galois_ring(*arg))
    return functools.reduce(dm_product, parts).rows[:m]


@pytest.mark.parametrize("entry", LIBRARY, ids=lambda entry: str(entry["group"]["abelian"]))
def test_library_entry_is_what_its_recipe_makes(entry):
    factors, m = entry["group"]["abelian"], len(entry["rows"])
    rows = _made(entry["made"], factors, m)
    assert rows is not None and len(rows) == m
    payload = {key: entry[key] for key in ("group", "lambda", "rows")}
    assert lio.dm_from_json(payload).rows == rows  # re-verified on load
    assert dm_auto(make_abelian(factors), m).rows == rows


def test_library_keys():
    # one entry per group, with four rows each
    library = diffmat._dm_library()
    assert sorted(library) == [(4, 2), (4, 2, 2), (4, 2, 2, 2), (8, 2)]
    assert {len(rows) for rows in library.values()} == {4} and len(LIBRARY) == 4


def test_library_serves_an_entry_with_more_rows_than_asked(monkeypatch):
    # dm_auto promises at least target_rows rows; the 4-row entry over
    # Z4 x Z2^3 answers a 3-row request without a search
    monkeypatch.setattr(diffmat, "_backtrack_dm", None)
    G = make_abelian([4, 2, 2, 2])
    M = dm_auto(G, 3)
    assert M.num_rows == 4 and M.rows == dm_auto(G, 4).rows


def _library_with(monkeypatch, factors, edit):
    """Serve the library with edit(rows) applied to the entry over factors."""
    library = {key: [list(row) for row in rows] for key, rows in diffmat._dm_library().items()}
    edit(library[factors])
    monkeypatch.setattr(diffmat, "_dm_library", lambda: library)


def test_corrupt_library_entry_raises(monkeypatch):
    def swap(rows):
        rows[2][3], rows[2][4] = rows[2][4], rows[2][3]

    _library_with(monkeypatch, (8, 2), swap)
    with pytest.raises(AssertionError, match="failed verification"):
        dm_auto(make_abelian([8, 2]), 4)
    with pytest.raises(AssertionError, match="failed verification"):
        build_general(make_abelian([16, 4, 2, 2]))


@pytest.mark.parametrize("edit", [lambda rows: rows[1].__setitem__(5, "x3"),
                                  lambda rows: rows[1].pop()],
                         ids=["foreign-name", "short-row"])
def test_library_entry_that_does_not_fit_its_group_raises(monkeypatch, edit):
    # an error in the file, not in the caller's input: AssertionError naming
    # the file, which cli.run does not report as a usage error
    _library_with(monkeypatch, (8, 2), edit)
    with pytest.raises(AssertionError, match="difference_matrices.json"):
        dm_auto(make_abelian([8, 2]), 4)
    with pytest.raises(AssertionError, match="difference_matrices.json"):
        run(["dm", "construct", "--group", '{"abelian": [8, 2]}', "--rows", "4"])


@pytest.mark.parametrize("edit", [lambda entries: entries[2].pop("group"),
                                  lambda entries: entries[2].pop("rows"),
                                  lambda entries: entries.append(entries[0])],
                         ids=["no-group", "no-rows", "repeated-group"])
def test_malformed_library_file_raises(edit):
    entries = copy.deepcopy(LIBRARY)
    edit(entries)
    with pytest.raises(AssertionError, match="difference_matrices.json"):
        diffmat._read_dm_library(json.dumps(entries))
    with pytest.raises(AssertionError, match="difference_matrices.json"):
        diffmat._read_dm_library("[{")


def test_import_does_not_read_the_library():
    """The library file is opened on the first lookup, once per process,
    and not by ``import linkset``."""
    code = ("import sys\n"
            "opened = []\n"
            "sys.addaudithook(lambda event, args: event == 'open' and opened.append(str(args[0])))\n"
            "import linkset\n"
            "reads = lambda: sum(p.endswith('difference_matrices.json') for p in opened)\n"
            "at_import = reads()\n"
            "for _ in range(2):\n"
            "    linkset.dm_auto(linkset.make_abelian([8, 2]), 4)\n"
            "print(at_import, reads())\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]


# The order-1024 groups in build_general's and build_improved's domains whose
# quotient is Z4 x Z2^3 (four rows for both): the library's product entry
# builds them, where the search ran out of budget.
@pytest.mark.parametrize("build", [build_general, build_improved], ids=lambda b: b.__name__)
@pytest.mark.parametrize("factors", ([8, 4, 4, 4, 2], [8, 4, 4, 2, 2, 2], [8, 4, 2, 2, 2, 2, 2],
                                     [8] + [2] * 7), ids=str)
def test_order_1024_builds_over_the_library_product(monkeypatch, build, factors):
    monkeypatch.setattr(diffmat, "_backtrack_dm", None)  # no search may run
    G = make_abelian(factors)
    system = build(G)
    assert system.size == 3 and G.order == 1024
    again = verify_reduced(G, [record.elements for record in system.records])
    assert again.records == system.records and again.munu == system.munu


# Every abelian group of order 256 in build_general's domain (rank >= 4,
# exponent <= 16).  The first two have quotient Z8 x Z2 and [8, 4, 4, 2]
# has Z4 x Z2^2: the library serves their matrices, and
# test_build_general_order_256_by_the_search builds them without it.
GENERAL_256 = ([16, 4, 2, 2], [16, 2, 2, 2, 2], [8, 8, 2, 2], [8, 4, 4, 2],
               [8, 4, 2, 2, 2], [8, 2, 2, 2, 2, 2], [4, 4, 4, 4], [4, 4, 4, 2, 2],
               [4, 4, 2, 2, 2, 2], [4, 2, 2, 2, 2, 2, 2], [2] * 8)


@pytest.mark.parametrize("factors", GENERAL_256, ids=str)
def test_build_general_order_256_domain(factors):
    start = time.perf_counter()
    system = build_general(make_abelian(factors))
    assert time.perf_counter() - start < 1.0
    assert system.size == 3 and system.group.order == 256


@pytest.mark.parametrize("factors", GENERAL_256[:2] + GENERAL_256[3:4], ids=str)
def test_build_general_order_256_by_the_search(monkeypatch, factors):
    # the cases the library serves, with the library emptied: the search
    # finds their quotient matrices within the same bound
    monkeypatch.setattr(diffmat, "_dm_library", dict)
    test_build_general_order_256_domain(factors)


def test_linked_from_dm_reproduces_triple():
    G, sets = linked_triple_z4z4()
    E, family, bmat, emat = triple_dm_data(G)
    system = linked_from_dm(G, E, bmat, emat, family=family)
    assert [r.elements for r in system.records] == [tuple(s) for s in sets]
    assert system.munu.as_tuple() == (1, 3)


def test_linked_from_dm_worked_example():
    G, E, family, bmat, emat, expected, witness23 = order16_worked_example()
    system = linked_from_dm(G, E, bmat, emat, family=family)
    assert [r.elements for r in system.records] == expected
    assert system.witnesses[(2, 3)].elements == witness23
    # and by the direct formula from the lifted representatives
    f = [G.mul(bmat[2][j], emat[1][j - 1]) for j in range(1, 4)]
    g = [G.mul(bmat[3][j], emat[2][j - 1]) for j in range(1, 4)]
    assert witness_direct(G, family, f, g) == witness23


def test_linked_from_dm_identity_lifts():
    G = make_abelian([2, 2, 2, 2])
    E = subgroup_generated(G, [G.element(w) for w in ("x1", "x2")])
    M = dm_auto(make_abelian([2, 2]), 4)
    section = {0: 0, 1: G.element("x3"), 2: G.element("x4"),
               3: G.element("x3*x4")}
    bmat = [[section[x] for x in row] for row in M.rows]
    system = linked_from_dm(G, E, bmat[:4])
    assert system.size == 3


def test_linked_from_dm_validation():
    G, _ = linked_triple_z4z4()
    E, family, bmat, emat = triple_dm_data(G)
    with pytest.raises(ValueError):
        linked_from_dm(G, E, bmat[:2], family=family)  # too few rows
    broken = [row[:] for row in bmat]
    broken[1][1] = broken[1][2]
    with pytest.raises(ValueError):
        linked_from_dm(G, E, broken, family=family)  # not a quotient DM
    bad_lift = [row[:] for row in emat]
    bad_lift[0][0] = G.element("x1")
    with pytest.raises(ValueError):
        linked_from_dm(G, E, bmat, bad_lift, family=family)  # lift outside E


def test_linked_from_dm_rejects_each_malformed_input():
    """One case per check of the matrix, the family, the lifts and E, each
    with the message of its own check."""
    G, _ = linked_triple_z4z4()
    E, family, bmat, emat = triple_dm_data(G)
    D4xZ2 = direct_product(make_dihedral8(), make_abelian([2]))
    klein = subgroup_generated(D4xZ2, D4xZ2.element_ids(["a^2", "b"]))  # not central
    half = subgroup_generated(G, G.element_ids(["x1^2"]))
    cases = {
        "matrix must have 4 columns": (G, E, [row[:3] for row in bmat], emat, family),
        "row 0 must project to the identity coset": (G, E, bmat[1:2] + bmat[1:], emat, family),
        "hyperplane family does not belong to E": (G, E, bmat, emat, hyperplanes(half, 2)),
        r"lift choice must be 3 x 3": (G, E, bmat, emat[:2], family),
        "subgroup must be central": (D4xZ2, klein, bmat, emat, None),
        "subgroup must have order 4": (G, half, bmat, emat, None),
    }
    for message, (group, sub, rows, lifts, fam) in cases.items():
        with pytest.raises(ValueError, match=message):
            linked_from_dm(group, sub, rows, lifts, family=fam)


def test_lift_independence():
    G, _ = linked_triple_z4z4()
    E, family, bmat, _ = triple_dm_data(G)
    rng = random.Random(17)
    for _ in range(3):
        lifts = [[rng.choice(E.elements) for _ in range(3)] for _ in range(3)]
        system = linked_from_dm(G, E, bmat, lifts, family=family)
        assert system.size == 3 and system.munu.as_tuple() == (1, 3)


def test_witness_direct_matches_decomposition():
    G, _ = linked_triple_z4z4()
    E, family, bmat, emat = triple_dm_data(G)
    rng = random.Random(23)
    for _ in range(5):
        lifts = [[rng.choice(E.elements) for _ in range(3)] for _ in range(3)]
        system = linked_from_dm(G, E, bmat, lifts, family=family)
        for (i, j), stored in system.witnesses.items():
            f = [G.mul(bmat[i][c], lifts[i - 1][c - 1]) for c in range(1, 4)]
            g = [G.mul(bmat[j][c], lifts[j - 1][c - 1]) for c in range(1, 4)]
            assert witness_direct(G, family, f, g) == stored.elements


def test_witness_direct_degenerate():
    G, _ = linked_triple_z4z4()
    _, family, _, _ = triple_dm_data(G)
    f = [G.element("x1"), G.element("x2"), G.element("x1*x2")]
    with pytest.raises(ValueError):
        witness_direct(G, family, f, f)  # products all land in E
    # the corresponding product D1 D1^(-1) has identity coefficient k
    d1 = rg.from_subset(G, linked_triple_z4z4()[1][0])
    assert rg.mul(d1, rg.involution(d1)).coeffs[0] == 6


def test_build_general():
    for factors in ([8, 2, 2, 2], [8, 4, 2], [4, 4]):
        system = build_general(make_abelian(factors))
        assert system.size == 3
    with pytest.raises(ValueError):
        build_general(make_abelian([16, 2, 2]))  # exponent 16 > 2^(d+1)
    with pytest.raises(ValueError):
        build_general(make_abelian([16, 4]))  # rank 2 < d+1 = 3
    with pytest.raises(ValueError, match="d must be at least 1"):
        build_general(make_abelian([2, 2]))  # d = 0: no 4-row DM over Z2


def test_build_improved():
    expected = {(4, 2, 2, 2, 2): 7, (4, 4, 2, 2): 7, (4, 4, 4): 7}
    for factors, size in expected.items():
        system = build_improved(make_abelian(list(factors)))
        assert system.size == size
    with pytest.raises(ValueError):
        build_improved(make_abelian([2] * 6))  # exponent 2 < 2^2
    with pytest.raises(ValueError):
        build_improved(make_abelian([8, 8]))  # rank too small, e too large


def test_build_tyken():
    system = build_tyken(1, make_abelian([2]))
    assert system.size == 3 and system.group.order == 16 and not system.group.abelian
    system = build_tyken(2, make_abelian([4, 2]))
    assert system.size == 7 and system.group.order == 64
    with pytest.raises(ValueError):
        build_tyken(1, make_abelian([4]))  # wrong order for d = 1
    with pytest.raises(ValueError):
        build_tyken(2, make_abelian([8]))  # exponent 8 > 4


def test_build_nonreversible():
    for d in (1, 2):
        system = build_nonreversible(d)
        assert system.size == 2 ** (d + 1) - 1
        assert not is_reversible(system.records[0])
    with pytest.raises(ValueError):
        build_nonreversible(0)


def test_nonrev_first_set_contains_x1_not_cube():
    system = build_nonreversible(1)
    G = system.group
    d1 = set(system.records[0].elements)
    assert G.element("x1") in d1 and G.element("x1^3") not in d1


# lio.digest(system_to_json) of builds that bench/golden.json does not pin,
# recorded at 98d4e70
BUILD_DIGESTS = [
    ("tyken d=1 K=Z2", lambda: build_tyken(1, make_abelian([2])),
     "27d35124e59d88b074cfc84ff72999b7438047075d34e4790072e7b01b8e7cc5"),
    ("tyken d=3 K=Z4^2xZ2", lambda: build_tyken(3, make_abelian([4, 4, 2])),
     "ad3dd1dd3e10abab4e8b6cce80b813a63166d80b1575c6022b12d97bca93bb51"),
    ("tyken d=3 K=Z4xZ2^3", lambda: build_tyken(3, make_abelian([4, 2, 2, 2])),
     "d5b90b936d66fade01866266ec0cb199cfee7fc3174be98b1e76f2ec785a5a05"),
    ("tyken d=3 K=Z2^5", lambda: build_tyken(3, make_abelian([2] * 5)),
     "1b55484fc4d230afe70566b59a11df4011947fc25f4f824c840d41853aac2773"),
    ("nonrev d=3", lambda: build_nonreversible(3),
     "ad63fec5c057defc39548e07858da52f0cd83e191577be30234f9d02e14963f3"),
    ("improved Z4^3", lambda: build_improved(make_abelian([4, 4, 4])),
     "e48843413adbaaf93388f920b63818c445adc3f99998546908d91b6c6da205a4"),
    ("improved Z4^2xZ2^2", lambda: build_improved(make_abelian([4, 4, 2, 2])),
     "96611c730bb9c1abbea17c73053d2b5e7a5b489ec48cf1412835b8844ec6d31f"),
    ("improved Z4^4xZ2^2", lambda: build_improved(make_abelian([4, 4, 4, 4, 2, 2])),
     "aa6d31611caa8c32a2a1d1cbb67071c162d0afd89216fcbd7983adbe27016d35"),
]


@pytest.mark.parametrize("build, digest", [case[1:] for case in BUILD_DIGESTS],
                         ids=[case[0] for case in BUILD_DIGESTS])
def test_build_digests_are_pinned(build, digest):
    assert lio.digest(lio.system_to_json(build())) == digest


def test_builders_make_no_scalar_group_products(monkeypatch):
    """The drivers close subgroups, spans, orders and hyperplanes with table
    gathers: a whole build makes no ``FiniteGroup.mul`` call."""
    from linkset.groups import FiniteGroup

    calls = []
    mul = FiniteGroup.mul
    monkeypatch.setattr(FiniteGroup, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    assert make_abelian([2]).mul(1, 1) == 0 and calls == [1]  # the counter sees a call
    calls.clear()
    build_general(make_abelian([8, 2, 2, 2]))
    build_general(make_abelian([16, 4, 2, 2]))  # quotient Z8 x Z2: the library
    with monkeypatch.context() as patch:
        patch.setattr(diffmat, "_dm_library", dict)
        build_general(make_abelian([16, 4, 2, 2]))  # the same quotient by the search
    build_improved(make_abelian([4] * 5))
    build_nonreversible(2)
    build_tyken(2, make_abelian([4, 2]))
    assert calls == []

"""The census on arrays: its payload digest against the list-based
original, its counts, and the modules it leaves unimported."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linkset import io as lio
from linkset.groups import make_abelian
from linkset.search import CensusSystems, census_systems

ROOT = Path(__file__).resolve().parent.parent


def oracle_census_payload(G, systems, max_size, runtime):
    """``io.census_payload`` as it was written over lists: every system's
    sorted name lists, sorted, and one json.dumps of the whole list."""
    canon = sorted(
        [sorted(G.name_array[np.sort(np.asarray(r.elements, dtype=np.int64))].tolist()
                for r in members)
         for members in systems]
    )
    text = json.dumps({"count": len(canon), "systems": canon}, sort_keys=True,
                      separators=(",", ":"))
    return {
        "group": G.spec,
        "system_size": len(canon[0]) if canon else 0,
        "count": len(canon),
        "max_system_size": max_size,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "runtime_seconds": runtime,
    }


@pytest.mark.parametrize("factors, ell, count", [([4, 4], 2, 6144), ([2, 2, 2, 2], 2, 43008),
                                                 ([8, 2], 2, 0)])
def test_census_payload_matches_the_oracle(factors, ell, count, monkeypatch):
    """The streamed digest equals the list-based one, from the view, from a
    view with its systems and their members in another order, and in blocks
    of 1000."""
    G = make_abelian(factors)
    result = census_systems(G, 6, ell)
    systems = result.systems
    assert isinstance(systems, CensusSystems) and len(systems) == count
    want = oracle_census_payload(G, systems, result.max_size, 1.5)
    assert lio.census_payload(G, systems, result.max_size, 1.5) == want
    shuffled = CensusSystems(systems.records, systems.cliques[::-1, ::-1])
    assert lio.census_payload(G, shuffled, result.max_size, 1.5) == want
    # 1000 systems of 2 ell + 1 object tokens a block
    monkeypatch.setattr("linkset.groups.SCRATCH_BYTES",
                        1000 * np.dtype(object).itemsize * (2 * ell + 1))
    assert lio.census_payload(G, systems, result.max_size, 1.5) == want


def test_one_byte_of_scratch_changes_no_answer(monkeypatch):
    """With ``groups.SCRATCH_BYTES`` = 1 every batched loop steps one row at
    a time (the abelian test one 1 x 1 tile), and every answer is that of
    the default bound: the Z4^2 size-2 census and its digest (table checks,
    enumeration, pair pass, clique listing, digest), the Tyken system in
    D4 x Z2^3 (the counting route and the table-route products) and the
    pruned McFarland sweep (its translation classes)."""
    from linkset.diffmat import build_tyken
    from linkset.search import mcfarland_pair_sweep

    def answers():
        G = make_abelian([4, 4])
        result = census_systems(G, 6, 2)
        tyken = build_tyken(2, make_abelian([2, 2, 2]))
        sweep = mcfarland_pair_sweep(make_abelian([3, 3, 5]))
        return (lio.census_payload(G, result.systems, result.max_size, 0.0), result.counts,
                lio.system_to_json(tyken), vars(sweep) | {"runtime_seconds": 0})

    want = answers()
    monkeypatch.setattr("linkset.groups.SCRATCH_BYTES", 1)
    assert answers() == want and want[0]["count"] == 6144


def test_census_payload_size3_matches_the_oracle(z4z4, z4z4_census):
    systems = z4z4_census.systems
    want = oracle_census_payload(z4z4, systems, 3, 0.0)
    assert want["count"] == 65536 and want["system_size"] == 3
    assert lio.census_payload(z4z4, systems, 3, 0.0) == want


def test_census_payload_of_an_empty_census():
    G = make_abelian([4, 4])
    empty = CensusSystems((), np.zeros((0, 3), dtype=np.int64))
    want = oracle_census_payload(G, empty, 0, 0.0)
    assert want["count"] == want["system_size"] == 0
    assert lio.census_payload(G, empty, 0, 0.0) == want


def test_census_payload_ranks_equal_name_lists_equally(z4z4_census):
    """Two records of one set rank as one vertex, so systems are ordered by
    their name lists, not by which copy they hold."""
    systems = z4z4_census.systems
    a, x, y = (systems.records[i] for i in (0, 5, 9))
    view = CensusSystems((a, a, x, y), np.array([[0, 3], [1, 2]]))
    G = a.group
    assert lio.census_payload(G, view, 2, 0.0) == oracle_census_payload(G, view, 2, 0.0)


def test_census_systems_view_behaves_as_a_list(z4z4_census):
    systems = z4z4_census.systems
    as_list = list(systems)
    assert len(as_list) == len(systems) == 65536
    assert systems == as_list and as_list == systems and systems != as_list[:-1]
    assert systems[0] == as_list[0] and systems[-1] == as_list[-1]
    assert systems[5:8] == as_list[5:8]
    assert all(len(s) == 3 for s in as_list[:10])


def test_census_counts():
    result = census_systems(make_abelian([4, 4]), 6, 2)
    assert result.counts == {"vertices": 192, "linked_pairs": 12288,
                             "verified_pairs": 12288, "cliques": 6144}
    empty = census_systems(make_abelian([8, 2]), 6, 2)
    assert empty.counts == {"vertices": 192, "linked_pairs": 0,
                            "verified_pairs": 0, "cliques": 0}


def test_census_leaves_numpy_ma_unimported():
    """np.unique without index, inverse or count outputs imports numpy.ma
    (about 20 ms); the census and its payload use none."""
    code = ("import sys; from linkset import groups, search, io; "
            "G = groups.make_abelian([4, 4]); r = search.census_systems(G, 6, 2); "
            "p = io.census_payload(G, r.systems, r.max_size, 0.0); "
            "assert p['count'] == 6144, p; print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_the_census_leaves_no_reference_cycles_behind():
    """The recursive helpers of the enumeration and the clique listing are
    unbound when they return, so no reference cycle keeps their arrays
    alive until the next full collection; the maximum clique search holds
    no nested function at all."""
    import gc

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        census_systems(make_abelian([4, 4]), 6, 2)
        gc.collect()
        names = {getattr(obj, "__qualname__", "") for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not [name for name in names
                if name.startswith(("enumerate_difference_sets.", "_clique_indices.",
                                    "_max_clique."))]

import numpy as np
import pytest

from linkset import group_ring as rg
from linkset.groups import make_abelian
from linkset.linking import mu_nu_candidates
from linkset.search import (
    build_linking_graph,
    enumerate_difference_sets,
    enumerate_systems,
    max_system_size,
)


@pytest.fixture(scope="session")
def z4z4():
    return make_abelian([4, 4])


@pytest.fixture(scope="session")
def z4z4_census(z4z4):
    """Shared full census of Z4xZ4 with its wall time, computed once."""
    import time
    from types import SimpleNamespace

    start = time.time()
    records = enumerate_difference_sets(z4z4, 6)
    graph = build_linking_graph(z4z4, records, mu_nu_candidates(records[0].params)[0])
    systems = enumerate_systems(graph, 3)
    max_size = max_system_size(graph)
    return SimpleNamespace(records=records, graph=graph, systems=systems,
                           max_size=max_size, elapsed=time.time() - start)


def _rectangle(G, sets, munu):
    """(s, t, supports): the ordered pairs s != t of ``sets`` whose full
    product row is valued in {mu, nu}, in order of (s, t), with their
    mu-supports as one (len(s), k) int32 id array, from one ``RowProducts``
    rectangle of every set against every set."""
    n, k = len(sets), len(sets[0])
    prods = rg.RowProducts(G, rg.indicators(G, sets))(np.arange(n), np.arange(n))
    is_mu = prods == munu.mu
    two_valued = (is_mu | (prods == munu.nu)).all(axis=2) & ~np.eye(n, dtype=bool)
    s, t = np.nonzero(two_valued)
    supports = (np.flatnonzero(is_mu[s, t]) % G.order).astype(np.int32).reshape(len(s), k)
    return s, t, supports


@pytest.fixture(scope="session")
def rectangle():
    """The oracle of the pair check on a batch against itself, from the
    rectangle of every set against every set: see ``_rectangle``."""
    return _rectangle

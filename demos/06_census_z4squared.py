#!/usr/bin/env python3
"""Exhaustive census of maximum-size linking systems in Z4 x Z4.

Enumerates every (16,6,2,4)-difference set by brute force, builds the
graph whose edges are linked pairs, and lists every 3-clique: exactly
2^16 = 65536 size-3 reduced linking systems, and none of size 4.  The
same 65536 systems come out of the difference-matrix construction from
just two base matrices, 4^3 row multiples, and 2^9 lift choices; the two
enumerations coincide set-for-set.

Takes a few seconds.
"""

import time

from linkset.groups import make_abelian
from linkset.linking import mu_nu_candidates
from linkset.search import (
    build_linking_graph,
    enumerate_difference_sets,
    enumerate_systems,
    max_system_size,
)
from linkset.worked_examples import construction_side_systems

G = make_abelian([4, 4])

t0 = time.time()
records = enumerate_difference_sets(G, 6)
print(f"(16,6,2,4)-difference sets in Z4 x Z4: {len(records)}  [{time.time()-t0:.1f}s]")

munu = mu_nu_candidates(records[0].params)[0]
print(f"unique integer branch: (mu, nu) = {munu.as_tuple()}")

t0 = time.time()
graph = build_linking_graph(G, records, munu)
print(f"linking graph: {graph.num_vertices} vertices, {graph.num_edges()} edges  "
      f"[{time.time()-t0:.1f}s]")

t0 = time.time()
systems = enumerate_systems(graph, 3)
print(f"size-3 reduced linking systems: {len(systems)}  [{time.time()-t0:.1f}s]")
print(f"maximum system size: {max_system_size(graph)}")

t0 = time.time()
census = {frozenset(frozenset(r.elements) for r in members) for members in systems}
construction = construction_side_systems(G)
print(f"construction-side systems: {len(construction)}; "
      f"coincide with the census: {construction == census}  [{time.time()-t0:.1f}s]")

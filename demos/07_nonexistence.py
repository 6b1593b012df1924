#!/usr/bin/env python3
"""Nonexistence at the edge of the 2-group world.

Three computational facts:

1. In Z8 x Z2 (exponent 8), (16,6,2,4)-difference sets exist, yet no two
   of them can be linked: exhaustive search over all pairs finds nothing.

2. McFarland difference sets with q = 3 in a group of order 45: every
   pair drawn from the 9720 constructed sets fails the two-valued
   decomposition at the unique integer branch (mu, nu) = (1, 4).

3. Spence difference sets in both abelian groups of order 36 with a
   central Z3^2: all pairs fail at (mu, nu) = (8, 5).

The pair sweeps run in a pruned mode by default, testing one
representative per translation class (linking is translation-invariant);
pass mode="full" to test every ordered pair.  The Spence slot counts
(pairs that do or do not share the complemented slot) are a sample over
the first 200 distinct sets, not totals.
"""

from linkset.groups import make_abelian
from linkset.search import census_systems, mcfarland_pair_sweep, spence_pair_sweep

result = census_systems(make_abelian([8, 2]), 6, 2)
print(f"Z8 x Z2: {len(result.graph.records)} difference sets, "
      f"{result.count} linked pairs, max system size {result.max_size}")

report = mcfarland_pair_sweep(make_abelian([3, 3, 5]), mode="pruned")
print(f"\nMcFarland q=3 in Z3^2 x Z5: {report.constructed_count} constructed sets "
      f"({report.class_count} translation classes)")
print(f"  pairs tested: {report.pairs_tested}, linked: {report.linked_pairs} "
      f"[{report.runtime_seconds:.1f}s]")

for factors in ([3, 3, 2, 2], [3, 3, 4]):
    report = spence_pair_sweep(make_abelian(factors), mode="pruned")
    print(f"\nSpence in Z{factors}: {report.constructed_count} constructed sets")
    print(f"  pairs tested: {report.pairs_tested}, linked: {report.linked_pairs} "
          f"[{report.runtime_seconds:.1f}s]")
    print(f"  sampled over the first 200 distinct sets: {report.same_slot_pairs} pairs "
          f"share a complemented slot, {report.cross_slot_pairs} do not")

#!/usr/bin/env python3
"""Group difference matrices: verification, normalization, constructions.

A (G, m, 1)-difference matrix is an m x |G| array over G in which the
entrywise quotient of any two distinct rows covers G exactly once.  The
library builds them three ways: Galois-ring multiplication tables for
homogeneous groups Z_{2^e}^t, products across factor chunks, and a bounded
backtracking search that settles the remaining cases at small order.
"""

from linkset.diffmat import (
    dm_auto,
    dm_field_elementary,
    dm_galois_ring,
    dm_product,
    normalize,
    verify_dm,
)
from linkset.groups import make_abelian
from linkset.worked_examples import dm_z2z2

M = dm_z2z2()
G = M.group
print("A (Z2^2, 4, 1)-difference matrix:")
for row in M.rows:
    print("  ", [G.name(a) for a in row])
print(f"verifies: {verify_dm(M)}; normalization fixed point: {normalize(M).rows == M.rows}")

# The extremal field construction: m = |G| rows over Z_2^t.
F = dm_field_elementary(3)
print(f"\nGF(8) table gives a (Z2^3, {F.num_rows}, 1)-matrix; verified: {verify_dm(F)}")

# Galois rings extend this to exponent-4 groups (fewer rows).
R = dm_galois_ring(2, 2)
print(f"GR(4,2) gives a (Z4^2, {R.num_rows}, 1)-matrix; verified: {verify_dm(R)}")

# Products compose matrices over direct factors, keeping the smaller row count.
P = dm_product(dm_field_elementary(2), dm_galois_ring(2, 1))
print(f"product: a (Z2^2 x Z4, {P.num_rows}, 1)-matrix; verified: {verify_dm(P)}")

# The pipeline front end: ask for a row count and let it find a realization.
# Z4 x Z2 is noncyclic, so 4 rows exist; the forward-checking search finds them.
A = dm_auto(make_abelian([4, 2]), 4)
print(f"\ndm_auto(Z4 x Z2, 4): {A.num_rows} rows; verified: {verify_dm(A)}")
for row in A.rows:
    print("  ", [A.group.name(a) for a in row])

# Cyclic 2-groups stop at 2 rows: their elements do not sum to the identity,
# which a third row would force (Paige's sum argument), so absence is proved.
missing = dm_auto(make_abelian([4]), 3)
print(f"dm_auto(Z4, 3): {missing}  (proved: no such matrix)")

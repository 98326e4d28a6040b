"""Ostrowski-Brauer ovals and their refinement intersections.

Products of distances to two disc centers give ovals of Cassini; every
eigenvalue lies in the union over index pairs.  Applying this to the
shifted matrices F, G and their transposes and intersecting the four sets
can pin the remaining eigenvalues down hard - sometimes to isolated
points.
"""

import numpy as np

import eigenfence as ef

# ---- a 3x3 whose refined oval set collapses to two points -----------------

A1 = np.array([[0, 1, 0], [2, 5, 4], [0, 3, 0]], dtype=float)
pair1 = ef.Eigenpair(7.0, np.array([1, 7, 3], dtype=float))

B1 = ef.diag_similar(A1, pair1).B
odd = ef.refine_odd(B1)
print("G =\n", odd.G)
print("rows of zeros make every oval bound collapse to 0")

ovals = ef.obr_set(odd.G)
for c1, c2, bound in ovals.ovals.tolist():
    print(f"  oval centers ({c1:g}, {c2:g}) bound {bound:g}")

both = ef.RegionIntersection((ef.obr_set(odd.G), ef.obr_set(odd.G.T)))
for z in (0.0, -2.0, 0.5, -1.0, 1j):
    print(f"  {z} member: {ef.contains(both, z)}")
print("the remaining eigenvalues 0 and -2 are the only members")

# ---- a constant row-sum 3x3: the four-way intersection --------------------

A2 = np.array([[12, 6, 6], [3, 3, 18], [8, 8, 8]], dtype=float)
pair2 = ef.Eigenpair(24.0, np.ones(3))

region = ef.cassini_intersection_region(A2, pair2)
print("\nfour-way oval intersection for the row-sum matrix:")
print("  parts:", len(region.parts))
for z in (-6.0, 5.0):
    print(f"  remaining eigenvalue {z:+g} inside:", ef.contains(region, z))
print("  known eigenvalue 24 inside:", ef.contains(region, 24.0))
print("  conservative modulus cap:", round(ef.max_abs(region).value, 3))

# Brauer's guarantee holds for any matrix and its plain oval set
rng = np.random.default_rng(1)
M = rng.integers(-5, 6, size=(5, 5)).astype(float)
union = ef.obr_set(M)
print("\nrandom 5x5: every eigenvalue inside its own oval union:",
      all(ef.contains(union, z) for z in ef.eigenvalues(M).values))

"""Fence in the non-Perron eigenvalues of a nonnegative matrix.

A 6x6 nonnegative irreducible matrix with a known Perron pair
(lambda = 24, v = (2,1,1,1,1,1)).  Scaling by diag(v) turns it into a
constant row-sum matrix B; the second-type discs of B^T then trap every
other eigenvalue, usually in far less area than the classic Gershgorin
discs.
"""

import numpy as np

import eigenfence as ef

A = np.array([
    [10, 4, 8, 4, 6, 6],
    [2, 6, 6, 2, 4, 2],
    [1, 4, 8, 4, 2, 4],
    [0, 6, 8, 4, 0, 6],
    [4, 4, 6, 0, 2, 4],
    [1, 4, 6, 2, 4, 6]], dtype=float)

pair = ef.Eigenpair(24.0, np.array([2, 1, 1, 1, 1, 1], dtype=float))
print("eigenpair residual:", ef.check_eigenpair(A, pair))

B = ef.diag_similar(A, pair).B
print("\nconstant row-sum similar matrix B (row sums all 24):")
print(B)

region = ef.second_type_discs_of_transpose(B)
print("\nsecond-type discs of B^T (center, radius):")
for c, r in region.discs.tolist():
    print(f"  ({c:g}, {r:g})")

classic = ef.classic_discs(A, "columns")
print("\nclassic column discs of A for comparison:")
for c, r in classic.discs.tolist():
    print(f"  ({c:g}, {r:g})")

print("\nfarthest reach from origin: second-type",
      ef.max_abs(region).value, "vs classic", ef.max_abs(classic).value)

# the dense solver plays referee: every eigenvalue except 24 must be inside
spectrum = ef.eigenvalues(A)
print("\nspectrum:", np.round(spectrum.values, 3))
for z in ef.nontrivial_values(spectrum, 24.0):
    print(f"  {z:.3f} inside region: {ef.contains(region, z)}")
print("known eigenvalue 24 inside region:", ef.contains(region, 24.0),
      "(the region never needs to cover it)")

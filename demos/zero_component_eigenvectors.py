"""When the known eigenvector has zero components.

Diagonal scaling needs a zero-free eigenvector.  A permutation moves the
zeros first, then a unit shear (whose inverse is free) produces a similar
matrix C whose eigenvector w has no zeros at all; from there the usual
pipeline applies.
"""

import numpy as np

import eigenfence as ef

A = np.array([
    [7, -10, -2, 2],
    [5, -8, -2, 2],
    [-5, 12, 4, -4],
    [-1, 4, 1, -1]], dtype=float)

pair = ef.Eigenpair(0.0, np.array([0, 0, 1, 1], dtype=float))
print("eigenvector has zeros at positions 0 and 1")

d = ef.desingularize(A, pair)
print("zeros-first order:", d.perm, " zero count:", d.k)
print("C = shear(permuted A):\n", d.C)
print("new eigenvector w:", d.w, " (no zeros, C w = 0)")

# C already has constant row sums (w = e here), so refine directly
F = ef.refine_even(d.C).matrices["F"]
print("\nrefined matrix F:\n", F)

region = ef.second_type_discs_of_transpose(F)
print("refined discs:", [tuple(disc) for disc in region.discs.tolist()])

print("\nspectrum of A:", np.round(ef.eigenvalues(A).real, 6))
print("spectrum of C:", np.round(ef.eigenvalues(d.C).real, 6))
for z in (-1.0, 1.0, 2.0):
    print(f"  remaining eigenvalue {z:+g} inside refined region:",
          region.contains_points(z))

# the interleaved case: zeros move first but keep their relative order
M = np.array([[2.0, 1, 1], [0, 3, 0], [1, 1, 2]])
v = np.array([1.0, 0.0, 1.0])
d2 = ef.desingularize(M, ef.Eigenpair(3.0, v))
print("\ninterleaved zeros: order", d2.perm, "-> w =", d2.w)

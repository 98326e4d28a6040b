"""Shrink the inclusion region by per-column shifts.

Even size: subtracting the (n/2)-th largest off-diagonal entry from each
column of B gives F, whose second-type region is a subset of B's and still
contains every non-trivial eigenvalue.  Odd size: two shifted matrices F
and G; the region is the union over columns of the intersection of the two
per-column discs.
"""

import numpy as np

import eigenfence as ef

# ---- even case: the 6x6 from the locate demo ------------------------------

A6 = np.array([
    [10, 4, 8, 4, 6, 6],
    [2, 6, 6, 2, 4, 2],
    [1, 4, 8, 4, 2, 4],
    [0, 6, 8, 4, 0, 6],
    [4, 4, 6, 0, 2, 4],
    [1, 4, 6, 2, 4, 6]], dtype=float)
pair6 = ef.Eigenpair(24.0, np.array([2, 1, 1, 1, 1, 1], dtype=float))

B6 = ef.diag_similar(A6, pair6).B
ref = ef.refine_even(B6)
F6 = ref.matrices["F"]
print("column offsets added to B:", ref.offsets["F"])
print("F =\n", F6)

fine = ef.second_type_discs_of_transpose(F6)
coarse = ef.second_type_discs_of_transpose(B6)
print("refined discs:", [tuple(d) for d in fine.discs.tolist()])
print("refined region inside the original:",
      ef.sampled_subset(fine, coarse, resolution=128).is_subset)
for z in ef.nontrivial_values(ef.eigenvalues(A6), 24.0):
    assert fine.contains_points(z)
print("all five remaining eigenvalues stay inside the refined region")

# ---- odd case: a 7x7 with Perron pair (15, (3,2,1,1,1,1,1)) ----------------

A7 = np.array([
    [2, 3, 6, 9, 6, 6, 6],
    [2, 2, 4, 0, 4, 6, 6],
    [0, 1, 3, 2, 4, 2, 2],
    [2, 1, 2, 0, 2, 1, 2],
    [1, 2, 1, 3, 0, 3, 1],
    [2, 0, 1, 3, 1, 4, 0],
    [0, 3, 3, 2, 1, 2, 1]], dtype=float)
pair7 = ef.Eigenpair(15.0, np.array([3, 2, 1, 1, 1, 1, 1], dtype=float))

B7 = ef.diag_similar(A7, pair7).B
odd = ef.refine_odd(B7)
print("\nodd-size offsets for F:", odd.offsets["F"], " for G:", odd.offsets["G"])

region = odd.region()
print("disc pairs (F disc | G disc):")
for (ca, ra), (cb, rb) in region.pairs.tolist():
    print(f"  ({ca:g},{ra:g}) | ({cb:g},{rb:g})")

# for this matrix the whole union collapses into the first pair's disc
coarse7 = ef.second_type_discs_of_transpose(B7)
print("region inside the unrefined one:",
      ef.sampled_subset(region, coarse7).is_subset)
for z in ef.nontrivial_values(ef.eigenvalues(A7), 15.0):
    assert region.contains_points(z)
print("all six remaining eigenvalues inside the pairwise-intersection region")

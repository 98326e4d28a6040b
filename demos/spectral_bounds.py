"""Upper bounds on the largest remaining eigenvalue, four ways.

The farthest point of any inclusion region bounds the remaining
eigenvalues; the disc regions make that explicit.  Two semi-norms with
closed forms (half max row L1 distance; max column top/bottom gap) bound
them too, tighten when applied to matrix powers, and yield a determinant
bound as a byproduct.
"""

import numpy as np

import eigenfence as ef

A = np.array([
    [4, 3, 4, 6],
    [8, 4, 8, 16],
    [16, 8, 2, 12],
    [6, 3, 4, 4]], dtype=float)
pair = ef.Eigenpair(24.0, np.array([1, 2, 2, 1], dtype=float))

B = ef.diag_similar(A, pair).B
F = ef.refine_even(B).matrices["F"]
print("B =\n", B)
print("F =\n", F)

print("\ndisc bound from B :", ef.second_type_discs_of_transpose(B).max_abs().value)
print("disc bound from F :", ef.second_type_discs_of_transpose(F).max_abs().value,
      " (|lambda_2| is 6: tight)")

# F has the eigenpair (row sum, ones), on which the similarity step returns
# F itself: the tau rows of its report are the powered bounds of F
f_pair = ef.Eigenpair(F[0].sum(), np.ones(len(F)))
table = {r.name: r.value for r in ef.standard_reports(F, f_pair, ks=(1, 2, 3))}
print("\nsemi-norm power table for F:")
print("  k | tau_inf(F^k)^(1/k) | tau_1(F^k)^(1/k)")
for k in (1, 2, 3):
    print(f"  {k} | {table[f'tauinf_k{k}']:18.4f} | {table[f'tau1_k{k}']:16.4f}")

spectrum = ef.eigenvalues(A)
largest_rest = max(abs(z) for z in ef.nontrivial_values(spectrum, 24.0))
print("largest remaining |eigenvalue|:", round(largest_rest, 6))

det = ef.determinant(A)
for r in ef.standard_reports(A, pair, kinds=(ef.SemiNorm.LINF,), include_det=True):
    if r.name.startswith("det_"):
        print(f"determinant bound (k={r.k}): |det| = {abs(det):g} <= {r.value:g}")

# the full report the CLI emits, as plain objects
print("\nstandard report:")
for r in ef.standard_reports(A, pair, ks=(1, 2, 3)):
    print(f"  {r.name:12s} {r.value:10.4f}   from {r.source}")

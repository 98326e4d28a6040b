"""Exact reference for the column kernels, in stdlib ``fractions``.

``Fraction(x)`` of a float is exact, so every quantity here is the exact
value for the float input: second-type radii, the refinement shifts and
shifted matrices, refined radii, ``tau_inf``, ``tau1`` and deleted row
sums.

*Rounding contract.*  With unit roundoff ``u = 2^-53`` and
``gamma_n = n u / (1 - n u)`` (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., ch. 3-4), a float kernel on an n x n
matrix M may differ from the exact value by at most

* ``gamma_n sum_i |m_ij|`` for the second-type radius of column j;
* ``gamma_(n+1) sum_i |f_ij|`` for a refined radius, f the exact shifted
  column, whose float entries carry the rounding of the shift;
* ``gamma_n max_j sum_i |m_ij|`` for ``tau_inf``;
* ``gamma_n`` times the exact value for ``tau1``: each float64 pair sum
  is n rounded differences summed, so within ``gamma_n`` of its exact
  distance, and the maximum of such sums within ``gamma_n`` of the
  largest distance; halving is exact;
* ``gamma_(n+1) max_j sum_i |m_ij|`` for the disc bound ``m_B``, the
  largest ``|m_jj| + r_j``, and ``gamma_(n+2) max_j sum_i |f_ij|`` for
  ``m_F`` and ``m_G``: one more rounding in the sum;
* nothing for the shifts, which are entries of B;
* ``gamma_(n-1) R_i`` for a deleted row sum ``R_i = sum_(k != i) |m_ik|``
  (the classic radius and the Ostrowski-Brauer ``R_i``): its n - 1 terms
  are nonnegative, so their absolute sum is ``R_i`` itself.  Taking
  ``|m_ii|`` from the whole row's sum instead cancels: it can lose every
  digit of ``R_i``.

Each gap is a top-half sum minus a bottom-half sum of at most n terms:
any order of summing m terms is within ``gamma_(m-1)`` of their absolute
sum, and the subtraction adds one rounding.  A gap moves by at most the
L1 distance between its inputs, so a shifted entry's rounding adds at
most ``u |f_ij|``.
"""

import itertools
from fractions import Fraction

import numpy as np

U = Fraction(1, 2 ** 53)


def gamma(n: int) -> Fraction:
    return n * U / (1 - n * U)


def exact(matrix) -> list[list[Fraction]]:
    """The float matrix as rows of exact fractions."""
    return [[Fraction(x) for x in row] for row in np.asarray(matrix, dtype=float).tolist()]


def columns(q) -> list[list[Fraction]]:
    return [list(col) for col in zip(*q)]


def off_diagonal(q) -> list[list[Fraction]]:
    """Each column's entries without its diagonal one."""
    return [col[:j] + col[j + 1:] for j, col in enumerate(columns(q))]


def total(values) -> Fraction:
    """Exact sum of dyadic fractions (every float, and every sum of floats,
    is one), over their largest denominator: ``sum`` would take a gcd per term."""
    values = list(values)
    d = max((v.denominator for v in values), default=1)
    return Fraction(sum(v.numerator * (d // v.denominator) for v in values), d)


def descending(values) -> list[Fraction]:
    """The dyadic values in non-increasing order, compared exactly as
    integers over their largest denominator, as :func:`total` sums them."""
    values = list(values)
    d = max((v.denominator for v in values), default=1)
    return sorted(values, key=lambda v: v.numerator * (d // v.denominator), reverse=True)


def gap(values) -> Fraction:
    """Sum of the top half of the values minus the sum of the bottom half
    (the middle one skipped when the count is odd)."""
    desc = descending(values)
    h = len(desc) // 2
    return total(desc[:h]) - total(desc[len(desc) - h:])


def second_type_radii(q) -> list[Fraction]:
    """Radius of each column: its off-diagonal entries and the mandated 0."""
    return [gap(col + [Fraction(0)]) for col in off_diagonal(q)]


def tau_inf(q) -> Fraction:
    """Largest gap of a column's n entries, diagonal included."""
    return max(gap(col) for col in columns(q))


def tau1(q) -> Fraction:
    """Half the largest L1 distance between two rows.  The rows are taken
    as integers over the matrix's largest denominator, so each pair costs
    integer arithmetic only."""
    d = max((x.denominator for row in q for x in row), default=1)
    rows = [[x.numerator * (d // x.denominator) for x in row] for row in q]
    far = max((sum(abs(a - b) for a, b in zip(p, r)) for p, r in itertools.combinations(rows, 2)),
              default=0)
    return Fraction(far, 2 * d)


def disc_bound(q) -> Fraction:
    """Reach of the second-type discs: the largest ``|m_jj| + r_j``."""
    return max(abs(q[j][j]) + r for j, r in enumerate(second_type_radii(q)))


def offsets(q) -> dict[str, list[Fraction]]:
    """What the refinement adds to each column, by shifted matrix: minus the
    (n/2)-th largest off-diagonal entry (F, even n), or minus the
    ((n-1)/2)-th (F) and ((n+1)/2)-th (G) largest (odd n)."""
    n = len(q)
    desc = [descending(col) for col in off_diagonal(q)]
    ranks = {"F": n // 2} if n % 2 == 0 else {"F": (n - 1) // 2, "G": (n + 1) // 2}
    return {name: [-col[k - 1] for col in desc] for name, k in ranks.items()}


def shifted(q, off) -> list[list[Fraction]]:
    """``B + e off^T``."""
    return [[x + s for x, s in zip(row, off)] for row in q]


def deleted_row_sums(q) -> list[Fraction]:
    """Each row's absolute sum without its diagonal entry."""
    return [total(abs(x) for k, x in enumerate(row) if k != i) for i, row in enumerate(q)]


def abs_column_sums(q) -> list[Fraction]:
    return [total(abs(x) for x in col) for col in columns(q)]


def within(got, want: Fraction, bound: Fraction) -> bool:
    """Whether the float ``got`` is within ``bound`` of the exact ``want``."""
    return abs(Fraction(float(got)) - want) <= bound

"""Exact reference for the column kernels, in Python integers.

A float is a dyadic rational, so a float matrix is exactly a matrix of
Python ints over one power-of-two denominator, its entries' largest
(:class:`Dyadic`).  Sums, differences and comparisons of its entries are
then integer operations, and every quantity here is the exact value for
the float input, as a stdlib ``Fraction``: the diagonal similarity and
its row-sum defects, second-type radii, the refinement shifts and shifted
matrices, refined radii, ``tau_inf``, ``tau1`` and deleted row sums.

*Rounding contract.*  With unit roundoff ``u = 2^-53`` and
``gamma_n = n u / (1 - n u)`` (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., ch. 3-4), a float kernel on an n x n
matrix M may differ from the exact value by at most

* ``gamma_2 |a_ij v_j / v_i|`` for an entry of the diagonal similarity
  ``B = S^-1 A S``, ``S = diag(v)``: ``fl(fl(v_j / v_i) a_ij)`` is two
  roundings (:func:`similar`);
* ``gamma_2 sum_j |a_ij v_j / v_i|`` between the exact sum of B's computed
  row i and ``lambda + d_i``, the exact similar row's sum, with the
  row-sum defect ``d_i = r_i / v_i`` of the residual ``r = A v - lambda v``
  (:func:`row_sum_defects`), as each computed entry carries its own two
  roundings;
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


class Dyadic:
    """A matrix of dyadic rationals: entry ``(i, j)`` is ``rows[i][j] / d``,
    with ``rows`` lists of Python ints and ``d`` a power of two."""

    __slots__ = ("rows", "d")

    def __init__(self, rows: list[list[int]], d: int):
        self.rows, self.d = rows, d

    def __len__(self) -> int:
        return len(self.rows)


def exact(matrix) -> Dyadic:
    """The float matrix, exactly, over its entries' largest denominator."""
    ratios = [[x.as_integer_ratio() for x in row]
              for row in np.asarray(matrix, dtype=float).tolist()]
    d = max((den for row in ratios for _, den in row), default=1)
    return Dyadic([[num * (d // den) for num, den in row] for row in ratios], d)


def floats(q: Dyadic) -> list[list[float]]:
    """Each entry correctly rounded to a float (``int / int`` is)."""
    return [[x / q.d for x in row] for row in q.rows]


def similar(matrix, vector) -> list[list[Fraction]]:
    """``a_ij v_j / v_i``: the diagonal similarity ``S^-1 A S`` of the float
    A and v, with ``S = diag(v)``."""
    v = list(map(Fraction, np.asarray(vector, dtype=float).tolist()))
    return [[Fraction(a) * vj / vi for a, vj in zip(row, v)]
            for row, vi in zip(np.asarray(matrix, dtype=float).tolist(), v)]


def row_sum_defects(matrix, value: float, vector) -> list[Fraction]:
    """``d_i = r_i / v_i`` with the residual ``r = A v - lambda v``: row i
    of the exact :func:`similar` matrix sums to ``lambda + d_i``."""
    v = list(map(Fraction, np.asarray(vector, dtype=float).tolist()))
    return [(sum(map(Fraction.__mul__, map(Fraction, row), v)) - Fraction(value) * vi) / vi
            for row, vi in zip(np.asarray(matrix, dtype=float).tolist(), v)]


def columns(q: Dyadic) -> Dyadic:
    return Dyadic([list(col) for col in zip(*q.rows)], q.d)


def off_diagonal(q: Dyadic) -> list[list[int]]:
    """Each column's entries without its diagonal one."""
    return [col[:j] + col[j + 1:] for j, col in enumerate(columns(q).rows)]


def gap(values: list[int]) -> int:
    """Sum of the top half of the values minus the sum of the bottom half
    (the middle one skipped when the count is odd)."""
    desc = sorted(values, reverse=True)
    h = len(desc) // 2
    return sum(desc[:h]) - sum(desc[len(desc) - h:])


def _radii(q: Dyadic) -> list[int]:
    """Numerators of :func:`second_type_radii` over ``q.d``."""
    return [gap(col + [0]) for col in off_diagonal(q)]


def second_type_radii(q: Dyadic) -> list[Fraction]:
    """Radius of each column: its off-diagonal entries and the mandated 0."""
    return [Fraction(r, q.d) for r in _radii(q)]


def tau_inf(q: Dyadic) -> Fraction:
    """Largest gap of a column's n entries, diagonal included."""
    return Fraction(max(gap(col) for col in columns(q).rows), q.d)


def tau1(q: Dyadic) -> Fraction:
    """Half the largest L1 distance between two rows."""
    far = max((sum(abs(a - b) for a, b in zip(p, r)) for p, r in itertools.combinations(q.rows, 2)),
              default=0)
    return Fraction(far, 2 * q.d)


def disc_bound(q: Dyadic) -> Fraction:
    """Reach of the second-type discs: the largest ``|m_jj| + r_j``."""
    return Fraction(max(abs(q.rows[j][j]) + r for j, r in enumerate(_radii(q))), q.d)


def offsets(q: Dyadic) -> dict[str, list[Fraction]]:
    """What the refinement adds to each column, by shifted matrix: minus the
    (n/2)-th largest off-diagonal entry (F, even n), or minus the
    ((n-1)/2)-th (F) and ((n+1)/2)-th (G) largest (odd n)."""
    n = len(q)
    desc = [sorted(col, reverse=True) for col in off_diagonal(q)]
    ranks = {"F": n // 2} if n % 2 == 0 else {"F": (n - 1) // 2, "G": (n + 1) // 2}
    return {name: [Fraction(-col[k - 1], q.d) for col in desc] for name, k in ranks.items()}


def shifted(q: Dyadic, off) -> Dyadic:
    """``B + e off^T``, for dyadic ``off`` (such as :func:`offsets`)."""
    off = list(map(Fraction, off))
    d = max([q.d] + [s.denominator for s in off])
    ints = [s.numerator * (d // s.denominator) for s in off]
    scale = d // q.d
    return Dyadic([[x * scale + s for x, s in zip(row, ints)] for row in q.rows], d)


def deleted_row_sums(q: Dyadic) -> list[Fraction]:
    """Each row's absolute sum without its diagonal entry."""
    return [Fraction(sum(map(abs, row)) - abs(row[i]), q.d) for i, row in enumerate(q.rows)]


def abs_column_sums(q: Dyadic) -> list[Fraction]:
    return [Fraction(sum(map(abs, col)), q.d) for col in zip(*q.rows)]


def within(got, want: Fraction, bound: Fraction) -> bool:
    """Whether the float ``got`` is within ``bound`` of the exact ``want``."""
    return abs(Fraction(float(got)) - want) <= bound

"""Column-shift refinements that shrink the second-type inclusion region.

For a constant row-sum matrix B, subtracting a per-column order statistic
of the off-diagonal entries from each column yields a new constant row-sum
matrix whose second-type region is contained in that of B^T and still
holds every non-trivial eigenvalue.  Even sizes use one shifted matrix F;
odd sizes use a pair F, G whose per-column disc intersections form the
refined region, a :class:`~eigenfence.geometry.PairIntersectionUnion`.
:func:`refinement` builds both parities from one sort of the columns and
checks the constant row sum once, with :func:`row_sum_constant`;
:func:`refine_even` and :func:`refine_odd` call it and insist on a parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvenSizeError, NotConstantRowSumError, OddSizeError, SizeError, as_matrix
from .discs import second_type_discs_of_transpose, sorted_columns
from .geometry import DiscUnion, PairIntersectionUnion

#: Relative tolerance on the spread of the row sums of a constant row-sum matrix.
ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class EvenRefinement:
    """Shifted matrix F = B - e * shifts^T for even n."""

    F: np.ndarray
    shifts: np.ndarray

    @property
    def matrices(self) -> dict[str, np.ndarray]:
        return {"F": self.F}

    def region(self) -> DiscUnion:
        """Refined region: the second-type disc union of F^T."""
        return second_type_discs_of_transpose(self.F)


@dataclass(frozen=True)
class OddRefinement:
    """Shifted pair F = B + e * f_shifts^T, G = B + e * g_shifts^T for odd n."""

    F: np.ndarray
    G: np.ndarray
    f_shifts: np.ndarray
    g_shifts: np.ndarray

    @property
    def matrices(self) -> dict[str, np.ndarray]:
        return {"F": self.F, "G": self.G}

    def region(self) -> PairIntersectionUnion:
        """Union over columns of (disc from F column j) ∩ (disc from G column j)."""
        f_discs = second_type_discs_of_transpose(self.F).discs
        g_discs = second_type_discs_of_transpose(self.G).discs
        return PairIntersectionUnion(np.stack((f_discs, g_discs), axis=1))


def row_sum_constant(matrix) -> float:
    """The shared row sum of a constant row-sum matrix, already validated
    by :func:`~eigenfence.core.as_matrix`.

    Raises NotConstantRowSumError when the row sums deviate by more than
    ``ROW_SUM_TOL * (1 + |mean sum|)``.
    """
    sums = np.sum(matrix, axis=1)
    lam = float(sums.mean())
    spread = float(sums.max() - sums.min())
    if spread > ROW_SUM_TOL * (1.0 + abs(lam)):
        raise NotConstantRowSumError(
            f"row sums spread {spread:.3e} exceeds tolerance (mean sum {lam:g})")
    return lam


def refinement(matrix) -> EvenRefinement | OddRefinement:
    """The refinement of a constant row-sum matrix for its parity: F for
    even n, the pair F, G for odd n."""
    b = as_matrix(matrix)
    n = b.shape[0]
    if n < 3:
        raise SizeError(f"refinement needs n >= 3, got n = {n}")
    row_sum_constant(b)
    desc = sorted_columns(b, -np.inf)
    if n % 2 == 0:
        shifts = desc[:, n // 2 - 1].copy()
        ref = EvenRefinement(F=b - shifts, shifts=shifts)
    else:
        f_shifts, g_shifts = -desc[:, (n - 1) // 2 - 1], -desc[:, (n + 1) // 2 - 1]
        ref = OddRefinement(F=b + f_shifts, G=b + g_shifts, f_shifts=f_shifts, g_shifts=g_shifts)
    for arr in vars(ref).values():
        arr.setflags(write=False)
    return ref


def refine_even(matrix) -> EvenRefinement:
    """Even-size refinement: subtract the (n/2)-th largest off-diagonal per column."""
    ref = refinement(matrix)
    if not isinstance(ref, EvenRefinement):
        raise OddSizeError(f"even-size refinement called with odd n = {ref.F.shape[0]}")
    return ref


def refine_odd(matrix) -> OddRefinement:
    """Odd-size refinement pair.

    Per column, F adds the negated ((n-1)/2)-th largest off-diagonal entry
    and G the negated ((n+1)/2)-th largest ("k-th largest" counts
    multiplicity).
    """
    ref = refinement(matrix)
    if not isinstance(ref, OddRefinement):
        raise EvenSizeError(f"odd-size refinement called with even n = {ref.F.shape[0]}")
    return ref


def refined_region(matrix):
    """Refined inclusion region of a constant row-sum matrix, any parity.

    Even n: the second-type disc union of F^T.  Odd n: the per-column
    pair-intersection union.
    """
    return refinement(matrix).region()

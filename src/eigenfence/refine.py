"""Column-shift refinements that shrink the second-type inclusion region.

For a constant row-sum matrix B, subtracting a per-column order statistic
of the off-diagonal entries from each column yields a new constant row-sum
matrix whose second-type region is contained in that of B^T and still
holds every non-trivial eigenvalue.  Even sizes use one shifted matrix F;
odd sizes use a pair F, G whose per-column disc intersections form the
refined region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvenSizeError, NotConstantRowSumError, OddSizeError, SizeError, as_matrix
from .discs import (MEMBERSHIP_EPS, _inside_discs, _members, _records, _table,
                    second_type_discs_of_transpose, sorted_columns)


@dataclass(frozen=True)
class EvenRefinement:
    """Shifted matrix F = B - e * shifts^T for even n."""

    F: np.ndarray
    shifts: np.ndarray


@dataclass(frozen=True)
class OddRefinement:
    """Shifted pair F = B + e * f_shifts^T, G = B + e * g_shifts^T for odd n."""

    F: np.ndarray
    G: np.ndarray
    f_shifts: np.ndarray
    g_shifts: np.ndarray


def _inside_pairs(z, table) -> np.ndarray:
    """Membership of points z in both discs of each [F disc, G disc] pair."""
    return _inside_discs(z, table[..., 0, :]) & _inside_discs(z, table[..., 1, :])


@dataclass(frozen=True, eq=False)
class PairIntersectionUnion:
    """Union over columns j of the intersection of the two per-column discs;
    ``pairs`` is a read-only ``(n, 2, 2)`` array of [F disc, G disc] per
    column, each disc a [center, radius] row."""

    pairs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pairs", _table(self.pairs, (2, 2), "disc pair union"))

    def __len__(self) -> int:
        return len(self.pairs)

    def contains_points(self, z) -> np.ndarray:
        return _members(z, self.pairs, _inside_pairs)

    def bounding_box(self) -> tuple[float, float, float, float]:
        c, r = self.pairs[..., 0], self.pairs[..., 1]
        x0, x1, reach = (c - r).max(axis=1), (c + r).min(axis=1), r.min(axis=1)
        keep = x0 <= x1
        keep = keep if keep.any() else ~keep   # no pair overlaps: fall back to all
        return (float(x0[keep].min()), float(x1[keep].max()),
                -float(reach[keep].max()), float(reach[keep].max()))

    def to_json(self) -> dict:
        discs = _records(("center", "radius"), self.pairs.reshape(-1, 2))
        return {"kind": "pairwise_intersection_union",
                "pairs": list(map(list, zip(discs[::2], discs[1::2])))}


def row_sum_constant(matrix, rel_tol: float = MEMBERSHIP_EPS) -> float:
    """The shared row sum of a constant row-sum matrix.

    Raises NotConstantRowSumError when the row sums deviate by more than
    ``rel_tol * (1 + |mean sum|)``.
    """
    m = as_matrix(matrix)
    sums = m.sum(axis=1)
    lam = float(sums.mean())
    spread = float(sums.max() - sums.min())
    if spread > rel_tol * (1.0 + abs(lam)):
        raise NotConstantRowSumError(
            f"row sums spread {spread:.3e} exceeds tolerance (mean sum {lam:g})")
    return lam


def refine_even(matrix) -> EvenRefinement:
    """Even-size refinement: subtract the (n/2)-th largest off-diagonal per column."""
    b = as_matrix(matrix)
    n = b.shape[0]
    if n % 2:
        raise OddSizeError(f"even-size refinement called with odd n = {n}")
    if n < 4:
        raise SizeError(f"even-size refinement needs n >= 4, got n = {n}")
    row_sum_constant(b)
    shifts = sorted_columns(b, -np.inf)[:, n // 2 - 1].copy()
    f = b - shifts[None, :]
    f.setflags(write=False)
    shifts.setflags(write=False)
    return EvenRefinement(F=f, shifts=shifts)


def refine_odd(matrix) -> OddRefinement:
    """Odd-size refinement pair.

    Per column, F adds the negated ((n-1)/2)-th largest off-diagonal entry
    and G the negated ((n+1)/2)-th largest ("k-th largest" counts
    multiplicity).
    """
    b = as_matrix(matrix)
    n = b.shape[0]
    if n % 2 == 0:
        raise EvenSizeError(f"odd-size refinement called with even n = {n}")
    if n < 3:
        raise SizeError(f"odd-size refinement needs n >= 3, got n = {n}")
    row_sum_constant(b)
    desc = sorted_columns(b, -np.inf)
    f_shifts = -desc[:, (n - 1) // 2 - 1]
    g_shifts = -desc[:, (n + 1) // 2 - 1]
    f = b + f_shifts[None, :]
    g = b + g_shifts[None, :]
    for arr in (f, g, f_shifts, g_shifts):
        arr.setflags(write=False)
    return OddRefinement(F=f, G=g, f_shifts=f_shifts, g_shifts=g_shifts)


def refined_region_odd(matrix) -> PairIntersectionUnion:
    """Union over columns of (disc from F column j) ∩ (disc from G column j)."""
    ref = refine_odd(matrix)
    f_discs = second_type_discs_of_transpose(ref.F).discs
    g_discs = second_type_discs_of_transpose(ref.G).discs
    return PairIntersectionUnion(np.stack((f_discs, g_discs), axis=1))


def fg_intersection_region(matrix):
    """Intersection of the full second-type regions of F^T and G^T (odd n).

    Coarser than :func:`refined_region_odd` but has a simpler two-part
    shape.  Returns a :class:`eigenfence.geometry.RegionIntersection`.
    """
    from .geometry import RegionIntersection

    ref = refine_odd(matrix)
    return RegionIntersection((
        second_type_discs_of_transpose(ref.F),
        second_type_discs_of_transpose(ref.G),
    ))


def refined_region(matrix):
    """Refined inclusion region of a constant row-sum matrix, any parity.

    Even n: the second-type disc union of F^T.  Odd n: the per-column
    pair-intersection union.
    """
    b = as_matrix(matrix)
    if b.shape[0] % 2 == 0:
        return second_type_discs_of_transpose(refine_even(b).F)
    return refined_region_odd(b)

"""Ostrowski-Brauer sets: unions of ovals of Cassini.

Every eigenvalue of a matrix M lies in the union, over index pairs i < j,
of the ovals { z : |z - m_ii| |z - m_jj| <= R_i R_j } with R_i the deleted
absolute row sum.  Combined with the column-shift refinements this yields
a four-way (odd n) or two-way (even n) intersection region for the
eigenvalues other than the known one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Eigenpair, SizeError, as_matrix
from .discs import MEMBERSHIP_EPS, _members, _records, _table, constant_row_sum_similar
from .refine import refine_even, refine_odd


def _inside_ovals(z, table) -> np.ndarray:
    """Membership of points z in each oval of a [c1, c2, bound] table."""
    c1, c2, b = table[..., 0].astype(complex), table[..., 1].astype(complex), table[..., 2]
    return np.abs(z - c1) * np.abs(z - c2) <= b + MEMBERSHIP_EPS * (1.0 + b)


@dataclass(frozen=True, eq=False)
class CassiniUnion:
    """Union of ovals of Cassini ``|z - c1| * |z - c2| <= bound``; ``ovals``
    is a read-only ``(m, 3)`` array of [c1, c2, bound] rows."""

    ovals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ovals", _table(self.ovals, (3,), "Cassini union"))

    def __len__(self) -> int:
        return len(self.ovals)

    def contains_points(self, z) -> np.ndarray:
        return _members(z, self.ovals, _inside_ovals)

    def bounding_box(self) -> tuple[float, float, float, float]:
        # every member is within sqrt(bound) of the nearer focus
        c1, c2, b = self.ovals.T
        reach = np.sqrt(b)
        return (float((np.minimum(c1, c2) - reach).min()),
                float((np.maximum(c1, c2) + reach).max()),
                -float(reach.max()), float(reach.max()))

    def to_json(self) -> dict:
        return {"kind": "cassini_union", "ovals": _records(("c1", "c2", "bound"), self.ovals)}


def obr_set(matrix) -> CassiniUnion:
    """Ostrowski-Brauer set of M: one oval per index pair i < j, in order."""
    m = as_matrix(matrix)
    n = m.shape[0]
    if n < 2:
        raise SizeError(f"Ostrowski-Brauer set needs n >= 2, got n = {n}")
    d = np.diagonal(m)
    deleted = np.abs(m).sum(axis=1) - np.abs(d)
    i, j = np.triu_indices(n, 1)
    return CassiniUnion(np.column_stack((d[i], d[j], deleted[i] * deleted[j])))


def cassini_intersection_region(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL):
    """Intersection of Ostrowski-Brauer sets of the refinement matrices.

    Builds the constant row-sum similar matrix, refines it, and intersects
    the sets of F and F^T (even n), additionally of G and G^T (odd n).
    Contains every eigenvalue of A other than the known one.  Returns a
    :class:`eigenfence.geometry.RegionIntersection`.
    """
    from .geometry import RegionIntersection

    a = as_matrix(matrix)
    if a.shape[0] < 3:
        raise SizeError(f"refined Cassini region needs n >= 3, got n = {a.shape[0]}")
    b = constant_row_sum_similar(a, pair, tol)
    if b.shape[0] % 2 == 0:
        f = refine_even(b).F
        parts = (obr_set(f), obr_set(f.T))
    else:
        ref = refine_odd(b)
        parts = (obr_set(ref.F), obr_set(ref.F.T), obr_set(ref.G), obr_set(ref.G.T))
    return RegionIntersection(parts)

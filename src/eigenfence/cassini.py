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
from .discs import MEMBERSHIP_EPS, _members, _records, _table
from .refine import refinement
from .similarity import prepare


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
    """:func:`obr_intersection` of the constant row-sum matrix similar to A:
    contains every eigenvalue of A other than the known one."""
    return obr_intersection(prepare(matrix, pair, tol).B)


def obr_intersection(matrix):
    """Intersection of the Ostrowski-Brauer sets of F and F^T (and of G and
    G^T for odd n), the refinement of a constant row-sum matrix B.  Returns
    a :class:`eigenfence.geometry.RegionIntersection`."""
    from .geometry import RegionIntersection

    return RegionIntersection(tuple(obr_set(part) for m in refinement(matrix).matrices.values()
                                    for part in (m, m.T)))

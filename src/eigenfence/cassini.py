"""Ostrowski-Brauer sets: unions of ovals of Cassini.

Every eigenvalue of a matrix M lies in the union, over index pairs i < j,
of the ovals { z : |z - m_ii| |z - m_jj| <= R_i R_j } with R_i the deleted
absolute row sum.  Combined with the column-shift refinements this yields
a four-way (odd n) or two-way (even n) intersection region for the
eigenvalues other than the known one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Eigenpair, SizeError, as_matrix
from .discs import MEMBERSHIP_EPS, constant_row_sum_similar
from .refine import refine_even, refine_odd


@dataclass(frozen=True)
class CassiniOval:
    """Oval of Cassini: |z - c1| * |z - c2| <= bound."""

    c1: float
    c2: float
    bound: float

    def __post_init__(self):
        if not (self.bound >= 0.0):
            raise ValueError(f"oval bound must be nonnegative, got {self.bound}")

    def contains_points(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        eps = MEMBERSHIP_EPS * (1.0 + self.bound)
        return np.abs(z - self.c1) * np.abs(z - self.c2) <= self.bound + eps

    def bounding_box(self) -> tuple[float, float, float, float]:
        # every member is within sqrt(bound) of the nearer focus
        reach = float(np.sqrt(self.bound))
        return (min(self.c1, self.c2) - reach, max(self.c1, self.c2) + reach,
                -reach, reach)

    def to_json(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "bound": self.bound}


@dataclass(frozen=True)
class CassiniUnion:
    """Union of the n(n-1)/2 ovals of all index pairs i < j."""

    ovals: tuple[CassiniOval, ...]

    def __post_init__(self):
        if not self.ovals:
            raise ValueError("a Cassini union needs at least one oval")
        object.__setattr__(self, "ovals", tuple(self.ovals))

    def __len__(self) -> int:
        return len(self.ovals)

    def contains_points(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        hit = np.zeros(z.shape, dtype=bool)
        for oval in self.ovals:
            hit |= oval.contains_points(z)
        return hit

    def bounding_box(self) -> tuple[float, float, float, float]:
        boxes = [o.bounding_box() for o in self.ovals]
        return (min(b[0] for b in boxes), max(b[1] for b in boxes),
                min(b[2] for b in boxes), max(b[3] for b in boxes))

    def to_json(self) -> dict:
        return {"kind": "cassini_union", "ovals": [o.to_json() for o in self.ovals]}


def obr_set(matrix) -> CassiniUnion:
    """Ostrowski-Brauer set of M: one oval per index pair i < j."""
    m = as_matrix(matrix)
    n = m.shape[0]
    if n < 2:
        raise SizeError(f"Ostrowski-Brauer set needs n >= 2, got n = {n}")
    deleted = np.abs(m).sum(axis=1) - np.abs(np.diagonal(m))
    ovals = tuple(
        CassiniOval(float(m[i, i]), float(m[j, j]), float(deleted[i] * deleted[j]))
        for i, j in itertools.combinations(range(n), 2))
    return CassiniUnion(ovals)


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

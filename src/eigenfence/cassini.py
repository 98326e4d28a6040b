"""Ostrowski-Brauer sets: unions of ovals of Cassini.

Every eigenvalue of a matrix M lies in the union, over index pairs i < j,
of the ovals { z : |z - m_ii| |z - m_jj| <= R_i R_j } with R_i the deleted
absolute row sum.  Combined with the column-shift refinements this yields
a four-way (odd n) or two-way (even n) intersection region for the
eigenvalues other than the known one.  The ovals are held in a
:class:`~eigenfence.geometry.CassiniUnion`; membership, boxes and JSON of
the ovals and of their intersections live in :mod:`eigenfence.geometry`.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOL, EigenfenceError, Eigenpair, as_matrix
from .discs import _deleted_sums
from .geometry import CassiniUnion, RegionIntersection
from .refine import refinement
from .similarity import prepare


@np.errstate(over="ignore", invalid="ignore")
def obr_set(matrix) -> CassiniUnion:
    """Ostrowski-Brauer set of M: one oval per index pair i < j, in order,
    with the classic discs' deleted row sums as R_i; the oval table refuses
    an oval bound R_i R_j above the float range."""
    m = as_matrix(matrix)
    n = m.shape[0]
    if n < 2:
        raise EigenfenceError(f"Ostrowski-Brauer set needs n >= 2, got n = {n}")
    d, deleted = np.diagonal(m), _deleted_sums(m)
    i, j = np.triu_indices(n, 1)
    bound = np.fmax(deleted[i] * deleted[j], 0.0)   # an inf R_i times R_j = 0: 0, not NaN
    return CassiniUnion._named("Ostrowski-Brauer ovals", np.column_stack((d[i], d[j], bound)))


def cassini_intersection_region(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL):
    """:func:`obr_intersection` of the constant row-sum matrix similar to A:
    contains every eigenvalue of A other than the known one."""
    return obr_intersection(prepare(matrix, pair, tol).B)


def obr_intersection(matrix) -> RegionIntersection:
    """Intersection of the Ostrowski-Brauer sets of F and F^T (and of G and
    G^T for odd n), the refinement of a constant row-sum matrix B."""
    return RegionIntersection(tuple(obr_set(part) for m in refinement(matrix).matrices.values()
                                    for part in (m, m.T)))

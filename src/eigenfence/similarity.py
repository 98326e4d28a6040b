"""Constant row-sum matrices similar to A, driven by a known eigenpair.

Two constructions: the diagonal similarity ``B = S^-1 A S`` with
``S = diag(v)`` for eigenvectors without zero components, and a
permutation-plus-shear similarity that first repairs eigenvectors that do
contain zeros.  :func:`prepare` is the one path from ``(A, pair)`` to B:
it picks the construction, checks the eigenpair once and reports the path
taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Eigenpair,
    NoZeroError,
    ZeroComponentError,
    as_matrix,
    require_eigenpair,
)
from .discs import DiscUnion, second_type_discs_of_transpose

#: Relative threshold under which an eigenvector component counts as zero.
ZERO_TOL_FACTOR = 1e-12


def zero_mask(vector: np.ndarray) -> np.ndarray:
    """Components of v that count as zero: ``|v_i| <= ZERO_TOL_FACTOR * max|v|``."""
    size = np.abs(vector)
    return size <= ZERO_TOL_FACTOR * float(size.max())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SimilarityResult:
    """Constant row-sum matrix B similar to A, with ``B e = row_sum * e``.

    ``scaling`` is the diagonal of the final scaling: v on the diagonal
    path, the desingularized ``w`` on the shear path, which removed ``k``
    zero components of v (0: diagonal path).  B keeps the diagonal of the
    matrix it scales (A, or the sheared C) entry for entry.
    """

    B: np.ndarray
    row_sum: float
    scaling: np.ndarray
    k: int = 0


def _scaled(matrix: np.ndarray, value: float, v: np.ndarray, k: int = 0) -> SimilarityResult:
    b = matrix * (v[None, :] / v[:, None])
    return SimilarityResult(B=_frozen(b), row_sum=value, scaling=_frozen(v.copy()), k=k)


@dataclass(frozen=True)
class Desingularization:
    """Similar matrix C with a zero-free eigenvector w.

    ``perm`` is the 0-based row order moving the k zero components of v to
    the front (stable within the zero and nonzero groups); ``C w = lambda w``.
    """

    C: np.ndarray
    w: np.ndarray
    perm: tuple[int, ...]
    k: int


def diag_similar(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> SimilarityResult:
    """Diagonal similarity ``b_ij = a_ij * v_j / v_i``.

    Requires every component of v to be nonzero; use :func:`desingularize`
    first otherwise.  The result does not change if v is rescaled.
    """
    a = as_matrix(matrix)
    require_eigenpair(a, pair, tol)
    zero = zero_mask(pair.vector)
    if zero.any():
        raise ZeroComponentError(
            f"eigenvector has zero component(s) at {np.nonzero(zero)[0].tolist()}; "
            "desingularize first")
    return _scaled(a, pair.value, pair.vector)


def desingularize(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> Desingularization:
    """Remove zero components from the eigenvector by a similarity transform.

    A stable permutation moves the k zero components first, then a unit
    shear (identity plus ones in the first k rows of column k) produces
    ``C = S P A P^T S^-1`` with eigenvector ``w = S P v`` free of zeros.
    The shear inverse is the same matrix with the ones negated, so C is
    assembled by row/column updates only.
    """
    a = as_matrix(matrix)
    require_eigenpair(a, pair, tol)
    v = pair.vector
    zero = zero_mask(v)
    k = int(zero.sum())
    if k == 0:
        raise NoZeroError("eigenvector has no zero components; use diag_similar")

    order = np.concatenate([np.nonzero(zero)[0], np.nonzero(~zero)[0]])
    m = a[np.ix_(order, order)]

    # right-multiply by S^-1: column k minus the sum of the k zero-block columns
    c = m.copy()
    c[:, k] -= m[:, :k].sum(axis=1)
    # left-multiply by S: add row k into each of the first k rows
    c[:k, :] += c[k, :][None, :]

    vp = v[order]
    w = vp.copy()
    w[:k] = vp[k]
    return Desingularization(C=_frozen(c), w=_frozen(w), perm=tuple(int(i) for i in order), k=k)


def prepare(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> SimilarityResult:
    """The constant row-sum matrix B similar to A, with row sums ``pair.value``:
    :func:`diag_similar`, or :func:`desingularize` first when v has zero
    components.  The pair is checked against ``tol`` once, on A; the
    sheared pair ``(C, w)`` is not checked again."""
    if not zero_mask(pair.vector).any():
        return diag_similar(matrix, pair, tol)
    d = desingularize(matrix, pair, tol)
    return _scaled(d.C, pair.value, d.w, d.k)


def eigenpair_region(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> DiscUnion:
    """Inclusion region for every eigenvalue of A other than the known one:
    the second-type discs of the transpose of B from :func:`prepare`."""
    return second_type_discs_of_transpose(prepare(matrix, pair, tol).B)

"""Constant row-sum matrices similar to A, driven by a known eigenpair.

Two constructions: the diagonal similarity ``B = S^-1 A S`` with
``S = diag(v)`` for eigenvectors without zero components, and a
permutation-plus-shear similarity that first repairs eigenvectors that do
contain zeros.  :func:`prepare` is the one path from ``(A, pair)`` to B:
it picks the construction, checks the eigenpair once and reports the path
taken.  Called on their own, :func:`diag_similar` and :func:`desingularize`
each refuse the other construction's eigenvectors with InputError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Eigenpair,
    InputError,
    as_matrix,
    require_eigenpair,
)

#: Relative threshold under which an eigenvector component counts as zero.
ZERO_TOL_FACTOR = 1e-12


def zero_mask(vector: np.ndarray) -> np.ndarray:
    """Components of v that count as zero: ``|v_i| <= ZERO_TOL_FACTOR * max|v|``."""
    size = np.abs(vector)
    return size <= ZERO_TOL_FACTOR * float(size.max())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
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


@np.errstate(over="ignore", invalid="ignore")
def _scaled(matrix: np.ndarray, value: float, v: np.ndarray, k: int = 0) -> SimilarityResult:
    """``B = S^-1 M S`` for ``S = diag(v)`` and M = A, or the sheared C when k > 0;
    InputError when an entry of B (or already of C) is above the float range."""
    b = v[None, :] / v[:, None]
    b *= matrix
    if not np.isfinite(b).all():
        size = np.abs(v)
        why = (f"C, A desingularized for {k} zero component(s) of v, is too large" if k
               else f"max|v|/min|v| = {size.max() / size.min():.3e} is too large for A")
        raise InputError(f"B = S^-1 {'C' if k else 'A'} S is above the float range: {why}")
    return SimilarityResult(B=_frozen(b), row_sum=value, scaling=_frozen(v.copy()), k=k)


@dataclass(frozen=True, eq=False)
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

    Requires every component of v to be nonzero (InputError otherwise);
    use :func:`desingularize` first.  The result does not change if v is
    rescaled.
    """
    a = as_matrix(matrix)
    require_eigenpair(a, pair, tol)
    zero = zero_mask(pair.vector)
    if zero.any():
        raise InputError(
            f"eigenvector has zero component(s) at {np.nonzero(zero)[0].tolist()}; "
            "desingularize first")
    return _scaled(a, pair.value, pair.vector)


@np.errstate(over="ignore", invalid="ignore")
def desingularize(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> Desingularization:
    """Remove zero components from the eigenvector by a similarity transform.

    A stable permutation moves the k zero components first, then a unit
    shear (identity plus ones in the first k rows of column k) produces
    ``C = S P A P^T S^-1`` with eigenvector ``w = S P v`` free of zeros.
    The shear inverse is the same matrix with the ones negated, so C is
    assembled by row/column updates only; :func:`prepare` refuses an
    entry of C above the float range.  Raises InputError when v has no
    zero component.
    """
    a = as_matrix(matrix)
    require_eigenpair(a, pair, tol)
    v = pair.vector
    zero = zero_mask(v)
    k = int(zero.sum())
    if k == 0:
        raise InputError("eigenvector has no zero components; use diag_similar")

    order = np.concatenate([np.nonzero(zero)[0], np.nonzero(~zero)[0]])
    c = a[np.ix_(order, order)]

    # right-multiply by S^-1: column k minus the sum of the k zero-block
    # columns, in place (the gather is already a copy of A)
    c[:, k] -= c[:, :k].sum(axis=1)
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
    sheared pair ``(C, w)`` is not checked again.  Raises InputError when
    an entry of B is above the float range."""
    if not zero_mask(pair.vector).any():
        return diag_similar(matrix, pair, tol)
    d = desingularize(matrix, pair, tol)
    return _scaled(d.C, pair.value, d.w, d.k)


"""Desk-scale dense eigensolver and determinant, for verification only.

The localization modules never import this; the whole point of the library
is to fence eigenvalues in without computing them.  Tests and the ``eig``
command use it to check membership, bounds and similarity claims.

Eigenvalues come from LAPACK's standard dense path (Hessenberg reduction
followed by shifted QR triangularization, via ``numpy.linalg``).  On the
rare non-convergence it raises :class:`~eigenfence.core.EigenfenceError`,
as it does for a matrix above desk scale.
"""

from __future__ import annotations

import numpy as np

from .core import EigenfenceError, as_matrix

#: Largest dimension accepted (desk scale).
MAX_N = 64


def eigenvalues(matrix) -> np.ndarray:
    """Full spectrum of a dense real matrix, n <= 64: all n eigenvalues
    (with multiplicity) as a read-only array sorted by modulus, descending,
    then by real and imaginary part, descending.

    Complex values occur in conjugate pairs; the array is real (float64)
    when every eigenvalue is real, complex otherwise, as numpy returns it.
    """
    a = as_matrix(matrix)
    n = a.shape[0]
    if n > MAX_N:
        raise EigenfenceError(f"oracle is desk-scale only (n <= {MAX_N}), got n = {n}")
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenfenceError(f"eigenvalue iteration failed: {exc}") from exc
    values = values[np.lexsort((-values.imag, -values.real, -np.abs(values)))]
    values.setflags(write=False)
    return values


def determinant(matrix) -> float:
    """Determinant via LU with partial pivoting; singular input gives 0."""
    a = as_matrix(matrix)
    if a.shape[0] > MAX_N:
        raise EigenfenceError(f"oracle is desk-scale only (n <= {MAX_N}), got n = {a.shape[0]}")
    return float(np.linalg.det(a))


def nontrivial_values(values: np.ndarray, known: float) -> np.ndarray:
    """Drop the single value of ``values`` (a spectrum, as :func:`eigenvalues`
    returns it) closest to the known eigenvalue."""
    drop = int(np.argmin(np.abs(values - known)))
    return np.delete(values, drop)

"""Gershgorin discs: the classic kind and the second type.

A disc of the second type is built from the off-diagonal entries of a
column (or row) with a mandated extra 0: sort the values in non-increasing
order and subtract the bottom-half sum from the top-half sum (the middle
element is skipped when the count is odd).  The radius is nonnegative by
construction because the top half dominates the bottom half.  All radii
of a matrix come from one sort of its columns (:func:`sorted_columns`):
``O(n^2 log n)`` time and ``O(n^2)`` memory.  The refined discs of F and
G need no sort of their own: :mod:`eigenfence.refine` reads them from
the one sort of B behind the shifts.  The discs are returned as a
:class:`~eigenfence.geometry.DiscUnion`, whose membership, box and JSON
live in :mod:`eigenfence.geometry` with the other region kinds.
"""

from __future__ import annotations

import numpy as np

from .core import SizeError, as_matrix
from .geometry import DiscUnion

#: Rows and columns per square tile of the transposed copy in
#: :func:`sorted_columns`.  On x86-64, ``.T.copy()`` of a 1024x1024 array
#: took 4.5-5.8 ms, as the power-of-two row stride makes its strided reads
#: collide in the cache, against 1.9-2.4 ms in tiles of 256.  At the other
#: sizes from 385 to 1025 these tiles stayed within 0.06 ms of it, where
#: tiles of 64 and 128 lost up to 0.5 ms and tiles of 512 kept the stall at
#: n = 1024 (the sweep is in ROADMAP item 6).
TRANSPOSE_BLOCK = 256


def sorted_columns(matrix, diag: float | None = None) -> np.ndarray:
    """Each column of M, sorted in non-increasing order, as a row.

    ``diag`` replaces every diagonal entry before sorting (None keeps it):
    0.0 gives the off-diagonal entries plus the mandated 0 of the
    second-type radius, -inf moves the diagonal to the end so the leading
    n-1 entries of each row are the off-diagonal order statistics.  The
    result is a reversed view of a C-contiguous copy sorted along rows, so
    :func:`row_gaps` sums each column in the same order as a 1-D sum would.
    The copy is the transpose built in square tiles of ``TRANSPOSE_BLOCK``
    (one tile up to that size): it moves the same floats as ``M.T.copy()``,
    without that copy's cache stall at a power-of-two row stride.
    """
    m = np.asarray(matrix, dtype=float)
    t, step = np.empty(m.shape[::-1]), TRANSPOSE_BLOCK
    for i in range(0, m.shape[0], step):
        for j in range(0, m.shape[1], step):
            t[j:j + step, i:i + step] = m[i:i + step, j:j + step].T
    if diag is not None:
        np.fill_diagonal(t, diag)
    t.sort(axis=1)
    return t[:, ::-1]


@np.errstate(over="ignore", invalid="ignore")
def row_gaps(desc: np.ndarray) -> np.ndarray:
    """Top-half sum minus bottom-half sum of each non-increasing row (the
    middle entry is skipped when the row length is odd).  A row whose half
    sums overflow is summed again as paired differences, each >= 0, so its
    gap is inf only when the gap itself is above the float range."""
    n = desc.shape[1]
    top, bottom = desc[:, :n // 2], desc[:, n // 2 + n % 2:]
    gaps = top.sum(axis=1) - bottom.sum(axis=1)
    bad = ~np.isfinite(gaps)
    if bad.any():
        gaps[bad] = (top[bad] - bottom[bad]).sum(axis=1)
    return gaps


def second_type_discs_of_transpose(matrix) -> DiscUnion:
    """Second-type discs of M^T: centers m_ii, radii from the columns of M."""
    m = as_matrix(matrix)
    n = m.shape[0]
    if n < 3:
        raise SizeError(f"second-type discs need n >= 3, got n = {n}")
    radii = row_gaps(sorted_columns(m, 0.0))
    return DiscUnion._named("second-type discs", np.column_stack((np.diagonal(m), radii)))


@np.errstate(over="ignore", invalid="ignore")
def classic_discs(matrix, axis: str = "rows") -> DiscUnion:
    """Classic Gershgorin discs along rows or columns of M.

    A mask takes each line's off-diagonal entries, in order, into a row of
    a C-contiguous ``(n, n-1)`` block, so each radius sums as a 1-D sum.
    """
    if axis not in ("rows", "columns"):
        raise ValueError(f'axis must be "rows" or "columns", got {axis!r}')
    m = as_matrix(matrix)
    n = m.shape[0]
    lines = m if axis == "rows" else m.T
    off = np.abs(lines[~np.eye(n, dtype=bool)]).reshape(n, n - 1)
    return DiscUnion._named("classic discs", np.column_stack((np.diagonal(m), off.sum(axis=1))))

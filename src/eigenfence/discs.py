"""Gershgorin discs: the classic kind and the second type.

A disc of the second type is built from the off-diagonal entries of a
column (or row) with a mandated extra 0: sort the values in non-increasing
order and subtract the bottom-half sum from the top-half sum (the middle
element is skipped when the count is odd).  The radius is nonnegative by
construction because the top half dominates the bottom half.  All radii
of a matrix come from one sort of its columns (:func:`sorted_columns`):
``O(n^2 log n)`` time and ``O(n^2)`` memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Eigenpair, SizeError, as_matrix
from .similarity import (
    desingularize,
    diag_similar,
    zero_tolerance,
)

#: Relative slack used by all membership predicates.
MEMBERSHIP_EPS = 1e-9


@dataclass(frozen=True)
class Disc:
    """Closed disc in the complex plane with a real center."""

    center: float
    radius: float

    def __post_init__(self):
        if not (self.radius >= 0.0):
            raise ValueError(f"disc radius must be nonnegative, got {self.radius}")

    def contains_points(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        eps = MEMBERSHIP_EPS * (1.0 + self.radius)
        return np.abs(z - self.center) <= self.radius + eps

    def bounding_box(self) -> tuple[float, float, float, float]:
        c, r = self.center, self.radius
        return (c - r, c + r, -r, r)

    def to_json(self) -> dict:
        return {"center": self.center, "radius": self.radius}


@dataclass(frozen=True)
class DiscUnion:
    """Union of discs, index-aligned with the matrix rows/columns."""

    discs: tuple[Disc, ...]

    def __post_init__(self):
        if not self.discs:
            raise ValueError("a disc union needs at least one disc")
        object.__setattr__(self, "discs", tuple(self.discs))

    def __len__(self) -> int:
        return len(self.discs)

    def contains_points(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        hit = np.zeros(z.shape, dtype=bool)
        for d in self.discs:
            hit |= d.contains_points(z)
        return hit

    def bounding_box(self) -> tuple[float, float, float, float]:
        boxes = [d.bounding_box() for d in self.discs]
        return (min(b[0] for b in boxes), max(b[1] for b in boxes),
                min(b[2] for b in boxes), max(b[3] for b in boxes))

    def to_json(self) -> dict:
        return {"kind": "disc_union", "discs": [d.to_json() for d in self.discs]}


def sorted_columns(matrix, diag: float | None = None) -> np.ndarray:
    """Each column of M, sorted in non-increasing order, as a row.

    ``diag`` replaces every diagonal entry before sorting (None keeps it):
    0.0 gives the off-diagonal entries plus the mandated 0 of the
    second-type radius, -inf moves the diagonal to the end so the leading
    n-1 entries of each row are the off-diagonal order statistics.  The
    result is a reversed view of a C-contiguous copy sorted along rows, so
    :func:`row_gaps` sums each column in the same order as a 1-D sum would.
    """
    t = np.asarray(matrix, dtype=float).T.copy()
    if diag is not None:
        np.fill_diagonal(t, diag)
    t.sort(axis=1)
    return t[:, ::-1]


def row_gaps(desc: np.ndarray) -> np.ndarray:
    """Top-half sum minus bottom-half sum of each non-increasing row (the
    middle entry is skipped when the row length is odd)."""
    n = desc.shape[1]
    half = n // 2
    return desc[:, :half].sum(axis=1) - desc[:, half + n % 2:].sum(axis=1)


def second_type_radius(values) -> float:
    """Second-type radius of a list of n-1 off-diagonal entries.

    The mandated 0 is inserted here so callers cannot forget it.  Requires
    at least two values (n >= 3); the result is always >= 0.  This is the
    one-column reference; whole matrices go through :func:`sorted_columns`.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size < 2:
        raise SizeError(f"need at least 2 off-diagonal entries (n >= 3), got {vals.size}")
    desc = np.sort(np.append(vals, 0.0))[::-1]
    return float(row_gaps(desc[None, :])[0])


def second_type_discs_of_transpose(matrix) -> DiscUnion:
    """Second-type discs of M^T: centers m_ii, radii from the columns of M."""
    m = as_matrix(matrix)
    n = m.shape[0]
    if n < 3:
        raise SizeError(f"second-type discs need n >= 3, got n = {n}")
    radii = row_gaps(sorted_columns(m, 0.0))
    return DiscUnion(tuple(Disc(c, r) for c, r in zip(np.diagonal(m).tolist(), radii.tolist())))


def classic_discs(matrix, axis: str = "rows") -> DiscUnion:
    """Classic Gershgorin discs along rows or columns of M."""
    if axis not in ("rows", "columns"):
        raise ValueError(f'axis must be "rows" or "columns", got {axis!r}')
    m = as_matrix(matrix)
    n = m.shape[0]
    discs = []
    for i in range(n):
        line = m[i, :] if axis == "rows" else m[:, i]
        radius = float(np.abs(np.delete(line, i)).sum())
        discs.append(Disc(float(m[i, i]), radius))
    return DiscUnion(tuple(discs))


def constant_row_sum_similar(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Constant row-sum matrix B similar to A, with row sums ``pair.value``.

    Desingularizes first when the eigenvector has zero components, then
    applies the diagonal similarity.
    """
    a = as_matrix(matrix)
    if np.any(np.abs(pair.vector) <= zero_tolerance(pair.vector)):
        d = desingularize(a, pair, tol)
        return diag_similar(d.C, Eigenpair(pair.value, d.w), tol).B
    return diag_similar(a, pair, tol).B


def eigenpair_region(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> DiscUnion:
    """Inclusion region for every eigenvalue of A other than the known one.

    Builds the constant row-sum matrix similar to A (desingularizing first
    when the eigenvector has zero components) and returns the second-type
    discs of its transpose.
    """
    return second_type_discs_of_transpose(constant_row_sum_similar(matrix, pair, tol))

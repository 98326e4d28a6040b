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

import itertools
from dataclasses import dataclass

import numpy as np

from .core import SizeError, as_matrix

#: Relative slack used by all membership predicates.
MEMBERSHIP_EPS = 1e-9

#: Point-primitive pairs per membership block (one point at least).  On x86-64,
#: 2^12 ran 1024 discs 2x slower (per-call overhead), 2^16 a 257^2 raster of
#: ovals 2x slower (temporaries freshly paged in for every block).
MEMBERSHIP_BLOCK = 1 << 15


def _table(rows, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Read-only float copy of a table of rows of ``shape``; the last entry
    of every row (a radius or an oval bound) must be >= 0."""
    table = np.array(rows, dtype=float)
    if table.shape[1:] != shape or len(table) == 0:
        raise ValueError(f"a {what} needs one or more rows of shape {shape}")
    if not np.all(table[..., -1] >= 0.0):
        raise ValueError(f"{what} radii and bounds must be nonnegative")
    table.setflags(write=False)
    return table


def _records(keys: tuple[str, ...], table: np.ndarray) -> list[dict]:
    """The rows of a primitive table as JSON objects with ``keys``."""
    return list(map(dict, map(zip, itertools.repeat(keys), table.tolist())))


def _inside_discs(z, table) -> np.ndarray:
    """Membership of points z in each disc of a [center, radius] table."""
    r = table[..., 1]
    # complex centers: a float operand would be cast inside the broadcast loop
    return np.abs(z - table[..., 0].astype(complex)) <= r + MEMBERSHIP_EPS * (1.0 + r)


def _members(z, table: np.ndarray, inside) -> np.ndarray:
    """Points of z in the union of the primitives of ``table``.

    ``inside(w, rows)`` maps p points and the table with an axis inserted
    after the first to ``(m, p)`` booleans, so the points run along the
    fast axis.  Blocks of ``MEMBERSHIP_BLOCK`` point-primitive pairs keep
    every temporary small; the time is ``O(points * primitives)``.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    hit = np.empty(flat.size, dtype=bool)
    step = max(1, MEMBERSHIP_BLOCK // len(table))
    for i in range(0, flat.size, step):
        hit[i:i + step] = inside(flat[i:i + step], table[:, None]).any(axis=0)
    return hit.reshape(z.shape)


@dataclass(frozen=True, eq=False)
class DiscUnion:
    """Union of closed discs with real centers, index-aligned with the
    matrix; ``discs`` is a read-only ``(n, 2)`` array of [center, radius]."""

    discs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "discs", _table(self.discs, (2,), "disc union"))

    def __len__(self) -> int:
        return len(self.discs)

    def contains_points(self, z) -> np.ndarray:
        return _members(z, self.discs, _inside_discs)

    def bounding_box(self) -> tuple[float, float, float, float]:
        c, r = self.discs.T
        return (float((c - r).min()), float((c + r).max()), -float(r.max()), float(r.max()))

    def to_json(self) -> dict:
        return {"kind": "disc_union", "discs": _records(("center", "radius"), self.discs)}


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
    return DiscUnion(np.column_stack((np.diagonal(m), row_gaps(sorted_columns(m, 0.0)))))


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
    return DiscUnion(np.column_stack((np.diagonal(m), off.sum(axis=1))))

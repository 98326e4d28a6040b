"""Gershgorin discs: the classic kind and the second type.

A disc of the second type is built from the off-diagonal entries of a
column (or row) with a mandated extra 0: sort the values in non-increasing
order and subtract the bottom-half sum from the top-half sum (the middle
element is skipped when the count is odd).  The radius is nonnegative by
construction because the top half dominates the bottom half.  The same
gap, with the diagonal in place of the 0, is the ``tau_inf`` semi-norm's
column gap, and with the 0 on a shifted column it is a refined radius.

None of them needs the whole sort, only each column split at its middle:
:func:`split_columns` puts the middle order statistics of the off-diagonal
entries in their slots, the larger entries before them and the smaller
after, with the diagonal last, and :func:`row_gaps` inserts the one value
next to those slots in a scratch copy; the split is read-only.  Below
``SPLIT_SELECT`` rows the split is a sort; from
it on it selects with one kth (with numpy 2.4 on AVX-512 a SIMD
quickselect, in expected ``O(n^2)`` time; other numpy releases and CPUs
are unmeasured), and leaves each half in an order of its own, so a gap
may round differently than on a sort: ``refinement(B).discs["F"]``, read
from B's split, equals
:func:`second_type_discs_of_transpose` of F bit for bit only below
``SPLIT_SELECT``, and within the rounding contract from it on.  So every such
quantity of a matrix comes from one split of its columns, in ``O(n^2)``
memory, and :mod:`eigenfence.refine` and :mod:`eigenfence.bounds` read
theirs from the split of B.  The discs are returned as a
:class:`~eigenfence.geometry.DiscUnion`, whose membership, box and JSON
live in :mod:`eigenfence.geometry` with the other region kinds.
"""

from __future__ import annotations

import numpy as np

from . import core
from .core import EigenfenceError, as_matrix
from .geometry import DiscUnion

#: Rows and columns per square tile of the transposed copy in
#: :func:`split_columns`.  On x86-64, ``.T.copy()`` of a 1024x1024 array
#: took 4.5-5.8 ms, as the power-of-two row stride makes its strided reads
#: collide in the cache, against 1.9-2.4 ms in tiles of 256.  At the other
#: sizes from 385 to 1025 these tiles stayed within 0.06 ms of it, where
#: tiles of 64 and 128 lost up to 0.5 ms and tiles of 512 kept the stall at
#: n = 1024 (the sweep is in ROADMAP item 6).
TRANSPOSE_BLOCK = 256

#: Smallest n at which :func:`split_columns` selects instead of sorting:
#: below it numpy's SIMD sort was faster.  Measured only with numpy 2.4 on
#: an x86-64 CPU with AVX-512, where one-kth ``partition`` dispatches to a
#: SIMD quickselect (the sweep is in ROADMAP item 6).  Other numpy releases
#: and CPUs are unmeasured: where ``partition`` runs the scalar introselect,
#: selection may be slower than the sort from here on (21.7 against 6.2 ms
#: at n = 1024, ROADMAP's dead ends); the results are correct either way.
SPLIT_SELECT = 512


def _partition(rows: np.ndarray, kth: int) -> None:
    """Partition each row in place at ``kth``: numpy places that entry only,
    and leaves each side in an order it does not document."""
    rows.partition(kth, axis=1)


def split_columns(matrix) -> np.ndarray:
    """Each column of M as a row, split at its middle: its n - 1 off-diagonal
    entries, then ``-inf`` where its diagonal entry was.

    The layout, with ``h = n // 2``: slot ``h - 1`` holds the column's h-th
    largest off-diagonal entry, and for odd n slot h its (h+1)-th largest.
    The entries before the slots are no smaller than them and those after
    no larger, in any order.  Each entry is one of the column's floats,
    unchanged: :func:`row_gaps` sums the two halves, and
    :func:`~eigenfence.refine.refinement` negates the slots into its offsets.

    Below ``SPLIT_SELECT`` rows the entries are sorted, in non-increasing
    order, which is one such layout.  From it on, one ``partition`` with one
    kth puts the h-th largest in its slot, and for odd n an ``argmax`` over
    the smaller half, in row blocks of ``core.BLOCK_ENTRIES`` entries (it
    copies what it scans), swaps the (h+1)-th largest into the slot after
    it.  With numpy 2.4 on AVX-512 that ``partition`` is a SIMD quickselect,
    expected ``O(n^2)`` time in all; two kth values would run its scalar
    introselect, and other numpy releases and CPUs are unmeasured.

    The result is a read-only reversed view of a C-contiguous copy, whose
    rows :func:`row_gaps` copies in memory order.  The copy is the transpose
    built in square tiles of ``TRANSPOSE_BLOCK`` (one tile up to that size):
    it moves the same floats as ``M.T.copy()``, without that copy's cache
    stall at a power-of-two row stride.
    """
    m = np.asarray(matrix, dtype=float)
    t, step = np.empty(m.shape[::-1]), TRANSPOSE_BLOCK
    for i in range(0, m.shape[0], step):
        for j in range(0, m.shape[1], step):
            t[j:j + step, i:i + step] = m[i:i + step, j:j + step].T
    n = len(t)
    if n < SPLIT_SELECT:
        np.fill_diagonal(t, -np.inf)
        t.sort(axis=1)
    else:   # ascending in the buffer: the diagonal's -inf first, the h-th largest at n - h
        h, i = n // 2, np.arange(n)
        t[i, i] = t[:, 0].copy()
        t[:, 0] = -np.inf
        _partition(t[:, 1:], n - h - 1)
        if n % 2:   # the (h+1)-th largest, the largest of the smaller half, next to it
            rows = max(1, core.BLOCK_ENTRIES // n)
            for r in range(0, n, rows):
                block, k = t[r:r + rows], i[:min(rows, n - r)]
                at = block[:, 1:h + 1].argmax(axis=1) + 1
                found = block[k, at]
                block[k, at] = block[:, h]
                block[:, h] = found
    t.setflags(write=False)
    return t[:, ::-1]


@np.errstate(over="ignore", invalid="ignore")
def row_gaps(split: np.ndarray, x, off=-0.0) -> np.ndarray:
    """Per row of ``split`` (a :func:`split_columns` split: n - 1 values split
    at their middle, then a last slot that is never read) plus ``off`` (a
    scalar or one per row; a shift keeps the layout), with the value ``x``
    (a scalar or one per row) inserted: the sum of the top ``h = n // 2`` of
    those n values minus the sum of the bottom ``h``.

    ``split`` is only read.  Each row block of ``core.BLOCK_ENTRIES``
    entries plus the offsets goes into one scratch block laid out like the
    split, so the add runs in memory order (a scalar offset stays one
    value: numpy adds it about twice as fast as a column), and each row is
    summed there on its own, so no gap depends on the block size.  The
    default offset, -0.0, changes no float, signed zeros included.  The
    top h are the leading ``h - 1`` values and ``max(split[h-1], x)``, the
    bottom h ``min(split[n-h-1], x)`` and the ``h - 1`` values after it,
    each written into its slot of the block for its half's sum (one column
    for even n, two adjacent ones for odd n).  On a sort (below
    ``SPLIT_SELECT``), with x = 0 and fewer than 8 values per half, numpy
    sums in order and adding 0 is exact, so the gaps are those of a sort
    with the 0 inserted, bit for bit; otherwise, and on a selection's
    halves in their own order, they are within rounding of them.  A row
    whose half sums overflow is summed again as paired differences of the
    same two halves, each >= 0 (the two inserted slots paired with each
    other), so its gap is inf only when the gap itself is above the float
    range.
    """
    m, n = split.shape
    h, rows = n // 2, max(1, core.BLOCK_ENTRIES // n)
    x, off = np.full(m, x), np.asarray(off, float).reshape(-1, 1)
    block, gaps = np.empty((min(rows, m), n)), np.empty(m)
    for r in range(0, m, rows):
        part, xr = block[:min(rows, m - r), ::-1], x[r:r + rows]
        np.add(split[r:r + rows], off[r:r + rows] if len(off) > 1 else off, out=part)
        top, bottom = part[:, :h], part[:, -h - 1:-1]
        hi, lo = np.maximum(part[:, h - 1], xr), np.minimum(part[:, -h - 1], xr)
        top[:, -1] = hi
        g = top.sum(axis=1)
        bottom[:, 0] = lo
        g -= bottom.sum(axis=1)
        if not g.max() < np.inf:   # each gap is >= 0, inf or NaN
            g = np.where(g < np.inf, g, (top[:, :-1] - bottom[:, 1:]).sum(axis=1) + (hi - lo))
        gaps[r:r + rows] = g
    return gaps


def second_type_discs_of_transpose(matrix, _desc=None) -> DiscUnion:
    """Second-type discs of M^T: centers m_ii, radii from the columns of M.
    ``_desc`` is M's :func:`split_columns`, when the caller has it."""
    m = as_matrix(matrix)
    if len(m) < 3:
        raise EigenfenceError(f"second-type discs need n >= 3, got n = {len(m)}")
    radii = row_gaps(split_columns(m) if _desc is None else _desc, 0.0)
    return DiscUnion._named("second-type discs", np.column_stack((np.diagonal(m), radii)))


@np.errstate(over="ignore")
def _deleted_sums(lines: np.ndarray) -> np.ndarray:
    """Each row's deleted absolute sum ``sum_{k != i} |m_ik|``, the classic
    Gershgorin radius and the Ostrowski-Brauer ``R_i``.

    A mask takes each row's off-diagonal entries, in order, into a row of a
    C-contiguous ``(n, n-1)`` block, so each sums as a 1-D sum: within
    ``gamma_(n-1)`` of its value, relatively, as no term cancels.  A sum
    of nonnegative terms overflows only when the sum itself is above the
    float range.
    """
    n = len(lines)
    return np.abs(lines[~np.eye(n, dtype=bool)]).reshape(n, n - 1).sum(axis=1)


def classic_discs(matrix, axis: str = "rows") -> DiscUnion:
    """Classic Gershgorin discs along rows or columns of M."""
    if axis not in ("rows", "columns"):
        raise ValueError(f'axis must be "rows" or "columns", got {axis!r}')
    m = as_matrix(matrix)
    radii = _deleted_sums(m if axis == "rows" else m.T)
    return DiscUnion._named("classic discs", np.column_stack((np.diagonal(m), radii)))

"""Column-shift refinements that shrink the second-type inclusion region.

For a constant row-sum matrix B, subtracting a per-column order statistic
of the off-diagonal entries from each column yields a new constant row-sum
matrix whose second-type region is contained in that of B^T and still
holds every non-trivial eigenvalue.  Even sizes use one shifted matrix F;
odd sizes use a pair F, G whose per-column disc intersections form the
refined region, a :class:`~eigenfence.geometry.PairIntersectionUnion`.
:func:`refinement` builds both parities from one split of the columns
(:func:`~eigenfence.discs.split_columns`: a sort below ``SPLIT_SELECT``
rows, a one-kth selection from it on, in expected ``O(n^2)`` time with
numpy 2.4 on AVX-512) and checks the constant row sum once, with
:func:`row_sum_constant`; :func:`refine_even` and :func:`refine_odd` call
it and insist on a parity, raising EigenfenceError for the other one.
A refinement holds each shifted matrix as its per-column offsets from B,
by name (``offsets["F"]``, and ``offsets["G"]`` for odd n): the negated
middle order statistics of the split, the same floats at every n.

That one split of B also gives the second-type discs of F and G.  A
column shift keeps the order of a column's entries, so row j of B's split
plus the offset, entry by entry, is a split of column j of F (or G):
:func:`~eigenfence.discs.row_gaps` adds the offsets to a scratch copy of
each row block of B's split and inserts the mandated 0 there, as it would
into F's own.  Below ``SPLIT_SELECT`` both are sorts, so
``refinement(B).discs["F"]`` equals
:func:`~eigenfence.discs.second_type_discs_of_transpose` of F bit for
bit; from it on, F's own selection may leave its halves in another order,
and the two agree within rounding.  A refinement and its region cost one
column split.

So a refinement stores its offsets, and of size ``n^2`` only B (a
read-only B by reference) and B's read-only split, which the refined
discs read on first use.  F and G are fully determined by
B and the offsets: each read of ``matrices`` builds every
``B + e * off^T`` anew, with no cache.  The refined discs, the region and
the disc bounds never build them; the CLI's ``refine`` document and the
Ostrowski-Brauer sets do.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .core import EigenfenceError, as_matrix
from .discs import row_gaps, split_columns
from .geometry import DiscUnion, PairIntersectionUnion

#: Relative tolerance on the spread of the row sums of a constant row-sum matrix.
ROW_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Refinement:
    """The shifted matrices of a constant row-sum matrix B: F for even n,
    F and G for odd n.  ``offsets`` maps each name to the read-only
    per-column offsets added to B, so that ``matrices[name]`` is
    ``B + e * offsets[name]^T``, built from the read-only ``B`` on every
    read.  ``split`` is B's read-only
    :func:`~eigenfence.discs.split_columns`, which the refined discs read."""

    offsets: Mapping[str, np.ndarray]
    B: np.ndarray = field(repr=False)
    split: np.ndarray = field(repr=False)

    @property
    def matrices(self) -> dict[str, np.ndarray]:
        """Each shifted matrix by name, built on every read: nothing caches it."""
        return {name: self.B + off for name, off in self.offsets.items()}

    @cached_property
    def discs(self) -> Mapping[str, DiscUnion]:
        """Second-type disc union of M^T for each shifted matrix M, by name:
        :func:`~eigenfence.discs.second_type_discs_of_transpose` of M,
        without building or splitting M.  Built on first use and read-only."""
        return MappingProxyType({name: DiscUnion._named("refined discs", np.column_stack(
            (np.diagonal(self.B) + off, row_gaps(self.split, 0.0, off))))
            for name, off in self.offsets.items()})

    def region(self) -> DiscUnion | PairIntersectionUnion:
        """Refined region.  Even n: the second-type disc union of F^T.  Odd
        n: the union over columns of (disc from F column j) ∩ (disc from G
        column j)."""
        if len(self.offsets) == 1:
            return self.discs["F"]
        return PairIntersectionUnion(np.stack([d.discs for d in self.discs.values()], axis=1))


@np.errstate(over="ignore", invalid="ignore")
def row_sum_constant(matrix) -> float:
    """The shared row sum of a constant row-sum matrix, already validated
    by :func:`~eigenfence.core.as_matrix`.

    Raises EigenfenceError, with a message that starts ``row sums spread``,
    when the row sums deviate by more than
    ``ROW_SUM_TOL * (1 + |mean sum|)``, and OverflowError when a row sum
    is above the float range.  A partial sum that overflows does not
    count: the sums are then taken again at half scale, which is exact
    above the subnormal range, so only a row sum that is itself out of
    range is refused.
    """
    sums = np.sum(matrix, axis=1)
    if not np.isfinite(sums).all():
        sums = np.sum(matrix / 2, axis=1)
        if not (np.abs(sums) <= np.finfo(float).max / 2).all():
            raise OverflowError("row sums: a row sum is above the float range")
        sums *= 2
    lam = float(sums.mean())
    if not np.isfinite(lam):   # the sums fit, their total does not
        lam = float((sums / len(sums)).sum())
    spread = float(sums.max() - sums.min())   # inf only if far from constant
    if spread > ROW_SUM_TOL * (1.0 + abs(lam)):
        raise EigenfenceError(
            f"row sums spread {spread:.3e} exceeds tolerance (mean sum {lam:g})")
    return lam


@np.errstate(over="ignore", invalid="ignore")
def refinement(matrix, _desc=None) -> Refinement:
    """The refinement of a constant row-sum matrix for its parity: the
    offsets of F for even n, of the pair F, G for odd n.

    With ``h = n // 2``, F adds to each column of B the negated h-th
    largest off-diagonal entry of that column, and for odd n G the negated
    (h+1)-th ("k-th largest" counts multiplicity).  The one column split
    here serves the offsets and, through the refinement's ``discs`` and
    :meth:`~Refinement.region`, the refined discs too; F and G are built
    only when ``matrices`` is read.  The refinement holds B: a read-only B
    by reference, a writable one as a read-only copy.  Raises OverflowError
    when a shifted entry is above the float range.  ``_desc`` is B's
    :func:`~eigenfence.discs.split_columns`, when the caller has it.

    That range check reads ``2n`` sums per shifted matrix, not its ``n^2``
    entries.  Column j of F (or G) is column j of B plus ``off_j``, entry
    by entry.  Rounding is monotone, so every such sum lies between the
    sums of the column's largest and smallest entries and ``off_j``, which
    one pass over B finds, diagonal included, whatever the split's layout.
    Both extremes are entries of the column, and B and ``off`` are finite,
    so a sum is inf only by overflow and never NaN: the column is finite if
    and only if those two sums are.
    """
    b = as_matrix(matrix)
    n = b.shape[0]
    if n < 3:
        raise EigenfenceError(f"refinement needs n >= 3, got n = {n}")
    row_sum_constant(b)
    desc = split_columns(b) if _desc is None else _desc
    h = n // 2
    offsets = {"F": -desc[:, h - 1]} if n % 2 == 0 else {"F": -desc[:, h - 1], "G": -desc[:, h]}
    ends = b.max(axis=0), b.min(axis=0)
    if not all(np.isfinite(end + off).all() for off in offsets.values() for end in ends):
        raise OverflowError("refinement: an entry of F or G is above the float range")
    if b.flags.writeable:
        b = b.copy()
    for arr in (b, *offsets.values()):
        arr.setflags(write=False)
    return Refinement(MappingProxyType(offsets), b, desc)


def refine_even(matrix) -> Refinement:
    """Even-size refinement: F subtracts the (n/2)-th largest off-diagonal
    per column.  Raises EigenfenceError for odd n."""
    ref = refinement(matrix)
    if "G" in ref.offsets:
        raise EigenfenceError(f"even-size refinement called with odd n = {len(ref.B)}")
    return ref


def refine_odd(matrix) -> Refinement:
    """Odd-size refinement pair: F subtracts the ((n-1)/2)-th largest
    off-diagonal per column, G the ((n+1)/2)-th.  Raises EigenfenceError
    for even n."""
    ref = refinement(matrix)
    if "G" not in ref.offsets:
        raise EigenfenceError(f"odd-size refinement called with even n = {len(ref.B)}")
    return ref


def refined_region(matrix):
    """Refined inclusion region of a constant row-sum matrix, any parity.

    Even n: the second-type disc union of F^T.  Odd n: the per-column
    pair-intersection union.
    """
    return refinement(matrix).region()

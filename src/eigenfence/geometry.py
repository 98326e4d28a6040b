"""Regions: their tables, membership, extremal modulus and sampled comparisons.

A region is a :class:`DiscUnion` (an ``(n, 2)`` array of [center, radius]),
a :class:`PairIntersectionUnion` (``(n, 2, 2)``: two discs per column), a
:class:`CassiniUnion` (``(m, 3)`` of [c1, c2, bound]) or a
:class:`RegionIntersection` of regions.  The three table kinds share one
base: it validates the table (OverflowError for a row whose entries or
reach, or a disc pair's either reach, are above the float range) and owns
membership, the bounding box, the extremal modulus, boundary samples and
JSON, while each kind supplies only its formulas.  JSON comes as dicts
(``to_json``) or as the text ``json.dumps(..., indent=2)`` would write,
formatted straight from the table (:func:`iterencode`, also for documents
that hold regions and arrays).  Membership tests blocks of points against
a chunk of primitives at once, in blocks of ``core.BLOCK_ENTRIES // 2``
point-primitive pairs, with one relative slack for every kind
(:func:`_slack`).  It takes at most ``O(points * primitives)`` time, and a
point leaves the later chunks of a large table once one chunk accepts it.
An oval is always decided at a quarter of the scale (:func:`_in_oval`,
which its boundary samples use too), where no distance overflows, so a
point's answer depends only on that point and the region, never on the
other points of the call.  ``contains_points`` is the one exact
membership predicate.  A grid's membership (``contains_grid``, for
rasters and sampled comparisons) comes from each primitive's closed-form
x-sections on each grid row instead:
``O(rows * primitives)`` sections decide every point outside a thin,
proven rounding band around the boundaries, and only the band's points
reach ``contains_points``, so the answer is the same bit for bit.
Intersections are never converted to explicit shapes; membership
predicates compose instead, and set comparisons are sampled (boundary
points plus a grid over the bounding box).  Of the other eigenfence
modules this one imports only :mod:`eigenfence.core`, for its block budget
``BLOCK_ENTRIES``.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import core

#: Relative slack used by all membership predicates.
MEMBERSHIP_EPS = 1e-9

#: Table rows per membership chunk; the later chunks of a larger table see
#: only the points earlier chunks left undecided.
MEMBERSHIP_CHUNK = 64

#: Floats per ``%`` format when a float array is written as JSON text.
JSON_CHUNK = 1 << 14

# The raster screen of :meth:`_Union.contains_grid`: bounds shrunk and grown
# by _GRID_SHRINK, end margins of _GRID_MARGIN times the magnitudes they
# cover, the largest grid or table entry it certifies, and its finest x step
# relative to that entry.
_GRID_SHRINK = 2.0 ** -36
_GRID_MARGIN = 2.0 ** -44
_GRID_LIMIT = 2.0 ** 500
_GRID_STEP = 2.0 ** -30


class MaxAbs(NamedTuple):
    value: float
    exact: bool


class SubsetCheck(NamedTuple):
    is_subset: bool
    witness: complex | None


def _slack(table):
    """``table`` with the membership slack added to each radius or bound
    (its last column), relative to the bound: a point is inside when its
    size is at most that.  The slack stops at the float max, so a size
    that overflowed to inf is outside every row."""
    out = table.copy()
    bound = table[..., -1]
    out[..., -1] = np.minimum(bound + MEMBERSHIP_EPS * (1.0 + bound), np.finfo(float).max)
    return out


def _in_oval(quarter, c1, c2, bound):
    """Whether the points ``z = 4 quarter`` lie in their ovals
    ``|z - c1| |z - c2| <= bound`` (real foci, slackened bounds; all
    broadcast against each other), decided at a quarter of the scale:
    ``|quarter - c1/4| |quarter - c2/4| <= bound/16``.  There no distance
    between points of the float range overflows, and a product that does
    is inf, outside.  Dividing by 4 is exact above the subnormals, and the
    slack keeps the bound above them, so the answer is the full-scale
    test's wherever no coordinate or coordinate difference is below
    ``2^-1020``; below, each quarter coordinate is within ``2^-1075`` of
    its value.  Points are decided one by one: the answer does not depend
    on the other points of a call."""
    # complex foci: a float operand would be cast inside the broadcast loop
    c1, c2 = (c1 / 4).astype(complex), (c2 / 4).astype(complex)
    return np.abs(quarter - c1) * np.abs(quarter - c2) <= bound / 16


def _root_radius(x, e, root):
    """How far ``root``, the computed ``sqrt(max(x, 0))``, can be from
    ``sqrt(max(X, 0))`` when ``|x - X| < e``: ``min(sqrt(e), e / root)``,
    written ``e / max(root, sqrt(e))``, or ``sqrt(max(x + e, 0))`` when
    ``x <= 0`` (see :meth:`_Union.contains_grid`)."""
    return np.minimum(np.sqrt(np.minimum(np.maximum(x + e, 0.0), e)),
                      e / np.maximum(root, np.sqrt(e)))


def _disc_sections(c, r, y):
    """The x-section ``(lo, hi)`` of each disc ``|z - c| <= r`` (slackened
    radii) on the rows ``y`` (one per disc, or broadcast against it), and
    the radius of its ends: ``(x - c)^2 <= q`` with ``q = r^2 - y^2``, which
    the bound change and the roundings move by less than
    ``2^-34 (r^2 + y^2)`` (see :meth:`_Union.contains_grid`)."""
    r2, y2 = r * r, y * y
    q = r2 - y2
    w = np.sqrt(np.maximum(q, 0.0))
    radius = _root_radius(q, (4.0 * _GRID_SHRINK) * (r2 + y2), w) + _GRID_MARGIN * (np.abs(c) + w)
    return c - w, c + w, radius


def _counts_around(xs, v, r):
    """``np.searchsorted(xs, v - r, "right")`` and ``np.searchsorted(xs,
    v + r, "right")`` for strictly increasing ``xs`` of two or more
    entries, ``v`` not NaN and ``r >= 0``, and the flat indices of the
    ``v`` where the two may differ.  One index per ``v``, estimated from
    the mean spacing, serves both where two exact comparisons confirm that
    no grid point lies in ``(v - r, v + r]`` and the estimate is the count
    below it; both are searched for elsewhere (in the band, and on a
    ``linspace`` grid within a few ulps of a grid point)."""
    n = xs.size
    f = np.minimum(np.maximum((v - xs[0]) * ((n - 1) / (xs[-1] - xs[0])), -0.5), n - 1.0)
    k = f.astype(np.intp)            # truncation: 0 below 0, the floor above
    k += f >= 0.0
    padded = np.concatenate(([-np.inf], xs, [np.inf]))   # padded[k] is xs[k - 1]
    down, up = v - r, v + r
    off = (padded[k] > down) | (padded[k + 1] <= up)
    below, above = k, k.copy()
    if not off.any():
        return below, above, np.empty(0, dtype=np.intp)
    at = np.flatnonzero(off)
    np.put(below, at, np.searchsorted(xs, down.take(at), "right"))
    np.put(above, at, np.searchsorted(xs, up.take(at), "right"))
    return below, above, at


def _spans(below, above, at, iy, n):
    """Flat indices ``iy * n + k`` of a grid with rows of ``n`` points, for
    every ``k`` from ``below`` up to ``above`` (exclusive), at the flat
    indices ``at`` of arrays whose last axis runs along ``iy``."""
    if not at.size:
        return at
    below = below.take(at)
    length = above.take(at) - below
    total = np.cumsum(length)
    first = iy[at % iy.size] * n + below
    return np.repeat(first - total + length, length) + np.arange(total[-1])


def _records(keys: tuple[str, ...], rows: list, depth: int) -> list:
    """Nested lists of table rows as nested lists of JSON objects with ``keys``."""
    if depth:
        return [_records(keys, r, depth - 1) for r in rows]
    return list(map(dict, map(zip, itertools.repeat(keys), rows)))


def _rows(keys: tuple[str, ...], records: list, depth: int) -> list:
    """Inverse of :func:`_records`."""
    if depth:
        return [_rows(keys, r, depth - 1) for r in records]
    return [[rec[k] for k in keys] for rec in records]


class _Union:
    """Union of primitive shapes held in one read-only table, one row each.

    A kind names its table field, row shape, JSON kind and record keys, and
    supplies its formulas as static functions of (a slice of) the table:
    ``_inside(z, table)`` maps p points and a table with an axis inserted
    after the first, its bounds raised by :func:`_slack`, to ``(m, p)``
    booleans, ``_extents`` gives each row's ``(x0, x1, half-height)``,
    ``_reach`` each row's largest modulus and ``_samples`` points on each
    row's boundary (or the kind overrides :meth:`boundary_points`).
    ``_exact`` says whether that modulus is attained.
    """

    _field: str
    _shape: tuple[int, ...]
    _kind: str
    _keys: tuple[str, ...]
    _exact = False

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        table, what = np.array(getattr(self, self._field), dtype=float), type(self).__name__
        if table.shape[1:] != self._shape or len(table) == 0:
            raise ValueError(f"a {what} needs one or more rows of shape {self._shape}")
        if not np.all(table[..., -1] >= 0.0):
            raise ValueError(f"{what} radii and bounds must be nonnegative")
        if not (np.isfinite(table).all() and np.isfinite(self._reaches(table)).all()):
            raise OverflowError(f"{what}: an entry or a reach is above the float range")
        table.setflags(write=False)
        object.__setattr__(self, self._field, table)

    @classmethod
    def _reaches(cls, table):
        """Every reach the range check covers: each row's :meth:`_reach`
        unless the kind names more."""
        return cls._reach(table)

    @classmethod
    def _named(cls, quantity: str, table):
        """``cls(table)``; a range refusal names ``quantity``."""
        try:
            return cls(table)
        except OverflowError as exc:
            raise OverflowError(f"{quantity}: {exc}") from None

    @property
    def table(self) -> np.ndarray:
        return getattr(self, self._field)

    def __len__(self) -> int:
        return len(self.table)

    @np.errstate(over="ignore", invalid="ignore")
    def contains_points(self, z) -> np.ndarray:
        """Points of z in the union.  The table, slackened once, is walked in
        its own row order in chunks of ``MEMBERSHIP_CHUNK`` rows, and each
        chunk tests, in blocks of ``core.BLOCK_ENTRIES // 2`` point-row
        pairs, only the points no earlier chunk accepted; membership is an
        OR over rows.  The points run along the fast axis.

        A point and a center within the float range can be farther apart
        than it: a disc's ``|z - c|`` then overflows to inf, and inf is
        outside every table the range gate admits, as :func:`_slack` keeps
        each threshold finite.  An oval's product is always taken at a
        quarter of the scale (:func:`_in_oval`), where no distance
        overflows.  So each point's answer depends only on that point and
        the table, not on the other points of the call or on the
        blocks."""
        z = np.asarray(z, dtype=complex)
        flat, table = z.ravel(), _slack(self.table)[:, None]
        todo = None   # every point, until the first chunk has run
        for c in range(0, len(table), MEMBERSHIP_CHUNK):
            if c:
                todo = np.flatnonzero(~hit) if todo is None else todo[~found]
                if not todo.size:
                    break
            points = flat if todo is None else flat[todo]
            rows = table[c:c + MEMBERSHIP_CHUNK]
            step = max(1, core.BLOCK_ENTRIES // 2 // len(rows))
            found = np.empty(points.size, dtype=bool)
            for i in range(0, points.size, step):
                found[i:i + step] = self._inside(points[i:i + step], rows).any(axis=0)
            if todo is None:
                hit = found
            else:
                hit[todo[found]] = True
        return hit.reshape(z.shape)

    def contains_grid(self, xs, ys) -> np.ndarray:
        """``contains_points(xs[None, :] + 1j * ys[:, None])``, bit for bit:
        the ``(len(ys), len(xs))`` membership of a grid.

        A primitive is at most two x-intervals on each row ``y``, in closed
        form (the kinds' ``_sections``), each computed once with a radius
        per end.  Its ends moved in by their radii give an inner section and
        moved out an outer one, with ``inner ⊆ accepted ⊆ outer`` (proved
        below).  The screen fills each row's union of outer intervals with
        one difference-array pass and takes it as the answer, except at the
        grid points within an end's radius of that end (the band), which go
        to :meth:`contains_points`, the one arbiter: a point of an outer
        section outside the bands of both its ends lies in the inner
        section.  Its cost is ``O(rows x primitives)`` sections plus
        ``O(rows x columns)`` for the fill.

        *Assumption*: ``np.abs`` of a complex number is within ``2^-40`` of
        its value, relatively, where the result is normal.  numpy's complex
        modulus is its own routine, not ``np.hypot``; against exact
        arithmetic it was within 2.35 ulps on 135k normal results (moduli
        1e-300 to 1e307), and a tier-1 test checks ``2^-40`` on seeded
        points.  A subnormal result was up to 8e-12 off relatively, but
        below ``2^-1074`` absolutely, which the slack's floor covers.

        *Proof.*  Let ``u = 2^-53``.  ``contains_points`` takes
        ``d = |fl(x - c) + iy|`` (``y - 0`` is exact), so ``d = D (1 + t)``
        with ``D`` the true distance and ``|t| < 2^-39``.  An oval is
        always decided at a quarter of the scale (:func:`_in_oval`), its
        product against ``b'/16``, which is exact, so a band point's answer
        does not depend on the other points of the band.  Above the subnormals
        ``x/4``, ``c/4`` and ``y/4`` are exact, so the quarter product is
        exactly 1/16 of the full-scale ``fl(d1 d2)``, which is
        ``D1 D2 (1 + t)`` with ``|t| < 2^-38``.  Below them the quarter
        coordinates, differences and moduli are off by a few times
        ``2^-1075`` at most, which moves the quarter product (its other
        factor below ``2^500`` in the screen's domain) by under ``2^-560``,
        far below ``2^-38 b'/16`` as ``b' >= 1e-9``, so the two bounds
        below hold there too.  A disc accepts iff ``d <= r'`` and an oval
        iff its product is at most ``b'/16`` (the slackened bounds of
        :func:`_slack`), so every accepted point has ``D <= r' (1 +
        2^-38)`` (or ``D1 D2 <= b' (1 + 2^-38)``), and every point with
        ``D <= r' (1 - 2^-38)`` is accepted.  So the real set of
        the bound grown to ``r' (1 + 2^-36)`` (``b' (1 + 2^-36)``) holds
        every accepted point, and that of the bound shrunk to
        ``r' (1 - 2^-36)`` only accepted ones.  No accepted point lies on a
        row with ``|y|`` above the half-height grown by ``2^-36``
        (``|y| <= D``, and ``y^2 <= D1 D2``), so only the rows within it
        are screened.  Each end is computed once, from the slackened bound:
        ``c -+ w`` with ``w = sqrt(max(q, 0))`` and ``q = r'^2 - y^2`` for a
        disc, ``m -+ sqrt(max(s, 0))`` at the ends ``s`` of an oval's
        interval of ``(x - m)^2`` (:meth:`CassiniUnion._sections`).  Its
        radius bounds its distance from the real end of both changed bounds:

        1. The quantity ``x`` a root is taken of is within ``e`` of its
           real value ``X`` for either changed bound.  A disc's ``q`` moves
           by ``2^-35 (1 + 2^-37) r'^2`` with the bound and rounds by
           ``2.01 u (r'^2 + y^2)``, and ``e = 2^-34 (r'^2 + y^2)``.  An
           oval's ``PQ = b'^2 - 4 h^2 y^2`` moves by ``2^-35 (1 + 2^-36)
           Q^2`` with the bound and rounds by ``6.1 u Q^2``, so by step 2
           its root is within ``sqrt(Q) min(sqrt(2^-34 Q), 2^-34 Q /
           sqrt(max(P, 0)))`` (``sqrt(Q) sqrt(max(P + 2^-34 Q, 0))`` where
           ``P <= 0``) plus ``2.01 u`` of itself; each ``s`` end adds
           ``6 u (h^2 + y^2 + Q)`` of roundings to that, and its ``e`` is
           ``_GRID_MARGIN (h^2 + y^2 + Q)`` plus that root's radius.
        2. A root then moves by less than ``min(sqrt(e), e / sqrt(max(x,
           0)))`` (:func:`_root_radius`): for ``x, X >= 0``,
           ``|sqrt(x) - sqrt(X)| = |x - X| / (sqrt(x) + sqrt(X))``, which
           is at most ``sqrt(|x - X|)`` and at most ``|x - X| / sqrt(x)``,
           and ``max(., 0)`` moves no value farther.  Where ``x <= 0`` it
           moves by less than ``sqrt(max(x + e, 0))``, as ``X < x + e``.
           At a tangent row (``x`` near 0) the radius is about
           ``sqrt(e)``: a wider band, not a wrong point.
        3. An end ``c -+ w`` (or ``m -+ sqrt(s)``, whose center rounds
           too) rounds by at most ``2.02 u (|c| + w)``, and moving it by
           its radius rounds by ``u`` times its size: ``_GRID_MARGIN =
           2^9 u`` times ``|c| + w``, added to the radius, covers both.

        Each ``e`` is computed at least 1.4 times the error it covers, so
        each radius is at least 1.18 times its bound (``sqrt(1.4)``; also
        where ``x <= 0``, as ``(x + e) / (x + E) >= e / E`` for ``E <= e``),
        room for its own roundings: each inner end lies within the real
        inner section and each outer end strictly beyond the real outer
        one.  A row that misses the primitive for a changed bound
        (``q < 0``, or ``PQ < 0``) has, with ``max(., 0)``, a real section
        that is one point, so the inner section, whose ends lie at or
        beyond it, is empty.  An oval's lower
        ``s`` end at or below ``-e`` is negative for both changed bounds:
        the row is the one interval ``|x - m| <= sqrt(s_hi)``, which both
        pieces then hold, with the upper end's radius.  A disc pair's
        section is the tighter of its two discs' ends, with the larger of
        their radii.  A section ``(lo, hi]`` holds the grid points above
        ``lo`` and up to ``hi``.  The slack keeps every slackened bound at
        least ``1e-9``, so every ``e`` is above ``2^-100``, far above an
        underflow's error.

        The screen declines, and the whole grid takes the exact path,
        unless ``xs`` increases in steps of at least ``2^-30`` of the
        largest magnitude ``M`` of the grid and the slackened table, and
        ``M <= 2^500`` (no NaN).  Up to ``2^500`` no square or product of
        the screen overflows and no distance of the exact path does; a
        finer grid would lie mostly in the band, which is about ``2^-33 M``
        wide off the tangent rows.  A grid with no row (whose largest
        magnitude is undefined) takes the exact path too.  Sections run over
        blocks of ``core.BLOCK_ENTRIES // (8 len(ys))`` table rows, so memory
        stays bounded.
        """
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        table = _slack(self.table)
        # the exact path for a grid the screen declines; top, the largest
        # magnitude, is NaN if any entry is
        if (not ys.size or xs.size < 2
                or not ((top := np.max([np.abs(a).max() for a in (xs, ys, table)])) <= _GRID_LIMIT
                        and np.diff(xs).min() >= _GRID_STEP * top)):
            return self.contains_points(xs[None, :] + 1j * ys[:, None])
        # the difference array of the outer sections runs along x, one grid
        # row per x index, so its cumsum adds whole rows at a time; sections
        # are taken only on the rows within a primitive's reach
        fill = np.zeros((xs.size + 1) * ys.size, dtype=np.intp)
        band = []
        step = max(1, core.BLOCK_ENTRIES // (8 * ys.size))
        for c in range(0, len(table), step):
            block = table[c:c + step]
            reach = self._extents(block)[2] * (1.0 + _GRID_SHRINK)
            iy, ip = np.nonzero(np.abs(ys)[:, None] <= reach)
            lo, hi, r_lo, r_hi = self._sections(block[ip], ys[iy])
            ends = _counts_around(xs, lo, r_lo), _counts_around(xs, hi, r_hi)
            (start, _, _), (_, stop, _) = ends
            np.add.at(fill, start * ys.size + iy, 1)
            np.subtract.at(fill, np.maximum(stop, start) * ys.size + iy, 1)
            band.extend(_spans(*end, iy, xs.size) for end in ends)
        inside = (np.cumsum(fill.reshape(-1, ys.size), axis=0)[:-1] > 0).T.copy()
        band = np.concatenate(band)   # a point in two ends' bands is tested twice
        if band.size:
            iy, ix = np.divmod(band, xs.size)
            inside.flat[band] = self.contains_points(xs[ix] + 1j * ys[iy])
        return inside

    def bounding_box(self) -> tuple[float, float, float, float]:
        x0, x1, h = self._extents(self.table)
        keep = x0 <= x1
        keep = keep if keep.any() else ~keep   # no disc pair overlaps: fall back to all
        return (float(x0[keep].min()), float(x1[keep].max()),
                -float(h[keep].max()), float(h[keep].max()))

    def max_abs(self) -> MaxAbs:
        return MaxAbs(float(self._reach(self.table).max()), self._exact)

    def boundary_points(self, angles: int = 256) -> np.ndarray:
        """Boundary samples kept where they lie in the region, which drops
        unattained arcs of disc pairs and disc samples that rounding put
        outside (center 1e8, radius 1e-3)."""
        pts = self._samples(self.table, angles)
        return pts[self.contains_points(pts)]

    def to_json(self) -> dict:
        return {"kind": self._kind,
                self._field: _records(self._keys, self.table.tolist(), len(self._shape) - 1)}

    @classmethod
    def from_json(cls, doc: dict):
        return cls(_rows(cls._keys, doc[cls._field], len(cls._shape) - 1))


@dataclass(frozen=True, eq=False)
class DiscUnion(_Union):
    """Union of closed discs with real centers, index-aligned with the
    matrix; ``discs`` is a read-only ``(n, 2)`` array of [center, radius].
    Its :meth:`max_abs` (``max |c| + r``) is exact."""

    discs: np.ndarray

    _field, _shape, _kind, _keys, _exact = "discs", (2,), "disc_union", ("center", "radius"), True

    @staticmethod
    def _inside(z, table):
        # complex centers: a float operand would be cast inside the broadcast loop
        return np.abs(z - table[..., 0].astype(complex)) <= table[..., 1]

    @staticmethod
    def _extents(table):
        c, r = table[..., 0], table[..., 1]
        return c - r, c + r, r

    @staticmethod
    def _sections(table, y):
        lo, hi, radius = _disc_sections(table[:, 0], table[:, 1], y)
        return lo[None], hi[None], radius[None], radius[None]

    @staticmethod
    def _reach(table):
        return np.abs(table[..., 0]) + table[..., 1]

    @staticmethod
    def _samples(table, angles):
        theta = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
        return (table[..., 0, None] + table[..., 1, None] * np.exp(1j * theta)).ravel()


@dataclass(frozen=True, eq=False)
class PairIntersectionUnion(_Union):
    """Union over columns j of the intersection of the two per-column discs;
    ``pairs`` is a read-only ``(n, 2, 2)`` array of [F disc, G disc] per
    column, each disc a [center, radius] row.  Each pair's extent and reach
    are the tighter of its two discs', but the range check covers both
    discs' reaches."""

    pairs: np.ndarray

    _field, _shape, _keys = "pairs", (2, 2), ("center", "radius")
    _kind = "pairwise_intersection_union"

    @staticmethod
    def _inside(z, table):
        return DiscUnion._inside(z, table[..., 0, :]) & DiscUnion._inside(z, table[..., 1, :])

    @staticmethod
    def _extents(table):
        x0, x1, h = DiscUnion._extents(table)
        return x0.max(axis=-1), x1.min(axis=-1), h.min(axis=-1)

    @staticmethod
    def _reach(table):
        return DiscUnion._reach(table).min(axis=-1)

    @staticmethod
    def _sections(table, y):
        lo, hi, radius = _disc_sections(table[..., 0], table[..., 1], y[:, None])
        radius = radius.max(axis=-1)[None]
        return lo.max(axis=-1)[None], hi.min(axis=-1)[None], radius, radius

    _reaches = staticmethod(DiscUnion._reach)
    _samples = staticmethod(DiscUnion._samples)


@dataclass(frozen=True, eq=False)
class CassiniUnion(_Union):
    """Union of ovals of Cassini ``|z - c1| * |z - c2| <= bound``; ``ovals``
    is a read-only ``(m, 3)`` array of [c1, c2, bound] rows.  Every member
    is within sqrt(bound) of the nearer focus."""

    ovals: np.ndarray

    _field, _shape, _kind, _keys = "ovals", (3,), "cassini_union", ("c1", "c2", "bound")

    @staticmethod
    def _inside(z, table):
        return _in_oval(z / 4, table[..., 0], table[..., 1], table[..., 2])

    @staticmethod
    def _extents(table):
        c1, c2, reach = table[..., 0], table[..., 1], np.sqrt(table[..., 2])
        return np.minimum(c1, c2) - reach, np.maximum(c1, c2) + reach, reach

    @staticmethod
    def _reach(table):
        return np.maximum(np.abs(table[..., 0]), np.abs(table[..., 1])) + np.sqrt(table[..., 2])

    @staticmethod
    def _sections(table, y):
        """With ``m = (c1 + c2) / 2``, ``h = (c2 - c1) / 2`` and
        ``s = (x - m)^2``, the oval is ``(s + h^2 + y^2)^2 - 4 h^2 s <= b^2``:
        ``s`` between ``a -+ sqrt(P Q)`` with ``a = h^2 - y^2``,
        ``P = b - 2|h y|`` and ``Q = b + 2|h y|``, and ``s >= 0``.  That is
        two mirrored x-intervals about ``m``, ``|x - m|`` from
        ``sqrt(s_lo)`` to ``sqrt(s_hi)``, which merge into one when
        ``s_lo <= 0``.  Each end's radius follows the error ``e`` of the
        ``s`` ends through their roots (see :meth:`_Union.contains_grid`)."""
        c1, c2, b = table.T
        m, h = (c1 + c2) / 2.0, np.abs(c2 - c1) / 2.0
        h2, y2 = h * h, y * y
        a, hy = h2 - y2, 2.0 * h * np.abs(y)
        p, q = b - hy, b + hy
        sp, sq = np.sqrt(np.maximum(p, 0.0)), np.sqrt(q)
        root = sp * sq
        e = _GRID_MARGIN * (h2 + y2 + q) + sq * _root_radius(p, (4.0 * _GRID_SHRINK) * q, sp)
        # the s ends (s_hi, s_lo) and |x - m| at them, on one leading axis
        sign = np.array([[-1.0], [1.0]])
        s = a - sign * root
        one = s[1] <= -e   # both pieces then hold the one interval |x - m| <= x_hi
        s[1, one] = s[0, one]
        x = np.sqrt(np.maximum(s, 0.0))
        radius = _root_radius(s, e, x) + _GRID_MARGIN * (np.abs(m) + x)
        np.negative(x[1], out=x[1], where=one)
        return m + sign * x, m + sign * x[::-1], radius, radius[::-1]

    @np.errstate(over="ignore")
    def boundary_points(self, angles: int = 256) -> np.ndarray:
        """Outermost membership crossings along rays from each focus, oval by
        oval (first focus, then second), by bisection on every ray at once.
        The bisection runs at a quarter of the scale, where no reach
        overflows, and :func:`_in_oval` decides each of its points as
        :meth:`contains_points` decides four times that point, the sample
        it returns.  So every finite sample belongs to its own oval."""
        bound = _slack(self.ovals)[:, 2, None, None]
        c1, c2, b = self.ovals.T[..., None, None]
        reach = np.sqrt(b) / 4 + np.abs(c1 / 4 - c2 / 4) + 0.25
        theta = np.linspace(0.0, 2.0 * np.pi, angles // 2, endpoint=False)
        directions = np.exp(1j * theta)
        focus = np.concatenate((c1, c2), axis=1) / 4
        lo = np.zeros((len(self.ovals), 2, theta.size))
        hi = np.broadcast_to(reach, lo.shape)
        for _ in range(40):
            mid = (lo + hi) / 2.0
            inside = _in_oval(focus + mid * directions, c1, c2, bound)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return (4 * (focus + lo * directions)).ravel()


@dataclass(frozen=True)
class RegionIntersection:
    """Finite intersection of regions; a point belongs iff it is in every part."""

    parts: tuple

    _kind = "intersection"

    def __post_init__(self):
        if not self.parts:
            raise ValueError("an intersection needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def contains_points(self, z) -> np.ndarray:
        """Each part tests only the points every earlier part accepted."""
        z = np.asarray(z, dtype=complex)
        hit = self.parts[0].contains_points(z)
        for part in self.parts[1:]:
            hit[hit] = part.contains_points(z[hit])
        return hit

    def contains_grid(self, xs, ys) -> np.ndarray:
        """``contains_points(xs[None, :] + 1j * ys[:, None])``: the AND of
        the parts' :meth:`_Union.contains_grid`.  Each part tests all of
        ``xs`` on only the rows that hold a point every earlier part
        accepted."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        hit = self.parts[0].contains_grid(xs, ys)
        for part in self.parts[1:]:
            rows = np.flatnonzero(hit.any(axis=1))
            if not rows.size:
                break
            hit[rows] &= part.contains_grid(xs, ys[rows])
        return hit

    def bounding_box(self) -> tuple[float, float, float, float]:
        boxes = [p.bounding_box() for p in self.parts]
        box = (max(b[0] for b in boxes), min(b[1] for b in boxes),
               max(b[2] for b in boxes), min(b[3] for b in boxes))
        if box[0] > box[1] or box[2] > box[3]:
            # parts with disjoint boxes: fall back to the tightest part
            boxes.sort(key=lambda b: (b[1] - b[0]) * (b[3] - b[2]))
            return boxes[0]
        return box

    def max_abs(self) -> MaxAbs:
        return MaxAbs(min(p.max_abs().value for p in self.parts), False)

    def boundary_points(self, angles: int = 256) -> np.ndarray:
        pts = np.concatenate([p.boundary_points(angles) for p in self.parts])
        return pts[self.contains_points(pts)]

    def to_json(self) -> dict:
        return {"kind": self._kind, "parts": [p.to_json() for p in self.parts]}

    @classmethod
    def from_json(cls, doc: dict):
        return cls(tuple(region_from_json(p) for p in doc["parts"]))


def max_abs(region) -> MaxAbs:
    """Largest modulus over the region.

    Exact for disc unions (``max |c| + r``); for every other kind the value
    is a safe upper bound: pair intersections and general intersections use
    the smallest bound among their parts, ovals use focus distance plus
    sqrt(bound).  The flag says which case applies.
    """
    return region.max_abs()


def sampled_subset(region_a, region_b, resolution: int = 64) -> SubsetCheck:
    """Sampled test of ``region_a ⊆ region_b``.

    Samples the boundary of every primitive shape of ``region_a`` at
    ``4 * resolution`` angles plus a ``resolution x resolution`` grid over
    its bounding box; returns the first witness in A but not in B, if any.
    """
    if (isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral)
            or resolution < 16):
        raise ValueError(f"resolution must be an int >= 16, got {resolution!r}")
    x0, x1, y0, y1 = region_a.bounding_box()
    # at half scale the box's width stays in range; doubling back is exact
    xs = 2 * np.linspace(x0 / 2, x1 / 2, resolution)
    ys = 2 * np.linspace(y0 / 2, y1 / 2, resolution)
    iy, ix = np.nonzero(region_a.contains_grid(xs, ys))
    pts = np.concatenate((region_a.boundary_points(4 * resolution), xs[ix] + 1j * ys[iy]))
    inside_b = region_b.contains_points(pts)
    if np.all(inside_b):
        return SubsetCheck(True, None)
    witness = pts[~inside_b][0]
    return SubsetCheck(False, complex(witness))


# ---------------------------------------------------------------------------
# JSON round-trip and JSON text
# ---------------------------------------------------------------------------

_KINDS = (DiscUnion, PairIntersectionUnion, CassiniUnion, RegionIntersection)


def region_to_json(region) -> dict:
    return region.to_json()


def region_from_json(doc: dict):
    """Rebuild a region from its documented JSON form."""
    kind = doc.get("kind")
    for cls in _KINDS:
        if cls._kind == kind:
            return cls.from_json(doc)
    raise ValueError(f"unknown region kind: {kind!r}")


def iterencode(doc) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2)`` in pieces, for a ``doc`` of
    dicts with string keys, lists, tuples, strings, ints, floats, booleans
    and None.  ``doc`` may also hold regions, written as their
    ``to_json()``, and numpy arrays, written as their ``tolist()``; both go
    a chunk of rows per ``%`` format (``JSON_CHUNK`` floats), so no piece
    grows with the table and no dict per row is built."""
    return _text(doc, 0)


def _text(doc, level: int) -> Iterator[str]:
    """:func:`iterencode` of ``doc`` nested ``level`` deep."""
    if isinstance(doc, str):
        yield encode_basestring_ascii(doc)
    elif doc is None:
        yield "null"
    elif doc is True:
        yield "true"
    elif doc is False:
        yield "false"
    elif isinstance(doc, int):
        yield int.__repr__(doc)
    elif isinstance(doc, float):
        yield _float_text(doc)
    elif isinstance(doc, (list, tuple, dict)):
        brackets = "{}" if isinstance(doc, dict) else "[]"
        if not doc:
            yield brackets
            return
        sep = ",\n" + "  " * (level + 1)
        if isinstance(doc, dict):
            for i, (key, value) in enumerate(doc.items()):
                yield (sep if i else "{" + sep[1:]) + encode_basestring_ascii(key) + ": "
                yield from _text(value, level + 1)
        else:
            for i, value in enumerate(doc):
                yield sep if i else "[" + sep[1:]
                yield from _text(value, level + 1)
        yield "\n" + "  " * level + brackets[1]
    elif isinstance(doc, np.ndarray):
        yield from _array_text(doc, level)
    elif isinstance(doc, _Union):
        # its table goes a chunk of rows per % format, with no dict per row
        inner = "\n" + "  " * (level + 1)
        yield f'{{{inner}"kind": "{doc._kind}",{inner}"{doc._field}": '
        yield from _array_text(doc.table, level + 1, doc._keys)
        yield "\n" + "  " * level + "}"
    elif isinstance(doc, RegionIntersection):
        yield from _text({"kind": doc._kind, "parts": doc.parts}, level)
    else:
        raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    """A float as json writes it."""
    if x != x:
        return "NaN"
    if x == np.inf:
        return "Infinity"
    if x == -np.inf:
        return "-Infinity"
    return float.__repr__(x)


def _array_text(array: np.ndarray, level: int, keys: tuple[str, ...] = ()) -> Iterator[str]:
    """:func:`_text` of ``array.tolist()``, its last axis as objects
    with ``keys`` if given, one ``%`` format per chunk of rows."""
    if (array.dtype.kind != "f" or array.ndim == 0 or array.size == 0
            or not np.isfinite(array).all()):
        # json's own spellings: empty containers, NaN/Infinity, ints and bools
        rows = array.tolist()
        yield from _text(_records(keys, rows, array.ndim - 2) if keys else rows, level)
        return
    array = np.ascontiguousarray(array, dtype=float)
    sep = ",\n" + "  " * (level + 1)
    row = _template(array.shape[1:], level + 1, keys)
    step = min(len(array), max(1, JSON_CHUNK // array[0].size))
    full = sep.join([row] * step)
    yield "[" + sep[1:]
    for i in range(0, len(array), step):
        block = array[i:i + step]
        text = full if len(block) == step else sep.join([row] * len(block))
        # one repr per distinct float of the chunk (by bits: 0.0 is not -0.0)
        bits, index = np.unique(block.view(np.int64), return_inverse=True)
        reprs = list(map(float.__repr__, bits.view(float).tolist()))
        yield (sep + text if i else text) % tuple(map(reprs.__getitem__, index.ravel().tolist()))
    yield "\n" + "  " * level + "]"


def _template(shape: tuple[int, ...], level: int, keys: tuple[str, ...]) -> str:
    """The ``%`` template of one nonempty array element of ``shape`` nested
    ``level`` deep, each float a ``%s`` for its ``float.__repr__``."""
    if not shape:
        return "%s"
    sep = ",\n" + "  " * (level + 1)
    if len(shape) == 1 and keys:
        items = [encode_basestring_ascii(k) + ": %s" for k in keys]
        brackets = "{}"
    else:
        items, brackets = [_template(shape[1:], level + 1, keys)] * shape[0], "[]"
    return brackets[0] + sep[1:] + sep.join(items) + "\n" + "  " * level + brackets[1]

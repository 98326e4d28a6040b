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
formatted straight from the table (``iter_json``, and :func:`iterencode`
for documents that hold regions and arrays).  Membership tests blocks of points against a chunk of
primitives at once, in blocks of fixed size, with one relative slack for
every kind (:func:`_slack`).  It takes at most ``O(points * primitives)``
time, and a point leaves the later chunks of a large table once one chunk
accepts it.
``contains_points`` is the one exact membership predicate.  A grid's
membership (``contains_grid``, for rasters and sampled comparisons) comes
from each primitive's closed-form x-sections on each grid row instead:
``O(rows * primitives)`` sections decide every point outside a thin,
proven rounding band around the boundaries, and only the band's points
reach ``contains_points``, so the answer is the same bit for bit.
Intersections are never converted to explicit shapes; membership
predicates compose instead, and set comparisons are sampled (boundary
points plus a grid over the bounding box).  This module imports no other
eigenfence module.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

#: Relative slack used by all membership predicates.
MEMBERSHIP_EPS = 1e-9

#: Point-primitive pairs per membership block (one point at least).  On x86-64,
#: over a 257^2 raster, 2^12 ran 1024 discs 1.6x and Ostrowski-Brauer ovals
#: 2-3.5x slower (per-call overhead), and 2^16 ran n = 64 ovals 2x slower in a
#: fresh process (temporaries freshly paged in for every block).
MEMBERSHIP_BLOCK = 1 << 15

#: Table rows per membership chunk; a larger table is sorted by half-height
#: and its later chunks see only the points earlier chunks left undecided.
MEMBERSHIP_CHUNK = 64

#: Floats per ``%`` format when a float array is written as JSON text.
JSON_CHUNK = 1 << 14

# The raster screen of :meth:`_Union.contains_grid`: bounds shrunk and grown
# by _GRID_SHRINK, section margins of _GRID_MARGIN times the magnitudes
# they cover, the largest grid or table entry it certifies, and its finest
# x step relative to that entry.
_GRID_SHRINK = 2.0 ** -36
_GRID_MARGIN = 2.0 ** -44
_GRID_LIMIT = 2.0 ** 500
_GRID_STEP = 2.0 ** -30

#: (inner, outer) signs of the screen's margins, on their own leading axis.
_INNER_OUTER = np.array([-1.0, 1.0])


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


def _disc_sections(c, r, y):
    """Inner and outer x-sections ``(lo, hi)`` of the discs ``|z - c| <= r``
    (slackened radii) on the rows ``y`` (one per disc, or broadcast
    against it), each of shape ``(2, *c.shape)``: ``(x - c)^2 <=
    rho^2 - y^2``, the margin on the right side before its root (see
    :meth:`_Union.contains_grid`).  An empty section has ``hi = -inf``."""
    sign = _INNER_OUTER.reshape((2,) + (1,) * c.ndim)
    rho = r * (1.0 + sign * _GRID_SHRINK)
    rho2, y2 = rho * rho, y * y
    q = rho2 - y2 + sign * _GRID_MARGIN * (rho2 + y2)
    w = np.sqrt(np.maximum(q, 0.0))
    g = sign * _GRID_MARGIN * (np.abs(c) + w)
    return c - w - g, np.where(q < 0.0, -np.inf, c + w + g)


def _count_at_most(xs, v):
    """``np.searchsorted(xs, v, "right")`` for strictly increasing ``xs``
    of two or more entries and ``v`` not NaN: the index estimated from the
    mean spacing, kept where two exact comparisons confirm it, and searched
    for elsewhere (on a ``linspace`` grid, only within a few ulps of a
    grid point)."""
    n = xs.size
    f = np.clip((v - xs[0]) * ((n - 1) / (xs[-1] - xs[0])), -0.5, n - 1.0)
    k = f.astype(np.intp)            # truncation: 0 below 0, the floor above
    k += f >= 0.0
    padded = np.concatenate(([-np.inf], xs, [np.inf]))   # padded[k] is xs[k - 1]
    off = (padded[k] > v) | (padded[k + 1] <= v)
    if off.any():
        k[off] = np.searchsorted(xs, v[off], "right")
    return k


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
        """Points of z in the union.  A table of more than ``MEMBERSHIP_CHUNK``
        rows is walked in chunks, largest half-height first, and each chunk
        tests only the points no earlier chunk accepted; membership is an OR
        over rows, so the order cannot change the answer.

        A point and a center within the float range can be farther apart
        than it: ``|z - c|`` then overflows to inf, and inf is outside
        every table the range gate admits, as :func:`_slack` keeps each
        threshold finite.  An oval's product is taken at a quarter of the
        scale instead when a distance overflows (see
        :meth:`CassiniUnion._inside`)."""
        z = np.asarray(z, dtype=complex)
        flat, table = z.ravel(), self.table
        if len(table) <= MEMBERSHIP_CHUNK:
            return self._any(flat, table).reshape(z.shape)
        table = table[np.argsort(-self._extents(table)[2], kind="stable")]
        hit = self._any(flat, table[:MEMBERSHIP_CHUNK])
        todo = np.flatnonzero(~hit)
        for c in range(MEMBERSHIP_CHUNK, len(table), MEMBERSHIP_CHUNK):
            if not todo.size:
                break
            found = self._any(flat, table[c:c + MEMBERSHIP_CHUNK], todo)
            hit[todo[found]] = True
            todo = todo[~found]
        return hit.reshape(z.shape)

    def contains_grid(self, xs, ys) -> np.ndarray:
        """``contains_points(xs[None, :] + 1j * ys[:, None])``, bit for bit:
        the ``(len(ys), len(xs))`` membership of a grid.

        On each row ``y`` a primitive is at most two x-intervals in closed
        form (the kinds' ``_sections``).  The screen builds an inner and an
        outer set from them, with ``inner ⊆ accepted ⊆ outer`` (proved
        below), fills each row's union of intervals with one
        difference-array pass, and sends only the points of
        ``outer \\ inner`` to :meth:`contains_points`, which stays the one
        arbiter.  Its cost is ``O(rows x primitives)`` sections plus
        ``O(rows x columns)`` for the fill.

        *Assumption*: ``np.abs`` of a complex number is within ``2^-40`` of
        its value, relatively (libm's ``hypot`` is within 1 ulp).

        *Proof.*  Let ``u = 2^-53``.  ``contains_points`` takes
        ``d = |fl(x - c) + iy|`` (``y - 0`` is exact), so ``d = D (1 + t)``
        with ``D`` the true distance and ``|t| < 2^-39``; an oval's product
        ``fl(d1 d2)`` is ``D1 D2 (1 + t)`` with ``|t| < 2^-38``.  A disc
        accepts iff ``d <= r'`` and an oval iff ``fl(d1 d2) <= b'`` (the
        slackened bounds of :func:`_slack`), so every accepted point has
        ``D <= r' (1 + 2^-38)`` (or ``D1 D2 <= b' (1 + 2^-38)``), and every
        point with ``D <= r' (1 - 2^-38)`` is accepted.  The outer set is
        the real set of the bound grown to ``fl(r' (1 + 2^-36))``, the inner
        one that of the bound shrunk to ``fl(r' (1 - 2^-36))``, both beyond
        those limits.  No accepted point lies on a row with ``|y|`` above
        the half-height grown by ``2^-36`` (``|y| <= D``, and
        ``y^2 <= D1 D2``), so only the rows within it are screened.  The
        sections are computed in floats: each squared quantity
        (``rho^2 - y^2``, an oval's discriminant factor and ``s`` ends)
        takes a few roundings, each at most ``u`` times a magnitude that
        its margin is ``_GRID_MARGIN = 2^9 u`` times, and each end
        ``c +- w`` likewise against ``_GRID_MARGIN (|c| + w)``.  Outer
        margins widen and inner ones narrow, with room for their own
        roundings, so each computed outer section holds the real one and
        each computed inner section lies in it.  A square root comes after
        its margin, so a near-tangent row costs a wider band, not a wrong
        point.  A section ``(lo, hi]`` holds the grid points above ``lo``
        and up to ``hi``; the outer ends are strictly beyond the real ones.
        The slack keeps every slackened bound at least ``1e-9``, so every
        squared margin is above ``2^-110``, far above an underflow's error.

        The screen declines, and the whole grid takes the exact path,
        unless the grid has a row, ``xs`` increases in steps of at least
        ``2^-30`` of the largest magnitude ``M`` of the grid and the
        slackened table, and ``M <= 2^500`` (no NaN).  Up to ``2^500`` no
        square or product of the screen overflows and no distance of the
        exact path does; a finer grid would lie mostly in the band, which
        is about ``2^-35 M`` wide.  Sections run over blocks of
        ``MEMBERSHIP_BLOCK // (4 len(ys))`` table rows, so memory stays
        bounded.
        """
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        table = _slack(self.table)
        top = np.max([np.abs(a).max(initial=0.0) for a in (xs, ys, table)])   # NaN if any is
        if not (xs.size >= 2 and ys.size and top <= _GRID_LIMIT
                and np.diff(xs).min() >= _GRID_STEP * top):
            return self.contains_points(xs[None, :] + 1j * ys[:, None])
        # the difference array runs along x, one (inner, outer) pair of
        # grid rows per x index, so its cumsum adds whole rows at a time;
        # sections are taken only on the rows within a primitive's reach
        rows = 2 * ys.size
        fill = np.zeros((xs.size + 1) * rows, dtype=np.intp)
        step = max(1, MEMBERSHIP_BLOCK // (4 * ys.size))
        for c in range(0, len(table), step):
            block = table[c:c + step]
            reach = self._extents(block)[2] * (1.0 + _GRID_SHRINK)
            iy, ip = np.nonzero(np.abs(ys)[:, None] <= reach)
            lo, hi = self._sections(block[ip], ys[iy])
            start = _count_at_most(xs, lo)
            stop = np.maximum(_count_at_most(xs, hi), start)
            offset = iy + np.array([0, ys.size])[:, None, None]
            np.add.at(fill, start * rows + offset, 1)
            np.subtract.at(fill, stop * rows + offset, 1)
        fill = fill.reshape(-1, rows)
        counts = np.cumsum(fill, axis=0, out=fill)[:-1] > 0
        inside = counts[:, :ys.size].T.copy()
        band = np.flatnonzero(counts[:, ys.size:].T > inside)
        if band.size:
            iy, ix = np.divmod(band, xs.size)
            inside.flat[band] = self.contains_points(xs[ix] + 1j * ys[iy])
        return inside

    def _any(self, flat, rows, at=None) -> np.ndarray:
        """Whether any of ``rows`` holds each point of ``flat`` (or of
        ``flat[at]``).  Blocks of ``MEMBERSHIP_BLOCK`` point-row pairs keep
        every temporary small, and the points of ``at`` are gathered one
        block at a time; the points run along the fast axis."""
        rows = _slack(rows)[:, None]
        size = flat.size if at is None else at.size
        out = np.empty(size, dtype=bool)
        step = max(1, MEMBERSHIP_BLOCK // len(rows))
        for i in range(0, size, step):
            block = flat[i:i + step] if at is None else flat[at[i:i + step]]
            out[i:i + step] = self._inside(block, rows).any(axis=0)
        return out

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

    def iter_json(self, level: int = 0) -> Iterator[str]:
        """The text of :meth:`to_json` as ``json.dumps(..., indent=2)`` writes
        it, nested ``level`` deep, in pieces: the table goes a chunk of rows
        per ``%`` format, with no dict per row."""
        inner = "\n" + "  " * (level + 1)
        yield f'{{{inner}"kind": "{self._kind}",{inner}"{self._field}": '
        yield from _array_text(self.table, level + 1, self._keys)
        yield "\n" + "  " * level + "}"

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
        lo, hi = _disc_sections(table[:, 0], table[:, 1], y)
        return lo[:, None], hi[:, None]

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
        lo, hi = _disc_sections(table[..., 0], table[..., 1], y[:, None])
        return lo.max(axis=-1)[:, None], hi.min(axis=-1)[:, None]

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
        c1, c2 = table[..., 0].astype(complex), table[..., 1].astype(complex)
        d1, d2 = np.abs(z - c1), np.abs(z - c2)
        if np.isfinite(d1).all() and np.isfinite(d2).all():
            return d1 * d2 <= table[..., 2]
        # inf times a distance of 0 is NaN, and times one below 1 can be in
        # range: at a quarter of the scale no distance overflows, and the
        # product scales back exactly (z / 4 is exact above the subnormals)
        return 16 * (np.abs(z / 4 - c1 / 4) * np.abs(z / 4 - c2 / 4)) <= table[..., 2]

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
        one x-interval about ``m``, or two mirrored ones when the lower end
        is positive.  The margins go on ``P`` (before its root) and on the
        ends of ``s`` (before theirs)."""
        sign = _INNER_OUTER[:, None]
        c1, c2, b = table.T
        b = b * (1.0 + sign * _GRID_SHRINK)
        m, h = (c1 + c2) / 2.0, np.abs(c2 - c1) / 2.0
        h2, y2 = h * h, y * y
        a, hy = h2 - y2, 2.0 * h * np.abs(y)
        p, q = b - hy, b + hy
        p += sign * _GRID_MARGIN * q
        root = np.sqrt(np.maximum(p, 0.0)) * np.sqrt(q)
        margin = sign * _GRID_MARGIN * (h2 + y2 + q)
        s_hi, s_lo = a + root + margin, a - root - margin
        x_hi = np.sqrt(np.maximum(s_hi, 0.0))
        g = sign * _GRID_MARGIN * (np.abs(m) + x_hi)
        # |x - m| in [x_lo, x_hi]; with s_lo <= 0 that is one interval,
        # which the two pieces then both hold
        x_lo = np.where(s_lo > 0.0, np.sqrt(np.maximum(s_lo, 0.0)), -x_hi)
        lo = np.stack((m - x_hi - g, m + x_lo - g), axis=1)
        hi = np.stack((m - x_lo + g, m + x_hi + g), axis=1)
        return lo, np.where((s_hi < 0.0)[:, None], -np.inf, hi)

    @np.errstate(over="ignore")
    def boundary_points(self, angles: int = 256) -> np.ndarray:
        """Outermost membership crossings along rays from each focus, oval by
        oval (first focus, then second), by bisection on every ray at once.
        The bisection keeps only accepted points, so every sample belongs to
        its own oval.  It runs at a quarter of the scale, as :meth:`_inside`
        does when a distance overflows: there no reach or distance
        overflows (a far product is inf, outside), and the accepted points
        scale back exactly."""
        bound = _slack(self.ovals)[:, 2, None, None] / 16   # exact: the slack keeps it >= 1e-9
        c1, c2, b = (col[:, None, None] for col in self.ovals.T)
        c1, c2 = (c1 / 4).astype(complex), (c2 / 4).astype(complex)
        reach = np.sqrt(b) / 4 + np.abs(c1 - c2) + 0.25
        theta = np.linspace(0.0, 2.0 * np.pi, angles // 2, endpoint=False)
        directions = np.exp(1j * theta)
        focus = np.concatenate((c1, c2), axis=1)
        lo = np.zeros((len(self.ovals), 2, theta.size))
        hi = np.broadcast_to(reach, lo.shape)
        for _ in range(40):
            mid = (lo + hi) / 2.0
            z = focus + mid * directions
            inside = np.abs(z - c1) * np.abs(z - c2) <= bound
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
        the parts' :meth:`_Union.contains_grid`.  Each part tests only the
        rows that hold a point every earlier part accepted, between the
        first and the last such column."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        hit = self.parts[0].contains_grid(xs, ys)
        for part in self.parts[1:]:
            rows, cols = np.flatnonzero(hit.any(axis=1)), np.flatnonzero(hit.any(axis=0))
            if not rows.size:
                break
            cols = np.arange(cols[0], cols[-1] + 1)
            hit[np.ix_(rows, cols)] &= part.contains_grid(xs[cols], ys[rows])
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

    def iter_json(self, level: int = 0) -> Iterator[str]:
        """The text of :meth:`to_json`, as :meth:`_Union.iter_json` writes it."""
        return _text({"kind": self._kind, "parts": self.parts}, level)

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
    elif isinstance(doc, (_Union, RegionIntersection)):
        yield from doc.iter_json(level)
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

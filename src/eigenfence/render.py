"""Deterministic SVG rendering of layered regions and eigenvalue markers.

Disc unions are drawn as true circles.  Every other region kind (Cassini
unions, pair intersections, general intersections) is rasterized to filled
contours by marching squares over the membership predicate, taken on the
raster grid by the region's ``contains_grid`` (the exact predicate's answer
at every grid point): one array pass codes every raster cell and lists the
crossed edges as integer ids, and Python only walks the contour itself.
Identical scenes produce byte-identical SVG documents.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ViewportError
from .geometry import DiscUnion

GRAY = "#c8c8c8"
BLUE = "#4477dd"
TURQUOISE = "#33ccbb"
BLACK = "#000000"
YELLOW = "#ffcc00"

#: fraction of the content extent added around an auto-fitted viewport
AUTO_PAD = 0.10

#: width and height of every document, in pixels
SIZE_PX = 640

#: the format of every coordinate and length in a document: ``_fmt`` and
#: the contour paths of ``_raster_path``
_NUM = "%.2f"


@dataclass(frozen=True)
class Scene:
    """What to draw: ordered layers (later on top), markers, viewport.

    ``layers`` holds (region, fill color, opacity) triples; ``points`` holds
    (complex location, color) pairs.  ``viewport`` is (xmin, xmax, ymin,
    ymax) or None for auto-fit; it is squared up internally so circles stay
    circular.  ``raster_res`` is the number of raster cells per side, a
    positive int.
    """

    layers: tuple = ()
    points: tuple = ()
    viewport: tuple[float, float, float, float] | None = None
    raster_res: int = 256

    def __post_init__(self):
        res = self.raster_res
        if isinstance(res, bool) or not isinstance(res, numbers.Integral) or res < 1:
            raise ValueError(f"raster_res must be a positive int, got {res!r}")
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "points", tuple(self.points))


def _auto_box(scene: Scene) -> tuple[float, float, float, float]:
    boxes = [region.bounding_box() for region, _c, _o in scene.layers]
    for z, _color in scene.points:
        z = complex(z)
        boxes.append((z.real, z.real, z.imag, z.imag))
    if not boxes:
        raise ViewportError("nothing to draw and no viewport given")
    x0 = min(b[0] for b in boxes)
    x1 = max(b[1] for b in boxes)
    y0 = min(b[2] for b in boxes)
    y1 = max(b[3] for b in boxes)
    extent = max(x1 - x0, y1 - y0, 1.0)
    pad = AUTO_PAD * extent
    return (x0 - pad, x1 + pad, y0 - pad, y1 + pad)


def _squared(box: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """The square box with the center of ``box`` and its larger side.
    Refuses a box that is empty or NaN, and one whose width, height or
    square is above the float range (ends within the range can still be
    farther apart than it).  The center is a sum of halves, which does not
    overflow."""
    x0, x1, y0, y1 = box
    if not (x0 < x1 and y0 < y1):
        raise ViewportError(f"degenerate viewport {box}")
    width, height = x1 - x0, y1 - y0
    side = max(width, height)
    if side == math.inf:
        which = "width" if width == side else "height"
        raise ViewportError(f"viewport {which} is above the float range: {box}")
    cx, cy = x0 / 2.0 + x1 / 2.0, y0 / 2.0 + y1 / 2.0
    square = (cx - side / 2.0, cx + side / 2.0, cy - side / 2.0, cy + side / 2.0)
    if not all(map(math.isfinite, square)):
        raise ViewportError(f"viewport squared to side {side!r} is above the float range: {box}")
    return square


def _fmt(x: float) -> str:
    return _NUM % x


class _Transform:
    def __init__(self, box):
        self.x0, self.x1, self.y0, self.y1 = box
        self.scale = SIZE_PX / (self.x1 - self.x0)

    def px(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.x0) * self.scale, (self.y1 - y) * self.scale)


# ---------------------------------------------------------------------------
# marching squares over the membership predicate
# ---------------------------------------------------------------------------

# corner bits: 1 = (ix, iy), 2 = (ix+1, iy), 4 = (ix+1, iy+1), 8 = (ix, iy+1);
# cell edges (midpoints): 0 top, 1 bottom, 2 left, 3 right; up to two
# segments per cell code, -1 where a code has fewer
_SEGMENTS = np.array([
    [[-1, -1], [-1, -1]], [[0, 2], [-1, -1]], [[0, 3], [-1, -1]], [[2, 3], [-1, -1]],
    [[3, 1], [-1, -1]], [[0, 2], [3, 1]], [[0, 1], [-1, -1]], [[2, 1], [-1, -1]],
    [[2, 1], [-1, -1]], [[0, 1], [-1, -1]], [[0, 3], [2, 1]], [[3, 1], [-1, -1]],
    [[2, 3], [-1, -1]], [[0, 3], [-1, -1]], [[0, 2], [-1, -1]], [[-1, -1], [-1, -1]],
])


def _march(inside: np.ndarray) -> list[np.ndarray]:
    """Closed contour loops of a padded boolean grid ``inside[iy, ix]``.

    Each loop is an ``(m, 2)`` array of (x, y) grid coordinates of crossed
    edge midpoints.  A crossing is the integer id ``kind * nx * ny + ix * ny
    + iy`` of its edge (kind 0 for the horizontal edge right of grid point
    (ix, iy), 1 for the vertical edge below it); loops start at the
    smallest unvisited id and first step to the smaller neighbour.
    """
    ny, nx = inside.shape
    b = inside.astype(np.uint8)
    codes = b[:-1, :-1] | b[:-1, 1:] << 1 | b[1:, 1:] << 2 | b[1:, :-1] << 3
    iy, ix = np.nonzero((codes != 0) & (codes != 15))
    segs = _SEGMENTS[codes[iy, ix]]
    offsets = np.array([0, 1, nx * ny, nx * ny + ny])
    ends = (ix * ny + iy)[:, None, None] + offsets[segs]
    ends = ends[segs[..., 0] >= 0]
    if not len(ends):
        return []

    # every crossing midpoint is used by exactly one segment of each of its
    # two adjacent cells, so the contour graph is a union of simple cycles
    node = np.concatenate((ends[:, 0], ends[:, 1]))
    other = np.concatenate((ends[:, 1], ends[:, 0]))
    order = np.lexsort((other, node))
    ids, other = node[order][::2], other[order]
    lo = np.searchsorted(ids, other[::2]).tolist()
    hi = np.searchsorted(ids, other[1::2]).tolist()

    walk, starts = [], []
    seen = [False] * len(ids)
    for start in range(len(ids)):
        if seen[start]:
            continue
        starts.append(len(walk))
        prev, current = None, start
        while not seen[current]:
            walk.append(current)
            seen[current] = True
            prev, current = current, hi[current] if lo[current] == prev else lo[current]

    kind, rest = np.divmod(ids[walk], nx * ny)
    gx, gy = np.divmod(rest, ny)
    xy = np.stack((gx + 0.5 * (1 - kind), gy + 0.5 * kind), axis=1)
    return np.split(xy, starts[1:])


def _raster_path(region, box, res: int, transform: _Transform) -> str:
    xs = np.linspace(box[0], box[1], res + 1)
    ys = np.linspace(box[2], box[3], res + 1)
    inside = region.contains_grid(xs, ys)
    padded = np.zeros((res + 3, res + 3), dtype=bool)
    padded[1:-1, 1:-1] = inside

    x0, x1, y0, y1 = box
    dx, dy = (x1 - x0) / res, (y1 - y0) / res
    parts = []
    for loop in _march(padded):
        # grid coordinates minus the one-cell pad, then plane, then pixels
        px, py = transform.px(x0 + (loop[:, 0] - 1) * dx, y0 + (loop[:, 1] - 1) * dy)
        xy = np.stack((px, py), axis=1).ravel().tolist()
        parts.append(("M" + "L".join([f"{_NUM} {_NUM}"] * len(loop)) + "Z") % tuple(xy))
    return "".join(parts)


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------

def render_svg(scene: Scene) -> str:
    """Render a scene to an SVG document string (deterministic)."""
    box = _squared(scene.viewport if scene.viewport is not None else _auto_box(scene))
    t = _Transform(box)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE_PX}" height="{SIZE_PX}" '
        f'viewBox="0 0 {SIZE_PX} {SIZE_PX}">',
        f'<rect x="0" y="0" width="{SIZE_PX}" height="{SIZE_PX}" fill="#ffffff"/>',
    ]

    for region, color, opacity in scene.layers:
        out.append(f'<g fill="{color}" fill-opacity="{opacity:g}" stroke="none" '
                   'fill-rule="evenodd">')
        if isinstance(region, DiscUnion):
            for center, radius in region.discs.tolist():
                cx, cy = t.px(center, 0.0)
                out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                           f'r="{_fmt(radius * t.scale)}"/>')
        else:
            d = _raster_path(region, box, scene.raster_res, t)
            if d:
                out.append(f'<path d="{d}"/>')
        out.append("</g>")

    # axes through the origin, when visible
    x0, x1, y0, y1 = box
    if x0 <= 0.0 <= x1:
        px, _ = t.px(0.0, 0.0)
        out.append(f'<line x1="{_fmt(px)}" y1="0" x2="{_fmt(px)}" y2="{SIZE_PX}" '
                   'stroke="#555555" stroke-width="1"/>')
    if y0 <= 0.0 <= y1:
        _, py = t.px(0.0, 0.0)
        out.append(f'<line x1="0" y1="{_fmt(py)}" x2="{SIZE_PX}" y2="{_fmt(py)}" '
                   'stroke="#555555" stroke-width="1"/>')

    for z, color in scene.points:
        z = complex(z)
        cx, cy = t.px(z.real, z.imag)
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="{color}"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"

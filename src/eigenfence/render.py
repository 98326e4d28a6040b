"""Deterministic SVG rendering of layered regions and eigenvalue markers.

Disc unions are drawn as true circles.  Every other region kind (Cassini
unions, pair intersections, general intersections) is rasterized to filled
contours by marching squares over the membership predicate.  Identical
scenes produce byte-identical SVG documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ViewportError
from .discs import DiscUnion

GRAY = "#c8c8c8"
BLUE = "#4477dd"
TURQUOISE = "#33ccbb"
BLACK = "#000000"
YELLOW = "#ffcc00"

#: fraction of the content extent added around an auto-fitted viewport
AUTO_PAD = 0.10


@dataclass(frozen=True)
class Scene:
    """What to draw: ordered layers (later on top), markers, viewport.

    ``layers`` holds (region, fill color, opacity) triples; ``points`` holds
    (complex location, color) pairs.  ``viewport`` is (xmin, xmax, ymin,
    ymax) or None for auto-fit; it is squared up internally so circles stay
    circular.
    """

    layers: tuple = ()
    points: tuple = ()
    viewport: tuple[float, float, float, float] | None = None
    size_px: int = 640
    raster_res: int = 256

    def __post_init__(self):
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
    x0, x1, y0, y1 = box
    if not all(np.isfinite(v) for v in box) or x1 <= x0 or y1 <= y0:
        raise ViewportError(f"degenerate viewport {box}")
    side = max(x1 - x0, y1 - y0)
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    return (cx - side / 2.0, cx + side / 2.0, cy - side / 2.0, cy + side / 2.0)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Transform:
    def __init__(self, box, size_px):
        self.x0, self.x1, self.y0, self.y1 = box
        self.size = size_px
        self.scale = size_px / (self.x1 - self.x0)

    def px(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.x0) * self.scale, (self.y1 - y) * self.scale)


# ---------------------------------------------------------------------------
# marching squares over the membership predicate
# ---------------------------------------------------------------------------

# corner bits: 1 = (ix, iy), 2 = (ix+1, iy), 4 = (ix+1, iy+1), 8 = (ix, iy+1)
# edge names per cell: T top, B bottom, L left, R right (midpoints)
_CASES = {
    0: (), 15: (),
    1: (("T", "L"),), 14: (("T", "L"),),
    2: (("T", "R"),), 13: (("T", "R"),),
    4: (("R", "B"),), 11: (("R", "B"),),
    8: (("L", "B"),), 7: (("L", "B"),),
    3: (("L", "R"),), 12: (("L", "R"),),
    6: (("T", "B"),), 9: (("T", "B"),),
    5: (("T", "L"), ("R", "B")),
    10: (("T", "R"), ("L", "B")),
}


def _edge_key(name: str, ix: int, iy: int):
    if name == "T":
        return ("h", ix, iy)
    if name == "B":
        return ("h", ix, iy + 1)
    if name == "L":
        return ("v", ix, iy)
    return ("v", ix + 1, iy)


def _march(inside: np.ndarray) -> list[list[tuple]]:
    """Closed contour loops (lists of edge keys) of a padded boolean grid."""
    ny, nx = inside.shape
    adjacency: dict[tuple, list[tuple]] = {}
    for iy in range(ny - 1):
        for ix in range(nx - 1):
            code = (int(inside[iy, ix])
                    | int(inside[iy, ix + 1]) << 1
                    | int(inside[iy + 1, ix + 1]) << 2
                    | int(inside[iy + 1, ix]) << 3)
            for a, b in _CASES[code]:
                ka, kb = _edge_key(a, ix, iy), _edge_key(b, ix, iy)
                adjacency.setdefault(ka, []).append(kb)
                adjacency.setdefault(kb, []).append(ka)

    # every crossing midpoint is used by exactly one segment of each of its
    # two adjacent cells, so the contour graph is a union of simple cycles
    loops = []
    visited = set()
    for start in sorted(adjacency):
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        prev, current = None, start
        while True:
            a, b = sorted(adjacency[current])
            nxt = b if a == prev else a
            if nxt == start:
                break
            loop.append(nxt)
            visited.add(nxt)
            prev, current = current, nxt
        loops.append(loop)
    return loops


def _key_position(key: tuple, box, res: int) -> tuple[float, float]:
    x0, x1, y0, y1 = box
    dx = (x1 - x0) / res
    dy = (y1 - y0) / res
    kind, ix, iy = key
    if kind == "h":
        return (x0 + (ix + 0.5) * dx, y0 + iy * dy)
    return (x0 + ix * dx, y0 + (iy + 0.5) * dy)


def _raster_path(region, box, res: int, transform: _Transform) -> str:
    xs = np.linspace(box[0], box[1], res + 1)
    ys = np.linspace(box[2], box[3], res + 1)
    gx, gy = np.meshgrid(xs, ys)
    inside = region.contains_points(gx + 1j * gy)
    padded = np.zeros((res + 3, res + 3), dtype=bool)
    padded[1:-1, 1:-1] = inside

    parts = []
    for loop in _march(padded):
        coords = []
        for key in loop:
            kind, ix, iy = key
            mx, my = _key_position((kind, ix - 1, iy - 1), box, res)
            coords.append(transform.px(mx, my))
        d = "M" + "L".join(f"{_fmt(x)} {_fmt(y)}" for x, y in coords) + "Z"
        parts.append(d)
    return "".join(parts)


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------

def render_svg(scene: Scene) -> str:
    """Render a scene to an SVG document string (deterministic)."""
    box = _squared(scene.viewport if scene.viewport is not None else _auto_box(scene))
    size = int(scene.size_px)
    if size <= 0:
        raise ViewportError(f"size_px must be positive, got {size}")
    t = _Transform(box, size)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
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
        out.append(f'<line x1="{_fmt(px)}" y1="0" x2="{_fmt(px)}" y2="{size}" '
                   'stroke="#555555" stroke-width="1"/>')
    if y0 <= 0.0 <= y1:
        _, py = t.px(0.0, 0.0)
        out.append(f'<line x1="0" y1="{_fmt(py)}" x2="{size}" y2="{_fmt(py)}" '
                   'stroke="#555555" stroke-width="1"/>')

    for z, color in scene.points:
        z = complex(z)
        cx, cy = t.px(z.real, z.imag)
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="{color}"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"

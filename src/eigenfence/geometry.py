"""Membership, extremal modulus and sampled comparisons over regions.

A region is a :class:`~eigenfence.discs.DiscUnion` (an ``(n, 2)`` array of
[center, radius]), a :class:`~eigenfence.refine.PairIntersectionUnion`
(``(n, 2, 2)``: two discs per column), a
:class:`~eigenfence.cassini.CassiniUnion` (``(m, 3)`` of [c1, c2, bound]) or
a :class:`RegionIntersection` of regions.  Membership tests blocks of points
against all primitives at once: ``O(points * primitives)`` time in blocks
of fixed size.  Intersections are never converted to explicit shapes;
membership predicates compose instead, and set comparisons are sampled
(boundary points plus a grid over the bounding box).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cassini import CassiniUnion, _inside_ovals
from .discs import DiscUnion
from .refine import PairIntersectionUnion


@dataclass(frozen=True)
class RegionIntersection:
    """Finite intersection of regions; a point belongs iff it is in every part."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("an intersection needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def contains_points(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        hit = np.ones(z.shape, dtype=bool)
        for part in self.parts:
            hit &= part.contains_points(z)
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

    def to_json(self) -> dict:
        return {"kind": "intersection", "parts": [p.to_json() for p in self.parts]}


class MaxAbs(NamedTuple):
    value: float
    exact: bool


class SubsetCheck(NamedTuple):
    is_subset: bool
    witness: complex | None


def contains(region, z) -> bool:
    """Scalar membership test (with the per-shape relative slack)."""
    return bool(region.contains_points(np.asarray(z, dtype=complex)))


def max_abs(region) -> MaxAbs:
    """Largest modulus over the region.

    Exact for disc unions (``max |c| + r``); for every other kind the value
    is a safe upper bound: pair intersections and general intersections use
    the smallest bound among their parts, ovals use focus distance plus
    sqrt(bound).  The flag says which case applies.
    """
    if isinstance(region, DiscUnion):
        c, r = region.discs.T
        return MaxAbs(float((np.abs(c) + r).max()), True)
    if isinstance(region, PairIntersectionUnion):
        reach = np.abs(region.pairs[..., 0]) + region.pairs[..., 1]
        return MaxAbs(float(reach.min(axis=1).max()), False)
    if isinstance(region, CassiniUnion):
        c1, c2, b = region.ovals.T
        return MaxAbs(float((np.maximum(np.abs(c1), np.abs(c2)) + np.sqrt(b)).max()), False)
    if isinstance(region, RegionIntersection):
        return MaxAbs(min(max_abs(p).value for p in region.parts), False)
    raise TypeError(f"not a region: {type(region).__name__}")


def _disc_boundary(table: np.ndarray, angles: int) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    c, r = table[:, 0, None], table[:, 1, None]
    return (c + r * np.exp(1j * theta)).ravel()


def _oval_boundary(ovals: np.ndarray, angles: int) -> np.ndarray:
    """Outermost membership crossings along rays from each focus, oval by
    oval (first focus, then second), by bisection on every ray at once."""
    c1, c2, b = (col[:, None, None] for col in ovals.T)
    reach = np.sqrt(b) + np.abs(c1 - c2) + 1.0
    theta = np.linspace(0.0, 2.0 * np.pi, angles // 2, endpoint=False)
    directions = np.exp(1j * theta)
    focus = np.concatenate((c1, c2), axis=1)
    lo = np.zeros((len(ovals), 2, theta.size))
    hi = np.broadcast_to(reach, lo.shape)
    for _ in range(40):
        mid = (lo + hi) / 2.0
        inside = _inside_ovals(focus + mid * directions, ovals[:, None, None])
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return (focus + lo * directions).ravel()


def boundary_points(region, angles: int = 256) -> np.ndarray:
    """Representative boundary samples of a region's primitive shapes.

    Oval samples all belong to their own oval (the bisection keeps only
    accepted points).  Other kinds keep the samples inside the region, which
    drops unattained parts of intersections and disc samples that rounding
    put outside (center 1e8, radius 1e-3).
    """
    if isinstance(region, CassiniUnion):
        return _oval_boundary(region.ovals, angles)
    if isinstance(region, DiscUnion):
        pts = _disc_boundary(region.discs, angles)
    elif isinstance(region, PairIntersectionUnion):
        pts = _disc_boundary(region.pairs.reshape(-1, 2), angles)
    elif isinstance(region, RegionIntersection):
        pts = np.concatenate([boundary_points(p, angles) for p in region.parts])
    else:
        raise TypeError(f"not a region: {type(region).__name__}")
    return pts[region.contains_points(pts)]


def sampled_subset(region_a, region_b, resolution: int = 64) -> SubsetCheck:
    """Sampled test of ``region_a ⊆ region_b``.

    Samples the boundary of every primitive shape of ``region_a`` at
    ``4 * resolution`` angles plus a ``resolution x resolution`` grid over
    its bounding box; returns the first witness in A but not in B, if any.
    """
    if resolution < 16:
        raise ValueError(f"resolution must be >= 16, got {resolution}")
    candidates = [boundary_points(region_a, 4 * resolution)]
    x0, x1, y0, y1 = region_a.bounding_box()
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    gx, gy = np.meshgrid(xs, ys)
    grid = (gx + 1j * gy).ravel()
    candidates.append(grid[region_a.contains_points(grid)])
    pts = np.concatenate(candidates)
    inside_b = region_b.contains_points(pts)
    if np.all(inside_b):
        return SubsetCheck(True, None)
    witness = pts[~inside_b][0]
    return SubsetCheck(False, complex(witness))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def region_to_json(region) -> dict:
    return region.to_json()


def region_from_json(doc: dict):
    """Rebuild a region from its documented JSON form."""
    kind = doc.get("kind")
    if kind == "disc_union":
        return DiscUnion([[d["center"], d["radius"]] for d in doc["discs"]])
    if kind == "pairwise_intersection_union":
        return PairIntersectionUnion([[[a["center"], a["radius"]], [b["center"], b["radius"]]]
                                      for a, b in doc["pairs"]])
    if kind == "cassini_union":
        return CassiniUnion([[o["c1"], o["c2"], o["bound"]] for o in doc["ovals"]])
    if kind == "intersection":
        return RegionIntersection(tuple(region_from_json(p) for p in doc["parts"]))
    raise ValueError(f"unknown region kind: {kind!r}")

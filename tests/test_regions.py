"""Array-backed regions against a per-primitive scalar reference.

The reference keeps the one-disc and one-oval formulas, looped over the
primitives in Python; the blocked array kernel must agree with it exactly
(``==``), at the real block size and at a block of one point.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenfence import CassiniUnion, DiscUnion, PairIntersectionUnion, max_abs, obr_set
from eigenfence import discs as discs_module
from eigenfence.discs import MEMBERSHIP_EPS
from eigenfence.geometry import boundary_points

# -- scalar reference: one primitive at a time --------------------------------


def ref_in_disc(z, c, r):
    return np.abs(z - c) <= r + MEMBERSHIP_EPS * (1.0 + r)


def ref_in_oval(z, c1, c2, b):
    return np.abs(z - c1) * np.abs(z - c2) <= b + MEMBERSHIP_EPS * (1.0 + b)


def ref_contains(region, z):
    z = np.asarray(z, dtype=complex)
    hit = np.zeros(z.shape, dtype=bool)
    if isinstance(region, DiscUnion):
        for c, r in region.discs.tolist():
            hit |= ref_in_disc(z, c, r)
    elif isinstance(region, PairIntersectionUnion):
        for (ca, ra), (cb, rb) in region.pairs.tolist():
            hit |= ref_in_disc(z, ca, ra) & ref_in_disc(z, cb, rb)
    else:
        for c1, c2, b in region.ovals.tolist():
            hit |= ref_in_oval(z, c1, c2, b)
    return hit


def disc_box(c, r):
    return (c - r, c + r, -r, r)


def oval_box(c1, c2, b):
    reach = float(np.sqrt(b))
    return (min(c1, c2) - reach, max(c1, c2) + reach, -reach, reach)


def hull(boxes):
    return (min(b[0] for b in boxes), max(b[1] for b in boxes),
            min(b[2] for b in boxes), max(b[3] for b in boxes))


def ref_bounding_box(region):
    if isinstance(region, DiscUnion):
        return hull([disc_box(c, r) for c, r in region.discs.tolist()])
    if isinstance(region, CassiniUnion):
        return hull([oval_box(*o) for o in region.ovals.tolist()])
    boxes = []
    for da, db in region.pairs.tolist():
        ba, bb = disc_box(*da), disc_box(*db)
        boxes.append((max(ba[0], bb[0]), min(ba[1], bb[1]),
                      max(ba[2], bb[2]), min(ba[3], bb[3])))
    return hull([b for b in boxes if b[0] <= b[1] and b[2] <= b[3]] or boxes)


def ref_max_abs(region):
    if isinstance(region, DiscUnion):
        return max(abs(c) + r for c, r in region.discs.tolist())
    if isinstance(region, PairIntersectionUnion):
        return max(min(abs(ca) + ra, abs(cb) + rb)
                   for (ca, ra), (cb, rb) in region.pairs.tolist())
    return max(max(abs(c1), abs(c2)) + float(np.sqrt(b)) for c1, c2, b in region.ovals.tolist())


def ref_disc_boundary(c, r, angles):
    theta = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    return c + r * np.exp(1j * theta)


def ref_oval_boundary(c1, c2, b, angles):
    points = []
    reach = float(np.sqrt(b)) + abs(c1 - c2) + 1.0
    theta = np.linspace(0.0, 2.0 * np.pi, angles // 2, endpoint=False)
    for focus in (c1, c2):
        directions = np.exp(1j * theta)
        lo = np.zeros(theta.size)
        hi = np.full(theta.size, reach)
        for _ in range(40):
            mid = (lo + hi) / 2.0
            inside = ref_in_oval(focus + mid * directions, c1, c2, b)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        points.append(focus + lo * directions)
    return np.concatenate(points)


def ref_boundary_points(region, angles):
    if isinstance(region, DiscUnion):
        raw = [ref_disc_boundary(c, r, angles) for c, r in region.discs.tolist()]
    elif isinstance(region, PairIntersectionUnion):
        raw = [ref_disc_boundary(c, r, angles)
               for pair in region.pairs.tolist() for c, r in pair]
    else:
        raw = [ref_oval_boundary(*o, angles) for o in region.ovals.tolist()]
    pts = np.concatenate(raw)
    return pts[ref_contains(region, pts)]


# -- generated regions and points ---------------------------------------------

CENTERS = st.one_of(st.integers(-6, 6).map(float),
                    st.floats(-50, 50, allow_subnormal=False))
RADII = st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                  st.floats(0, 20, allow_subnormal=False))


@st.composite
def regions(draw, kind):
    m = draw(st.integers(1, 12))
    if kind == "discs":
        return DiscUnion(draw(st.lists(st.tuples(CENTERS, RADII), min_size=m, max_size=m)))
    if kind == "pairs":
        disc = st.tuples(CENTERS, RADII)
        return PairIntersectionUnion(draw(st.lists(st.tuples(disc, disc), min_size=m, max_size=m)))
    bounds = st.one_of(RADII, RADII.map(lambda r: r * r))
    return CassiniUnion(draw(st.lists(st.tuples(CENTERS, CENTERS, bounds), min_size=m, max_size=m)))


def exact_points(region):
    """Points exactly on the primitives' circles and at their slack limits."""
    if isinstance(region, CassiniUnion):
        c1, c2, b = region.ovals.T
        rows = [(c1, np.sqrt(b)), (c2, np.sqrt(b)), (c1, np.sqrt(b * (1.0 + MEMBERSHIP_EPS)))]
    else:
        table = region.discs if isinstance(region, DiscUnion) else region.pairs.reshape(-1, 2)
        c, r = table.T
        rows = [(c, r), (c, r + MEMBERSHIP_EPS * (1.0 + r)), (c, np.nextafter(r, np.inf))]
    unit = np.array([1.0, -1.0, 1j, -1j])
    return np.concatenate([(c[:, None] + r[:, None] * unit).ravel() for c, r in rows])


@pytest.mark.parametrize("block", [discs_module.MEMBERSHIP_BLOCK, 1])
@pytest.mark.parametrize("kind", ["discs", "pairs", "ovals"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_regions_match_scalar_reference(kind, block, data):
    region = data.draw(regions(kind))
    x = data.draw(st.lists(st.floats(-80, 80), min_size=0, max_size=40))
    y = data.draw(st.lists(st.floats(-40, 40), min_size=len(x), max_size=len(x)))
    z = np.concatenate((np.array(x) + 1j * np.array(y), exact_points(region)))
    with mock.patch.object(discs_module, "MEMBERSHIP_BLOCK", block):
        hit = region.contains_points(z)
        assert np.array_equal(hit, ref_contains(region, z))
        assert np.array_equal(region.contains_points(z.reshape(1, -1)), hit.reshape(1, -1))
        assert bool(region.contains_points(z[-1])) == hit[-1]
        assert np.array_equal(boundary_points(region, 16), ref_boundary_points(region, 16))
    assert region.bounding_box() == ref_bounding_box(region)
    assert max_abs(region).value == ref_max_abs(region)


@pytest.mark.parametrize("table, shape", [
    ([], "discs"), ([[0.0, -1.0]], "discs"), ([[0.0, np.nan]], "discs"),
    ([[[0.0, 1.0], [1.0, -0.5]]], "pairs"), ([[0.0, 1.0, np.nan]], "ovals"),
    ([[0.0, 1.0]], "ovals"),
])
def test_invalid_tables_rejected(table, shape):
    cls = {"discs": DiscUnion, "pairs": PairIntersectionUnion, "ovals": CassiniUnion}[shape]
    with pytest.raises(ValueError):
        cls(table)


def test_tables_are_read_only_copies():
    rows = np.array([[1.0, 2.0]])
    union = DiscUnion(rows)
    rows[0, 1] = 5.0
    assert union.discs.tolist() == [[1.0, 2.0]]
    with pytest.raises(ValueError):
        union.discs[0, 0] = 3.0


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def grid_257(region):
    x0, x1, y0, y1 = region.bounding_box()
    gx, gy = np.meshgrid(np.linspace(x0, x1, 257), np.linspace(y0, y1, 257))
    return gx + 1j * gy


@pytest.mark.parametrize("kind", ["discs", "ovals"])
def test_membership_memory_stays_blocked(kind):
    rng = np.random.default_rng(5)
    if kind == "discs":
        region = DiscUnion(np.column_stack((rng.normal(size=1024), rng.random(1024))))
    else:
        region = obr_set(rng.random((64, 64)))   # 2016 ovals
    grid = grid_257(region)
    assert traced_peak(lambda: region.contains_points(grid)) < 8 * 2 ** 20

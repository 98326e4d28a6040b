"""Array-backed regions against a per-primitive scalar reference.

The reference keeps the one-disc and one-oval formulas, looped over the
primitives in Python; the blocked array kernel must agree with it exactly
(``==``), at the real block and chunk sizes and at blocks and chunks of one.
"""

import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenfence import (CassiniUnion, DiscUnion, PairIntersectionUnion, RegionIntersection,
                        SubsetCheck, max_abs, obr_intersection, obr_set, region_from_json,
                        sampled_subset)
from eigenfence import core, geometry
from eigenfence.geometry import MEMBERSHIP_EPS

# -- scalar reference: one primitive at a time --------------------------------


def ref_in_disc(z, c, r):
    return np.abs(z - c) <= r + MEMBERSHIP_EPS * (1.0 + r)


def ref_in_oval(z, c1, c2, b):
    # full scale: the library's quarter scale gives the same answer wherever
    # no coordinate or coordinate difference is below 2^-1020
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
    # foci from a small pool: rows share foci, repeat, have c1 == c2 and mix 0.0 with -0.0
    focus = st.sampled_from([0.0, -0.0] + draw(st.lists(CENTERS, min_size=1, max_size=3)))
    bounds = st.one_of(RADII, RADII.map(lambda r: r * r))
    rows = draw(st.lists(st.tuples(focus, focus, bounds), min_size=m, max_size=m))
    return CassiniUnion(rows + draw(st.lists(st.sampled_from(rows), max_size=m)))


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


@pytest.mark.parametrize("block", [core.BLOCK_ENTRIES // 2, 1])
@pytest.mark.parametrize("kind", ["discs", "pairs", "ovals"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_regions_match_scalar_reference(kind, block, data):
    region = data.draw(regions(kind))
    x = data.draw(st.lists(st.floats(-80, 80), min_size=0, max_size=40))
    y = data.draw(st.lists(st.floats(-40, 40), min_size=len(x), max_size=len(x)))
    z = np.concatenate((np.array(x) + 1j * np.array(y), exact_points(region)))
    for chunk in (geometry.MEMBERSHIP_CHUNK, 5, 1):   # one chunk, several, one row each
        with mock.patch.object(core, "BLOCK_ENTRIES", 2 * block), \
                mock.patch.object(geometry, "MEMBERSHIP_CHUNK", chunk):
            hit = region.contains_points(z)
            assert np.array_equal(hit, ref_contains(region, z))
            assert np.array_equal(region.contains_points(z.reshape(1, -1)), hit.reshape(1, -1))
            assert bool(region.contains_points(z[-1])) == hit[-1]
            assert np.array_equal(region.boundary_points(16), ref_boundary_points(region, 16))
    assert region.bounding_box() == ref_bounding_box(region)
    assert max_abs(region).value == ref_max_abs(region)
    assert np.array_equal(region_from_json(region.to_json()).table, region.table)


@pytest.mark.parametrize("chunk", [geometry.JSON_CHUNK, 5, 1])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_region_text_matches_json_dumps(chunk, data):
    # one, several and one-row chunks; the last chunk may be short
    parts = [data.draw(regions(kind)) for kind in
             data.draw(st.lists(st.sampled_from(["discs", "pairs", "ovals"]), min_size=1, max_size=3))]
    doc = {"single": parts[0], "intersection": RegionIntersection(tuple(parts))}
    want = json.dumps({k: r.to_json() for k, r in doc.items()}, indent=2)
    with mock.patch.object(geometry, "JSON_CHUNK", chunk):
        assert "".join(geometry.iterencode(doc)) == want
        for region in doc.values():
            assert "".join(geometry.iterencode(region)) == json.dumps(region.to_json(), indent=2)


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


def axes_257(region):
    x0, x1, y0, y1 = region.bounding_box()
    return np.linspace(x0, x1, 257), np.linspace(y0, y1, 257)


def grid_257(region):
    xs, ys = axes_257(region)
    return xs[None, :] + 1j * ys[:, None]


def random_region(kind, rng, n):
    if kind == "discs":
        return DiscUnion(np.column_stack((rng.normal(size=n), rng.random(n))))
    if kind == "pairs":
        return PairIntersectionUnion(np.stack([np.column_stack((rng.normal(size=n), rng.random(n)))
                                               for _ in range(2)], axis=1))
    return obr_set(rng.random((n, n)))


@pytest.mark.parametrize("kind, n", [("discs", 40), ("pairs", 40), ("ovals", 12)])
def test_later_chunks_see_only_undecided_points(kind, n):
    rng = np.random.default_rng(11)
    region = random_region(kind, rng, n)
    x0, x1, y0, y1 = region.bounding_box()
    z = rng.uniform(x0, x1, 500) + 1j * rng.uniform(y0, y1, 500)
    seen = []
    inside = type(region)._inside

    def spy(points, rows):
        # rows: a chunk of the slackened table, an axis inserted; ref_contains
        # slackens it once more, a change of 1e-9 that no point of z is near
        seen.append((rows[:, 0], points))
        return inside(points, rows)

    with mock.patch.object(geometry, "MEMBERSHIP_CHUNK", 8), \
            mock.patch.object(type(region), "_inside", staticmethod(spy)):
        hit = region.contains_points(z)
    assert np.array_equal(hit, ref_contains(region, z))
    assert len(seen) > 2 and np.array_equal(seen[0][1], z)
    undecided = np.ones(z.size, dtype=bool)
    for rows, points in seen:
        assert np.array_equal(points, z[undecided])
        undecided &= ~ref_contains(type(region)(rows), z)
    assert 0 < seen[-1][1].size < z.size

    inner = z[ref_contains(type(region)(seen[0][0]), z)]   # points the first chunk accepts
    seen.clear()
    with mock.patch.object(geometry, "MEMBERSHIP_CHUNK", 8), \
            mock.patch.object(type(region), "_inside", staticmethod(spy)):
        assert region.contains_points(inner).all()
    assert len(seen) == 1


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_no_points_give_an_empty_answer(shape):
    rng = np.random.default_rng(3)
    # tables of at most and of more than one chunk of each kind (12 gives 66 ovals)
    unions = [random_region(kind, rng, n) for kind, sizes in
              (("discs", (3, 100)), ("pairs", (3, 100)), ("ovals", (3, 12))) for n in sizes]
    assert [len(u) > geometry.MEMBERSHIP_CHUNK for u in unions] == [False, True] * 3
    for region in (*unions, RegionIntersection(tuple(unions))):
        hit = region.contains_points(np.empty(shape, dtype=complex))
        assert hit.dtype == bool and hit.shape == shape


def large_region(kind):
    rng = np.random.default_rng(5)
    if kind == "obr15":   # four parts of 105 ovals: two chunks each
        m = rng.random((15, 15))
        return obr_intersection(m + np.diag(m.sum(axis=1).max() - m.sum(axis=1)))
    return random_region(kind, rng, 64 if kind == "ovals" else 1024)   # 2016 ovals, 1024 rows


@pytest.mark.parametrize("kind", ["discs", "pairs", "ovals", "obr15"])
def test_membership_memory_stays_blocked(kind):
    region = large_region(kind)
    grid = grid_257(region)
    assert traced_peak(lambda: region.contains_points(grid)) < 8 * 2 ** 20


@pytest.mark.parametrize("kind", ["discs", "pairs", "ovals", "obr15"])
def test_grid_membership_memory_stays_blocked(kind):
    region = large_region(kind)
    xs, ys = axes_257(region)
    got = region.contains_grid(xs, ys)
    assert np.array_equal(got, region.contains_points(grid_257(region)))
    assert traced_peak(lambda: region.contains_grid(xs, ys)) < 8 * 2 ** 20


# -- grid membership: the raster screen against contains_points ----------------


def grid_run(region, xs, ys):
    """``region.contains_grid(xs, ys)`` and the sizes of the point sets its
    exact path (``_Union.contains_points``) was asked about."""
    seen, exact = [], geometry._Union.contains_points

    def spy(self, z):
        seen.append(np.size(z))
        return exact(self, z)

    with mock.patch.object(geometry._Union, "contains_points", spy):
        got = region.contains_grid(xs, ys)
    return got, seen


def assert_grid_matches(region, xs, ys):
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    want = region.contains_points(xs[None, :] + 1j * ys[:, None])
    got = region.contains_grid(xs, ys)
    assert got.shape == want.shape and got.dtype == bool
    assert np.array_equal(got, want)


def near(values):
    """``values`` and their neighbours one ulp away."""
    values = np.asarray(values, dtype=float)
    return np.concatenate((values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)))


def critical_axes(region):
    """Grids on and one ulp around every primitive's circles, at their slack
    limits, on the tangent rows, and at sampled boundary points.  Each grid
    keeps the x values of one side (below, on, above) that lie at least
    ``2^-29`` of the largest entry apart, as the screen needs."""
    parts = region.parts if isinstance(region, RegionIntersection) else (region,)
    xs, ys = [np.arange(-8.0, 9.0)], [np.arange(-8.0, 9.0)]
    for part in parts:
        table = part.table.reshape(-1, part.table.shape[-1])
        bound = table[:, -1]
        radii = (bound, bound + MEMBERSHIP_EPS * (1.0 + bound))
        if isinstance(part, CassiniUnion):   # an oval with equal foci is a disc of radius sqrt(b)
            centers, radii = (table[:, 0], table[:, 1]), tuple(map(np.sqrt, radii))
        else:
            centers = (table[:, 0],)
        for c in centers:
            for rad in radii:
                xs.append(np.concatenate((c - rad, c + rad, c)))
                ys.append(near(np.concatenate((rad, -rad))))
        samples = part.boundary_points(16)
        xs.append(samples.real)
        ys.append(near(samples.imag))
    xs, ys = np.unique(np.concatenate(xs)), np.unique(np.concatenate(ys))
    top = max(np.abs(xs).max(), np.abs(ys).max(), *(np.abs(p.table).max() for p in parts))
    grids = []
    for side in (xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf)):
        kept = [side[0]]
        for x in side[1:].tolist():
            if x - kept[-1] >= 2.0 ** -29 * top:
                kept.append(x)
        grids.append((np.array(kept), ys))
    return grids


def scaled(region, s):
    """``region`` with every length times ``s`` (a power of two); an oval's
    bound, a squared length, goes times ``s`` too, so that it stays in range."""
    if isinstance(region, RegionIntersection):
        return RegionIntersection(tuple(scaled(p, s) for p in region.parts))
    return type(region)(region.table * s)


@st.composite
def grid_regions(draw, kind):
    if kind != "intersection":
        return draw(regions(kind))
    kinds = draw(st.lists(st.sampled_from(["discs", "pairs", "ovals"]), min_size=2, max_size=3))
    return RegionIntersection(tuple(draw(regions(k)) for k in kinds))


def test_complex_modulus_is_within_the_screens_assumption():
    """``contains_grid``'s proof assumes that ``np.abs`` of a complex number
    is within ``2^-40`` of its value, relatively.  numpy's complex modulus
    is its own routine, not ``np.hypot``; here it is checked against exact
    arithmetic on seeded points of modulus 1e-300 to 1e307 in every
    direction, every result normal: ``|a - s| <= 2^-40 s`` for ``s`` the
    exact modulus is ``a^2`` between ``s^2 (1 -+ 2^-40)^2``."""
    rng = np.random.default_rng(0)
    r = 10.0 ** rng.uniform(-300.0, 307.0, 10000)
    theta = rng.uniform(0.0, 2.0 * np.pi, r.size)
    z = r * np.cos(theta) + 1j * r * np.sin(theta)
    z[:4] = [1e-300, 1e307j, 1e307 + 1e-300j, 3e-300 - 4e-300j]   # axes, and a 3-4-5 modulus
    low, high = (1 - Fraction(1, 2 ** 40)) ** 2, (1 + Fraction(1, 2 ** 40)) ** 2
    for x, y, a in zip(z.real.tolist(), z.imag.tolist(), np.abs(z).tolist()):
        square = Fraction(x) ** 2 + Fraction(y) ** 2
        assert low * square <= Fraction(a) ** 2 <= high * square, (x, y, a)


@pytest.mark.parametrize("kind", ["discs", "pairs", "ovals", "intersection"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contains_grid_matches_contains_points(kind, data):
    region = data.draw(grid_regions(kind))
    grid = data.draw(st.sampled_from(["critical", "linspace", "integer"]))
    if grid == "critical":
        xs, ys = critical_axes(region)[data.draw(st.integers(0, 2))]
    elif grid == "linspace":
        x0, x1, y0, y1 = region.bounding_box()
        pad = data.draw(st.floats(0.0, 2.0)) * max(x1 - x0, y1 - y0, 1.0)
        res = data.draw(st.integers(2, 80))
        xs = np.linspace(x0 - pad, x1 + pad, res + 1)
        ys = np.linspace(y0 - pad, y1 + pad, data.draw(st.integers(1, 80)))
    else:   # an integer viewport: integer centers and radii put points on circles
        xs, ys = np.arange(-30.0, 31.0), np.arange(-25.0, 26.0)
    assert_grid_matches(region, xs, ys)
    s = data.draw(st.sampled_from([2.0 ** 600, 2.0 ** -600]))
    assert_grid_matches(scaled(region, s), xs * s, ys * s)


@pytest.mark.parametrize("region", [
    DiscUnion([[1e8, 1e-3]]),
    # centers far larger than the radii: c +- w rounds at the scale of c
    DiscUnion([[1e4, 1e-3], [1e4 + 2e-3, 1.5e-3], [-1e4 / 3, 3e-3]]),
    PairIntersectionUnion([[[1e4, 1e-3], [1e4 + 1e-3, 1e-3]], [[1e4, 2e-3], [1e4, 3e-3]]]),
    CassiniUnion([[1e4, 1e4 + 2e-3, 1e-6], [1e4 - 1e-3, 1e4 + 1e-3, 1e-6], [1e4, 1e4, 4e-6]]),
    DiscUnion([[0.0, 2.0], [3.0, 1.0], [0.5, 0.0]]),      # tangent rows at y = +-2, +-1
    PairIntersectionUnion([[[0.0, 2.0], [2.0, 2.0]], [[-1.0, 1.0], [-1.0, 3.0]]]),
    CassiniUnion([[1.0, 1.0, 9.0]]),                      # equal foci: a disc
    CassiniUnion([[0.0, 2.0, 0.0], [-3.0, 3.0, 0.0]]),    # bound 0: the foci (plus the slack)
    CassiniUnion([[-1.0, 1.0, 1.0], [2.0, 6.0, 4.0]]),    # lemniscates: b = h^2
    CassiniUnion([[-4.0, 4.0, 15.9], [-4.0, 4.0, 16.1]]),  # either side of the lemniscate
    RegionIntersection((CassiniUnion([[-1.0, 1.0, 1.0]]), DiscUnion([[0.0, 1.0]]))),
    # the later part also holds points at x in [3, 5], right of every column the first holds
    RegionIntersection((DiscUnion([[0.0, 1.0]]), DiscUnion([[0.0, 1.5], [4.0, 1.0]]))),
])
def test_contains_grid_on_edge_shapes(region):
    x0, x1, y0, y1 = region.bounding_box()
    pad = 0.25 * max(x1 - x0, y1 - y0)
    for xs, ys in (*critical_axes(region),
                   (np.linspace(x0 - pad, x1 + pad, 257), np.linspace(y0 - pad, y1 + pad, 257))):
        assert_grid_matches(region, xs, ys)
        for s in (2.0 ** 600, 2.0 ** -600):
            assert_grid_matches(scaled(region, s), xs * s, ys * s)


#: Unions whose rows hold the screen's hardest ends: lemniscates and either
#: side of one, equal foci, bound 0, tangent rows, and centers far larger
#: than the radii.
SECTION_SHAPES = [
    DiscUnion([[0.0, 2.0], [3.0, 1.0], [0.5, 0.0]]),
    DiscUnion([[1e4, 1e-3], [1e4 + 2e-3, 1.5e-3], [-1e4 / 3, 3e-3]]),
    PairIntersectionUnion([[[0.0, 2.0], [2.0, 2.0]], [[-1.0, 1.0], [-1.0, 3.0]]]),
    PairIntersectionUnion([[[1e4, 1e-3], [1e4 + 1e-3, 1e-3]], [[1e4, 2e-3], [1e4, 3e-3]]]),
    CassiniUnion([[-1.0, 1.0, 1.0], [2.0, 6.0, 4.0], [-4.0, 4.0, 15.9], [-4.0, 4.0, 16.1]]),
    CassiniUnion([[1.0, 1.0, 9.0], [0.0, 2.0, 0.0], [-3.0, 3.0, 0.0]]),
    CassiniUnion([[1e4, 1e4 + 2e-3, 1e-6], [1e4 - 1e-3, 1e4 + 1e-3, 1e-6], [1e4, 1e4, 4e-6]]),
]


def oval_rows(region):
    """Rows where a slackened oval's section changes shape: the tops of its
    lobes or of the whole oval (``P = 0`` at ``|y| = b / 2h``; ``s_hi = 0``
    at ``y^2 = b - h^2``) and the rows where the gap about ``m`` closes
    (``s_lo = 0``, also at ``y^2 = b - h^2``)."""
    if not isinstance(region, CassiniUnion):
        return np.empty(0)
    c1, c2, b = geometry._slack(region.ovals).T
    h = np.abs(c2 - c1) / 2.0
    with np.errstate(over="ignore"):   # foci a few ulps apart: that top is above the float range
        tops = b[h > 0] / (2.0 * h[h > 0])
    return np.concatenate((tops[np.isfinite(tops)], np.sqrt(np.maximum(b - h * h, 0.0))))


def assert_section_ends_bracket(region, ys):
    """Each primitive's sections on the rows ``ys`` against the exact
    predicate, one ulp around every computed end and around its centers: a
    point of an inner section is accepted, and an accepted point lies in an
    outer section.  Sections are taken on the rows within the grown
    half-height, as the screen takes them."""
    table = geometry._slack(region.table)
    reach = region._extents(table)[2] * (1.0 + geometry._GRID_SHRINK)
    iy, ip = np.nonzero(np.abs(ys)[:, None] <= reach)
    lo, hi, r_lo, r_hi = region._sections(table[ip], ys[iy])
    centers = table[ip].reshape(len(ip), -1)[:, :-1]
    if isinstance(region, CassiniUnion):
        centers = np.column_stack((centers, centers.mean(axis=1)))
    ends = [lo, hi, lo - r_lo, lo + r_lo, hi - r_hi, hi + r_hi]
    x = np.column_stack((near(np.concatenate(ends).T).reshape(len(iy), -1),
                         near(centers.T).reshape(len(iy), -1)))
    z = x + 1j * ys[iy, None]
    accepted = region._inside(z, table[ip, None])
    within = [(x > a[:, :, None]) & (x <= b[:, :, None])
              for a, b in ((lo + r_lo, hi - r_hi), (lo - r_lo, hi + r_hi))]
    inner, outer = (w.any(axis=0) for w in within)
    assert not (inner & ~accepted).any()
    assert not (accepted & ~outer).any()


@pytest.mark.parametrize("kind", ["discs", "pairs", "ovals"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_section_ends_bracket_the_exact_predicate(kind, data):
    cls = {"discs": DiscUnion, "pairs": PairIntersectionUnion, "ovals": CassiniUnion}[kind]
    shapes = [r for r in SECTION_SHAPES if type(r) is cls]
    region = data.draw(st.one_of(regions(kind), st.sampled_from(shapes)))
    # 2^480 keeps every entry below the screen's 2^500; above it the screen declines
    s = data.draw(st.sampled_from([1.0, 2.0 ** -600, 2.0 ** 480]))
    region = scaled(region, s)
    _xs, ys = critical_axes(region)[0]
    rows = oval_rows(region)
    ys = np.concatenate((ys, near(rows), near(-rows), near(near(rows))))
    assert_section_ends_bracket(region, ys)


@pytest.mark.parametrize("kind", ["discs", "pairs", "ovals", "intersection"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_screen_matches_contains_points_on_small_grids(kind, data):
    # a block of one grid row's point-row pairs runs the screen over blocks
    # of a few table rows, and the band's exact tests in small blocks (at
    # 2^600 the screen declines and the whole grid takes the exact path)
    region = data.draw(grid_regions(kind))
    grid = data.draw(st.sampled_from(["critical", "linspace", "integer"]))
    if grid == "critical":
        xs, ys = critical_axes(region)[data.draw(st.integers(0, 2))]
    elif grid == "linspace":
        x0, x1, y0, y1 = region.bounding_box()
        pad = data.draw(st.floats(0.0, 2.0)) * max(x1 - x0, y1 - y0, 1.0)
        xs = np.linspace(x0 - pad, x1 + pad, data.draw(st.integers(2, 80)) + 1)
        ys = np.linspace(y0 - pad, y1 + pad, data.draw(st.integers(1, 80)))
    else:
        xs, ys = np.arange(-30.0, 31.0), np.arange(-25.0, 26.0)
    for s in (1.0, 2.0 ** 600, 2.0 ** -600):
        part, gx, gy = scaled(region, s), xs * s, ys * s
        want = part.contains_points(gx[None, :] + 1j * gy[:, None])
        with mock.patch.object(core, "BLOCK_ENTRIES", 2 * xs.size):
            assert np.array_equal(part.contains_grid(gx, gy), want)


class GridSpy:
    """A region that records the axes of every ``contains_grid`` call."""

    def __init__(self, region):
        self.region, self.calls = region, []

    def contains_grid(self, xs, ys):
        self.calls.append((xs.copy(), ys.copy()))
        return self.region.contains_grid(xs, ys)


def test_intersection_grid_gives_later_parts_every_column_and_the_hit_rows():
    parts = (DiscUnion([[0.0, 1.5]]), CassiniUnion([[0.5, 1.5, 0.8]]),
             PairIntersectionUnion([[[0.0, 2.0], [1.0, 1.0]]]))
    spies = tuple(map(GridSpy, parts))
    xs, ys = np.linspace(-3.0, 3.0, 61), np.linspace(-2.0, 2.0, 41)
    hits = [p.contains_grid(xs, ys) for p in parts]
    got = RegionIntersection(spies).contains_grid(xs, ys)
    assert np.array_equal(got, hits[0] & hits[1] & hits[2])
    earlier = np.ones_like(hits[0])
    for spy, hit in zip(spies, hits):
        (gx, gy), = spy.calls
        assert np.array_equal(gx, xs)
        assert np.array_equal(gy, ys[earlier.any(axis=1)])
        earlier &= hit
    assert 0 < len(spies[2].calls[0][1]) < len(spies[1].calls[0][1]) < len(ys)


def test_contains_grid_tests_only_the_band():
    # a 257^2 grid over an integer oval table: the exact path sees a few points
    region = CassiniUnion([[-4.0, 4.0, 15.0], [0.0, 3.0, 7.0], [1.0, 1.0, 2.0]])
    xs, ys = axes_257(region)
    got, seen = grid_run(region, xs, ys)
    assert np.array_equal(got, region.contains_points(grid_257(region)))
    assert sum(seen) < 0.01 * got.size


@pytest.mark.parametrize("xs, ys", [
    (np.linspace(3.0, -3.0, 41), np.linspace(-2.0, 2.0, 21)),               # decreasing
    (np.array([-2.0, -1.0, 0.5, 0.5, 1.0, 2.0]), np.linspace(-2.0, 2.0, 21)),  # repeated
    (np.array([0.0, 2.0, -1.0, 1.0]), np.linspace(-2.0, 2.0, 21)),          # unsorted
    (np.array([1.0]), np.linspace(-2.0, 2.0, 21)),                          # one column
    (np.linspace(-3.0, 3.0, 41), np.array([])),                             # no row
    (np.linspace(-3.0, 3.0, 41) * 2.0 ** 501, np.linspace(-2.0, 2.0, 21)),  # above 2^500
    (1.0 + np.linspace(0.0, 1e-12, 41), np.linspace(-1e-12, 1e-12, 21)),    # within the band
])
def test_contains_grid_declines_what_it_cannot_certify(xs, ys):
    region = RegionIntersection((CassiniUnion([[-1.0, 1.0, 1.5]]), DiscUnion([[0.0, 1.5]])))
    want = {part: part.contains_points(xs[None, :] + 1j * ys[:, None])
            for part in (*region.parts, region)}
    for part in (*region.parts, region):
        assert np.array_equal(grid_run(part, xs, ys)[0], want[part])
    # each union took the exact path on the whole grid
    for part in region.parts:
        assert grid_run(part, xs, ys)[1] == [xs.size * ys.size]


def test_far_range_table_declines():
    region = CassiniUnion([[2.0 ** 501, -(2.0 ** 501), 1.0], [0.0, 1.0, 2.0]])
    xs, ys = np.linspace(-3.0, 3.0, 31), np.linspace(-2.0, 2.0, 21)
    got, seen = grid_run(region, xs, ys)
    assert seen == [xs.size * ys.size]
    assert np.array_equal(got, region.contains_points(xs[None, :] + 1j * ys[:, None]))


def ref_sampled_subset(region_a, region_b, resolution):
    """:func:`sampled_subset` with its grid tested by ``contains_points`` on
    a meshgrid, as it was before the grid went through ``contains_grid``."""
    candidates = [region_a.boundary_points(4 * resolution)]
    x0, x1, y0, y1 = region_a.bounding_box()
    xs = 2 * np.linspace(x0 / 2, x1 / 2, resolution)
    ys = 2 * np.linspace(y0 / 2, y1 / 2, resolution)
    gx, gy = np.meshgrid(xs, ys)
    grid = (gx + 1j * gy).ravel()
    candidates.append(grid[region_a.contains_points(grid)])
    pts = np.concatenate(candidates)
    inside = region_b.contains_points(pts)
    return SubsetCheck(True, None) if inside.all() else SubsetCheck(False, complex(pts[~inside][0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sampled_subset_matches_the_meshgrid_reference(data):
    kinds = st.sampled_from(["discs", "pairs", "ovals", "intersection"])
    region_a, region_b = (data.draw(grid_regions(data.draw(kinds))) for _ in range(2))
    resolution = data.draw(st.sampled_from([16, 17, 40]))
    for b in (region_b, region_a):
        got = sampled_subset(region_a, b, resolution)
        want = ref_sampled_subset(region_a, b, resolution)
        assert got.is_subset == want.is_subset
        assert repr(got.witness) == repr(want.witness)

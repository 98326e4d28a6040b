import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cases
from eigenfence import (
    CassiniUnion,
    DiscUnion,
    PairIntersectionUnion,
    RegionIntersection,
    classic_discs,
    core,
    max_abs,
    obr_set,
    prepare,
    refined_region,
    region_from_json,
    region_to_json,
    sampled_subset,
    second_type_discs_of_transpose,
)
from eigenfence.geometry import _slack, iterencode


def worked_region():
    return second_type_discs_of_transpose(cases.PERRON6_B)


def test_contains_inside_and_outside():
    region = worked_region()
    assert region.contains_points(7.76)
    assert region.contains_points(complex(2.65, 1.34))
    assert not region.contains_points(24.0)


def test_contains_point_disc():
    point = DiscUnion([[0.0, 0.0]])
    assert point.contains_points(0.0)
    assert not point.contains_points(1e-6)


def test_disc_rejects_negative_radius():
    with pytest.raises(ValueError):
        DiscUnion([[0.0, -1.0]])


def test_union_monotone():
    region = worked_region()
    for c, r in region.discs.tolist():
        z = complex(c + r / 2, 0.0)
        assert region.contains_points(z)


def test_intersection_monotone():
    region = RegionIntersection((worked_region(), classic_discs(cases.PERRON6_A, "columns")))
    zs = [0.0, 5.0, 7.76, 15.0, 25.0, 2 + 2j]
    for z in zs:
        if region.contains_points(z):
            for part in region.parts:
                assert part.contains_points(z)


class Spy:
    """A region that records the points it is asked about."""

    def __init__(self, region):
        self.region, self.seen = region, []

    def contains_points(self, z):
        self.seen.append(np.asarray(z).copy())
        return self.region.contains_points(z)


def test_intersection_tests_each_part_on_survivors_only():
    parts = (DiscUnion([[0.0, 1.5]]), CassiniUnion([[0.5, 1.5, 0.8]]),
             PairIntersectionUnion([[[0.0, 2.0], [1.0, 1.0]]]))
    spies = tuple(map(Spy, parts))
    gx, gy = np.meshgrid(np.linspace(-3.0, 3.0, 61), np.linspace(-2.0, 2.0, 41))
    z = gx + 1j * gy
    hits = [p.contains_points(z) for p in parts]
    hit = RegionIntersection(spies).contains_points(z)
    assert hit.shape == z.shape
    assert np.array_equal(hit, hits[0] & hits[1] & hits[2])
    assert np.array_equal(spies[1].seen[0], z[hits[0]])
    assert np.array_equal(spies[2].seen[0], z[hits[0] & hits[1]])
    assert 0 < hit.sum() < spies[2].seen[0].size < spies[1].seen[0].size < z.size
    region = RegionIntersection(parts)
    assert region.contains_points(0.5) and not region.contains_points(-1.4)


def test_max_abs_disc_union_exact():
    result = max_abs(worked_region())
    assert result == (22.0, True)


def test_max_abs_single_disc():
    assert max_abs(DiscUnion([[2.0, 15.0]])).value == 17.0


def test_max_abs_disjoint_intersection_is_conservative():
    region = RegionIntersection((
        DiscUnion([[0.0, 1.0]]), DiscUnion([[10.0, 1.0]])))
    result = max_abs(region)
    assert result.value == 1.0
    assert not result.exact


def test_max_abs_sound_for_members():
    rng = np.random.default_rng(83)
    regions = [
        worked_region(),
        refined_region(cases.PERRON7_B),
        obr_set(cases.ROWSUM3_G),
        RegionIntersection((worked_region(),)),
    ]
    for region in regions:
        cap = max_abs(region).value
        x0, x1, y0, y1 = region.bounding_box()
        pts = (rng.uniform(x0, x1, size=400) + 1j * rng.uniform(y0, y1, size=400))
        members = pts[region.contains_points(pts)]
        assert np.all(np.abs(members) <= cap + 1e-9)


def test_sampled_subset_reflexive():
    for region in (worked_region(), refined_region(cases.PERRON7_B),
                   obr_set(cases.ROWSUM3_G)):
        check = sampled_subset(region, region)
        assert check.is_subset and check.witness is None


def test_sampled_subset_detects_escape():
    region = second_type_discs_of_transpose(prepare(cases.STRETCH3_A, cases.STRETCH3_PAIR).B)
    classic = classic_discs(cases.STRETCH3_A, "columns")
    check = sampled_subset(region, classic)
    assert not check.is_subset
    assert check.witness is not None
    assert region.contains_points(check.witness)
    assert not classic.contains_points(check.witness)


def test_sampled_subset_nested_discs():
    small = DiscUnion([[0.0, 1.0]])
    big = DiscUnion([[0.0, 2.0]])
    assert sampled_subset(small, big).is_subset
    assert not sampled_subset(big, small).is_subset


def test_sampled_subset_touching_boundary():
    inner = DiscUnion([[1.0, 1.0]])
    outer = DiscUnion([[0.0, 2.0]])
    assert sampled_subset(inner, outer).is_subset


def test_resolution_floor():
    with pytest.raises(ValueError):
        sampled_subset(worked_region(), worked_region(), resolution=8)
    for bad in (16.5, 64.0, True, "64"):
        with pytest.raises(ValueError, match="^resolution must be an int >= 16"):
            sampled_subset(worked_region(), worked_region(), resolution=bad)
    assert sampled_subset(worked_region(), worked_region(), resolution=np.int64(16)).is_subset


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("region", [
    DiscUnion([[1.0, 2.0], [-3.0, 0.5]]),
    PairIntersectionUnion([[[0.0, 1.0], [0.5, 1.0]]]),
    CassiniUnion([[0.0, -2.0, 3.5]]),
    RegionIntersection((DiscUnion([[0.0, 1.0]]),
                        CassiniUnion([[1.0, 2.0, 0.0]]))),
])
def test_region_json_round_trip(region):
    doc = region_to_json(region)
    rebuilt = region_from_json(doc)
    assert region_to_json(rebuilt) == doc
    assert type(rebuilt) is type(region)


def test_region_json_unknown_kind():
    with pytest.raises(ValueError):
        region_from_json({"kind": "pentagon"})


def test_pair_table_checks_both_reaches():
    # the smaller reach of the pair is 1; the other disc's is above the float range
    with pytest.raises(OverflowError, match="^PairIntersectionUnion: an entry or a reach"):
        PairIntersectionUnion([[[0, 1], [1e308, 1e308]]])
    doc = {"kind": "pairwise_intersection_union",
           "pairs": [[{"center": 0.0, "radius": 1.0}, {"center": 1e308, "radius": 1e308}]]}
    with pytest.raises(OverflowError, match="^PairIntersectionUnion: an entry or a reach"):
        region_from_json(doc)


FAR = 1e308


@pytest.mark.parametrize("region, want", [
    # |z - c| overflows to inf for the disc at the other end of the range
    (DiscUnion([[FAR, 0], [-FAR, 0]]), [True, True, False, False, True, True]),
    (PairIntersectionUnion([[[FAR, 0], [FAR, 1]], [[-FAR, 0], [-FAR, 0]]]),
     [True, True, False, False, True, True]),
    # the other focus is above the float range away: its distance overflows, and
    # times 0 (a focus) or times 1e-300 (a product of 2e8) it must stay in range
    (CassiniUnion([[FAR, -FAR, 1e9]]), [True, True, False, False, True, False]),
    (CassiniUnion([[FAR, -FAR, 1.0]]), [True, True, False, False, False, False]),
    # a threshold past the float max would let an overflowed |z| in
    (DiscUnion([[0.0, np.finfo(float).max]]), [True, True, True, False, True, True]),
])
def test_membership_at_the_far_end_of_the_float_range(region, want):
    z = [FAR, -FAR, 0.0, FAR + 1.5 * FAR * 1j, FAR + 1e-300j, FAR + 1e-290j]
    assert region.contains_points(z).tolist() == want
    # the chunked walk of a large table runs the same kernel
    many = type(region)(np.concatenate([region.table] * 40))
    assert many.contains_points(z).tolist() == want


def test_an_oval_answer_does_not_depend_on_the_other_points():
    """A point beside another whose distance to a focus overflows, and in
    blocks of one point, gets the answer it gets alone.  The point and the
    bound are found at run time, as numpy's rounding decides which points
    qualify: a point with tiny coordinates, whose full-scale and
    quarter-scale products differ (its quarter is a rounded subnormal), and
    a bound whose slackened value lies between the two, so the scale alone
    decides."""
    rng = np.random.default_rng(0)
    parts = rng.uniform(1e-308, 8.9e-308, (2, 64)) * rng.choice([-1.0, 1.0], (2, 64))
    z = parts[0] + 1j * parts[1]
    full = np.abs(z) * np.abs(z - FAR)
    quarter = 16 * (np.abs(z / 4) * np.abs(z / 4 - FAR / 4))
    k = np.flatnonzero(full != quarter)[0]
    lo, hi = sorted((full[k], quarter[k]))
    b = (lo - 1e-9) / (1 + 1e-9)
    for _ in range(100):
        if lo <= _slack(np.array([0.0, FAR, b]))[2] < hi:
            break
        b = np.nextafter(b, np.inf)
    else:
        pytest.fail("no bound between the two products")
    region = CassiniUnion([[0.0, FAR, b]])
    alone = region.contains_points([z[k]]).tolist()
    assert region.contains_points([z[k], -FAR]).tolist() == alone + [False]
    with mock.patch.object(core, "BLOCK_ENTRIES", 2):
        assert region.contains_points([z[k], -FAR]).tolist() == alone + [False]


@pytest.mark.parametrize("ovals", [
    [[FAR, -FAR, 1e9]],
    [[FAR, -FAR, 1.0], [0.0, 1.0, 4.0], [-FAR, 0.5 * FAR, 1e300]],
])
def test_oval_samples_at_the_far_end_of_the_float_range(ovals):
    # the bisection's reach sqrt(b) + |c1 - c2| + 1 is above the float range;
    # warnings are errors, so a single overflow fails the test
    region = CassiniUnion(ovals)
    points = region.boundary_points(16).reshape(len(ovals), -1)
    assert np.isfinite(points).all()
    for row, samples in zip(region.ovals, points):
        assert CassiniUnion([row]).contains_points(samples).all()
    assert sampled_subset(region, region).is_subset


# ---------------------------------------------------------------------------
# JSON text: iterencode against json.dumps(..., indent=2)
# ---------------------------------------------------------------------------

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, 1.7976931348623157e308, 0.1, 1e16,
               math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x7f%é€\U0001f600')))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)
ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
               elements=FLOATS),
    hnp.arrays(st.sampled_from([np.int64, np.bool_, np.float32]),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)))


def unions(cls, shape):
    """Small ``cls`` regions: one to three rows of ``shape``, bounds made nonnegative."""
    def build(table):
        table[..., -1] = np.abs(table[..., -1])
        return cls(table)
    rows = st.integers(1, 3).map(lambda n: (n, *shape))
    return hnp.arrays(np.float64, rows, elements=st.floats(-1e3, 1e3)).map(build)


UNIONS = st.one_of(unions(DiscUnion, (2,)), unions(PairIntersectionUnion, (2, 2)),
                   unions(CassiniUnion, (3,)))
REGIONS = st.one_of(UNIONS, st.lists(UNIONS, min_size=1, max_size=3)
                    .map(lambda parts: RegionIntersection(tuple(parts))))
DOCS = st.recursive(
    st.one_of(SCALARS, ARRAYS, REGIONS),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=20)


def plain(doc):
    """``doc`` with every array replaced by its ``tolist()`` and every region
    by its ``to_json()``."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, (DiscUnion, PairIntersectionUnion, CassiniUnion, RegionIntersection)):
        return doc.to_json()
    if isinstance(doc, dict):
        return {k: plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(v) for v in doc]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=DOCS)
def test_iterencode_matches_json_dumps(doc):
    assert "".join(iterencode(doc)) == json.dumps(plain(doc), indent=2)


def test_iterencode_refuses_what_json_refuses():
    for doc in ({"z": 1j}, [np.float64(1.0), np.int64(2)], {"a": np.array([1j])}):
        with pytest.raises(TypeError):
            json.dumps(plain(doc), indent=2)
        with pytest.raises(TypeError):
            "".join(iterencode(doc))

import numpy as np
import pytest

import cases
from eigenfence import (
    CassiniUnion,
    DiscUnion,
    PairIntersectionUnion,
    RegionIntersection,
    classic_discs,
    contains,
    eigenpair_region,
    max_abs,
    obr_set,
    refined_region_odd,
    region_from_json,
    region_to_json,
    sampled_subset,
    second_type_discs_of_transpose,
)


def worked_region():
    return second_type_discs_of_transpose(cases.PERRON6_B)


def test_contains_inside_and_outside():
    region = worked_region()
    assert contains(region, 7.76)
    assert contains(region, complex(2.65, 1.34))
    assert not contains(region, 24.0)


def test_contains_point_disc():
    assert contains(DiscUnion([[0.0, 0.0]]), 0.0)
    assert not contains(DiscUnion([[0.0, 0.0]]), 1e-6)


def test_disc_rejects_negative_radius():
    with pytest.raises(ValueError):
        DiscUnion([[0.0, -1.0]])


def test_union_monotone():
    region = worked_region()
    for c, r in region.discs.tolist():
        z = complex(c + r / 2, 0.0)
        assert contains(region, z)


def test_intersection_monotone():
    region = RegionIntersection((worked_region(), classic_discs(cases.PERRON6_A, "columns")))
    zs = [0.0, 5.0, 7.76, 15.0, 25.0, 2 + 2j]
    for z in zs:
        if contains(region, z):
            for part in region.parts:
                assert contains(part, z)


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
        refined_region_odd(cases.PERRON7_B),
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
    for region in (worked_region(), refined_region_odd(cases.PERRON7_B),
                   obr_set(cases.ROWSUM3_G)):
        check = sampled_subset(region, region)
        assert check.is_subset and check.witness is None


def test_sampled_subset_detects_escape():
    region = eigenpair_region(cases.STRETCH3_A, cases.STRETCH3_PAIR)
    classic = classic_discs(cases.STRETCH3_A, "columns")
    check = sampled_subset(region, classic)
    assert not check.is_subset
    assert check.witness is not None
    assert contains(region, check.witness)
    assert not contains(classic, check.witness)


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

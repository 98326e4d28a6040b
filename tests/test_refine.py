import numpy as np
import pytest

import cases
from conftest import random_row_sum_matrix
from eigenfence import (
    EvenSizeError,
    NotConstantRowSumError,
    OddSizeError,
    RegionIntersection,
    contains,
    diag_similar,
    eigenvalues,
    nontrivial_values,
    refine_even,
    refine_odd,
    refined_region,
    refined_region_odd,
    refinement,
    sampled_subset,
    second_type_discs_of_transpose,
)


def test_even_worked_6x6():
    ref = refine_even(cases.PERRON6_B)
    np.testing.assert_array_equal(ref.F, cases.PERRON6_F)
    np.testing.assert_array_equal(ref.shifts, [2, 4, 6, 2, 3, 4])


def test_even_disc_list():
    union = second_type_discs_of_transpose(cases.PERRON6_F)
    assert [tuple(d) for d in union.discs.tolist()] == cases.PERRON6_F_DISCS


def test_even_shear4():
    ref = refine_even(cases.SHEAR4_C)
    np.testing.assert_array_equal(ref.F, cases.SHEAR4_F)


def test_even_zero_matrix():
    ref = refine_even(np.zeros((4, 4)))
    np.testing.assert_array_equal(ref.F, np.zeros((4, 4)))
    np.testing.assert_array_equal(ref.shifts, np.zeros(4))


def test_even_rejects_odd():
    with pytest.raises(OddSizeError):
        refine_even(np.zeros((5, 5)))


def test_even_rejects_drifting_row_sums():
    m = np.array([[1.0, 2, 3, 4], [0, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2]])
    with pytest.raises(NotConstantRowSumError):
        refine_even(m)


def test_odd_worked_7x7():
    ref = refine_odd(cases.PERRON7_B)
    np.testing.assert_array_equal(ref.F, cases.PERRON7_F)
    np.testing.assert_array_equal(ref.G, cases.PERRON7_G)


def test_region_invariant_under_per_column_pair_swap():
    # each column contributes the intersection of its two discs, so the
    # F/G labeling of a column cannot change the region
    from eigenfence import PairIntersectionUnion

    region = refined_region_odd(cases.PERRON7_B)
    pairs = region.pairs.copy()
    pairs[3] = pairs[3, ::-1]
    swapped = PairIntersectionUnion(pairs)
    rng = np.random.default_rng(31)
    pts = rng.uniform(-16, 18, size=800) + 1j * rng.uniform(-17, 17, size=800)
    np.testing.assert_array_equal(region.contains_points(pts),
                                  swapped.contains_points(pts))


def test_odd_rowsum3():
    ref = refine_odd(cases.ROWSUM3_A)
    np.testing.assert_array_equal(ref.F, cases.ROWSUM3_F)
    np.testing.assert_array_equal(ref.G, cases.ROWSUM3_G)


def test_odd_degenerate_chain3():
    b = diag_similar(cases.CHAIN3_A, cases.CHAIN3_PAIR).B
    ref = refine_odd(b)
    np.testing.assert_allclose(ref.G, cases.CHAIN3_DEGENERATE, atol=1e-15)


def test_odd_zero_matrix():
    ref = refine_odd(np.zeros((3, 3)))
    np.testing.assert_array_equal(ref.F, np.zeros((3, 3)))
    np.testing.assert_array_equal(ref.G, np.zeros((3, 3)))


def test_odd_rejects_even():
    with pytest.raises(EvenSizeError):
        refine_odd(np.zeros((4, 4)))


def test_shifted_matrices_stay_constant_row_sum():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        b, lam = random_row_sum_matrix(rng, n)
        if n % 2 == 0:
            f = refine_even(b).F
            sums = f.sum(axis=1)
            assert sums.max() - sums.min() <= 1e-9 * (1 + abs(lam))
        else:
            ref = refine_odd(b)
            for m in (ref.F, ref.G):
                sums = m.sum(axis=1)
                assert sums.max() - sums.min() <= 1e-9 * (1 + abs(lam))


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def test_region_odd_single_disc_hull():
    region = refined_region_odd(cases.PERRON7_B)
    assert len(region) == 7
    # the whole region collapses into its first pair's disc
    first_c, first_r = region.pairs[0][0].tolist()
    assert (first_c, first_r) == (-1.0, 12.0)
    for da, db in region.pairs.tolist():
        for c, r in (da, db):
            assert abs(c - first_c) + r <= first_r + 1e-12


def test_region_odd_membership_7x7():
    region = refined_region_odd(cases.PERRON7_B)
    for z in nontrivial_values(eigenvalues(cases.PERRON7_A), 15.0):
        assert contains(region, z)


def test_region_odd_zero_matrix_is_origin():
    region = refined_region_odd(np.zeros((3, 3)))
    assert contains(region, 0.0)
    assert not contains(region, 0.5)


def test_subset_even_refinement():
    fine = second_type_discs_of_transpose(cases.PERRON6_F)
    coarse = second_type_discs_of_transpose(cases.PERRON6_B)
    assert sampled_subset(fine, coarse).is_subset


def test_subset_odd_refinement():
    fine = refined_region_odd(cases.PERRON7_B)
    coarse = second_type_discs_of_transpose(cases.PERRON7_B)
    assert sampled_subset(fine, coarse).is_subset


def fg_intersection(matrix) -> RegionIntersection:
    """Intersection of the full second-type regions of F^T and G^T (odd n)."""
    ref = refine_odd(matrix)
    return RegionIntersection((second_type_discs_of_transpose(ref.F),
                               second_type_discs_of_transpose(ref.G)))


def test_pairwise_region_inside_two_region_intersection():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(1, 5)) * 2 + 1
        b, _lam = random_row_sum_matrix(rng, n)
        fine = refined_region_odd(b)
        simple = fg_intersection(b)
        assert sampled_subset(fine, simple, resolution=32).is_subset


def test_pairwise_region_equals_simple_intersection_for_7x7():
    # for this matrix the two shapes agree as point sets (sampled both ways)
    fine = refined_region_odd(cases.PERRON7_B)
    simple = fg_intersection(cases.PERRON7_B)
    assert sampled_subset(fine, simple).is_subset
    assert sampled_subset(simple, fine).is_subset


def test_refined_region_dispatches_on_parity():
    even = refined_region(cases.PERRON6_B)
    odd = refined_region(cases.PERRON7_B)
    assert even.to_json()["kind"] == "disc_union"
    assert odd.to_json()["kind"] == "pairwise_intersection_union"


def test_refinement_carries_its_region():
    even, odd = refinement(cases.PERRON6_B), refinement(cases.PERRON7_B)
    np.testing.assert_array_equal(even.F, refine_even(cases.PERRON6_B).F)
    np.testing.assert_array_equal(odd.G, refine_odd(cases.PERRON7_B).G)
    assert list(even.matrices) == ["F"] and list(odd.matrices) == ["F", "G"]
    assert even.region().to_json() == refined_region(cases.PERRON6_B).to_json()
    assert odd.region().to_json() == refined_region_odd(cases.PERRON7_B).to_json()


def test_random_membership_even_and_odd():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(3, 10))
        b, lam = random_row_sum_matrix(rng, n)
        region = refined_region(b)
        for z in nontrivial_values(eigenvalues(b), lam):
            assert contains(region, z), (b, z)

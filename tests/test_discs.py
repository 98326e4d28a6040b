import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
from eigenfence import (
    SizeError,
    classic_discs,
    contains,
    eigenpair_region,
    eigenvalues,
    nontrivial_values,
    second_type_discs_of_transpose,
    second_type_radius,
)


def disc_list(union):
    return [tuple(d) for d in union.discs.tolist()]


# ---------------------------------------------------------------------------
# radius formula
# ---------------------------------------------------------------------------

def test_radius_even_count():
    # column 1 off-diagonals of the 6x6 worked matrix
    assert second_type_radius([4, 2, 0, 8, 2]) == 12.0


def test_radius_odd_count():
    # sorted with the inserted 0: (6,6,3,3,0,0,0) -> (6+6+3) - (0+0+0)
    assert second_type_radius([3, 0, 6, 3, 6, 0]) == 15.0


def test_radius_constant_even():
    # all equal c, n even: (n/2)c - (n/2 - 1)c = c
    for n in (4, 6, 8):
        assert second_type_radius([3.0] * (n - 1)) == 3.0


def test_radius_too_short():
    with pytest.raises(SizeError):
        second_type_radius([1.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=9), st.randoms())
def test_radius_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert second_type_radius(shuffled) == second_type_radius(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=9))
def test_radius_nonnegative(values):
    assert second_type_radius(values) >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 100), min_size=2, max_size=9))
def test_radius_at_most_classic_for_nonnegative(values):
    assert second_type_radius(values) <= sum(values) + 1e-9


# ---------------------------------------------------------------------------
# disc unions
# ---------------------------------------------------------------------------

def test_second_type_discs_worked_6x6():
    assert disc_list(second_type_discs_of_transpose(cases.PERRON6_B)) == \
        cases.PERRON6_SECOND_DISCS


def test_second_type_discs_singular_6x6():
    assert disc_list(second_type_discs_of_transpose(cases.SINGULAR6_B)) == \
        cases.SINGULAR6_SECOND_DISCS


def test_second_type_discs_diagonal_matrix():
    union = second_type_discs_of_transpose(np.diag([1.0, 2.0, 3.0]))
    assert disc_list(union) == [(1, 0), (2, 0), (3, 0)]


def test_second_type_needs_n3():
    with pytest.raises(SizeError):
        second_type_discs_of_transpose(np.eye(2))


def test_classic_discs_columns():
    assert disc_list(classic_discs(cases.PERRON6_A, "columns")) == \
        cases.PERRON6_CLASSIC_COLS


def test_classic_discs_rows():
    assert disc_list(classic_discs(cases.PERRON6_A, "rows")) == \
        cases.PERRON6_CLASSIC_ROWS


def test_classic_discs_identity():
    assert disc_list(classic_discs(np.eye(3), "rows")) == [(1, 0)] * 3


def test_classic_discs_bad_axis():
    with pytest.raises(ValueError):
        classic_discs(np.eye(3), "diagonal")


# ---------------------------------------------------------------------------
# the eigenpair-driven region
# ---------------------------------------------------------------------------

def test_region_worked_6x6():
    region = eigenpair_region(cases.PERRON6_A, cases.PERRON6_PAIR)
    assert disc_list(region) == cases.PERRON6_SECOND_DISCS


def test_region_contains_every_other_eigenvalue():
    region = eigenpair_region(cases.PERRON6_A, cases.PERRON6_PAIR)
    others = nontrivial_values(eigenvalues(cases.PERRON6_A), 24.0)
    for z in others:
        assert contains(region, z)
    assert not contains(region, 24.0)


def test_region_singular_case():
    region = eigenpair_region(cases.SINGULAR6_A, cases.SINGULAR6_PAIR)
    assert disc_list(region) == cases.SINGULAR6_SECOND_DISCS
    for z in nontrivial_values(eigenvalues(cases.SINGULAR6_A), 0.0):
        assert contains(region, z)


def test_region_not_inside_classic_for_stretch3():
    region = eigenpair_region(cases.STRETCH3_A, cases.STRETCH3_PAIR)
    assert disc_list(region) == [(9, 8), (5, 1), (1, 5)]
    # reaches 17, beyond anything the classic column region can cover
    classic = classic_discs(cases.STRETCH3_A, "columns")
    assert max(c + r for c, r in region.discs.tolist()) == 17.0
    assert max(c + r for c, r in classic.discs.tolist()) == 13.0


def test_region_desingularizes_transparently():
    region = eigenpair_region(cases.SHEAR4_A, cases.SHEAR4_PAIR)
    discs = disc_list(second_type_discs_of_transpose(cases.SHEAR4_C))
    assert disc_list(region) == discs
    for z in (-1.0, 1.0, 2.0):
        assert contains(region, z)


def test_membership_margin_on_worked_eigenvalues():
    region = eigenpair_region(cases.PERRON6_A, cases.PERRON6_PAIR)
    for z in nontrivial_values(eigenvalues(cases.PERRON6_A), 24.0):
        margin = min(abs(z - c) - r for c, r in region.discs.tolist())
        assert margin <= 1e-7

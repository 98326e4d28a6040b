import numpy as np
import pytest

import cases
from conftest import random_row_sum_matrix
from eigenfence import (
    EigenfenceError,
    cassini_intersection_region,
    eigenvalues,
    nontrivial_values,
    obr_set,
    refine_even,
)


def test_oval_count_and_values():
    union = obr_set(cases.ROWSUM3_G)
    assert len(union) == 3
    oval = union.ovals[2]  # pair (2, 3): centers -3 and 2, deleted sums 12 and 7
    assert tuple(oval.tolist()) == (-3.0, 2.0, 84.0)


def test_degenerate_set_is_two_points():
    union = obr_set(cases.CHAIN3_DEGENERATE)
    assert union.contains_points(0.0)
    assert union.contains_points(-2.0)
    for z in (0.5, -1.0, -2.5, 1j):
        assert not union.contains_points(z)


def test_diagonal_matrix_degenerates_to_spectrum():
    union = obr_set(np.diag([1.0, 2.0, 3.0]))
    for z in (1.0, 2.0, 3.0):
        assert union.contains_points(z)
    for z in (1.5, 2.5, 0.0, 4.0):
        assert not union.contains_points(z)


def test_rowsum3_refined_set_membership():
    union = obr_set(cases.ROWSUM3_G)
    assert union.contains_points(-6.0)
    assert union.contains_points(5.0)


def test_needs_two_rows():
    with pytest.raises(EigenfenceError, match="^Ostrowski-Brauer set needs n >= 2, got n = 1$"):
        obr_set(np.array([[3.0]]))


def test_brauer_containment_random():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = rng.integers(-9, 10, size=(n, n)).astype(float)
        union = obr_set(m)
        for z in eigenvalues(m):
            slack = min(abs(z - c1) * abs(z - c2) - bound
                        for c1, c2, bound in union.ovals.tolist())
            assert slack <= 1e-7, (m, z)


def test_rank_one_update_shares_eigenvalues():
    # the column shift is a rank-one update e * a^T, so F keeps every
    # non-trivial eigenvalue of B
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 5)) * 2
        b, lam = random_row_sum_matrix(rng, n)
        f = refine_even(b).matrices["F"]
        lam_f = f.sum(axis=1).mean()
        left = np.sort_complex(nontrivial_values(eigenvalues(b), lam))
        right = np.sort_complex(nontrivial_values(eigenvalues(f), lam_f))
        np.testing.assert_allclose(left, right, atol=1e-7)


# ---------------------------------------------------------------------------
# the four-way / two-way intersection region
# ---------------------------------------------------------------------------

def test_intersection_region_rowsum3():
    region = cassini_intersection_region(cases.ROWSUM3_A, cases.ROWSUM3_PAIR)
    assert len(region.parts) == 4
    assert region.contains_points(-6.0)
    assert region.contains_points(5.0)


def test_intersection_region_chain3():
    region = cassini_intersection_region(cases.CHAIN3_A, cases.CHAIN3_PAIR)
    assert region.contains_points(0.0)
    assert region.contains_points(-2.0)


def test_intersection_region_even_case():
    region = cassini_intersection_region(cases.PERRON4_A, cases.PERRON4_PAIR)
    assert len(region.parts) == 2
    assert region.contains_points(-6.0)
    assert region.contains_points(-2.0)


def test_intersection_region_desingularizes():
    region = cassini_intersection_region(cases.SHEAR4_A, cases.SHEAR4_PAIR)
    for z in (-1.0, 1.0, 2.0):
        assert region.contains_points(z)


def test_intersection_region_random_soundness():
    rng = np.random.default_rng(47)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        b, lam = random_row_sum_matrix(rng, n)
        from eigenfence import Eigenpair
        region = cassini_intersection_region(b, Eigenpair(lam, np.ones(n)))
        for z in nontrivial_values(eigenvalues(b), lam):
            assert region.contains_points(z), (b, lam, z)


def test_overflowed_row_sums_give_the_oval_bounds():
    # |m_00| + R_0 overflows, but R_0 = 1e308 and R_0 R_1 are in range
    union = obr_set([[1e308, 1e308, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert union.ovals[:, 2].tolist() == [1e308, 0.0, 0.0]
    # R_1 = 3e308 overflows, but R_0 = R_2 = R_3 = 0 make every oval bound 0
    m = np.zeros((4, 4))
    m[1] = [1e308, -1e308, 1e308, -1e308]
    assert obr_set(m).ovals[:, 2].tolist() == [0.0] * 6
    # R_0 R_1 = 1e616 really is out of range
    with pytest.raises(OverflowError, match="^Ostrowski-Brauer ovals: CassiniUnion: an entry"):
        obr_set([[0.0, 1e308, 0.0], [1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])

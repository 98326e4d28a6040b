import math

import numpy as np
import pytest

import cases
from conftest import det_report, powered, random_row_sum_matrix, row_sum_reports, tau_vertex_oracle
from eigenfence import (
    Eigenpair,
    SemiNorm,
    determinant,
    diag_similar,
    eigenvalues,
    max_abs,
    nontrivial_values,
    prepare,
    refine_even,
    refine_odd,
    second_type_discs_of_transpose,
    standard_reports,
    tau1,
    tau_inf,
)


# ---------------------------------------------------------------------------
# disc bound
# ---------------------------------------------------------------------------

def test_disc_bound_worked_values():
    for m, reach in ((cases.PERRON4_B, 14.0), (cases.PERRON4_F, 6.0),
                     (cases.NEG7_B, 42.0), (cases.ROWSUM3_G, 14.0)):
        assert second_type_discs_of_transpose(m).max_abs().value == reach
        assert row_sum_reports(m, kinds=())["m_B"] == reach


def test_disc_bound_needs_n3():
    from eigenfence import EigenfenceError
    with pytest.raises(EigenfenceError, match="^second-type discs need n >= 3, got n = 2$"):
        standard_reports(np.eye(2), Eigenpair(1.0, np.ones(2)))


def test_disc_bound_matches_region_reach():
    for a, pair in ((cases.PERRON4_A, cases.PERRON4_PAIR), (cases.PERRON6_A, cases.PERRON6_PAIR),
                    (cases.NEG7_A, cases.NEG7_PAIR)):
        region = second_type_discs_of_transpose(prepare(a, pair).B)
        reports = {r.name: r.value for r in standard_reports(a, pair, kinds=())}
        assert reports["m_B"] == max_abs(region).value


# ---------------------------------------------------------------------------
# semi-norms
# ---------------------------------------------------------------------------

def test_tau1_worked_values():
    assert tau1(cases.PERRON4_F) == 8.0
    assert tau1(cases.SHEAR4_F) == 10.0


def test_tau1_equal_rows_vanish():
    assert tau1(np.ones((4, 4)) * 3.0) == 0.0


def test_tau_inf_worked_values():
    assert tau_inf(cases.PERRON4_F) == 6.0
    assert tau_inf(cases.ROWSUM3_G) == 12.0


def test_tau_inf_constant_columns_vanish():
    m = np.tile(np.array([[1.0, -2.0, 5.0]]), (3, 1))
    assert tau_inf(m) == 0.0


def test_tau1_alternative_closed_form():
    # lambda - min over row pairs of the entrywise-min sums
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        b, lam = random_row_sum_matrix(rng, n)
        worst = min(np.minimum(b[i], b[j]).sum()
                    for i in range(n) for j in range(n) if i != j)
        assert tau1(b) == pytest.approx(lam - worst, abs=1e-9)


def test_seminorms_match_vertex_oracle():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        m = rng.integers(-9, 10, size=(n, n)).astype(float)
        assert tau1(m) == pytest.approx(tau_vertex_oracle(m, 1), abs=1e-9)
        assert tau_inf(m) == pytest.approx(tau_vertex_oracle(m, "inf"), abs=1e-9)


def test_seminorms_invariant_under_column_shifts():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = rng.normal(size=(n, n))
        shifts = rng.normal(size=n)
        shifted = m + shifts[None, :]
        assert tau1(shifted) == pytest.approx(tau1(m), abs=1e-9)
        assert tau_inf(shifted) == pytest.approx(tau_inf(m), abs=1e-9)


def test_shift_equalities_on_refinements():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        b, _ = random_row_sum_matrix(rng, n)
        mats = (refine_even(b) if n % 2 == 0 else refine_odd(b)).matrices
        for m in mats.values():
            assert tau1(m) == pytest.approx(tau1(b), abs=1e-9)
            assert tau_inf(m) == pytest.approx(tau_inf(b), abs=1e-9)


# ---------------------------------------------------------------------------
# powered bounds
# ---------------------------------------------------------------------------

def test_powered_reduces_to_plain_at_k1():
    b = cases.PERRON4_F
    assert powered(b, 1, SemiNorm.L1) == tau1(b)
    assert powered(b, 1, SemiNorm.LINF) == tau_inf(b)


def test_powered_worked_values():
    f = cases.PERRON4_F
    assert powered(f, 2, SemiNorm.L1) == pytest.approx(6.93, abs=0.01)
    assert powered(f, 3, SemiNorm.L1) == pytest.approx(6.54, abs=0.01)
    assert powered(f, 3, SemiNorm.LINF) == pytest.approx(6.0, abs=1e-12)
    g = cases.SHEAR4_F
    assert powered(g, 2, SemiNorm.LINF) == pytest.approx(3.16, abs=0.01)
    assert powered(g, 5, SemiNorm.L1) == pytest.approx(2.34, abs=0.01)
    assert powered(cases.ROWSUM3_G, 2, SemiNorm.LINF) == pytest.approx(
        np.sqrt(40.0), abs=1e-12)


def test_powered_soundness_random():
    rng = np.random.default_rng(73)
    for _ in range(15):
        n = int(rng.integers(3, 9))
        b, lam = random_row_sum_matrix(rng, n)
        others = nontrivial_values(eigenvalues(b), lam)
        reports = row_sum_reports(b, ks=tuple(range(1, 7)))
        for k in range(1, 7):
            for kind in (SemiNorm.L1, SemiNorm.LINF):
                bound = reports[f"tau{kind.value}_k{k}"]
                assert np.all(np.abs(others) <= bound + 1e-7), (b, k, kind)


def test_powered_overflow_guard():
    # row sums 2e200 and a remaining eigenvalue 2e200, whose square is out of
    # range: the powers are walked at unit scale, so every bound is finite
    m = 1e200 * np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0]])
    for k in (2, 4):
        for kind in (SemiNorm.L1, SemiNorm.LINF):
            assert 2e200 <= powered(m, k, kind) < np.inf
    # the disc of B at 1e308 really is out of range: 1e308 + 1e308
    with pytest.raises(OverflowError, match="^second-type discs: DiscUnion: an entry or a reach"):
        powered([[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 0.0]], 2, SemiNorm.L1)


def test_powers_refuse_a_matrix_inexact_at_unit_scale():
    # other eigenvalues 0 and -1e-30: at unit scale (2^-997) the 1e-30 entries
    # would flush to 0 and every powered bound would read 0
    b = [[1e300, 1e-30, -1e-30], [1e300, -1e-30, 1e-30], [1e300, 0.0, 0.0]]
    for kind in SemiNorm:
        assert powered(b, 1, kind) == 2e-30
        for k in (2, 3):
            with pytest.raises(OverflowError, match="^powers of B: the entries of B span"):
                powered(b, k, kind)


def test_powers_keep_a_remaining_part_far_below_lambda():
    # lambda = 1 and a remaining eigenvalue -2^-600: B^2 holds it as 2^-1200
    # next to 1, below the float range, so row 0 goes before the first product
    a = math.ldexp(1.0, -600)
    b = [[1.0, a, -a], [1.0, -a, a], [1.0, 0.0, 0.0]]
    for kind in SemiNorm:
        for k in (1, 2, 3, 4):
            assert powered(b, k, kind) >= a


def test_powered_convergence_trend():
    # the high-power bound closes most of the gap to the true magnitude
    for f, target, kmax in ((cases.PERRON4_F, 6.0, 3), (cases.SHEAR4_F, 2.0, 5)):
        for kind in (SemiNorm.L1, SemiNorm.LINF):
            last = powered(f, kmax, kind)
            first = powered(f, 1, kind)
            assert target - 1e-9 <= last <= first
            assert last <= 1.3 * target


def test_high_powers_follow_the_remaining_spectrum():
    # lambda is about 80 and the remaining radius about 3.6: a walk that let
    # the rounding along e grow like lambda^k read about 7 times the radius
    rng = np.random.default_rng(0)
    a = rng.random((160, 160))
    values, vectors = np.linalg.eig(a)
    top = np.argmax(values.real)
    pair = Eigenpair(values[top].real, vectors[:, top].real)
    others = np.linalg.eigvals(a)
    rest = np.abs(np.delete(others, np.argmax(others.real))).max()
    reports = {r.name: r.value for r in standard_reports(a, pair, ks=(32,))}
    for name in ("tau1_k32", "tauinf_k32"):
        assert rest <= reports[name] <= 1.1 * rest, name


# ---------------------------------------------------------------------------
# determinant bound
# ---------------------------------------------------------------------------

def test_det_bound_zero_eigenvalue():
    assert det_report(cases.SINGULAR6_A, cases.SINGULAR6_PAIR, 1, SemiNorm.L1) == 0.0
    assert determinant(cases.SINGULAR6_A) == pytest.approx(0.0, abs=1e-9)


def test_det_bound_dominates_determinant():
    value = det_report(cases.PERRON4_A, cases.PERRON4_PAIR, 1, SemiNorm.LINF)
    assert value == pytest.approx(24.0 * 6.0 ** 3, abs=1e-9)
    assert value >= abs(determinant(cases.PERRON4_A))
    deep = det_report(cases.PERRON6_A, cases.PERRON6_PAIR, 5, SemiNorm.L1)
    assert deep >= abs(determinant(cases.PERRON6_A))


def test_det_bound_random():
    rng = np.random.default_rng(79)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        b, lam = random_row_sum_matrix(rng, n)
        pair = Eigenpair(lam, np.ones(n))
        target = abs(determinant(b))
        for k in (1, n - 1):
            for kind in (SemiNorm.L1, SemiNorm.LINF):
                assert det_report(b, pair, k, kind) >= target - 1e-7


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_reports_even_case():
    reports = {r.name: r for r in standard_reports(cases.PERRON4_A, cases.PERRON4_PAIR)}
    assert reports["m_B"].value == 14.0
    assert reports["m_F"].value == 6.0
    assert reports["tauinf_k1"].value == 6.0
    assert reports["tau1_k1"].value == 8.0


def test_reports_odd_case_with_det():
    reports = {r.name: r for r in standard_reports(
        cases.ROWSUM3_A, cases.ROWSUM3_PAIR, ks=(1, 2), include_det=True)}
    assert reports["m_FG"].value == 14.0
    assert reports["tauinf_k2"].value == pytest.approx(np.sqrt(40.0))
    assert any(name.startswith("det_") for name in reports)
    for r in reports.values():
        assert r.value >= 0.0 and np.isfinite(r.value)


def test_reports_walk_one_power_ladder(monkeypatch):
    from eigenfence import bounds

    calls = []
    power = bounds._power

    def counted(matrix, k):
        calls.append(k)
        return power(matrix, k)

    monkeypatch.setattr(bounds, "_power", counted)
    a, pair = cases.PERRON6_A, cases.PERRON6_PAIR
    ks = tuple(range(1, 41))
    reports = standard_reports(a, pair, ks=ks, include_det=True)
    assert sum(k - 1 for k in calls) <= max(set(ks) | {a.shape[0] - 1}) - 1
    # every value is bit-identical to a walk for its power alone
    b = diag_similar(a, pair).B
    for r in reports:
        kind = SemiNorm.L1 if "tau1" in r.name else SemiNorm.LINF
        if r.name.startswith("det_"):
            assert r.value == det_report(a, pair, r.k, kind)
        elif r.k is not None:
            assert r.value == powered(b, r.k, kind)

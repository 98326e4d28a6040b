"""End-to-end acceptance checks over the worked problems.

Each test is one acceptance gate; the conftest hook prints a PASS/FAIL
line per gate.  Expected constants were derived by hand from the defining
formulas; the semi-norm values are additionally re-proved here against a
brute-force vertex-enumeration oracle so no frozen number stands alone.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import cases
from conftest import random_row_sum_matrix, tau_vertex_oracle
from eigenfence import (
    DiscUnion,
    Eigenpair,
    PairIntersectionUnion,
    RegionIntersection,
    SemiNorm,
    bound_from_discs,
    classic_discs,
    contains,
    desingularize,
    det_bound,
    determinant,
    diag_similar,
    eigenpair_region,
    eigenvalues,
    nontrivial_values,
    obr_set,
    powered_bound,
    refine_even,
    refine_odd,
    refined_region,
    refined_region_odd,
    render_svg,
    sampled_subset,
    second_type_discs_of_transpose,
    tau1,
    tau_inf,
)

GOLDEN = Path(__file__).parent / "golden"

_DURATIONS: dict[str, float] = {}


def disc_list(union):
    return [tuple(d) for d in union.discs.tolist()]


# -- gate 1: 6x6 similarity and disc lists, integer-exact --------------------

def test_perron6_similarity_and_disc_lists():
    sim = diag_similar(cases.PERRON6_A, cases.PERRON6_PAIR)
    assert np.array_equal(sim.B, cases.PERRON6_B)
    assert disc_list(second_type_discs_of_transpose(sim.B)) == cases.PERRON6_SECOND_DISCS
    assert disc_list(classic_discs(cases.PERRON6_A, "columns")) == cases.PERRON6_CLASSIC_COLS
    assert disc_list(classic_discs(cases.PERRON6_A, "rows")) == cases.PERRON6_CLASSIC_ROWS


# -- gate 2: 6x6 membership ---------------------------------------------------

def test_perron6_membership():
    region = eigenpair_region(cases.PERRON6_A, cases.PERRON6_PAIR)
    others = nontrivial_values(eigenvalues(cases.PERRON6_A), 24.0)
    reference = sorted(map(complex, cases.PERRON6_OTHERS), key=lambda z: (z.real, z.imag))
    got = sorted(map(complex, others), key=lambda z: (z.real, z.imag))
    for g, q in zip(got, reference):
        assert abs(g - q) <= 0.01
    for z in others:
        assert contains(region, z)
    assert not contains(region, 24.0)


# -- gate 3: singular 6x6 -------------------------------------------------------

def test_singular6_reproduction_and_membership():
    sim = diag_similar(cases.SINGULAR6_A, cases.SINGULAR6_PAIR)
    assert np.array_equal(sim.B, cases.SINGULAR6_B)
    region = second_type_discs_of_transpose(sim.B)
    assert disc_list(region) == cases.SINGULAR6_SECOND_DISCS
    others = nontrivial_values(eigenvalues(cases.SINGULAR6_A), 0.0)
    assert len(others) == 5
    for z in others:
        assert contains(region, z)


# -- gate 4: second-type region can escape the classic one ----------------------

def test_stretch3_region_escapes_classic():
    region = eigenpair_region(cases.STRETCH3_A, cases.STRETCH3_PAIR)
    classic = classic_discs(cases.STRETCH3_A, "columns")
    check = sampled_subset(region, classic)
    assert not check.is_subset
    assert check.witness is not None
    assert contains(region, check.witness) and not contains(classic, check.witness)


# -- gate 5: even-size refinement -----------------------------------------------

def test_perron6_even_refinement():
    ref = refine_even(cases.PERRON6_B)
    assert np.array_equal(ref.F, cases.PERRON6_F)
    fine = second_type_discs_of_transpose(ref.F)
    assert disc_list(fine) == cases.PERRON6_F_DISCS
    coarse = second_type_discs_of_transpose(cases.PERRON6_B)
    assert sampled_subset(fine, coarse, resolution=128).is_subset


# -- gate 6: odd-size refinement -------------------------------------------------

def test_perron7_odd_refinement():
    ref = refine_odd(cases.PERRON7_B)
    # the two shifted matrices, exactly; per-column F/G labeling is
    # interchangeable for the region (see the swap-invariance unit test)
    for j in range(7):
        ours = (ref.F[:, j].tolist(), ref.G[:, j].tolist())
        expected = (cases.PERRON7_F[:, j].tolist(), cases.PERRON7_G[:, j].tolist())
        assert ours == expected or ours == expected[::-1]

    region = refined_region_odd(cases.PERRON7_B)
    for z in nontrivial_values(eigenvalues(cases.PERRON7_A), 15.0):
        assert contains(region, z)

    hull = DiscUnion([cases.PERRON7_HULL_DISC])
    for pair in region.pairs:
        one = PairIntersectionUnion([pair])
        assert sampled_subset(one, hull).is_subset


# -- gate 7: zero-component eigenvector -------------------------------------------

def test_shear4_desingularization():
    d = desingularize(cases.SHEAR4_A, cases.SHEAR4_PAIR)
    assert np.array_equal(d.C, cases.SHEAR4_C)
    ref = refine_even(d.C)
    assert np.array_equal(ref.F, cases.SHEAR4_F)

    spec_a = np.sort_complex(eigenvalues(cases.SHEAR4_A).values)
    spec_c = np.sort_complex(eigenvalues(d.C).values)
    np.testing.assert_allclose(spec_a, spec_c, atol=1e-8)

    region = second_type_discs_of_transpose(ref.F)
    for z in (-1.0, 1.0, 2.0):
        assert contains(region, z)
    # the known eigenvalue itself happens to fall inside here; informative only
    print(f"known eigenvalue 0 inside refined region: {contains(region, 0.0)}")


# -- gate 8: headline bound values --------------------------------------------------

def test_bound_values():
    assert bound_from_discs(cases.PERRON4_B) == 14.0
    assert bound_from_discs(cases.PERRON4_F) == 6.0

    assert bound_from_discs(cases.NEG7_B) == 42.0
    assert np.abs(cases.NEG7_B).sum(axis=0).max() == 48.0
    assert np.abs(cases.NEG7_B).sum(axis=1).max() == 48.0
    assert np.abs(cases.NEG7_A).sum(axis=0).max() == 78.0
    assert np.abs(cases.NEG7_A).sum(axis=1).max() == 87.0

    g = cases.ROWSUM3_G
    assert bound_from_discs(g) == 14.0
    assert min(bound_from_discs(cases.ROWSUM3_F), bound_from_discs(g)) == 14.0
    assert tau_inf(g) == 12.0 == tau_vertex_oracle(g, "inf")

    # quadratic infinity bound: tau_inf(G^2) is 40 by direct evaluation and
    # by the vertex oracle, so the bound is sqrt(40) ~ 6.3246
    g2 = g @ g
    assert tau_inf(g2) == 40.0 == tau_vertex_oracle(g2, "inf")
    assert powered_bound(g, 2, SemiNorm.LINF) == pytest.approx(np.sqrt(40.0), abs=1e-12)

    # L1 semi-norm of G: the row pair (9,0,0)/(0,-3,12) differs by 24 in L1,
    # hence 12; re-proved by the vertex oracle
    assert tau1(g) == 12.0 == tau_vertex_oracle(g, 1)

    # every remaining-eigenvalue bound here must dominate |λ₂| = 6
    for value in (14.0, tau_inf(g), tau1(g), powered_bound(g, 2, SemiNorm.LINF)):
        assert value >= 6.0
    # alternative bound families give 11.36 and 12 on this matrix;
    # the k = 2 power bound beats both
    assert powered_bound(g, 2, SemiNorm.LINF) < 11.36 < 12.0


# -- gate 9: semi-norm power tables ---------------------------------------------------

def test_seminorm_tables():
    f = cases.PERRON4_F
    expected_f = {
        (1, SemiNorm.LINF): 6.0,
        (2, SemiNorm.LINF): 6.0,
        (3, SemiNorm.LINF): 6.0,
        (1, SemiNorm.L1): 8.0,
        (2, SemiNorm.L1): 6.93,
        (3, SemiNorm.L1): 6.54,
    }
    for (k, kind), want in expected_f.items():
        got = powered_bound(f, k, kind)
        assert got == pytest.approx(want, abs=0.01), (k, kind)
        p = np.linalg.matrix_power(f, k)
        assert got == pytest.approx(
            tau_vertex_oracle(p, 1 if kind is SemiNorm.L1 else "inf") ** (1 / k),
            abs=1e-9)

    g = cases.SHEAR4_F
    expected_g = {
        (1, SemiNorm.LINF): 10.0,          # brute-force proved below
        (2, SemiNorm.LINF): 3.16,
        (5, SemiNorm.LINF): 2.51,
        (1, SemiNorm.L1): 10.0,
        (2, SemiNorm.L1): np.sqrt(7.0),    # brute-force proved below
        (5, SemiNorm.L1): 2.34,
    }
    for (k, kind), want in expected_g.items():
        got = powered_bound(g, k, kind)
        assert got == pytest.approx(want, abs=0.01), (k, kind)
        p = np.linalg.matrix_power(g, k)
        assert got == pytest.approx(
            tau_vertex_oracle(p, 1 if kind is SemiNorm.L1 else "inf") ** (1 / k),
            abs=1e-9)


# -- gate 10: degenerate oval intersection collapses to two points ----------------------

def test_cassini_degeneration_grid():
    m = cases.CHAIN3_DEGENERATE
    region = RegionIntersection((obr_set(m), obr_set(m.T)))
    xs = np.linspace(-3.0, 1.0, 400)
    ys = np.linspace(-1.0, 1.0, 400)
    gx, gy = np.meshgrid(xs, ys)
    grid = (gx + 1j * gy).ravel()
    members = grid[region.contains_points(grid)]
    targets = np.array([0.0, -2.0])
    for z in members:
        assert np.abs(z - targets).min() <= 1e-6
    assert contains(region, 0.0)
    assert contains(region, -2.0)


# -- gate 11: randomized property suite --------------------------------------------------

SEEDS = range(200)


def _timed(name):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()

        def __exit__(self, *exc):
            _DURATIONS[name] = time.perf_counter() - self.t0

    return _Timer()


def _planted_problem(rng, n):
    """Integer row-sum matrix plus a scaled version with a known eigenpair."""
    b, lam = random_row_sum_matrix(rng, n)
    v = rng.integers(1, 8, size=n).astype(float) * rng.choice([-1.0, 1.0], size=n)
    a = (v[:, None] / v[None, :]) * b
    return b, lam, a, v


def test_property_scale_invariance():
    with _timed("a"):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            n = 3 + seed % 6
            _b, lam, a, v = _planted_problem(rng, n)
            alpha = float(rng.choice([-3.0, -2.0, 2.0, 3.0, 5.0]))
            b1 = diag_similar(a, Eigenpair(lam, v), tol=1e-7).B
            b2 = diag_similar(a, Eigenpair(lam, alpha * v), tol=1e-7).B
            assert np.array_equal(b1, b2)


def test_property_shift_equalities():
    with _timed("b"):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            n = 3 + seed % 6
            b, _lam = random_row_sum_matrix(rng, n)
            if n % 2 == 0:
                mats = (refine_even(b).F,)
            else:
                ref = refine_odd(b)
                mats = (ref.F, ref.G)
            for m in mats:
                assert abs(tau1(m) - tau1(b)) <= 1e-9
                assert abs(tau_inf(m) - tau_inf(b)) <= 1e-9


def test_property_powered_bound_soundness():
    with _timed("c"):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            n = 3 + seed % 6
            b, lam = random_row_sum_matrix(rng, n)
            mods = np.abs(nontrivial_values(eigenvalues(b), lam))
            for k in range(1, 7):
                for kind in (SemiNorm.L1, SemiNorm.LINF):
                    assert np.all(mods <= powered_bound(b, k, kind) + 1e-7)


def test_property_refinement_subsets():
    with _timed("d"):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            n = 3 + seed % 6
            b, _lam = random_row_sum_matrix(rng, n)
            fine = refined_region(b)
            coarse = second_type_discs_of_transpose(b)
            check = sampled_subset(fine, coarse)
            assert check.is_subset, (b, check.witness)


def test_property_det_bounds():
    with _timed("e"):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            n = 3 + seed % 6
            b, lam, a, v = _planted_problem(rng, n)
            target = abs(determinant(b))
            for k in (1, n - 1):
                assert det_bound(b, Eigenpair(lam, np.ones(n)), k, SemiNorm.L1) >= target - 1e-7
                assert det_bound(a, Eigenpair(lam, v), k, SemiNorm.LINF,
                                 tol=1e-7) >= abs(determinant(a)) - 1e-6 * (1 + target)


def test_property_brauer_containment():
    with _timed("f"):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            n = 3 + seed % 6
            m = rng.integers(-9, 10, size=(n, n)).astype(float)
            union = obr_set(m)
            for z in eigenvalues(m).values:
                slack = min(abs(z - c1) * abs(z - c2) - bound
                            for c1, c2, bound in union.ovals.tolist())
                assert slack <= 1e-7


def test_property_suite_runtime():
    assert len(_DURATIONS) == 6
    total = sum(_DURATIONS.values())
    print(f"property suite total: {total:.2f} s " +
          " ".join(f"{k}={v:.2f}" for k, v in sorted(_DURATIONS.items())))
    assert total < 60.0


# -- gate 12: golden renders --------------------------------------------------------------

@pytest.mark.parametrize("name", ["disc_comparison", "refined_overlay",
                                  "cassini_intersection"])
def test_golden_render(name):
    from test_render import SCENES

    scene = SCENES[name]()
    first = render_svg(scene)
    second = render_svg(scene)
    assert first == second
    assert first == (GOLDEN / f"{name}.svg").read_text(encoding="utf-8")

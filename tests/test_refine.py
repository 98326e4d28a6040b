import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cases
from conftest import random_row_sum_matrix
from eigenfence import (
    EigenfenceError,
    Eigenpair,
    RegionIntersection,
    diag_similar,
    eigenvalues,
    nontrivial_values,
    prepare,
    refine_even,
    refine_odd,
    refined_region,
    refinement,
    sampled_subset,
    second_type_discs_of_transpose,
)
from eigenfence import bounds, core, discs, refine
from eigenfence.cli import main
from eigenfence.refine import row_sum_constant
from eigenfence.similarity import SimilarityResult


def test_even_worked_6x6():
    ref = refine_even(cases.PERRON6_B)
    np.testing.assert_array_equal(ref.matrices["F"], cases.PERRON6_F)
    np.testing.assert_array_equal(ref.offsets["F"], [-2, -4, -6, -2, -3, -4])


def test_even_disc_list():
    union = second_type_discs_of_transpose(cases.PERRON6_F)
    assert [tuple(d) for d in union.discs.tolist()] == cases.PERRON6_F_DISCS


def test_even_shear4():
    ref = refine_even(cases.SHEAR4_C)
    np.testing.assert_array_equal(ref.matrices["F"], cases.SHEAR4_F)


def test_even_zero_matrix():
    ref = refine_even(np.zeros((4, 4)))
    np.testing.assert_array_equal(ref.matrices["F"], np.zeros((4, 4)))
    np.testing.assert_array_equal(ref.offsets["F"], np.zeros(4))


def test_even_rejects_odd():
    with pytest.raises(EigenfenceError, match="^even-size refinement called with odd n = 5$"):
        refine_even(np.zeros((5, 5)))


def test_even_rejects_drifting_row_sums():
    m = np.array([[1.0, 2, 3, 4], [0, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2]])
    with pytest.raises(EigenfenceError,
                       match=r"^row sums spread 1\.000e\+01 exceeds tolerance \(mean sum 5\.5\)$"):
        refine_even(m)


def test_row_sums_whose_partial_sums_overflow():
    # 1e308 + 1e308 overflows, but every row sums to 0: checked again at half scale
    m = np.array([[1e308, 1e308, -1e308, -1e308]] * 4)
    assert row_sum_constant(m) == 0.0
    with pytest.raises(EigenfenceError,
                       match=r"^row sums spread 5\.000e\+307 exceeds tolerance \(mean sum 1\.25e\+307\)$"):
        row_sum_constant(np.vstack([m[:3], [[1e308, 1e308, -1e308, -0.5e308]]]))
    with pytest.raises(OverflowError, match="^row sums: a row sum is above the float range"):
        row_sum_constant(np.array([[1e308, 1e308, 0.0, 0.0]] * 4))
    # the sums fit, their total does not: the tolerance stays finite
    big = np.array([[1e308, 0.7e308, 0.0, 0.0]] * 4)
    assert row_sum_constant(big) == 1.7e308
    big[3, 1] = 0.0
    with pytest.raises(EigenfenceError,
                       match=r"^row sums spread 7\.000e\+307 exceeds tolerance \(mean sum 1\.525e\+308\)$"):
        row_sum_constant(big)


def test_odd_worked_7x7():
    ref = refine_odd(cases.PERRON7_B)
    np.testing.assert_array_equal(ref.matrices["F"], cases.PERRON7_F)
    np.testing.assert_array_equal(ref.matrices["G"], cases.PERRON7_G)


def test_region_invariant_under_per_column_pair_swap():
    # each column contributes the intersection of its two discs, so the
    # F/G labeling of a column cannot change the region
    from eigenfence import PairIntersectionUnion

    region = refined_region(cases.PERRON7_B)
    pairs = region.pairs.copy()
    pairs[3] = pairs[3, ::-1]
    swapped = PairIntersectionUnion(pairs)
    rng = np.random.default_rng(31)
    pts = rng.uniform(-16, 18, size=800) + 1j * rng.uniform(-17, 17, size=800)
    np.testing.assert_array_equal(region.contains_points(pts),
                                  swapped.contains_points(pts))


def test_odd_rowsum3():
    ref = refine_odd(cases.ROWSUM3_A)
    np.testing.assert_array_equal(ref.matrices["F"], cases.ROWSUM3_F)
    np.testing.assert_array_equal(ref.matrices["G"], cases.ROWSUM3_G)


def test_odd_degenerate_chain3():
    b = diag_similar(cases.CHAIN3_A, cases.CHAIN3_PAIR).B
    ref = refine_odd(b)
    np.testing.assert_allclose(ref.matrices["G"], cases.CHAIN3_DEGENERATE, atol=1e-15)


def test_odd_zero_matrix():
    ref = refine_odd(np.zeros((3, 3)))
    np.testing.assert_array_equal(ref.matrices["F"], np.zeros((3, 3)))
    np.testing.assert_array_equal(ref.matrices["G"], np.zeros((3, 3)))


def test_odd_rejects_even():
    with pytest.raises(EigenfenceError, match="^odd-size refinement called with even n = 4$"):
        refine_odd(np.zeros((4, 4)))


def test_shifted_matrices_stay_constant_row_sum():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        b, lam = random_row_sum_matrix(rng, n)
        for m in (refine_even(b) if n % 2 == 0 else refine_odd(b)).matrices.values():
            sums = m.sum(axis=1)
            assert sums.max() - sums.min() <= 1e-9 * (1 + abs(lam))


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def test_region_odd_single_disc_hull():
    region = refined_region(cases.PERRON7_B)
    assert len(region) == 7
    # the whole region collapses into its first pair's disc
    first_c, first_r = region.pairs[0][0].tolist()
    assert (first_c, first_r) == (-1.0, 12.0)
    for da, db in region.pairs.tolist():
        for c, r in (da, db):
            assert abs(c - first_c) + r <= first_r + 1e-12


def test_region_odd_membership_7x7():
    region = refined_region(cases.PERRON7_B)
    for z in nontrivial_values(eigenvalues(cases.PERRON7_A), 15.0):
        assert region.contains_points(z)


def test_region_odd_zero_matrix_is_origin():
    region = refined_region(np.zeros((3, 3)))
    assert region.contains_points(0.0)
    assert not region.contains_points(0.5)


def test_subset_even_refinement():
    fine = second_type_discs_of_transpose(cases.PERRON6_F)
    coarse = second_type_discs_of_transpose(cases.PERRON6_B)
    assert sampled_subset(fine, coarse).is_subset


def test_subset_odd_refinement():
    fine = refined_region(cases.PERRON7_B)
    coarse = second_type_discs_of_transpose(cases.PERRON7_B)
    assert sampled_subset(fine, coarse).is_subset


def fg_intersection(matrix) -> RegionIntersection:
    """Intersection of the full second-type regions of F^T and G^T (odd n)."""
    mats = refine_odd(matrix).matrices.values()
    return RegionIntersection(tuple(map(second_type_discs_of_transpose, mats)))


def test_pairwise_region_inside_two_region_intersection():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(1, 5)) * 2 + 1
        b, _lam = random_row_sum_matrix(rng, n)
        fine = refined_region(b)
        simple = fg_intersection(b)
        assert sampled_subset(fine, simple, resolution=32).is_subset


def test_pairwise_region_equals_simple_intersection_for_7x7():
    # for this matrix the two shapes agree as point sets (sampled both ways)
    fine = refined_region(cases.PERRON7_B)
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
    np.testing.assert_array_equal(even.matrices["F"], refine_even(cases.PERRON6_B).matrices["F"])
    np.testing.assert_array_equal(odd.matrices["G"], refine_odd(cases.PERRON7_B).matrices["G"])
    assert list(even.matrices) == ["F"] and list(odd.matrices) == ["F", "G"]
    assert even.region().to_json() == refined_region(cases.PERRON6_B).to_json()
    assert odd.region().to_json() == refined_region(cases.PERRON7_B).to_json()


@pytest.mark.parametrize("b", [cases.PERRON6_B, cases.PERRON7_B], ids=["even", "odd"])
def test_refinement_stores_its_shifts_and_builds_f_and_g_when_read(b):
    ref = refinement(b)
    assert list(ref.offsets) == (["F"] if len(b) % 2 == 0 else ["F", "G"])
    assert not hasattr(ref, "F") and not hasattr(ref, "G")   # one accessor: matrices
    want = {name: b + off for name, off in ref.offsets.items()}
    assert list(ref.matrices) == list(want)
    for name, m in want.items():
        got = ref.matrices[name]
        assert got.tobytes() == m.tobytes()
        assert got is not ref.matrices[name]   # built on every read: nothing caches it


def test_refinement_keeps_a_frozen_copy_of_a_writable_b():
    b = cases.PERRON6_B.astype(float)
    ref = refinement(b)
    f = ref.matrices["F"]
    b[0, 0] += 1.0   # the caller's array is the caller's to change
    np.testing.assert_array_equal(ref.matrices["F"], f)


def frozen_random_b(n):
    """A read-only n x n matrix with row sums 1, as :func:`prepare` returns it."""
    a = np.random.default_rng(n).random((n, n)) + 0.05
    b = prepare(a / a.sum(axis=1, keepdims=True), Eigenpair(1.0, np.ones(n))).B
    assert not b.flags.writeable
    return b


def traced(call):
    """``(held, peak)`` under tracemalloc: the bytes that ``call()``'s
    result holds, and the most held while it ran."""
    tracemalloc.start()
    try:
        result = call()   # alive while it is measured
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [256, 257, 512, 513])
def test_refinement_of_a_read_only_b_holds_one_matrix(n):
    """The refinement holds B's split, not F or G, and a read-only B by
    reference: one n^2 block of floats, where F (and G) stored would be
    two (three).  Its region peaks at B's split and one row block of it
    shifted, ``core.BLOCK_ENTRIES`` floats: all of it up to n = 256, a quarter at
    n = 512, where one shifted copy of the whole split would pass 2."""
    b, floats = frozen_random_b(n), 8 * n * n
    held, _ = traced(lambda: refinement(b))
    assert held <= 1.1 * floats

    def discarded():
        (refine_even if n % 2 == 0 else refine_odd)(b)

    # an odd split by selection scans its smaller halves in row blocks, and
    # each scan copies half a block: BLOCK_ENTRIES / 2 floats
    scan = 4 * core.BLOCK_ENTRIES if n % 2 and n >= discs.SPLIT_SELECT else 0
    held, peak = traced(discarded)
    assert peak <= 1.1 * floats + scan and held <= 0.1 * floats
    _, peak = traced(lambda: refined_region(b))
    assert peak <= 1.2 * floats + 8 * core.BLOCK_ENTRIES


@pytest.mark.parametrize("b", [cases.PERRON6_B, cases.PERRON7_B], ids=["even", "odd"])
def test_regions_and_bounds_never_build_f_or_g(b, monkeypatch):
    monkeypatch.setattr(refine.Refinement, "matrices",
                        property(lambda self: pytest.fail("matrices was built")))
    n = len(b)
    sim = SimilarityResult(B=b, row_sum=float(b[0].sum()), scaling=np.ones(n))
    bounds.prepared_reports(sim, ks=(1, 2), include_det=True)
    refined_region(b)
    (refine_even if n % 2 == 0 else refine_odd)(b).region()


def count_splits(monkeypatch) -> list:
    """Record every call of ``split_columns``, in each module that calls it."""
    from eigenfence import bounds, discs, refine
    calls = []
    split = discs.split_columns

    def counted(*args, **kwargs):
        calls.append(args)
        return split(*args, **kwargs)

    for module in (discs, refine, bounds):
        monkeypatch.setattr(module, "split_columns", counted)
    return calls


@pytest.mark.parametrize("b", [cases.PERRON6_B, cases.PERRON7_B], ids=["even", "odd"])
def test_refined_region_sorts_the_columns_once(b, monkeypatch):
    calls = count_splits(monkeypatch)
    refined_region(b)
    assert len(calls) == 1


PROBLEMS = Path(__file__).parent.parent / "demos" / "problems"


@pytest.mark.parametrize("problem", ["perron6", "perron7"])
@pytest.mark.parametrize("command, splits", [
    (["locate"], 1), (["refine"], 1), (["obr"], 1),
    # one split of B serves m_B, m_F (and m_G) and tau_inf(B); then B^2 and B^3
    (["bound", "--k", "3"], 3),
    # and B^(n-1)
    (["bound", "--k", "3", "--det"], 4),
    # one split of B serves the second-type discs and the refined region
    (["render", "--out", "-", "--layers", "second,refined"], 1),
    (["render", "--out", "-", "--layers", "second"], 1)])
def test_commands_sort_the_columns_of_b_once(problem, command, splits, monkeypatch, capsys):
    calls = count_splits(monkeypatch)
    assert main([command[0], str(PROBLEMS / f"{problem}.json"), *command[1:]]) == 0
    assert len(calls) == splits


def test_random_membership_even_and_odd():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(3, 10))
        b, lam = random_row_sum_matrix(rng, n)
        region = refined_region(b)
        for z in nontrivial_values(eigenvalues(b), lam):
            assert region.contains_points(z), (b, z)

"""The whole-matrix column kernels against their per-column definitions.

Each kernel must reproduce the loop it replaced exactly (``==``), because
both sum the same sorted values in the same order.  Matrices mix small
integers (many ties) with signed floats.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
from eigenfence import bounds, refine_even, refine_odd, refinement
from eigenfence.discs import (
    TRANSPOSE_BLOCK,
    row_gaps,
    second_type_discs_of_transpose,
    sorted_columns,
)
from eigenfence.similarity import SimilarityResult

ENTRIES = st.one_of(st.integers(-5, 5).map(float),
                    st.floats(-100, 100, allow_subnormal=False))

#: ENTRIES plus signed zeros, which tie with the mandated 0 of a radius.
ZEROS_TOO = st.one_of(ENTRIES, st.sampled_from([0.0, -0.0]))


@st.composite
def matrices(draw, parity, entries=ENTRIES):
    n = draw(st.sampled_from([n for n in range(3, 13) if n % 2 == parity]))
    values = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    return np.array(values).reshape(n, n)


def row_sum_matrix(m):
    """Replace the last column so every row sums to the first entry."""
    m = m.copy()
    m[:, -1] = m[0, 0] - m[:, :-1].sum(axis=1)
    return m


def gap_1d(desc):
    """Top-half sum minus bottom-half sum of one descending vector."""
    half = desc.size // 2
    return float(desc[:half].sum() - desc[half + desc.size % 2:].sum())


def kth_largest_offdiag(m, j, k):
    return float(np.sort(np.delete(m[:, j], j))[::-1][k - 1])


def sorted_columns_by_transposed_copy(m, diag):
    """:func:`sorted_columns` as one whole-array transposed copy."""
    t = np.asarray(m, dtype=float).T.copy()
    if diag is not None:
        np.fill_diagonal(t, diag)
    t.sort(axis=1)
    return t[:, ::-1]


def ties_and_signed_zeros(n, seed=0):
    rng = np.random.default_rng(seed)
    m = np.where(rng.random((n, n)) < 0.5, rng.integers(-3, 4, (n, n)), rng.standard_normal((n, n)))
    m[rng.random((n, n)) < 0.1] = -0.0
    return m


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).view(np.int64).tolist() == \
        np.ascontiguousarray(b).view(np.int64).tolist()


T = TRANSPOSE_BLOCK


@pytest.mark.parametrize("diag", [None, 0.0, -np.inf])
@pytest.mark.parametrize("n", sorted({3, 4, T - 1, T, T + 1, 2 * T, 1024, 1025}))
def test_sorted_columns_is_the_sort_of_the_transposed_copy(n, diag):
    m = ties_and_signed_zeros(n, seed=n)
    inputs = [m, np.asfortranarray(m), ties_and_signed_zeros(2 * n, seed=n)[::2, 1::2],
              m.astype(np.int64)]
    for matrix in inputs:
        got = sorted_columns(matrix, diag)
        assert same_bits(got, sorted_columns_by_transposed_copy(matrix, diag))
        # a reversed view of a C-contiguous buffer, which row_gaps sums along rows
        assert got[:, ::-1].flags.c_contiguous


#: Entries of the far-range matrices are multiples of this: 255 of them is
#: 1.79e308, just below the float max, and every sum of the entries of a row
#: is exact at half scale, where no partial sum of 511 of them overflows.
UNIT = 2.0 ** 1016


@st.composite
def far_range_row_sum_matrices(draw, parity):
    """Constant row-sum matrices with entries up to +-1.79e308 (at the
    largest unit): each row holds p and c - p, a pair q, -q and zeros in a
    random order, so its sum is c exactly."""
    n = draw(st.sampled_from([n for n in range(3, 10) if n % 2 == parity]))
    c = draw(st.integers(-8, 8))
    unit = draw(st.sampled_from([UNIT, UNIT / 2, UNIT / 64]))
    rows = []
    for _ in range(n):
        p = draw(st.integers(max(0, c), 255 + min(0, c)))
        row = [p, c - p]
        if n > 3:
            q = draw(st.integers(0, (511 - p - abs(c - p)) // 2))
            row += [q, -q]
        row += [0] * (n - len(row))
        rows.append([row[i] for i in draw(st.permutations(range(n)))])
    return np.array(rows, dtype=float) * unit


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_refinement_refuses_exactly_the_shifts_that_overflow(parity, data):
    """The O(n) range check of :func:`refinement` refuses a B if and only if
    an entry of F (or G) is not finite; otherwise F, G, the shifts and the
    refined discs are the formulas on the whole matrices."""
    b = data.draw(far_range_row_sum_matrices(parity))
    n = len(b)
    def kth(k):
        return np.array([kth_largest_offdiag(b, j, k) for j in range(n)])
    with np.errstate(over="ignore"):
        if n % 2 == 0:
            shifts = {"shifts": kth(n // 2)}
            matrices = {"F": b - shifts["shifts"]}
        else:
            shifts = {"f_shifts": -kth((n - 1) // 2), "g_shifts": -kth((n + 1) // 2)}
            matrices = {"F": b + shifts["f_shifts"], "G": b + shifts["g_shifts"]}
    if not all(np.isfinite(m).all() for m in matrices.values()):
        with pytest.raises(OverflowError, match="^refinement: "):
            refinement(b)
        return
    ref = refinement(b)
    for name, m in {**matrices, **shifts}.items():
        assert same_bits(getattr(ref, name), m)
    try:
        want = {name: second_type_discs_of_transpose(m).discs for name, m in matrices.items()}
    except OverflowError:
        with pytest.raises(OverflowError, match="^refined discs: "):
            ref.discs
    else:
        for name, table in want.items():
            assert same_bits(ref.discs[name].discs, table)


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_second_type_radii_match_per_column(parity, data):
    m = data.draw(matrices(parity))
    n = m.shape[0]
    radii = row_gaps(sorted_columns(m, 0.0))
    for j in range(n):
        off = np.delete(m[:, j], j)
        assert radii[j] == cases.second_type_radius(off)
    region = second_type_discs_of_transpose(m)
    assert [tuple(d) for d in region.discs.tolist()] == list(zip(np.diagonal(m), radii))
    reach = max(0.0, *(abs(m[j, j]) + radii[j] for j in range(n)))
    assert region.max_abs().value == reach


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_refinement_shifts_match_kth_largest_offdiag(parity, data):
    b = row_sum_matrix(data.draw(matrices(parity)))
    n = b.shape[0]
    desc = sorted_columns(b, -np.inf)
    for j in range(n):
        assert desc[j, :n - 1].tolist() == sorted(np.delete(b[:, j], j).tolist(), reverse=True)
    if n % 2 == 0:
        shifts = refine_even(b).shifts
        assert shifts.tolist() == [kth_largest_offdiag(b, j, n // 2) for j in range(n)]
    else:
        ref = refine_odd(b)
        assert ref.f_shifts.tolist() == [-kth_largest_offdiag(b, j, (n - 1) // 2) for j in range(n)]
        assert ref.g_shifts.tolist() == [-kth_largest_offdiag(b, j, (n + 1) // 2) for j in range(n)]


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_refined_discs_match_sorting_the_shifted_matrices(parity, data):
    """The refined discs, read from B's sort, equal the second-type discs
    of F (and G) sorted on their own, and so do the disc bounds."""
    b = row_sum_matrix(data.draw(matrices(parity, ZEROS_TOO)))
    ref = refinement(b)
    tables = [second_type_discs_of_transpose(m).discs for m in ref.matrices.values()]
    got = ref.region().table
    assert got.tolist() == (tables[0] if parity == 0 else np.stack(tables, axis=1)).tolist()
    sim = SimilarityResult(B=b, row_sum=float(b[0].sum()), scaling=np.ones(len(b)))
    reach = {r.name: r.value for r in bounds.prepared_reports(sim, kinds=())}
    for name, m in ref.matrices.items():
        assert reach[f"m_{name}"] == second_type_discs_of_transpose(m).max_abs().value


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_column_gap_matches_per_column(parity, data):
    m = data.draw(matrices(parity))
    expected = [gap_1d(np.sort(m[:, j])[::-1]) for j in range(m.shape[0])]
    assert bounds.tau_inf(m) == max(expected)


def tau1_pairwise(m):
    return max(float(np.abs(m[i] - m[j]).sum())
               for i, j in itertools.combinations(range(m.shape[0]), 2)) / 2.0


@pytest.mark.parametrize("block", [bounds.TAU1_BLOCK, 1, 300])
@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_tau1_matches_pairwise_maximum(block, parity, data):
    m = data.draw(matrices(parity))
    with mock.patch.object(bounds, "TAU1_BLOCK", block):
        assert bounds.tau1(m) == tau1_pairwise(m)


@pytest.mark.parametrize("n", [41, 100])
def test_tau1_blocked_at_larger_n(n):
    m = np.random.default_rng(n).standard_normal((n, n))
    assert bounds.TAU1_BLOCK // (n * n) < n   # more than one block
    assert bounds.tau1(m) == tau1_pairwise(m)


def test_tau1_buffer_starts_on_a_cache_line(monkeypatch):
    offsets = []
    subtract = np.subtract

    def spy(a, b, out):
        offsets.append(out.ctypes.data % bounds.CACHE_LINE)
        return subtract(a, b, out=out)

    monkeypatch.setattr(np, "subtract", spy)
    for n in (3, 10, 64, 160, 256):
        bounds.tau1(np.random.default_rng(n).random((n, n)))
    assert offsets and set(offsets) == {0}


def test_tau1_memory_stays_quadratic():
    m = np.random.default_rng(0).random((512, 512))
    tracemalloc.start()
    try:
        bounds.tau1(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20

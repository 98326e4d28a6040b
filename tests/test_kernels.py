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

from eigenfence import bounds, refine_even, refine_odd, second_type_radius
from eigenfence.discs import row_gaps, second_type_discs_of_transpose, sorted_columns

ENTRIES = st.one_of(st.integers(-5, 5).map(float),
                    st.floats(-100, 100, allow_subnormal=False))


@st.composite
def matrices(draw, parity):
    n = draw(st.sampled_from([n for n in range(3, 13) if n % 2 == parity]))
    values = draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))
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


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_second_type_radii_match_per_column(parity, data):
    m = data.draw(matrices(parity))
    n = m.shape[0]
    radii = row_gaps(sorted_columns(m, 0.0))
    for j in range(n):
        off = np.delete(m[:, j], j)
        assert radii[j] == second_type_radius(off)
        assert radii[j] == gap_1d(np.sort(np.append(off, 0.0))[::-1])
    region = second_type_discs_of_transpose(m)
    assert [tuple(d) for d in region.discs.tolist()] == list(zip(np.diagonal(m), radii))
    reach = max(0.0, *(abs(m[j, j]) + radii[j] for j in range(n)))
    assert bounds.bound_from_discs(m) == reach


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
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_column_gap_matches_per_column(parity, data):
    m = data.draw(matrices(parity))
    expected = [gap_1d(np.sort(m[:, j])[::-1]) for j in range(m.shape[0])]
    assert bounds.column_gap(m).tolist() == expected
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


def test_tau1_memory_stays_quadratic():
    m = np.random.default_rng(0).random((512, 512))
    tracemalloc.start()
    try:
        bounds.tau1(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20

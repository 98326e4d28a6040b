"""The whole-matrix column kernels against their per-column definitions.

A kernel that sums the same values in the same order as the loop it
replaced must reproduce it exactly (``==``).  The gap kernel inserts its
value into a sort without moving entries, so from 8 terms per half it may
round differently: there, as for ``tau_inf``, the reference is exact
arithmetic (:mod:`exact`) within its stated bound.  Matrices mix small
integers (many ties) with signed floats.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
import exact
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


def sorted_columns_by_transposed_copy(m, diag=-np.inf):
    """:func:`sorted_columns` as one whole-array transposed copy; ``diag``
    replaces the diagonal (None keeps it)."""
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
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.int64),
                                                 np.ascontiguousarray(b).view(np.int64))


T = TRANSPOSE_BLOCK


@pytest.mark.parametrize("mode", [None, 0.0, -np.inf])
@pytest.mark.parametrize("n", sorted({3, 4, T - 1, T, T + 1, 2 * T, 1024, 1025}))
def test_sorted_columns_is_the_sort_of_the_transposed_copy(n, mode):
    """The one sort, diagonal last, is the sort of the transposed copy with
    a diagonal of -inf, bit for bit.  ``mode`` is what the diagonal held in
    the other sorts it replaced: the diagonal itself (None, for
    ``tau_inf``) or the mandated 0.  :func:`row_gaps` inserting that value
    gives the gaps of that sort, within twice the contract of
    :mod:`exact` (both are within it of the exact gaps), and leaves the
    one sort as it was."""
    m = ties_and_signed_zeros(n, seed=n)
    inputs = [m, np.asfortranarray(m), ties_and_signed_zeros(2 * n, seed=n)[::2, 1::2],
              m.astype(np.int64)]
    for matrix in inputs:
        got, want = sorted_columns(matrix), sorted_columns_by_transposed_copy(matrix)
        assert same_bits(got, want)
        # a reversed view of a C-contiguous buffer, which row_gaps sums along rows
        assert got[:, ::-1].flags.c_contiguous
        if mode == -np.inf:
            continue
        gaps = row_gaps(got, np.diagonal(matrix) if mode is None else mode)
        assert same_bits(got, want)
        reference = [gap_1d(row) for row in sorted_columns_by_transposed_copy(matrix, mode)]
        bound = 2 * float(exact.gamma(n)) * (1 + 1e-12) * np.abs(matrix).sum(axis=0)
        assert (np.abs(gaps - reference) <= bound).all()


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
    radii = row_gaps(sorted_columns(m), 0.0)
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
    desc = sorted_columns(b)
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
    """``tau_inf`` inserts each diagonal into the sort of the off-diagonal
    entries, so it sums in another order than the per-column sort: equal on
    integer-valued matrices, whose sums are exact, and otherwise within the
    contract of :mod:`exact`."""
    m = data.draw(matrices(parity))
    got = bounds.tau_inf(m)
    if (m == np.round(m)).all():
        assert got == max(gap_1d(np.sort(m[:, j])[::-1]) for j in range(m.shape[0]))
    q = exact.exact(m)
    assert exact.within(got, exact.tau_inf(q), exact.gamma(len(m)) * max(exact.abs_column_sums(q)))


@st.composite
def scaled_row_sum_matrices(draw, parity):
    """Constant row-sum matrices at n = 3..40 with ties and signed zeros,
    at a power-of-two scale whose every 2^e multiple, |e| <= 60, stays
    normal: the row sum is about n times the largest entry."""
    n = draw(st.sampled_from([n for n in range(3, 41) if n % 2 == parity]))
    m = ties_and_signed_zeros(n, seed=draw(st.integers(0, 2 ** 32 - 1)))
    m[:, -1] = n * (np.abs(m).max() + 1.0) - m[:, :-1].sum(axis=1)
    return np.ldexp(m, draw(st.integers(-20, 20)))


def gap_kernels(m):
    """The second-type disc table, the refined region table and ``tau_inf``."""
    return second_type_discs_of_transpose(m).discs, refinement(m).region().table, bounds.tau_inf(m)


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gap_kernels_commute_with_scales_and_permutations(parity, data):
    """Scaling by 2^e scales every radius, refined radius and ``tau_inf`` by
    exactly 2^e.  ``P M P^T`` permutes the disc tables and keeps ``tau_inf``,
    bit for bit; only the sign of a zero may differ, as the sort takes 0.0
    and -0.0 as ties and numpy releases differ in which one ``max`` and a
    sum of zeros return."""
    m = data.draw(scaled_row_sum_matrices(parity))
    e = data.draw(st.integers(-60, 60))
    perm = np.array(data.draw(st.permutations(range(len(m)))))
    base = gap_kernels(m)
    for got, want in zip(gap_kernels(np.ldexp(m, e)), base):
        assert same_bits(np.asarray(got), np.ldexp(want, e))
    for got, want in zip(gap_kernels(m[np.ix_(perm, perm)]), base):
        want = want[perm] if np.ndim(want) else want
        assert same_bits(np.asarray(got) + 0.0, np.asarray(want) + 0.0)


def tau1_pairwise(m):
    return max(float(np.abs(m[i] - m[j]).sum())
               for i, j in itertools.combinations(range(m.shape[0]), 2)) / 2.0


def tau1_half_scale(m):
    """tau1_pairwise with each pair summed at half scale, where no sum of a
    finite matrix's rows overflows; the same value wherever neither sum
    overflows and no entry is subnormal."""
    return max(float(np.abs(m[i] / 2 - m[j] / 2).sum())
               for i, j in itertools.combinations(range(m.shape[0]), 2))


@pytest.mark.parametrize("block", [bounds.TAU1_BLOCK, 1, 300])
@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_tau1_matches_pairwise_maximum(block, parity, data):
    m = data.draw(matrices(parity))
    with mock.patch.object(bounds, "TAU1_BLOCK", block):
        assert bounds.tau1(m) == tau1_pairwise(m)


@pytest.mark.parametrize("block", [bounds.TAU1_BLOCK, 1, 300])
@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_tau1_screen_matches_pairwise_maximum(block, parity, data):
    # a screen from n = 2 on puts these small matrices through it
    m = data.draw(matrices(parity))
    with mock.patch.object(bounds, "TAU1_BLOCK", block), mock.patch.object(bounds, "TAU1_SCREEN", 2):
        assert bounds.tau1(m) == tau1_pairwise(m)


def screen_sized(kind, n, seed, exponent):
    rng = np.random.default_rng(seed)
    m = {"positive": lambda: rng.random((n, n)) + 0.05,
         "signed": lambda: rng.standard_normal((n, n)),
         "integers": lambda: rng.integers(-5, 6, (n, n)).astype(float),
         "power": lambda: np.linalg.matrix_power(rng.random((n, n)), 3)}[kind]()
    return np.ldexp(m, exponent)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([bounds.TAU1_SCREEN - 1, bounds.TAU1_SCREEN, bounds.TAU1_SCREEN + 17]),
       kind=st.sampled_from(["positive", "signed", "integers", "power"]),
       seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-60, 60))
def test_tau1_matches_pairwise_maximum_around_the_screen_size(n, kind, seed, exponent):
    m = screen_sized(kind, n, seed, exponent)
    assert bounds.tau1(m) == tau1_pairwise(m)


def test_tau1_finds_the_maximum_one_ulp_above_the_screens_leader():
    # rows 0-1 and 0-2 are 5 and 5 + 2^-50 apart in float64 (one ulp), but
    # 1 + 2^-50 rounds to 1 in float32: the screen ties them and leads with
    # 0-1, so only the float64 recheck of 0-2 finds the maximum
    n = bounds.TAU1_SCREEN + 16
    s = np.random.default_rng(5).uniform(0.0, 0.5, n)
    s[:3] = 4.0, 1.0, 1.0 + 2.0 ** -50
    m = np.diag(s)
    assert np.float32(s[2]) == np.float32(s[1])
    assert bounds.tau1(m) == tau1_pairwise(m) == (5.0 + 2.0 ** -50) / 2


@pytest.mark.parametrize("scale", [0, 700, -700])
def test_tau1_certificate_covers_a_screen_off_by_its_whole_error_bound(monkeypatch, scale):
    # a screen table whose D = 2 M - sigma_i - sigma_j err from the float64
    # sums by all of the certificate's E_ij = (n+4) 2^-22 (S_i + S_j) + n 2^-120
    # but a 2^-20 part for the float64 rounding of the test, low on the pair
    # with the largest float64 sum and high on every other pair: more than
    # the float32 screen's own bound ((4n-3)e + 4(n-1)e^2)(S_i + S_j) + 8n 2^-126
    n = bounds.TAU1_SCREEN + 16
    s = np.random.default_rng(6).uniform(0.0, 0.5, n)
    s[:3] = 4.0, 1.0, 1.0 + 2.0 ** -50
    m = np.ldexp(np.diag(s), scale)

    def screen(v, *layout):
        unit = np.ldexp(m, -math.frexp(m.max())[1])
        j = np.arange(n)
        k = (j + np.arange(1, n // 2 + 1)[:, None]) % n   # row j's partner at offset t, at row t - 1
        exact = np.abs(unit[j] - unit[k]).sum(axis=2)
        size = np.abs(unit).sum(axis=1)
        error = ((n + 4) * 2.0 ** -22 * (size[j] + size[k]) + n * 2.0 ** -120) * (1 - 2.0 ** -20)
        e = 2.0 ** -24
        proved = ((4 * n - 3) * e + 4 * (n - 1) * e * e) * (size[j] + size[k]) + 8 * n * 2.0 ** -126
        assert np.all(error > proved)
        top = exact == exact.max()
        assert top.sum() == 1   # 0-2, at offset 2
        sums = v.sum(axis=1, dtype=np.float64)
        return (np.where(top, exact - error, exact + error) + sums[j] + sums[k]) / 2

    monkeypatch.setattr(bounds, "_screen", screen)
    monkeypatch.setattr(bounds, "TAU1_BLOCK", 1)   # one row per block: no pair rechecked by the way
    assert bounds.tau1(m) == tau1_pairwise(m) == np.ldexp((5.0 + 2.0 ** -50) / 2, scale)


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("place", ["wrap", "half", "any"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_tau1_screen_finds_a_planted_maximum_pair(parity, place, data):
    """Rows a and b each hold one entry of 20n, of one sign, on the two
    columns either side of a tile boundary, over entries in [-1, 1): they
    are the unique farthest pair, ``2 M_ab - sigma_a - sigma_b`` apart.  Positive,
    the pair's distance rests on its ``M_ab`` from the tiles, and
    ``-sigma_a - sigma_b`` alone is the smallest of all; negative, ``2 M_ab`` alone
    is about as small as any pair's.  The pair is placed at a wrap-around
    offset (a + t >= n), at the largest offset (t = n/2 for even n, where
    every pair is screened twice) or anywhere, in tiles of at most ``c``
    columns."""
    n = 2 * data.draw(st.integers(3, 20), label="half n") + parity
    c = data.draw(st.integers(1, 4), label="tile columns")
    if place == "any":
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="a, b")
    else:
        t = data.draw(st.integers(1, n // 2), label="t") if place == "wrap" else n // 2
        a = data.draw(st.integers(n - t if place == "wrap" else 0, n - 1), label="a")
        b = (a + t) % n
    m = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed")).uniform(-1, 1, (n, n))
    width = -(-n // -(-n // c))   # the first tile boundary: c columns a tile, balanced
    m[a, width - 1] = m[b, width] = data.draw(st.sampled_from([-20.0, 20.0]), label="plant") * n
    with mock.patch.object(bounds, "TAU1_SCREEN", 2), mock.patch.object(bounds, "TAU1_BLOCK", c * n):
        assert bounds.tau1(m) == tau1_pairwise(m)
    assert tau1_pairwise(m) == float(np.abs(m[a] - m[b]).sum()) / 2


@pytest.mark.parametrize("n", [bounds.TAU1_SCREEN, 2 ** 14, 2 ** 14 + 1, 2 ** 20, 2 ** 23 + 1])
def test_tau1_screen_bound_holds_up_to_2_to_the_23_plus_1_rows(n):
    """The *Screen* paragraph of :func:`bounds.tau1` in exact rationals, as
    coefficients of ``S_i + S_j``, with ``e = 2^-24`` and ``u = 2^-53``."""
    e, u = Fraction(1, 2 ** 24), exact.U
    g = (n - 1) * e / (1 - (n - 1) * e)   # gamma_(n-1) in float32
    assert (n - 1) * e <= Fraction(1, 2) and g <= 2 * (n - 1) * e <= 1
    screen = (4 * n - 3) * e + 4 * (n - 1) * e ** 2
    assert e + 2 * g * (1 + e) <= screen   # v's rounding, then the doubled float32 sum
    spare = (n + 4) * Fraction(1, 2 ** 22) - screen   # E_ij's coefficient over the screen's
    assert 4 * (n - 1) * e ** 2 <= 2 * e and spare >= 16 * e
    # what the spare absorbs: F_ij's gamma_n, sigma's two float64 sums, E_ij
    # from S_i and S_j summed in float64, and a few roundings of D_ij, E_ij
    # and the test, each of a value below 8 (S_i + S_j)
    assert exact.gamma(n) + exact.gamma(n - 1) * (1 + e) + 3 * exact.gamma(n) + 64 * u < e


def test_tau1_screen_bound_stops_at_2_to_the_23_plus_2_rows():
    n, e = 2 ** 23 + 2, Fraction(1, 2 ** 24)
    assert (n - 1) * e / (1 - (n - 1) * e) > 2 * (n - 1) * e
    assert 8 * (n - 1) ** 2 > 2 ** 49   # from n = 2^23 + 1 on, no n x n float64 matrix fits in 2^49 bytes


def test_tau1_screens_from_TAU1_SCREEN_rows_on(monkeypatch):
    screened = []
    screen = bounds._screen
    monkeypatch.setattr(bounds, "_screen", lambda v, *layout: screened.append(len(v)) or screen(v, *layout))
    for n in (bounds.TAU1_SCREEN - 1, bounds.TAU1_SCREEN, 47):
        m = np.random.default_rng(n).standard_normal((n, n))
        assert bounds.tau1(m) == tau1_pairwise(m)
    assert screened == [bounds.TAU1_SCREEN, 47]


@pytest.mark.parametrize("n", [bounds.TAU1_SCREEN, 48, 100])
def test_tau1_exact_ties(n):
    row = np.random.default_rng(n).random(n)
    circulant = np.array([np.roll(row, k) for k in range(n)])   # n pairs at the largest offset
    for m in (circulant, np.eye(n), np.tile(row, (n, 1)), np.full((n, n), 3.0)):
        assert bounds.tau1(m) == tau1_pairwise(m)


@pytest.mark.parametrize("n", [bounds.TAU1_SCREEN - 1, 47, 64])   # float64, then screened odd and even
def test_tau1_at_far_scales_and_subnormal_entries(n):
    rng = np.random.default_rng(n)
    m = rng.random((n, n)) + 0.05
    tiny = rng.random((n, n)) * 1e-40   # float32 subnormals at unit scale
    tiny[0, 0] = 1.0
    cases = [np.ldexp(m, 600), np.ldexp(m, -600), np.ldexp(m, 900), tiny,
             np.ldexp(rng.integers(0, 9, (n, n)).astype(float), -1074),   # float64 subnormals
             np.where(rng.random((n, n)) < 0.5, 5e-324, m)]
    for case in cases:
        assert bounds.tau1(case) == tau1_pairwise(case)
    for e in (600, -600, 900):
        assert bounds.tau1(np.ldexp(m, e)) == np.ldexp(bounds.tau1(m), e)


@pytest.mark.parametrize("n", [bounds.TAU1_SCREEN - 1, 47, 64])   # float64, then screened odd and even
def test_tau1_of_integer_matrices(n):
    m = np.random.default_rng(n).integers(-9, 10, (n, n))
    assert bounds.tau1(m) == tau1_pairwise(m.astype(float))


def test_tau1_sums_an_overflowing_pair_at_half_scale():
    # warnings are errors: neither the subtraction nor the sum may warn
    assert bounds.tau1([[1e308, 1e308], [0.0, 0.0]]) == 1e308
    assert bounds.tau1([[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 0.0]]) == np.inf
    for n in (bounds.TAU1_SCREEN - 1, bounds.TAU1_SCREEN + 16):
        m = np.random.default_rng(n).random((n, n))
        m[3, :2] = 1e308
        assert bounds.tau1(m) == tau1_half_scale(m) < np.inf
        m[5, :2] = -1e308   # rows 3 and 5 are 4e308 apart
        assert bounds.tau1(m) == np.inf


def test_tau1_rechecks_one_pair_of_a_random_positive_matrix(monkeypatch):
    # a pair costs its n = 256 entries of the screen's maxima (float32, over
    # the tiles), or of a subtraction when it is summed in float64
    pairs = {np.float32: 0, np.float64: 0}
    subtract, maximum = np.subtract, np.maximum

    def spy(ufunc, a, b, out):
        pairs[out.dtype.type] += out.size // 256
        return ufunc(a, b, out=out)

    m = np.random.default_rng(0).random((256, 256)) + 0.05
    monkeypatch.setattr(np, "subtract", lambda a, b, out: spy(subtract, a, b, out))
    monkeypatch.setattr(np, "maximum", lambda a, b, out: spy(maximum, a, b, out))
    value = bounds.tau1(m)
    monkeypatch.undo()
    assert pairs[np.float32] >= 256 * 255 // 2   # every pair screened
    assert pairs[np.float64] == 1                 # the leader, and no other pair
    assert value == tau1_pairwise(m)


@pytest.mark.parametrize("n", [41, 100])
def test_tau1_blocked_at_larger_n(n):
    m = np.random.default_rng(n).standard_normal((n, n))
    assert bounds.TAU1_BLOCK // (n * n) < n   # more than one block
    assert bounds.tau1(m) == tau1_pairwise(m)


def test_tau1_buffer_starts_on_a_cache_line(monkeypatch):
    offsets = {}

    class Spy:
        """The ufunc, with the cache-line offset of every output recorded."""
        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __getattr__(self, name):
            return getattr(self.ufunc, name)

        def __call__(self, a, b, out):
            offsets.setdefault(out.dtype.type, set()).add(out.ctypes.data % bounds.CACHE_LINE)
            return self.ufunc(a, b, out=out)

    monkeypatch.setattr(np, "subtract", Spy(np.subtract))
    monkeypatch.setattr(np, "maximum", Spy(np.maximum))
    for n in (3, 10, 64, 160, 256, 300):
        bounds.tau1(np.random.default_rng(n).random((n, n)))
    # the float32 screen's maxima and the float64 sums share the one buffer
    assert offsets == {np.float32: {0}, np.float64: {0}}


def test_tau1_memory_stays_quadratic():
    # measured: 2.27 n^2 float64s, in the buffer (n^2), the float32 rows
    # (n^2 / 2), the float32 offset table (n^2 / 4) and the survivors' masks
    # (3 n^2 bytes); a tile or a group of maxima that grew with n^3, or one
    # more copy of the rows or of the table, would pass 2.5
    n = 512
    m = np.random.default_rng(0).random((n, n))
    tracemalloc.start()
    try:
        bounds.tau1(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8

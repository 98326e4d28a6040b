"""The column kernels against exact arithmetic, within the contract of
:mod:`exact`: the diagonal similarity B and its rows' sums, second-type
radii of B, the refinement's shifts (exactly), F and G (correctly
rounded), their refined radii, ``tau_inf``, ``tau1``, and the deleted row
sums of the classic discs and the Ostrowski-Brauer ovals.

Inputs: every eigenpair of :mod:`cases` on the diagonal path and a seeded
n = 64 positive matrix with numpy's Perron pair (for B), every square
matrix in :mod:`cases`, Hypothesis matrices at n = 3..40 of both
parities with ties and signed zeros (and for ``tau1`` at n on both sides
of ``bounds.TAU1_SCREEN``), the same with ``discs.SPLIT_SELECT`` at 3, so
that the columns are split by selection, and seeded matrices at n = 64
and 129, and at n = 512 and 513, the first sizes that select.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
import exact
from eigenfence import (
    Eigenpair,
    NotConstantRowSumError,
    bounds,
    classic_discs,
    discs,
    obr_set,
    prepare,
    refinement,
    second_type_discs_of_transpose,
)
from eigenfence.similarity import SimilarityResult

KINDS = ("positive", "negative", "signed", "ties")


def seeded_matrix(n, seed, kind, scale=0):
    """A random n x n matrix of one kind times ``2^scale``; a tenth of its
    entries are signed zeros."""
    rng = np.random.default_rng(seed)
    m = {"positive": lambda: rng.random((n, n)) + 0.05,
         "negative": lambda: -rng.random((n, n)) - 0.05,
         "signed": lambda: rng.standard_normal((n, n)),
         "ties": lambda: rng.integers(-3, 4, (n, n)).astype(float)}[kind]()
    zeros = rng.random((n, n)) < 0.1
    m[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    return np.ldexp(m, scale)


def with_row_sums(m):
    """m with its last column replaced so every row sums to about n max|m|."""
    m = m.copy()
    m[:, -1] = len(m) * np.abs(m).max() - m[:, :-1].sum(axis=1)
    return m


@st.composite
def matrices(draw, parity):
    n = draw(st.sampled_from([n for n in range(3, 41) if n % 2 == parity]))
    return seeded_matrix(n, draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from(KINDS)),
                         draw(st.integers(-20, 20)))


def check_radii_and_tau_inf(m):
    q = exact.exact(m)
    n, sums = len(q), exact.abs_column_sums(q)
    radii = second_type_discs_of_transpose(m).discs[:, 1]
    for got, want, size in zip(radii, exact.second_type_radii(q), sums):
        assert exact.within(got, want, exact.gamma(n) * size)
    assert exact.within(bounds.tau_inf(m), exact.tau_inf(q), exact.gamma(n) * max(sums))


def check_tau1(m):
    q = exact.exact(m)
    want = exact.tau1(q)
    assert exact.within(bounds.tau1(m), want, exact.gamma(len(q)) * want)


def check_refinement(b):
    """The refinement of B and the disc bounds of B, F and G."""
    q = exact.exact(b)
    n = len(q)
    ref = refinement(b)
    sim = SimilarityResult(B=b, row_sum=float(b[0].sum()), scaling=np.ones(n))
    reach = {r.name: r.value for r in bounds.prepared_reports(sim, kinds=())}
    assert exact.within(reach["m_B"], exact.disc_bound(q),
                        exact.gamma(n + 1) * max(exact.abs_column_sums(q)))
    offsets = exact.offsets(q)
    shifts = {"F": -ref.shifts} if n % 2 == 0 else {"F": ref.f_shifts, "G": ref.g_shifts}
    for name, off in offsets.items():
        assert [Fraction(x) for x in shifts[name].tolist()] == off
        f = exact.shifted(q, off)
        # one IEEE operation per entry: the exact shifted entry, correctly rounded
        assert ref.matrices[name].tolist() == exact.floats(f)
        table = ref.discs[name].discs
        if n < discs.SPLIT_SELECT:   # both sorts; from it on each is within the contract
            assert (table == second_type_discs_of_transpose(ref.matrices[name]).discs).all()
        sums = exact.abs_column_sums(f)
        for got, want, size in zip(table[:, 1], exact.second_type_radii(f), sums):
            assert exact.within(got, want, exact.gamma(n + 1) * size)
        assert exact.within(reach[f"m_{name}"], exact.disc_bound(f), exact.gamma(n + 2) * max(sums))


def check_similarity(a, pair):
    """Each entry of the diagonal path's B, and the exact sum of each of its
    rows against ``lambda + d_i``."""
    sim = prepare(a, pair)
    assert sim.k == 0
    want = exact.similar(a, pair.vector)
    g = exact.gamma(2)
    for got, row, d in zip(sim.B.tolist(), want,
                           exact.row_sum_defects(a, pair.value, pair.vector)):
        for x, w in zip(got, row):
            assert exact.within(x, w, g * abs(w))
        assert abs(sum(map(Fraction, got)) - Fraction(pair.value) - d) <= g * sum(map(abs, row))


#: Every eigenpair in :mod:`cases` whose vector has no zero component, by name.
PAIRS = [pytest.param(getattr(cases, name[:-len("PAIR")] + "A"), pair, id=name)
         for name, pair in sorted(vars(cases).items())
         if isinstance(pair, Eigenpair) and np.all(pair.vector != 0)]


@pytest.mark.parametrize("a, pair", PAIRS)
def test_similarity_of_the_cases_against_exact_arithmetic(a, pair):
    check_similarity(a, pair)


def test_similarity_of_a_seeded_perron_pair_against_exact_arithmetic():
    a = seeded_matrix(64, 64, "positive")
    values, vectors = np.linalg.eig(a)
    k = int(np.argmax(values.real))
    check_similarity(a, Eigenpair(float(values[k].real), vectors[:, k].real))


#: Every square matrix of n >= 3 in :mod:`cases`, by name.
CASES = [pytest.param(name, m, id=name) for name, m in sorted(vars(cases).items())
         if isinstance(m, np.ndarray) and m.ndim == 2 and m.shape[0] == m.shape[1] >= 3]


@pytest.mark.parametrize("name, m", CASES)
def test_cases_against_exact_arithmetic(name, m):
    check_radii_and_tau_inf(m)
    check_tau1(m)
    try:
        check_refinement(m)
    except NotConstantRowSumError:
        assert not name.endswith(("_B", "_F", "_G"))   # every B, F and G has constant row sums


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_radii_and_tau_inf_against_exact_arithmetic(parity, data):
    check_radii_and_tau_inf(data.draw(matrices(parity)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(bounds.TAU1_SCREEN - 4, bounds.TAU1_SCREEN + 4), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(KINDS), scale=st.integers(-20, 20))
def test_tau1_against_exact_arithmetic(n, seed, kind, scale):
    # below TAU1_SCREEN every pair is summed in float64, from there on screened first
    check_tau1(seeded_matrix(n, seed, kind, scale))


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_refinement_against_exact_arithmetic(parity, data):
    check_refinement(with_row_sums(data.draw(matrices(parity))))


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_selection_against_exact_arithmetic(parity, data):
    m = data.draw(matrices(parity))
    with mock.patch.object(discs, "SPLIT_SELECT", 3):
        check_radii_and_tau_inf(m)
        check_refinement(with_row_sums(m))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [64, 129, discs.SPLIT_SELECT, discs.SPLIT_SELECT + 1])
def test_seeded_large_matrices_against_exact_arithmetic(n, kind):
    m = seeded_matrix(n, n, kind)
    check_radii_and_tau_inf(m)
    if n < discs.SPLIT_SELECT:   # tau1 does not split; exact, it costs n^3 big-integer terms
        check_tau1(m)
    check_refinement(with_row_sums(m))



@pytest.mark.parametrize("n", [10, 11, 20, 21])
def test_half_sums_above_the_float_range_against_exact_arithmetic(n):
    """Entries near 0.45e308: every half sum overflows, no gap does, so the
    radii and ``tau_inf`` come from the paired differences."""
    m = np.random.default_rng(n).uniform(0.4e308, 0.5e308, (n, n))
    with np.errstate(over="ignore"):
        assert np.isinf(np.sort(m, axis=0)[-(n // 2):].sum(axis=0)).all()
    check_radii_and_tau_inf(m)


def check_deleted_sums(m):
    """Classic radii of rows and columns, and the ovals' R_i R_j from the
    same row radii."""
    q = exact.exact(m)
    n = len(q)
    for lines, axis in ((q, "rows"), (exact.columns(q), "columns")):
        radii = classic_discs(m, axis).discs[:, 1]
        for got, want in zip(radii, exact.deleted_row_sums(lines)):
            assert exact.within(got, want, exact.gamma(n - 1) * want)
    r = classic_discs(m, "rows").discs[:, 1]
    i, j = np.triu_indices(n, 1)
    assert obr_set(m).ovals[:, 2].tobytes() == (r[i] * r[j]).tobytes()


@pytest.mark.parametrize("name, m", CASES)
def test_deleted_sums_of_the_cases_against_exact_arithmetic(name, m):
    check_deleted_sums(m)


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_deleted_sums_against_exact_arithmetic(parity, data):
    check_deleted_sums(data.draw(matrices(parity)))


def test_a_cancelling_diagonal_keeps_the_deleted_sum():
    """A diagonal entry far above its row's other entries: the row's sum
    minus the diagonal loses all of R_0 = 3, and the contract sees it."""
    m = np.array([[1e16, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], dtype=float)
    want = exact.deleted_row_sums(exact.exact(m))
    assert want[0] == 3
    subtracted = np.abs(m).sum(axis=1) - np.abs(np.diagonal(m))
    assert not exact.within(subtracted[0], want[0], exact.gamma(3) * want[0])
    check_deleted_sums(m)
    assert obr_set(m).ovals[:3, 2].tolist() == [3.0, 3.0, 3.0]   # the ovals (0, j)

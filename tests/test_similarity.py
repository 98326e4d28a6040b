import numpy as np
import pytest

import cases
from conftest import random_row_sum_matrix
from eigenfence import (
    Eigenpair,
    InputError,
    desingularize,
    diag_similar,
    eigenvalues,
    prepare,
)
from eigenfence.similarity import zero_mask


def test_worked_6x6_scaling():
    result = diag_similar(cases.PERRON6_A, cases.PERRON6_PAIR)
    np.testing.assert_array_equal(result.B, cases.PERRON6_B)
    assert result.row_sum == 24.0


def test_identity_scaling_when_vector_is_flat():
    a = cases.ROWSUM3_A
    result = diag_similar(a, Eigenpair(24.0, np.ones(3)))
    np.testing.assert_array_equal(result.B, a)


def test_scaled_vector_gives_identical_matrix():
    doubled = Eigenpair(24.0, 2.0 * cases.PERRON6_PAIR.vector)
    b1 = diag_similar(cases.PERRON6_A, cases.PERRON6_PAIR).B
    b2 = diag_similar(cases.PERRON6_A, doubled).B
    np.testing.assert_array_equal(b1, b2)


def test_worked_7x7_scaling():
    result = diag_similar(cases.PERRON7_A, cases.PERRON7_PAIR)
    np.testing.assert_array_equal(result.B, cases.PERRON7_B)


def test_worked_neg7_scaling():
    result = diag_similar(cases.NEG7_A, cases.NEG7_PAIR)
    np.testing.assert_array_equal(result.B, cases.NEG7_B)
    off = result.B[~np.eye(7, dtype=bool)]
    assert set(off.tolist()) == {0.0, 6.0}


def test_row_sums_equal_eigenvalue():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        b, lam = random_row_sum_matrix(rng, n)
        v = rng.integers(1, 8, size=n).astype(float) * rng.choice([-1.0, 1.0], size=n)
        a = (v[:, None] / v[None, :]) * b  # undo the scaling: diag_similar(a) == b
        result = diag_similar(a, Eigenpair(lam, v), tol=1e-8)
        sums = result.B.sum(axis=1)
        assert np.abs(sums - lam).max() <= 1e-9 * (1 + abs(lam))


def test_diagonal_preserved_exactly():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5))
    v = rng.normal(size=5) + 3.0
    lam = 1.0
    # bypass the residual gate: only the algebraic identity matters here
    b = a * (v[None, :] / v[:, None])
    assert np.array_equal(np.diagonal(b), np.diagonal(a))


def test_rejects_invalid_pair():
    with pytest.raises(InputError, match=r"^eigenpair residual 6\.667e-01 exceeds tolerance 1\.000e-09$"):
        diag_similar(cases.PERRON6_A, Eigenpair(23.0, cases.PERRON6_PAIR.vector))


def test_rejects_zero_component():
    with pytest.raises(InputError, match=r"^eigenvector has zero component\(s\) at \[0, 1\]; "
                                         "desingularize first$"):
        diag_similar(cases.SHEAR4_A, cases.SHEAR4_PAIR)


def test_spectrum_preserved():
    a = cases.PERRON6_A
    b = diag_similar(a, cases.PERRON6_PAIR).B
    sa = np.sort_complex(eigenvalues(a))
    sb = np.sort_complex(eigenvalues(b))
    np.testing.assert_allclose(sa, sb, atol=1e-7)


# ---------------------------------------------------------------------------
# desingularization
# ---------------------------------------------------------------------------

def test_shear_4x4():
    d = desingularize(cases.SHEAR4_A, cases.SHEAR4_PAIR)
    np.testing.assert_array_equal(d.C, cases.SHEAR4_C)
    assert d.k == 2
    assert d.perm == (0, 1, 2, 3)
    np.testing.assert_array_equal(d.w, np.ones(4))


def test_shear_eigenpair_holds():
    d = desingularize(cases.SHEAR4_A, cases.SHEAR4_PAIR)
    residual = np.abs(d.C @ d.w - cases.SHEAR4_PAIR.value * d.w).max()
    assert residual <= 1e-9


def test_interleaved_zero_moves_first():
    a = np.array([[2.0, 1, 1], [0, 3, 0], [1, 1, 2]])
    v = np.array([1.0, 0.0, 1.0])
    lam = 3.0
    assert np.array_equal(a @ v, lam * v)
    d = desingularize(a, Eigenpair(lam, v))
    assert d.perm == (1, 0, 2)
    assert d.k == 1
    np.testing.assert_array_equal(d.w, [1.0, 1.0, 1.0])
    sa = np.sort_complex(eigenvalues(a))
    sc = np.sort_complex(eigenvalues(d.C))
    np.testing.assert_allclose(sa, sc, atol=1e-7)


def test_leading_zero_vector_fill():
    a = np.array([[1.0, 0, 0], [0, 2, 3], [0, 0, 5]])
    v = np.array([0.0, 5.0, 5.0])
    assert np.array_equal(a @ v, 5.0 * v)
    d = desingularize(a, Eigenpair(5.0, v))
    assert d.k == 1
    np.testing.assert_array_equal(d.w, [5.0, 5.0, 5.0])


def test_desingularize_requires_a_zero():
    with pytest.raises(InputError, match="^eigenvector has no zero components; use diag_similar$"):
        desingularize(cases.PERRON6_A, cases.PERRON6_PAIR)


def test_desingularize_then_scale_always_works():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        b, lam = random_row_sum_matrix(rng, n)
        # plant zeros: run the similarity backwards from a row-sum matrix
        v = rng.integers(1, 5, size=n).astype(float)
        zeros = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        v[zeros] = 0.0
        k = int((v == 0.0).sum())
        if k == 0 or k == n:
            continue
        S = np.eye(n)
        S[:k, k] = 1.0
        Sinv = np.eye(n)
        Sinv[:k, k] = -1.0
        order = np.concatenate([np.nonzero(v == 0.0)[0], np.nonzero(v != 0.0)[0]])
        P = np.eye(n)[order]
        w = np.ones(n)
        a = P.T @ Sinv @ b @ S @ P  # then (lam, P^T S^-1 w) is a pair of a with zeros
        vec = P.T @ Sinv @ w
        d = desingularize(a, Eigenpair(lam, vec), tol=1e-6)
        assert np.all(np.abs(d.w) > 0)
        sim = diag_similar(d.C, Eigenpair(lam, d.w), tol=1e-6)
        np.testing.assert_allclose(sim.B.sum(axis=1), lam, atol=1e-6 * (1 + abs(lam)))


# ---------------------------------------------------------------------------
# prepare: the one path from (A, pair) to B
# ---------------------------------------------------------------------------

def test_zero_mask_is_relative_to_the_largest_component():
    v = np.array([0.0, 1e-13, 1e-11, -5e-13, 1.0, -1.0])
    assert zero_mask(v).tolist() == [True, True, False, True, False, False]
    assert not zero_mask(1e-13 * v[4:]).any()


def test_prepare_diagonal_path_is_diag_similar():
    sim = prepare(cases.PERRON6_A, cases.PERRON6_PAIR)
    ref = diag_similar(cases.PERRON6_A, cases.PERRON6_PAIR)
    assert sim.k == ref.k == 0
    np.testing.assert_array_equal(sim.B, ref.B)
    np.testing.assert_array_equal(sim.scaling, ref.scaling)
    assert sim.row_sum == ref.row_sum == 24.0


def test_prepare_shear_path_scales_by_w():
    sim = prepare(cases.SHEAR4_A, cases.SHEAR4_PAIR)
    d = desingularize(cases.SHEAR4_A, cases.SHEAR4_PAIR)
    assert sim.k == d.k == 2
    np.testing.assert_array_equal(sim.B, diag_similar(d.C, Eigenpair(sim.row_sum, d.w)).B)
    np.testing.assert_array_equal(sim.scaling, d.w)


def test_prepare_checks_only_the_given_pair():
    # residual 8e-10 on A passes tol = 1e-9; the sheared pair (C, w) has 1.6e-9
    a = np.array([[2.0, 3.0 + 1.6e-9, -3.0], [1.0, 4.0 + 1.6e-9, 1.0], [7.0, 2.0, 3.0]])
    pair = Eigenpair(5.0, np.array([0.0, 1.0, 1.0]))
    d = desingularize(a, pair)
    with pytest.raises(InputError, match=r"^eigenpair residual 1\.600e-09 exceeds tolerance 1\.000e-09$"):
        diag_similar(d.C, Eigenpair(5.0, d.w))
    sim = prepare(a, pair)
    assert sim.k == 1
    np.testing.assert_allclose(sim.B.sum(axis=1), 5.0, rtol=1e-8)
    with pytest.raises(InputError, match=r"^eigenpair residual 5\.000e-02 exceeds tolerance 1\.000e-09$"):
        prepare(a, Eigenpair(5.1, pair.vector))


@pytest.mark.parametrize("a, pair", [(cases.PERRON6_A, cases.PERRON6_PAIR),
                                     (cases.SHEAR4_A, cases.SHEAR4_PAIR)], ids=["diagonal", "shear"])
def test_prepare_validates_a_once(a, pair, monkeypatch):
    """One finiteness pass over A per prepare: the pair's residual is taken
    on the matrix that the one validation returned."""
    from eigenfence import core, similarity
    calls = []
    validate = core.as_matrix

    def counted(matrix):
        calls.append(matrix)
        return validate(matrix)

    for module in (core, similarity):
        monkeypatch.setattr(module, "as_matrix", counted)
    prepare(a, pair)
    assert len(calls) == 1

import numpy as np
import pytest

import cases
from conftest import random_row_sum_matrix
from eigenfence import (
    EigenfenceError,
    determinant,
    diag_similar,
    eigenvalues,
)


def test_worked_6x6_spectrum():
    values = eigenvalues(cases.PERRON6_A)
    assert values[0] == pytest.approx(24.0, abs=1e-8)
    expected = sorted([24.0, 7.76, -3.05, 2.65 + 1.34j, 2.65 - 1.34j, 2.0],
                      key=abs, reverse=True)
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, abs=0.01)


def test_worked_7x7_spectrum():
    values = np.sort(eigenvalues(cases.NEG7_A).real)
    expected = np.sort(np.array(cases.NEG7_OTHERS + [0.0]))
    np.testing.assert_allclose(values, expected, atol=0.01)


def test_diagonal_spectrum():
    values = eigenvalues(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(values, [3.0, 2.0, 1.0], atol=1e-14)


def test_sorted_by_modulus():
    values = eigenvalues(cases.SINGULAR6_A)
    mods = np.abs(values)
    assert np.all(mods[:-1] >= mods[1:] - 1e-12)


def test_spectrum_is_read_only():
    values = eigenvalues(cases.PERRON6_A)
    assert isinstance(values, np.ndarray) and not values.flags.writeable


def test_conjugate_pairs():
    values = eigenvalues(cases.PERRON6_A)
    complexes = values[np.abs(values.imag) > 1e-9]
    assert len(complexes) % 2 == 0
    paired = np.sort_complex(complexes)
    np.testing.assert_allclose(paired, np.sort_complex(complexes.conj()), atol=1e-7)


def test_similarity_invariance():
    rng = np.random.default_rng(89)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        b, lam = random_row_sum_matrix(rng, n)
        v = rng.integers(1, 6, size=n).astype(float)
        a = (v[:, None] / v[None, :]) * b
        from eigenfence import Eigenpair
        sim = diag_similar(a, Eigenpair(lam, v), tol=1e-7)
        np.testing.assert_allclose(
            np.sort_complex(eigenvalues(a)),
            np.sort_complex(eigenvalues(sim.B)), atol=1e-7)


def test_product_matches_determinant():
    rng = np.random.default_rng(97)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        m = rng.integers(-6, 7, size=(n, n)).astype(float)
        det = determinant(m)
        prod = np.prod(eigenvalues(m)).real
        assert prod == pytest.approx(det, rel=1e-6, abs=1e-6 * (1 + abs(det)))


def test_determinant_values():
    assert determinant(np.eye(5)) == 1.0
    assert determinant(cases.SHEAR4_A) == pytest.approx(0.0, abs=1e-9)
    assert determinant(cases.PERRON4_A) == pytest.approx(cases.PERRON4_DET, rel=1e-10)


def test_size_cap():
    with pytest.raises(EigenfenceError, match=r"^oracle is desk-scale only \(n <= 64\), got n = 65$"):
        eigenvalues(np.eye(65))
    with pytest.raises(EigenfenceError, match=r"^oracle is desk-scale only \(n <= 64\), got n = 65$"):
        determinant(np.eye(65))


def test_retry_exhaustion(monkeypatch):
    def always_fails(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", always_fails)
    with pytest.raises(EigenfenceError, match="^eigenvalue iteration failed: no convergence$"):
        eigenvalues(cases.ROWSUM3_A)


import json
import re

import numpy as np
import pytest

import cases
from eigenfence import (
    Eigenpair,
    InputError,
    as_matrix,
    check_eigenpair,
    desingularize,
    diag_similar,
    parse_matrix,
    parse_problem,
)


def test_parse_simple():
    m = parse_matrix("1 2\n3 4")
    np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])


def test_parse_worked_6x6():
    text = "\n".join(" ".join(str(int(x)) for x in row) for row in cases.PERRON6_A)
    np.testing.assert_array_equal(parse_matrix(text), cases.PERRON6_A)


def test_parse_ragged():
    with pytest.raises(InputError, match=r"^ragged rows: row widths \[1, 2\]$"):
        parse_matrix("1 2\n3")


def test_parse_bad_number():
    with pytest.raises(InputError, match="^line 1: could not convert string to float: 'x'$"):
        parse_matrix("1 x\n3 4")


def test_parse_empty():
    with pytest.raises(InputError, match="^empty matrix input$"):
        parse_matrix("   \n  ")


def test_parse_non_square():
    with pytest.raises(InputError, match="^matrix must be square, got shape 2x3$"):
        parse_matrix("1 2 3\n4 5 6")


def test_parse_rejects_nonfinite():
    with pytest.raises(InputError, match=r"^matrix entries must be finite \(no NaN/inf\)$"):
        parse_matrix("1 2\n3 inf")


def test_parse_json_form():
    doc = {"matrix": [[1, 2], [3, 4]], "eigenvalue": 5.0, "eigenvector": [1, 2]}
    m = parse_matrix(json.dumps(doc))
    np.testing.assert_array_equal(m, [[1, 2], [3, 4]])
    m2, pair = parse_problem(json.dumps(doc))
    assert pair is not None and pair.value == 5.0
    np.testing.assert_array_equal(pair.vector, [1.0, 2.0])


def test_parse_problem_pair_optional_but_joint():
    m, pair = parse_problem('{"matrix": [[1, 0], [0, 1]]}')
    assert pair is None
    with pytest.raises(InputError, match='^"eigenvalue" and "eigenvector" must be given together$'):
        parse_problem('{"matrix": [[1, 0], [0, 1]], "eigenvalue": 1.0}')


def test_problem_vector_length_mismatch():
    with pytest.raises(InputError, match="^eigenvector length 3 does not match matrix size 2$"):
        parse_problem('{"matrix": [[1, 0], [0, 1]], "eigenvalue": 1, "eigenvector": [1, 2, 3]}')


def test_as_matrix_rejects_vector():
    with pytest.raises(InputError, match="^expected a 2-D matrix, got 1-D data$"):
        as_matrix([1.0, 2.0, 3.0])


@pytest.mark.parametrize("complex_matrix", [
    np.array([[1 + 2j, 0], [0, 1]]),
    np.array([[1 + 0j, 0], [0, 1]]),
    [[1 + 2j, 0], [0, 1]],
], ids=["array", "array-zero-imag", "list"])
def test_as_matrix_rejects_complex(complex_matrix):
    with pytest.raises(InputError, match="^matrix entries must be real, got complex entries$"):
        as_matrix(complex_matrix)


@pytest.mark.parametrize("complex_vector", [np.array([1 + 2j, 1.0]), [1 + 2j, 1.0]],
                         ids=["array", "list"])
def test_eigenpair_rejects_complex_vector(complex_vector):
    with pytest.raises(InputError, match="^eigenvector entries must be real, got complex entries$"):
        Eigenpair(1.0, complex_vector)


@pytest.mark.parametrize("value, vector, message", [
    (24.0, ["1", "1", "1"], "not a numeric eigenvector: entries must be numbers, got strings"),
    (24.0, [2 ** 70, "1", 1], "not a numeric eigenvector: entries must be numbers, got strings"),
    ("24", [1.0, 1.0, 1.0], "not a numeric eigenvalue: entries must be numbers, got strings"),
    (6 + 1j, [1.0, 1.0, 1.0], "eigenvalue entries must be real, got complex entries"),
    (6, [1, None, 1], "not a numeric eigenvector: entries must be numbers, got null"),
    (None, [1.0, 1.0, 1.0], "not a numeric eigenvalue: entries must be numbers, got null"),
], ids=["string-vector", "string-beside-huge-int", "string-value", "complex-value",
        "null-entry", "null-value"])
def test_eigenpair_refuses_what_is_not_a_real_number(value, vector, message):
    """A library caller meets the gate the JSON problem format does: one
    InputError naming the field, never a conversion or a bare TypeError."""
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Eigenpair(value, vector)


def test_eigenpair_reads_a_boolean_as_a_number():
    assert Eigenpair(True, np.ones(3)).value == 1.0


def test_as_matrix_returns_float64_input_itself():
    m = np.arange(9.0).reshape(3, 3)
    assert as_matrix(m) is m
    ints = as_matrix(np.arange(9).reshape(3, 3))
    assert ints.dtype == np.float64
    np.testing.assert_array_equal(ints, m)


def test_eigenpair_rejects_zero_vector():
    with pytest.raises(InputError, match="^eigenvector must not be the zero vector$"):
        Eigenpair(1.0, np.zeros(3))


def test_eigenpair_vector_is_read_only():
    pair = Eigenpair(1.0, np.ones(3))
    with pytest.raises(ValueError):
        pair.vector[0] = 2.0


def test_residual_exact_pair_is_zero():
    assert check_eigenpair(cases.PERRON6_A, cases.PERRON6_PAIR) == 0.0


def test_residual_identity():
    assert check_eigenpair(np.eye(4), Eigenpair(1.0, np.ones(4))) == 0.0


def test_residual_wrong_eigenvalue():
    # residual vector is v itself, so r = max|v| / (1 + max|v|) = 2/3
    pair = Eigenpair(23.0, cases.PERRON6_PAIR.vector)
    assert check_eigenpair(cases.PERRON6_A, pair) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_residual_dimension_mismatch():
    with pytest.raises(InputError, match="^eigenvector length 4 does not match matrix size 3$"):
        check_eigenpair(np.eye(3), Eigenpair(1.0, np.ones(4)))


def test_residual_zero_iff_exact_on_integers():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.integers(-5, 6, size=(n, n)).astype(float)
        v = rng.integers(1, 5, size=n).astype(float)
        lam = float(rng.integers(-4, 5))
        exact = np.array_equal(a @ v, lam * v)
        assert (check_eigenpair(a, Eigenpair(lam, v)) == 0.0) == exact


@pytest.mark.parametrize("make", [
    lambda: Eigenpair(1.0, np.ones(3)),
    lambda: diag_similar(cases.PERRON6_A, cases.PERRON6_PAIR),
    lambda: desingularize(cases.SHEAR4_A, cases.SHEAR4_PAIR),
], ids=["Eigenpair", "SimilarityResult", "Desingularization"])
def test_records_holding_arrays_compare_by_identity(make):
    """A record that holds arrays compares and hashes by identity, as the
    region tables do: by value, ``==`` would ask an array for its truth."""
    first, second = make(), make()
    assert first != second and not first == second
    assert first == first and second == second
    assert hash(first) == hash(first) and hash(second) == hash(second)

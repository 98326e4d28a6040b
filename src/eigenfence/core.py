"""Dense matrix / eigenpair primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects (square, float64, finite);
:func:`as_matrix` is the single validation gate.  The known eigenpair is
carried by the small frozen :class:`Eigenpair`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Default residual tolerance accepted for a claimed eigenpair.
DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class EigenfenceError(Exception):
    """Base class for every error raised by this package."""


class InputError(EigenfenceError):
    """Bad input data (text, JSON, shapes, invalid eigenpair)."""


class ParseError(InputError):
    """Malformed matrix/problem text: bad numbers, ragged rows, empty input."""


class DimensionError(InputError):
    """Non-square matrix, or vector length disagreeing with the matrix."""


class InvalidEigenpairError(InputError):
    """The claimed (lambda, v) is not an eigenpair within tolerance."""


class ZeroComponentError(EigenfenceError):
    """Eigenvector has a (near-)zero component; desingularize first."""


class NoZeroError(EigenfenceError):
    """Desingularization requested but no component of v is zero."""


class SizeError(EigenfenceError):
    """Matrix dimension outside the supported range for this operation."""


class OddSizeError(SizeError):
    """Even-size-only operation called with odd n."""


class EvenSizeError(SizeError):
    """Odd-size-only operation called with even n."""


class NotConstantRowSumError(EigenfenceError):
    """Matrix rows do not share a common sum within tolerance."""


class ConvergenceError(EigenfenceError):
    """Eigenvalue iteration failed to converge within the retry budget."""


class ViewportError(EigenfenceError):
    """Degenerate (zero or negative extent) drawing viewport."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigenpair:
    """A known real eigenpair: eigenvalue ``value`` with eigenvector ``vector``."""

    value: float
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DimensionError("eigenvector must be a non-empty 1-D vector")
        if not np.all(np.isfinite(v)):
            raise InvalidEigenpairError("eigenvector has non-finite entries")
        if not np.isfinite(self.value):
            raise InvalidEigenpairError("eigenvalue is not finite")
        if not np.any(v != 0.0):
            raise InvalidEigenpairError("eigenvector must not be the zero vector")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "value", float(self.value))

    @property
    def n(self) -> int:
        return self.vector.size


def as_matrix(obj) -> np.ndarray:
    """Validate ``obj`` as a dense square real matrix and return a float64 copy.

    Raises DimensionError for non-square input and ParseError for
    non-finite entries.
    """
    try:
        a = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"not a numeric matrix: {exc}") from exc
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {a.ndim}-D data")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape[0]}x{a.shape[1]}")
    if a.size == 0:
        raise DimensionError("matrix must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ParseError("matrix entries must be finite (no NaN/inf)")
    return a


# ---------------------------------------------------------------------------
# Parsing / formatting
# ---------------------------------------------------------------------------

def parse_matrix(text: str) -> np.ndarray:
    """Parse a matrix from whitespace-separated text or a JSON problem file.

    Text form: one row per line, entries separated by whitespace.  If the
    input starts with ``{`` it is treated as the JSON problem format and
    only the matrix part is returned.
    """
    if not isinstance(text, str):
        text = text.read()
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty matrix input")
    if stripped.startswith("{"):
        matrix, _ = parse_problem(stripped)
        return matrix

    rows = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"ragged rows: row widths {sorted(widths)}")
    return as_matrix(rows)


def parse_problem(text: str) -> tuple[np.ndarray, Eigenpair | None]:
    """Parse the JSON problem format.

    Schema: ``{"matrix": [[...], ...], "eigenvalue": x, "eigenvector": [...]}``
    where the eigenpair fields are optional (but must appear together).
    """
    if not isinstance(text, str):
        text = text.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ParseError('problem JSON must be an object with a "matrix" key')
    matrix = as_matrix(doc["matrix"])

    has_val = "eigenvalue" in doc
    has_vec = "eigenvector" in doc
    if has_val != has_vec:
        raise ParseError('"eigenvalue" and "eigenvector" must be given together')
    if not has_val:
        return matrix, None
    try:
        pair = Eigenpair(float(doc["eigenvalue"]), np.asarray(doc["eigenvector"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad eigenpair data: {exc}") from exc
    if pair.n != matrix.shape[0]:
        raise DimensionError(
            f"eigenvector length {pair.n} does not match matrix size {matrix.shape[0]}")
    return matrix, pair


def format_matrix(matrix) -> str:
    """Render a matrix in the plain-text form accepted by :func:`parse_matrix`.

    Round-trips exactly: ``parse_matrix(format_matrix(M))`` reproduces M
    entry for entry (repr of a float is shortest-round-trip).
    """
    a = as_matrix(matrix)
    return "\n".join(" ".join(repr(x) for x in row) for row in a.tolist())


# ---------------------------------------------------------------------------
# Eigenpair validation
# ---------------------------------------------------------------------------

def check_eigenpair(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> float:
    """Scale-aware residual of a claimed eigenpair.

    Returns ``max_i |(Av - lambda v)_i| / (1 + max_i |v_i|)``.  The caller
    treats the pair as valid iff the residual is at most ``tol``.
    """
    a = as_matrix(matrix)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if pair.n != a.shape[0]:
        raise DimensionError(
            f"eigenvector length {pair.n} does not match matrix size {a.shape[0]}")
    v = pair.vector
    residual = np.abs(a @ v - pair.value * v).max()
    return float(residual / (1.0 + np.abs(v).max()))


def require_eigenpair(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> None:
    """Raise InvalidEigenpairError unless the pair passes :func:`check_eigenpair`."""
    residual = check_eigenpair(matrix, pair, tol)
    if residual > tol:
        raise InvalidEigenpairError(
            f"eigenpair residual {residual:.3e} exceeds tolerance {tol:.3e}")

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

#: Entries per block of the kernels that walk an n x n array a few rows at
#: a time (512 KiB of float64, so a block stays in cache): the odd-n scan
#: of :func:`~eigenfence.discs.split_columns`, the scratch block of
#: :func:`~eigenfence.discs.row_gaps` and the row-pair temporary of
#: :func:`~eigenfence.bounds.tau1`, whose float32 screen gives the same
#: bytes to a column tile, held twice, and to a group of offsets' maxima.
#: Region membership in :mod:`~eigenfence.geometry` takes the same bytes as
#: ``BLOCK_ENTRIES // 2`` complex point-primitive pairs per block, and so
#: do a raster's blocks of grid sections.  On
#: x86-64, over a 257^2 raster, 2^12 pairs ran 1024 discs 1.6x and
#: Ostrowski-Brauer ovals 2-3.5x slower (per-call overhead), and 2^16 ran
#: n = 64 ovals 2x slower in a fresh process (temporaries freshly paged in
#: for every block).  A single row (or point) is the smallest block.  Each
#: kernel reads it when called.
BLOCK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class EigenfenceError(Exception):
    """Base class for every error raised by this package."""


class InputError(EigenfenceError):
    """Bad input data (text, JSON, shapes, invalid eigenpair), or an
    eigenvector whose zero components do not suit the similarity asked for."""


class ParseError(InputError):
    """Malformed matrix/problem text: bad numbers, ragged rows, empty input."""


class DimensionError(InputError):
    """Non-square matrix, or vector length disagreeing with the matrix."""


class InvalidEigenpairError(InputError):
    """The claimed (lambda, v) is not an eigenpair within tolerance."""


class SizeError(EigenfenceError):
    """Matrix dimension outside the supported range for this operation,
    or of the wrong parity for a parity-specific refinement."""


class NotConstantRowSumError(EigenfenceError):
    """Matrix rows do not share a common sum within tolerance."""


class ConvergenceError(EigenfenceError):
    """The dense eigenvalue iteration failed to converge."""


class ViewportError(EigenfenceError):
    """Degenerate (zero or negative extent) drawing viewport."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Eigenpair:
    """A known real eigenpair: eigenvalue ``value`` with eigenvector ``vector``."""

    value: float
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector)
        if v.dtype.kind == "c":
            raise InvalidEigenpairError("eigenvector must be real, got complex entries")
        v = v.astype(float)
        if v.ndim != 1 or v.size == 0:
            raise DimensionError("eigenvector must be a non-empty 1-D vector")
        if not np.all(np.isfinite(v)):
            raise InvalidEigenpairError("eigenvector has non-finite entries")
        if not np.isfinite(self.value):
            raise InvalidEigenpairError("eigenvalue is not finite")
        if not np.any(v != 0.0):
            raise InvalidEigenpairError("eigenvector must not be the zero vector")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "value", float(self.value))

    @property
    def n(self) -> int:
        return self.vector.size


def as_matrix(obj) -> np.ndarray:
    """Validate ``obj`` as a dense square real matrix and return it as float64.

    A float64 ndarray comes back as itself, not a copy, so callers must
    not write into the result, and no function of this package does.
    Only a refinement keeps its matrix, as its ``B`` field next to its
    column offsets and B's split: a read-only one by reference (what
    :func:`~eigenfence.similarity.prepare` returns), so its owner must not
    make it writable again, and a writable one as a read-only copy.
    Raises DimensionError for non-square input and ParseError for string,
    complex or non-finite entries.
    """
    try:
        a = np.asarray(obj)
        if a.dtype.kind == "c":
            raise ParseError("matrix entries must be real, got complex entries")
        if a.dtype.kind in "US":   # astype would read "6" as 6.0
            raise ParseError("not a numeric matrix: entries must be numbers, got strings")
        a = a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:   # an int above the float range
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
# Parsing
# ---------------------------------------------------------------------------

def parse_matrix(text: str) -> np.ndarray:
    """Parse a matrix from whitespace-separated text or a JSON problem file.

    Text form: one row per line, entries separated by whitespace.  If the
    input starts with ``{`` it is treated as the JSON problem format and
    only the matrix part is returned.
    """
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ParseError('problem JSON must be an object with a "matrix" key')
    matrix = as_matrix(doc["matrix"])

    if ("eigenvalue" in doc) != ("eigenvector" in doc):
        raise ParseError('"eigenvalue" and "eigenvector" must be given together')
    if "eigenvalue" not in doc:
        return matrix, None
    field = "eigenvalue"   # the field being converted, named in the error
    try:
        # float() and astype would read "24" as 24.0
        if isinstance(doc[field], str):
            raise TypeError("must be a number, got a string")
        value, field = float(doc[field]), "eigenvector"
        vector = np.asarray(doc[field])
        if vector.dtype.kind in "US":
            raise TypeError("entries must be numbers, got strings")
        pair = Eigenpair(value, vector)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad eigenpair data: {field}: {exc}") from exc
    if pair.n != matrix.shape[0]:
        raise DimensionError(
            f"eigenvector length {pair.n} does not match matrix size {matrix.shape[0]}")
    return matrix, pair


# ---------------------------------------------------------------------------
# Eigenpair validation
# ---------------------------------------------------------------------------

def check_eigenpair(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> float:
    """Scale-aware residual of a claimed eigenpair.

    Returns ``max_i |(Av - lambda v)_i| / (1 + max_i |v_i|)``.  The caller
    treats the pair as valid iff the residual is at most ``tol``.  Raises
    InvalidEigenpairError when ``Av`` or ``lambda v`` overflows and so the
    residual is not finite: no tolerance could judge it (NaN compares
    false with every ``tol``).
    """
    return _residual(as_matrix(matrix), pair, tol)


def _residual(a: np.ndarray, pair: Eigenpair, tol: float) -> float:
    """:func:`check_eigenpair` of a matrix that :func:`as_matrix` returned,
    without a second pass over its entries."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if pair.n != a.shape[0]:
        raise DimensionError(
            f"eigenvector length {pair.n} does not match matrix size {a.shape[0]}")
    v = pair.vector
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.abs(a @ v - pair.value * v).max() / (1.0 + np.abs(v).max()))
    if not np.isfinite(residual):
        raise InvalidEigenpairError(
            "eigenpair residual is not finite: A v or lambda v overflows")
    return residual


def require_eigenpair(a: np.ndarray, pair: Eigenpair, tol: float = DEFAULT_TOL) -> None:
    """Raise InvalidEigenpairError unless the pair passes :func:`check_eigenpair`
    on ``a``, a matrix that :func:`as_matrix` returned."""
    residual = _residual(a, pair, tol)
    if residual > tol:
        raise InvalidEigenpairError(
            f"eigenpair residual {residual:.3e} exceeds tolerance {tol:.3e}")

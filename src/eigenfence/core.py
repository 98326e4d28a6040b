"""Dense matrix / eigenpair primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects (square, float64, finite).
Every number from outside passes one gate, which refuses strings, complex
numbers, JSON ``null``, ints above the float range, misshapen or empty data
and non-finite entries with an :class:`InputError` naming the field:
:func:`as_matrix` takes the matrix through it, and the small frozen
:class:`Eigenpair` its eigenvector and eigenvalue.  The package raises two
error classes: :class:`InputError` for bad input (the CLI's exit 2) and
its base :class:`EigenfenceError` for everything else (exit 1).
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
    """Base class for every error raised by this package: a computation
    that cannot go on (a matrix size outside an operation's range, B's row
    sums not constant, a failed eigenvalue iteration, a degenerate
    viewport).  The CLI exits 1 on it."""


class InputError(EigenfenceError):
    """Bad input data (text, JSON, numbers, shapes, an eigenpair that is
    not one within tolerance), or an eigenvector whose zero components do
    not suit the similarity asked for.  The CLI exits 2 on it."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Eigenpair:
    """A known real eigenpair: eigenvalue ``value`` with eigenvector ``vector``.

    Both pass the gate of every number from outside, the vector first:
    InputError names the field that is not real, finite and of the right
    shape, or the vector that is zero.  The pair keeps a read-only float64
    copy of the vector and the value as a float.
    """

    value: float
    vector: np.ndarray

    def __post_init__(self):
        v = _real(self.vector, "eigenvector", 1).copy()
        if not v.any():
            raise InputError("eigenvector must not be the zero vector")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "value", float(_real(self.value, "eigenvalue", 0)))

    @property
    def n(self) -> int:
        return self.vector.size


def _real(obj, what: str, ndim: int) -> np.ndarray:
    """``obj``, a value from outside named ``what`` in errors, as a float64
    array of ``ndim`` dimensions with at least one entry, every one finite;
    InputError otherwise.  A float64 array comes back as itself.

    Strings, complex numbers and JSON ``null`` are refused, not converted
    (astype would read "6" as 6.0, null as NaN and 6+1j as 6).  Only an
    object array (null, an int above the int64 range or a non-number) is
    looked at entry by entry, as its conversion already is.
    """
    try:
        a = np.asarray(obj)
        found = {type(x) for x in a.flat} if a.dtype == object else ()
        if a.dtype.kind in "US" or str in found:
            raise InputError(f"not a numeric {what}: entries must be numbers, got strings")
        if type(None) in found:
            raise InputError(f"not a numeric {what}: entries must be numbers, got null")
        if a.dtype.kind == "c":
            raise InputError(f"{what} entries must be real, got complex entries")
        a = a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:   # a ragged list, an int above the float range
        raise InputError(f"not a numeric {what}: {exc}") from exc
    if a.ndim != ndim:
        raise InputError(f"expected a {ndim}-D {what}, got {a.ndim}-D data")
    if a.size == 0:
        raise InputError(f"{what} must be non-empty")
    if not np.isfinite(a).all():
        raise InputError(f"{what} entries must be finite (no NaN/inf)")
    return a


def as_matrix(obj) -> np.ndarray:
    """Validate ``obj`` as a dense square real matrix and return it as float64.

    A float64 ndarray comes back as itself, not a copy, so callers must
    not write into the result, and no function of this package does.
    Only a refinement keeps its matrix, as its ``B`` field next to its
    column offsets and B's split: a read-only one by reference (what
    :func:`~eigenfence.similarity.prepare` returns), so its owner must not
    make it writable again, and a writable one as a read-only copy.
    Raises InputError for data that is not a non-empty 2-D array of finite
    real numbers, then for a matrix that is not square.
    """
    a = _real(obj, "matrix", 2)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"matrix must be square, got shape {a.shape[0]}x{a.shape[1]}")
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
        raise InputError("empty matrix input")
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
            raise InputError(f"line {lineno}: {exc}") from exc
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"ragged rows: row widths {sorted(widths)}")
    return as_matrix(rows)


def parse_problem(text: str) -> tuple[np.ndarray, Eigenpair | None]:
    """Parse the JSON problem format.

    Schema: ``{"matrix": [[...], ...], "eigenvalue": x, "eigenvector": [...]}``
    where the eigenpair fields are optional (but must appear together).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InputError('problem JSON must be an object with a "matrix" key')
    matrix = as_matrix(doc["matrix"])

    if ("eigenvalue" in doc) != ("eigenvector" in doc):
        raise InputError('"eigenvalue" and "eigenvector" must be given together')
    if "eigenvalue" not in doc:
        return matrix, None
    pair = Eigenpair(doc["eigenvalue"], doc["eigenvector"])
    if pair.n != matrix.shape[0]:
        raise InputError(
            f"eigenvector length {pair.n} does not match matrix size {matrix.shape[0]}")
    return matrix, pair


# ---------------------------------------------------------------------------
# Eigenpair validation
# ---------------------------------------------------------------------------

def check_eigenpair(matrix, pair: Eigenpair, tol: float = DEFAULT_TOL) -> float:
    """Scale-aware residual of a claimed eigenpair.

    Returns ``max_i |(Av - lambda v)_i| / (1 + max_i |v_i|)``.  The caller
    treats the pair as valid iff the residual is at most ``tol``.  Raises
    InputError when ``Av`` or ``lambda v`` overflows and so the residual
    is not finite: no tolerance could judge it (NaN compares false with
    every ``tol``).
    """
    return _residual(as_matrix(matrix), pair, tol)


def _residual(a: np.ndarray, pair: Eigenpair, tol: float) -> float:
    """:func:`check_eigenpair` of a matrix that :func:`as_matrix` returned,
    without a second pass over its entries."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if pair.n != a.shape[0]:
        raise InputError(
            f"eigenvector length {pair.n} does not match matrix size {a.shape[0]}")
    v = pair.vector
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.abs(a @ v - pair.value * v).max() / (1.0 + np.abs(v).max()))
    if not np.isfinite(residual):
        raise InputError("eigenpair residual is not finite: A v or lambda v overflows")
    return residual


def require_eigenpair(a: np.ndarray, pair: Eigenpair, tol: float = DEFAULT_TOL) -> None:
    """Raise InputError unless the pair passes :func:`check_eigenpair` on
    ``a``, a matrix that :func:`as_matrix` returned."""
    residual = _residual(a, pair, tol)
    if residual > tol:
        raise InputError(
            f"eigenpair residual {residual:.3e} exceeds tolerance {tol:.3e}")

"""Upper bounds on the largest remaining eigenvalue in absolute value.

All bounds act on a constant row-sum matrix B similar to A (or its
refinements F, G):

* disc bound: the reach ``max_i |b_ii| + r_i`` of the second-type disc
  union of B^T, read from the region itself;
* semi-norms ``tau_1`` (half the maximum L1 distance between rows) and
  ``tau_inf`` (the largest column top-half/bottom-half gap), both invariant
  under per-column constant shifts;
* powered bounds ``tau_p(B^k) ** (1/k)``, which tighten as k grows;
* a determinant bound ``|lambda| * tau_p(B^k) ** ((n-1)/k)``.

Costs: the disc bound of B and ``tau_inf`` each sort the columns once,
and the disc bounds of F and G share the one sort of B behind the
refinement, in ``O(n^2 log n)`` time and ``O(n^2)`` memory; ``tau1``
compares all row pairs in ``O(n^3)`` time over row blocks, so its memory
stays ``O(n^2)``; a powered bound adds ``k - 1`` matrix products,
``O(k n^3)`` time, and :func:`standard_reports` walks B, B^2, ... once
for all its powers.  The walk subtracts row 0 from B before the first
product, a column shift the semi-norms do not see, so no product forms
the ``lambda^k`` part; only rounding, about ``1e-16 lambda^k``, is left
to grow.  From B^2 on, each power is walked at unit scale, its exponent
kept apart, so no product overflows and a power-of-two scale of A passes
through exactly; k >= 2 refuses a B that unit scale would change (its
entries span more than the float range), and any bound above it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Eigenpair, as_matrix
from .discs import row_gaps, second_type_discs_of_transpose, sorted_columns
from .refine import refinement
from .similarity import SimilarityResult, prepare

#: Entries per row-pair temporary in :func:`tau1` (512 KiB of float64);
#: a single row against all others is the smallest block.
TAU1_BLOCK = 1 << 16

#: Byte alignment of the :func:`tau1` buffer: one cache line, so that no
#: vector store into it straddles two lines.
CACHE_LINE = 64


class SemiNorm(enum.Enum):
    """The two semi-norms with closed forms; ``f"tau{kind.value}"`` labels
    their reports."""

    L1 = "1"
    LINF = "inf"


@dataclass(frozen=True)
class BoundReport:
    """One named bound value with its provenance."""

    name: str
    value: float
    source: str
    k: int | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value, "source": self.source, "k": self.k}


def tau1(matrix) -> float:
    """Half the maximum L1 distance between any two rows.

    Each block of rows is compared with the rows at or below it (the
    distance is symmetric) in one buffer of about ``max(TAU1_BLOCK, n^2)``
    entries, reused by every block: a fresh temporary per block costs a
    page fault per 4 KiB whenever it lands above the allocator's mmap
    threshold.  The buffer starts on a cache line: ``malloc`` only
    promises 16 bytes, and with 64-byte vector stores a misaligned buffer
    made each ``tau1`` about 20% slower, at random from one process to
    the next.
    """
    m = as_matrix(matrix)
    n = m.shape[0]
    if n < 2:
        return 0.0
    rows = min(n, max(1, TAU1_BLOCK // (n * n)))
    size = rows * n * n
    raw = np.empty(size + CACHE_LINE // 8)
    start = -raw.ctypes.data % CACHE_LINE // 8
    buf = raw[start:start + size].reshape(rows, n, n)

    def block(i):
        d = buf[:min(rows, n - i), :n - i]
        np.subtract(m[i:i + rows, None, :], m[None, i:, :], out=d)
        return np.abs(d, out=d).sum(axis=2).max()

    return float(max(block(i) for i in range(0, n, rows)) / 2.0)


def tau_inf(matrix) -> float:
    """Largest column gap: the top-half sum minus the bottom-half sum of a
    column's n entries, diagonal included and no 0 inserted.  Equals the
    infinity semi-norm of a constant row-sum matrix."""
    m = as_matrix(matrix)
    if m.shape[0] < 2:
        return 0.0
    return float(row_gaps(sorted_columns(m)).max())


def _tau(matrix, kind: SemiNorm) -> float:
    return tau1(matrix) if kind is SemiNorm.L1 else tau_inf(matrix)


def _unit(p: np.ndarray, out=None):
    """``(P, s)`` with ``p = ldexp(P, s)`` and ``max|P|`` in [0.5, 1), or 0."""
    s = math.frexp(max(p.max(), -p.min()))[1]
    return np.ldexp(p, -s, out=out), s


def _power(matrix: np.ndarray, k: int):
    """Yield ``(M, 0)``, then ``(P, x)`` with ``ldexp(P, x)`` equal to
    ``M^j - e (row 0 of M^j)`` for j = 2..k: one product per step, one
    power held, and every P at unit scale, so no product overflows.  Row 0
    is subtracted once, from M, so no product forms the ``lambda^j`` part,
    and a remaining part far below it is not flushed.  An M that unit scale
    would change (an entry flushed) raises OverflowError."""
    yield matrix, 0
    if k < 2:
        return
    unit, shift = _unit(matrix)
    if shift > 0 and not np.array_equal(np.ldexp(unit, shift), matrix):
        raise OverflowError("powers of B: the entries of B span more than the float range")
    p, x = _unit(unit - unit[0])
    x += shift
    for _ in range(2, k + 1):
        p = p @ unit
        p, s = _unit(p, out=p)
        x += shift + s
        yield p, x


def _roots(matrix: np.ndarray, ks: set[int], kinds) -> dict:
    """``tau_kind(M^k) ** (1/k)`` per k in ``ks`` and kind, from one walk over
    powers: ``ldexp(t ** (1/k) * 2 ** (r/k), q)`` for ``t = tau_kind(P)`` and
    ``x = q k + r``, ``0 <= r < k``; inf only above the float range."""
    if min(ks, default=1) < 1:
        raise ValueError(f"power k must be >= 1, got {min(ks)}")
    roots = {}
    for k, (p, x) in enumerate(_power(matrix, max(ks)) if ks else (), start=1):
        if k in ks:
            q, r = divmod(x, k)
            roots |= {(k, kind): np.ldexp(_tau(p, kind) ** (1.0 / k) * 2.0 ** (r / k), q)
                      for kind in kinds}
    return roots


def standard_reports(matrix, pair: Eigenpair, ks: tuple[int, ...] = (1,),
                     kinds: tuple[SemiNorm, ...] = (SemiNorm.L1, SemiNorm.LINF),
                     include_det: bool = False,
                     tol: float = DEFAULT_TOL) -> list[BoundReport]:
    """Assemble the full set of bound reports for a problem.

    Covers the disc bounds of B and of the refinement matrices, the powered
    semi-norm bounds for the requested powers/kinds, and optionally the
    determinant bounds (at each requested k and at k = n-1).
    """
    return prepared_reports(prepare(matrix, pair, tol), ks, kinds, include_det)


@np.errstate(over="ignore", invalid="ignore")
def prepared_reports(sim: SimilarityResult, ks: tuple[int, ...] = (1,),
                     kinds: tuple[SemiNorm, ...] = (SemiNorm.L1, SemiNorm.LINF),
                     include_det: bool = False) -> list[BoundReport]:
    """:func:`standard_reports` of an already prepared B."""
    b = sim.B
    n = b.shape[0]
    reports = [BoundReport("m_B", second_type_discs_of_transpose(b).max_abs().value,
                           "second_type_discs(B)")]
    reach = {name: d.max_abs().value for name, d in refinement(b).discs.items()}
    reports += [BoundReport(f"m_{name}", value, f"second_type_discs({name})")
                for name, value in reach.items()]
    if len(reach) == 2:
        reports.append(BoundReport("m_FG", min(reach.values()),
                                   "min(second_type_discs(F), second_type_discs(G))"))
    det_ks = sorted(set(ks) | {n - 1}) if include_det else []
    roots = _roots(b, set(ks) | set(det_ks), kinds)
    rows = [(f"tau{kind.value}_k{k}", roots[k, kind], f"tau_{kind.value}(B^k)^(1/k)", k, "powered")
            for kind in kinds for k in ks]
    rows += [(f"det_tau{kind.value}_k{k}", abs(sim.row_sum) * roots[k, kind] ** (n - 1),
              f"|lambda| * tau_{kind.value}(B^k)^((n-1)/k)", k, "det")
             for kind in kinds for k in det_ks]
    for name, value, source, k, what in rows:
        if not math.isfinite(value):   # JSON has no inf
            raise OverflowError(f"{name}: the {what} bound at k = {k} is above the float range")
        reports.append(BoundReport(name, float(value), source, k=k))
    return reports

"""Upper bounds on the largest remaining eigenvalue in absolute value.

All bounds act on a constant row-sum matrix B similar to A (or its
refinements F, G):

* disc bound: ``max_i |b_ii| + r_i`` over the second-type discs of B^T;
* semi-norms ``tau_1`` (half the maximum L1 distance between rows) and
  ``tau_inf`` (the largest column top-half/bottom-half gap), both invariant
  under per-column constant shifts;
* powered bounds ``tau_p(B^k) ** (1/k)``, which tighten as k grows;
* a determinant bound ``|lambda| * tau_p(B^k) ** ((n-1)/k)``.

Costs: the disc bounds and ``tau_inf`` sort the columns once, in
``O(n^2 log n)`` time and ``O(n^2)`` memory; ``tau1`` compares all row
pairs in ``O(n^3)`` time over row blocks, so its memory stays ``O(n^2)``;
a powered bound adds ``k - 1`` matrix products, ``O(k n^3)`` time, and
:func:`standard_reports` walks B, B^2, ... once for all its powers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Eigenpair, SizeError, as_matrix
from .discs import constant_row_sum_similar, row_gaps, sorted_columns
from .refine import row_sum_constant

#: Entry magnitude above which matrix powering stops with OverflowError.
POWER_LIMIT = 1e300

#: Entries per row-pair temporary in :func:`tau1` (512 KiB of float64);
#: a single row against all others is the smallest block.
TAU1_BLOCK = 1 << 16


class SemiNorm(enum.Enum):
    """The two semi-norms with closed forms."""

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


def bound_from_discs(matrix) -> float:
    """``max_i |m_ii| + r_i`` with r_i the second-type radius of column i.

    Meaningful when M is a constant row-sum matrix (B, F or G); the value
    is the farthest reach from the origin of the second-type disc union.
    """
    m = as_matrix(matrix)
    n = m.shape[0]
    if n < 3:
        raise SizeError(f"disc bound needs n >= 3, got n = {n}")
    reach = np.abs(np.diagonal(m)) + row_gaps(sorted_columns(m, 0.0))
    return max(0.0, float(reach.max()))


def tau1(matrix) -> float:
    """Half the maximum L1 distance between any two rows.

    Each block of rows is compared with the rows at or below it (the
    distance is symmetric), so no temporary exceeds about
    ``max(TAU1_BLOCK, n^2)`` entries.
    """
    m = as_matrix(matrix)
    n = m.shape[0]
    if n < 2:
        return 0.0
    rows = max(1, TAU1_BLOCK // (n * n))
    best = max(np.abs(m[i:i + rows, None, :] - m[None, i:, :]).sum(axis=2).max()
               for i in range(0, n, rows))
    return float(best / 2.0)


def column_gap(matrix) -> np.ndarray:
    """Per-column statistic: sort all n entries descending, subtract the
    bottom block from the top block (middle skipped for odd n).  Unlike the
    second-type radius the diagonal entry participates and no 0 is inserted.
    """
    return row_gaps(sorted_columns(as_matrix(matrix)))


def tau_inf(matrix) -> float:
    """Largest column gap; equals the infinity semi-norm of a constant
    row-sum matrix."""
    m = as_matrix(matrix)
    if m.shape[0] < 2:
        return 0.0
    return float(column_gap(m).max())


def _tau(matrix, kind: SemiNorm) -> float:
    return tau1(matrix) if kind is SemiNorm.L1 else tau_inf(matrix)


def _power(matrix: np.ndarray, k: int):
    """Yield M, M^2, ..., M^k: one product per step, one power held."""
    p = matrix
    for step in range(k):
        if step:
            with np.errstate(over="ignore", invalid="ignore"):
                p = p @ matrix
        if not np.all(np.isfinite(p)) or np.abs(p).max() > POWER_LIMIT:
            raise OverflowError(f"matrix power exceeded {POWER_LIMIT:g}")
        yield p


def _taus(matrix: np.ndarray, ks: set[int], kinds) -> dict:
    """``tau_kind(M^k)`` per k in ``ks`` and kind, from one walk over powers."""
    if min(ks, default=1) < 1:
        raise ValueError(f"power k must be >= 1, got {min(ks)}")
    powers = _power(matrix, max(ks)) if ks else ()
    return {(k, kind): _tau(p, kind)
            for k, p in enumerate(powers, start=1) if k in ks for kind in kinds}


def _det(value: float, tau: float, n: int, k: int) -> float:
    return float(abs(value) * tau ** ((n - 1) / k))


def powered_bound(matrix, k: int, kind: SemiNorm) -> float:
    """``tau_kind(M^k) ** (1/k)`` for a constant row-sum matrix M."""
    m = as_matrix(matrix)
    row_sum_constant(m)
    return float(_taus(m, {k}, (kind,))[k, kind] ** (1.0 / k))


def det_bound(matrix, pair: Eigenpair, k: int, kind: SemiNorm,
              tol: float = DEFAULT_TOL) -> float:
    """Upper bound ``|lambda| * tau_kind(B^k) ** ((n-1)/k)`` on |det A|.

    B is the constant row-sum matrix similar to A (desingularized first
    when v has zero components); powering B directly is the same as
    conjugating A^k and avoids one similarity per power.
    """
    a = as_matrix(matrix)
    b = constant_row_sum_similar(a, pair, tol)
    return _det(pair.value, _taus(b, {k}, (kind,))[k, kind], a.shape[0], k)


def standard_reports(matrix, pair: Eigenpair, ks: tuple[int, ...] = (1,),
                     kinds: tuple[SemiNorm, ...] = (SemiNorm.L1, SemiNorm.LINF),
                     include_det: bool = False,
                     tol: float = DEFAULT_TOL) -> list[BoundReport]:
    """Assemble the full set of bound reports for a problem.

    Covers the disc bounds of B and of the refinement matrices, the powered
    semi-norm bounds for the requested powers/kinds, and optionally the
    determinant bounds (at each requested k and at k = n-1).
    """
    from .refine import refine_even, refine_odd

    a = as_matrix(matrix)
    b = constant_row_sum_similar(a, pair, tol)
    n = a.shape[0]
    reports = [BoundReport("m_B", bound_from_discs(b), "second_type_discs(B)")]
    if n % 2 == 0:
        f = refine_even(b).F
        reports.append(BoundReport("m_F", bound_from_discs(f), "second_type_discs(F)"))
    else:
        ref = refine_odd(b)
        m_f = bound_from_discs(ref.F)
        m_g = bound_from_discs(ref.G)
        reports.append(BoundReport("m_F", m_f, "second_type_discs(F)"))
        reports.append(BoundReport("m_G", m_g, "second_type_discs(G)"))
        reports.append(BoundReport("m_FG", min(m_f, m_g), "min(second_type_discs(F), second_type_discs(G))"))
    det_ks = sorted(set(ks) | {n - 1}) if include_det else []
    taus = _taus(b, set(ks) | set(det_ks), kinds)
    for kind in kinds:
        label = "tau1" if kind is SemiNorm.L1 else "tauinf"
        for k in ks:
            reports.append(BoundReport(
                f"{label}_k{k}", float(taus[k, kind] ** (1.0 / k)),
                f"tau_{kind.value}(B^k)^(1/k)", k=k))
    for kind in kinds:
        label = "tau1" if kind is SemiNorm.L1 else "tauinf"
        for k in det_ks:
            reports.append(BoundReport(
                f"det_{label}_k{k}", _det(pair.value, taus[k, kind], n, k),
                f"|lambda| * tau_{kind.value}(B^k)^((n-1)/k)", k=k))
    return reports

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

Costs: the disc bounds of B, F and G and ``tau_inf(B)`` share one split
of B's columns (:func:`~eigenfence.discs.split_columns`, diagonal last: a
sort below ``SPLIT_SELECT`` rows, from it on a one-kth selection, in
expected ``O(n^2)`` time with numpy 2.4 on AVX-512) in ``O(n^2)`` memory,
and ``tau_inf`` of each higher power splits that power.  From ``SPLIT_SELECT`` on, ``m_F`` and
``m_G`` come from B's split plus the shifts, whose halves may be in
another order than F's own split: they agree with the discs of F and G
within rounding, bit for bit only below it; ``tau1``
compares all row pairs in ``O(n^3)`` time and ``O(n^2)`` memory: below
``TAU1_SCREEN`` rows in float64, and from there on in float32, each row
against the row t further on (cyclically) for t up to n/2, as ``|a - b| =
2 max(a, b) - a - b``, so that a group of offsets over a tile of columns
costs one contiguous ``maximum`` and one product with a vector of ones,
and then in float64 only the pairs that float32 rounding cannot rule out
(one pair on random matrices, every pair when all tie); a powered bound
adds ``k - 1`` matrix products,
``O(k n^3)`` time, and :func:`standard_reports` walks B, B^2, ... once
for all its powers.  From B^2 on, the walk takes powers of D, B with
row 0 subtracted from every row: a column shift of B^k that the
semi-norms do not see, and ``D e = 0``, so no product forms the
``lambda^k`` part and the rounding along e is multiplied by 0 at every
step instead of growing like ``lambda^k``.  D and each power are walked
at unit scale, their exponents kept apart, so no product overflows and a
power-of-two scale of A passes through exactly; k >= 2 refuses a B that
unit scale would change (its entries span more than the float range),
and any bound above it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import DEFAULT_TOL, Eigenpair, as_matrix
from .discs import row_gaps, second_type_discs_of_transpose, split_columns
from .refine import refinement
from .similarity import SimilarityResult, prepare

#: Smallest n at which :func:`tau1` screens its row pairs in float32 before
#: summing the few that can hold the maximum in float64: from n = 32 on
#: the screen was no slower than summing every pair on x86-64, one BLAS
#: thread (the sweep is in ROADMAP item 6).
TAU1_SCREEN = 32

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


@np.errstate(over="ignore")
def tau1(matrix) -> float:
    """Half the maximum L1 distance between any two rows.

    Every float64 distance is one pair's ``np.abs(m[i] - m[j]).sum()``,
    numpy's pairwise sum over one contiguous row, taken for a block of
    rows against a range of rows at a time in one buffer of about
    ``max(2 core.BLOCK_ENTRIES, n^2)`` entries, reused by every block: a fresh
    temporary per block costs a page fault per 4 KiB whenever it lands
    above the allocator's mmap threshold.  The buffer starts on a cache
    line: ``malloc`` only promises 16 bytes, and with 64-byte vector
    stores a misaligned buffer made each ``tau1`` about 20% slower, at
    random from one process to the next.  A block with a sum that
    overflows is summed again at half scale (exact above the subnormals),
    so the value is inf only when the semi-norm itself is above the float
    range.

    Below ``TAU1_SCREEN`` rows every pair is summed in float64.  From
    there on a float32 screen in the same buffer finds the few pairs that
    can hold the maximum, and only those are summed in float64: the result
    is the max of the same float64 sums, so it is bit-identical to summing
    them all.

    *Screen.*  Row j is paired with row ``j + t mod n`` for t = 1..n//2,
    which covers every pair (for even n those at ``t = n/2`` twice).  Let
    ``u = m 2^-s`` with ``max|u|`` in [0.5, 1), ``S_i = sum_k |u_ik|`` and
    ``d_ij = sum_k |u_ik - u_jk| <= S_i + S_j``.  In float32 (unit roundoff
    ``e = 2^-24``) ``u`` rounds to ``v`` within ``e|u| + 2^-126`` per
    entry; the ``2^-126`` terms cover float32 subnormals, flushed to zero
    or not.  As ``|a - b| = 2 max(a, b) - a - b``, the rows of v are ``2
    M_ij - sigma_i - sigma_j`` apart, with ``M_ij = sum_k max(v_ik,
    v_jk)`` and ``sigma_i = sum_k v_ik``, and that is within ``e (S_i +
    S_j) + 2n 2^-126`` of ``d_ij``.  The screen sums the n terms of
    ``M_ij`` in float32 in some order, over column tiles and within each
    product with a vector of ones, so within ``gamma_(n-1) = (n-1)e / (1 -
    (n-1)e)`` of the sum of their absolute values, at most ``(1 + e)(S_i +
    S_j) + 2n 2^-126``, plus ``2^-126`` per partial sum (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., sections 2.2 and
    3.1).  For ``n <= 2^23 + 1``, which every n x n float64 matrix of at
    most 2^49 bytes meets, ``(n-1)e <= 1/2`` and so ``gamma_(n-1) <=
    2(n-1)e <= 1``.  Doubling the float32 sum doubles its error, so with
    exact sigma the screened distance is within
    ``((4n-3)e + 4(n-1)e^2)(S_i + S_j) + 8n 2^-126`` of ``d_ij``.  The
    float64 sum ``F_ij`` of the same pair is within ``gamma_n`` (unit
    roundoff ``2^-53``) of the exact distance at m's scale, as gradual
    underflow makes subnormal sums exact; at unit scale that is ``|F_ij
    2^-s - d_ij| <= 2^-29 (S_i + S_j) + n 2^-1073``, the last term for the
    rounding of ``u``.  Hence ``|D_ij - F_ij 2^-s| <= E_ij = (n+4) 2^-22
    (S_i + S_j) + n 2^-120`` for ``D_ij = 2 M_ij - sigma_i - sigma_j``
    formed in float64: as ``4(n-1)e^2 <= 2e``, ``E_ij`` exceeds the
    screen's bound by at least ``16e (S_i + S_j)``, which absorbs
    ``F_ij``'s error, sigma's float64 sums (within ``2^-29 (1 + e)(S_i +
    S_j) + n 2^-150``) and the float64 rounding of ``D_ij``, ``E_ij`` and
    of the test.

    *Certificate.*  The pair with the largest ``D_ij`` is summed in float64
    first, giving ``L``.  Every pair with ``F_ij >= L`` then has ``D_ij +
    E_ij >= F_ij 2^-s >= L 2^-s``, so summing in float64 only the pairs
    that pass ``D_ij + E_ij >= L 2^-s`` keeps every pair with the largest
    float64 sum.  (``L`` is twice the leader's half-sum: halving rounds
    only a sum below ``2^-1021``, a whole number of ``2^-1074``, and a
    pair whose half-sum is larger than the leader's has a sum at least
    twice the leader's half-sum.)  The survivors are marked in an n x n
    mask, and each block of rows is summed against the range of rows
    from its first to its last survivor, with no gather, so a tie of all
    pairs (equal rows, ``np.eye``) costs the screen plus the all-pairs
    loop.
    """
    m = as_matrix(matrix)
    n = m.shape[0]
    if n < 2:
        return 0.0
    block = core.BLOCK_ENTRIES
    rows = min(n, max(1, block // (n * n)))
    screen = n >= TAU1_SCREEN
    tiles = -(-n // max(1, block // n))
    width = -(-n // tiles)   # balanced tiles of at most block / n columns
    group = min(n // 2, max(1, 2 * block // (n * width)))
    line = CACHE_LINE // 4   # float32 entries per cache line
    at = -(-group * n * width // line) * line   # the doubled tile starts on a cache line too
    size = max(rows * n * n, (at + 2 * n * width) // 2 if screen else 0)
    raw = np.empty(size + CACHE_LINE // 8)
    buf = raw[-raw.ctypes.data % CACHE_LINE // 8:][:size]

    def far(i, j, lo, hi):
        """Half the largest float64 distance from rows i..j-1 to rows lo..hi-1."""
        d = buf[:(j - i) * (hi - lo) * n].reshape(j - i, hi - lo, n)
        np.subtract(m[i:j, None, :], m[None, lo:hi, :], out=d)
        sums = np.abs(d, out=d).sum(axis=2)
        top = sums.max()
        if top < np.inf:
            return top / 2.0
        np.subtract(m[i:j, None, :] / 2, m[None, lo:hi, :] / 2, out=d)
        return np.where(sums < np.inf, sums / 2.0, np.abs(d, out=d).sum(axis=2)).max()

    if not screen:
        return float(max(far(i, min(i + rows, n), i, n) for i in range(0, n, rows)))
    unit, s = _unit(m, out=buf[:n * n].reshape(n, n))
    v = unit.astype(np.float32)
    err = (n + 4) * 2.0 ** -22 * np.abs(unit, out=unit).sum(axis=1) + n * 2.0 ** -121
    err = np.concatenate((err, err))
    sums = v.sum(axis=1, dtype=np.float64)
    sums = np.concatenate((sums, sums))
    near = _screen(v, buf.view(np.float32), width, group, at)
    d = np.multiply(near, 2.0, out=buf[-near.size:].reshape(near.shape))   # clear of the leader's sum
    d -= sums[:n]
    d -= _windows(sums)
    lt, li = divmod(int(d.argmax()), n)
    lj = (li + lt + 1) % n
    best = far(li, li + 1, lj, lj + 1)
    d += err[:n]
    d += _windows(err)
    hit = d >= np.ldexp(best, 1 - s)
    hit[lt, [li, lj] if 2 * lt + 2 == n else li] = False   # summed already, with its twin at t = n/2
    if not hit.any():
        return float(best)
    pairs = np.zeros((n, 2 * n), dtype=bool)   # row j, column j + t
    np.copyto(np.ndarray(hit.shape, bool, pairs, 1, (1, 2 * n + 1)), hit)
    keep = pairs[:, :n] | pairs[:, n:].T   # rows (j, j + t), or (j + t - n, j) past the last row
    hit, starts = keep.any(axis=1), np.arange(0, n, rows)
    lo = np.minimum.reduceat(np.where(hit, keep.argmax(axis=1), n), starts)
    hi = np.maximum.reduceat(np.where(hit, n - keep[:, ::-1].argmax(axis=1), 0), starts)
    for b in np.flatnonzero(lo < hi):
        best = max(best, far(starts[b], min(starts[b] + rows, n), lo[b], hi[b]))
    return float(best)


def _windows(twice: np.ndarray) -> np.ndarray:
    """The ``(n//2, n)`` view whose row t - 1 is ``twice[t:t + n]``, of a
    vector of length n held twice: entry j + t mod n at row t - 1, column
    j, with no gather."""
    n = len(twice) // 2
    return np.ndarray((n // 2, n), twice.dtype, twice, twice.itemsize, twice.strides * 2)


def _screen(v: np.ndarray, buf: np.ndarray, width: int, group: int, at: int) -> np.ndarray:
    """The float32 ``(n//2, n)`` table of ``sum_k max(v_jk, v_(j+t mod n)k)``
    at row t - 1, column j.  Each tile of ``width`` columns is held twice,
    ``2n x w`` from ``buf[at:]``, so that rows ``j + t`` for all j are one
    contiguous window from row t, and ``group`` offsets at a time cost one
    ``maximum`` into ``buf`` and one matrix-vector product with a vector
    of ones."""
    n = len(v)
    h = n // 2
    near = np.zeros((h, n), dtype=np.float32)
    twice = buf[at:at + 2 * n * width]
    ones = np.ones(width, dtype=np.float32)
    for c in range(0, n, width):
        w = min(width, n - c)
        tile = twice[:2 * n * w].reshape(2 * n, w)
        np.copyto(tile[:n], v[:, c:c + w])
        np.copyto(tile[n:], tile[:n])
        flat = tile[:n].reshape(-1)
        for t in range(1, h + 1, group):
            g = min(group, h + 1 - t)
            window = np.ndarray((g, n * w), np.float32, twice, t * w * 4, (w * 4, 4))
            out = buf[:g * n * w].reshape(g, n * w)
            np.maximum(window, flat, out=out)
            near[t - 1:t - 1 + g] += (out.reshape(-1, w) @ ones[:w]).reshape(g, n)
    return near


def tau_inf(matrix, _desc=None) -> float:
    """Largest column gap: the top-half sum minus the bottom-half sum of a
    column's n entries, diagonal included and no 0 inserted.  Equals the
    infinity semi-norm of a constant row-sum matrix.  ``_desc`` is M's
    :func:`~eigenfence.discs.split_columns`, when the caller has it."""
    m = as_matrix(matrix)
    if m.shape[0] < 2:
        return 0.0
    return float(row_gaps(split_columns(m) if _desc is None else _desc, np.diagonal(m)).max())


def _unit(p: np.ndarray, out=None):
    """``(P, s)`` with ``p = ldexp(P, s)`` and ``max|P|`` in [0.5, 1), or 0."""
    s = math.frexp(max(p.max(), -p.min()))[1]
    return np.ldexp(p, -s, out=out), s


def _power(matrix: np.ndarray, k: int):
    """Yield ``(M, 0)``, then ``(P, x)`` with ``ldexp(P, x)`` equal to
    ``D^j`` for j = 2..k, where ``D = M - e (row 0 of M)``: one product by
    D per step, one power held, and D and every P at unit scale, their
    exponents kept apart, so no product overflows.  When ``M e = lambda
    e``, ``D^j = M^j - e (row 0 of M^j)``, a column shift of ``M^j``
    that neither semi-norm sees, and ``D e = 0``: each product multiplies
    the rounding along e by 0, not by lambda, so P follows the remaining
    spectrum.  An M that unit scale would change (an entry flushed) raises
    OverflowError."""
    yield matrix, 0
    if k < 2:
        return
    unit, shift = _unit(matrix)
    if shift > 0 and not np.array_equal(np.ldexp(unit, shift), matrix):
        raise OverflowError("powers of B: the entries of B span more than the float range")
    unit -= unit[0].copy()
    d, shift_d = _unit(unit, out=unit)
    shift_d += shift
    p, x = d, shift_d
    for _ in range(2, k + 1):
        p = p @ d
        p, s = _unit(p, out=p)
        x += shift_d + s
        yield p, x


def _roots(matrix: np.ndarray, ks: set[int], kinds, known: dict) -> dict:
    """``tau_kind(M^k) ** (1/k)`` per k in ``ks`` and kind, from one walk over
    powers: ``ldexp(t ** (1/k) * 2 ** (r/k), q)`` for ``t = tau_kind(P)`` and
    ``x = q k + r``, ``0 <= r < k``; inf only above the float range.  The
    roots in ``known``, by ``(k, kind)``, are the caller's and not computed."""
    if min(ks, default=1) < 1:
        raise ValueError(f"power k must be >= 1, got {min(ks)}")
    roots = dict(known)
    for k, (p, x) in enumerate(_power(matrix, max(ks)) if ks else (), start=1):
        if k in ks:
            q, r = divmod(x, k)
            roots |= {(k, kind): np.ldexp(
                (tau1(p) if kind is SemiNorm.L1 else tau_inf(p)) ** (1.0 / k) * 2.0 ** (r / k), q)
                for kind in kinds if (k, kind) not in roots}
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
    desc = split_columns(b)
    reports = [BoundReport("m_B", second_type_discs_of_transpose(b, desc).max_abs().value,
                           "second_type_discs(B)")]
    reach = {name: d.max_abs().value for name, d in refinement(b, desc).discs.items()}
    reports += [BoundReport(f"m_{name}", value, f"second_type_discs({name})")
                for name, value in reach.items()]
    if len(reach) == 2:
        reports.append(BoundReport("m_FG", min(reach.values()),
                                   "min(second_type_discs(F), second_type_discs(G))"))
    known = {(1, SemiNorm.LINF): np.float64(tau_inf(b, desc))} if SemiNorm.LINF in kinds else {}
    del desc   # the power walk does not hold B's split: lower peak memory
    det_ks = sorted(set(ks) | {n - 1}) if include_det else []
    roots = _roots(b, set(ks) | set(det_ks), kinds, known)
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

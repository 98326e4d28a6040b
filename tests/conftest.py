import itertools
import sys
from pathlib import Path

import numpy as np

from eigenfence import DEFAULT_TOL, Eigenpair, standard_reports

sys.path.insert(0, str(Path(__file__).parent))


def pytest_runtest_logreport(report):
    """One pass/fail line per acceptance check."""
    if "test_acceptance" not in report.nodeid or report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
    sys.stdout.write(f"[acceptance] {name}: {status}\n")


# ---------------------------------------------------------------------------
# independent oracles shared by several test modules
# ---------------------------------------------------------------------------

def tau_vertex_oracle(matrix, p) -> float:
    """Semi-norm max ||M^T x||_p over {x : ||x||_p = 1, sum(x) = 0}, by
    enumerating the extreme points of the feasible set.

    p = 1: extreme points are (e_i - e_j) / 2.
    p = inf: all +-1 patterns balanced to sum 0 (one coordinate 0 if n odd).
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    best = 0.0
    if p == 1:
        for i, j in itertools.combinations(range(n), 2):
            x = np.zeros(n)
            x[i], x[j] = 0.5, -0.5
            best = max(best, float(np.abs(m.T @ x).sum()))
        return best
    if n % 2 == 0:
        for chosen in itertools.combinations(range(n), n // 2):
            x = -np.ones(n)
            x[list(chosen)] = 1.0
            best = max(best, float(np.abs(m.T @ x).max()))
        return best
    for zero_at in range(n):
        rest = [i for i in range(n) if i != zero_at]
        for chosen in itertools.combinations(rest, (n - 1) // 2):
            x = np.zeros(n)
            x[rest] = -1.0
            x[list(chosen)] = 1.0
            best = max(best, float(np.abs(m.T @ x).max()))
    return best


def random_row_sum_matrix(rng, n, row_sum=None, lo=-9, hi=9):
    """Integer-valued matrix whose rows all sum to the same integer, exactly."""
    if row_sum is None:
        row_sum = int(rng.integers(-20, 21))
    m = rng.integers(lo, hi + 1, size=(n, n)).astype(float)
    m[:, -1] = row_sum - m[:, :-1].sum(axis=1)
    return m, float(row_sum)


# ---------------------------------------------------------------------------
# single bound values, read from the one report builder
# ---------------------------------------------------------------------------

def row_sum_reports(matrix, **options) -> dict:
    """``standard_reports`` values by name for a constant row-sum matrix M.

    M has the eigenpair (row sum, ones), on which ``prepare`` returns M
    itself, so every row is a bound of M: ``m_B`` its disc bound and
    ``tau*_k*`` its powered bounds.
    """
    m = np.asarray(matrix, dtype=float)
    pair = Eigenpair(float(m.sum(axis=1).mean()), np.ones(len(m)))
    return {r.name: r.value for r in standard_reports(m, pair, **options)}


def powered(matrix, k, kind) -> float:
    """``tau_kind(M^k) ** (1/k)`` for a constant row-sum matrix M."""
    return row_sum_reports(matrix, ks=(k,), kinds=(kind,))[f"tau{kind.value}_k{k}"]


def det_report(matrix, pair, k, kind, tol=DEFAULT_TOL) -> float:
    """The ``det_tau*_k*`` report of ``(A, pair)``: ``|lambda| tau_kind(B^k) ** ((n-1)/k)``."""
    reports = standard_reports(matrix, pair, ks=(k,), kinds=(kind,), include_det=True, tol=tol)
    return next(r.value for r in reports if r.name == f"det_tau{kind.value}_k{k}")

"""Worked problems shared across the test suite.

Every expected matrix, disc list and bound below was reproduced by hand
from the defining formulas and cross-checked against the dense solver and
the brute-force semi-norm oracle before being frozen here.
"""

import numpy as np

from eigenfence import Eigenpair


def second_type_radius(values) -> float:
    """Second-type radius of one column's n-1 off-diagonal entries, the
    reference for the whole-matrix kernel: append the mandated 0, sort in
    non-increasing order and subtract the bottom-half sum from the top-half
    sum, skipping the middle entry when the count is odd."""
    desc = np.sort(np.append(np.asarray(values, dtype=float), 0.0))[::-1]
    half = desc.size // 2
    return float(desc[:half].sum() - desc[half + desc.size % 2:].sum())

# -- 6x6 nonnegative irreducible, known Perron pair -------------------------

PERRON6_A = np.array([
    [10, 4, 8, 4, 6, 6],
    [2, 6, 6, 2, 4, 2],
    [1, 4, 8, 4, 2, 4],
    [0, 6, 8, 4, 0, 6],
    [4, 4, 6, 0, 2, 4],
    [1, 4, 6, 2, 4, 6]], dtype=float)

PERRON6_PAIR = Eigenpair(24.0, np.array([2, 1, 1, 1, 1, 1], dtype=float))

PERRON6_B = np.array([
    [10, 2, 4, 2, 3, 3],
    [4, 6, 6, 2, 4, 2],
    [2, 4, 8, 4, 2, 4],
    [0, 6, 8, 4, 0, 6],
    [8, 4, 6, 0, 2, 4],
    [2, 4, 6, 2, 4, 6]], dtype=float)

PERRON6_SECOND_DISCS = [(10, 12), (6, 8), (8, 10), (4, 6), (2, 9), (6, 9)]
PERRON6_CLASSIC_COLS = [(10, 8), (6, 22), (8, 34), (4, 12), (2, 16), (6, 22)]
PERRON6_CLASSIC_ROWS = [(10, 28), (6, 16), (8, 15), (4, 20), (2, 18), (6, 17)]

# non-Perron eigenvalues, rounded to two decimals
PERRON6_OTHERS = [7.76, -3.05, complex(2.65, 1.34), complex(2.65, -1.34), 2.0]

PERRON6_F = np.array([
    [8, -2, -2, 0, 0, -1],
    [2, 2, 0, 0, 1, -2],
    [0, 0, 2, 2, -1, 0],
    [-2, 2, 2, 2, -3, 2],
    [6, 0, 0, -2, -1, 0],
    [0, 0, 0, 0, 1, 2]], dtype=float)

PERRON6_F_DISCS = [(8, 10), (2, 4), (2, 4), (2, 4), (-1, 6), (2, 5)]

# -- singular 6x6 with a sign-mixed eigenvector ------------------------------

SINGULAR6_A = np.array([
    [-2, 4, 2, 0, -2, 2],
    [-2, 2, 2, -2, 0, -2],
    [-4, 2, 4, 0, -2, 0],
    [-4, 10, 6, -4, -16, -12],
    [0, 4, 8, -4, -6, -2],
    [-8, 2, 2, -2, 0, -8]], dtype=float)

SINGULAR6_PAIR = Eigenpair(0.0, np.array([1, 1, 1, 2, 1, -1], dtype=float))

SINGULAR6_B = np.array([
    [-2, 4, 2, 0, -2, -2],
    [-2, 2, 2, -4, 0, 2],
    [-4, 2, 4, 0, -2, 0],
    [-2, 5, 3, -4, -8, 6],
    [0, 4, 8, -8, -6, 2],
    [8, -2, -2, 4, 0, -8]], dtype=float)

SINGULAR6_SECOND_DISCS = [(-2, 16), (2, 13), (4, 13), (-4, 16), (-6, 12), (-8, 12)]
SINGULAR6_CLASSIC_COLS = [(-2, 18), (2, 22), (4, 20), (-4, 8), (-6, 20), (-8, 18)]

# -- 3x3 where the second-type region is NOT inside the classic one ----------

STRETCH3_A = np.array([[9, 1, 1], [0, 5, 5], [4, 1, 1]], dtype=float)
STRETCH3_PAIR = Eigenpair(10.0, np.array([2, 1, 1], dtype=float))
STRETCH3_B = np.array([[9, 0.5, 0.5], [0, 5, 5], [8, 1, 1]], dtype=float)

# -- 7x7 odd-size refinement --------------------------------------------------

PERRON7_A = np.array([
    [2, 3, 6, 9, 6, 6, 6],
    [2, 2, 4, 0, 4, 6, 6],
    [0, 1, 3, 2, 4, 2, 2],
    [2, 1, 2, 0, 2, 1, 2],
    [1, 2, 1, 3, 0, 3, 1],
    [2, 0, 1, 3, 1, 4, 0],
    [0, 3, 3, 2, 1, 2, 1]], dtype=float)

PERRON7_PAIR = Eigenpair(15.0, np.array([3, 2, 1, 1, 1, 1, 1], dtype=float))

PERRON7_B = np.array([
    [2, 2, 2, 3, 2, 2, 2],
    [3, 2, 2, 0, 2, 3, 3],
    [0, 2, 3, 2, 4, 2, 2],
    [6, 2, 2, 0, 2, 1, 2],
    [3, 4, 1, 3, 0, 3, 1],
    [6, 0, 1, 3, 1, 4, 0],
    [0, 6, 3, 2, 1, 2, 1]], dtype=float)

# order-statistic shifts: F takes the negated 3rd largest per column,
# G the negated 4th; they differ only in column 4 here (shifts -3 vs -2)
PERRON7_F = np.array([
    [-1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -3, 0, 1, 1],
    [-3, 0, 1, -1, 2, 0, 0],
    [3, 0, 0, -3, 0, -1, 0],
    [0, 2, -1, 0, -2, 1, -1],
    [3, -2, -1, 0, -1, 2, -2],
    [-3, 4, 1, -1, -1, 0, -1]], dtype=float)

PERRON7_G = np.array([
    [-1, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, -2, 0, 1, 1],
    [-3, 0, 1, 0, 2, 0, 0],
    [3, 0, 0, -2, 0, -1, 0],
    [0, 2, -1, 1, -2, 1, -1],
    [3, -2, -1, 1, -1, 2, -2],
    [-3, 4, 1, 0, -1, 0, -1]], dtype=float)

# hull disc of the refined region for this problem
PERRON7_HULL_DISC = (2.0, 15.0)

# -- 4x4 with zero components in the eigenvector ------------------------------

SHEAR4_A = np.array([
    [7, -10, -2, 2],
    [5, -8, -2, 2],
    [-5, 12, 4, -4],
    [-1, 4, 1, -1]], dtype=float)

SHEAR4_PAIR = Eigenpair(0.0, np.array([0, 0, 1, 1], dtype=float))

SHEAR4_C = np.array([
    [2, 2, -2, -2],
    [0, 4, -2, -2],
    [-5, 12, -3, -4],
    [-1, 4, -2, -1]], dtype=float)

SHEAR4_F = np.array([
    [3, -2, 0, 0],
    [1, 0, 0, 0],
    [-4, 8, -1, -2],
    [0, 0, 0, 1]], dtype=float)

SHEAR4_EIGS = [-1.0, 0.0, 1.0, 2.0]

# -- 3x3 pair used for the Cassini comparisons --------------------------------

CHAIN3_A = np.array([[0, 1, 0], [2, 5, 4], [0, 3, 0]], dtype=float)
CHAIN3_PAIR = Eigenpair(7.0, np.array([1, 7, 3], dtype=float))
CHAIN3_OTHERS = [0.0, -2.0]

# degenerate shifted matrix whose Ostrowski-Brauer set collapses to two points
CHAIN3_DEGENERATE = np.array([
    [0, 0, 0],
    [2 / 7, -2, 12 / 7],
    [0, 0, 0]], dtype=float)

ROWSUM3_A = np.array([[12, 6, 6], [3, 3, 18], [8, 8, 8]], dtype=float)
ROWSUM3_PAIR = Eigenpair(24.0, np.ones(3))
ROWSUM3_OTHERS = [-6.0, 5.0]

ROWSUM3_F = np.array([[4, -2, -12], [-5, -5, 0], [0, 0, -10]], dtype=float)
ROWSUM3_G = np.array([[9, 0, 0], [0, -3, 12], [5, 2, 2]], dtype=float)

# -- 4x4 bound example ---------------------------------------------------------

PERRON4_A = np.array([
    [4, 3, 4, 6],
    [8, 4, 8, 16],
    [16, 8, 2, 12],
    [6, 3, 4, 4]], dtype=float)

PERRON4_PAIR = Eigenpair(24.0, np.array([1, 2, 2, 1], dtype=float))

PERRON4_B = np.array([
    [4, 6, 8, 6],
    [4, 4, 8, 8],
    [8, 8, 2, 6],
    [6, 6, 8, 4]], dtype=float)

PERRON4_F = np.array([
    [-2, 0, 0, 0],
    [-2, -2, 0, 2],
    [2, 2, -6, 0],
    [0, 0, 0, -2]], dtype=float)

PERRON4_OTHERS = [-6.0, -2.0, -2.0]
PERRON4_DET = -576.0

# -- 7x7 negative-diagonal singular example ------------------------------------

NEG7_A = np.array([
    [-18, 3, 2, 0, 3, 0, 0],
    [12, -18, 0, 12, 0, 0, 12],
    [18, 0, -24, 18, 0, 9, 18],
    [0, 3, 2, -24, 3, 3, 0],
    [12, 0, 0, 12, -18, 6, 0],
    [0, 0, 4, 12, 6, -24, 12],
    [0, 3, 2, 0, 0, 3, -18]], dtype=float)

NEG7_PAIR = Eigenpair(0.0, np.array([1, 2, 3, 1, 2, 2, 1], dtype=float))

NEG7_B = np.array([
    [-18, 6, 6, 0, 6, 0, 0],
    [6, -18, 0, 6, 0, 0, 6],
    [6, 0, -24, 6, 0, 6, 6],
    [0, 6, 6, -24, 6, 6, 0],
    [6, 0, 0, 6, -18, 6, 0],
    [0, 0, 6, 6, 6, -24, 6],
    [0, 6, 6, 0, 0, 6, -18]], dtype=float)

NEG7_OTHERS = [-37.29, -32.49, -24.0, -20.76, -15.51, -13.95]

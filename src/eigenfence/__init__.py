"""eigenfence: fence in the remaining eigenvalues of a real matrix.

Given one known real eigenpair (lambda, v) of an n x n real matrix A, this
package computes inclusion regions for every other eigenvalue (second-type
Gershgorin discs of a similar constant row-sum matrix, column-shift
refinements, Ostrowski-Brauer ovals) and upper bounds on the largest
remaining eigenvalue in absolute value, without ever running an
eigensolver.  A deterministic SVG renderer draws the regions; a quarantined
dense-solver oracle exists only for verification and the ``eig`` command.
"""

from .core import (
    DEFAULT_TOL,
    ConvergenceError,
    DimensionError,
    EigenfenceError,
    Eigenpair,
    EvenSizeError,
    InputError,
    InvalidEigenpairError,
    NoZeroError,
    NotConstantRowSumError,
    OddSizeError,
    ParseError,
    SizeError,
    ViewportError,
    ZeroComponentError,
    as_matrix,
    check_eigenpair,
    format_matrix,
    parse_matrix,
    parse_problem,
)
from .similarity import (
    Desingularization,
    SimilarityResult,
    desingularize,
    diag_similar,
    eigenpair_region,
    prepare,
)
from .discs import (
    DiscUnion,
    classic_discs,
    second_type_discs_of_transpose,
    second_type_radius,
)
from .refine import (
    EvenRefinement,
    OddRefinement,
    PairIntersectionUnion,
    refine_even,
    refine_odd,
    refined_region,
    refined_region_odd,
    refinement,
)
from .cassini import CassiniUnion, cassini_intersection_region, obr_intersection, obr_set
from .bounds import (
    BoundReport,
    SemiNorm,
    bound_from_discs,
    det_bound,
    powered_bound,
    standard_reports,
    tau1,
    tau_inf,
)
from .geometry import (
    MaxAbs,
    RegionIntersection,
    SubsetCheck,
    contains,
    max_abs,
    region_from_json,
    region_to_json,
    sampled_subset,
)
from .render import BLACK, BLUE, GRAY, TURQUOISE, YELLOW, Scene, render_svg
from .oracle import Spectrum, determinant, eigenvalues, nontrivial_values

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

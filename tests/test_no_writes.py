"""No public entry point writes into its input matrix.

:func:`~eigenfence.core.as_matrix` hands a float64 array on without a
copy, so every function that validates with it must only read.  The
inputs here are read-only, so a write raises; their bytes are compared
too.
"""

import numpy as np
import pytest

import cases
from eigenfence import (
    bounds,
    cassini,
    check_eigenpair,
    classic_discs,
    desingularize,
    diag_similar,
    prepare,
    refined_region,
    refinement,
    second_type_discs_of_transpose,
)
from eigenfence.discs import split_columns


def frozen(m):
    m = np.array(m, dtype=float)
    m.setflags(write=False)
    return m


PROBLEMS = {"diag": (cases.PERRON7_A, cases.PERRON7_PAIR),
            "shear": (cases.SHEAR4_A, cases.SHEAR4_PAIR)}

ON_A = {
    "prepare": prepare,
    "diag_similar": diag_similar,
    "desingularize": desingularize,
    "classic_discs": lambda a, pair: (classic_discs(a, "rows"), classic_discs(a, "columns")),
    "tau1": lambda a, pair: bounds.tau1(a),
    "tau_inf": lambda a, pair: bounds.tau_inf(a),
    "standard_reports": lambda a, pair: bounds.standard_reports(a, pair, ks=(1, 2),
                                                                include_det=True),
    "det_report": lambda a, pair: bounds.standard_reports(
        a, pair, ks=(2,), kinds=(bounds.SemiNorm.LINF,), include_det=True),
    "check_eigenpair": check_eigenpair,
}

#: entry points that accept only one of the two problems
ONLY = {"diag_similar": "diag", "desingularize": "shear"}

ON_B = {
    "second_type_discs_of_transpose": second_type_discs_of_transpose,
    "refinement": lambda b: refinement(b).region(),
    "refined_region": refined_region,
    "obr_intersection": cassini.obr_intersection,
    "tau1": bounds.tau1,
    "tau_inf": bounds.tau_inf,
}


@pytest.mark.parametrize("name, problem", [(name, problem) for name in ON_A for problem in PROBLEMS
                                           if ONLY.get(name, problem) == problem])
def test_entry_points_leave_a_unchanged(name, problem):
    a, pair = PROBLEMS[problem]
    a = frozen(a)
    before = a.tobytes()
    ON_A[name](a, pair)
    assert a.tobytes() == before


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("name", ON_B)
def test_entry_points_leave_b_unchanged(name, problem):
    b = frozen(prepare(*PROBLEMS[problem]).B)
    before = b.tobytes()
    ON_B[name](b)
    assert b.tobytes() == before


@pytest.mark.parametrize("problem", PROBLEMS)
def test_a_split_refuses_writes(problem):
    b = frozen(prepare(*PROBLEMS[problem]).B)
    for split in (split_columns(b), refinement(b).split):
        with pytest.raises(ValueError):
            split[:] = 0.0


def test_a_refinement_reads_the_split_it_was_built_from():
    """The refined discs are read on first use, from the refinement's split,
    which nothing can zero before that (column 0 would get radius 2)."""
    ref = refinement(cases.PERRON6_B)
    with pytest.raises(ValueError):
        ref.split[:] = 0.0
    assert ref.region().discs[0, 1] == 10.0


@pytest.mark.parametrize("problem", PROBLEMS)
def test_entry_points_leave_a_shared_split_unchanged(problem):
    b = frozen(prepare(*PROBLEMS[problem]).B)
    split = split_columns(b)
    split.setflags(write=False)
    before = split.tobytes()
    second_type_discs_of_transpose(b, split)
    bounds.tau_inf(b, split)
    refinement(b, split).region()
    assert split.tobytes() == before

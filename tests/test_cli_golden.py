"""The CLI's output on the demo problems, pinned.

``tests/golden/cli/<problem>.<command>.json`` holds the stdout of each
command below.  Regenerate after an intentional change by writing
``capsys.readouterr().out`` of each run to its file.
"""

import json
import math
from pathlib import Path

import pytest

from eigenfence.cli import main

ROOT = Path(__file__).parent.parent
PROBLEMS = sorted((ROOT / "demos" / "problems").glob("*.json"))
GOLDEN = Path(__file__).parent / "golden" / "cli"
NOTE = "note: eigenvector has 2 zero component(s); continuing on the desingularized similar matrix\n"

# byte for byte: no BLAS call on these paths
EXACT = {"locate": ["--classic"], "refine": [], "obr": []}
# through BLAS (A v and the matrix powers): values to a relative 1e-12
CLOSE = {"validate": [], "bound": ["--k", "3", "--det"]}


def run(capsys, problem, command, options):
    code = main([command, str(problem), *options])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert out.err == (NOTE if problem.stem == "shear4" and command != "validate" else "")
    return out.out


def golden(problem, command) -> str:
    return (GOLDEN / f"{problem.stem}.{command}.json").read_text(encoding="utf-8")


def assert_close(got, want):
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w)
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12)
    else:
        assert got == want


def test_every_demo_problem_is_pinned():
    assert len(PROBLEMS) == 6
    want = {f"{p.stem}.{c}.json" for p in PROBLEMS for c in (*EXACT, *CLOSE)}
    assert {p.name for p in GOLDEN.glob("*.json")} == want


@pytest.mark.parametrize("command", sorted(EXACT))
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.stem)
def test_stdout_matches_golden(capsys, problem, command):
    assert run(capsys, problem, command, EXACT[command]) == golden(problem, command)


@pytest.mark.parametrize("command", sorted(CLOSE))
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.stem)
def test_values_match_golden(capsys, problem, command):
    got = json.loads(run(capsys, problem, command, CLOSE[command]))
    assert_close(got, json.loads(golden(problem, command)))

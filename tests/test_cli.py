import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import cases
from eigenfence import (
    DEFAULT_TOL,
    Eigenpair,
    InputError,
    SemiNorm,
    cassini_intersection_region,
    check_eigenpair,
    classic_discs,
    cli,
    geometry,
    prepare,
    refinement,
    second_type_discs_of_transpose,
    standard_reports,
)
from eigenfence.cli import main

PROBLEMS = sorted((Path(__file__).parent.parent / "demos" / "problems").glob("*.json"))


def write_problem(path, matrix, pair=None):
    doc = {"matrix": np.asarray(matrix).tolist()}
    if pair is not None:
        doc["eigenvalue"] = pair.value
        doc["eigenvector"] = pair.vector.tolist()
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def perron6(tmp_path):
    return write_problem(tmp_path / "p6.json", cases.PERRON6_A, cases.PERRON6_PAIR)


@pytest.fixture
def perron4(tmp_path):
    return write_problem(tmp_path / "p4.json", cases.PERRON4_A, cases.PERRON4_PAIR)


@pytest.fixture
def rowsum3(tmp_path):
    return write_problem(tmp_path / "r3.json", cases.ROWSUM3_A, cases.ROWSUM3_PAIR)


@pytest.fixture
def shear4(tmp_path):
    return write_problem(tmp_path / "s4.json", cases.SHEAR4_A, cases.SHEAR4_PAIR)


def test_locate_disc_list(perron6, capsys):
    assert main(["locate", perron6]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "disc_union"
    got = [(d["center"], d["radius"]) for d in doc["discs"]]
    assert got == cases.PERRON6_SECOND_DISCS


def test_locate_with_classic(perron6, capsys):
    assert main(["locate", perron6, "--classic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"second_type", "classic_columns", "classic_rows"}
    cols = [(d["center"], d["radius"]) for d in doc["classic_columns"]["discs"]]
    assert cols == cases.PERRON6_CLASSIC_COLS


def test_locate_requires_eigenpair(tmp_path, capsys):
    path = write_problem(tmp_path / "bare.json", cases.PERRON6_A)
    assert main(["locate", path]) == 2
    assert "eig" in capsys.readouterr().err


def test_locate_deterministic(perron6, capsys):
    main(["locate", perron6])
    first = capsys.readouterr().out
    main(["locate", perron6])
    assert capsys.readouterr().out == first


def test_locate_output_round_trips(perron6, capsys):
    from eigenfence import region_from_json

    main(["locate", perron6])
    region = region_from_json(json.loads(capsys.readouterr().out))
    assert region.contains_points(7.76)
    assert not region.contains_points(24.0)


def test_refine_even(perron6, capsys):
    assert main(["refine", perron6]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_array_equal(np.array(doc["F"]), cases.PERRON6_F)
    assert doc["region"]["kind"] == "disc_union"
    assert "G" not in doc


def test_refine_odd(rowsum3, capsys):
    assert main(["refine", rowsum3]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_array_equal(np.array(doc["F"]), cases.ROWSUM3_F)
    np.testing.assert_array_equal(np.array(doc["G"]), cases.ROWSUM3_G)
    assert doc["region"]["kind"] == "pairwise_intersection_union"


def test_refine_desingularizes_with_notice(shear4, capsys):
    assert main(["refine", shear4]) == 0
    out = capsys.readouterr()
    doc = json.loads(out.out)
    np.testing.assert_array_equal(np.array(doc["F"]), cases.SHEAR4_F)
    assert "zero component" in out.err


def test_bound_reports(perron4, capsys):
    assert main(["bound", perron4]) == 0
    reports = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
    assert reports["m_B"]["value"] == 14.0
    assert reports["m_F"]["value"] == 6.0
    assert reports["m_F"]["improves_on_known"] is True


def test_bound_norm_and_k(perron4, capsys):
    assert main(["bound", perron4, "--k", "3", "--norm", "inf"]) == 0
    reports = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
    assert "tau1_k1" not in reports
    assert reports["tauinf_k3"]["value"] == pytest.approx(6.0)
    assert reports["tauinf_k3"]["k"] == 3


def test_bound_rejects_other_norms(perron4, capsys):
    assert main(["bound", perron4, "--norm", "2"]) == 2


def test_bound_det(perron4, capsys):
    assert main(["bound", perron4, "--det"]) == 0
    reports = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
    det_names = [n for n in reports if n.startswith("det_")]
    assert det_names
    for name in det_names:
        assert reports[name]["value"] >= abs(cases.PERRON4_DET) - 1e-6


def test_bound_library_agrees_with_cli_on_zero_components(shear4, capsys):
    assert main(["bound", shear4, "--k", "2", "--det"]) == 0
    cli = [(r["name"], r["value"]) for r in json.loads(capsys.readouterr().out)]
    reports = standard_reports(cases.SHEAR4_A, cases.SHEAR4_PAIR, ks=(1, 2), include_det=True)
    assert [(r.name, r.value) for r in reports] == cli
    assert "det_tau1_k2" in dict(cli)


def test_obr_region(rowsum3, capsys):
    assert main(["obr", rowsum3]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "intersection"
    assert len(doc["parts"]) == 4
    assert all(p["kind"] == "cassini_union" for p in doc["parts"])


def test_render_to_file(perron6, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert main(["render", perron6, "--out", str(out)]) == 0
    first = out.read_bytes()
    assert first.startswith(b"<?xml")
    assert main(["render", perron6, "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_render_layers_and_eigs(perron6, tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["render", perron6, "--out", str(out),
                 "--layers", "classic,second,refined", "--eigs"]) == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.count("<g ") == 3
    assert 'fill="#000000"' in svg


def test_render_stdout(perron6, capsys):
    assert main(["render", perron6, "--out", "-", "--layers", "second"]) == 0
    assert capsys.readouterr().out.startswith("<?xml")


def test_render_unknown_layer(perron6, capsys):
    assert main(["render", perron6, "--out", "-", "--layers", "sparkles"]) == 2


def test_eig_text_matrix(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("\n".join(" ".join(str(int(x)) for x in row)
                              for row in cases.PERRON6_A), encoding="utf-8")
    assert main(["eig", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "24"
    assert any("i" in line for line in lines)


def test_eig_problem_json(perron4, capsys):
    assert main(["eig", perron4]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "24"


def test_eig_nonconvergence_is_a_math_error(perron4, monkeypatch, capsys):
    def fails(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", fails)
    assert main(["eig", perron4]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_validate_ok(perron6, capsys):
    assert main(["validate", perron6]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["residual"] == 0.0


def test_validate_wrong_eigenvalue(tmp_path, capsys):
    from eigenfence import Eigenpair
    bad = Eigenpair(23.0, cases.PERRON6_PAIR.vector)
    path = write_problem(tmp_path / "bad.json", cases.PERRON6_A, bad)
    assert main(["validate", path]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False


def test_custom_tolerance_flag(tmp_path, capsys):
    from eigenfence import Eigenpair
    v = cases.PERRON6_PAIR.vector.copy()
    v[0] += 1e-7  # slightly off: fails at 1e-9, passes at 1e-2
    near = Eigenpair(24.0, v)
    path = write_problem(tmp_path / "near.json", cases.PERRON6_A, near)
    assert main(["validate", path]) == 2
    capsys.readouterr()
    assert main(["--tol", "1e-2", "validate", path]) == 0


def test_missing_file(capsys):
    assert main(["locate", "/nonexistent/problem.json"]) == 2


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["locate", str(path)]) == 2


HUGE_INT = 10 ** 400   # a JSON integer literal above the float range


@pytest.mark.parametrize("field, message", [
    ("matrix", "not a numeric matrix: int too large to convert to float"),
    ("eigenvalue", "not a numeric eigenvalue: int too large to convert to float"),
    ("eigenvector", "not a numeric eigenvector: int too large to convert to float")],
    ids=["matrix", "eigenvalue", "eigenvector"])
def test_integer_above_the_float_range_is_an_input_error(tmp_path, capsys, field, message):
    doc = {"matrix": cases.PERRON6_A.tolist(), "eigenvalue": 24.0,
           "eigenvector": cases.PERRON6_PAIR.vector.tolist()}
    if field == "matrix":
        doc["matrix"][1][2] = HUGE_INT
    elif field == "eigenvalue":
        doc["eigenvalue"] = HUGE_INT
    else:
        doc["eigenvector"][3] = HUGE_INT
    path = tmp_path / "huge_int.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["locate"], ["bound"], ["validate"], ["render", "--out", "-"]):
        assert main([command[0], str(path), *command[1:]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("field, message", [
    ("matrix", "not a numeric matrix: entries must be numbers, got strings"),
    ("row", "not a numeric matrix: entries must be numbers, got strings"),
    ("eigenvalue", "not a numeric eigenvalue: entries must be numbers, got strings"),
    ("eigenvector", "not a numeric eigenvector: entries must be numbers, got strings"),
    ("null-row", "not a numeric matrix: entries must be numbers, got null"),
    ("null-eigenvalue", "not a numeric eigenvalue: entries must be numbers, got null"),
    ("null-eigenvector", "not a numeric eigenvector: entries must be numbers, got null")],
    ids=["matrix", "row", "eigenvalue", "eigenvector", "null-row", "null-eigenvalue",
         "null-eigenvector"])
def test_json_strings_are_not_numbers(tmp_path, capsys, field, message):
    """A number spelled as a JSON string is refused, not converted, and a
    JSON null is refused, not read as NaN: every command, ``eig`` included,
    exits 2 with one line naming the field."""
    doc = {"matrix": cases.PERRON6_A.tolist(), "eigenvalue": 24.0,
           "eigenvector": cases.PERRON6_PAIR.vector.tolist()}
    if field == "matrix":
        doc["matrix"] = [[str(x) for x in row] for row in doc["matrix"]]
    elif field == "row":   # one string in a row of numbers, such as [12, "6", 6]
        doc["matrix"][1][2] = str(doc["matrix"][1][2])
    elif field == "eigenvalue":
        doc["eigenvalue"] = "24"
    elif field == "eigenvector":
        doc["eigenvector"] = [str(x) for x in doc["eigenvector"]]
    elif field == "null-row":
        doc["matrix"][1][2] = None
    elif field == "null-eigenvalue":
        doc["eigenvalue"] = None
    else:
        doc["eigenvector"][3] = None
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["validate"], ["locate"], ["refine"], ["bound"], ["obr"], ["eig"],
                    ["render", "--out", "-"]):
        assert main([command[0], str(path), *command[1:]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"


def test_directory_as_problem_is_an_input_error(tmp_path, capsys):
    assert main(["locate", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_directory_as_render_output_is_an_input_error(perron6, tmp_path, capsys):
    assert main(["render", perron6, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_problem_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"matrix": [[1]], "note": "é"}'.encode("latin-1"))
    assert main(["locate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err


def test_math_error_exit_code(tmp_path, capsys):
    from eigenfence import Eigenpair
    # row sums 2e200 and a remaining eigenvalue 2e200: B^2 is 4e400, but every bound is in range
    huge = 1e200 * np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0]])
    path = write_problem(tmp_path / "huge.json", huge, Eigenpair(2e200, np.ones(3)))
    assert main(["bound", "--k", "2", path]) == 0
    reports = {r["name"]: r["value"] for r in strict_json(capsys.readouterr().out)}
    assert 2e200 <= reports["tau1_k2"] < np.inf and 2e200 <= reports["tauinf_k2"] < np.inf
    # a disc of B really is out of range: 1e308 + 1e308
    assert main(["bound", "--k", "2", str(NEAR_RANGE / "near_float_max.json")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: second-type discs: DiscUnion: an entry or a reach is above "
                       "the float range\n")


def test_det_bound_at_n160_stays_in_range(tmp_path, capsys):
    # lambda ~ 80: B^159 exceeds the 1e300 guard, the row-shifted powers stay below it
    from eigenfence import Eigenpair
    a = np.random.default_rng(0).random((160, 160))
    w, vecs = np.linalg.eig(a)
    i = int(np.argmax(w.real))
    v = vecs[:, i].real
    v = v / v[np.argmax(np.abs(v))]
    path = write_problem(tmp_path / "big.json", a, Eigenpair(float(w[i].real), v))
    assert main(["bound", "--k", "2", "--det", path]) == 0
    reports = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)}
    _, logdet = np.linalg.slogdet(a)
    dets = [value for name, value in reports.items() if name.startswith("det_")]
    assert len(dets) == 6 and all(np.isfinite(dets))
    assert all(np.log(value) >= logdet for value in dets)


@pytest.mark.parametrize("k", ["0", "-2"])
def test_bound_k_must_be_positive(perron6, capsys, k):
    assert main(["bound", perron6, "--k", k]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: --k must be a positive integer")


def test_render_with_nothing_to_draw_is_an_input_error(perron6, capsys):
    assert main(["render", perron6, "--out", "-", "--layers", ","]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "nothing to draw" in out.err
    assert main(["render", perron6, "--out", "-", "--layers", "", "--eigs"]) == 0
    svg = capsys.readouterr().out
    assert svg.count("<g ") == 0 and 'fill="#000000"' in svg


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("command", [["locate"], ["refine"], ["bound"], ["obr"],
                                     ["render", "--out", "-"], ["validate"]])
def test_problems_below_n3_are_input_errors(tmp_path, capsys, command, n):
    # validate must not pass what every later command refuses
    from eigenfence import Eigenpair
    path = write_problem(tmp_path / "tiny.json", np.eye(n), Eigenpair(1.0, np.ones(n)))
    assert main([command[0], path, *command[1:]]) == 2
    assert "n >= 3" in capsys.readouterr().err


# -- one prepare step per command -------------------------------------------

# v = (0, 1, 1) with residual 8e-10 on A: the sheared pair (C, w) has twice
# that, so a second check on (C, w) refused what `validate` had accepted
RECHECK_A = [[2.0, 3.0 + 1.6e-9, -3.0], [1.0, 4.0 + 1.6e-9, 1.0], [7.0, 2.0, 3.0]]


def test_shear_pair_checked_once(tmp_path, capsys):
    from eigenfence import Eigenpair, eigenvalues, nontrivial_values, region_from_json
    pair = Eigenpair(5.0, np.array([0.0, 1.0, 1.0]))
    path = write_problem(tmp_path / "recheck.json", RECHECK_A, pair)
    assert main(["validate", path]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] == pytest.approx(8e-10)
    others = nontrivial_values(eigenvalues(RECHECK_A), 5.0)
    for command in ("locate", "refine", "obr"):
        assert main([command, path]) == 0
        doc = json.loads(capsys.readouterr().out)
        region = region_from_json(doc.get("region", doc))
        assert region.contains_points(others).all()
    assert main(["bound", path, "--det"]) == 0
    reports = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)}
    assert reports["m_B"] >= np.abs(others).max()
    assert reports["det_tau1_k2"] >= abs(np.linalg.det(RECHECK_A)) * (1 - 1e-9)


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["validate", "locate"])
def test_bad_tolerance_is_an_input_error(perron6, capsys, tol, command):
    assert main(["--tol", tol, command, perron6]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--tol must be a positive number" in out.err


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_command_prepares_once(shear4, monkeypatch, capsys):
    from eigenfence import core, refine, similarity
    checks = count_calls(monkeypatch, core, "_residual")
    shears = count_calls(monkeypatch, similarity, "desingularize")
    refinements = count_calls(monkeypatch, refine, "refinement")
    assert main(["render", shear4, "--out", "-", "--layers", "classic,second,refined"]) == 0
    assert (len(checks), len(shears)) == (1, 1)
    assert capsys.readouterr().err.count("note: eigenvector has 2 zero component(s)") == 1
    refinements.clear()
    assert main(["refine", shear4]) == 0
    assert len(refinements) == 1


def strict_json(text):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``,
    which are not JSON."""
    def refuse(name):
        raise ValueError(f"stdout holds {name}, which is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.stem)
def test_stdout_is_strict_json(capsys, problem):
    for command in (["validate"], ["locate", "--classic"], ["refine"],
                    ["bound", "--k", "3", "--det"], ["obr"]):
        assert main([command[0], str(problem), *command[1:]]) == 0
        out = capsys.readouterr()
        strict_json(out.out)
        assert "Warning" not in out.err and "Traceback" not in out.err


#: Problems that validate but whose B, regions or bounds leave the float
#: range (ROADMAP item 8).
NEAR_RANGE = Path(__file__).parent / "problems"


def json_or_refused(capsys, command, problem):
    """Run ``command`` on ``problem``: exit 0 with strict JSON on stdout (an
    empty stdout for ``render``, which writes to ``--out``), or exit 1/2
    with nothing on stdout and one ``error:`` line on stderr, after the
    shear path's note if it ran; never a traceback or a warning.  Returns
    the JSON, or None."""
    code = main([command[0], str(problem), *command[1:]])
    out = capsys.readouterr()
    assert "Warning" not in out.err and "Traceback" not in out.err
    if code:
        assert code in (1, 2) and out.out == ""
        err = re.sub(r"^note: eigenvector has \d+ zero component\(s\); "
                     r"continuing on the desingularized similar matrix\n", "", out.err)
        assert err.startswith("error: ") and err.count("\n") == 1
        # the line names the region, not only its table kind
        assert not err.startswith(("error: DiscUnion", "error: CassiniUnion"))
        return None
    if command[0] == "render":
        assert out.out == ""
        return None
    return strict_json(out.out)


def every_command(tmp_path):
    out = str(tmp_path / "out.svg")
    return (["locate"], ["locate", "--classic"], ["refine"], ["obr"],
            ["bound", "--k", "3"], ["bound", "--k", "3", "--det"],
            ["render", "--layers", "classic,second,refined", "--out", out],
            ["render", "--layers", "classic", "--out", out])


@pytest.mark.parametrize("problem", sorted(NEAR_RANGE.glob("*.json")), ids=lambda p: p.stem)
def test_near_float_range_is_json_or_an_error_line(tmp_path, capsys, problem):
    assert main(["validate", str(problem)]) == 0
    capsys.readouterr()
    for command in every_command(tmp_path):
        json_or_refused(capsys, command, problem)


def test_render_names_a_viewport_width_above_the_float_range(tmp_path, capsys):
    # the classic discs at +-1e308 fit the float range, the width of their box does not
    problem, out = NEAR_RANGE / "viewport_overflow.json", tmp_path / "out.svg"
    assert main(["render", str(problem), "--layers", "classic", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: viewport width is above the float range")


def floats(doc) -> list:
    """Every float of a JSON document, in document order."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in floats(item)]
    return [doc] if isinstance(doc, float) else []


@pytest.mark.parametrize("e", [-1000, -600, -60, 60, 600, 1000])
def test_power_of_two_scale_passes_through_exactly(tmp_path, capsys, e):
    # ROADMAP items 7 and 8: the obr bounds (2^(2e)) and det values (2^(ne)) are left out
    pair = cases.PERRON6_PAIR
    plain = write_problem(tmp_path / "plain.json", cases.PERRON6_A, pair)
    scaled = write_problem(tmp_path / "scaled.json", np.ldexp(cases.PERRON6_A, e),
                           Eigenpair(math.ldexp(pair.value, e), pair.vector))
    assert main(["validate", scaled]) == 0
    capsys.readouterr()
    for command in every_command(tmp_path):
        json_or_refused(capsys, command, scaled)
    for command in (["locate", "--classic"], ["refine"]):
        want = [math.ldexp(x, e) for x in floats(json_or_refused(capsys, command, plain))]
        assert floats(json_or_refused(capsys, command, scaled)) == want
    values = [{r["name"]: r["value"] for r in json_or_refused(capsys, ["bound", "--k", "3"], p)}
              for p in (plain, scaled)]
    assert len(values[0]) == 8
    assert values[1] == {name: math.ldexp(x, e) for name, x in values[0].items()}


def test_parser_is_built_once(perron6, monkeypatch, capsys):
    def fails():
        raise AssertionError("main built a parser")
    monkeypatch.setattr(cli, "build_parser", fails)
    assert main(["validate", perron6]) == 0
    assert main(["locate", perron6]) == 0
    assert capsys.readouterr().err == ""


# |lambda| * tau1(B) ** 2 = 1e150 * 1e160 is above the float range
DET_OVERFLOW_A = np.array([[1e150, 0, 0], [1e150, 1e80, 0], [1e150, 0, 2e80]])
DET_OVERFLOW_PAIR = Eigenpair(1e150, np.ones(3))


def test_det_bound_above_float_range_is_a_math_error(tmp_path, capsys):
    path = write_problem(tmp_path / "det.json", DET_OVERFLOW_A, DET_OVERFLOW_PAIR)
    assert main(["validate", path]) == 0
    assert strict_json(capsys.readouterr().out)["residual"] == 0.0
    for options in ([], ["--k", "2"]):
        assert main(["bound", path, "--det", *options]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: det_tau1_k1: the det bound at k = 1")
        assert out.err.count("\n") == 1
    with pytest.raises(OverflowError, match="det_tau1_k1: the det bound at k = 1"):
        standard_reports(DET_OVERFLOW_A, DET_OVERFLOW_PAIR, include_det=True)
    with pytest.raises(OverflowError, match="det_tauinf_k2: the det bound at k = 2"):
        standard_reports(DET_OVERFLOW_A, DET_OVERFLOW_PAIR, ks=(2,), kinds=(SemiNorm.LINF,),
                         include_det=True)
    # without --det every bound is finite
    assert main(["bound", path]) == 0
    strict_json(capsys.readouterr().out)


def test_infinite_tolerance_does_not_pass_a_bad_pair(tmp_path, capsys):
    a = np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 10]])
    path = write_problem(tmp_path / "bad.json", a, Eigenpair(100.0, np.ones(3)))
    assert check_eigenpair(a, Eigenpair(100.0, np.ones(3))) == 47.0
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        check_eigenpair(a, Eigenpair(100.0, np.ones(3)), tol=np.inf)
    for command in ("validate", "locate", "obr"):
        assert main(["--tol", "inf", command, path]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --tol must be a positive number, got inf\n"


# A v and lambda v overflow: inf - inf gives a NaN residual, and an inf
# entry of A v beside a finite lambda v an infinite one
NONFINITE_RESIDUAL = {
    "nan": (np.diag([1e200, 2e200, 3e200]), Eigenpair(7e200, np.full(3, 1e200))),
    "inf": (np.array([[1e308, 1e308, 1e308], [0, 1, 0], [0, 0, 1]]),
            Eigenpair(1.0, np.ones(3))),
}


@pytest.mark.parametrize("case", sorted(NONFINITE_RESIDUAL))
def test_nonfinite_residual_is_refused_by_every_command(tmp_path, capsys, case):
    a, pair = NONFINITE_RESIDUAL[case]
    with pytest.raises(InputError, match="residual is not finite"):
        check_eigenpair(a, pair)
    with pytest.raises(InputError, match="residual is not finite"):
        standard_reports(a, pair)
    path = write_problem(tmp_path / f"{case}.json", a, pair)
    for command in (["validate"], ["locate"], ["refine"], ["bound", "--det"], ["obr"],
                    ["render", "--out", "-"]):
        assert main([command[0], path, *command[1:]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: eigenpair residual is not finite: A v or lambda v overflows\n"


def gate_defect_problem(tmp_path):
    """ROADMAP item 1: a pair whose residual 1.25e-11 passes ``validate``
    but whose B has rows summing to 5 +- 2.5e-4 (the defect is divided by
    v_5 = 1e-7)."""
    v = np.array([1.0, 1, 1, 1, 1e-7])
    b0 = np.random.default_rng(0).random((5, 5))
    b0 *= 5.0 / b0.sum(axis=1)[:, None]
    a = v[:, None] * b0 / v[None, :]
    a[4, 0] += 2.5e-11
    return write_problem(tmp_path / "gate.json", a, Eigenpair(5.0, v))


def test_gate_defect_pair_validates(tmp_path, capsys):
    assert main(["validate", gate_defect_problem(tmp_path)]) == 0
    assert strict_json(capsys.readouterr().out)["valid"] is True


def test_gate_defect_pair_renders_without_a_refinement(tmp_path, monkeypatch, capsys):
    """A render without the refined layer builds no refinement, so its
    row-sum check does not refuse this pair."""
    from eigenfence import refine
    refinements = count_calls(monkeypatch, refine, "refinement")
    assert main(["render", gate_defect_problem(tmp_path), "--out", "-",
                 "--layers", "classic,second"]) == 0
    assert refinements == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("command", ["refine", "bound", "obr"])
def test_gate_defect_pair_passes_every_command(tmp_path, capsys, command):
    assert main([command, gate_defect_problem(tmp_path)]) == 0


# -- stdout is json.dumps(..., indent=2) of the library's documents ------------

def random_problem(path, n, zeros):
    """A random A with an exact-up-to-rounding pair (lambda, v), ``zeros``
    entries of v being 0 (the shear path): column j of a Gaussian matrix
    is set so that A v = lambda v."""
    rng = np.random.default_rng(1000 * n + zeros)
    v = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    v[rng.choice(n, size=zeros, replace=False)] = 0.0
    pair = Eigenpair(float(rng.uniform(1.0, 5.0)), v)
    a = rng.standard_normal((n, n))
    j = int(np.flatnonzero(v)[0])
    a[:, j] += (pair.value * v - a @ v) / v[j]
    return write_problem(path, a, pair), a, pair


def library_docs(a, pair):
    """What each command prints, built from the library's ``to_json``."""
    b = prepare(a, pair).B
    ref = refinement(b)
    residual = check_eigenpair(a, pair, DEFAULT_TOL)
    return {
        ("locate",): second_type_discs_of_transpose(b).to_json(),
        ("locate", "--classic"): {"second_type": second_type_discs_of_transpose(b).to_json(),
                                  "classic_columns": classic_discs(a, "columns").to_json(),
                                  "classic_rows": classic_discs(a, "rows").to_json()},
        ("refine",): {"row_sum": pair.value,
                      **{name: m.tolist() for name, m in ref.matrices.items()},
                      **({"shifts": (-ref.offsets["F"]).tolist()} if len(a) % 2 == 0 else
                         {"f_shifts": ref.offsets["F"].tolist(), "g_shifts": ref.offsets["G"].tolist()}),
                      "region": ref.region().to_json()},
        ("obr",): cassini_intersection_region(a, pair).to_json(),
        ("validate",): {"residual": residual, "tol": DEFAULT_TOL, "valid": residual <= DEFAULT_TOL},
        ("bound", "--k", "3", "--det"): [
            r.to_json() | {"improves_on_known": r.value < abs(pair.value)}
            for r in standard_reports(a, pair, ks=(1, 2, 3), include_det=True)],
    }


@pytest.mark.parametrize("n", range(3, 41))
def test_stdout_is_indent_2_json_of_the_library_docs(tmp_path, capsys, n):
    for zeros in (0, max(1, n // 4)):   # the diagonal and the shear path
        path, a, pair = random_problem(tmp_path / f"r{n}_{zeros}.json", n, zeros)
        for command, doc in library_docs(a, pair).items():
            assert main([command[0], path, *command[1:]]) == 0
            assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n", command


def test_region_tables_are_written_without_a_dict_per_row(capsys):
    # to_json builds one dict per row; the CLI writes from the tables instead
    with mock.patch.object(geometry._Union, "to_json", side_effect=AssertionError("to_json")):
        for command in (["locate", "--classic"], ["refine"], ["obr"]):
            for problem in PROBLEMS:
                assert main([command[0], str(problem), *command[1:]]) == 0
                assert strict_json(capsys.readouterr().out)

import json

import numpy as np
import pytest

import cases
from eigenfence import SemiNorm, det_bound, standard_reports
from eigenfence.cli import main


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
    from eigenfence import contains, region_from_json

    main(["locate", perron6])
    region = region_from_json(json.loads(capsys.readouterr().out))
    assert contains(region, 7.76)
    assert not contains(region, 24.0)


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
    det = det_bound(cases.SHEAR4_A, cases.SHEAR4_PAIR, 2, SemiNorm.L1)
    assert ("det_tau1_k2", det) in cli


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


def test_math_error_exit_code(tmp_path, capsys):
    from eigenfence import Eigenpair
    huge = np.full((3, 3), 1e200)
    path = write_problem(tmp_path / "huge.json", huge, Eigenpair(3e200, np.ones(3)))
    assert main(["bound", "--k", "2", path]) == 1  # B^2 overflows


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("command", [["locate"], ["refine"], ["bound"], ["obr"],
                                     ["render", "--out", "-"], ["validate"]])
def test_problems_below_n3_are_input_errors(tmp_path, capsys, command, n):
    # validate must not pass what every later command refuses
    from eigenfence import Eigenpair
    path = write_problem(tmp_path / "tiny.json", np.eye(n), Eigenpair(1.0, np.ones(n)))
    assert main([command[0], path, *command[1:]]) == 2
    assert "n >= 3" in capsys.readouterr().err

import json

import numpy as np
import pytest

from ncfock import cli


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _pick_doc(points, targets, **extra):
    doc = {"kind": "pick", "n": len(points[0]),
           "points": [[[z.real, z.imag] for z in pt] for pt in points],
           "targets": [[[[z.real, z.imag] for z in row] for row in np.atleast_2d(w)]
                       for w in targets]}
    doc.update(extra)
    return doc


SCHWARZ = _pick_doc([[0j], [0.4 + 0j]], [np.array([[0j]]), np.array([[0.3 + 0j]])])


def test_parse_round_trip(tmp_path):
    path = _write(tmp_path, "p.json", SCHWARZ)
    problem = cli.parse_problem(path)
    assert json.loads(json.dumps(problem.to_json_dict())) == json.loads(
        (tmp_path / "p.json").read_text())
    assert problem.kind == "pick" and problem.n == 1


def test_parse_minimal_single_node(tmp_path):
    doc = _pick_doc([[0.2 + 0.1j]], [np.array([[0.5 + 0j]])])
    problem = cli.parse_problem(_write(tmp_path, "one.json", doc))
    assert len(problem.points) == 1
    assert json.loads(json.dumps(problem.to_json_dict())) == doc


def test_parse_rejects_boundary_point(tmp_path):
    doc = _pick_doc([[1.2 + 0j], [0.4 + 0j]], [np.array([[0j]]), np.array([[0j]])])
    path = _write(tmp_path, "bad.json", doc)
    with pytest.raises(cli.SchemaError, match=r"points\[0\]"):
        cli.parse_problem(path)


def test_parse_rejects_mismatched_targets(tmp_path):
    doc = {"kind": "pick", "n": 1,
           "points": [[[0.0, 0.0]], [[0.4, 0.0]]],
           "targets": [[[[0.0, 0.0]]],
                       [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}
    path = _write(tmp_path, "bad.json", doc)
    with pytest.raises(cli.SchemaError, match=r"targets\[1\]"):
        cli.parse_problem(path)


def test_parse_rejects_unknown_field(tmp_path):
    doc = dict(SCHWARZ, flavor="strawberry")
    path = _write(tmp_path, "bad.json", doc)
    with pytest.raises(cli.SchemaError, match="flavor"):
        cli.parse_problem(path)


def test_parse_rejects_field_wrong_kind(tmp_path):
    doc = dict(SCHWARZ, lambda_q=1.0)
    path = _write(tmp_path, "bad.json", doc)
    with pytest.raises(cli.SchemaError, match="lambda_q"):
        cli.parse_problem(path)


def test_pick_check_feasible_exit_zero(tmp_path, capsys):
    path = _write(tmp_path, "p.json", SCHWARZ)
    assert cli.main(["pick", "check", path]) == 0
    out = capsys.readouterr().out
    assert "feasible = true" in out


def test_pick_check_infeasible_exit_one(tmp_path, capsys):
    doc = _pick_doc([[0j], [0.4 + 0j]], [np.array([[0j]]), np.array([[0.5 + 0j]])])
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["pick", "check", path]) == 1
    assert "feasible = false" in capsys.readouterr().out


def test_pick_norm_json(tmp_path, capsys):
    doc = _pick_doc([[0.1 + 0j, 0j]], [2.0 * np.eye(2)])
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["pick", "norm", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["min_norm"] == pytest.approx(2.0, abs=1e-10)
    assert payload["results"]["feasible_at_one"] is False


def test_pick_interpolant_residual(tmp_path, capsys):
    doc = _pick_doc([[0j], [0.5 + 0j]], [np.array([[1.0 + 0j]]), np.array([[0j]])])
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["pick", "interpolant", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["max_interpolation_residual"] < 1e-12
    terms = payload["results"]["interpolant"]
    by_word = {tuple(t["word"]): complex(*t["coeff"]) for t in terms}
    assert by_word[()] == pytest.approx(1.0)
    assert by_word[(1,)] == pytest.approx(-2.0)


def test_pick_classical(tmp_path, capsys):
    path = _write(tmp_path, "p.json", SCHWARZ)
    assert cli.main(["pick", "classical", path]) == 0
    assert "is_psd = true" in capsys.readouterr().out


def test_pick_check_marginal_boundary_warns(tmp_path, capsys):
    # w = r sits exactly on the feasibility boundary: marginal, still feasible
    doc = _pick_doc([[0j], [0.4 + 0j]], [np.array([[0j]]), np.array([[0.4 + 0j]])])
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["pick", "check", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["feasible"] is True
    assert payload["results"]["marginal"] is True
    assert any("marginal" in w for w in payload["warnings"])


def test_tol_flag_changes_verdict(tmp_path, capsys):
    # a barely infeasible problem flips to feasible under a huge tolerance
    doc = _pick_doc([[0j], [0.4 + 0j]], [np.array([[0j]]), np.array([[0.41 + 0j]])])
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["pick", "check", path]) == 1
    capsys.readouterr()
    assert cli.main(["pick", "check", path, "--tol", "1.0"]) == 0


def test_kind_command_mismatch(tmp_path, capsys):
    path = _write(tmp_path, "p.json", SCHWARZ)
    assert cli.main(["caratheodory", path]) == 2
    assert "kind" in capsys.readouterr().err


def test_caratheodory_command(tmp_path, capsys):
    doc = {"kind": "caratheodory", "n": 2, "degree": 1,
           "polynomial": [{"word": [1], "coeff": [1.0, 0.0]}]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["caratheodory", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["distance"] == pytest.approx(1.0, abs=1e-12)


def test_poisson_c0_and_kernel(tmp_path, capsys):
    doc = {"kind": "poisson", "n": 2, "kmax": 8,
           "points": [[[0.3, 0.0], [0.1, 0.0]], [[-0.2, 0.1], [0.25, 0.0]]]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["poisson", "c0", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["sigma"][0] == pytest.approx(1.0)
    assert len(payload["results"]["sigma"]) == 9

    assert cli.main(["poisson", "kernel", path, "--json", "--degree", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["identity_residual"] < 1e-12


def test_poisson_vonneumann(tmp_path, capsys):
    doc = {"kind": "poisson", "n": 2,
           "targets": [[[[0.4, 0.0]]], [[[0.2, 0.0]]]],
           "polynomial": [{"word": [1], "coeff": [1.0, 0.0]},
                          {"word": [2], "coeff": [1.0, 0.0]}]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["poisson", "vonneumann", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    res = payload["results"]
    assert res["lhs"] == pytest.approx(0.6, abs=1e-12)
    assert res["lhs"] <= res["upper"] + 1e-12


def test_poisson_covariance(tmp_path, capsys):
    doc = {"kind": "poisson", "n": 2,
           "points": [[[0.3, 0.0], [0.2, 0.0]]]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["poisson", "covariance", path, "--json", "--degree", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    res = payload["results"]
    assert res["identity_word_residual"] == pytest.approx(res["sigma_tail"], abs=1e-12)


def test_ideal_basis_and_distance(tmp_path, capsys):
    doc = {"kind": "ideal", "n": 2, "lambda_q": 1.0, "degree": 6,
           "polynomial": [{"word": [1, 2], "coeff": [1.0, 0.0]},
                          {"word": [2, 1], "coeff": [-1.0, 0.0]}]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "basis", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["grade_dimensions"] == [1, 2, 3, 4, 5, 6, 7]

    assert cli.main(["ideal", "distance", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["distance"] < 1e-12


def test_ideal_compressions(tmp_path, capsys):
    doc = {"kind": "ideal", "n": 2, "lambda_q": 1.0, "degree": 5}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "compressions", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["relation_residual"] < 1e-10


def test_ideal_check(tmp_path, capsys):
    doc = {"kind": "ideal", "n": 2, "lambda_q": 1.0, "degree": 6,
           "points": [[[0.3, 0.0], [0.1, 0.0]], [[-0.2, 0.0], [0.3, 0.0]]],
           "polynomial": [{"word": [], "coeff": [0.5, 0.0]},
                          {"word": [1], "coeff": [1.0, 0.0]}]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "check", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    res = payload["results"]
    assert res["lhs"] <= res["rhs"] + res["convergence_slack"]
    assert res["range_residual"] < 1e-10


def test_resource_cap_exit_code(tmp_path, capsys):
    doc = {"kind": "caratheodory", "n": 9, "degree": 8,
           "polynomial": [{"word": [1], "coeff": [1.0, 0.0]}]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["caratheodory", path]) == 3
    assert "resource cap" in capsys.readouterr().err


def test_ideal_grade_cap_exit_code(tmp_path, capsys):
    doc = {"kind": "ideal", "n": 65, "degree": 3,
           "generators": [[{"word": [1, 2, 3], "coeff": [1.0, 0.0]}]]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "basis", path]) == 3
    assert "resource cap" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path):
    path = _write(tmp_path, "p.json", SCHWARZ)
    out = tmp_path / "report.json"
    assert cli.main(["pick", "check", path, "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["feasible"] is True


def test_determinism(tmp_path, capsys):
    doc = {"kind": "ideal", "n": 2, "lambda_q": 1.0, "degree": 5,
           "polynomial": [{"word": [1], "coeff": [1.0, 0.0]},
                          {"word": [2, 2], "coeff": [0.0, -0.5]}]}
    path = _write(tmp_path, "p.json", doc)
    outputs = []
    for _ in range(2):
        assert cli.main(["ideal", "distance", path, "--json"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_text_numbers_have_machine_counterparts(tmp_path, capsys):
    path = _write(tmp_path, "p.json", SCHWARZ)
    assert cli.main(["pick", "check", path]) == 0
    text = capsys.readouterr().out
    assert cli.main(["pick", "check", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # the text value is the repr of the full-precision float in the json doc
    min_norm = payload["results"]["min_norm"]
    assert f"min_norm = {min_norm!r}" in text
    assert len(repr(min_norm).replace("0.", "")) >= 15

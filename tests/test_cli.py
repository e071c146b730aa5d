import fractions
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from helpers import format_value, jsonify
from ncfock import cli, freealg, pick


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
    assert problem.document == json.loads((tmp_path / "p.json").read_text())
    assert problem.kind == "pick" and problem.n == 1


def test_parse_minimal_single_node(tmp_path):
    doc = _pick_doc([[0.2 + 0.1j]], [np.array([[0.5 + 0j]])])
    problem = cli.parse_problem(_write(tmp_path, "one.json", doc))
    assert len(problem.points) == 1
    assert problem.document == doc


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


def test_pick_interpolant_of_zero_targets_is_the_zero_polynomial(tmp_path, capsys):
    # the zero interpolant has degree -inf, which is reported as 0
    doc = _pick_doc([[0j, 0j], [0.3 + 0j, 0.1 + 0j]], [np.array([[0j]])] * 2)
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["pick", "interpolant", path, "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["degree"], results["interpolant"]) == (0, [])
    assert results["max_interpolation_residual"] == results["norm_upper"] == 0.0
    assert cli.main(["pick", "interpolant", path]) == 0
    text = capsys.readouterr().out.splitlines()
    assert "  degree = 0" in text and "  interpolant = []" in text


def test_pick_interpolant_brackets_its_norm(tmp_path, capsys):
    rng = np.random.default_rng(7)
    points = [(rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) * 0.45 for _ in range(40)]
    targets = [np.array([[complex(rng.normal(), rng.normal())]]) for _ in range(40)]
    path = _write(tmp_path, "p.json", _pick_doc(points, targets))
    assert cli.main(["pick", "interpolant", path, "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["max_interpolation_residual"] <= 1e-10
    assert results["degree"] == 8  # C(10, 2) = 45 >= 40 monomials
    assert len(results["interpolant"]) <= 45
    assert 0.0 < results["min_norm"] <= results["norm_upper"]


def test_pick_interpolant_cap_exit_code(tmp_path, capsys, monkeypatch):
    # collinear nodes climb to degree 17, where 30^2 C(20, 3) terms pass 10^6;
    # the cap must stop the run before the c* solve
    def no_cstar(problem):
        raise AssertionError("c* computed past the interpolant cap")
    monkeypatch.setattr(pick, "min_norm_and_condition", no_cstar)
    points = [[t * 0.5, t * 0.5j, t * 0.5] for t in np.linspace(-1.0, 1.0, 20)]
    path = _write(tmp_path, "p.json", _pick_doc(points, [np.eye(30)] * 20))
    start = time.perf_counter()
    assert cli.main(["pick", "interpolant", path]) == 3
    assert time.perf_counter() - start < 10.0
    assert "resource cap" in capsys.readouterr().err


def test_pick_interpolant_keeps_result_when_gram_is_singular(tmp_path, capsys):
    # nodes 1e-6 apart: the Gram matrix is singular within 1e-12, c* is not
    # computed, and the interpolant is still reported
    rng = np.random.default_rng(11)
    points = [[0.3, 0.2j], [0.3 + 1e-6, 0.2j], [-0.4, 0.1], [0.1j, -0.5]]
    targets = [np.array([[complex(rng.normal(), rng.normal())]]) for _ in points]
    path = _write(tmp_path, "p.json", _pick_doc(points, targets))
    assert cli.main(["pick", "interpolant", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    results = report["results"]
    assert results["min_norm"] is None and results["gram_condition"] is None
    assert any(w.startswith("min_norm not computed") for w in report["warnings"])
    # coefficients near 1e6 carry the rounding of the residual
    assert results["max_interpolation_residual"] <= 1e-12 * results["norm_upper"]


def test_pick_interpolant_warns_on_lost_digits(tmp_path, capsys):
    # 40 one-variable nodes in the radius-0.9 disc: the degree-39 monomial
    # coefficients cannot reproduce the targets to 1e-10
    rng = np.random.default_rng(13)
    points = [[complex(*rng.uniform(-0.6, 0.6, 2))] for _ in range(40)]
    targets = [np.array([[complex(rng.normal(), rng.normal())]]) for _ in range(40)]
    path = _write(tmp_path, "p.json", _pick_doc(points, targets))
    assert cli.main(["pick", "interpolant", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    residual = report["results"]["max_interpolation_residual"]
    assert residual > 1e-10
    assert any(w.startswith("interpolation residual") for w in report["warnings"])


@pytest.mark.parametrize("action", ["interpolant", "norm", "check"])
def test_pick_dense_cap_exit_code(tmp_path, capsys, monkeypatch, action):
    # k = 4 nodes with 2 x 2 targets: the interpolant needs 4 * C(4, 2) = 24
    # dense entries, the block Pick matrix (4 * 2)^2 = 64
    monkeypatch.setattr(pick, "MAX_DENSE_ENTRIES", 30)
    rng = np.random.default_rng(17)
    points = [rng.uniform(-0.4, 0.4, 2) + 0j for _ in range(4)]
    path = _write(tmp_path, "p.json", _pick_doc(points, [np.eye(2) * 0.5] * 4))
    assert cli.main(["pick", action, path]) == 3
    assert "block Pick matrix" in capsys.readouterr().err


@pytest.mark.parametrize("fault, code, label", [
    (np.linalg.LinAlgError("SVD did not converge"), 4, "internal error"),
    (RuntimeError("solver did not converge"), 4, "internal error"),
    (MemoryError(), 3, "resource cap"),
    (TypeError("unsupported operand"), 4, "internal error"),
    (OverflowError("cannot convert float infinity to integer"), 4, "internal error"),
    (ZeroDivisionError("division by zero"), 4, "internal error"),
])
def test_fault_exit_codes(tmp_path, capsys, monkeypatch, fault, code, label):
    # any exception leaves main as an exit code and one line on stderr
    def broken(problem):
        raise fault
    monkeypatch.setattr(pick, "min_norm_and_condition", broken)
    path = _write(tmp_path, "p.json", SCHWARZ)
    assert cli.main(["pick", "norm", path]) == code
    err = capsys.readouterr().err
    assert err.startswith(label) and err.count("\n") == 1


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


@pytest.mark.parametrize("n,flags,degree", [(1, [], 8), (2, [], 8), (2, ["--degree", "5"], 5)])
def test_poisson_vonneumann_reports_the_certified_bracket(tmp_path, capsys, n, flags, degree):
    # 0.5 + e_1 + 0.7i e_w for w = (n, 1) and (1, n).  For n = 1 both are
    # 0.5 + z + 0.7i z^2, bounded on the circle.  At n = 2, (1) and (2, 1) are
    # prefix-free, so the closed form 0.5 + ||(1, 0.7)||_2 is the norm; (1)
    # is a prefix of (1, 2), and the Gram solve runs on the suffix closure
    # (), (1), (2), (1, 2)
    for word, methods, gram_size in [([n, 1], ("circle", "circle") if n == 1
                                      else ("prefix_free", "prefix_free"), None),
                                     ([1, n], ("circle", "circle") if n == 1
                                      else ("fejer_riesz_dual", "fejer_riesz"),
                                      None if n == 1 else 4)]:
        doc = {"kind": "poisson", "n": n,
               "targets": [[[[0.3, 0.1]]]] + [[[[0.2 * i, 0.0]]] for i in range(1, n)],
               "polynomial": [{"word": [], "coeff": [0.5, 0.0]},
                              {"word": [1], "coeff": [1.0, 0.0]},
                              {"word": word, "coeff": [0.0, 0.7]}]}
        path = _write(tmp_path, "p.json", doc)
        assert cli.main(["poisson", "vonneumann", path, "--json"] + flags) == 0
        payload = json.loads(capsys.readouterr().out)
        res = payload["results"]
        assert payload["parameters"]["degree"] == degree
        # the closed form, the circle or the Gram solve gives the bracket: no
        # degree entered it
        assert res["degree_used"] is None
        assert (res["lower_method"], res["upper_method"]) == methods
        assert res["gram_size"] == gram_size
        assert res["lower"] <= res["upper"]
        assert res["lhs"] <= res["upper"]
        assert res["gap"] == pytest.approx(res["upper"] - res["lower"], abs=1e-15)
        assert res["stabilized"] == (res["gap"] <= 1e-6 * res["upper"])
        assert res["stabilized"]
        if methods[0] == "prefix_free":
            assert res["upper"] == pytest.approx(0.5 + math.hypot(1.0, 0.7), rel=1e-15)


def _vonneumann(tmp_path, capsys, n, terms):
    """The results of `poisson vonneumann --json` on p = sum c w over the
    (word, coeff) terms, at the diagonal tuple of the points (0.5, 0.1) and,
    at n = 1, 0.5 and 0.1."""
    points = [[[0.5, 0.0], [0.1, 0.0]]] if n == 2 else [[[0.5, 0.0]], [[0.1, 0.0]]]
    doc = {"kind": "poisson", "n": n, "points": points,
           "polynomial": [{"word": list(w), "coeff": [c.real, c.imag]} for w, c in terms]}
    assert cli.main(["poisson", "vonneumann", _write(tmp_path, "p.json", doc), "--json"]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_poisson_vonneumann_is_scale_free(tmp_path, capsys):
    # no coefficient is chopped and the bracket is taken on p / 2^e, so a
    # 1e-16 p keeps its norm and 1e200 does not overflow: each bracket is
    # the unit-scale one times the scale, to 1e-12
    assert _vonneumann(tmp_path, capsys, 1, [((1,), 1e-16)])["lower"] > 0.0
    for n, word in ((1, (1, 1)), (2, (1, 2))):
        unit = _vonneumann(tmp_path, capsys, n, [((), 1.0), ((1,), 0.5), (word, 0.25j)])
        for scale in (1e-200, 1e-16, 1e200):
            res = _vonneumann(tmp_path, capsys, n, [((), scale), ((1,), 0.5 * scale),
                                                    (word, 0.25j * scale)])
            assert 0.0 < res["lower"] <= res["upper"] and res["lhs"] <= res["upper"]
            assert (res["lower"] / scale, res["upper"] / scale) == pytest.approx(
                (unit["lower"], unit["upper"]), rel=1e-12)
            assert res["stabilized"] and res["lower_method"] == unit["lower_method"]


def test_poisson_vonneumann_above_the_largest_double_is_an_input_error(tmp_path, capsys):
    doc = {"kind": "poisson", "n": 2, "points": [[[0.5, 0.0], [0.1, 0.0]]],
           "polynomial": [{"word": [1], "coeff": [1.5e308, 0.0]},
                          {"word": [2], "coeff": [1.5e308, 0.0]}]}
    assert cli.main(["poisson", "vonneumann", _write(tmp_path, "p.json", doc), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "2^1024" in captured.err


def test_poisson_vonneumann_stabilized_is_relative(tmp_path, capsys, monkeypatch):
    # the truncated fallback leaves a bracket about 10% wide: not stabilized
    # at any scale, though at 1e-8 its width is below 1e-6
    monkeypatch.setattr(freealg, "FEJER_RIESZ_MAX_WORK", 0)
    for scale in (1.0, 1e-8):
        res = _vonneumann(tmp_path, capsys, 2, [((), 0.5 * scale), ((1,), scale),
                                                ((1, 2), 0.7j * scale)])
        assert res["lower_method"] == "truncated" and res["gap"] > 0.05 * res["upper"]
        assert not res["stabilized"]


def test_poisson_vonneumann_reports_the_degree_of_the_truncated_bound(tmp_path, capsys):
    # every word of degree 7 at n = 2, and e_1, a prefix of half of them (the
    # degree-7 words alone are prefix-free, with a closed-form norm): the
    # suffix closure is all 255 words, above the Gram solve's work cap, so
    # lower is the norm of L_p on P_m and m is the degree used
    rng = np.random.default_rng(31)
    top = [{"word": list(w), "coeff": [0.05 * rng.normal(), 0.05 * rng.normal()]}
           for w in itertools.product((1, 2), repeat=7)]
    doc = {"kind": "poisson", "n": 2, "targets": [[[[0.3, 0.1]]], [[[0.2, 0.0]]]],
           "polynomial": [{"word": [], "coeff": [0.5, 0.0]},
                          {"word": [1], "coeff": [0.3, 0.0]}] + top}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["poisson", "vonneumann", path, "--json", "--degree", "9"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["lower_method"], res["gram_size"]) == ("truncated", None)
    assert res["degree_used"] == 9
    assert res["lhs"] <= res["upper"]


def test_poisson_covariance_builds_no_kernel(tmp_path, capsys, monkeypatch):
    # the compressions come from the Phi iterates, not from the kernel's blocks
    from ncfock import poisson
    builds = []
    kernel = poisson.poisson_kernel
    monkeypatch.setattr(poisson, "poisson_kernel", lambda *a: builds.append(a) or kernel(*a))
    doc = {"kind": "poisson", "n": 3, "points": [[[0.3, 0.0], [0.2, 0.1], [0.0, 0.4]]]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["poisson", "covariance", path, "--json", "--degree", "4"]) == 0
    assert builds == []
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["identity_word_residual"] == pytest.approx(res["sigma_tail"], abs=1e-12)


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


@pytest.mark.parametrize("rows, bad", [
    ([[2, True, 0.5, 0.0]], 0), ([[2, 1, 0.5, 0.0], [False, 1, 1.0, 0.0]], 1),
    ([[2, 1, 0.5, 0.0], [2, 1, -1.0, 0.0]], 1), ([[2, 1.0, 0.5, 0.0]], 0),
], ids=["bool-index", "bool-first-index", "repeated-pair", "float-index"])
def test_lambda_q_rows_are_checked(tmp_path, capsys, rows, bad):
    path = _write(tmp_path, "p.json", {"kind": "ideal", "n": 2, "lambda_q": rows, "degree": 3})
    assert cli.main(["ideal", "basis", path]) == 2
    assert capsys.readouterr().err.startswith(f"input error: lambda_q[{bad}]: ")
    assert cli.main(["ideal", "basis", _write(tmp_path, "ok.json", {
        "kind": "ideal", "n": 2, "lambda_q": [[2, 1, 0.5, 0.0]], "degree": 3})]) == 0


@pytest.mark.parametrize("n, rows, message", [
    (2, [[1, 2, 0.5, 0.0]], "lambda_q[0]: factor index (1, 2) is not a pair 1 <= i < j <= n"),
    (3, [[2, 1, 0.5, 0.0], [3, 1, 1.0, 0.0], [4, 3, 1.0, 0.0]],
     "lambda_q[2]: factor index (4, 3) is not a pair 1 <= i < j <= n"),
    (3, [[2, 1, 0.5, 0.0]], "lambda_q: missing commutation factors for pairs [(3, 1), (3, 2)]"),
], ids=["reversed-pair", "letter-past-n", "missing-pairs"])
def test_lambda_q_factor_table_errors_name_the_field(tmp_path, capsys, n, rows, message):
    # the rule is ideals._lambda_table's; the CLI adds the field and the row
    path = _write(tmp_path, "p.json", {"kind": "ideal", "n": n, "lambda_q": rows, "degree": 3})
    assert cli.main(["ideal", "basis", path]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_ideal_compressions(tmp_path, capsys):
    doc = {"kind": "ideal", "n": 2, "lambda_q": 1.0, "degree": 5}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "compressions", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["relation_residual"] < 1e-10


def test_ideal_compressions_of_homogeneous_generators(tmp_path, capsys):
    # the commutator given as generators has a graded model, as with lambda_q
    doc = {"kind": "ideal", "n": 2, "degree": 5,
           "generators": [[{"word": [1, 2], "coeff": [1.0, 0.0]},
                           {"word": [2, 1], "coeff": [-1.0, 0.0]}]]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "compressions", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["relation_residual"] < 1e-10


def test_ideal_check(tmp_path, capsys, monkeypatch):
    from ncfock import poisson
    sequences = []
    sigmas = poisson._sigmas
    monkeypatch.setattr(poisson, "_sigmas", lambda *a: sequences.append(a) or sigmas(*a))
    doc = {"kind": "ideal", "n": 2, "lambda_q": 1.0, "degree": 6,
           "points": [[[0.3, 0.0], [0.1, 0.0]], [[-0.2, 0.0], [0.3, 0.0]]],
           "polynomial": [{"word": [], "coeff": [0.5, 0.0]},
                          {"word": [1], "coeff": [1.0, 0.0]}]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "check", path, "--json"]) == 0
    # the tuple is admitted (annihilation and purity) once for both checks
    assert len(sequences) == 1
    payload = json.loads(capsys.readouterr().out)
    res = payload["results"]
    assert res["lhs"] <= res["rhs"] + res["convergence_slack"]
    assert res["range_residual"] < 1e-10


def test_ideal_notes_call_approximate_values_approximations(tmp_path, capsys):
    # [e1, e2] + 0.3 e1 has an approximate model: the distance of
    # 0.5 + e1 - 0.7 e2e2 falls from m = 5 to m = 6, so its notes name no
    # bound and no certificate; the graded model's notes keep their wording
    doc = json.loads((PROBLEMS / "ideal_dense.json").read_text())
    doc["polynomial"] = json.loads((PROBLEMS / "ideal_commuting.json").read_text())["polynomial"]
    path = _write(tmp_path, "p.json", doc)
    distances = []
    for degree in ("5", "6"):
        assert cli.main(["ideal", "distance", path, "--degree", degree, "--json"]) == 0
        distances.append(json.loads(capsys.readouterr().out)["results"]["distance"])
    assert distances[1] < distances[0] - 1e-5
    notes = {}
    for name, file in (("dense", path), ("commuting", str(PROBLEMS / "ideal_commuting.json"))):
        for action in ("distance", "compressions", "check"):
            assert cli.main(["ideal", action, file, "--json"]) == 0
            notes[name, action] = json.loads(capsys.readouterr().out)["notes"]
    assert notes == {
        ("dense", "distance"): [
            "finite-degree approximation, neither a bound nor monotone in the working degree"],
        ("dense", "compressions"): [
            "relation and semi-invariance statements approximate on grades <= 3 only"],
        ("dense", "check"): ["rhs is a finite-degree approximation of the quotient distance"],
        ("commuting", "distance"): [
            "finite-degree lower bound, nondecreasing in the working degree"],
        ("commuting", "compressions"): [
            "relation and semi-invariance statements certified on grades <= 4 only"],
        ("commuting", "check"): ["rhs is a finite-degree lower bound of the quotient distance"]}


def test_resource_cap_exit_code(tmp_path, capsys):
    doc = {"kind": "caratheodory", "n": 9, "degree": 8,
           "polynomial": [{"word": [1], "coeff": [1.0, 0.0]}]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["caratheodory", path]) == 3
    assert "resource cap" in capsys.readouterr().err


def test_caratheodory_side_cap_exit_code(tmp_path, capsys):
    doc = {"kind": "caratheodory", "n": 2, "degree": 11,
           "polynomial": [{"word": [1], "coeff": [1.0, 0.0]}]}
    path = _write(tmp_path, "p.json", doc)
    start = time.process_time()
    assert cli.main(["caratheodory", path]) == 3
    assert time.process_time() - start < 1.0
    assert "compression of side" in capsys.readouterr().err


def test_poisson_kernel_entry_cap_exit_code(tmp_path, capsys):
    # 3333 * 300 rows fit the row cap; 3333 * 300^2 entries do not
    doc = {"kind": "poisson", "n": 1, "degree": 3332,
           "targets": [[[[0.0, 0.0]] * 300] * 300]}
    path = _write(tmp_path, "p.json", doc)
    start = time.process_time()
    assert cli.main(["poisson", "kernel", path]) == 3
    assert time.process_time() - start < 1.0
    assert "entries" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["polynomial", "generators"])
def test_block_terms_are_not_input(tmp_path, capsys, field):
    # "block" appears only in the interpolant that pick interpolant writes
    term = {"word": [1], "coeff": [1.0, 0.0], "block": [0, 0]}
    doc = {"kind": "ideal", "n": 2, "degree": 3,
           field: [[term]] if field == "generators" else [term]}
    if field == "polynomial":
        doc["lambda_q"] = 1.0
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "distance", path]) == 2
    prefix = f"{field}[0][0]" if field == "generators" else f"{field}[0]"
    assert capsys.readouterr().err.startswith(
        f"input error: {prefix}: unexpected field 'block'")


def test_ideal_grade_cap_exit_code(tmp_path, capsys):
    doc = {"kind": "ideal", "n": 65, "degree": 3,
           "generators": [[{"word": [1, 2, 3], "coeff": [1.0, 0.0]}]]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "basis", path]) == 3
    assert "resource cap" in capsys.readouterr().err


def test_ideal_non_homogeneous_candidate_cap_exit_code(tmp_path, capsys):
    # e1^12 + 0.5 and 2500 degree-12 monomials at n = 2: dim N is small
    # enough for the compressions, but degree 12 has D(2, 12) = 8191
    # candidates, above GRADE_COORD_CAP
    words = itertools.islice(itertools.product([1, 2], repeat=12), 2500)
    doc = {"kind": "ideal", "n": 2, "degree": 12,
           "generators": [[{"word": [1] * 12, "coeff": [1.0, 0.0]},
                           {"word": [], "coeff": [0.5, 0.0]}]]
           + [[{"word": list(word), "coeff": [1.0, 0.0]}] for word in words]}
    path = _write(tmp_path, "p.json", doc)
    start = time.process_time()
    assert cli.main(["ideal", "basis", path]) == 3
    assert time.process_time() - start < 1.0
    assert "candidate space of size 8191" in capsys.readouterr().err


def test_ideal_homogeneous_candidate_cap_exit_code(tmp_path, capsys):
    # e1 and 3300 degree-2 monomials at n = 65: dim N is small enough for the
    # compressions, but grade 2 has n * r_1 = 65 * 64 candidates, above
    # GRADE_COORD_CAP
    words = itertools.islice(itertools.product(range(2, 66), repeat=2), 3300)
    doc = {"kind": "ideal", "n": 65, "degree": 2,
           "generators": [[{"word": [1], "coeff": [1.0, 0.0]}]]
           + [[{"word": list(word), "coeff": [1.0, 0.0]}] for word in words]}
    path = _write(tmp_path, "p.json", doc)
    start = time.process_time()
    assert cli.main(["ideal", "compressions", path]) == 3
    assert time.process_time() - start < 1.0
    assert "degree-2 candidate space of size 4160" in capsys.readouterr().err


def test_ideal_non_homogeneous_model_past_the_old_dense_cap(tmp_path, capsys):
    # D(2, 12) = 8191 is past the 4096 that the dense model allowed
    doc = {"kind": "ideal", "n": 2, "degree": 12,
           "generators": [[{"word": [1], "coeff": [1.0, 0.0]},
                           {"word": [2], "coeff": [-0.5, 0.0]},
                           {"word": [], "coeff": [0.3, 0.0]}]]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "basis", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["space_dim"] == 8191
    assert payload["results"]["quotient_dim"] == 13
    assert payload["warnings"] == [
        "non-homogeneous generators: the model is an approximation only"]


def test_ideal_compression_cap_exit_code(tmp_path, capsys):
    # the free n = 2, m = 12 quotient passes the D * r cap, not the n * r^2 one
    doc = {"kind": "ideal", "n": 2, "degree": 12, "generators": []}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "basis", path]) == 3
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc", [
    (["ideal", "basis", "--degree", "1000000000000"],
     {"kind": "ideal", "n": 2, "lambda_q": 1.0}),
    (["poisson", "c0"],
     {"kind": "poisson", "n": 1, "kmax": 10 ** 12, "points": [[[0.5, 0.0]]]}),
    (["poisson", "c0"],
     {"kind": "poisson", "n": 1, "kmax": 10 ** 6, "points": [[[0.5, 0.0]]]}),
])
def test_huge_degree_or_kmax_fails_fast(tmp_path, capsys, argv, doc):
    path = _write(tmp_path, "p.json", doc)
    start = time.process_time()
    assert cli.main(argv[:2] + [path] + argv[2:]) == 3
    assert time.process_time() - start < 1.0
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [["pick"], {"pick": 1}, 3])
def test_non_string_kind_is_an_input_error(tmp_path, capsys, kind):
    path = _write(tmp_path, "p.json", {"kind": kind, "n": 1})
    with pytest.raises(cli.SchemaError, match="kind"):
        cli.parse_problem(path)
    assert cli.main(["pick", "check", path]) == 2
    assert "input error" in capsys.readouterr().err


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


def test_poisson_covariance_takes_each_unordered_pair_once(tmp_path, capsys, monkeypatch):
    # (alpha, beta) and (beta, alpha) give adjoint operators with equal residuals
    from ncfock import poisson
    seen = []
    residuals = poisson.poisson_covariance_residuals
    monkeypatch.setattr(poisson, "poisson_covariance_residuals",
                        lambda T, pairs, m: seen.extend(pairs) or residuals(T, pairs, m))
    doc = {"kind": "poisson", "n": 3, "points": [[[0.3, 0.0], [0.2, 0.1], [0.0, 0.4]]]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["poisson", "covariance", path, "--json", "--degree", "4"]) == 0
    assert seen[0] == ((), ())
    assert len(seen) == len({tuple(sorted(pair)) for pair in seen}) == 13 * 14 // 2


PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"

# (problem file, command) -> (exit code, results keys in report order), or
# (exit code, None) where the command is an input error on that file
REPORT_CONTRACT = {
    ("caratheodory_shift.json", "caratheodory"): (0, ["degree", "distance"]),
    ("ideal_dense.json", "ideal basis"): (
        0, ["quotient_dim", "reliable_degree", "space_dim", "ideal_dim", "grade_dimensions"]),
    ("ideal_dense.json", "ideal distance"): (0, ["quotient_dim", "reliable_degree", "distance"]),
    ("ideal_dense.json", "ideal compressions"): (
        0, ["quotient_dim", "reliable_degree", "compression_norms", "compressions"]),
    ("ideal_dense.json", "ideal check"): (
        0, ["quotient_dim", "reliable_degree", "lhs", "rhs", "range_residual",
            "covariance_residual", "convergence_slack"]),
    ("ideal_commuting.json", "ideal basis"): (
        0, ["quotient_dim", "reliable_degree", "space_dim", "ideal_dim", "grade_dimensions"]),
    ("ideal_commuting.json", "ideal distance"): (
        0, ["quotient_dim", "reliable_degree", "distance"]),
    ("ideal_commuting.json", "ideal compressions"): (
        0, ["quotient_dim", "reliable_degree", "compression_norms", "relation_residual",
            "compressions"]),
    ("ideal_commuting.json", "ideal check"): (
        0, ["quotient_dim", "reliable_degree", "lhs", "rhs", "range_residual",
            "covariance_residual", "convergence_slack"]),
    ("pick_matrix_targets.json", "pick check"): (
        0, ["k", "target_dim", "feasible", "min_eigenvalue", "min_norm", "gram_condition",
            "marginal"]),
    ("pick_matrix_targets.json", "pick norm"): (
        0, ["k", "target_dim", "min_norm", "gram_condition", "feasible_at_one"]),
    ("pick_matrix_targets.json", "pick interpolant"): (
        0, ["k", "target_dim", "degree", "max_interpolation_residual", "norm_upper",
            "min_norm", "gram_condition", "interpolant"]),
    ("pick_matrix_targets.json", "pick classical"): (2, None),
    ("pick_schwarz.json", "pick check"): (
        0, ["k", "target_dim", "feasible", "min_eigenvalue", "min_norm", "gram_condition",
            "marginal"]),
    ("pick_schwarz.json", "pick norm"): (
        0, ["k", "target_dim", "min_norm", "gram_condition", "feasible_at_one"]),
    ("pick_schwarz.json", "pick interpolant"): (
        0, ["k", "target_dim", "degree", "max_interpolation_residual", "norm_upper",
            "min_norm", "gram_condition", "interpolant"]),
    ("pick_schwarz.json", "pick classical"): (
        0, ["k", "target_dim", "is_psd", "min_eigenvalue", "marginal"]),
    ("poisson_contraction.json", "poisson kernel"): (
        0, ["n", "d", "rows", "cols", "tail", "certified", "identity_residual"]),
    ("poisson_contraction.json", "poisson c0"): (0, ["n", "d", "sigma", "certified_c0"]),
    ("poisson_contraction.json", "poisson vonneumann"): (
        0, ["n", "d", "lhs", "lower", "upper", "gap", "lower_method", "upper_method",
            "degree_used", "gram_size", "stabilized"]),
    ("poisson_contraction.json", "poisson covariance"): (
        0, ["n", "d", "max_residual", "argmax_alpha", "argmax_beta",
            "identity_word_residual", "sigma_tail"]),
    ("poisson_degree5.json", "poisson kernel"): (
        0, ["n", "d", "rows", "cols", "tail", "certified", "identity_residual"]),
    ("poisson_degree5.json", "poisson c0"): (0, ["n", "d", "sigma", "certified_c0"]),
    ("poisson_degree5.json", "poisson vonneumann"): (
        0, ["n", "d", "lhs", "lower", "upper", "gap", "lower_method", "upper_method",
            "degree_used", "gram_size", "stabilized"]),
    ("poisson_degree5.json", "poisson covariance"): (
        0, ["n", "d", "max_residual", "argmax_alpha", "argmax_beta",
            "identity_word_residual", "sigma_tail"]),
    ("poisson_three_letters.json", "poisson kernel"): (
        0, ["n", "d", "rows", "cols", "tail", "certified", "identity_residual"]),
    ("poisson_three_letters.json", "poisson c0"): (0, ["n", "d", "sigma", "certified_c0"]),
    ("poisson_three_letters.json", "poisson vonneumann"): (
        0, ["n", "d", "lhs", "lower", "upper", "gap", "lower_method", "upper_method",
            "degree_used", "gram_size", "stabilized"]),
    ("poisson_three_letters.json", "poisson covariance"): (
        0, ["n", "d", "max_residual", "argmax_alpha", "argmax_beta",
            "identity_word_residual", "sigma_tail"]),
    ("poisson_sparse_degree7.json", "poisson kernel"): (
        0, ["n", "d", "rows", "cols", "tail", "certified", "identity_residual"]),
    ("poisson_sparse_degree7.json", "poisson c0"): (0, ["n", "d", "sigma", "certified_c0"]),
    ("poisson_sparse_degree7.json", "poisson vonneumann"): (
        0, ["n", "d", "lhs", "lower", "upper", "gap", "lower_method", "upper_method",
            "degree_used", "gram_size", "stabilized"]),
    ("poisson_sparse_degree7.json", "poisson covariance"): (
        0, ["n", "d", "max_residual", "argmax_alpha", "argmax_beta",
            "identity_word_residual", "sigma_tail"]),
}


def _contract_cases():
    for path in sorted(PROBLEMS.glob("*.json")):
        kind = json.loads(path.read_text())["kind"]
        for action in cli.KINDS[kind].actions:
            yield path.name, " ".join(filter(None, (kind, action)))


def test_report_contract_covers_every_command():
    assert set(_contract_cases()) == set(REPORT_CONTRACT)


@pytest.mark.parametrize("name, command", list(_contract_cases()))
def test_report_contract(name, command, capsys):
    code, keys = REPORT_CONTRACT[name, command]
    argv = command.split() + [str(PROBLEMS / name)]
    assert cli.main(argv + ["--json"]) == code
    payload = capsys.readouterr().out
    assert cli.main(argv) == code
    text = capsys.readouterr().out.splitlines()
    if keys is None:
        assert payload == "" and text == []
        return
    report = json.loads(payload)
    assert list(report["results"]) == keys
    lines = ([("param " + key, value) for key, value in report["parameters"].items()]
             + list(report["results"].items()))
    assert text[0] == f"ncfock {command} (kind={report['kind']})"
    for line, (key, value) in zip(text[1:], lines):
        shown = line.removeprefix(f"  {key} = ")
        assert shown != line
        if isinstance(value, bool):
            assert shown == json.dumps(value)
        elif isinstance(value, (int, float)):
            assert shown == repr(value)
        elif isinstance(value, str):
            assert shown == value
        else:
            assert json.loads(shown) == value
    assert len(text) >= 1 + len(lines)


def test_degree5_problem_closes_its_bracket(capsys):
    # a Gram solve above degree 3 (258 prefix pairs) through the console entry
    argv = ["poisson", "vonneumann", str(PROBLEMS / "poisson_degree5.json"), "--json"]
    assert cli.main(argv) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["lower_method"], res["stabilized"]) == ("fejer_riesz_dual", True)


def test_sparse_degree7_problem_solves_on_its_suffix_closure(capsys):
    # one word per grade to degree 7 at n = 2: the solve on all 255 words is
    # above the work cap, the one on the suffix closure (8 words) is not
    argv = ["poisson", "vonneumann", str(PROBLEMS / "poisson_sparse_degree7.json"), "--json"]
    assert cli.main(argv) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["lower_method"], res["stabilized"]) == ("fejer_riesz_dual", True)
    assert res["gram_size"] <= 9
    assert res["lhs"] <= res["upper"]


@pytest.mark.parametrize("argv, flag", [
    (["pick", "check", "pick_schwarz.json", "--tol", "-1"], "--tol"),
    (["pick", "check", "pick_schwarz.json", "--tol", "nan"], "--tol"),
    (["poisson", "kernel", "poisson_contraction.json", "--degree", "-1"], "--degree"),
    (["poisson", "c0", "poisson_contraction.json", "--kmax", "-1"], "--kmax"),
    (["caratheodory", "caratheodory_shift.json", "--degree", "-1"], "--degree"),
    (["pick", "check", "pick_schwarz.json", "--degree", "-1"], "--degree"),
    (["caratheodory", "caratheodory_shift.json", "--kmax", "-5"], "--kmax"),
    (["caratheodory", "caratheodory_shift.json", "--tol", "1e-8"], "--tol"),
], ids=["tol-negative", "tol-nan", "degree-negative", "kmax-negative", "carath-degree",
        "pick-unused-degree", "carath-unused-kmax", "carath-unused-tol"])
def test_flags_are_decoded_like_file_fields(capsys, argv, flag):
    argv = [str(PROBLEMS / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"input error: {flag}: ")


@pytest.mark.parametrize("argv, text, field", [
    (["pick", "check"], json.dumps(SCHWARZ)[:-1] + ', "tol": NaN}', "tol"),
    (["pick", "check"], json.dumps(SCHWARZ)[:-1] + ', "tol": 1e999}', "tol"),
    (["caratheodory"], '{"kind": "caratheodory", "n": 1, "polynomial": '
                       '[{"word": [1], "coeff": [1' + "0" * 400 + ', 0]}]}',
     "polynomial[0].coeff"),
    (["pick", "check"], json.dumps(SCHWARZ).replace("[[0.4, 0.0]]", "[[NaN, 0.0]]"),
     "points[1][0]"),
], ids=["tol-nan", "tol-overflow", "coeff-400-digits", "point-nan"])
def test_non_finite_numbers_are_input_errors(tmp_path, capsys, argv, text, field):
    path = tmp_path / "p.json"
    path.write_text(text)
    assert cli.main(argv + [str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {field}: ")


def test_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    seen = []
    dispatch = cli.dispatch
    monkeypatch.setattr(cli, "dispatch",
                        lambda command, problem, flags: seen.append(flags) or dispatch(
                            command, problem, flags))
    path = str(PROBLEMS / "ideal_commuting.json")
    assert cli.main(["ideal", "basis", path, "--degree", "3", "--tol", "1e-8",
                     "--kmax", "5", "--json"]) == 0
    assert cli.main(["ideal", "basis", path]) == 0
    assert (seen[0].degree, seen[0].tol, seen[0].kmax, seen[0].json) == (3, 1e-8, 5, True)
    assert (seen[1].degree, seen[1].tol, seen[1].kmax, seen[1].json) == (None, None, None,
                                                                        False)
    capsys.readouterr()
    for argv in (["ideal", "bogus", path], ["ideal", "basis"],
                 ["ideal", "basis", path, "--degree", "three"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "usage: ncfock" in capsys.readouterr().err
    assert cli.main(["ideal", "basis", path]) == 0
    assert len(seen) == 3 and seen[2].degree is None


def test_parser_is_built_once_per_process_and_not_at_import():
    code = ("import ncfock, ncfock.cli as cli, sys\n"
            "built = cli._build_parser.cache_info().currsize\n"
            "for _ in range(3):\n"
            "    cli.main(['pick', 'norm', sys.argv[1], '--json', '--out', sys.argv[2]])\n"
            "print(built, cli._build_parser.cache_info().misses)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run([sys.executable, "-c", code, str(PROBLEMS / "pick_schwarz.json"),
                              os.path.join(tmp, "report.json")],
                             env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["0", "1"]


def test_ideal_check_admits_its_tuple_with_kmax(tmp_path, capsys):
    # T_1 = [[0, 1], [0, 0]], T_2 = 0: sigma_1 = 1 and sigma_2 = 0, so the
    # purity certificate needs kmax >= 2
    doc = {"kind": "ideal", "n": 2, "lambda_q": 0.5, "degree": 5,
           "targets": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                       [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]],
           "polynomial": [{"word": [1], "coeff": [1.0, 0.0]}]}
    path = _write(tmp_path, "p.json", doc)
    assert cli.main(["ideal", "check", path, "--kmax", "1"]) == 2
    assert "sigma_1 has not decayed" in capsys.readouterr().err
    assert cli.main(["ideal", "check", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["kmax"] == 20


def test_json_report_is_all_of_stdout_when_openblas_prints(tmp_path):
    # with OpenBLAS 0.3.31, zgesdd fails on a triangle of this quotient build
    # (test_ideals) and OpenBLAS writes its complaint to fd 1; the report
    # alone reaches stdout, the complaint goes to stderr
    doc = {"kind": "ideal", "n": 2, "degree": 8,
           "generators": [[{"word": [1, 2], "coeff": [1.0, 0.0]},
                           {"word": [2, 1], "coeff": [-1.0, 0.0]},
                           {"word": [1], "coeff": [0.47878923076784435, 0.0]}]]}
    path = _write(tmp_path, "p.json", doc)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-m", "ncfock.cli", "ideal", "basis", path, "--json"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert json.loads(out.stdout)["command"] == "ideal basis"


class _Named:
    """An object the report writer writes as its str."""

    def __str__(self):
        return 'named "object"'


def _random_complex(rng):
    special = [math.nan, math.inf, -math.inf, -0.0]
    z = complex(rng.normal(), rng.normal())
    if rng.random() < 0.2:   # NaN or an infinity inside a complex number
        return complex(special[int(rng.integers(0, 4))], z.imag)
    if rng.random() < 0.2:
        return complex(z.real, special[int(rng.integers(0, 4))])
    return z


def _random_json_value(rng, depth=0):
    """A random report value: JSON data plus what the writer converts, namely
    complex numbers, arrays, numpy scalars, tuples, non-string keys and other
    objects."""
    kind = int(rng.integers(0, 16 if depth < 4 else 11))
    if kind == 0:
        return float(rng.choice([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-07,
                                 0.1, 1.0, -2.5e300]))
    if kind == 1:
        return float(rng.normal() * 10.0 ** rng.integers(-20, 20))
    if kind == 2:
        return int(rng.choice([0, -1, 7, 2 ** 63, -(10 ** 40)]))
    if kind == 3:
        return bool(rng.integers(0, 2))
    if kind == 4:
        return None
    if kind == 5:
        return str(rng.choice(["", "plain", "é ü ∑ 日本", 'quote " back \\ slash',
                               "tab\t new\n line \x00 \x1f  ", "\U0001f600"]))
    if kind == 6:
        return [np.float64(rng.normal()), np.float64(math.nan), np.int64(rng.integers(-9, 9)),
                np.bool_(rng.integers(0, 2)),
                np.complex128(_random_complex(rng))][int(rng.integers(0, 5))]
    if kind == 7:
        return _random_complex(rng)
    if kind == 8:
        return [_Named(), fractions.Fraction(1, 3), {1, 2}][int(rng.integers(0, 3))]
    size = int(rng.integers(0, 5))
    if kind == 9:
        return [float(x) for x in rng.normal(size=size)] + (
            [math.nan] if rng.random() < 0.3 else [])
    if kind == 10:
        values = [_random_complex(rng) for _ in range(size)]
        if values and rng.random() < 0.3:   # a real or a numpy scalar leaves the fast path
            values[-1] = [1.0, np.complex128(1j), 2][int(rng.integers(0, 3))]
        return values
    if kind == 11:
        shape = tuple(int(k) for k in rng.integers(0, 4, size=int(rng.integers(1, 4))))
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if z.size and rng.random() < 0.3:
            z.flat[int(rng.integers(0, z.size))] = complex(math.nan, math.inf)
        return z if rng.random() < 0.7 else z.real
    if kind == 12:
        pairs = [[float(x), float(y)] for x, y in rng.normal(size=(size, 2))]
        if pairs and rng.random() < 0.5:   # a NaN, a ragged pair or an int leaves the fast path
            odd = [[math.nan, 1.0], [1.0], [1.0, 2.0, 3.0], [1, 2.0], [np.float64(1.0), 2.0],
                   [True, 1.0], (1.0, 2.0)]
            pairs[-1] = odd[int(rng.integers(0, len(odd)))]
        return pairs
    if kind == 13:
        return tuple(_random_json_value(rng, depth + 1) for _ in range(size))
    if kind == 14:
        return [_random_json_value(rng, depth + 1) for _ in range(size)]
    keys = ["a", "é", "", "x\ny", 3, 2.5, True, None, (1, 2), np.int64(4)]
    return {keys[int(rng.integers(0, len(keys)))]: _random_json_value(rng, depth + 1)
            for _ in range(size)}


def test_json_writer_matches_the_stdlib_indent_2_text():
    rng = np.random.default_rng(12)
    fixed = [math.nan, [math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-07],
             [[1.0, 2.0], [math.nan, 3.0]], [[1.0, 2.0], [3.0]], [], {}, [[]], [{}], None,
             [True, 1, False, 0, 2 ** 70], [np.float64(0.1), np.float64(1e16)],
             {"a": [[0.5, -0.5]], 1: {}, "b": "∑\"\\"}, "é\n", 1j, [1j, -0.0 - 2.5j],
             [complex(math.nan, 1.0)], np.zeros((2, 0, 3), complex),
             np.eye(2, dtype=complex), {1: "int", "1": "str"}, _Named()]
    for value in fixed + [_random_json_value(rng) for _ in range(600)]:
        assert cli._json_text(value) == json.dumps(jsonify(value), indent=2)
        assert cli._json_text(value, None) == json.dumps(jsonify(value))


@pytest.mark.parametrize("value, text", [
    ({(1, 2): 0}, '{"(1, 2)": 0}'), ([np.int64(3)], "[3]"), ([1j], "[[0.0, 1.0]]"),
    ({"a": np.bool_(True)}, '{"a": true}'), (np.array([[1 - 1j]]), "[[[1.0, -1.0]]]"),
    ({"a": _Named()}, '{"a": "named \\"object\\""}'), (np.array(1.5 + 2j), "[1.5, 2.0]"),
], ids=["tuple-key", "int64", "complex", "bool_", "array", "object", "0-d-array"])
def test_json_writer_converts_what_the_stdlib_rejects(value, text):
    with pytest.raises(TypeError):
        json.dumps(value)
    assert cli._json_text(value, None) == text
    assert json.loads(cli._json_text(value)) == json.loads(text)


def _main_and_report(monkeypatch, argv):
    """The exit code of cli.main(argv) and the report it dispatched, if any."""
    reports = []
    dispatch = cli.dispatch
    monkeypatch.setattr(cli, "dispatch",
                        lambda *args: reports.append(dispatch(*args)) or reports[-1])
    return cli.main(argv), (reports or [None])[0]


@pytest.mark.parametrize("name, command", list(_contract_cases()))
def test_json_reports_are_the_stdlib_indent_2_text(name, command, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    code, report = _main_and_report(
        monkeypatch, command.split() + [str(PROBLEMS / name), "--json", "--out", str(out)])
    if code == 2:   # an input error writes no report
        assert report is None and not out.exists()
        return
    assert out.read_text() == json.dumps(jsonify(report.to_json_dict()), indent=2) + "\n"


@pytest.mark.parametrize("name, command", list(_contract_cases()))
def test_text_reports_keep_the_json_dumps_formatting(name, command, tmp_path, monkeypatch):
    code, report = _main_and_report(
        monkeypatch, command.split() + [str(PROBLEMS / name), "--out", str(tmp_path / "r")])
    if code == 2:
        return
    text = report.to_text()
    monkeypatch.setattr(cli, "_format_value", format_value)
    assert text == report.to_text()

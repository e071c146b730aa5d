"""Runs benchmark requests against ncfock and checks every answer.

A request is timed around `Client.call` only; writing the problem file
before it and reading the report and checking it after it are the
benchmark's own work.  Library functions are looked up on the ``ncfock``
package at call time so that a tracer patching the package sees them.

Only names the ROADMAP keeps are called directly.  The degree-growth loop,
the interpolant and the covariance kernel rebuild are reached through the
CLI command that fronts them, in process, as ``cli.main([..., "--json",
"--out", path])``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import ncfock
import ncfock.cli

TOL = 1e-10                  # library default tolerance
CLI_OK = 0
KEEP_ANSWERS = 4             # repeats refer to one of the two CLI requests before them


def complex_of(pair) -> complex:
    return complex(pair[0], pair[1])


def matrix_of(doc) -> np.ndarray:
    return np.array([[complex_of(z) for z in row] for row in doc], dtype=complex)


def polynomial_of(n: int, doc) -> "ncfock.NcPolynomial":
    terms = {}
    for t in doc:
        word = tuple(t["word"])
        terms[word] = terms.get(word, 0.0) + complex_of(t["coeff"])
    return ncfock.NcPolynomial(n, terms)


def contraction_of(doc) -> "ncfock.RowContraction":
    if "targets" in doc:
        return ncfock.RowContraction([matrix_of(m) for m in doc["targets"]])
    return ncfock.RowContraction.diagonal(
        [np.array([complex_of(z) for z in p]) for p in doc["points"]])


def lambda_of(value):
    if isinstance(value, (int, float)):
        return complex(value)
    if len(value) == 2 and not isinstance(value[0], list):
        return complex_of(value)
    return {(row[0], row[1]): complex(row[2], row[3]) for row in value}


def spec_of(doc) -> "ncfock.IdealSpec":
    n, m = doc["n"], doc["degree"]
    if "lambda_q" in doc:
        return ncfock.q_commutation_spec(n, lambda_of(doc["lambda_q"]), m)
    gens = tuple(polynomial_of(n, g) for g in doc["generators"])
    return ncfock.IdealSpec(n, gens, m)


def basis_size(n: int, m: int) -> int:
    return m + 1 if n == 1 else (n ** (m + 1) - 1) // (n - 1)


def cp_power_identity(matrices: np.ndarray, power: int) -> np.ndarray:
    """Phi^power(I) for Phi(X) = sum T_i X T_i*, iterated independently of ncfock."""
    x = np.eye(matrices.shape[1], dtype=complex)
    for _ in range(power):
        x = np.einsum("iab,bc,idc->ad", matrices, x, matrices.conj())
    return x


class CheckFailed(Exception):
    """An answer that disagrees with its oracle."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


class Client:
    """One closed-loop client; holds the per-loop state some checks need.

    models: quotient models of the current family, reused by the later
    library requests of the same spec.  ladder: the last quotient distance
    of each family, for the nondecreasing-in-m check.  answers: the last
    few CLI results by request, to check that a repeated request gets the
    same answer.  norm_gaps: (upper - lower) / upper of every
    `poisson vonneumann` answer.  Nothing else is kept from request to
    request, so memory does not grow with the number of requests.
    """

    def __init__(self, workdir: str):
        self.problem_path = os.path.join(workdir, "problem.json")
        self.report_path = os.path.join(workdir, "report.json")
        self.models = {}
        self.ladder = {}
        self.answers = {}
        self.norm_gaps = []

    # -- untimed ---------------------------------------------------------
    def prepare(self, req: dict):
        if req["op"] == "cli" or (req["op"] == "pick" and req["interpolant"]):
            with open(self.problem_path, "w", encoding="utf-8") as handle:
                json.dump(req["doc"], handle)
            if os.path.exists(self.report_path):
                os.remove(self.report_path)

    # -- timed -----------------------------------------------------------
    def call(self, req: dict):
        return getattr(self, "_call_" + req["op"])(req)

    def _cli(self, argv, flags=()):
        return ncfock.cli.main(argv + [self.problem_path, *flags,
                                       "--json", "--out", self.report_path])

    def _call_cli(self, req):
        return self._cli(req["argv"], req["flags"])

    def _call_pick(self, req):
        doc = req["doc"]
        points = [np.array([complex_of(z) for z in p]) for p in doc["points"]]
        targets = [matrix_of(w) for w in doc["targets"]]
        problem = ncfock.PickProblem(points, targets)
        answer = {"cert": ncfock.certify(problem, TOL)}
        if req["size"] == 1:
            answer["classical"] = ncfock.psd_check(ncfock.classical_ball_matrix(problem), TOL)
            answer["member"] = ncfock.sample_membership_check(
                [(p, w[0, 0]) for p, w in zip(points, targets)], TOL)
        if req["interpolant"]:
            answer["rc"] = self._cli(["pick", "interpolant"])
        return answer

    def _call_kernel_lib(self, req):
        T = contraction_of(req["doc"])
        return T, ncfock.poisson_kernel(T, req["m"], TOL)

    def _call_subspace_lib(self, req):
        T = contraction_of(req["doc"])
        return T, ncfock.minimal_subspace(T, req["m"])

    def _call_ideal_lib(self, req):
        doc = req["doc"]
        key = (req["family"], doc["degree"])
        if req["call"] == "build":
            if any(family != req["family"] for family, _ in self.models):
                self.models.clear()
            spec = spec_of(doc)
            self.models[key] = ncfock.build_quotient(spec)
            return self.models[key]
        model = self.models[key]
        f = polynomial_of(doc["n"], doc["polynomial"])
        if req["call"] == "distance":
            return ncfock.quotient_distance(f, model.spec, model=model)
        T = contraction_of(doc)
        if req["call"] == "check":
            return ncfock.constrained_von_neumann_check(T, f, model.spec, model=model)
        return ncfock.quotient_poisson_check(T, model.spec, model.spec.m, model=model)

    # -- untimed ---------------------------------------------------------
    def check(self, req: dict, answer):
        """None when the answer is right, else the reason it is wrong."""
        try:
            getattr(self, "_check_" + req["op"])(req, answer)
        except CheckFailed as exc:
            return f"check: {exc}"
        except Exception as exc:  # a malformed answer fails the request, not the run
            return f"check raised {type(exc).__name__}: {exc}"
        return None

    def _report(self, rc) -> dict:
        require(rc == CLI_OK, f"exit code {rc}")
        with open(self.report_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def _check_pick(self, req, answer):
        cert = answer["cert"]
        require(cert.feasible == (cert.min_norm <= 1.0 + TOL),
                f"verdict {cert.feasible} disagrees with c* = {cert.min_norm!r}")
        if req["bound"] is not None:
            require(cert.feasible and cert.min_norm <= req["bound"] * (1 + 1e-8) + TOL,
                    f"c* = {cert.min_norm!r} above the constructed bound {req['bound']!r}")
        if req["size"] == 1:
            require(answer["classical"].is_psd or not cert.feasible,
                    "feasible problem fails the weaker classical condition")
            require(answer["member"].is_psd == cert.feasible,
                    "membership check disagrees with the Pick certificate")
        if req["interpolant"]:
            results = self._report(answer["rc"])["results"]
            require(results["max_interpolation_residual"] <= 1e-8,
                    f"interpolant residual {results['max_interpolation_residual']!r}")
            require(results["degree"] <= req["k"] - 1, f"degree {results['degree']}")

    def _check_kernel_lib(self, req, answer):
        T, kernel = answer
        m, d = req["m"], T.d
        K = kernel.matrix
        require(K.shape == (basis_size(T.n, m) * d, d), f"kernel shape {K.shape}")
        defect = np.eye(d) - K.conj().T @ K - cp_power_identity(T.matrices, m + 1)
        residual = float(np.linalg.norm(defect, 2))
        require(residual <= 1e-12, f"identity residual {residual!r}")

    def _check_subspace_lib(self, req, answer):
        T, U = answer
        require(U.shape[0] == basis_size(T.n, req["m"]) and U.shape[1] <= T.d ** 2,
                f"subspace shape {U.shape}")
        gap = float(np.abs(U.conj().T @ U - np.eye(U.shape[1])).max()) if U.size else 0.0
        require(gap <= 1e-10, f"basis not orthonormal ({gap!r})")

    def _check_ideal_lib(self, req, answer):
        doc = req["doc"]
        call = req["call"]
        if call == "build":
            if req["homogeneous"]:
                check_grades(doc["n"], answer.grade_dimensions())
            return
        if call == "distance":
            require(math.isfinite(answer) and answer >= 0.0, f"distance {answer!r}")
            if req["homogeneous"]:
                prev = self.ladder.get(req["family"])
                require(prev is None or answer >= prev - 1e-10 * max(1.0, prev),
                        f"distance {answer!r} fell below {prev!r} along the m-ladder")
                self.ladder[req["family"]] = answer
            return
        if call == "check":
            lhs, rhs = answer
            require(lhs <= rhs + 1e-3, f"||f(T)|| = {lhs!r} > rhs {rhs!r} + 1e-3")
            return
        range_residual, _ = answer
        require(range_residual <= 1e-8, f"kernel range residual {range_residual!r}")

    def _check_cli(self, req, rc):
        report = self._report(rc)
        r = report["results"]
        action = req["argv"][1]
        check = getattr(self, f"_cli_{req['argv'][0]}_{action}")
        check(req, r)
        if req["argv"][0] == "ideal":
            key = json.dumps([req["argv"], req["doc"]], sort_keys=True)
            if key in self.answers:
                require(same_answer(self.answers[key], r), "repeated request got another answer")
            self.answers[key] = r
            while len(self.answers) > KEEP_ANSWERS:
                del self.answers[next(iter(self.answers))]

    def _cli_poisson_vonneumann(self, req, r):
        require(r["lhs"] <= r["upper"] * (1 + 1e-12), f"lhs {r['lhs']!r} > upper {r['upper']!r}")
        require(r["lower"] <= r["upper"] * (1 + 1e-12), "lower above upper")
        self.norm_gaps.append((r["upper"] - r["lower"]) / r["upper"])

    def _cli_poisson_kernel(self, req, r):
        require(r["identity_residual"] <= 1e-12, f"identity residual {r['identity_residual']!r}")

    def _cli_poisson_c0(self, req, r):
        s = r["sigma"]
        require(abs(s[0] - 1.0) <= 1e-12, f"sigma_0 = {s[0]!r}")
        require(all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(s, s[1:])),
                "sigma sequence increases")

    def _cli_poisson_covariance(self, req, r):
        require(abs(r["identity_word_residual"] - r["sigma_tail"]) <= 1e-12,
                "empty-word residual differs from sigma_(m+1)")
        require(r["max_residual"] >= r["identity_word_residual"] - 1e-12,
                "max residual below the empty-word residual")

    def _cli_ideal_basis(self, req, r):
        if req["homogeneous"]:
            check_grades(req["doc"]["n"], r["grade_dimensions"])

    def _cli_ideal_distance(self, req, r):
        require(math.isfinite(r["distance"]) and r["distance"] >= 0.0, f"distance {r['distance']!r}")

    def _cli_ideal_compressions(self, req, r):
        if "relation_residual" in r:
            require(r["relation_residual"] <= 1e-8, f"relation residual {r['relation_residual']!r}")

    def _cli_ideal_check(self, req, r):
        require(r["lhs"] <= r["rhs"] + 1e-3, f"lhs {r['lhs']!r} > rhs {r['rhs']!r} + 1e-3")


def check_grades(n: int, dims):
    """Grade k of a q-commutation quotient has dimension C(k+n-1, n-1)."""
    want = [math.comb(k + n - 1, n - 1) for k in range(len(dims))]
    require(list(dims) == want, f"grade dimensions {dims} != {want}")


def same_answer(a, b, rtol=1e-9) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_answer(a[k], b[k], rtol) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_answer(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))
    return a == b

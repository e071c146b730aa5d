"""Command-line front end: JSON problem files, dispatch, text and JSON reports.

Problem files are strict JSON documents with a fixed vocabulary: kind, n,
points, targets, polynomial, generators, lambda_q, degree, tol, kmax.
Complex numbers are two-element arrays [re, im], points are arrays of
complex, matrices are row-major nested arrays, and polynomials are arrays of
{"word": [indices], "coeff": [re, im]} objects (matrix-valued entries add
"block": [row, col]).  Unknown fields are rejected.

Exit codes: 0 computed, 1 computed with a property violation (for example an
infeasible interpolation problem), 2 input error (schema, domain, singular
Gram matrix, other ValueError), 3 resource cap (ResourceCapError or
MemoryError), 4 internal numerical failure (numpy LinAlgError or another
RuntimeError, such as ARPACK non-convergence).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import freealg, ideals, pick, poisson
from .errors import DomainError, ResourceCapError, SingularGramError
from .freealg import BallPoint, NcMatrixPolynomial, NcPolynomial
from .numerics import DEFAULT_TOL, operator_norm, psd_check

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

DEFAULT_KMAX = 20
CONVERGENCE_SLACK = 1e-3   # slack on soft bounds whose right side converges upward
STABILIZED_GAP = 1e-6      # a norm bracket this narrow, relative to max(1, upper), is stabilized

_VOCABULARY = {"kind", "n", "points", "targets", "polynomial", "generators",
               "lambda_q", "degree", "tol", "kmax"}
_KIND_FIELDS = {
    "pick": {"kind", "n", "points", "targets", "tol"},
    "caratheodory": {"kind", "n", "polynomial", "degree", "tol"},
    "poisson": {"kind", "n", "targets", "points", "polynomial", "degree", "tol", "kmax"},
    "ideal": {"kind", "n", "generators", "lambda_q", "polynomial", "targets", "points",
              "degree", "tol", "kmax"},
}


class SchemaError(ValueError):
    """Problem-file validation failure, naming the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def default_degree(n: int) -> int:
    return 8 if n <= 2 else 6


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, path) -> complex:
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))):
        raise SchemaError(path, "expected a complex number as [re, im]")
    return complex(value[0], value[1])


def _as_int(value, path, minimum=0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise SchemaError(path, f"expected an integer >= {minimum}")
    return value


def _as_tol(value, path) -> float:
    if not _is_number(value) or value <= 0:
        raise SchemaError(path, "expected a positive number")
    return float(value)


def _as_point(value, path, n) -> BallPoint:
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected {n} complex coordinates")
    coords = [_as_complex(c, f"{path}[{t}]") for t, c in enumerate(value)]
    try:
        return BallPoint(coords)
    except DomainError as exc:
        raise SchemaError(path, str(exc)) from exc


def _as_matrix(value, path) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a nonempty row-major matrix")
    rows = []
    width = None
    for r, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{path}[{r}]", "expected a nonempty matrix row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}[{r}]", f"expected {width} entries")
        rows.append([_as_complex(c, f"{path}[{r}][{s}]") for s, c in enumerate(row)])
    return np.array(rows, dtype=complex)


def _as_polynomial(value, path, n):
    """Scalar NcPolynomial, or NcMatrixPolynomial when entries carry blocks."""
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array of term objects")
    scalar_terms = {}
    block_terms = {}
    has_block = False
    for t, entry in enumerate(value):
        tpath = f"{path}[{t}]"
        if not isinstance(entry, dict):
            raise SchemaError(tpath, "expected a term object")
        extra = set(entry) - {"word", "coeff", "block"}
        if extra:
            raise SchemaError(tpath, f"unexpected field '{sorted(extra)[0]}'")
        if "word" not in entry or "coeff" not in entry:
            raise SchemaError(tpath, "term needs 'word' and 'coeff'")
        word = entry["word"]
        if not isinstance(word, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= n for i in word):
            raise SchemaError(f"{tpath}.word", f"expected generator indices in 1..{n}")
        word = tuple(word)
        coeff = _as_complex(entry["coeff"], f"{tpath}.coeff")
        if "block" in entry:
            has_block = True
            block = entry["block"]
            if not (isinstance(block, list) and len(block) == 2 and all(
                    isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in block)):
                raise SchemaError(f"{tpath}.block", "expected [row, col] nonnegative integers")
            key = (block[0], block[1])
            block_terms.setdefault(key, {})
            block_terms[key][word] = block_terms[key].get(word, 0.0) + coeff
        else:
            scalar_terms[word] = scalar_terms.get(word, 0.0) + coeff
    if has_block:
        if scalar_terms:
            raise SchemaError(path, "mixing block and scalar terms is not allowed")
        size = 1 + max(max(r, c) for r, c in block_terms)
        entries = [[NcPolynomial(n, block_terms.get((r, c), {})) for c in range(size)]
                   for r in range(size)]
        return NcMatrixPolynomial(n, entries)
    return NcPolynomial(n, scalar_terms)


def _as_lambda_q(value, path):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    if isinstance(value, list):
        table = {}
        for t, row in enumerate(value):
            if not (isinstance(row, list) and len(row) == 4
                    and isinstance(row[0], int) and isinstance(row[1], int)
                    and _is_number(row[2]) and _is_number(row[3])):
                raise SchemaError(f"{path}[{t}]", "expected [j, i, re, im]")
            table[(row[0], row[1])] = complex(row[2], row[3])
        return table
    raise SchemaError(path, "expected a number, [re, im], or an array of [j, i, re, im]")


@dataclass
class ProblemFile:
    """Validated problem document plus the decoded domain objects."""

    document: dict
    kind: str
    n: int
    points: list = None
    targets: list = None
    polynomial: object = None
    generators: list = None
    lambda_q: object = None
    degree: int = None
    tol: float = None
    kmax: int = None

    def to_json_dict(self) -> dict:
        return self.document


def parse_document(doc: dict) -> ProblemFile:
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    kind = doc.get("kind")
    if kind not in _KIND_FIELDS:
        raise SchemaError("kind", f"expected one of {sorted(_KIND_FIELDS)}")
    allowed = _KIND_FIELDS[kind]
    for key in doc:
        if key not in _VOCABULARY:
            raise SchemaError(key, "unknown field")
        if key not in allowed:
            raise SchemaError(key, f"field not allowed for kind '{kind}'")
    if "n" not in doc:
        raise SchemaError("n", "missing field")
    n = _as_int(doc["n"], "n", minimum=1)
    out = ProblemFile(document=doc, kind=kind, n=n)

    if "points" in doc:
        if not isinstance(doc["points"], list) or not doc["points"]:
            raise SchemaError("points", "expected a nonempty array of points")
        out.points = [_as_point(p, f"points[{j}]", n) for j, p in enumerate(doc["points"])]
    if "targets" in doc:
        if not isinstance(doc["targets"], list) or not doc["targets"]:
            raise SchemaError("targets", "expected a nonempty array of matrices")
        mats = [_as_matrix(w, f"targets[{j}]") for j, w in enumerate(doc["targets"])]
        for j, w in enumerate(mats):
            if w.shape != mats[0].shape:
                raise SchemaError(f"targets[{j}]",
                                  f"shape {w.shape} differs from {mats[0].shape}")
            if w.shape[0] != w.shape[1]:
                raise SchemaError(f"targets[{j}]", "expected a square matrix")
        out.targets = mats
    if "polynomial" in doc:
        out.polynomial = _as_polynomial(doc["polynomial"], "polynomial", n)
    if "generators" in doc:
        if not isinstance(doc["generators"], list):
            raise SchemaError("generators", "expected an array of polynomials")
        gens = []
        for j, g in enumerate(doc["generators"]):
            g = _as_polynomial(g, f"generators[{j}]", n)
            if isinstance(g, NcMatrixPolynomial):
                raise SchemaError(f"generators[{j}]", "generators must be scalar polynomials")
            gens.append(g)
        out.generators = gens
    if "lambda_q" in doc:
        out.lambda_q = _as_lambda_q(doc["lambda_q"], "lambda_q")
    if "degree" in doc:
        out.degree = _as_int(doc["degree"], "degree", minimum=0)
    if "tol" in doc:
        out.tol = _as_tol(doc["tol"], "tol")
    if "kmax" in doc:
        out.kmax = _as_int(doc["kmax"], "kmax", minimum=0)
    return out


def parse_problem(path: str) -> ProblemFile:
    """Load and validate a problem file; diagnostics name the offending field."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError("$", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON in {path}: {exc}") from exc
    return parse_document(doc)


def _jsonify(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return _jsonify(value.item())
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return str(value)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return f"[{value.real!r}, {value.imag!r}]"
    if isinstance(value, (list, tuple, dict, np.ndarray)):
        return json.dumps(_jsonify(value))
    return str(value)


@dataclass
class Report:
    command: str
    kind: str
    parameters: dict
    results: dict
    warnings: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    violation: bool = False

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "kind": self.kind,
            "parameters": _jsonify(self.parameters),
            "results": _jsonify(self.results),
            "warnings": list(self.warnings),
            "notes": list(self.notes),
            "violation": self.violation,
        }

    def to_text(self) -> str:
        lines = [f"ncfock {self.command} (kind={self.kind})"]
        for key, value in self.parameters.items():
            lines.append(f"  param {key} = {_format_value(value)}")
        for key, value in self.results.items():
            lines.append(f"  {key} = {_format_value(value)}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        if self.violation:
            lines.append("  property violation detected")
        return "\n".join(lines)


def _resolve(problem: ProblemFile, flags) -> dict:
    tol = flags.tol if flags.tol is not None else problem.tol
    if tol is None:
        tol = DEFAULT_TOL
    degree = flags.degree if flags.degree is not None else problem.degree
    if degree is None:
        degree = default_degree(problem.n)
    kmax = flags.kmax if flags.kmax is not None else problem.kmax
    if kmax is None:
        kmax = DEFAULT_KMAX
    return {"tol": tol, "degree": degree, "kmax": kmax}


def _pick_problem(problem: ProblemFile) -> pick.PickProblem:
    if problem.points is None:
        raise SchemaError("points", "missing field")
    if problem.targets is None:
        raise SchemaError("targets", "missing field")
    return pick.PickProblem(problem.points, problem.targets)


def _row_contraction(problem: ProblemFile) -> poisson.RowContraction:
    if problem.targets is not None:
        if len(problem.targets) != problem.n:
            raise SchemaError("targets", f"expected {problem.n} tuple entries")
        return poisson.RowContraction(problem.targets)
    if problem.points is not None:
        return poisson.RowContraction.diagonal(problem.points)
    raise SchemaError("targets", "a tuple needs 'targets' (matrices) or 'points' (diagonal)")


def _scalar_polynomial(problem: ProblemFile) -> NcPolynomial:
    if problem.polynomial is None:
        raise SchemaError("polynomial", "missing field")
    if isinstance(problem.polynomial, NcMatrixPolynomial):
        raise SchemaError("polynomial", "this command needs a scalar polynomial")
    return problem.polynomial


def _ideal_spec(problem: ProblemFile, m: int) -> ideals.IdealSpec:
    if problem.lambda_q is not None and problem.generators is not None:
        raise SchemaError("lambda_q", "give either 'generators' or 'lambda_q', not both")
    if problem.lambda_q is not None:
        return ideals.q_commutation_spec(problem.n, problem.lambda_q, m)
    if problem.generators is not None:
        return ideals.IdealSpec(problem.n, tuple(problem.generators), m)
    raise SchemaError("generators", "an ideal needs 'generators' or 'lambda_q'")


def _serialize_matrix_polynomial(phi: NcMatrixPolynomial) -> list:
    out = []
    rows, cols = phi.shape
    for a in range(rows):
        for b in range(cols):
            for word, coeff in sorted(phi.entries[a][b].terms.items(),
                                      key=lambda t: (len(t[0]), t[0])):
                term = {"word": list(word), "coeff": [coeff.real, coeff.imag]}
                if rows > 1 or cols > 1:
                    term["block"] = [a, b]
                out.append(term)
    return out


def _handle_pick(action, problem, params) -> Report:
    prob = _pick_problem(problem)
    base = {"k": prob.k, "target_dim": prob.target_dim}
    if action == "check":
        cert = pick.certify(prob, params["tol"])
        report = Report("pick check", "pick", params, dict(base, **{
            "feasible": cert.feasible,
            "min_eigenvalue": cert.min_eigenvalue,
            "min_norm": cert.min_norm,
            "marginal": cert.marginal,
        }), violation=not cert.feasible)
        report.notes.append(
            "feasibility certifies an interpolant of norm <= 1 in the weakly closed "
            "multiplier algebra; norm-closed interpolation attains 1 + eps for every "
            "eps > 0")
        report.notes.append(
            "positivity is tested non-strictly within tol; strictly positive versus "
            "singular PSD differs only on marginal boundary problems")
        if cert.marginal:
            report.warnings.append(
                "marginal verdict: the minimal eigenvalue lies within tolerance of zero")
        return report
    if action == "norm":
        cstar = pick.min_interpolation_norm(prob)
        return Report("pick norm", "pick", params, dict(base, **{
            "min_norm": cstar,
            "feasible_at_one": bool(cstar <= 1.0 + params["tol"]),
        }))
    if action == "interpolant":
        phi = pick.lagrange_interpolant(prob)  # its caps come before the k N x k N c* solve
        warnings_ = []
        try:
            min_norm = pick.min_interpolation_norm(prob)
        except SingularGramError as exc:
            min_norm = None
            warnings_.append(f"min_norm not computed: {exc}")
        residual = max(operator_norm(phi.evaluate(p) - w)
                       for p, w in zip(prob.points, prob.targets))
        if residual > params["tol"]:
            warnings_.append(
                f"interpolation residual {residual:.3e} exceeds tol: the monomial "
                f"coefficients of clustered nodes lose digits in double precision")
        report = Report("pick interpolant", "pick", params, dict(base, **{
            "degree": int(phi.degree),
            "max_interpolation_residual": float(residual),
            "norm_upper": float(sum(phi.grade_norms())),
            "min_norm": min_norm,
            "interpolant": _serialize_matrix_polynomial(phi),
        }), warnings=warnings_)
        report.notes.append(
            "min_norm <= ||interpolant|| <= norm_upper: c* is the least norm of any "
            "interpolant, norm_upper the sum of the grade norms")
        return report
    if action == "classical":
        if prob.target_dim != 1:
            raise SchemaError("targets", "the classical comparison needs scalar targets")
        verdict = psd_check(pick.classical_ball_matrix(prob), params["tol"])
        return Report("pick classical", "pick", params, dict(base, **{
            "is_psd": verdict.is_psd,
            "min_eigenvalue": verdict.min_eigenvalue,
            "marginal": verdict.is_marginal,
        }), violation=not verdict.is_psd)
    raise SchemaError("$", f"unknown pick action '{action}'")


def _handle_caratheodory(problem, params, flags) -> Report:
    p = _scalar_polynomial(problem)
    if flags.degree is not None:
        m0 = flags.degree
    elif problem.degree is not None:
        m0 = problem.degree
    else:
        m0 = max(int(p.degree), 0) if not p.is_zero else 0
    params = dict(params, degree=m0)
    distance = ideals.caratheodory_distance(p, m0)
    return Report("caratheodory", "caratheodory", params, {
        "degree": m0,
        "distance": distance,
    })


def _handle_poisson(action, problem, params) -> Report:
    T = _row_contraction(problem)
    base = {"n": T.n, "d": T.d}
    m = params["degree"]
    if action == "c0":
        sigmas = poisson.c0_sequence(T, params["kmax"])
        certified = sigmas[-1] < params["tol"]
        report = Report("poisson c0", "poisson", params, dict(base, **{
            "sigma": sigmas,
            "certified_c0": bool(certified),
        }))
        if not certified:
            report.warnings.append(
                f"sigma_kmax = {sigmas[-1]:.6e} has not decayed below tol; "
                "kernel truncations carry an uncertified tail")
        return report
    if action == "kernel":
        kernel = poisson.poisson_kernel(T, m, params["tol"])
        x = np.eye(T.d, dtype=complex)
        for _ in range(m + 1):
            x = T.cp_map(x)
        identity_residual = operator_norm(
            np.eye(T.d) - kernel.matrix.conj().T @ kernel.matrix - x)
        report = Report("poisson kernel", "poisson", params, dict(base, **{
            "rows": int(kernel.matrix.shape[0]),
            "cols": int(kernel.matrix.shape[1]),
            "tail": kernel.tail,
            "certified": kernel.certified,
            "identity_residual": float(identity_residual),
        }))
        if not kernel.certified:
            report.warnings.append(
                f"uncertified tail {kernel.tail:.6e} at degree {m}")
        return report
    if action == "vonneumann":
        p = _scalar_polynomial(problem)
        lower, upper = bounds = freealg.sup_norm_bounds(p, m)
        lhs = operator_norm(T.evaluate_polynomial(p))
        violated = lhs > upper + 1e-12 * max(1.0, upper)
        report = Report("poisson vonneumann", "poisson", params, dict(base, **{
            "lhs": float(lhs),
            "lower": lower,
            "upper": upper,
            "gap": upper - lower,
            "upper_method": bounds.upper_method,
            "degree_used": m,
            "stabilized": upper - lower <= STABILIZED_GAP * max(1.0, upper),
        }), violation=bool(violated))
        if violated:
            report.warnings.append("hard inequality ||p(T)|| <= upper bound FAILED")
        return report
    if action == "covariance":
        words = [w for k in range(min(2, m) + 1)
                 for w in itertools.product(range(1, T.n + 1), repeat=k)]
        pairs = [(alpha, beta) for alpha in words for beta in words]
        residuals = poisson.poisson_covariance_residuals(T, pairs, m)
        worst = int(np.argmax(residuals))
        sigma_tail = poisson.c0_sequence(T, m + 1)[-1]
        return Report("poisson covariance", "poisson", params, dict(base, **{
            "max_residual": float(residuals[worst]),
            "argmax_alpha": list(pairs[worst][0]),
            "argmax_beta": list(pairs[worst][1]),
            "identity_word_residual": float(residuals[0]),
            "sigma_tail": float(sigma_tail),
        }))
    raise SchemaError("$", f"unknown poisson action '{action}'")


def _handle_ideal(action, problem, params) -> Report:
    m = params["degree"]
    spec = _ideal_spec(problem, m)
    model = ideals.build_quotient(spec)
    base = {"quotient_dim": model.dim, "reliable_degree": model.reliable_degree}
    warnings_ = []
    if model.trivial:
        warnings_.append("trivial quotient: the padded ideal fills the whole space")
    if model.approximate:
        warnings_.append(
            "non-homogeneous generators: the model is a dense approximation only")
    if action == "basis":
        wi = freealg.WordIndex(spec.n, spec.m)
        report = Report("ideal basis", "ideal", params, dict(base, **{
            "space_dim": wi.dim,
            "ideal_dim": wi.dim - model.dim,
            "grade_dimensions": model.grade_dimensions(),
        }))
        report.warnings.extend(warnings_)
        return report
    if action == "distance":
        f = _scalar_polynomial(problem)
        distance = ideals.quotient_distance(f, spec, model=model)
        report = Report("ideal distance", "ideal", params, dict(base, **{
            "distance": distance,
        }))
        report.warnings.extend(warnings_)
        report.notes.append(
            "finite-degree lower bound, nondecreasing in the working degree")
        return report
    if action == "compressions":
        results = dict(base)
        results["compression_norms"] = [operator_norm(model.compressions[i])
                                        for i in range(spec.n)]
        if problem.lambda_q is not None and not model.trivial and model.grades is not None:
            keep = np.flatnonzero(model.grades <= model.reliable_degree)
            results["relation_residual"] = max(
                operator_norm(model.evaluate_polynomial(g)[:, keep]) for g in spec.generators)
        if model.dim <= 32:
            results["compressions"] = [model.compressions[i] for i in range(spec.n)]
        report = Report("ideal compressions", "ideal", params, results)
        report.warnings.extend(warnings_)
        report.notes.append(
            "relation and semi-invariance statements certified on grades <= "
            f"{model.reliable_degree} only")
        return report
    if action == "check":
        f = _scalar_polynomial(problem)
        T = _row_contraction(problem)
        lhs, rhs = ideals.constrained_von_neumann_check(
            T, f, spec, model=model, gen_tol=params["tol"])
        range_residual, covariance_residual = ideals.quotient_poisson_check(
            T, spec, m, model=model, gen_tol=params["tol"])
        violated = lhs > rhs + CONVERGENCE_SLACK
        report = Report("ideal check", "ideal", params, dict(base, **{
            "lhs": lhs,
            "rhs": rhs,
            "range_residual": range_residual,
            "covariance_residual": covariance_residual,
            "convergence_slack": CONVERGENCE_SLACK,
        }), violation=bool(violated))
        report.warnings.extend(warnings_)
        if violated:
            report.warnings.append(
                "||f(T)|| exceeds the quotient distance beyond the convergence slack")
        report.notes.append(
            "rhs is a finite-degree lower bound of the quotient distance")
        return report
    raise SchemaError("$", f"unknown ideal action '{action}'")


def dispatch(command, problem: ProblemFile, flags) -> Report:
    """Run a (group, action) command against a parsed problem."""
    group, action = command
    if problem.kind != group:
        raise SchemaError("kind", f"kind '{problem.kind}' does not match command '{group}'")
    params = _resolve(problem, flags)
    if group == "pick":
        report = _handle_pick(action, problem, {"tol": params["tol"]})
    elif group == "caratheodory":
        report = _handle_caratheodory(problem, {"tol": params["tol"]}, flags)
    elif group == "poisson":
        report = _handle_poisson(action, problem, params)
    else:
        report = _handle_ideal(action, problem, params)
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfock",
        description="Numerical noncommutative interpolation and Poisson transforms")
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {
        "pick": ["check", "norm", "interpolant", "classical"],
        "caratheodory": None,
        "poisson": ["kernel", "c0", "vonneumann", "covariance"],
        "ideal": ["basis", "distance", "compressions", "check"],
    }
    for group, actions in groups.items():
        g = sub.add_parser(group)
        if actions:
            g.add_argument("action", choices=actions)
        g.add_argument("problem", help="path to a JSON problem file")
        g.add_argument("--degree", type=int, default=None, help="truncation degree m")
        g.add_argument("--tol", type=float, default=None, help="tolerance (default 1e-10)")
        g.add_argument("--kmax", type=int, default=None, help="decay-sequence length")
        g.add_argument("--json", action="store_true", help="emit a JSON report")
        g.add_argument("--out", default=None, help="write the report to a file")
    return parser


def _emit(report: Report, flags):
    text = (json.dumps(report.to_json_dict(), indent=2)
            if flags.json else report.to_text())
    if flags.out:
        with open(flags.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = (args.group, getattr(args, "action", None))
    try:
        problem = parse_problem(args.problem)
        report = dispatch(command, problem, args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (SchemaError, DomainError, SingularGramError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args)
    return EXIT_VIOLATION if report.violation else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

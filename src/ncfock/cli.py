"""Command-line front end: JSON problem files, dispatch, text and JSON reports.

Problem files are strict JSON documents with a fixed vocabulary: kind, n,
points, targets, polynomial, generators, lambda_q, degree, tol, kmax.
Complex numbers are two-element arrays [re, im], points are arrays of
complex, matrices are row-major nested arrays, and polynomials are arrays of
{"word": [indices], "coeff": [re, im]} objects.  Unknown fields are rejected,
and so are NaN, Infinity and integers too large for a double.  The "block":
[row, col] term field appears only in the interpolant that `pick
interpolant` writes, never in input.  `_json_text` writes a --json report as
json.dumps(., indent=2) lays it out, and a text report's containers on one
line, in one walk of the report's own values: complex as [re, im], arrays as
lists, numpy scalars as Python numbers, keys and other objects through str.

Exit codes: 0 computed, 1 computed with a property violation (for example an
infeasible interpolation problem), 2 input error (schema, domain, singular
Gram matrix, other ValueError), 3 resource cap (ResourceCapError or
MemoryError), 4 internal failure (numpy LinAlgError, a RuntimeError such as
ARPACK non-convergence, or any other exception).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

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


class SchemaError(ValueError):
    """Problem-file validation failure, naming the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def default_degree(n: int) -> int:
    return 8 if n <= 2 else 6


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max   # json.load admits NaN, Infinity and huge ints


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


def _as_points(value, path, n) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a nonempty array of points")
    return [_as_point(p, f"{path}[{j}]", n) for j, p in enumerate(value)]


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


def _as_targets(value, path, n) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a nonempty array of matrices")
    mats = [_as_matrix(w, f"{path}[{j}]") for j, w in enumerate(value)]
    for j, w in enumerate(mats):
        if w.shape != mats[0].shape:
            raise SchemaError(f"{path}[{j}]", f"shape {w.shape} differs from {mats[0].shape}")
        if w.shape[0] != w.shape[1]:
            raise SchemaError(f"{path}[{j}]", "expected a square matrix")
    return mats


def _as_polynomial(value, path, n) -> NcPolynomial:
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array of term objects")
    terms = {}
    for t, entry in enumerate(value):
        tpath = f"{path}[{t}]"
        if not isinstance(entry, dict):
            raise SchemaError(tpath, "expected a term object")
        extra = set(entry) - {"word", "coeff"}
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
        terms[word] = terms.get(word, 0.0) + coeff
    return NcPolynomial(n, terms)


def _as_generators(value, path, n) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array of polynomials")
    return [_as_polynomial(g, f"{path}[{j}]", n) for j, g in enumerate(value)]


def _as_lambda_q(value, path):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    if isinstance(value, list):
        table = {}
        for t, row in enumerate(value):
            if not (isinstance(row, list) and len(row) == 4
                    and all(isinstance(i, int) and not isinstance(i, bool) for i in row[:2])
                    and _is_number(row[2]) and _is_number(row[3])):
                raise SchemaError(f"{path}[{t}]", "expected [j, i, re, im] with integers j, i")
            if (row[0], row[1]) in table:
                raise SchemaError(f"{path}[{t}]", f"repeats the pair ({row[0]}, {row[1]})")
            table[(row[0], row[1])] = complex(row[2], row[3])
        return table
    raise SchemaError(path, "expected a number, [re, im], or an array of [j, i, re, im]")


# Every optional document field, in decoding order, with its decoder
# (value, path, n); the --degree, --tol and --kmax flags use the same ones.
_FIELDS = {
    "points": _as_points,
    "targets": _as_targets,
    "polynomial": _as_polynomial,
    "generators": _as_generators,
    "lambda_q": lambda value, path, n: _as_lambda_q(value, path),
    "degree": lambda value, path, n: _as_int(value, path),
    "tol": lambda value, path, n: _as_tol(value, path),
    "kmax": lambda value, path, n: _as_int(value, path),
}
_DEFAULTS = {"tol": DEFAULT_TOL, "kmax": DEFAULT_KMAX}
# The parameter flags: type and help; a kind accepts those in its parameters.
_FLAGS = {"degree": (int, "truncation degree m"),
          "tol": (float, "tolerance (default 1e-10)"),
          "kmax": (int, "decay-sequence length")}


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


def parse_document(doc: dict) -> ProblemFile:
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError("kind", f"expected one of {sorted(KINDS)}")
    for key in doc:
        if key in ("kind", "n"):
            continue
        if key not in _FIELDS:
            raise SchemaError(key, "unknown field")
        if key not in KINDS[kind].fields:
            raise SchemaError(key, f"field not allowed for kind '{kind}'")
    if "n" not in doc:
        raise SchemaError("n", "missing field")
    n = _as_int(doc["n"], "n", minimum=1)
    return ProblemFile(document=doc, kind=kind, n=n, **{
        name: decode(doc[name], name, n) for name, decode in _FIELDS.items() if name in doc})


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


def _format_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return f"[{value.real!r}, {value.imag!r}]"
    if isinstance(value, (list, tuple, dict, np.ndarray)):
        return _json_text(value, None)
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
            "parameters": self.parameters,
            "results": self.results,
            "warnings": self.warnings,
            "notes": self.notes,
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
    return problem.polynomial


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


# Subjects: (problem, params, report) -> the object every action of the kind
# reads; each puts the kind's leading results and warnings into the report.

def _pick_subject(problem, params, report) -> pick.PickProblem:
    if problem.points is None:
        raise SchemaError("points", "missing field")
    if problem.targets is None:
        raise SchemaError("targets", "missing field")
    prob = pick.PickProblem(problem.points, problem.targets)
    report.results.update(k=prob.k, target_dim=prob.target_dim)
    return prob


def _poisson_subject(problem, params, report) -> poisson.RowContraction:
    T = _row_contraction(problem)
    report.results.update(n=T.n, d=T.d)
    return T


def _ideal_subject(problem, params, report) -> ideals.QuotientModel:
    if problem.lambda_q is not None and problem.generators is not None:
        raise SchemaError("lambda_q", "give either 'generators' or 'lambda_q', not both")
    if problem.lambda_q is not None:
        try:
            spec = ideals.q_commutation_spec(problem.n, problem.lambda_q, params["degree"])
        except ideals.FactorTableError as exc:
            # the table's keys are the rows' pairs, in row order
            row = "" if exc.pair is None else f"[{list(problem.lambda_q).index(exc.pair)}]"
            raise SchemaError(f"lambda_q{row}", str(exc)) from exc
    elif problem.generators is not None:
        spec = ideals.IdealSpec(problem.n, tuple(problem.generators), params["degree"])
    else:
        raise SchemaError("generators", "an ideal needs 'generators' or 'lambda_q'")
    model = ideals.build_quotient(spec)
    report.results.update(quotient_dim=model.dim, reliable_degree=model.reliable_degree)
    if model.trivial:
        report.warnings.append("trivial quotient: the padded ideal fills the whole space")
    if model.approximate:
        report.warnings.append(
            "non-homogeneous generators: the model is an approximation only")
    return model


def _caratheodory_degree(problem) -> int:
    p = _scalar_polynomial(problem)
    return 0 if p.is_zero else int(p.degree)


# Actions: (subject, problem, params, report) -> None, filling the report.

def _pick_check(prob, problem, params, report):
    cert = pick.certify(prob, params["tol"])
    report.results.update(feasible=cert.feasible, min_eigenvalue=cert.min_eigenvalue,
                          min_norm=cert.min_norm, gram_condition=cert.gram_condition,
                          marginal=cert.marginal)
    report.violation = not cert.feasible
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


def _pick_norm(prob, problem, params, report):
    cstar, condition = pick.min_norm_and_condition(prob)
    report.results.update(min_norm=cstar, gram_condition=condition,
                          feasible_at_one=bool(cstar <= 1.0 + params["tol"]))


def _pick_interpolant(prob, problem, params, report):
    phi = pick.lagrange_interpolant(prob)  # its caps come before the k N x k N c* solve
    try:
        min_norm, condition = pick.min_norm_and_condition(prob)
    except SingularGramError as exc:
        min_norm = condition = None
        report.warnings.append(f"min_norm not computed: {exc}")
    # all k node values from one (n, k, 1, 1) stack of the points
    nodes = prob.coords.T[:, :, None, None]
    residual = max(operator_norm(v - w)
                   for v, w in zip(freealg.evaluate(phi, nodes), prob.targets))
    if residual > params["tol"]:
        report.warnings.append(
            f"interpolation residual {residual:.3e} exceeds tol: the monomial "
            f"coefficients of clustered nodes lose digits in double precision")
    # all-zero targets give the zero interpolant, of degree -inf: reported as 0
    report.results.update(degree=max(phi.degree, 0), max_interpolation_residual=float(residual),
                          norm_upper=float(sum(phi.grade_norms())), min_norm=min_norm,
                          gram_condition=condition,
                          interpolant=_serialize_matrix_polynomial(phi))
    report.notes.append(
        "min_norm <= ||interpolant|| <= norm_upper: c* is the least norm of any "
        "interpolant, norm_upper the sum of the grade norms")


def _pick_classical(prob, problem, params, report):
    if prob.target_dim != 1:
        raise SchemaError("targets", "the classical comparison needs scalar targets")
    verdict = psd_check(pick.classical_ball_matrix(prob), params["tol"])
    report.results.update(is_psd=verdict.is_psd, min_eigenvalue=verdict.min_eigenvalue,
                          marginal=verdict.is_marginal)
    report.violation = not verdict.is_psd


def _caratheodory(p, problem, params, report):
    distance = ideals.caratheodory_distance(p, params["degree"])
    report.results.update(degree=params["degree"], distance=distance)


def _poisson_c0(T, problem, params, report):
    sigmas = poisson.c0_sequence(T, params["kmax"])
    certified = sigmas[-1] < params["tol"]
    report.results.update(sigma=sigmas, certified_c0=bool(certified))
    if not certified:
        report.warnings.append(
            f"sigma_kmax = {sigmas[-1]:.6e} has not decayed below tol; "
            "kernel truncations carry an uncertified tail")


def _poisson_kernel(T, problem, params, report):
    m = params["degree"]
    kernel = poisson.poisson_kernel(T, m, params["tol"])
    x = np.eye(T.d, dtype=complex)
    for _ in range(m + 1):
        x = T.cp_map(x)
    identity_residual = operator_norm(kernel.defect - x)
    report.results.update(rows=int(kernel.matrix.shape[0]), cols=int(kernel.matrix.shape[1]),
                          tail=kernel.tail, certified=kernel.certified,
                          identity_residual=float(identity_residual))
    if not kernel.certified:
        report.warnings.append(f"uncertified tail {kernel.tail:.6e} at degree {m}")


def _poisson_vonneumann(T, problem, params, report):
    p = _scalar_polynomial(problem)
    m = params["degree"]
    lower, upper = bounds = freealg.sup_norm_bounds(p, m)
    lhs = operator_norm(freealg.evaluate(p, T.matrices))
    violated = lhs > upper + 1e-12 * max(1.0, upper)
    report.results.update(lhs=float(lhs), lower=lower, upper=upper, gap=upper - lower,
                          lower_method=bounds.lower_method, upper_method=bounds.upper_method,
                          degree_used=m if bounds.lower_method == "truncated" else None,
                          stabilized=upper - lower <= STABILIZED_GAP * max(1.0, upper))
    report.violation = bool(violated)
    if violated:
        report.warnings.append("hard inequality ||p(T)|| <= upper bound FAILED")


def _poisson_covariance(T, problem, params, report):
    m = params["degree"]
    # (alpha, beta) and (beta, alpha) give adjoint operators with equal residuals
    pairs = list(itertools.combinations_with_replacement(
        freealg.WordIndex(T.n, min(2, m)).words(), 2))
    residuals = poisson.poisson_covariance_residuals(T, pairs, m)
    worst = int(np.argmax(residuals))
    sigma_tail = poisson.c0_sequence(T, m + 1)[-1]
    report.results.update(max_residual=float(residuals[worst]),
                          argmax_alpha=list(pairs[worst][0]),
                          argmax_beta=list(pairs[worst][1]),
                          identity_word_residual=float(residuals[0]),
                          sigma_tail=float(sigma_tail))


def _ideal_basis(model, problem, params, report):
    wi = freealg.WordIndex(model.spec.n, model.spec.m)
    report.results.update(space_dim=wi.dim, ideal_dim=wi.dim - model.dim,
                          grade_dimensions=model.grade_dimensions())


def _ideal_distance(model, problem, params, report):
    f = _scalar_polynomial(problem)
    report.results["distance"] = ideals.quotient_distance(f, model.spec, model=model)
    status = ("finite-degree approximation, neither a bound nor monotone" if model.approximate
              else "finite-degree lower bound, nondecreasing")
    report.notes.append(f"{status} in the working degree")


def _ideal_compressions(model, problem, params, report):
    n = model.spec.n
    report.results["compression_norms"] = [operator_norm(model.compressions[i])
                                           for i in range(n)]
    if model.grades is not None:
        keep = np.flatnonzero(model.grades <= model.reliable_degree)
        report.results["relation_residual"] = max(
            (operator_norm(freealg.evaluate(g, model.compressions)[:, keep])
             for g in model.spec.generators),
            default=0.0)
    if model.dim <= 32:
        report.results["compressions"] = [model.compressions[i] for i in range(n)]
    status = "approximate" if model.approximate else "certified"
    report.notes.append(f"relation and semi-invariance statements {status} on grades <= "
                        f"{model.reliable_degree} only")


def _ideal_check(model, problem, params, report):
    f = _scalar_polynomial(problem)
    T = _row_contraction(problem)
    lhs, rhs, range_residual, covariance_residual = ideals.quotient_checks(
        T, f, model.spec, params["degree"], model=model, gen_tol=params["tol"])
    violated = lhs > rhs + CONVERGENCE_SLACK
    report.results.update(lhs=lhs, rhs=rhs, range_residual=range_residual,
                          covariance_residual=covariance_residual,
                          convergence_slack=CONVERGENCE_SLACK)
    report.violation = bool(violated)
    if violated:
        report.warnings.append(
            "||f(T)|| exceeds the quotient distance beyond the convergence slack")
    rhs_is = "approximation" if model.approximate else "lower bound"
    report.notes.append(f"rhs is a finite-degree {rhs_is} of the quotient distance")


@dataclass(frozen=True)
class Kind:
    """One problem kind: its document fields (beyond kind and n), the
    parameters its reports show, in order, its default degree, its subject
    builder and its actions (None for a kind with a single command)."""

    fields: frozenset
    parameters: tuple
    subject: object
    actions: dict
    default_degree: object = lambda problem: default_degree(problem.n)


KINDS = {
    "pick": Kind(
        frozenset({"points", "targets", "tol"}), ("tol",), _pick_subject,
        {"check": _pick_check, "norm": _pick_norm, "interpolant": _pick_interpolant,
         "classical": _pick_classical}),
    "caratheodory": Kind(
        frozenset({"polynomial", "degree", "tol"}), ("tol", "degree"),
        lambda problem, params, report: _scalar_polynomial(problem),
        {None: _caratheodory}, _caratheodory_degree),
    "poisson": Kind(
        frozenset({"targets", "points", "polynomial", "degree", "tol", "kmax"}),
        ("tol", "degree", "kmax"), _poisson_subject,
        {"kernel": _poisson_kernel, "c0": _poisson_c0, "vonneumann": _poisson_vonneumann,
         "covariance": _poisson_covariance}),
    "ideal": Kind(
        frozenset({"generators", "lambda_q", "polynomial", "targets", "points", "degree",
                   "tol", "kmax"}),
        ("tol", "degree", "kmax"), _ideal_subject,
        {"basis": _ideal_basis, "distance": _ideal_distance,
         "compressions": _ideal_compressions, "check": _ideal_check}),
}


def dispatch(command, problem: ProblemFile, flags) -> Report:
    """Run a (kind, action) command against a parsed problem.

    Each parameter of the kind is its flag (decoded like the file field),
    else the file's value, else the kind's default.  A flag that is not a
    parameter of the kind is an input error.
    """
    group, action = command
    if problem.kind != group:
        raise SchemaError("kind", f"kind '{problem.kind}' does not match command '{group}'")
    kind = KINDS[group]
    for name in _FLAGS:
        if name not in kind.parameters and getattr(flags, name) is not None:
            raise SchemaError(f"--{name}", f"not used by kind '{group}'")
    params = {}
    for name in kind.parameters:
        flag = getattr(flags, name)
        value = getattr(problem, name) if flag is None else _FIELDS[name](
            flag, f"--{name}", problem.n)
        if value is None:
            value = kind.default_degree(problem) if name == "degree" else _DEFAULTS[name]
        params[name] = value
    report = Report(" ".join(filter(None, command)), group, params, {})
    subject = kind.subject(problem, params, report)
    kind.actions[action](subject, problem, params, report)
    return report


@functools.cache   # built on the first main call, then reused: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfock",
        description="Numerical noncommutative interpolation and Poisson transforms")
    sub = parser.add_subparsers(dest="group", required=True)
    for group, kind in KINDS.items():
        g = sub.add_parser(group)
        if None not in kind.actions:
            g.add_argument("action", choices=list(kind.actions))
        g.add_argument("problem", help="path to a JSON problem file")
        for name, (convert, text) in _FLAGS.items():
            g.add_argument(f"--{name}", type=convert, default=None, help=text)
        g.add_argument("--json", action="store_true", help="emit a JSON report")
        g.add_argument("--out", default=None, help="write the report to a file")
    return parser


def _json_scalar(value):
    """The JSON text of a string, number, bool or None as json.dumps writes
    it; of any other object, the JSON string of its str."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return encode_basestring_ascii(str(value))


def _layout(nl):
    """(after the opening bracket, between items, before the closing bracket,
    the items' nl) of a container whose own level is nl."""
    if nl is None:
        return "", ", ", "", None
    inner = nl + "  "
    return inner, "," + inner, nl, inner


def _join_numbers(items, nl):
    """The JSON text of a list of ints, of finite floats, or of complex
    numbers as [re, im] pairs, in one join; None for any other list."""
    head, sep, tail, inner = _layout(nl)
    kinds = set(map(type, items))
    if kinds == {float} or kinds == {int}:
        texts = map(repr, items)
    elif kinds == {complex}:
        pair_head, pair_sep, pair_tail, _ = _layout(inner)
        texts = [f"[{pair_head}{z.real!r}{pair_sep}{z.imag!r}{pair_tail}]" for z in items]
    else:
        return None
    text = "[" + head + sep.join(texts) + tail + "]"
    return None if "n" in text else text   # nan and inf: the stdlib writes NaN, Infinity


def _json_text(value, nl="\n") -> str:
    """The JSON text of value, from one walk: the layout of
    json.dumps(., indent=2) at nl "\n", of json.dumps(.) at nl None."""
    out = []
    _json_chunks(value, out, nl)
    return "".join(out)


def _json_chunks(value, out, nl):
    """Append the chunks of value's JSON text to out; nl is the line break
    and indent of the value's own level, None on one line."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()   # nested lists of Python scalars
    if isinstance(value, complex):
        value = [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        text = _join_numbers(value, nl)
        if text is not None:
            out.append(text)
            return
        head, sep, tail, inner = _layout(nl)
        lead = "[" + head
        for item in value:
            out.append(lead)
            _json_chunks(item, out, inner)
            lead = sep
        out.append(tail + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if set(map(type, value)) != {str}:
            value = {str(key): item for key, item in value.items()}
        head, sep, tail, inner = _layout(nl)
        lead = "{" + head
        for key, item in value.items():
            out.append(lead + encode_basestring_ascii(key) + ": ")
            _json_chunks(item, out, inner)
            lead = sep
        out.append(tail + "}")
    else:
        out.append(_json_scalar(value))


def _emit(report: Report, flags):
    text = _json_text(report.to_json_dict()) if flags.json else report.to_text()
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
    except np.linalg.LinAlgError as exc:   # a ValueError subclass, so caught first
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit(report, args)
    return EXIT_VIOLATION if report.violation else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Operator-valued Nevanlinna-Pick interpolation over the unit ball.

The solvability data is the block Pick matrix built from the kernel Gram
matrix G[i][j] = 1 / (1 - <lambda_i, lambda_j>).  Our block layout is fixed
once and for all: block (i, j) of pick_matrix(problem, c) is
G[i][j] * (c^2 I - W_i W_j*).  Relabelings of that convention are transposes
with the same spectrum; Hermiticity is asserted on construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError, SingularGramError
from .freealg import (MAX_BASIS_SIZE, MAX_DENSE_ENTRIES, BallPoint, NcMatrixPolynomial,
                      NcPolynomial)
from .numerics import (DEFAULT_TOL, PsdVerdict, _blas_threads, as_hermitian, operator_norm,
                       psd_check)

POINT_SEPARATION = 1e-14
GRAM_PD_TOL = 1e-12                  # least eigenvalue of G, relative to max(1, ||G||), for c*
SEPARATION_BLOCK_ENTRIES = 2 ** 20   # cap on the pairwise gap array of one block of nodes


class PickProblem:
    """k distinct nodes in the open unit ball with N x N matrix targets.

    Scalar targets may be passed as plain numbers; they become 1 x 1 blocks.
    `coords` stacks the nodes' coordinates as a k x n array.
    """

    def __init__(self, points, targets):
        pts = [p if isinstance(p, BallPoint) else BallPoint(p) for p in points]
        if not pts:
            raise ValueError("need at least one interpolation node")
        n = pts[0].n
        for j, p in enumerate(pts):
            if p.n != n:
                raise ValueError(f"points[{j}] has dimension {p.n}, expected {n}")
            if p.norm >= 1.0:
                raise DomainError(f"points[{j}] has |lambda| = {p.norm:.6g} >= 1")
        mats = []
        for j, w in enumerate(targets):
            w = np.atleast_2d(np.asarray(w, dtype=complex))
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ValueError(f"targets[{j}] is not square")
            mats.append(w)
        if len(mats) != len(pts):
            raise ValueError(f"{len(pts)} points but {len(mats)} targets")
        dim = mats[0].shape[0]
        for j, w in enumerate(mats):
            if w.shape[0] != dim:
                raise ValueError(f"targets[{j}] has size {w.shape[0]}, expected {dim}")
        coords = np.stack([p.coords for p in pts])
        rows = max(1, SEPARATION_BLOCK_ENTRIES // coords.size)
        for start in range(0, len(pts), rows):
            # gaps[i, j]: largest coordinate gap of points start + i and j
            gaps = np.abs(coords[start:start + rows, None] - coords).max(axis=2)
            close = np.argwhere(np.triu(gaps <= POINT_SEPARATION, start + 1))
            if close.size:
                i, j = close[0]
                raise DomainError(
                    f"points {start + i} and {j} coincide (gap {gaps[i, j]:.3e})")
        self.points = pts
        self.coords = coords
        self.targets = np.stack(mats)
        self.n = n

    @property
    def k(self) -> int:
        return len(self.points)

    @property
    def target_dim(self) -> int:
        return int(self.targets.shape[1])


@dataclass(frozen=True)
class PickCertificate:
    """The PSD verdict at norm level 1 and c*, whose relative rounding error
    is about 1e-16 gram_condition, the condition number of G."""

    feasible: bool
    min_eigenvalue: float
    min_norm: float
    gram_condition: float
    gram: np.ndarray = field(repr=False)
    marginal: bool
    tol: float


def gram(problem: PickProblem) -> np.ndarray:
    """Kernel Gram matrix G[i][j] = 1 / (1 - sum_t lambda_it conj(lambda_jt)).

    This is the m -> infinity limit of the truncated kernel-vector Gram
    matrices; it is Hermitian positive definite for distinct nodes.
    """
    lam = problem.coords
    ip = lam @ lam.conj().T
    return as_hermitian(1.0 / (1.0 - ip))


def _dense_cap(problem: PickProblem) -> None:
    size = problem.k * problem.target_dim
    if size * size > MAX_DENSE_ENTRIES:
        raise ResourceCapError(
            f"{size} x {size} block Pick matrix exceeds the cap {MAX_DENSE_ENTRIES}")


def _pick_blocks(G: np.ndarray, W: np.ndarray, c: float) -> np.ndarray:
    """The k N x k N Pick matrix at level c, as computed: not yet symmetrized."""
    k, N, _ = W.shape
    products = np.einsum("iab,jcb->ijac", W, W.conj())   # [i, j] = W_i W_j*
    blocks = G[:, :, None, None] * (c ** 2 * np.eye(N)[None, None] - products)
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3).reshape(k * N, k * N))


def _min_norm(G: np.ndarray, W: np.ndarray) -> tuple:
    """(c*, cond(G)): c* = ||(L^-1 (x) I) diag(W_1, ..., W_k) (L (x) I)||_2
    for G = L L*, and the condition number lambda_max / lambda_min of G."""
    k, N, _ = W.shape
    with _blas_threads(k * N):
        vals = np.linalg.eigvalsh(G)
        scale = max(1.0, float(np.abs(vals).max()))
        if vals[0] <= GRAM_PD_TOL * scale:
            raise SingularGramError(
                f"matrix is not positive definite within tolerance "
                f"(min eigenvalue {vals[0]:.3e}; points too close or |lambda| -> 1)")
        L = np.linalg.cholesky(G)
        # block (l, j) of diag(W) (L (x) I) is W_l L[l, j]; L^-1 acts on the block rows
        blocks = W[:, :, None, :] * L[:, None, :, None]
        cstar = operator_norm(np.linalg.solve(L, blocks.reshape(k, -1)).reshape(k * N, k * N))
    return cstar, float(vals[-1] / vals[0])


def pick_matrix(problem: PickProblem, c: float) -> np.ndarray:
    """Block matrix with (i, j) entry G[i][j] * (c^2 I - W_i W_j*).

    At c = 1 its positive semidefiniteness is the solvability criterion for
    interpolation by a multiplier of norm at most 1.
    """
    if c < 0:
        raise ValueError("the norm level c must be nonnegative")
    _dense_cap(problem)
    return as_hermitian(_pick_blocks(gram(problem), problem.targets, c))


def min_interpolation_norm(problem: PickProblem) -> float:
    """The least multiplier norm c* among all interpolants of the problem.

    pick_matrix(problem, c) is PSD exactly for c >= c*, so c*^2 is the top
    generalized eigenvalue of the pair (B, G (x) I) with block (i, j) of B
    equal to G[i][j] W_i W_j*.  That form factors as B = W (G (x) I) W* with
    W = diag(W_1, ..., W_k), so with G = L L* whitening by L (x) I turns the
    pair into M M* for M = (L^-1 (x) I) W (L (x) I): c* = ||M||_2, the norm
    of the model operator on the span of the kernel vectors.  It takes the
    k x k Cholesky factor of G and one solve with L on k block rows.
    Raises SingularGramError when the least eigenvalue of G, which is that
    of G (x) I, is at most 1e-12 relative to max(1, ||G||).
    """
    return min_norm_and_condition(problem)[0]


def min_norm_and_condition(problem: PickProblem) -> tuple:
    """(c*, cond(G)), cond(G) = lambda_max / lambda_min of the Gram matrix.

    c* carries about 16 - log10 cond(G) correct digits: its relative
    rounding error is about 1e-16 cond(G).  cond(G) comes from the
    eigenvalues that the singularity test of min_interpolation_norm takes
    anyway.
    """
    _dense_cap(problem)
    return _min_norm(gram(problem), problem.targets)


def certify(problem: PickProblem, tol: float = DEFAULT_TOL) -> PickCertificate:
    """Feasibility certificate at norm level 1, cross-checked against c*."""
    _dense_cap(problem)
    G = gram(problem)
    verdict = psd_check(_pick_blocks(G, problem.targets, 1.0), tol)
    cstar, condition = _min_norm(G, problem.targets)
    consistent = verdict.is_psd == (cstar <= 1.0 + tol)
    return PickCertificate(
        feasible=verdict.is_psd,
        min_eigenvalue=verdict.min_eigenvalue,
        min_norm=cstar,
        gram_condition=condition,
        gram=G,
        marginal=verdict.is_marginal or not consistent,
        tol=float(tol),
    )


def lagrange_interpolant(problem: PickProblem) -> NcMatrixPolynomial:
    """An explicit interpolant: the least-norm coefficient solve over monomials.

    At scalar nodes a word acts through its commutative monomial, so the
    evaluation matrix E has one column per ordered word i_1 <= ... <= i_j of
    degree <= d.  d starts at the least value with C(d+n, n) >= k and rises
    while a singular value of E falls below DEFAULT_TOL relative; at d = k - 1
    products of linear factors prove full row rank.  At most N^2 C(d+n, n) terms.
    """
    n, k, N = problem.n, problem.k, problem.target_dim
    lam, W = problem.coords, problem.targets.reshape(k, N * N)
    words, columns, d = [], [], -1
    while True:
        d += 1
        size = math.comb(d + n, n)
        if k * size > MAX_DENSE_ENTRIES or N * N * size > MAX_BASIS_SIZE:
            raise ResourceCapError(f"degree-{d} interpolant: C({d + n},{n}) = {size} words "
                                   f"for {k} nodes and {N}x{N} targets exceed the caps")
        for word in itertools.combinations_with_replacement(range(n), d):
            words.append(tuple(i + 1 for i in word))
            columns.append(np.prod(lam[:, list(word)], axis=1))
        if size >= k:
            with _blas_threads(size):
                X, _, _, s = np.linalg.lstsq(np.stack(columns, axis=1), W, rcond=None)
            if d == k - 1 or s[-1] > DEFAULT_TOL * s[0]:
                break
    return NcMatrixPolynomial(n, [[NcPolynomial(n, dict(zip(words, X[:, a * N + b])))
                                   for b in range(N)] for a in range(N)])


def classical_ball_matrix(problem: PickProblem) -> np.ndarray:
    """Necessary-condition matrix for bounded analytic interpolation on the ball:
    entry (i, j) is (1 - w_i conj(w_j)) / (1 - <lambda_i, lambda_j>)^n.

    Scalar targets only.  Positivity here is implied by, but weaker than,
    positivity of pick_matrix at c = 1.
    """
    if problem.target_dim != 1:
        raise ValueError("the classical comparison needs scalar targets")
    w = problem.targets[:, 0, 0]
    lam = problem.coords
    ip = lam @ lam.conj().T
    return as_hermitian((1.0 - np.outer(w, w.conj())) / (1.0 - ip) ** problem.n)


def sample_membership_check(samples, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """Finite-stage test that sampled values extend to a norm-one multiplier.

    samples is a sequence of (point, value) pairs with |value| < 1; the
    verdict is the PSD check of the scalar Pick matrix at c = 1.  Running it
    over every finite sample set characterizes restrictions of unit-ball
    multipliers.
    """
    points = []
    values = []
    for idx, (point, value) in enumerate(samples):
        value = complex(value)
        if abs(value) >= 1.0:
            raise DomainError(f"samples[{idx}] has |F(lambda)| = {abs(value):.6g} >= 1")
        points.append(point if isinstance(point, BallPoint) else BallPoint(point))
        values.append(value)
    problem = PickProblem(points, values)
    return psd_check(pick_matrix(problem, 1.0), tol)

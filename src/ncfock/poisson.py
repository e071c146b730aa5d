"""Row contractions, Poisson kernels, and von Neumann inequality checks.

A row contraction is an n-tuple of d x d matrices with sum T_i T_i* <= I.
Its defect is Delta = (I - sum T_i T_i*)^(1/2) and the truncated Poisson
kernel stacks the blocks Delta T_alpha* over all words with |alpha| <= m.
The completely positive map Phi(X) = sum T_i X T_i* drives every tail
estimate: the kernel satisfies K*K = I - Phi^(m+1)(I) identically, so the
decay of sigma_k = ||Phi^k(I)|| certifies how trustworthy a truncation is.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError
from .freealg import (MAX_BASIS_SIZE, MAX_DENSE_ENTRIES, BallPoint, NcPolynomial, WordIndex,
                      _word_products, evaluate, sup_norm_bounds, word_value)
from .numerics import DEFAULT_TOL, _blas_threads, hermitian_sqrt, operator_norm

CONTRACTION_CLAMP = 1e-10
# c0_sequence work per step, in units of d^3 multiply-adds: on a 2-vCPU host a
# step at d = 1 takes about 20 us and a unit 2.5-5 ns, so the costliest
# admitted call takes about 1 s (at most 2.1 s measured over n <= 3, d <= 256)
C0_STEP_OVERHEAD = 2 ** 13
C0_MAX_WORK = 2 ** 28


class RowContraction:
    """An n-tuple of d x d matrices T_i with sum T_i T_i* <= I.

    Eigenvalues of the defect I - sum T_i T_i* inside [-1e-10, 0) are clamped
    to zero; anything lower is rejected.  delta is the PSD square root of the
    (clamped) defect.
    """

    def __init__(self, matrices, *, clamp_tol: float = CONTRACTION_CLAMP):
        mats = [np.atleast_2d(np.asarray(t, dtype=complex)) for t in matrices]
        if not mats:
            raise ValueError("need at least one tuple entry")
        d = mats[0].shape[0]
        for i, t in enumerate(mats):
            if t.shape != (d, d):
                raise ValueError(f"entry {i} has shape {t.shape}, expected ({d}, {d})")
        T = np.stack(mats)
        defect = np.eye(d, dtype=complex) - np.einsum("iab,icb->ac", T, T.conj())
        try:
            delta = hermitian_sqrt(defect, tol=clamp_tol)
        except DomainError as exc:
            raise DomainError(f"not a row contraction: {exc}") from exc
        self.matrices = T
        self.n = int(T.shape[0])
        self.d = d
        self.defect = defect
        self.delta = delta

    @classmethod
    def from_point(cls, point) -> "RowContraction":
        """The d = 1 tuple given by the coordinates of a ball point."""
        point = point if isinstance(point, BallPoint) else BallPoint(point)
        return cls([np.array([[z]]) for z in point.coords])

    @classmethod
    def diagonal(cls, points) -> "RowContraction":
        """Commuting tuple T_i = diag over the i-th coordinates of the points."""
        pts = [p if isinstance(p, BallPoint) else BallPoint(p) for p in points]
        if not pts:
            raise ValueError("need at least one point")
        n = pts[0].n
        if any(p.n != n for p in pts):
            raise ValueError("points have inconsistent dimensions")
        coords = np.stack([p.coords for p in pts])  # (s, n)
        return cls([np.diag(coords[:, i]) for i in range(n)])

    def cp_map(self, x: np.ndarray) -> np.ndarray:
        """The completely positive map Phi(X) = sum_i T_i X T_i*."""
        # two contractions of n d^3 each: one three-operand einsum would loop over n d^4
        return np.einsum("iac,idc->ad", self.matrices @ x, self.matrices.conj())


@dataclass(frozen=True)
class PoissonKernelMatrix:
    """Truncated Poisson kernel.

    matrix has shape (D(n, m) * d, d); the row block of the word alpha is
    Delta T_alpha*.  tail = ||I - K*K|| = ||Phi^(m+1)(I)|| measures the
    uncertified part; certified means it fell below the requested tolerance.
    """

    n: int
    d: int
    m: int
    matrix: np.ndarray = field(repr=False)
    tail: float
    certified: bool

    @property
    def blocks(self) -> np.ndarray:
        """View of shape (D, d, d): one d x d block per word."""
        return self.matrix.reshape(-1, self.d, self.d)


def _sigmas(T: RowContraction, kmax: int, floor: float) -> list:
    """sigma_0, sigma_1, ... up to sigma_kmax or the first one below floor.

    Each step costs a fixed C0_STEP_OVERHEAD plus (n + 1) d^3 (the map and
    the norm); kmax steps are capped at C0_MAX_WORK, even if the loop stops
    early.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if kmax * (C0_STEP_OVERHEAD + (T.n + 1) * T.d ** 3) > C0_MAX_WORK:
        raise ResourceCapError(
            f"decay sequence of {kmax} steps on n = {T.n}, d = {T.d} exceeds the work "
            f"cap {C0_MAX_WORK}")
    x = np.eye(T.d, dtype=complex)
    # one thread scope for the whole loop, so the map's products and the norms
    # do not toggle the thread count on every step
    with _blas_threads(T.d):
        out = [operator_norm(x)]
        for _ in range(kmax):
            if out[-1] < floor:
                break
            x = T.cp_map(x)
            out.append(operator_norm(x))
    return out


def c0_sequence(T: RowContraction, kmax: int) -> list:
    """sigma_k = ||Phi^k(I)|| for k = 0..kmax, by iterating the CP map.

    The sequence is nonincreasing; vanishing in the limit is the pure decay
    condition that makes kernel truncations certifiable.
    """
    return _sigmas(T, kmax, 0.0)


def is_c0_certified(T: RowContraction, kmax: int = 30, margin: float = 1e-9) -> bool:
    """True when sigma_kmax < 1 - margin.

    Submultiplicativity (sigma_(a+b) <= sigma_a sigma_b) then forces
    sigma_k -> 0, so this is a genuine certificate, not a heuristic.  Since
    sigma_k never increases, the loop stops at the first sigma_k below
    1 - margin (k = 1 for a strict row contraction), under the same work cap
    as c0_sequence.
    """
    return _sigmas(T, kmax, 1.0 - margin)[-1] < 1.0 - margin


def suggest_truncation_degree(T: RowContraction, target: float, kmax: int = 60) -> int:
    """Smallest m with measured (or extrapolated) sigma_(m+1) <= target."""
    sig = c0_sequence(T, kmax)
    for k, s in enumerate(sig):
        if s <= target:
            return max(k - 1, 0)
    ratio = (sig[-1] / sig[kmax // 2]) ** (1.0 / (kmax - kmax // 2))
    if not ratio < 1.0 - 1e-12:
        raise DomainError("no certified decay: the tuple does not look pure")
    extra = int(np.ceil(np.log(target / sig[-1]) / np.log(ratio)))
    return kmax + extra - 1


def poisson_kernel(T: RowContraction, m: int, tol: float = DEFAULT_TOL) -> PoissonKernelMatrix:
    """Truncated Poisson kernel with row blocks Delta T_alpha*, |alpha| <= m.

    Satisfies K*K = I - Phi^(m+1)(I) identically, hence K*K <= I with defect
    exactly sigma_(m+1).
    """
    wi = WordIndex(T.n, m)
    # the blocks, and their product with Delta, each hold D d^2 entries
    if wi.dim * T.d > MAX_BASIS_SIZE or wi.dim * T.d ** 2 > MAX_DENSE_ENTRIES:
        raise ResourceCapError(
            f"kernel of {wi.dim} * {T.d} rows and {wi.dim} * {T.d}^2 entries exceeds the "
            f"caps {MAX_BASIS_SIZE} rows and {MAX_DENSE_ENTRIES} entries")
    tstar = T.matrices.conj().transpose(0, 2, 1)
    blocks = np.empty((wi.dim, T.d, T.d), dtype=complex)
    grade = np.eye(T.d, dtype=complex)[None]
    blocks[0] = grade[0]
    for k in range(1, m + 1):
        # append a letter at the end of the word: T_(alpha g_i)* = T_i* T_alpha*
        grade = np.einsum("ixy,ayz->aixz", tstar, grade).reshape(-1, T.d, T.d)
        blocks[wi.grade_slice(k)] = grade
    blocks = np.einsum("xy,ayz->axz", T.delta, blocks)
    K = np.ascontiguousarray(blocks.reshape(wi.dim * T.d, T.d))
    tail = operator_norm(np.eye(T.d) - K.conj().T @ K)
    return PoissonKernelMatrix(T.n, T.d, m, K, float(tail), bool(tail < tol))


def _compression(blocks: np.ndarray, wi: WordIndex, alpha: tuple, beta: tuple) -> np.ndarray:
    """K* (M_alphabeta tensor I_d) K from the kernel's row blocks: the block of
    each word beta w meets that of alpha w, |w| <= m - max(|alpha|, |beta|)."""
    n = wi.n
    va, vb = word_value(alpha, n), word_value(beta, n)
    out = np.zeros(blocks.shape[1:], dtype=complex)
    for t in range(wi.m - max(len(alpha), len(beta)) + 1):
        size = n ** t
        rows_out = wi.grade_start(t + len(alpha)) + va * size
        rows_in = wi.grade_start(t + len(beta)) + vb * size
        out += np.einsum("axi,axj->ij", blocks[rows_out:rows_out + size].conj(),
                         blocks[rows_in:rows_in + size])
    return out


def _word_pairs(pairs, m: int) -> list:
    pairs = [(tuple(alpha), tuple(beta)) for alpha, beta in pairs]
    for alpha, beta in pairs:
        if max(len(alpha), len(beta)) > m:
            raise ValueError(f"word degrees ({len(alpha)}, {len(beta)}) exceed m = {m}")
    return pairs


def poisson_compression(T: RowContraction, alpha, beta, m: int) -> np.ndarray:
    """K* (M_alphabeta tensor I_d) K, where M_alphabeta is the compression to
    P_m of the operator moving e_(beta delta) to e_(alpha delta)."""
    [(alpha, beta)] = _word_pairs([(alpha, beta)], m)
    return _compression(poisson_kernel(T, m).blocks, WordIndex(T.n, m), alpha, beta)


def poisson_covariance_residuals(T: RowContraction, pairs, m: int) -> list:
    """Residuals ||K* (M_alphabeta tensor I) K - T_alpha T_beta*|| of the word
    pairs (alpha, beta), all from one kernel of degree m."""
    pairs = _word_pairs(pairs, m)
    blocks, wi = poisson_kernel(T, m).blocks, WordIndex(T.n, m)
    words = list(dict.fromkeys(w for pair in pairs for w in pair))
    Tw = dict(zip(words, _word_products(T.matrices, words)))
    return [operator_norm(_compression(blocks, wi, alpha, beta) - Tw[alpha] @ Tw[beta].conj().T)
            for alpha, beta in pairs]


def poisson_covariance_check(T: RowContraction, alpha, beta, m: int) -> float:
    """Residual ||K* (M_alphabeta tensor I) K - T_alpha T_beta*||.

    Vanishes as m grows for pure tuples; at alpha = beta = () it reduces to
    the kernel isometry defect sigma_(m+1).
    """
    return poisson_covariance_residuals(T, [(alpha, beta)], m)[0]


def von_neumann_margin(T: RowContraction, p: NcPolynomial, m: int):
    """(lhs, lower, upper): lhs = ||p(T)|| and the certified bracket
    lower <= ||L_p|| <= upper of sup_norm_bounds(p, m).

    lhs <= ||L_p|| <= upper holds for every row contraction (Popescu's
    noncommutative von Neumann inequality), with no tolerance excuses; lhs
    exceeds lower by at most the bracket width upper - lower.
    """
    lhs = operator_norm(evaluate(p, T.matrices))
    lower, upper = sup_norm_bounds(p, m)
    return (float(lhs), lower, upper)


def radial_scale(T: RowContraction, r: float) -> RowContraction:
    """The tuple [r T_1, ..., r T_n] for 0 < r < 1, always pure.

    Compressions of the scaled kernels recover r^(|alpha| + |beta|) T_alpha
    T_beta*; letting r -> 1 is the documented route to Poisson transforms of
    tuples with no decay certificate.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"radial parameter must lie in (0, 1), got {r}")
    return RowContraction(r * T.matrices)


def minimal_subspace(T: RowContraction, m: int, rank_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the smallest subspace of P_m carrying the kernel.

    Spanned by the coefficient vectors alpha -> (Delta T_alpha*)[s, t] over
    all matrix positions (s, t); equivalently the column space of the kernel
    blocks flattened along the matrix axes.  The kernel columns then lie in
    (span tensor C^d) by construction.
    """
    kernel = poisson_kernel(T, m)
    if not kernel.certified:
        warnings.warn(
            f"uncertified tail {kernel.tail:.3e} at m = {m}: the subspace reflects "
            "the truncation, not the full kernel", stacklevel=2)
    V = kernel.blocks.reshape(-1, T.d * T.d)
    u, s, _ = np.linalg.svd(V, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((V.shape[0], 0), dtype=complex)
    rank = int(np.count_nonzero(s > rank_tol * s[0]))
    return np.ascontiguousarray(u[:, :rank])

"""Row contractions, Poisson kernels, and von Neumann inequality checks.

A row contraction is an n-tuple of d x d matrices with sum T_i T_i* <= I.
Its defect is Delta = (I - sum T_i T_i*)^(1/2) and the truncated Poisson
kernel stacks the blocks Delta T_alpha* over all words with |alpha| <= m.
The completely positive map Phi(X) = sum T_i X T_i* drives every tail
estimate: the kernel satisfies K*K = I - Phi^(m+1)(I) identically, so the
decay of sigma_k = ||Phi^k(I)|| certifies how trustworthy a truncation is,
and its compressions to word pairs are T_alpha (sum_(k <= t) Phi^k(Delta^2))
T_beta*, which the same iteration gives without the kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError
from .freealg import (MAX_BASIS_SIZE, MAX_DENSE_ENTRIES, BallPoint, NcPolynomial, WordIndex,
                      _word_products, evaluate, sup_norm_bounds)
from .numerics import DEFAULT_TOL, _BLAS_SCOPE, _svd, hermitian_sqrt, operator_norm

DEFAULT_KMAX = 20              # steps of the decay sequence that certify purity
PURITY_MARGIN = 1e-9           # is_c0_certified wants sigma_kmax below 1 - this
COVARIANCE_WORD_DEGREE = 2     # covariance residuals run over words of length <= this
# c0_sequence work per step, in units of d^3 multiply-adds: on a 2-vCPU host a
# step at d = 1 takes about 20 us and a unit 2.5-5 ns, so the costliest
# admitted call takes about 1 s (at most 2.1 s measured over n <= 3, d <= 256)
C0_STEP_OVERHEAD = 2 ** 13
C0_MAX_WORK = 2 ** 28


class RowContraction:
    """An n-tuple of d x d matrices T_i with sum T_i T_i* <= I.

    Eigenvalues of the defect I - sum T_i T_i* inside
    [-numerics.CONTRACTION_CLAMP max(1, ||defect||), 0) are clamped to
    zero, with a warning (hermitian_sqrt); anything lower is rejected.
    delta is the PSD square root of the (clamped) defect.
    """

    def __init__(self, matrices):
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
            delta = hermitian_sqrt(defect)
        except DomainError as exc:
            raise DomainError(f"not a row contraction: {exc}") from exc
        self.matrices = T
        self.n = int(T.shape[0])
        self.d = d
        self.defect = defect
        self.delta = delta
        # the factors of cp_map: the row [T_1 ... T_n] and the stack of T_i*
        self._row = np.ascontiguousarray(T.transpose(1, 0, 2).reshape(d, -1))
        self._adjoints = np.ascontiguousarray(T.conj().transpose(0, 2, 1))

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
        """The completely positive map Phi(X) = sum_i T_i X T_i*, as
        [T_1 ... T_n] times the stacked X T_i*: two products of n d^3 each."""
        return self._row @ (x @ self._adjoints).reshape(-1, self.d)


@dataclass(frozen=True)
class PoissonKernelMatrix:
    """Truncated Poisson kernel.

    matrix has shape (D(n, m) * d, d); the row block of the word alpha is
    Delta T_alpha*.  defect = I - K*K; tail = ||defect|| = ||Phi^(m+1)(I)||
    measures the uncertified part; certified means it fell below the
    requested tolerance.
    """

    n: int
    d: int
    m: int
    matrix: np.ndarray = field(repr=False)
    defect: np.ndarray = field(repr=False)
    tail: float
    certified: bool

    @property
    def blocks(self) -> np.ndarray:
        """View of shape (D, d, d): one d x d block per word."""
        return self.matrix.reshape(-1, self.d, self.d)


def _check_c0_work(T: RowContraction, kmax: int) -> None:
    """Each step of the decay sequence costs a fixed C0_STEP_OVERHEAD plus
    (n + 1) d^3 (the map and the norm); kmax steps are capped at C0_MAX_WORK,
    even if the loop stops early.  Under it kmax d^2 < 4.5e6, so the stack of
    iterates that _iterates keeps stays under 72 MB."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if kmax * (C0_STEP_OVERHEAD + (T.n + 1) * T.d ** 3) > C0_MAX_WORK:
        raise ResourceCapError(
            f"decay sequence of {kmax} steps on n = {T.n}, d = {T.d} exceeds the work "
            f"cap {C0_MAX_WORK}")


def _iterates(T: RowContraction, x0: np.ndarray, kmax: int) -> np.ndarray:
    """Phi^k(x0) for k = 0..kmax, stacked with shape (kmax + 1, d, d): kmax
    steps of the map in one thread scope, under the work cap of c0_sequence."""
    _check_c0_work(T, kmax)
    x = np.empty((kmax + 1, T.d, T.d), dtype=complex)
    x[0] = x0
    with _BLAS_SCOPE:
        for k in range(kmax):
            x[k + 1] = T.cp_map(x[k])
    return x


def c0_sequence(T: RowContraction, kmax: int) -> list:
    """sigma_k = ||Phi^k(I)|| for k = 0..kmax, by iterating the CP map.

    The sequence is nonincreasing; vanishing in the limit is the pure decay
    condition that makes kernel truncations certifiable.  The kmax iterates
    (_iterates) and their norms, one batched SVD of their (kmax + 1, d, d)
    stack, run in one thread scope.
    """
    with _BLAS_SCOPE:
        return operator_norm(_iterates(T, np.eye(T.d), kmax)).tolist()


def _sigmas(T: RowContraction, kmax: int, floor: float) -> list:
    """sigma_0, sigma_1, ... up to sigma_kmax or the first one below floor,
    one step at a time, under the work cap of c0_sequence."""
    _check_c0_work(T, kmax)
    x = np.eye(T.d, dtype=complex)
    # one thread scope for the whole loop, so the map's products and the norms
    # do not toggle the thread count on every step
    with _BLAS_SCOPE:
        out = [operator_norm(x)]
        for _ in range(kmax):
            if out[-1] < floor:
                break
            x = T.cp_map(x)
            out.append(operator_norm(x))
    return out


def is_c0_certified(T: RowContraction, kmax: int = DEFAULT_KMAX) -> bool:
    """True when sigma_kmax < 1 - PURITY_MARGIN.

    Submultiplicativity (sigma_(a+b) <= sigma_a sigma_b) then forces
    sigma_k -> 0, so this is a genuine certificate, not a heuristic.  Since
    sigma_k never increases, the loop stops at the first sigma_k below
    1 - PURITY_MARGIN (k = 1 for a strict row contraction), under the same
    work cap as c0_sequence.  kmax defaults to the CLI's --kmax default.
    """
    return _sigmas(T, kmax, 1.0 - PURITY_MARGIN)[-1] < 1.0 - PURITY_MARGIN


def poisson_kernel(T: RowContraction, m: int, tol: float = DEFAULT_TOL) -> PoissonKernelMatrix:
    """Truncated Poisson kernel with row blocks Delta T_alpha*, |alpha| <= m.

    Satisfies K*K = I - Phi^(m+1)(I) identically, hence K*K <= I with defect
    exactly sigma_(m+1).  The defect I - K*K comes from one real product
    R^T R on K's float64 view R (_complex_form), so no second K, conjugate
    or otherwise, is allocated: the kernel is the call's only large array.
    """
    wi, d = WordIndex(T.n, m), T.d
    # K holds D d^2 entries
    if wi.dim * d > MAX_BASIS_SIZE or wi.dim * d ** 2 > MAX_DENSE_ENTRIES:
        raise ResourceCapError(
            f"kernel of {wi.dim} * {d} rows and {wi.dim} * {d}^2 entries exceeds the "
            f"caps {MAX_BASIS_SIZE} rows and {MAX_DENSE_ENTRIES} entries")
    K = np.empty((wi.dim * d, d), dtype=complex)
    blocks = K.reshape(wi.dim, d, d)
    blocks[0] = T.delta
    with _BLAS_SCOPE:
        for k in range(1, m + 1):
            # put a letter in front of the word: Delta T_(g_i alpha)* = (Delta T_alpha*) T_i*,
            # so the grade-k words starting with i are all of grade k - 1 times T_i*
            prev = blocks[wi.grade_slice(k - 1)].reshape(-1, d)
            grade = blocks[wi.grade_slice(k)].reshape(T.n, -1, d)
            for i in range(T.n):
                np.matmul(prev, T._adjoints[i], out=grade[i])
        R = K.view(np.float64)
        defect = np.eye(d) - _complex_form(R.T @ R)
        tail = operator_norm(defect)
    return PoissonKernelMatrix(T.n, d, m, K, defect, float(tail), bool(tail < tol))


def _complex_form(g: np.ndarray) -> np.ndarray:
    """A* B from the real product g = Ra^T Rb, for stacks of shape
    (..., 2d, 2d), where Ra and Rb are the float64 views of the complex A
    and B (a.view(np.float64)), whose columns alternate real and imaginary
    parts.  With A = P + iQ and B = U + iV, g viewed as complex holds
    P^T U + i P^T V in its even rows and Q^T U + i Q^T V in its odd ones,
    and A* B = (P - iQ)^T (U + iV) is the even rows minus i times the odd."""
    c = g.view(complex)
    return c[..., 0::2, :] - 1j * c[..., 1::2, :]


def _word_pairs(pairs, m: int) -> list:
    pairs = [(tuple(alpha), tuple(beta)) for alpha, beta in pairs]
    for alpha, beta in pairs:
        if max(len(alpha), len(beta)) > m:
            raise ValueError(f"word degrees ({len(alpha)}, {len(beta)}) exceed m = {m}")
    return pairs


def _pair_factors(T: RowContraction, pairs, m: int):
    """(T_alpha, Psi_t, T_beta) of each word pair, three stacks of shape
    (len(pairs), d, d), with t = m - max(|alpha|, |beta|) and
    Psi_t = sum_(k <= t) Phi^k(Delta^2), so that the pair's compression
    K* (M_alphabeta tensor I_d) K of the degree-m kernel is T_alpha Psi_t T_beta*.

    Proof: the row block of the word alpha w in K is Delta T_(alpha w)*,
    and T_(alpha w) = T_alpha T_w.  M_alphabeta moves e_(beta w) to
    e_(alpha w) for |w| <= t, so the compression is
    sum_(|w| <= t) T_alpha T_w Delta^2 T_w* T_beta*, and
    sum_(|w| = k) T_w X T_w* = Phi^k(X).  Delta^2 is formed as Delta Delta,
    from the kernel's own (clamped) defect, not as I - Phi(I), from which it
    differs by the clamp.  The iterates run under the work cap of
    c0_sequence (_iterates), to the largest t; no kernel is built.
    """
    pairs = _word_pairs(pairs, m)
    reach = [m - max(len(alpha), len(beta)) for alpha, beta in pairs]
    words = list(dict.fromkeys(w for pair in pairs for w in pair))
    where = {w: k for k, w in enumerate(words)}
    with _BLAS_SCOPE:
        Tw = _word_products(T.matrices, words)
        psi = np.cumsum(_iterates(T, T.delta @ T.delta, max(reach, default=0)), axis=0)
    return (Tw[[where[alpha] for alpha, _ in pairs]], psi[reach],
            Tw[[where[beta] for _, beta in pairs]])


def poisson_covariance_residuals(T: RowContraction, pairs, m: int) -> list:
    """Residuals ||K* (M_alphabeta tensor I) K - T_alpha T_beta*|| of the word
    pairs (alpha, beta) for the kernel K of degree m, each
    ||T_alpha (Psi_t - I) T_beta*|| (_pair_factors), the norms in one
    batched call."""
    left, psi, right = _pair_factors(T, pairs, m)
    with _BLAS_SCOPE:
        defects = left @ (psi - np.eye(T.d)) @ right.conj().transpose(0, 2, 1)
        return operator_norm(defects).tolist()


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


def minimal_subspace(T: RowContraction, m: int) -> np.ndarray:
    """Orthonormal basis of the smallest subspace of P_m carrying the kernel.

    Spanned by the coefficient vectors alpha -> (Delta T_alpha*)[s, t] over
    all matrix positions (s, t); equivalently the column space of the kernel
    blocks flattened along the matrix axes, its rank the singular values
    above DEFAULT_TOL times the largest.  The kernel columns then lie in
    (span tensor C^d) by construction.
    """
    kernel = poisson_kernel(T, m)
    if not kernel.certified:
        warnings.warn(
            f"uncertified tail {kernel.tail:.3e} at m = {m}: the subspace reflects "
            "the truncation, not the full kernel", stacklevel=2)
    V = kernel.blocks.reshape(-1, T.d * T.d)
    with _BLAS_SCOPE:
        u, s, _ = _svd(V)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((V.shape[0], 0), dtype=complex)
    rank = int(np.count_nonzero(s > DEFAULT_TOL * s[0]))
    return np.ascontiguousarray(u[:, :rank])

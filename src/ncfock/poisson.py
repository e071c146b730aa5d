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
from .numerics import DEFAULT_TOL, _BLAS_SCOPE, _svd, hermitian_sqrt, operator_norm

CONTRACTION_CLAMP = 1e-10
# c0_sequence work per step, in units of d^3 multiply-adds: on a 2-vCPU host a
# step at d = 1 takes about 20 us and a unit 2.5-5 ns, so the costliest
# admitted call takes about 1 s (at most 2.1 s measured over n <= 3, d <= 256)
C0_STEP_OVERHEAD = 2 ** 13
C0_MAX_WORK = 2 ** 28
# Real entries of each side gathered into one batched product of kernel runs
# (_compressions): the 256 KB copies stay in cache at any pair count.  With
# 2^18 entries a side, the 91 pairs of n = 3, d = 2, m = 9 took 20 ms, not 8
COMPRESSION_BATCH_ENTRIES = 2 ** 15


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
    iterates that c0_sequence keeps stays under 72 MB."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if kmax * (C0_STEP_OVERHEAD + (T.n + 1) * T.d ** 3) > C0_MAX_WORK:
        raise ResourceCapError(
            f"decay sequence of {kmax} steps on n = {T.n}, d = {T.d} exceeds the work "
            f"cap {C0_MAX_WORK}")


def c0_sequence(T: RowContraction, kmax: int) -> list:
    """sigma_k = ||Phi^k(I)|| for k = 0..kmax, by iterating the CP map.

    The sequence is nonincreasing; vanishing in the limit is the pure decay
    condition that makes kernel truncations certifiable.  The kmax iterates
    are formed in one thread scope and their norms taken in one batched SVD
    of their (kmax + 1, d, d) stack.
    """
    _check_c0_work(T, kmax)
    x = np.empty((kmax + 1, T.d, T.d), dtype=complex)
    x[0] = np.eye(T.d)
    with _BLAS_SCOPE:
        for k in range(kmax):
            x[k + 1] = T.cp_map(x[k])
        return operator_norm(x).tolist()


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
    tstar = np.ascontiguousarray(T.matrices.conj().transpose(0, 2, 1))
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
                np.matmul(prev, tstar[i], out=grade[i])
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


def _compressions(K: np.ndarray, wi: WordIndex, pairs: list) -> np.ndarray:
    """K* (M_alphabeta tensor I_d) K of each word pair, shape (len(pairs), d, d).

    The block of each word beta w meets that of alpha w, |w| <= m -
    max(|alpha|, |beta|).  The words alpha w with |w| = t are a run of n^t
    blocks, so each t takes one batched real product over the runs of every
    pair that reaches it, gathered from K's float64 view, at most
    COMPRESSION_BATCH_ENTRIES entries of each side a product; a longer run
    is multiplied where it lies.  Each distinct pair is formed once; pairs
    are ordered by their longer word, so the pairs that reach t lead the
    batch.
    """
    n, d = wi.n, K.shape[1]
    R = K.view(np.float64)
    order = sorted(dict.fromkeys(pairs), key=lambda pair: max(map(len, pair)))
    where = {pair: k for k, pair in enumerate(order)}
    lengths = np.array([[len(alpha), len(beta)] for alpha, beta in order],
                       dtype=int).reshape(-1, 2)
    values = np.array([[word_value(alpha, n), word_value(beta, n)] for alpha, beta in order],
                      dtype=int).reshape(-1, 2)
    starts = np.array([wi.grade_start(k) for k in range(wi.m + 1)])
    reach = wi.m - lengths.max(axis=1)
    out = np.zeros((len(order), 2 * d, 2 * d))
    for t in range(int(reach.max(initial=-1)) + 1):
        live, size = int(np.count_nonzero(reach >= t)), n ** t
        first = starts[lengths[:live] + t] + values[:live] * size   # first block of each run
        # runs[s] is the run of size blocks from block s: overlapping views of R, only read
        runs = np.ndarray((wi.dim - size + 1, size * d, 2 * d), R.dtype, R, 0,
                          (d * R.strides[0], *R.strides))
        step = max(1, COMPRESSION_BATCH_ENTRIES // (size * d * 2 * d))
        for lo in range(0, live, step):
            if step == 1:   # a run that fills the budget alone is sliced, not copied
                a, b = first[lo]
                left, right = runs[a:a + 1], runs[b:b + 1]
            else:
                left, right = runs[first[lo:lo + step, 0]], runs[first[lo:lo + step, 1]]
            out[lo:lo + len(left)] += left.transpose(0, 2, 1) @ right
    return _complex_form(out)[[where[pair] for pair in pairs]]


def _word_pairs(pairs, m: int) -> list:
    pairs = [(tuple(alpha), tuple(beta)) for alpha, beta in pairs]
    for alpha, beta in pairs:
        if max(len(alpha), len(beta)) > m:
            raise ValueError(f"word degrees ({len(alpha)}, {len(beta)}) exceed m = {m}")
    return pairs


def poisson_compression(T: RowContraction, alpha, beta, m: int) -> np.ndarray:
    """K* (M_alphabeta tensor I_d) K, where M_alphabeta is the compression to
    P_m of the operator moving e_(beta delta) to e_(alpha delta)."""
    pairs = _word_pairs([(alpha, beta)], m)
    K = poisson_kernel(T, m).matrix
    with _BLAS_SCOPE:
        return _compressions(K, WordIndex(T.n, m), pairs)[0]


def poisson_covariance_residuals(T: RowContraction, pairs, m: int) -> list:
    """Residuals ||K* (M_alphabeta tensor I) K - T_alpha T_beta*|| of the word
    pairs (alpha, beta), all from one kernel of degree m: the compressions
    in batched products (_compressions), the norms in one batched call."""
    pairs = _word_pairs(pairs, m)
    K = poisson_kernel(T, m).matrix
    words = list(dict.fromkeys(w for pair in pairs for w in pair))
    where = {w: k for k, w in enumerate(words)}
    Tw = _word_products(T.matrices, words)
    left = Tw[[where[alpha] for alpha, _ in pairs]]
    right = Tw[[where[beta] for _, beta in pairs]]
    with _BLAS_SCOPE:
        defects = (_compressions(K, WordIndex(T.n, m), pairs)
                   - left @ right.conj().transpose(0, 2, 1))
        return operator_norm(defects).tolist()


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
    with _BLAS_SCOPE:
        u, s, _ = _svd(V)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((V.shape[0], 0), dtype=complex)
    rank = int(np.count_nonzero(s > rank_tol * s[0]))
    return np.ascontiguousarray(u[:, :rank])

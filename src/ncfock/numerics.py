"""Dense Hermitian matrix kernels with an explicit tolerance policy.

All tolerances are relative to the spectral scale max(1, ||A||_2); the
default 1e-10 reflects that feasibility-boundary matrices are numerically
singular by design.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DomainError, SingularGramError

DEFAULT_TOL = 1e-10
HERMITIAN_RTOL = 1e-12


def as_hermitian(a, *, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Check near-Hermiticity and return the symmetrization (A + A*) / 2."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        gap = float(np.abs(a - a.conj().T).max())
        scale = 1.0 + float(np.abs(a).max())
        if gap > rtol * scale:
            raise ValueError(f"matrix is not Hermitian: max |A - A*| = {gap:.3e}")
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    witness: np.ndarray = field(repr=False)
    tol: float
    scale: float

    @property
    def is_marginal(self) -> bool:
        """Minimal eigenvalue within +-tol*scale of zero; the sign is not trustworthy."""
        return abs(self.min_eigenvalue) <= self.tol * self.scale


def psd_check(a, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """Positive-semidefiniteness verdict with the minimizing eigenvector as witness."""
    h = as_hermitian(a)
    if h.size == 0:
        return PsdVerdict(True, 0.0, np.zeros(0, dtype=complex), float(tol), 1.0)
    vals, vecs = np.linalg.eigh(h)
    scale = max(1.0, float(abs(vals[0])), float(abs(vals[-1])))
    return PsdVerdict(bool(vals[0] >= -tol * scale), float(vals[0]),
                      vecs[:, 0].copy(), float(tol), scale)


def operator_norm(a) -> float:
    """Largest singular value (vectors are treated as single columns)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        return float(np.linalg.norm(a))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def max_generalized_eigenvalue(b, a, *, pd_tol: float = 1e-12) -> float:
    """max over x != 0 of <Bx, x> / <Ax, x> for Hermitian B and PD A.

    Computed by Cholesky whitening: the top eigenvalue of L^-1 B L^-*, where
    A = L L*.
    """
    A = as_hermitian(a)
    B = as_hermitian(b)
    if A.shape != B.shape:
        raise ValueError("shape mismatch between the two forms")
    vals = np.linalg.eigvalsh(A)
    scale = max(1.0, float(np.abs(vals).max()))
    if vals[0] <= pd_tol * scale:
        raise SingularGramError(
            f"matrix is not positive definite within tolerance "
            f"(min eigenvalue {vals[0]:.3e}; points too close or |lambda| -> 1)")
    L = np.linalg.cholesky(A)
    X = scipy.linalg.solve_triangular(L, B, lower=True)
    W = scipy.linalg.solve_triangular(L, X.conj().T, lower=True).conj().T
    vals = np.linalg.eigvalsh((W + W.conj().T) / 2.0)
    return float(vals[-1])


def hermitian_sqrt(a, *, tol: float = 1e-12) -> np.ndarray:
    """PSD square root by spectral decomposition.

    Eigenvalues in [-tol*scale, 0) are clamped to zero with a warning;
    anything lower means the input is indefinite and raises.
    """
    h = as_hermitian(a)
    vals, vecs = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(vals).max()))
    if vals[0] < -tol * scale:
        raise DomainError(
            f"matrix is indefinite beyond tolerance: min eigenvalue {vals[0]:.3e}")
    if vals[0] < 0.0:
        clamped = int(np.count_nonzero(vals < 0.0))
        warnings.warn(
            f"clamped {clamped} negative eigenvalue(s) >= {vals[0]:.3e} to zero",
            stacklevel=2)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

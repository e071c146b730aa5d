"""Dense Hermitian matrix kernels with an explicit tolerance policy.

All tolerances are relative to the spectral scale max(1, ||A||_2); the
default 1e-10 reflects that feasibility-boundary matrices are numerically
singular by design.

One thread rule: every LAPACK call, and the kernel products below, runs on
one OpenBLAS thread at every size, inside the scope _BLAS_SCOPE, entered
once per public call (inner calls nest in it).  ncfock runs on numpy alone,
so the scope holds one library, the OpenBLAS bundled with numpy, found once
at import.
There is no size cut-off: on a 2-vCPU host two threads were faster only
above side 256 or about 48,000 entries, which only the benchmark's
quotient_ladder reaches, about 0.06 times a request, and its largest fresh
builds took as long under this rule as under cut-offs.  Two
threads cost most on these calls (2-vCPU host, fresh processes):

- The Poisson kernel's recursion and its K*K tail (poisson.poisson_kernel,
  one real product R^T R on K's float64 view R), and the products of kernel
  blocks in ideals._poisson_residuals: GEMMs with one long side.  A kernel
  build at n = 3, d = 2, m = 11 (531,440 rows) took 163-177 ms on two
  threads in one of seven processes, on every call, against 11-20 ms on
  one.
- The Fejer-Riesz Gram solve and its certificate (freealg.sup_norm_bounds),
  in one scope around both.  One solve of a dense p, on the pairs of its
  suffix closure (all words of length <= d), in each of four processes:

    n, d   pairs   two threads     one thread
    2, 5   258     990-2150 ms     72-127 ms
    3, 4   426     1810-2430 ms    366-417 ms
    2, 6   642     2630-3140 ms    570-727 ms

  That table was taken on another LAPACK build.  On numpy's, one of eight
  two-thread solves at (2, 5) and (3, 4) took 915 ms, against 86-100 ms on
  one thread.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

DEFAULT_TOL = 1e-10
HERMITIAN_RTOL = 1e-12
CONTRACTION_CLAMP = 1e-10   # hermitian_sqrt clamps eigenvalues down to -this * scale


def _openblas_thread_functions():
    """(get, set) of the thread count of the OpenBLAS bundled in the numpy
    wheel, or the reason there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "lib*openblas64_-*.so")))
    if not paths:
        return "no lib*openblas64_-*.so in numpy.libs"
    # its symbols carry the prefix of its file name, lib<prefix>openblas64_-<hash>.so
    prefix = os.path.basename(paths[0])[3:].split("openblas64_")[0]
    try:
        lib = ctypes.CDLL(paths[0])
        get = getattr(lib, f"{prefix}openblas_get_num_threads64_")
        set_ = getattr(lib, f"{prefix}openblas_set_num_threads64_")
    except (OSError, AttributeError) as exc:
        return f"{paths[0]}: {exc}"
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _BlasThreadScope:
    """The thread count of numpy's OpenBLAS, held at 1 while any scope is open.

    The count is process-wide, so scopes are counted across Python threads:
    the first to enter saves the count and sets 1, the last to exit restores
    it.  The library is looked up once, at import; `status` says whether it
    is controlled or why not, in which case the scope is a no-op.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1
        found = _openblas_thread_functions()
        self._get, self._set = (None, None) if isinstance(found, str) else found
        self.status = f"not controlled: {found}" if isinstance(found, str) else "controlled"

    def count(self):
        """The current thread count of numpy's OpenBLAS, or None when it is not controlled."""
        return self._get() if self._get else None

    def __enter__(self):
        with self._lock:
            if not self._depth and self._get:
                self._saved = self._get()
                if self._saved != 1:
                    self._set(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if not self._depth and self._saved != 1:
                self._set(self._saved)


_BLAS_SCOPE = _BlasThreadScope()


def as_hermitian(a) -> np.ndarray:
    """Check near-Hermiticity, max |A - A*| <= HERMITIAN_RTOL (1 + max |A|),
    and return the symmetrization (A + A*) / 2."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        gap = float(np.abs(a - a.conj().T).max())
        scale = 1.0 + float(np.abs(a).max())
        if gap > HERMITIAN_RTOL * scale:
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
    with _BLAS_SCOPE:
        vals, vecs = np.linalg.eigh(h)
    scale = max(1.0, float(abs(vals[0])), float(abs(vals[-1])))
    return PsdVerdict(bool(vals[0] >= -tol * scale), float(vals[0]),
                      vecs[:, 0].copy(), float(tol), scale)


def operator_norm(a):
    """Largest singular value (vectors are treated as single columns).

    Of a stack of matrices, shape (k, r, c), it is the array of the k
    largest singular values, from one batched SVD.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        return float(np.linalg.norm(a))
    if a.size == 0:
        return np.zeros(a.shape[:-2]) if a.ndim > 2 else 0.0
    with _BLAS_SCOPE:
        top = np.linalg.svd(a, compute_uv=False)[..., 0]
    return top if a.ndim > 2 else float(top)


def _svd(a: np.ndarray, full_matrices: bool = False):
    """(u, s, vh) of np.linalg.svd (zgesdd), retried once on a* when that does
    not converge, as it did on a finite 94 x 94 triangle of the quotient
    recursion of [e1, e2] + c e1 (n = 2, m = 8, c = 0.47878923076784435)."""
    try:
        return np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        u, s, vh = np.linalg.svd(a.conj().T, full_matrices=full_matrices)
        return vh.conj().T, s, u.conj().T


def hermitian_sqrt(a) -> np.ndarray:
    """PSD square root by spectral decomposition.

    Eigenvalues in [-CONTRACTION_CLAMP * scale, 0), scale = max(1, the
    largest |eigenvalue|), are clamped to zero with a warning; anything lower
    means the input is indefinite and raises.
    """
    h = as_hermitian(a)
    with _BLAS_SCOPE:
        vals, vecs = np.linalg.eigh(h)
        scale = max(1.0, float(np.abs(vals).max()))
        if vals[0] < -CONTRACTION_CLAMP * scale:
            raise DomainError(
                f"matrix is indefinite beyond tolerance: min eigenvalue {vals[0]:.3e}")
        if vals[0] < 0.0:
            clamped = int(np.count_nonzero(vals < 0.0))
            warnings.warn(
                f"clamped {clamped} negative eigenvalue(s) >= {vals[0]:.3e} to zero",
                stacklevel=2)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

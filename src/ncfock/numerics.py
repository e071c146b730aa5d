"""Dense Hermitian matrix kernels with an explicit tolerance policy.

All tolerances are relative to the spectral scale max(1, ||A||_2); the
default 1e-10 reflects that feasibility-boundary matrices are numerically
singular by design.

One thread rule: every LAPACK call, and the kernel products below, runs on
one OpenBLAS thread at every size, inside the scope _BLAS_SCOPE, entered
once per public call (inner calls nest in it).  The scope finds a library
only when entered at depth 0 with its package loaded.  Everything runs on
numpy's LAPACK except the two uses of scipy: the Lanczos fallback of
sup_norm_bounds, which keeps the process's threads, and the retry of _svd.
There is no size cut-off: on a 2-vCPU host two threads were faster only
above side 256 or about 48,000 entries, which only the benchmark's
quotient_ladder reaches, about 0.06 times a request, and its largest fresh
builds took as long under this rule as under cut-offs.  Two
threads cost most on these calls (2-vCPU host, fresh processes):

- The Poisson kernel's recursion and its K*K tail (poisson.poisson_kernel,
  one real product R^T R on K's float64 view R), and the products of kernel
  blocks in poisson._compressions and ideals._poisson_residuals: GEMMs with
  one long side.  A kernel build at n = 3, d = 2, m = 11 (531,440 rows)
  took 163-177 ms on two threads in one of seven processes, on every call,
  against 11-20 ms on one.
- The Fejer-Riesz Gram solve and its certificate (freealg.sup_norm_bounds),
  in one scope around both.  One solve of a dense p, on the pairs of its
  suffix closure (all words of length <= d), in each of four processes:

    n, d   pairs   two threads     one thread
    2, 5   258     990-2150 ms     72-127 ms
    3, 4   426     1810-2430 ms    366-417 ms
    2, 6   642     2630-3140 ms    570-727 ms

  That table was taken on scipy's LAPACK.  On numpy's, which the solve now
  uses, one of eight two-thread solves at (2, 5) and (3, 4) took 915 ms,
  against 86-100 ms on one thread.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

DEFAULT_TOL = 1e-10
HERMITIAN_RTOL = 1e-12

# The OpenBLAS builds bundled in the numpy and scipy wheels: the package,
# the library file next to it, and the suffix of its thread-count symbols.
_OPENBLAS_BUILDS = (("numpy", "libscipy_openblas64_-*.so", "64_"),
                    ("scipy", "libscipy_openblas-*.so", ""))


def _openblas_thread_functions(package: str, pattern: str, suffix: str):
    """(get, set) of a bundled OpenBLAS thread count, or the reason there is none."""
    root = os.path.dirname(os.path.dirname(sys.modules[package].__file__))
    paths = sorted(glob.glob(os.path.join(root, f"{package}.libs", pattern)))
    if not paths:
        return f"no {pattern} in {package}.libs"
    try:
        lib = ctypes.CDLL(paths[0])
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    except (OSError, AttributeError) as exc:
        return f"{paths[0]}: {exc}"
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _BlasThreadScope:
    """The OpenBLAS thread counts of the process, held at 1 while any scope is open.

    The count is process-wide, so scopes are counted across Python threads:
    the first to enter saves each library's count and sets 1, the last to
    exit restores the saved counts.  A library is looked up when its package
    is first seen in sys.modules at an entry; `status` records, per package,
    the library in control or why there is none, in which case the scope
    leaves that library alone.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []
        self._functions = {}
        self.status = {}

    def counts(self) -> dict:
        """Current thread count of each controlled library, by package."""
        with self._lock:
            self._look_up()
            return {package: get() for package, (get, _) in self._functions.items()}

    def _look_up(self) -> None:
        for package, pattern, suffix in _OPENBLAS_BUILDS:
            if package not in self.status and package in sys.modules:
                found = _openblas_thread_functions(package, pattern, suffix)
                if isinstance(found, str):
                    self.status[package] = f"not controlled: {found}"
                else:
                    self._functions[package] = found
                    self.status[package] = "controlled"

    def __enter__(self):
        with self._lock:
            if not self._depth:
                self._look_up()
                self._saved = [(set_, get()) for get, set_ in self._functions.values()]
                for set_, count in self._saved:
                    if count != 1:
                        set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if not self._depth:
                for set_, count in self._saved:
                    if count != 1:
                        set_(count)


_BLAS_SCOPE = _BlasThreadScope()


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
    """(u, s, vh) of np.linalg.svd (zgesdd), retried once with zgesvd when
    that does not converge, as it did on a finite 94 x 94 triangle of the
    quotient recursion of [e1, e2] + c e1 (n = 2, m = 8, c = 0.47878923076784435).
    If scipy is first imported here, that retry runs on scipy's own count."""
    try:
        return np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        import scipy.linalg
        return scipy.linalg.svd(a, full_matrices=full_matrices, lapack_driver="gesvd")


def hermitian_sqrt(a, *, tol: float = 1e-12) -> np.ndarray:
    """PSD square root by spectral decomposition.

    Eigenvalues in [-tol*scale, 0) are clamped to zero with a warning;
    anything lower means the input is indefinite and raises.
    """
    h = as_hermitian(a)
    with _BLAS_SCOPE:
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

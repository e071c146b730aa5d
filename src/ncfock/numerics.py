"""Dense Hermitian matrix kernels with an explicit tolerance policy.

All tolerances are relative to the spectral scale max(1, ||A||_2); the
default 1e-10 reflects that feasibility-boundary matrices are numerically
singular by design.

LAPACK calls on matrices whose larger side lies in SINGLE_THREAD_DIMS run
on one BLAS thread (see _blas_threads), and so do the calls on tall, narrow
or wide operands whose entry count lies in SINGLE_THREAD_ENTRIES
(_blas_threads_for): at those sizes handing work to a second OpenBLAS
thread costs more than the arithmetic it saves.

The Poisson kernel's recursion and its K*K tail (poisson.poisson_kernel),
and the products of kernel blocks in poisson._compression and
ideals._poisson_residuals, enter the one-thread scope _BLAS_SCOPE at every
size: their GEMMs have one long side (rows x d times d x d, or r x D
times D x d^2).  On a 2-vCPU host with two OpenBLAS threads, a kernel
build at n = 3, d = 2, m = 11 (531,440 rows) took 163-177 ms in one of
seven fresh processes, on every call, against 11-20 ms on one thread.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
import threading
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

DEFAULT_TOL = 1e-10
HERMITIAN_RTOL = 1e-12
# Sizes whose LAPACK calls run on one BLAS thread.  Above 256, two threads
# win.  Up to 16, eigh and svd ran alike on one and two threads (no stalls in
# 1,500 calls), so the scope, about 5 us a call, is skipped there.
SINGLE_THREAD_DIMS = range(17, 257)
# Entry counts of the tall, narrow or wide operands whose calls run on one
# BLAS thread (_blas_threads_for): up to those of a 256 x 256 square.  At
# 289-1,024 entries the scope cost 2-12 us against 10-16 us for the products
# that form a null-space stack, so it is skipped there.
SINGLE_THREAD_ENTRIES = range(1025, 257 * 257)

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
_DEFAULT_THREADS = nullcontext()


def _blas_threads(dim: int):
    """Context that runs the enclosed LAPACK calls on one BLAS thread when
    dim is in SINGLE_THREAD_DIMS, restoring every count on exit, also when a
    call raises; other sizes keep the process's thread counts."""
    return _BLAS_SCOPE if dim in SINGLE_THREAD_DIMS else _DEFAULT_THREADS


def _blas_threads_for(a: np.ndarray):
    """The thread scope of a call on the tall, narrow or wide a, keyed on its
    number of entries (SINGLE_THREAD_ENTRIES).

    Keyed on its larger side, a tall, narrow call ran on two threads.  On a
    2-vCPU host a complex QR of 512 x 18 (9,216 entries) then took 0.25-0.35
    ms against 0.12-0.19 ms on one, or stalled for tens of milliseconds in
    some processes; at 508 x 72 (36,576) both took 2.0-2.2 ms; from 48,000
    entries on (1500 x 32, 700 x 80, 3000 x 20) two threads were 5-20%
    faster, so the cut-off at 66,049 entries keeps one thread on
    48,000-66,048 entries where two would be faster; above it two won
    (1020 x 94: 5.2-5.5 ms against 6.5-7.3 ms).
    """
    return _BLAS_SCOPE if a.size in SINGLE_THREAD_ENTRIES else _DEFAULT_THREADS


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
    with _blas_threads(h.shape[0]):
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
    with _blas_threads(max(a.shape)):
        return float(np.linalg.svd(a, compute_uv=False)[0])


def hermitian_sqrt(a, *, tol: float = 1e-12) -> np.ndarray:
    """PSD square root by spectral decomposition.

    Eigenvalues in [-tol*scale, 0) are clamped to zero with a warning;
    anything lower means the input is indefinite and raises.
    """
    h = as_hermitian(a)
    with _blas_threads(h.shape[0]):
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

"""Finite-degree models of 2-sided ideals and their quotient compressions.

An ideal is presented by polynomial generators.  Its degree-m model is the
span of all padded products e_alpha (x) g (x) e_beta that fit inside P_m;
the quotient model lives on the orthogonal complement N, with compressed
shifts B_i = P_N S_i|_N.  One recursion over degrees builds N for every
spec (_complement_recursion): N_k is the null space, over w candidates built
from N_{k-1}, of stacked shift and generator constraints, found by an SVD
(after an economic QR for tall stacks) with the absolute cut RANK_TOL on
the singular values.  Shifts act as moves of word indices, so no D x D
matrix is formed.  For homogeneous generators every grade is cut on its
own: the model is exact grade by grade, the candidates are C^n (x) the
previous grade, and the step coordinates are the compressions.
Otherwise the model is a polynomial approximation of the weakly closed
ideal, and results carry an approximation flag.  Before each degree, w must
stay within GRADE_COORD_CAP and the candidates within MAX_DENSE_ENTRIES
entries; the basis (D rows) and the n compressions of the model are checked
against MAX_DENSE_ENTRIES before the recursion, from dim N >= D minus the
number of padded products, and again after each degree.

The recursion does not depend on m, so each ideal's runs once per process:
a few recent states are kept (_Recursion, bounded in count and bytes), and
a later build at the same or a lower degree takes their prefix, a higher
one resumes them.  Only the recursion is kept: each build assembles its
model from the state.  Caps are checked for the requested m as in a fresh
build, and results are bit-identical to one.

Compressions at the top grade land in truncated territory, so relation and
semi-invariance statements are only certified on grades up to
reliable_degree = m - max generator degree.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError
from .freealg import (MAX_DENSE_ENTRIES, NcPolynomial, WordIndex, _capped_basis_size,
                      _mult_triplets, _word_products, basis_size, evaluate,
                      truncated_mult_matrix)
from .numerics import DEFAULT_TOL, _BLAS_SCOPE, _svd, operator_norm
from .poisson import (COVARIANCE_WORD_DEGREE, DEFAULT_KMAX, RowContraction, is_c0_certified,
                      poisson_kernel)

GRADE_COORD_CAP = 4096       # largest single-grade coordinate space we factorize
RANK_TOL = 1e-10
SMALL_STACK = 1024           # stacks up to this many entries skip the QR and the complement
# side of the dense compression whose SVD gives caratheodory_distance: on a
# 2-vCPU host D = 1023 takes 0.4-0.7 s and D = 2047 3.1-3.3 s, about 8x per
# doubling, so D = 4095 would take about 25 s
CARATHEODORY_MAX_DIM = 2048


@dataclass
class IdealSpec:
    """Generating data for a 2-sided ideal, modelled up to degree m."""

    n: int
    generators: tuple
    m: int

    def __post_init__(self):
        gens = tuple(self.generators)
        if self.m < 0:
            raise ValueError("working degree must be nonnegative")
        for idx, g in enumerate(gens):
            if not isinstance(g, NcPolynomial) or g.n != self.n:
                raise ValueError(f"generators[{idx}] is not a polynomial over n = {self.n}")
            if g.is_zero:
                raise ValueError(f"generators[{idx}] is zero")
            if g.degree > self.m:
                raise ValueError(
                    f"generators[{idx}] has degree {g.degree} above the working degree {self.m}")
        self.generators = gens

    @property
    def homogeneous(self) -> bool:
        """True when every generator is homogeneous: the model is then grade-exact."""
        return all(g.is_homogeneous for g in self.generators)

    @property
    def max_generator_degree(self) -> int:
        return max([1] + [int(g.degree) for g in self.generators])

    def at_degree(self, m: int) -> "IdealSpec":
        return self if m == self.m else IdealSpec(self.n, self.generators, m)


class FactorTableError(ValueError):
    """A table of commutation factors that _lambda_table rejects: `pair` is
    the key at fault, or None when pairs are missing."""

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


def _lambda_table(n: int, lam) -> np.ndarray:
    """Dense (n+1) x (n+1) table of commutation factors, indexed by letters j > i."""
    table = np.ones((n + 1, n + 1), dtype=complex)
    if isinstance(lam, dict):
        seen = set()
        for (j, i), value in lam.items():
            if not (1 <= i < j <= n):
                raise FactorTableError(
                    f"factor index ({j}, {i}) is not a pair 1 <= i < j <= n", (j, i))
            table[j, i] = complex(value)
            seen.add((j, i))
        missing = {(j, i) for j in range(2, n + 1) for i in range(1, j)} - seen
        if missing:
            raise FactorTableError(f"missing commutation factors for pairs {sorted(missing)}")
    else:
        table[:, :] = complex(lam)
    return table


def q_commutation_spec(n: int, lam, m: int) -> IdealSpec:
    """Ideal generated by e_j (x) e_i - lambda_ji e_i (x) e_j for 1 <= i < j <= n."""
    if n < 2:
        raise ValueError("commutation relations need at least two generators")
    table = _lambda_table(n, lam)
    gens = []
    for j in range(2, n + 1):
        for i in range(1, j):
            gens.append(NcPolynomial(n, {(j, i): 1.0, (i, j): -table[j, i]}))
    return IdealSpec(n, tuple(gens), m)


def _left_adjoint_shifts(X: np.ndarray, n: int, m: int) -> np.ndarray:
    """[L_1* X, ..., L_n* X] for columns X in P_m, of shape (D(n, m-1), n, w):
    L_i puts the letter i in front of a word, so L_i* moves the grade-(k+1)
    rows of the words starting with i to grade k.

    R_i*, which drops the last letter, is a view: the word beta i sits at
    row n j + i, j the row of beta, so R_i* X = X[1:].reshape(-1, n, w)[:, i - 1].
    """
    w = X.shape[1]
    out = np.empty((basis_size(n, m - 1), n, w), dtype=complex)
    at = 0
    for k in range(m):
        size = n ** k
        block = X[1 + n * at:1 + n * (at + size)]
        out[at:at + size] = block.reshape(n, size, w).transpose(1, 0, 2)
        at += size
    return out


def _null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning {x : A x = 0}, singular values <= RANK_TOL cut.

    A stack taller than its width w is first reduced to its w x w triangle
    R, unless it has at most SMALL_STACK entries.  On the tall stacks of the
    quotient_ladder benchmark workload (2-vCPU host), one SVD took 14-74 us
    from 5 x 4 to 64 x 12 (768 entries) against 34-98 us for the QR and the
    SVD of R; from 128 x 14 (1,792 entries) on, the two calls were faster
    (95 against 109 us).  755 of its 843 tall stacks have at most 1,024
    entries.
    """
    w = A.shape[1]
    if not A.size:
        return np.eye(w, dtype=complex)
    if len(A) > w and A.size > SMALL_STACK:
        A = np.linalg.qr(A, mode="r")
    _, s, vh = _svd(A, full_matrices=len(A) < w)
    return vh[np.count_nonzero(s > RANK_TOL):].conj().T


def _padded_count(spec: IdealSpec) -> int:
    """Number of padded products e_alpha g e_beta inside P_m, at least dim V_m."""
    n, m = spec.n, spec.m
    return sum((t + 1) * n ** t for g in spec.generators for t in range(m - int(g.degree) + 1))


def _require_candidates_fit(k: int, dim: int, w: int) -> None:
    if w > GRADE_COORD_CAP:
        raise ResourceCapError(
            f"degree-{k} candidate space of size {w} exceeds the cap {GRADE_COORD_CAP}")
    if dim * w > MAX_DENSE_ENTRIES:
        raise ResourceCapError(
            f"degree-{k} candidates of {dim} x {w} entries exceed the cap {MAX_DENSE_ENTRIES}")


def _require_model_fits(dim: int, n: int, r: int) -> None:
    if dim * r > MAX_DENSE_ENTRIES or n * r * r > MAX_DENSE_ENTRIES:
        raise ResourceCapError(
            f"quotient basis of {dim} x {r} entries or compressions of {n} x {r} x {r} "
            f"entries exceed the cap {MAX_DENSE_ENTRIES}")


def _coefficient_norm(g: NcPolynomial) -> float:
    """||g||_2, one hypot of the real and imaginary parts of g's
    coefficients: no coefficient is squared, so it neither overflows nor
    underflows before it must."""
    coeffs = np.array(list(g.terms.values()))
    return math.hypot(*coeffs.real, *coeffs.imag)


def _memo_key(spec: IdealSpec) -> tuple:
    """(n, the generators' words in order, their coefficients' bytes): specs
    with equal keys run bit-identical recursions, and the bytes keep apart
    coefficients that differ only in a signed zero."""
    gens = spec.generators
    coeffs = np.array([c for g in gens for c in g.terms.values()], dtype=complex)
    return (spec.n, tuple(tuple(g.terms) for g in gens), coeffs.tobytes())


class _Recursion:
    """One ideal's degree recursion, run up to degree len(blocks) - 1.

    Nothing in it depends on the working degree: N_k comes from N_{k-1} and
    the degree-k generators alone, so the model at degree m is built from
    the prefix up to m.  units holds the generator rows by degree (see
    _complement_recursion) and k0 the lowest generator degree (None without
    generators).  blocks[k] is the grade-k block of N when graded, else N_k
    (None below k0 - 1); coords[k] the (n, r_k, r_{k-1}) block of the
    compressions from grade k - 1 to grade k of a graded degree, the step
    coordinates X as X.reshape(n, r_{k-1}, r_k) conjugate-transposed (None
    for whole grades); widths[k] the candidates of step k (None where no
    step ran).  These three are tuples and it holds nothing else: an
    extended recursion is a new object, and models are assembled from it
    per call (_quotient_model).
    """

    __slots__ = ("graded", "units", "k0", "blocks", "coords", "widths")

    def __init__(self, graded, units, k0, blocks=(), coords=(), widths=()):
        self.graded, self.units, self.k0 = graded, units, k0
        self.blocks, self.coords, self.widths = tuple(blocks), tuple(coords), tuple(widths)

    def nbytes(self) -> int:
        """Bytes of the arrays it holds."""
        return sum(a.nbytes for a in self.blocks + self.coords if a is not None)


# Recursion states by _memo_key, least recently used first: at most
# MEMO_SPECS of them holding at most MEMO_BYTES of arrays together, so a
# large build is not kept once it has returned.
MEMO_SPECS = 2
MEMO_BYTES = 2 ** 24
_memo = OrderedDict()
_memo_lock = threading.Lock()


def _memo_get(key):
    with _memo_lock:
        run = _memo.get(key)
        if run is not None:
            _memo.move_to_end(key)
        return run


def _memo_put(key, run: _Recursion) -> None:
    """Keep the longer of run and the held recursion, unless that alone
    holds more than MEMO_BYTES."""
    with _memo_lock:
        held = _memo.pop(key, None)
        if held is None or len(held.blocks) < len(run.blocks):
            held = run
        if held.nbytes() > MEMO_BYTES:
            return
        _memo[key] = held
        while len(_memo) > MEMO_SPECS or sum(r.nbytes() for r in _memo.values()) > MEMO_BYTES:
            _memo.popitem(last=False)


def _complement_recursion(spec: IdealSpec, key) -> _Recursion:
    """The recursion for the complement N of the padded ideal V_m in P_m,
    resumed from the memo's state of spec's ideal and run up to degree m.

    V_k = V_{k-1} + sum_i (L_i V_{k-1} + R_i V_{k-1}) + the degree-k
    generators, so N_k holds the v in P_k with P_{k-1} v, L_i* v and R_i* v
    in N_{k-1} and v orthogonal to those generators.  Below the lowest
    generator degree k0 nothing is cut and N_{k0-1} is all of P_{k0-1};
    each later degree is one _next_complement step.  For a homogeneous spec
    every grade is cut on its own (see _Recursion).  Caps, in this order
    whether or not a degree was run before: a lower bound of dim N (D minus
    the padded products) before anything is allocated, the first step's
    candidates before N_{k0-1} is, the candidates of each step before it
    allocates (_next_complement; replayed from the stored widths), and the
    model so far after each step, all against D = D(n, m).  The result may
    run past m; a step that fails a cap stores nothing.
    """
    n, m, graded = spec.n, spec.m, spec.homogeneous
    wi = WordIndex(n, m)
    _require_model_fits(wi.dim, n, max(wi.dim - _padded_count(spec), 0))
    run = _memo_get(key)
    if run is None:
        # unit-normalized generator rows by degree: the rows of their words,
        # counted from the end of P_k, where grade k closes every step's rows;
        # s g gives the row of g at any scale s (_coefficient_norm)
        units = {}
        for g in spec.generators:
            k = int(g.degree)
            units.setdefault(k, []).append(
                ([wi.index(word) - wi.grade_start(k + 1) for word in g.terms],
                 np.array(list(g.terms.values())).conj() / _coefficient_norm(g)))
        run = _Recursion(graded, units, min(units, default=None))
    k0 = m + 1 if run.k0 is None else run.k0
    if k0 > 0:
        _require_model_fits(wi.dim, n, wi.grade_start(min(k0, m + 1)))
        if k0 <= m:   # the first candidates are all of grade k0, or of P_k0
            first = n ** k0 if graded else wi.grade_start(k0 + 1)
            _require_candidates_fit(k0, first, first)
    blocks, coords, widths = list(run.blocks), list(run.coords), list(run.widths)
    total = 0
    for k in range(m + 1):
        if k < len(blocks):
            if widths[k] is not None:
                _require_candidates_fit(k, len(blocks[k]), widths[k])
        elif k < k0:   # whole grades, or all of P_{k0-1}
            size = n ** k if graded else wi.grade_start(k0) if k == k0 - 1 else None
            blocks.append(None if size is None else np.eye(size, dtype=complex))
            coords.append(None)
            widths.append(None)
        elif k == 0:   # a nonzero constant generates all of P_m
            blocks.append(np.zeros((1, 0), dtype=complex))
            coords.append(None)
            widths.append(None)
        else:
            N, X = _next_complement(blocks[-1], n, k, run.units.get(k, ()), graded)
            blocks.append(N)
            coords.append(X.reshape(n, len(X) // n, X.shape[1]).conj().transpose(0, 2, 1)
                          if graded else None)
            widths.append(len(X))
        if blocks[k] is not None:
            total = total + blocks[k].shape[1] if graded else blocks[k].shape[1]
        if widths[k] is not None:
            _require_model_fits(wi.dim, n, total)
    if len(blocks) == len(run.blocks):
        return run
    return _Recursion(graded, run.units, run.k0, blocks, coords, widths)


def _next_complement(N: np.ndarray, n: int, k: int, units, graded: bool):
    """(N_k, X) from N = N_{k-1}, with N_k = Phi X over orthonormal candidates Phi.

    The grade-k part of v in N_k lies in C^n (x) range(U), U an orthonormal
    basis of the range of N's grade-(k-1) block.  So Phi is [N | I_n (x) U]
    on P_k, w = r + n q columns; when graded, N is the grade-(k-1) block
    itself, U = N and Phi = I_n (x) N on grade k, w = n r.  X spans the null
    space of (I - N N*) L_i* Phi and (I - N N*) R_i* Phi (R_i* alone when
    graded: L_i* maps I_n (x) N into range(N), so those rows vanish),
    stacked with the degree-k generator rows g* Phi (units, see
    _complement_recursion).  Each constraint block maps the orthonormal
    candidates by a contraction and each generator row is a unit vector, so
    the null space keeps the singular values above the absolute cut
    RANK_TOL.
    """
    r, below, size = N.shape[1], len(N), n ** (k - 1)
    if graded:
        U, kept = N, N[:0, :0]
    else:
        u, s, _ = _svd(N[-size:])
        U, kept = u[:, :np.count_nonzero(s > RANK_TOL)], N
    (base, lower), q = kept.shape, U.shape[1]
    w = lower + n * q
    _require_candidates_fit(k, base + n * size, w)
    phi = np.zeros((base + n * size, w), dtype=complex)
    phi[:base, :lower] = kept
    for i in range(n):   # I_n (x) U
        phi[base + i * size:base + (i + 1) * size, lower + i * q:lower + (i + 1) * q] = U
    rows = [coeffs @ phi[at] for at, coeffs in units]
    # the shifted candidates, rows indexed like N's: (below, shifts, w); the
    # graded ones are phi itself, which is not read after this; the others
    # are [L_1* phi, ..., L_n* phi, R_1* phi, ..., R_n* phi]
    if graded:
        shifted = phi.reshape(size, n, w)
    else:
        shifted = np.concatenate(
            [_left_adjoint_shifts(phi, n, k), phi[1:].reshape(below, n, w)], axis=1)
    images = shifted.reshape(below, -1)
    if below - r < r and images.size > SMALL_STACK:
        # I - N N* = C C* for an orthonormal basis C of the complement of N;
        # when that is the smaller side, C* gives the same singular values
        # in fewer rows (15 x 96 images: 140 against 223 us with the null
        # space; 40 x 666: 1.4 against 4.4 ms).  Up to SMALL_STACK entries,
        # where 456 of the 524 such steps of the quotient_ladder workload
        # lie, the projection is cheaper: taking C there made q-commutation
        # builds at n = 2, m = 4..6 8-12% slower
        C = N[:, :0]
        if r < below:
            C = np.linalg.qr(N, mode="complete")[0][:, r:]
        images = C.conj().T @ images
    else:
        images -= N @ (N.conj().T @ images)
    rows.append(images.reshape(len(images) * shifted.shape[1], w))
    X = _null_space(np.vstack(rows))
    top = (U @ X[lower:].reshape(n, q, X.shape[1])).reshape(n * size, X.shape[1])
    # graded, kept is empty: stacking it on top would only copy top
    return (top if graded else np.vstack([kept @ X[:lower], top])), X


def _assemble(wi: WordIndex, blocks) -> np.ndarray:
    total = sum(b.shape[1] for b in blocks)
    out = np.zeros((wi.dim, total), dtype=complex)
    at = 0
    for k, block in enumerate(blocks):
        out[wi.grade_slice(k), at:at + block.shape[1]] = block
        at += block.shape[1]
    return out


@dataclass
class QuotientModel:
    """Orthonormal basis of the co-invariant complement plus compressed shifts.

    n_basis, compressions and grades are read-only.  build_quotient
    assembles them per call, except n_basis for non-homogeneous generators:
    that is the memo's own N_m, handed to every caller at degree m.  grades
    is None for an approximate (non-homogeneous) model.
    """

    spec: IdealSpec
    n_basis: np.ndarray = field(repr=False)
    compressions: np.ndarray = field(repr=False)
    grades: np.ndarray

    def __post_init__(self):
        for array in (self.n_basis, self.compressions, self.grades):
            if array is not None:
                array.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self.n_basis.shape[1])

    @property
    def reliable_degree(self) -> int:
        """The top grade on which relation and semi-invariance statements hold."""
        return self.spec.m - self.spec.max_generator_degree

    @property
    def trivial(self) -> bool:
        return self.dim == 0

    @property
    def approximate(self) -> bool:
        """True for non-homogeneous generators: no grade-exact certificate."""
        return self.grades is None

    def grade_dimensions(self) -> list:
        if self.grades is None:
            return []
        return [int(np.count_nonzero(self.grades == k)) for k in range(self.spec.m + 1)]

    def grade_positions(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.grades == k)


def build_quotient(spec: IdealSpec) -> QuotientModel:
    """Quotient model on N = P_m minus the padded ideal, with B_i = P_N S_i|_N.

    One recursion over degrees builds N (_complement_recursion), run once
    per process for each ideal (see the module docstring); the model is
    assembled from its prefix up to m on every call, bit-identical to a
    fresh build.  The whole build runs on one BLAS thread (see numerics).
    Homogeneous generators give grade-exact bases whose step coordinates
    are the block-bidiagonal compressions; the top grade maps into
    truncated territory, so relation checks only hold on grades up to
    reliable_degree.  Other generators give an approximate model, with
    B_i = (L_i* N)* N.  The model's .spec is the caller's spec.  Each
    generator enters as its unit row, so s g builds the model of g at any
    scale s, and every rank is cut at the one absolute RANK_TOL.
    """
    key = _memo_key(spec)
    with _BLAS_SCOPE:
        run = _complement_recursion(spec, key)
        _memo_put(key, run)
        return _quotient_model(spec, run)


def _quotient_model(spec: IdealSpec, run: _Recursion) -> QuotientModel:
    n, m = spec.n, spec.m
    if not run.graded:
        n_basis = run.blocks[m]
        # B_i = N* L_i N = (L_i* N)* P_{m-1} N
        r = n_basis.shape[1]
        lowered = _left_adjoint_shifts(n_basis, n, m)   # L_i* N in P_{m-1}
        B = (lowered.reshape(len(lowered), n * r).conj().T
             @ n_basis[:len(lowered)]).reshape(n, r, r)
        return QuotientModel(spec, n_basis, B, None)
    blocks, coords = run.blocks[:m + 1], run.coords
    sizes = [b.shape[1] for b in blocks]
    at = list(itertools.accumulate(sizes, initial=0))
    r = at[-1]
    B = np.zeros((n, r, r), dtype=complex)
    for k in range(1, m + 1):
        if coords[k] is None:   # a whole grade: L_i puts grade k-1 in its i-th part
            for i in range(n):
                B[i, at[k] + i * sizes[k - 1]:at[k] + (i + 1) * sizes[k - 1],
                  at[k - 1]:at[k]] = np.eye(sizes[k - 1])
        else:
            B[:, at[k]:at[k + 1], at[k - 1]:at[k]] = coords[k]
    return QuotientModel(spec, _assemble(WordIndex(n, m), blocks), B,
                         np.repeat(np.arange(m + 1), sizes))


def quotient_distance(f: NcPolynomial, spec: IdealSpec, *,
                      model: QuotientModel = None) -> float:
    """Norm of the compression of multiplication by f to the complement N.

    For homogeneous generators the complement is grade-exact, so this is a
    certified lower bound for the distance from f to the ideal, nondecreasing
    in the working degree m, vanishing identically on padded ideal elements,
    and exact for graded finite cases (see caratheodory_distance).  For
    non-homogeneous generators no finite certificate exists and the value is
    an empirical approximation only (the model carries that flag).
    """
    if model is None:
        model = build_quotient(spec)
    spec = model.spec
    if f.n != spec.n:
        raise ValueError(f"polynomial over n = {f.n}, ideal over n = {spec.n}")
    if not f.is_zero and f.degree > spec.m:
        raise ValueError(f"deg f = {f.degree} exceeds the working degree {spec.m}")
    if model.trivial or f.is_zero:
        return 0.0
    if not model.approximate:
        return operator_norm(evaluate(f, model.compressions))
    N = model.n_basis
    fN = np.zeros_like(N)   # L_f N compressed to P_m, as moves of word indices
    for rows, cols, c in _mult_triplets(f, spec.m):
        fN[rows] += c * N[cols]
    return operator_norm(N.conj().T @ fN)


def caratheodory_distance(p: NcPolynomial, m0: int) -> float:
    """Distance from p to the multipliers supported in degrees above m0.

    Here the complement is all of P_m0, so the value is the exact norm of
    the compression of multiplication by p to P_m0: the ideal is graded and
    the complement finite dimensional, so no truncation error enters.  The
    compression is D(n, m0) x D(n, m0) with D at most CARATHEODORY_MAX_DIM.
    """
    if p.is_zero:
        return 0.0
    if p.degree > m0:
        raise ValueError(f"deg p = {p.degree} exceeds m0 = {m0}")
    dim = _capped_basis_size(p.n, m0)
    if dim > CARATHEODORY_MAX_DIM:
        raise ResourceCapError(
            f"compression of side D({p.n},{m0}) = {dim} exceeds the cap {CARATHEODORY_MAX_DIM}")
    return operator_norm(truncated_mult_matrix(p, m0))


def _require_admissible(T: RowContraction, spec: IdealSpec, tol: float, kmax: int):
    """Require a tuple that annihilates every generator and is certified pure.

    g(T) = 0 is tested as ||g(T)|| <= tol ||g||_2 (_coefficient_norm, which
    also scales g's unit row in _complement_recursion): the ideal of s g is
    that of g, and so is the verdict, at any scale s.
    """
    offenders = []
    for idx, g in enumerate(spec.generators):
        norm = operator_norm(evaluate(g, T.matrices))
        bound = tol * _coefficient_norm(g)
        if norm > bound:
            offenders.append(f"generators[{idx}]: ||g(T)|| = {norm:.3e} > tol ||g||_2 = "
                             f"{bound:.3e}")
    if offenders:
        raise DomainError(
            "tuple does not annihilate the ideal generators: " + "; ".join(offenders))
    if not is_c0_certified(T, kmax):
        raise DomainError(
            f"tuple is not certified pure: sigma_{kmax} has not decayed below 1")


def _von_neumann_sides(T, f, spec, model):
    lhs = operator_norm(evaluate(f, T.matrices))
    rhs = quotient_distance(f, spec, model=model)
    return (float(lhs), float(rhs))


def constrained_von_neumann_check(T: RowContraction, f: NcPolynomial, spec: IdealSpec,
                                  *, model: QuotientModel = None, gen_tol: float = DEFAULT_TOL,
                                  c0_kmax: int = DEFAULT_KMAX):
    """(lhs, rhs) with lhs = ||f(T)|| and rhs the quotient compression norm.

    Requires a certified pure tuple annihilating every generator.  For
    homogeneous generators rhs is a finite-degree lower bound of the true
    quotient distance, so callers assert lhs <= rhs only once rhs has
    stabilized, with an explicit convergence slack; otherwise
    (model.approximate) it is neither a bound nor monotone in the degree.
    """
    _require_admissible(T, spec, gen_tol, c0_kmax)
    return _von_neumann_sides(T, f, spec, model)


def _poisson_residuals(T, spec, m, model):
    if model is None:
        model = build_quotient(spec.at_degree(m))
    elif model.spec.m != m:
        raise ValueError(f"kernel degree m = {m} differs from the model's degree "
                         f"model.spec.m = {model.spec.m}")
    basis = model.n_basis
    K = poisson_kernel(T, m).matrix.reshape(len(basis), -1)   # a row of d^2 entries per word
    with _BLAS_SCOPE:
        coords = basis.conj().T @ K
        projected = basis @ coords
    range_residual = operator_norm((K - projected).reshape(-1, T.d))

    words = list(WordIndex(T.n, min(COVARIANCE_WORD_DEGREE, m)).words())
    # K* (B_alpha B_beta* tensor I) K = Y_alpha* Y_beta with Y_w = (B_w* tensor I) K
    Bw = _word_products(model.compressions, words)
    Y = (Bw.conj().transpose(0, 2, 1) @ coords.reshape(model.dim, -1)).reshape(
        len(words), model.dim * T.d, T.d)
    Tw = _word_products(T.matrices, words)
    with _BLAS_SCOPE:
        worst = operator_norm(_pair_defects(Y, Tw)).max()
    return (float(range_residual), float(worst))


def _pair_defects(Y: np.ndarray, Tw: np.ndarray) -> np.ndarray:
    """Y_alpha* Y_beta - T_alpha T_beta* for the unordered pairs alpha <= beta
    of the stacked words, shape (pairs, d, d).  With Yf the Y_w side by side
    and Tf the T_w stacked, block (alpha, beta) of Yf* Yf - Tf Tf* is the
    defect: one product each.  The (beta, alpha) defect is the adjoint of
    the (alpha, beta) one, with the same norm."""
    count, rows, d = Y.shape
    yf = Y.transpose(1, 0, 2).reshape(rows, count * d)
    tf = Tw.reshape(count * d, d)
    blocks = (yf.conj().T @ yf - tf @ tf.conj().T).reshape(count, d, count, d)
    alpha, beta = np.triu_indices(count)
    return blocks[alpha, :, beta, :]


def quotient_poisson_check(T: RowContraction, spec: IdealSpec, m: int,
                           *, model: QuotientModel = None, gen_tol: float = DEFAULT_TOL,
                           c0_kmax: int = DEFAULT_KMAX):
    """(range_residual, covariance_residual) for the kernel against the model.

    range_residual measures how far the kernel columns stick out of
    N tensor C^d; covariance_residual is the worst defect of
    K* (B_alpha B_beta* tensor I) K against T_alpha T_beta* over words of
    length up to COVARIANCE_WORD_DEGREE.  Both vanish with the truncation
    tail for pure tuples.  A model must be built at the kernel's degree m.
    """
    _require_admissible(T, spec, gen_tol, c0_kmax)
    return _poisson_residuals(T, spec, m, model)


def quotient_checks(T: RowContraction, f: NcPolynomial, spec: IdealSpec, m: int,
                    *, model: QuotientModel = None, gen_tol: float = DEFAULT_TOL,
                    c0_kmax: int = DEFAULT_KMAX):
    """(lhs, rhs, range_residual, covariance_residual): the results of
    constrained_von_neumann_check and quotient_poisson_check for one tuple,
    which is checked once."""
    _require_admissible(T, spec, gen_tol, c0_kmax)
    return (*_von_neumann_sides(T, f, spec, model),
            *_poisson_residuals(T, spec, m, model))

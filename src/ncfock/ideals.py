"""Finite-degree models of 2-sided ideals and their quotient compressions.

An ideal is presented by polynomial generators.  Its degree-m model is the
span of all padded products e_alpha (x) g (x) e_beta that fit inside P_m;
the quotient model lives on the orthogonal complement N, with compressed
shifts B_i = P_N S_i|_N.  For homogeneous generators the model is exact
grade by grade and built by a recursion from the generators, whose
coordinates are the compressions; otherwise it is a dense polynomial
approximation of the weakly closed ideal and results carry an
approximation flag.

Compressions at the top grade land in truncated territory, so relation and
semi-invariance statements are only certified on grades up to
reliable_degree = m - max generator degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError
from .freealg import (MAX_DENSE_ENTRIES, NcPolynomial, WordIndex, basis_size,
                      truncated_mult_matrix, word_value)
from .numerics import operator_norm
from .poisson import RowContraction, is_c0_certified, poisson_kernel

GRADE_COORD_CAP = 4096       # largest single-grade coordinate space we factorize
RANK_TOL = 1e-10


@dataclass
class IdealSpec:
    """Generating data for a 2-sided ideal, modelled up to degree m."""

    n: int
    generators: tuple
    m: int
    homogeneous: bool = None

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
        actual = all(g.is_homogeneous for g in gens)
        if self.homogeneous is None:
            self.homogeneous = actual
        elif self.homogeneous != actual:
            raise ValueError(f"homogeneous flag {self.homogeneous} does not match generators")
        self.generators = gens

    @property
    def max_generator_degree(self) -> int:
        return max([1] + [int(g.degree) for g in self.generators])

    def at_degree(self, m: int) -> "IdealSpec":
        return self if m == self.m else IdealSpec(self.n, self.generators, m)


def _lambda_table(n: int, lam) -> np.ndarray:
    """Dense (n+1) x (n+1) table of commutation factors, indexed by letters j > i."""
    table = np.ones((n + 1, n + 1), dtype=complex)
    if isinstance(lam, dict):
        seen = set()
        for (j, i), value in lam.items():
            if not (1 <= i < j <= n):
                raise ValueError(f"factor index ({j}, {i}) is not a pair 1 <= i < j <= n")
            table[j, i] = complex(value)
            seen.add((j, i))
        missing = {(j, i) for j in range(2, n + 1) for i in range(1, j)} - seen
        if missing:
            raise ValueError(f"missing commutation factors for pairs {sorted(missing)}")
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


def _padded_dense_rows(spec: IdealSpec, wi: WordIndex) -> np.ndarray:
    """Rows spanning the padded ideal inside all of P_m (any generators)."""
    n = spec.n
    blocks = []
    for g in spec.generators:
        dg = int(g.degree)
        terms = [(word_value(w, n), len(w), c) for w, c in g.terms.items()]
        for a in range(spec.m - dg + 1):
            for b in range(spec.m - dg - a + 1):
                cnt = n ** (a + b)
                block = np.zeros((cnt, wi.dim), dtype=complex)
                r = np.arange(cnt)
                u, w = r // n ** b, r % n ** b
                for vg, dgam, c in terms:
                    cols = wi.grade_start(a + dgam + b) + (u * n ** dgam + vg) * n ** b + w
                    block[r, cols] += c
                blocks.append(block)
    if not blocks:
        return np.zeros((0, wi.dim), dtype=complex)
    return np.vstack(blocks)


def _split_row_space(rows: np.ndarray, rank_tol: float):
    """Orthonormal (row-space basis, complement basis) columns of the ambient space.

    The rows of vh span the row space as vectors, so the column bases use a
    plain transpose; vh being unitary keeps both column families orthonormal.
    """
    dim = rows.shape[1]
    if rows.shape[0] == 0:
        return (np.zeros((dim, 0), dtype=complex), np.eye(dim, dtype=complex))
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.count_nonzero(s > rank_tol * s[0])) if s.size else 0
    return (np.ascontiguousarray(vh[:rank].T),
            np.ascontiguousarray(vh[rank:].T))


def _grade_recursion(spec: IdealSpec, rank_tol: float):
    """Grade complements N_k (n^k x r_k) and coordinates C_{k+1} of a homogeneous spec.

    N_0 is C minus the degree-0 generators, and N_{k+1} is the intersection
    of N_k (x) C^n, C^n (x) N_k and the orthogonal complement of the
    degree-(k+1) generators.  In the coordinates of C^n (x) N_k, where
    N_{k+1} = (I (x) N_k) C_{k+1}, the intersection is the right singular
    space at sigma = 1 of (N_k (x) I)*(I (x) N_k), and a generator g is the
    vector (I (x) N_k)* g over its coefficient norm, so the rank cut is
    relative to the unit vectors it is stacked with.
    """
    n = spec.n
    dim = basis_size(n, spec.m)
    units = [[g.coefficient(())] for g in spec.generators if g.degree == 0]
    blocks = [_split_row_space(np.array(units, dtype=complex).reshape(-1, 1), rank_tol)[1]]
    coords = []
    total = blocks[0].shape[1]
    for k in range(spec.m):
        N = blocks[-1]
        r = N.shape[1]
        if n * r > GRADE_COORD_CAP:
            raise ResourceCapError(
                f"grade-{k + 1} coordinate space of size {n * r} exceeds the cap "
                f"{GRADE_COORD_CAP}")
        # rows orthogonal to N_{k+1} in these coordinates; when N_k is empty or
        # all of grade k, N_k (x) C^n contains C^n (x) N_k and none are dropped
        dropped = np.zeros((0, n * r))
        if r not in (0, n ** k):
            w = n ** (k - 1)
            overlap = np.einsum("awr,wbs->rbas", N.reshape(n, w, r).conj(),
                                N.reshape(w, n, r)).reshape(r * n, n * r)
            _, s, vh = np.linalg.svd(overlap)
            kept = int(np.count_nonzero(s >= 1.0 - rank_tol))
            dropped = vh[kept:].conj()
        gens = []
        for g in spec.generators:
            if g.degree == k + 1:
                row = np.zeros((n, r), dtype=complex)
                for word, c in g.terms.items():
                    row[word[0] - 1] += c * N[word_value(word[1:], n)].conj()
                gens.append(row.reshape(1, -1) / np.linalg.norm(list(g.terms.values())))
        C = None   # the identity: N_{k+1} = C^n (x) N_k
        if gens:
            C = _split_row_space(np.vstack([dropped] + gens), rank_tol)[1]
        elif dropped.shape[0]:
            C = vh[:kept].conj().T
        total += n * r if C is None else C.shape[1]
        if dim * total > MAX_DENSE_ENTRIES or n * total * total > MAX_DENSE_ENTRIES:
            raise ResourceCapError(
                f"quotient basis of {dim} x {total}+ entries or compressions of "
                f"{n} x {total}+ x {total}+ exceed the cap {MAX_DENSE_ENTRIES}")
        coords.append(C)
        if C is None:
            blocks.append(np.kron(np.eye(n), N))
        else:
            blocks.append((N @ C.reshape(n, r, C.shape[1])).reshape(n ** (k + 1), C.shape[1]))
    return blocks, coords


def _assemble(wi: WordIndex, blocks) -> np.ndarray:
    total = sum(b.shape[1] for b in blocks)
    out = np.zeros((wi.dim, total), dtype=complex)
    at = 0
    for k, block in enumerate(blocks):
        out[wi.grade_slice(k), at:at + block.shape[1]] = block
        at += block.shape[1]
    return out


def ideal_subspace(spec: IdealSpec, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the degree-m component of the padded ideal.

    For homogeneous generators this is exact grade by grade; otherwise it is
    the dense polynomial model.
    """
    wi = WordIndex(spec.n, spec.m)
    factored = spec.n ** spec.m if spec.homogeneous else wi.dim
    if factored > GRADE_COORD_CAP:
        raise ResourceCapError(
            f"coordinate space of size {factored} exceeds the cap {GRADE_COORD_CAP}")
    if spec.homogeneous:
        model = build_quotient(spec, rank_tol)
        return _assemble(wi, [
            _split_row_space(model.n_basis[wi.grade_slice(k), model.grade_positions(k)].T,
                             rank_tol)[1]
            for k in range(spec.m + 1)])
    ideal, _ = _split_row_space(_padded_dense_rows(spec, wi), rank_tol)
    return ideal


@dataclass
class QuotientModel:
    """Orthonormal basis of the co-invariant complement plus compressed shifts."""

    spec: IdealSpec
    n_basis: np.ndarray = field(repr=False)
    compressions: np.ndarray = field(repr=False)
    reliable_degree: int
    grades: np.ndarray = None
    trivial: bool = False
    approximate: bool = False

    @property
    def dim(self) -> int:
        return int(self.n_basis.shape[1])

    def grade_dimensions(self) -> list:
        if self.grades is None:
            return []
        return [int(np.count_nonzero(self.grades == k)) for k in range(self.spec.m + 1)]

    def grade_positions(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.grades == k)

    def evaluate_polynomial(self, f: NcPolynomial) -> np.ndarray:
        """f(B) = sum_alpha coeff(alpha) B_alpha at the compressed shifts."""
        if f.n != self.spec.n:
            raise ValueError(f"polynomial over n = {f.n}, ideal over n = {self.spec.n}")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for word, coeff in f.terms.items():
            term = coeff * np.eye(self.dim, dtype=complex)
            for letter in word:
                term = term @ self.compressions[letter - 1]
            out += term
        return out


def build_quotient(spec: IdealSpec, rank_tol: float = RANK_TOL) -> QuotientModel:
    """Quotient model on N = P_m minus the padded ideal, with B_i = P_N S_i|_N.

    Homogeneous generators give grade-exact bases and block-bidiagonal
    compressions; the top grade maps into truncated territory, so relation
    checks only hold on grades up to reliable_degree.
    """
    wi = WordIndex(spec.n, spec.m)
    n, m = spec.n, spec.m
    reliable = m - spec.max_generator_degree
    if spec.homogeneous:
        blocks, coords = _grade_recursion(spec, rank_tol)
        sizes = [b.shape[1] for b in blocks]
        at = np.cumsum([0] + sizes)
        r = int(at[-1])
        B = np.zeros((n, r, r), dtype=complex)
        for k, C in enumerate(coords):
            if C is None:
                for i in range(n):
                    B[i, at[k + 1] + i * sizes[k]:at[k + 1] + (i + 1) * sizes[k],
                      at[k]:at[k + 1]] = np.eye(sizes[k])
            else:
                B[:, at[k + 1]:at[k + 2], at[k]:at[k + 1]] = \
                    C.reshape(n, sizes[k], sizes[k + 1]).conj().transpose(0, 2, 1)
        return QuotientModel(spec, _assemble(wi, blocks), B, reliable,
                             grades=np.repeat(np.arange(m + 1), sizes),
                             trivial=(r == 0), approximate=False)
    if wi.dim > GRADE_COORD_CAP:
        raise ResourceCapError(
            f"dense model of size {wi.dim} exceeds the cap {GRADE_COORD_CAP}")
    _, n_basis = _split_row_space(_padded_dense_rows(spec, wi), rank_tol)
    r = n_basis.shape[1]
    if n * r * r > MAX_DENSE_ENTRIES:
        raise ResourceCapError(
            f"compressions of {n} x {r} x {r} entries exceed the cap {MAX_DENSE_ENTRIES}")
    B = np.zeros((n, r, r), dtype=complex)
    for i in range(n):
        shift = truncated_mult_matrix(NcPolynomial.generator(n, i + 1), m)
        B[i] = n_basis.conj().T @ shift @ n_basis
    return QuotientModel(spec, n_basis, B, reliable, grades=None,
                         trivial=(r == 0), approximate=True)


def quotient_distance(f: NcPolynomial, spec: IdealSpec, *, model: QuotientModel = None,
                      rank_tol: float = RANK_TOL) -> float:
    """Norm of the compression of multiplication by f to the complement N.

    For homogeneous generators the complement is grade-exact, so this is a
    certified lower bound for the distance from f to the ideal, nondecreasing
    in the working degree m, vanishing identically on padded ideal elements,
    and exact for graded finite cases (see caratheodory_distance).  For
    non-homogeneous generators no finite certificate exists and the value is
    an empirical approximation only (the model carries that flag).
    """
    if model is None:
        model = build_quotient(spec, rank_tol)
    spec = model.spec
    if f.n != spec.n:
        raise ValueError(f"polynomial over n = {f.n}, ideal over n = {spec.n}")
    if not f.is_zero and f.degree > spec.m:
        raise ValueError(f"deg f = {f.degree} exceeds the working degree {spec.m}")
    if model.trivial or f.is_zero:
        return 0.0
    if not model.approximate:
        return operator_norm(model.evaluate_polynomial(f))
    mult = truncated_mult_matrix(f, spec.m)
    return operator_norm(model.n_basis.conj().T @ mult @ model.n_basis)


def caratheodory_distance(p: NcPolynomial, m0: int) -> float:
    """Distance from p to the multipliers supported in degrees above m0.

    Here the complement is all of P_m0, so the value is the exact norm of
    the compression of multiplication by p to P_m0: the ideal is graded and
    the complement finite dimensional, so no truncation error enters.
    """
    if p.is_zero:
        return 0.0
    if p.degree > m0:
        raise ValueError(f"deg p = {p.degree} exceeds m0 = {m0}")
    return operator_norm(truncated_mult_matrix(p, m0))


def _require_annihilates(T: RowContraction, spec: IdealSpec, tol: float):
    offenders = []
    for idx, g in enumerate(spec.generators):
        norm = operator_norm(T.evaluate_polynomial(g))
        if norm > tol:
            offenders.append(f"generators[{idx}]: ||g(T)|| = {norm:.3e}")
    if offenders:
        raise DomainError(
            "tuple does not annihilate the ideal generators: " + "; ".join(offenders))


def _require_pure(T: RowContraction, kmax: int):
    if not is_c0_certified(T, kmax):
        raise DomainError(
            f"tuple is not certified pure: sigma_{kmax} has not decayed below 1")


def constrained_von_neumann_check(T: RowContraction, f: NcPolynomial, spec: IdealSpec,
                                  *, model: QuotientModel = None, gen_tol: float = 1e-10,
                                  c0_kmax: int = 30):
    """(lhs, rhs) with lhs = ||f(T)|| and rhs the quotient compression norm.

    Requires a certified pure tuple annihilating every generator.  rhs is a
    finite-degree lower bound of the true quotient distance, so the
    inequality lhs <= rhs is asserted by callers only once rhs has
    stabilized, and with an explicit convergence slack.
    """
    _require_annihilates(T, spec, gen_tol)
    _require_pure(T, c0_kmax)
    lhs = operator_norm(T.evaluate_polynomial(f))
    rhs = quotient_distance(f, spec, model=model)
    return (float(lhs), float(rhs))


def quotient_poisson_check(T: RowContraction, spec: IdealSpec, m: int,
                           *, model: QuotientModel = None, gen_tol: float = 1e-10,
                           c0_kmax: int = 30, word_degree: int = 2):
    """(range_residual, covariance_residual) for the kernel against the model.

    range_residual measures how far the kernel columns stick out of
    N tensor C^d; covariance_residual is the worst defect of
    K* (B_alpha B_beta* tensor I) K against T_alpha T_beta* over words of
    length up to word_degree.  Both vanish with the truncation tail for pure
    tuples.
    """
    _require_annihilates(T, spec, gen_tol)
    _require_pure(T, c0_kmax)
    if model is None:
        model = build_quotient(spec.at_degree(m))
    kb = poisson_kernel(T, m).blocks
    basis = model.n_basis
    coords = np.einsum("Dr,Dij->rij", basis.conj(), kb)
    projected = np.einsum("Dr,rij->Dij", basis, coords)
    range_residual = operator_norm((kb - projected).reshape(-1, T.d))

    words = [w for k in range(min(word_degree, m) + 1)
             for w in itertools.product(range(1, T.n + 1), repeat=k)]
    # K* (B_alpha B_beta* tensor I) K = Y_alpha* Y_beta with Y_w = (B_w* tensor I) K
    flat = coords.reshape(model.dim, -1)
    Y = np.array([(model.evaluate_polynomial(NcPolynomial.from_word(T.n, w)).conj().T
                   @ flat).reshape(-1, T.d) for w in words])
    Tw = np.array([T.word_product(w) for w in words])
    defects = (np.einsum("aki,bkj->abij", Y.conj(), Y)
               - np.einsum("aij,bkj->abik", Tw, Tw.conj()))
    worst = np.linalg.norm(defects.reshape(-1, T.d, T.d), 2, axis=(1, 2)).max()
    return (float(range_residual), float(worst))

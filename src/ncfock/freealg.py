"""Words, truncated Fock-space vectors, and sparse noncommutative polynomials.

The truncated Fock space P_m over n generators has one basis vector per word
of length at most m.  Words are plain tuples of 1-based generator indices,
() being the empty word.  The basis is ordered by grade (word length), then
lexicographically inside a grade with 1 < 2 < ... < n, so the coefficient
array of any vector splits into contiguous grade blocks and the block of
grade k sits at offset D(n, k-1) with D(n, m) = 1 + n + ... + n^m.

Multiplication matrices are always built into the full target grade
m + deg(p); compressing back to P_m is an explicit, separate step
(``truncated_mult_matrix``), so certified lower norm bounds stay exact.
"""

from __future__ import annotations

import bisect

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import DomainError, ResourceCapError
from .numerics import operator_norm

MAX_BASIS_SIZE = 10 ** 6       # cap on D(n, m); keeps everything desk-scale
MAX_DENSE_ENTRIES = 2 ** 26    # cap on dense matrix allocations
COEFF_CHOP = 1e-15             # coefficients below this are dropped after arithmetic


def basis_size(n: int, m: int) -> int:
    """Dimension D(n, m) = 1 + n + ... + n^m of the degree-m truncation."""
    if n < 1:
        raise ValueError("need at least one generator")
    if m < 0:
        raise ValueError("truncation degree must be nonnegative")
    return m + 1 if n == 1 else (n ** (m + 1) - 1) // (n - 1)


def word_value(word, n: int) -> int:
    """Position of a word inside its grade block (base-n digits, leading letter first)."""
    v = 0
    for letter in word:
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} outside 1..{n}")
        v = v * n + (letter - 1)
    return v


def _as_word(word) -> tuple:
    return tuple(int(letter) for letter in word)


class WordIndex:
    """Graded-lexicographic bijection between words of length <= m and 0..D-1.

    index(()) == 0, grades are contiguous, and concatenation is plain index
    arithmetic: the word alpha+beta of grades a, b sits at
    grade_start(a+b) + value(alpha) * n**b + value(beta).
    """

    def __init__(self, n: int, m: int):
        dim = basis_size(n, m)
        if dim > MAX_BASIS_SIZE:
            raise ResourceCapError(
                f"basis of size D({n},{m}) = {dim} exceeds the cap {MAX_BASIS_SIZE}")
        self.n = n
        self.m = m
        self.dim = dim
        self._start = [0] + [basis_size(n, k) for k in range(m + 1)]
        # _start[k] is the index of the first grade-k word; _start[m+1] == dim

    def grade_start(self, k: int) -> int:
        return self._start[k]

    def grade_slice(self, k: int) -> slice:
        return slice(self._start[k], self._start[k + 1])

    def grade_dim(self, k: int) -> int:
        return self.n ** k

    def index(self, word) -> int:
        word = _as_word(word)
        if len(word) > self.m:
            raise ValueError(f"word of length {len(word)} exceeds truncation {self.m}")
        return self._start[len(word)] + word_value(word, self.n)

    def word(self, i: int) -> tuple:
        if not 0 <= i < self.dim:
            raise ValueError(f"index {i} outside 0..{self.dim - 1}")
        k = bisect.bisect_right(self._start, i) - 1
        v = i - self._start[k]
        letters = []
        for _ in range(k):
            letters.append(v % self.n + 1)
            v //= self.n
        return tuple(reversed(letters))

    def words(self):
        return (self.word(i) for i in range(self.dim))


class FockVector:
    """Coefficient vector over the word basis of P_m."""

    __slots__ = ("n", "m", "coeffs")

    def __init__(self, n: int, m: int, coeffs):
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        dim = basis_size(n, m)
        if dim > MAX_BASIS_SIZE:
            raise ResourceCapError(f"D({n},{m}) = {dim} exceeds the cap {MAX_BASIS_SIZE}")
        if coeffs.shape != (dim,):
            raise ValueError(f"expected {dim} coefficients, got shape {coeffs.shape}")
        self.n = n
        self.m = m
        self.coeffs = coeffs

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "FockVector") -> complex:
        """<self, other> = sum_alpha self(alpha) * conj(other(alpha))."""
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("vectors live on different truncated spaces")
        return complex(np.vdot(other.coeffs, self.coeffs))

    def coefficient(self, word) -> complex:
        return complex(self.coeffs[WordIndex(self.n, self.m).index(word)])


class BallPoint:
    """A point of the closed unit ball of C^n.

    Construction tolerates |lambda| <= 1 (evaluation is still meaningful on
    the sphere); operations that need the open ball check strictness
    themselves.
    """

    __slots__ = ("coords", "n", "norm")

    def __init__(self, coords):
        c = np.atleast_1d(np.asarray(coords, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("a point needs a nonempty coordinate vector")
        r = float(np.linalg.norm(c))
        if r > 1.0 + 1e-12:
            raise DomainError(f"|lambda| = {r:.6g} lies outside the closed unit ball")
        self.coords = c
        self.n = int(c.size)
        self.norm = r

    def inner(self, other: "BallPoint") -> complex:
        """<self, other> = sum_t self_t * conj(other_t)."""
        return complex(np.vdot(other.coords, self.coords))

    def word_product(self, word) -> complex:
        """The ordered coordinate product lambda_alpha along the word."""
        out = 1.0 + 0.0j
        for letter in word:
            out *= self.coords[letter - 1]
        return complex(out)


def _as_point(point) -> BallPoint:
    return point if isinstance(point, BallPoint) else BallPoint(point)


class NcPolynomial:
    """Sparse polynomial in n noncommuting indeterminates.

    Terms are stored as a word -> complex coefficient map.  Coefficients of
    modulus below COEFF_CHOP are dropped on construction and after every
    arithmetic operation, so rounding noise never causes fill-in.  The degree
    of the zero polynomial is the sentinel -inf and never enters arithmetic.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("need at least one generator")
        clean = {}
        for word, coeff in dict(terms or {}).items():
            word = _as_word(word)
            word_value(word, n)  # letter range check
            coeff = complex(coeff)
            if abs(coeff) >= COEFF_CHOP:
                clean[word] = coeff
        self.n = n
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "NcPolynomial":
        return cls(n, {})

    @classmethod
    def unit(cls, n: int, coeff=1.0) -> "NcPolynomial":
        return cls(n, {(): coeff})

    @classmethod
    def generator(cls, n: int, i: int) -> "NcPolynomial":
        return cls(n, {(i,): 1.0})

    @classmethod
    def from_word(cls, n: int, word, coeff=1.0) -> "NcPolynomial":
        return cls(n, {_as_word(word): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        return max((len(w) for w in self.terms), default=float("-inf"))

    @property
    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) == 1

    def coefficient(self, word) -> complex:
        return self.terms.get(_as_word(word), 0.0 + 0.0j)

    def grade_norms(self) -> list:
        """l2 norm of the coefficient block of each grade 0..degree."""
        if self.is_zero:
            return []
        out = [0.0] * (int(self.degree) + 1)
        for word, coeff in self.terms.items():
            out[len(word)] += abs(coeff) ** 2
        return [float(np.sqrt(v)) for v in out]

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        self._check_same_algebra(other)
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, 0.0) + coeff
        return NcPolynomial(self.n, terms)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NcPolynomial):
            return tensor_product(self, other)
        return self.scale(other)

    def __rmul__(self, scalar) -> "NcPolynomial":
        return self.scale(scalar)

    def scale(self, scalar) -> "NcPolynomial":
        scalar = complex(scalar)
        return NcPolynomial(self.n, {w: scalar * c for w, c in self.terms.items()})

    def to_fock(self, m: int) -> FockVector:
        wi = WordIndex(self.n, m)
        coeffs = np.zeros(wi.dim, dtype=complex)
        for word, coeff in self.terms.items():
            coeffs[wi.index(word)] = coeff
        return FockVector(self.n, m, coeffs)

    def _check_same_algebra(self, other: "NcPolynomial"):
        if self.n != other.n:
            raise ValueError(f"mismatched generator counts {self.n} and {other.n}")

    def __repr__(self):
        if self.is_zero:
            return f"NcPolynomial(n={self.n}, 0)"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w))[:6]:
            mono = "1" if not word else "*".join(f"g{i}" for i in word)
            parts.append(f"({self.terms[word]:.3g})*{mono}")
        tail = " + ..." if len(self.terms) > 6 else ""
        return f"NcPolynomial(n={self.n}, " + " + ".join(parts) + tail + ")"


class NcMatrixPolynomial:
    """Matrix with NcPolynomial entries (an operator-valued polynomial)."""

    def __init__(self, n: int, entries):
        rows = [list(row) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("entries must form a nonempty matrix")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged entry matrix")
            for p in row:
                if not isinstance(p, NcPolynomial) or p.n != n:
                    raise ValueError("entries must be NcPolynomial over the same n")
        self.n = n
        self.entries = rows

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    @property
    def degree(self):
        return max((p.degree for row in self.entries for p in row),
                   default=float("-inf"))

    def grade_norms(self) -> list:
        """Norm ||sum_{|alpha|=k} C_alpha* C_alpha||^{1/2} of each grade 0..degree.

        C_alpha is the coefficient matrix of the word alpha.  The L_alpha of
        one grade are isometries with orthogonal ranges, so this is the
        multiplier norm of the grade-k part and the sum bounds the whole.
        """
        grades = [{} for _ in range(int(max(self.degree, -1)) + 1)]
        for a, row in enumerate(self.entries):
            for b, p in enumerate(row):
                for word, coeff in p.terms.items():
                    block = grades[len(word)].setdefault(word, np.zeros(self.shape, complex))
                    block[a, b] = coeff
        return [operator_norm(np.vstack(list(g.values()))) if g else 0.0 for g in grades]

    def evaluate(self, point) -> np.ndarray:
        point = _as_point(point)
        rows, cols = self.shape
        out = np.empty((rows, cols), dtype=complex)
        for a in range(rows):
            for b in range(cols):
                out[a, b] = evaluate(self.entries[a][b], point)
        return out


def tensor_product(p: NcPolynomial, q: NcPolynomial) -> NcPolynomial:
    """Concatenation product: the gamma coefficient is sum over splittings
    gamma = alpha beta of p(alpha) q(beta)."""
    p._check_same_algebra(q)
    terms = {}
    for wp, cp in p.terms.items():
        for wq, cq in q.terms.items():
            word = wp + wq
            terms[word] = terms.get(word, 0.0) + cp * cq
    return NcPolynomial(p.n, terms)


def evaluate(p, point):
    """Value sum_alpha coeff(alpha) * lambda_alpha at a scalar point of the ball.

    Matrix-valued polynomials return the complex matrix of entrywise values.
    Agrees with <p, z_vector(point, m)> whenever m >= deg p.
    """
    if isinstance(p, NcMatrixPolynomial):
        return p.evaluate(point)
    point = _as_point(point)
    if point.n != p.n:
        raise ValueError(f"point dimension {point.n} does not match n = {p.n}")
    total = 0.0 + 0.0j
    for word, coeff in p.terms.items():
        total += coeff * point.word_product(word)
    return complex(total)


def z_vector(point, m: int) -> FockVector:
    """The kernel vector with coefficients conj(lambda_alpha), |alpha| <= m.

    Pairs against polynomials by <p, z> = p(lambda) for deg p <= m.  Requires
    |lambda| < 1 strictly; on the sphere the full series diverges.
    """
    point = _as_point(point)
    if point.norm >= 1.0:
        raise DomainError(
            f"kernel vector needs |lambda| < 1, got {point.norm:.6g} (series diverges)")
    wi = WordIndex(point.n, m)
    coeffs = np.empty(wi.dim, dtype=complex)
    lam_bar = point.coords.conj()
    block = np.ones(1, dtype=complex)
    coeffs[0] = 1.0
    for k in range(1, m + 1):
        block = np.kron(block, lam_bar)
        coeffs[wi.grade_slice(k)] = block
    return FockVector(point.n, m, coeffs)


def _mult_triplets(p: NcPolynomial, m: int, row_cap: int):
    """(rows, cols, vals) triplet blocks of the multiplication action on P_m,
    keeping only output grades < row_cap."""
    n = p.n
    wi_in = WordIndex(n, m)
    blocks = []
    for word, coeff in p.terms.items():
        a = len(word)
        u = word_value(word, n)
        for b in range(m + 1):
            if a + b >= row_cap:
                continue
            size = n ** b
            cols = np.arange(size) + wi_in.grade_start(b)
            rows = basis_size(n, a + b - 1) if a + b else 0
            rows = rows + u * size + np.arange(size)
            blocks.append((rows, cols, coeff))
    return blocks


def mult_matrix(p: NcPolynomial, m: int, sparse: bool = False):
    """Matrix of multiplication by p from P_m into P_{m + deg p}.

    The column of the word beta holds the coefficient vector of the product
    of p with e_beta.  No silent truncation happens: the output space is the
    full target grade, and compressing back to P_m is a separate step.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no multiplication matrix")
    d = int(p.degree)
    wi_in = WordIndex(p.n, m)
    wi_out = WordIndex(p.n, m + d)
    blocks = _mult_triplets(p, m, m + d + 1)
    if sparse:
        rows = np.concatenate([b[0] for b in blocks])
        cols = np.concatenate([b[1] for b in blocks])
        vals = np.concatenate([np.full(b[0].size, b[2], dtype=complex) for b in blocks])
        return scipy.sparse.coo_matrix(
            (vals, (rows, cols)), shape=(wi_out.dim, wi_in.dim)).tocsr()
    if wi_out.dim * wi_in.dim > MAX_DENSE_ENTRIES:
        raise ResourceCapError(
            f"dense {wi_out.dim} x {wi_in.dim} multiplication matrix exceeds the cap; "
            "pass sparse=True")
    out = np.zeros((wi_out.dim, wi_in.dim), dtype=complex)
    for rows, cols, coeff in blocks:
        out[rows, cols] += coeff
    return out


def truncated_mult_matrix(p: NcPolynomial, m: int) -> np.ndarray:
    """Compression of the multiplication by p to P_m (output grades above m
    are projected away)."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no multiplication matrix")
    wi = WordIndex(p.n, m)
    if wi.dim * wi.dim > MAX_DENSE_ENTRIES:
        raise ResourceCapError(f"dense {wi.dim} x {wi.dim} compression exceeds the cap")
    out = np.zeros((wi.dim, wi.dim), dtype=complex)
    for rows, cols, coeff in _mult_triplets(p, m, m + 1):
        out[rows, cols] += coeff
    return out


def _reversal_permutation(n: int, k: int) -> np.ndarray:
    """perm[v] = grade position of the letter-reversed word at position v."""
    v = np.arange(n ** k)
    rev = np.zeros_like(v)
    tmp = v.copy()
    for _ in range(k):
        rev = rev * n + tmp % n
        tmp //= n
    return rev


def flip(v: FockVector) -> FockVector:
    """Letter-reversing unitary: the coefficient of a word moves to its reversal.

    An involution, and an l2 isometry grade by grade.
    """
    wi = WordIndex(v.n, v.m)
    out = np.empty_like(v.coeffs)
    for k in range(v.m + 1):
        block = v.coeffs[wi.grade_slice(k)]
        target = np.empty_like(block)
        target[_reversal_permutation(v.n, k)] = block
        out[wi.grade_slice(k)] = target
    return FockVector(v.n, v.m, out)


def _largest_singular_value(matrix) -> float:
    if scipy.sparse.issparse(matrix):
        if min(matrix.shape) <= 2 or matrix.shape[0] * matrix.shape[1] <= 4096:
            return float(np.linalg.norm(matrix.toarray(), 2))
        v0 = np.ones(min(matrix.shape))  # fixed start keeps runs deterministic
        try:
            s = scipy.sparse.linalg.svds(matrix, k=1, v0=v0,
                                         return_singular_vectors=False)
            return float(s.max())
        except scipy.sparse.linalg.ArpackError:
            return float(np.linalg.norm(matrix.toarray(), 2))
    return float(np.linalg.norm(matrix, 2))


def sup_norm_bounds(p: NcPolynomial, m: int):
    """Certified (lower, upper) bounds for the multiplier sup-norm of p.

    lower is the exact operator norm of the multiplication by p restricted to
    P_m; it is nondecreasing in m and converges to the sup-norm from below.
    upper sums the l2 norms of the homogeneous coefficient blocks.  For
    homogeneous p the two agree already at m = 0.
    """
    if p.is_zero:
        return (0.0, 0.0)
    upper = float(sum(p.grade_norms()))
    d = int(p.degree)
    # past this size a one-vector Lanczos sweep beats the full dense SVD
    dense_ok = basis_size(p.n, m + d) * basis_size(p.n, m) <= 40_000
    matrix = mult_matrix(p, m, sparse=not dense_ok)
    lower = _largest_singular_value(matrix)
    return (lower, upper)


def stabilized_sup_norm(p: NcPolynomial, *, start: int = 2, step: int = 2,
                        rel_change: float = 1e-6, max_size: int = 200_000):
    """Grow the truncation degree until the lower bound stabilizes.

    Stabilized means two consecutive increments each changed the lower bound
    by less than rel_change.  The schedule stops early at the resource cap
    max_size on the output basis; no a priori convergence rate is certified,
    this is the documented heuristic.  Returns (lower, upper, m, stabilized).
    """
    if p.is_zero:
        return (0.0, 0.0, start, True)
    d = int(p.degree)
    m = max(start, 1)
    lower, upper = sup_norm_bounds(p, m)
    changes = []
    while m < 600:
        nxt = m + step
        if basis_size(p.n, min(nxt + d, 64)) > max_size:
            break
        new_lower, upper = sup_norm_bounds(p, nxt)
        changes.append(abs(new_lower - lower))
        lower, m = new_lower, nxt
        if len(changes) >= 2 and changes[-1] < rel_change and changes[-2] < rel_change:
            return (lower, upper, m, True)
    return (lower, upper, m, False)

"""Words, truncated Fock-space vectors, and sparse noncommutative polynomials.

The truncated Fock space P_m over n generators has one basis vector per word
of length at most m.  Words are plain tuples of 1-based generator indices,
() being the empty word.  The basis is ordered by grade (word length), then
lexicographically inside a grade with 1 < 2 < ... < n, so the coefficient
array of any vector splits into contiguous grade blocks and the block of
grade k sits at offset D(n, k-1) with D(n, m) = 1 + n + ... + n^m.
Polynomials act on points and operator tuples through one functional
calculus (``evaluate``), which forms each word product once per prefix.

Multiplication matrices are always built into the full target grade
m + deg(p); compressing back to P_m is an explicit, separate step
(``truncated_mult_matrix``).  Norm bounds form neither: both sides of the
bracket come from one Fejer-Riesz Gram solve over the coefficients of
L_p* L_p, its primal point certifying the upper bound and its dual point
the lower one (``sup_norm_bounds``).
"""

from __future__ import annotations

import bisect
import math

import numpy as np
# scipy is imported inside the norm-bound functions that use it: the pick and
# ideal code needs only numpy, and importing scipy.linalg takes about 0.3 s.

from .errors import DomainError, ResourceCapError
from .numerics import operator_norm

MAX_BASIS_SIZE = 10 ** 6       # cap on D(n, m); keeps everything desk-scale
MAX_DENSE_ENTRIES = 2 ** 26    # cap on dense matrix allocations
COEFF_CHOP = 1e-15             # coefficients below this are dropped after arithmetic
FEJER_RIESZ_MAX_PAIRS = 1024   # cap on the prefix pairs of the Fejer-Riesz Gram solve
FR_MAX_ITER = 60               # interior-point iterations of the Gram solve
FR_GAP_TOL = 1e-10             # stop once tr(XS) <= this * (1 + tr X) ...
FR_STALL_TOL = 1e-8            # ... or once it stops halving below this
CIRCLE_NEWTON_STEPS = 8        # Newton steps from each maximum of the n = 1 FFT grid
LANCZOS_TOL = 1e-10            # relative residual of the Ritz pair of the truncated fallback


def basis_size(n: int, m: int) -> int:
    """Dimension D(n, m) = 1 + n + ... + n^m of the degree-m truncation."""
    if n < 1:
        raise ValueError("need at least one generator")
    if m < 0:
        raise ValueError("truncation degree must be nonnegative")
    return m + 1 if n == 1 else (n ** (m + 1) - 1) // (n - 1)


def _capped_basis_size(n: int, m: int) -> int:
    """D(n, m), or ResourceCapError when it exceeds MAX_BASIS_SIZE.

    For n >= 2, D(n, m) > 2^m, so a degree of at least the cap's bit length
    fails before n^(m+1) is formed: for a huge m that power never finishes.
    """
    if n >= 2 and m >= MAX_BASIS_SIZE.bit_length():
        raise ResourceCapError(
            f"basis of size D({n},{m}) > 2^{m} exceeds the cap {MAX_BASIS_SIZE}")
    dim = basis_size(n, m)
    if dim > MAX_BASIS_SIZE:
        raise ResourceCapError(
            f"basis of size D({n},{m}) = {dim} exceeds the cap {MAX_BASIS_SIZE}")
    return dim


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
        dim = _capped_basis_size(n, m)
        self.n = n
        self.m = m
        self.dim = dim
        self._start = [0] + [basis_size(n, k) for k in range(m + 1)]
        # _start[k] is the index of the first grade-k word; _start[m+1] == dim

    def grade_start(self, k: int) -> int:
        return self._start[k]

    def grade_slice(self, k: int) -> slice:
        return slice(self._start[k], self._start[k + 1])

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
        dim = _capped_basis_size(n, m)
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
        if not math.isfinite(r):
            raise DomainError("a point needs finite coordinates")
        if r > 1.0 + 1e-12:
            raise DomainError(f"|lambda| = {r:.6g} lies outside the closed unit ball")
        self.coords = c
        self.n = int(c.size)
        self.norm = r

    def inner(self, other: "BallPoint") -> complex:
        """<self, other> = sum_t self_t * conj(other_t)."""
        return complex(np.vdot(other.coords, self.coords))


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


def _word_products(X: np.ndarray, words) -> np.ndarray:
    """X_alpha = X_(alpha_1) ... X_(alpha_k) of each word, multiplied left to right.

    X stacks n operators of shape (..., d, d) (batch axes, then the matrix),
    and the letters lie in 1..n.  Each distinct prefix is multiplied once;
    the empty word gives the identity.  Returns shape (len(words), ..., d, d).
    """
    products = {(): np.eye(X.shape[-1]), **{(i + 1,): x for i, x in enumerate(X)}}
    out = np.empty((len(words),) + X.shape[1:], dtype=complex)
    for t, word in enumerate(words):
        k = len(word)
        while word[:k] not in products:
            k -= 1
        value = products[word[:k]]
        for j in range(k, len(word)):
            value = value @ X[word[j] - 1]
            products[word[:j + 1]] = value
        out[t] = value
    return out


def evaluate(p, X):
    """The functional calculus p(X) = sum_alpha c_alpha X_alpha.

    X is a point of the ball (a BallPoint or its coordinates), or a stack
    of n operators of shape (n, ..., d, d): a row contraction's matrices, a
    quotient model's compressions, or k points as an (n, k, 1, 1) stack.
    A scalar polynomial gives a complex at a point and an array of shape
    (..., d, d) on a stack.  A matrix-valued polynomial gives
    sum_alpha C_alpha (x) X_alpha: its (rows, cols) matrix of values at a
    point, an array of shape (..., rows d, cols d) on a stack.  At a point
    the value agrees with <p, z_vector(point, m)> whenever m >= deg p.
    """
    point = isinstance(X, BallPoint) or np.ndim(X) <= 1
    X = _as_point(X).coords[:, None, None] if point else np.asarray(X, dtype=complex)
    if X.ndim < 3 or X.shape[-1] != X.shape[-2] or X.shape[0] != p.n:
        raise ValueError(f"expected {p.n} coordinates or a stack of shape "
                         f"({p.n}, ..., d, d), got shape {X.shape}")
    scalar = not isinstance(p, NcMatrixPolynomial)
    entries = [[p]] if scalar else p.entries
    rows, cols = len(entries), len(entries[0])
    coeffs = {}   # word -> its coefficient matrix C_alpha, shaped to broadcast
    for a, row in enumerate(entries):
        for b, q in enumerate(row):
            for word, c in q.terms.items():
                if word not in coeffs:
                    coeffs[word] = np.zeros((rows, 1, cols, 1), dtype=complex)
                coeffs[word][a, 0, b, 0] = c
    batch, d = X.shape[1:-2], X.shape[-1]
    # one word at a time, in term order, not one einsum (whose summation order
    # and rounding differ): p(T) of a scalar p is the plain sum of its terms
    out = np.zeros(batch + (rows, d, cols, d), dtype=complex)
    for C, Xw in zip(coeffs.values(), _word_products(X, list(coeffs))[..., None, :, None, :]):
        out += C * Xw
    out = out.reshape(batch + (rows * d, cols * d))
    return complex(out[0, 0]) if point and scalar else out


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


def mult_matrix(p: NcPolynomial, m: int) -> np.ndarray:
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
    if wi_out.dim * wi_in.dim > MAX_DENSE_ENTRIES:
        raise ResourceCapError(
            f"dense {wi_out.dim} x {wi_in.dim} multiplication matrix exceeds the cap")
    out = np.zeros((wi_out.dim, wi_in.dim), dtype=complex)
    for rows, cols, coeff in _mult_triplets(p, m, m + d + 1):
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


class NormBounds(tuple):
    """The pair (lower, upper) returned by sup_norm_bounds.

    upper_method names the source of upper: "fejer_riesz" when the Gram
    certificate beat the sum of the grade norms, "grade_norms" otherwise.
    lower_method names the source of lower: "fejer_riesz_dual" (the dual
    point of the Gram solve), "circle" (n = 1), "truncated" (the norm on
    P_m, above the pair cap of the solve) or "grade_norms" (homogeneous p).
    """

    def __new__(cls, lower, upper, upper_method: str, lower_method: str):
        self = super().__new__(cls, (float(lower), float(upper)))
        self.upper_method = upper_method
        self.lower_method = lower_method
        return self

    def __getnewargs__(self):
        return (*self, self.upper_method, self.lower_method)


def _symbol(p: NcPolynomial) -> list:
    """Coefficients of L_p* L_p = r_() I + sum_{gamma != ()} (r_gamma L_gamma + h.c.).

    r_gamma = sum_alpha conj(c_alpha) c_(alpha gamma).  Entry g of the list
    holds the r_gamma of the n^g words of length g in grade order; entry 0
    is [||p||_2^2].
    """
    n, d = p.n, int(p.degree)
    wi = WordIndex(n, d)
    c = p.to_fock(d).coeffs
    blocks = [c[wi.grade_slice(k)] for k in range(d + 1)]
    return [sum(blocks[a].conj() @ blocks[a + g].reshape(n ** a, n ** g)
                for a in range(d + 1 - g)) for g in range(d + 1)]


def _compressed_square(r: list, wi: WordIndex, x: np.ndarray) -> np.ndarray:
    """P_m L_p* L_p P_m x for a block x of shape (D(n, m), b), from the symbol r.

    L_gamma maps grade k onto the rows of the words gamma beta, which form
    row gamma of grade k + |gamma| reshaped as (n^|gamma|, n^k): each grade
    pair is one outer-product update and its adjoint one contraction.
    """
    n = wi.n
    out = r[0][0].real * x
    for g in range(1, len(r)):
        for k in range(wi.m - g + 1):
            low, high = wi.grade_slice(k), wi.grade_slice(k + g)
            out[high] += np.multiply.outer(r[g], x[low]).reshape(-1, x.shape[1])
            out[low] += np.einsum("g,gkb->kb", r[g].conj(), x[high].reshape(n ** g, n ** k, -1))
    return out


def _truncated_norm(r: list, n: int, m: int) -> float:
    """||L_p restricted to P_m||, the root of the top eigenvalue of
    P_m L_p* L_p P_m, by Lanczos on the symbol.  A Ritz value never exceeds
    the top eigenvalue, so the result is a lower bound at any convergence."""
    if m == 0:
        return float(np.sqrt(r[0][0].real))   # L_p maps the empty word to p
    import scipy.sparse.linalg

    wi = WordIndex(n, m)
    op = scipy.sparse.linalg.LinearOperator(
        (wi.dim, wi.dim), dtype=complex,
        matvec=lambda v: _compressed_square(r, wi, v.reshape(-1, 1)).ravel())
    # a fixed generic start keeps runs deterministic without sharing a symmetry of p
    v0 = np.random.default_rng(0).standard_normal(wi.dim).astype(complex)
    top = scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=v0, tol=LANCZOS_TOL,
                                    return_eigenvectors=False)[0]
    return float(np.sqrt(max(float(np.real(top)), 0.0)))


def _circle_max(p: NcPolynomial) -> float:
    """max |p| on the unit circle for n = 1: the maxima of an FFT grid,
    refined by safeguarded Newton steps on |p(e^(i theta))|^2."""
    c = p.to_fock(int(p.degree)).coeffs
    k = np.arange(c.size)
    size = 16 * c.size + 48
    grid = np.abs(np.fft.ifft(c, size)) * size          # |p| at theta_j = 2 pi j / size
    peaks = np.flatnonzero((grid > np.roll(grid, 1)) & (grid >= np.roll(grid, -1)))
    peaks = peaks[np.argsort(grid[peaks])[-2 * c.size:]]
    theta, h = 2 * np.pi * peaks / size, 2 * np.pi / size
    for _ in range(CIRCLE_NEWTON_STEPS):
        z = np.exp(1j * np.outer(theta, k))
        v, v1, v2 = z @ c, z @ (1j * k * c), z @ (-(k * k) * c)
        slope = 2 * (v.conj() * v1).real
        curve = 2 * (np.abs(v1) ** 2 + (v.conj() * v2).real)
        concave = curve < 0
        step = np.where(concave, -slope / np.where(concave, curve, 1.0), 0.0)
        theta = theta + np.clip(step, -h, h)
    refined = np.abs(np.exp(1j * np.outer(theta, k)) @ c)
    return float(max(grid.max(), refined.max(initial=0.0)))


def _prefix_pairs(n: int, d: int):
    """Index arrays (src, dst, con, starts) over the splittings
    beta = alpha gamma, |beta| <= d, gamma nonempty: src indexes alpha and
    dst beta among the words of length <= d, sorted by gamma; con[k] is the
    index of the gamma of pair k among the nonempty words in grade order,
    and starts[j] is the first pair of the j-th one.  There are
    sum_beta |beta| pairs.
    """
    wi = WordIndex(n, d)
    src, dst, con = [], [], []
    for b in range(1, d + 1):
        for a in range(b):
            src.append(np.repeat(np.arange(n ** a) + wi.grade_start(a), n ** (b - a)))
            dst.append(np.arange(n ** b) + wi.grade_start(b))
            con.append(np.tile(np.arange(n ** (b - a)) + wi.grade_start(b - a) - 1, n ** a))
    src, dst, con = (np.concatenate(v) for v in (src, dst, con))
    order = np.argsort(con, kind="stable")
    starts = np.flatnonzero(np.diff(con[order], prepend=-1))
    return src[order], dst[order], con[order], starts


def _dual_matrix(y, src, dst, con, size: int) -> np.ndarray:
    """M(y) = sum_gamma conj(y_gamma) E_gamma + y_gamma E_gamma*, with
    tr(X M(y)) = 2 Re <y, A(X)>.  Every entry is one y_gamma or its
    conjugate, placed off the diagonal, so I - M(y) is formed exactly."""
    out = np.zeros((size, size), dtype=complex)
    out[src, dst] = y[con]
    out[dst, src] = y[con].conj()
    return out


def _fejer_riesz_gram(r: list, n: int, d: int):
    """Approximate primal-dual solution (Q, y) of min tr Q subject to
    sum_alpha Q[alpha, alpha gamma] = -r_gamma for every nonempty gamma and
    Q >= 0 (Q indexed by the words of length <= d), for a symbol scaled to
    r_() = 1, and of its dual: max -2 Re <y, r> subject to I - M(y) >= 0.

    A primal-dual interior-point method: HKM direction with Mehrotra's
    predictor-corrector, the dual slack S = I - M(y) kept exactly feasible.
    The Schur complement of the Newton system is gathered from X and S^-1
    over the prefix pairs; no constraint matrix is formed.  The iterates stay
    positive definite and are returned when the duality gap stops falling;
    y (one entry per nonempty gamma, in grade order) is the last point
    whose S had a Cholesky factor.
    """
    import scipy.linalg

    src, dst, con, starts = _prefix_pairs(n, d)
    size, pairs, cons = basis_size(n, d), src.size, starts.size
    both = np.concatenate([src, dst])
    b = -np.concatenate(r[1:])
    eye = np.eye(size, dtype=complex)

    def constraint(y):
        """(A(Y) + A(Y*)) / 2 with A(Y)_gamma = sum_alpha Y[alpha, alpha gamma]."""
        return (np.add.reduceat(y[src, dst], starts)
                + np.add.reduceat(y[dst, src].conj(), starts)) / 2

    def quadrants(z):
        """z at the (src, src), (src, dst), (dst, src) and (dst, dst) index pairs."""
        g = z[both][:, both]
        return g[:pairs, :pairs], g[:pairs, pairs:], g[pairs:, :pairs], g[pairs:, pairs:]

    def grouped(t):
        """Sums of t over the pairs of each gamma, by rows and by columns."""
        return np.add.reduceat(np.add.reduceat(t, starts, axis=0), starts, axis=1)

    def max_step(inv_chol, dz):
        """Largest t with Z + t dZ >= 0, for Z = L L* and inv_chol = L^-1."""
        low = scipy.linalg.eigh(inv_chol @ dz @ inv_chol.conj().T, eigvals_only=True,
                                subset_by_index=[0, 0], check_finite=False)[0]
        return -1.0 / low if low < 0 else np.inf

    x, s, y = eye, eye, np.zeros(cons, dtype=complex)
    chol_x = chol_s = eye
    mu_prev, tx_last, ts_last = np.inf, 0.0, 0.0
    for _ in range(FR_MAX_ITER):
        mu = np.vdot(s, x).real / size
        scale = 1.0 + np.trace(x).real
        if mu * size <= FR_GAP_TOL * scale or (mu > 0.5 * mu_prev
                                              and mu * size <= FR_STALL_TOL * scale):
            break
        mu_prev = mu
        # LAPACK's triangular inverse: OpenBLAS threads trsm even at this size
        inv_x = scipy.linalg.lapack.ztrtri(chol_x, lower=1)[0]
        inv_s = scipy.linalg.lapack.ztrtri(chol_s, lower=1)[0]
        w = inv_s.conj().T @ inv_s
        xss, xsd, xds, xdd = quadrants(x)
        wss, wsd, wds, wdd = quadrants(w)
        # the linear map dy -> constraint(X M(dy) S^-1) is (minus conj(dy) + plus dy) / 2
        minus = grouped(xsd * wsd.T + (xds * wds.T).conj())
        plus = grouped(xss * wdd.T + (xdd * wss.T).conj())
        tot, diff = minus + plus, plus - minus
        schur = scipy.linalg.lu_factor(0.5 * np.block([[tot.real, -diff.imag],
                                                       [tot.imag, diff.real]]))

        def newton(rhs, target, second):
            sol = scipy.linalg.lu_solve(schur, np.concatenate([rhs.real, rhs.imag]))
            dy = sol[:cons] + 1j * sol[cons:]
            md = _dual_matrix(dy, src, dst, con, size)
            dx = target * w - x + (x @ md - second) @ w
            return (dx + dx.conj().T) / 2, dy, -md

        dx, dy, ds = newton(b, 0.0, 0.0)
        tx, ts = min(1.0, max_step(inv_x, dx)), min(1.0, max_step(inv_s, ds))
        sigma = (np.vdot(s + ts * ds, x + tx * dx).real / size / mu) ** 3
        second = dx @ ds
        dx, dy, ds = newton(b - sigma * mu * constraint(w) + constraint(second @ w),
                            sigma * mu, second)
        # step fraction 0.9 + 0.09 min(last steps), as in SDPT3: short steps keep
        # the iterates away from the boundary, where the method would jam
        fraction = 0.9 + 0.09 * min(tx_last, ts_last)
        tx = min(1.0, fraction * max_step(inv_x, dx))
        ts = min(1.0, fraction * max_step(inv_s, ds))
        tx_last, ts_last = tx, ts
        x_new, y_new = x + tx * dx, y + ts * dy
        s_new = eye - _dual_matrix(y_new, src, dst, con, size)
        try:
            chol_x, chol_s = np.linalg.cholesky(x_new), np.linalg.cholesky(s_new)
        except np.linalg.LinAlgError:
            break
        x, y, s = x_new, y_new, s_new
    return x, y


def _fejer_riesz_bounds(p: NcPolynomial, q: np.ndarray, y: np.ndarray):
    """Certified (lower, upper) for ||L_p|| from any Hermitian q indexed by
    the words of length <= deg p and any dual point y, one entry per
    nonempty gamma in grade order.

    upper: with F the eigenvectors of q scaled by the roots of its clipped
    eigenvalues, Q+ = F F* is positive semidefinite, so the hereditary square
    sum Q+[alpha, beta] L_alpha* L_beta is >= 0, and with the residuals
    e_gamma = r_gamma + sum_alpha Q+[alpha, alpha gamma]:
    ||L_p||^2 <= r_() + tr Q+ + 2 sum_gamma |e_gamma|.  The slack
    8 eps (D^2 + P) (tr Q+ + ||c||_1^2), with eps the unit roundoff, D the
    size of q and P the number of prefix pairs, covers the rounding in
    forming F F*, r and the sums; a final factor 1 + 4 eps covers the root.

    lower: by McCullough's theorem the least trace of a PSD Gram matrix is
    t* = ||L_p||^2 - r_(), attained by some Q*.  With S = I - M(y) and
    delta = max(0, -lambda_min(S)), weak duality gives
    t* + 2 Re <y, r> = tr(Q* S) >= -delta t*, and t* <= upper^2 - r_(), so
    ||L_p||^2 >= r_() - 2 Re <y, r> - delta (upper^2 - r_()) for every y.
    S is formed exactly.  The slack 16 eps D (||S||_F (upper^2 - r_())
    + (1 + ||y||_1) r_()) covers eigh's error in lambda_min(S), which LAPACK
    bounds by a small multiple of eps ||S||, and the rounding in r_(), in
    each r_gamma (at most D eps r_() by Cauchy-Schwarz) and in the sums; a
    factor 1 - 4 eps covers the root.
    """
    import scipy.linalg

    n, d = p.n, int(p.degree)
    r = _symbol(p)
    r0, symbol = r[0][0].real, np.concatenate(r[1:])
    src, dst, con, starts = _prefix_pairs(n, d)
    size, eps = q.shape[0], np.finfo(float).eps
    vals, vecs = scipy.linalg.eigh(q)
    f = vecs * np.sqrt(np.clip(vals, 0.0, None))
    q_plus = f @ f.conj().T
    trace = float(np.vdot(f, f).real)
    residual = symbol + np.add.reduceat(q_plus[src, dst], starts)
    l1 = float(sum(abs(c) for c in p.terms.values()))
    slack = 8 * eps * (size ** 2 + src.size) * (trace + l1 * l1)
    square = r0 + trace + 2 * float(np.abs(residual).sum()) + slack
    upper = float(np.sqrt(square)) * (1 + 4 * eps)

    s = np.eye(size) - _dual_matrix(y, src, dst, con, size)
    delta = max(0.0, -float(scipy.linalg.eigh(s, eigvals_only=True, subset_by_index=[0, 0])[0]))
    excess = max(0.0, upper * upper - r0)
    slack = 16 * eps * size * (float(np.linalg.norm(s)) * excess
                               + (1 + float(np.abs(y).sum())) * r0)
    square = r0 - 2 * float(np.vdot(y, symbol).real) - delta * excess - slack
    lower = float(np.sqrt(max(square, 0.0))) * (1 - 4 * eps)
    return lower, upper


def sup_norm_bounds(p: NcPolynomial, m: int) -> NormBounds:
    """Certified (lower, upper) bounds for the multiplier sup-norm ||L_p||.

    By McCullough's noncommutative Fejer-Riesz theorem, c^2 I - L_p* L_p >= 0
    exactly when it is a hereditary square with a PSD Gram matrix Q indexed
    by the words of length <= deg p, so the least tr Q is ||L_p||^2 - r_()
    (see _symbol).  One interior-point solve of that semidefinite program
    gives both sides, upper from its Gram matrix and lower from its dual
    point by weak duality, each with a stated rounding slack and valid
    whether or not the solve converged (_fejer_riesz_bounds).  upper is the
    smaller of this bound and the sum of the grade norms.

    For n = 1, lower is max |p| on the unit circle, which there is the
    multiplier norm (capped at upper, since evaluation can round above it).
    For n >= 2 above FEJER_RIESZ_MAX_PAIRS prefix pairs the solve is
    skipped: upper is the grade-norm sum and lower the norm of L_p on P_m
    (Lanczos on the symbol), the only place m enters.  For homogeneous p,
    L_p is ||p||_2 times an isometry, so lower = upper = ||p||_2 and no solve
    is made.  upper_method and lower_method on the result say which bounds
    were used.
    """
    if p.is_zero:
        return NormBounds(0.0, 0.0, "grade_norms", "grade_norms")
    grade_sum = float(sum(p.grade_norms()))
    if p.is_homogeneous:
        return NormBounds(grade_sum, grade_sum, "grade_norms", "grade_norms")
    n, d = p.n, int(p.degree)
    r = _symbol(p)
    upper, upper_method = grade_sum, "grade_norms"
    lower = None
    if sum(b * n ** b for b in range(1, d + 1)) <= FEJER_RIESZ_MAX_PAIRS:
        scale = r[0][0].real
        gram, dual = _fejer_riesz_gram([rg / scale for rg in r], n, d)
        lower, bound = _fejer_riesz_bounds(p, scale * gram, dual)
        if bound < upper:
            upper, upper_method = bound, "fejer_riesz"
    if n == 1:
        return NormBounds(min(_circle_max(p), upper), upper, upper_method, "circle")
    if lower is None:
        return NormBounds(_truncated_norm(r, n, m), upper, upper_method, "truncated")
    return NormBounds(lower, upper, upper_method, "fejer_riesz_dual")

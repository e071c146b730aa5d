"""Words, the truncated Fock space, and sparse noncommutative polynomials.

The truncated Fock space P_m over n generators has one basis vector per word
of length at most m.  Words are plain tuples of 1-based generator indices,
() being the empty word.  The basis is ordered by grade (word length), then
lexicographically inside a grade with 1 < 2 < ... < n, so the coefficient
array of any vector splits into contiguous grade blocks and the block of
grade k sits at offset D(n, k-1) with D(n, m) = 1 + n + ... + n^m.
Polynomials act on points and operator tuples through one functional
calculus (``evaluate``), which forms each word product once per prefix.

Multiplication by p is formed only as its compression to P_m
(``truncated_mult_matrix``).  Norm bounds do not form it (``sup_norm_bounds``):
a p whose nonempty words are prefix-free has a closed-form norm, an n = 1 p
is bounded on the unit circle, and every other p gets both sides of the
bracket from one Fejer-Riesz Gram solve over the coefficients of L_p* L_p,
its primal point certifying the upper bound and its dual point the lower one.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import DomainError, ResourceCapError
from .numerics import _BLAS_SCOPE, operator_norm

MAX_BASIS_SIZE = 10 ** 6       # cap on D(n, m); keeps everything desk-scale
MAX_DENSE_ENTRIES = 2 ** 26    # cap on dense matrix allocations
# Cap on the work of one Fejer-Riesz Gram solve iteration, 8 P^2 + |W|^3 for the
# |W| words of the solve's word set W and the P splittings inside it
# (_fejer_riesz_work): an entry of the Schur system's P x P gathers costs about
# eight multiply-adds of the |W| x |W| factorizations.  On a 2-vCPU host the
# solve on all words took 0.8-0.9 s at n = 1, d = 44 (7.9e6) and n = 2, d = 6
# (5.3e6), 2.4 s at n = 6, d = 3 (2.2e7), 8 s at n = 22, d = 2 (1.4e8)
FEJER_RIESZ_MAX_WORK = 2 ** 23
FR_MAX_ITER = 60               # interior-point iterations of the Gram solve
FR_GAP_TOL = 1e-10             # stop once tr(XS) <= this * (1 + tr X) ...
FR_STALL_TOL = 1e-8            # ... or once it stops halving below this
CIRCLE_NEWTON_STEPS = 8        # Newton steps from each candidate peak of the n = 1 FFT grid
CIRCLE_PEAKS = 16              # candidate peaks refined: the highest of the grid's maxima
CIRCLE_GAP = 2 ** -36          # a cell settles within this of the lower side, relative
CIRCLE_MAX_WORK = 2 ** 21      # angles x terms summed directly for the subdivided cells
CIRCLE_MAX_DEGREE = 2 ** 13    # cap on deg p at n = 1: 0.2 s and 17 MB on a grid of 2^17 angles
LANCZOS_TOL = 1e-10            # relative residual of the Ritz pair of the truncated fallback
LANCZOS_VECTORS = 20           # vectors it stores, as ARPACK does for one eigenvalue
LANCZOS_MAX_RESTARTS = 100     # restarts of its thick-restart Lanczos


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


def _grade_starts(n: int, d: int) -> np.ndarray:
    """[0, D(n, 0), ..., D(n, d)] as int64: the index of the first word of each
    grade 0..d + 1 in grade order, with no cap on D(n, d) beyond fitting in
    int64, or ResourceCapError when it does not (n >= 2 and d >= 63 gives
    D(n, d) > 2^63 before n^(d+1) is formed)."""
    if n >= 2 and d >= 63 or basis_size(n, d) > np.iinfo(np.int64).max:
        raise ResourceCapError(f"word indices up to D({n},{d}) do not fit in 64 bits")
    return np.array([0] + [basis_size(n, k) for k in range(d + 1)], dtype=np.int64)


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

    Terms are stored as a word -> complex coefficient map.  Coefficients are
    kept as given, at any scale; only exact zeros are dropped, on
    construction and after every arithmetic operation.  The degree of the
    zero polynomial is the sentinel -inf and never enters arithmetic.
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
            if coeff != 0:
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
        """l2 norm of the coefficient block of each grade 0..degree, one
        math.hypot of the real and imaginary parts per grade: no coefficient
        is squared, so no norm overflows or underflows before it must."""
        parts = [[] for _ in range(int(max(self.degree, -1)) + 1)]
        for word, coeff in self.terms.items():
            parts[len(word)] += (coeff.real, coeff.imag)
        return [math.hypot(*grade) for grade in parts]

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
        Zero blocks pad the grades to one height for one batched norm.
        """
        grades = [{} for _ in range(int(max(self.degree, -1)) + 1)]
        for a, row in enumerate(self.entries):
            for b, p in enumerate(row):
                for word, coeff in p.terms.items():
                    grades[len(word)].setdefault(word, np.zeros(self.shape, complex))[a, b] = coeff
        (rows, cols), height = self.shape, max(map(len, grades), default=0)
        stack = np.zeros((len(grades), height, rows, cols), complex)
        for k, g in enumerate(grades):
            stack[k, :len(g)] = list(g.values()) or 0
        return operator_norm(stack.reshape(len(grades), height * rows, cols)).tolist()


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
    point, an array of shape (..., rows d, cols d) on a stack.
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


def _mult_triplets(p: NcPolynomial, m: int):
    """(rows, cols, vals) triplet blocks of the multiplication by p compressed
    to P_m: output grades above m are dropped."""
    n = p.n
    wi_in = WordIndex(n, m)
    blocks = []
    for word, coeff in p.terms.items():
        a = len(word)
        u = word_value(word, n)
        for b in range(m - a + 1):
            size = n ** b
            cols = np.arange(size) + wi_in.grade_start(b)
            rows = basis_size(n, a + b - 1) if a + b else 0
            rows = rows + u * size + np.arange(size)
            blocks.append((rows, cols, coeff))
    return blocks


def truncated_mult_matrix(p: NcPolynomial, m: int) -> np.ndarray:
    """Compression of the multiplication by p to P_m (output grades above m
    are projected away)."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no multiplication matrix")
    wi = WordIndex(p.n, m)
    if wi.dim * wi.dim > MAX_DENSE_ENTRIES:
        raise ResourceCapError(f"dense {wi.dim} x {wi.dim} compression exceeds the cap")
    out = np.zeros((wi.dim, wi.dim), dtype=complex)
    for rows, cols, coeff in _mult_triplets(p, m):
        out[rows, cols] += coeff
    return out


class NormBounds(tuple):
    """The pair (lower, upper) returned by sup_norm_bounds.

    upper_method and lower_method name the sources of the two sides:
    "prefix_free" for both when the nonempty words of p are prefix-free
    (the closed form |c_()| + ||c||_2), "circle" for both for every other
    n = 1 p (max |p| on the unit circle; upper is "grade_norms" where the
    sum of the grade norms is smaller), and otherwise "fejer_riesz" for
    upper when the Gram certificate beat the sum of the grade norms,
    "grade_norms" when it did not, with lower "fejer_riesz_dual" (the dual
    point of the Gram solve) or "truncated" (the norm on P_m, when the
    solve's work exceeds FEJER_RIESZ_MAX_WORK).  gram_size is the number of
    words the Gram solve ran on, the size of the suffix closure of supp p,
    or None when no solve ran.
    """

    def __new__(cls, lower, upper, upper_method: str, lower_method: str, gram_size=None):
        self = super().__new__(cls, (float(lower), float(upper)))
        self.upper_method = upper_method
        self.lower_method = lower_method
        self.gram_size = gram_size
        return self

    def __getnewargs__(self):
        return (*self, self.upper_method, self.lower_method, self.gram_size)


def _symbol(p: NcPolynomial, gaps: np.ndarray) -> np.ndarray:
    """Coefficients of L_p* L_p = r_() I + sum_{gamma != ()} (r_gamma L_gamma + h.c.),
    r_gamma = sum_alpha conj(c_alpha) c_(alpha gamma): entry 0 is r_() = ||p||_2^2
    and entry 1 + j the r_gamma of gaps[j], the gamma's index among the nonempty
    words in grade order.  Summed over the pairs of terms of p that split as
    alpha and alpha gamma, so it costs p's letters, not the D(n, deg p) words.
    gaps must hold every such gamma, as the gaps of _word_set_layout do on a
    word set closed under deleting the first letter that holds the words of p.
    """
    start = _grade_starts(p.n, int(p.degree))
    gammas, values = [], []
    for word, c in p.terms.items():
        for a in range(len(word)):
            head = p.terms.get(word[:a])
            if head is not None:
                gammas.append(start[len(word) - a] - 1 + word_value(word[a:], p.n))
                values.append(head.conjugate() * c)
    r = np.zeros(gaps.size + 1, dtype=complex)
    r[0] = sum(abs(c) ** 2 for c in p.terms.values())
    np.add.at(r, 1 + np.searchsorted(gaps, np.array(gammas, dtype=np.int64)), values)
    return r


def _compressed_square(r: np.ndarray, wi: WordIndex, x: np.ndarray) -> np.ndarray:
    """P_m L_p* L_p P_m x for x in P_m, from the symbol r = _symbol(p, gaps) on
    all nonempty words, which lists r_gamma by the index of gamma in grade order.

    L_gamma maps grade k onto the rows of the words gamma beta, which form
    row gamma of grade k + |gamma| reshaped as (n^|gamma|, n^k): each grade
    pair is one outer-product update and its adjoint one contraction.
    """
    out = r[0].real * x
    for g in range(1, wi.m + 1):
        block = r[wi.grade_slice(g)]
        if not block.size:
            break
        for k in range(wi.m - g + 1):
            low, high = wi.grade_slice(k), wi.grade_slice(k + g)
            out[high] += np.outer(block, x[low]).ravel()
            out[low] += block.conj() @ x[high].reshape(block.size, -1)
    return out


def _truncated_norm(p: NcPolynomial, m: int) -> float:
    """A lower bound on ||L_p restricted to P_m||: ||L_p x|| / ||x|| for the top
    Ritz vector x of A = P_m L_p* L_p P_m, from a thick-restart Lanczos on the
    symbol (Wu-Simon, SIAM J. Matrix Anal. Appl. 22 (2000)) that stores
    LANCZOS_VECTORS vectors and keeps the top half of its Ritz vectors at a
    restart.  Every x in P_m gives a lower bound, so the result is one
    whether or not the Lanczos converged.

    ||L_p x||^2 = <x, A x> is formed from the symbol.  With S the A of |p|
    (coefficients |c_alpha|), the rounding of <x, A x> / <x, x>, in the
    symbol, in A x and in the two inner products, is to first order at most
    eps (2 D(n, deg p) + 2 D(n, m) + deg p + 9) / 2 times <|x|, S |x|> / <x, x>,
    so the slack 2 eps (D(n, deg p) + D(n, m)) <|x|, S |x|> covers it; a
    factor 1 - 4 eps covers the division and the root."""
    if m == 0:
        return float(np.linalg.norm(list(p.terms.values())))   # L_p maps () to p
    n, eps = p.n, np.finfo(float).eps
    gaps, wi = np.arange(_capped_basis_size(n, int(p.degree)) - 1), WordIndex(n, m)
    r, size, kept = _symbol(p, gaps), min(LANCZOS_VECTORS, wi.dim), 0
    v, h = np.zeros((size, wi.dim), dtype=complex), np.zeros((size, size), dtype=complex)
    # a fixed generic start keeps runs deterministic without sharing a symmetry of p
    v[0] = np.random.default_rng(0).standard_normal(wi.dim)
    v[0] /= np.linalg.norm(v[0])
    for _ in range(LANCZOS_MAX_RESTARTS):
        for j in range(kept, size):
            w = _compressed_square(r, wi, v[j])
            for _ in range(2):      # Gram-Schmidt twice: h is the projection V* A V
                c = (v[:j + 1] @ w.conj()).conj()
                w -= c @ v[:j + 1]
                h[:j + 1, j] += c
            beta = np.linalg.norm(w)
            if j + 1 == size or beta <= LANCZOS_TOL * np.linalg.norm(h[:j + 1, j]):
                break           # the basis is full, or spans an invariant subspace
            v[j + 1] = w / beta
        theta, s = np.linalg.eigh(h[:j + 1, :j + 1], UPLO="U")
        if j + 1 < size or abs(beta * s[-1, -1]) <= LANCZOS_TOL * theta[-1]:
            break
        kept = size // 2
        v[:kept], v[kept] = s[:, -kept:].T @ v, w / beta
        h[:] = np.diag(np.r_[theta[-kept:], np.zeros(size - kept)])
    x = s[:, -1] @ v[:j + 1]
    y, modulus = np.abs(x), NcPolynomial(n, {word: abs(coeff) for word, coeff in p.terms.items()})
    square = (np.vdot(x, _compressed_square(r, wi, x)).real - 2 * eps * (r.size + wi.dim)
              * (y @ _compressed_square(_symbol(modulus, gaps).real, wi, y)))
    return float(np.sqrt(max(square, 0.0) / np.vdot(x, x).real)) * (1 - 4 * eps)


def _is_prefix_free(p: NcPolynomial) -> bool:
    """True when no nonempty word of p is a proper prefix of another.  Sorted
    lexicographically, a word that is a prefix of some other word is one of
    the next word, so adjacent pairs suffice."""
    words = sorted(word for word in p.terms if word)
    return all(b[:len(a)] != a for a, b in zip(words, words[1:]))


def _prefix_free_norm(p: NcPolynomial):
    """(lower, upper) around ||L_p|| = |c_()| + ||c||_2 for a p whose nonempty
    words are prefix-free (sup_norm_bounds), c the coefficients of those words.

    With u = eps / 2: abs(c_()) and ||c||_2 are hypots, each within one ulp
    (2u; math.hypot of many arguments since Python 3.10), and neither squares
    a coefficient, so none overflows before the norm does.  Their sum adds u:
    the value is within 3u (+ O(u^2)) of the norm, and the factors
    1 - 3 eps and 1 + 3 eps (1 -/+ 6u, exact in binary, each product rounded
    by u) cover it.  A constant with a zero real or imaginary part is exact
    (hypot(x, 0) = |x|) and gets no slack."""
    c0 = complex(p.terms.get((), 0.0))
    rest = [part for word, c in p.terms.items() if word for part in (c.real, c.imag)]
    value = abs(c0) + math.hypot(*rest)
    exact = not rest and (c0.real == 0.0 or c0.imag == 0.0)
    slack = 0.0 if exact else 3 * np.finfo(float).eps
    return value * (1 - slack), value * (1 + slack)


def _grade_norm_bound(p: NcPolynomial) -> float:
    """The sum of the grade norms of p, an upper bound on ||L_p||, times
    1 + (terms + 2) eps.  With u = eps / 2, each grade norm is a hypot,
    within one ulp (2u), and at most terms - 1 of the additions over the
    grades round: the sum is within (terms + 1) u, and the factor covers
    that and its own rounding."""
    eps = np.finfo(float).eps
    return float(sum(p.grade_norms())) * (1 + (len(p.terms) + 2) * eps)


def _circle_values(g: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_k g[j, k] e^(i k theta) at each angle for each row j of g: the
    direct sums, shape (g.shape[0], theta.size), about 2^16 exponentials
    at a time."""
    k = np.arange(g.shape[1])
    out = np.empty((g.shape[0], theta.size), dtype=complex)
    rows = max(1, 2 ** 16 // k.size)
    for i in range(0, theta.size, rows):
        out[:, i:i + rows] = g @ np.exp(1j * k[:, None] * theta[i:i + rows])
    return out


def _square_taylor(v: np.ndarray, err) -> tuple:
    """(t, t', t'') of t = |p|^2 in theta at each angle, stacked, from
    v = (p, p', p''), and one bound on the error of each over the angles,
    given bounds err on the errors of v: t' = 2 Re(conj(p) p') and
    t'' = 2 (|p'|^2 + Re(conj(p) p'')).  For |a^ - a| <= e_a, |b^ - b| <= e_b
    and |a^| <= A, |b^| <= B, conj(a^) b^ is within A e_b + B e_a + e_a e_b
    of conj(a) b, and forming its real part (two products and a sum), the
    doubling and the sum in t'' add at most 2 eps A B per product."""
    eps, top, err = float(np.finfo(float).eps), np.abs(v).max(axis=1).tolist(), list(err)
    conj = v[0].conj()
    t = np.array([(conj * v[0]).real, 2 * (conj * v[1]).real,
                  2 * ((v[1].conj() * v[1]).real + (conj * v[2]).real)])

    def pair(i, j):
        return top[i] * err[j] + top[j] * err[i] + err[i] * err[j] + 2 * eps * top[i] * top[j]

    return t, np.array([pair(0, 0), 2 * pair(0, 1), 2 * (pair(1, 1) + pair(0, 2))])


def _cell_bounds(t: np.ndarray, s: np.ndarray, w, m3: float) -> np.ndarray:
    """Upper bounds on t = |p|^2 over [theta - w, theta + w], from (t, t', t'')
    at theta with error bounds s (_square_taylor) and m3 >= max |t'''|.
    Taylor's theorem and |x|^3 <= w x^2 give, for |x| <= w,
    t(theta + x) <= top + slope |x| + curve x^2 with top = t + s,
    slope = |t'| + s' and curve = (t'' + s'') / 2 + m3 w / 6.  Its largest
    value on [0, w] is top + slope^2 / (-4 curve) when the vertex of a
    concave model lies inside, top + w (slope + curve w) otherwise; either
    is rounded by less than 4 eps (top + w slope + |curve| w^2)."""
    eps = np.finfo(float).eps
    top, slope = t[0] + s[0], np.abs(t[1]) + s[1]
    curve = 0.5 * (t[2] + s[2]) + m3 * w / 6
    inside = slope < -2 * curve * w
    bound = np.where(inside, top + slope ** 2 / np.where(inside, -4 * curve, 1.0),
                     top + w * (slope + curve * w))
    return bound + 4 * eps * (top + w * (slope + np.abs(curve) * w))


def _circle_bounds(p: NcPolynomial):
    """Certified (lower, upper) for max |p| on the unit circle, the multiplier
    norm for n = 1, or ResourceCapError when d = deg p > CIRCLE_MAX_DEGREE.

    t(theta) = |p(e^(i theta))|^2 is a real trigonometric polynomial of
    degree d.  One FFT gives p, p' and p'' on N >= 16 d angles
    theta_j = j h, h = 2 pi / N, and t, t', t'' there (_square_taylor).
    - Lower side: the grid's maxima whose cell bound exceeds every certified
      grid value (the CIRCLE_PEAKS highest of them) are refined by at most
      CIRCLE_NEWTON_STEPS safeguarded Newton steps on t, each of at most h,
      and |p| at the refined angles and at the centres of halved cells, the
      direct sum of c_k e^(i k theta), less a slack for its rounding is the
      bound.  Every such angle has |theta| < 7 (the steps are reduced to
      [0, 2 pi], the centres lie within h of it), so k theta is rounded by
      at most 3.5 k eps, e^(i .) by eps, the sum of c.size terms by
      (c.size + 3) eps sum |c_k| and the modulus by eps |p|, and the slack
      eps sum_k |c_k| (4 k + c.size + 5) covers them.  The same sum over
      k^j |c_k| bounds the error of the direct sum of p^(j), whose
      coefficients (i k)^j c_k are formed within eps.
    - Upper side: Bernstein's inequality gives |t'''| <= d^3 ||t||, and
      Bernstein-Szego (t'^2 + d^2 t^2 <= d^2 ||t||^2, so t >= ||t|| cos(d x)
      at a distance x <= pi / d from the maximum) puts a grid point where
      t >= ||t|| cos(d pi / N).  So m3 = d^3 max_j t(theta_j) / cos(d pi / N)
      bounds |t'''|.  Each cell [theta_j - h/2, theta_j + h/2] gets a
      third-order Taylor bound (_cell_bounds), and so does the interval of
      radius -1.5 t''_+ / m3 around each refined peak, t''_+ = t'' + its
      slack < 0, where the model stays concave and closes the bracket.
      Cells whose bound exceeds the lower side (squared) by more than
      CIRCLE_GAP, relative, plus twice the rounding of t at the peaks, and
      that no peak interval holds, are halved, their centres summed
      directly, until none is left, the halves stop moving, or
      CIRCLE_MAX_WORK angle-terms are spent; upper is the root of the
      largest bound, times 1 + 2 eps for the root's rounding.
    - FFT rounding: a length-N = 2^L FFT is within L eta ||y||_2 of exact,
      eta = mu + gamma_4 (sqrt 2 + mu) < 4 eps for twiddles within
      mu <= eps (Higham, Accuracy and Stability of Numerical Algorithms,
      2nd ed., Thm 24.2).  Twice that for the mixed-radix passes, and eps
      for the inputs, bound each entry by (8 L + 1) eps sqrt(N) ||g||_2,
      as ||y||_2 = sqrt(N) ||g||_2 for the coefficients g.
    """
    d, eps = int(p.degree), np.finfo(float).eps
    if d > CIRCLE_MAX_DEGREE:
        raise ResourceCapError(
            f"degree {d} at n = 1 exceeds the cap {CIRCLE_MAX_DEGREE} of the circle bound")
    c, k = np.zeros(d + 1, dtype=complex), np.arange(d + 1)
    c[[len(word) for word in p.terms]] = list(p.terms.values())
    g = np.array([c, 1j * k * c, -(k * k) * c])     # the coefficients of p, p', p''
    size = 1 << (16 * d - 1).bit_length()
    h = 2 * np.pi / size
    size_g = np.abs(g)
    direct = eps * (size_g @ (4 * k + c.size + 5))
    fft = (8 * size.bit_length() - 7) * eps * np.sqrt(size * (size_g * size_g).sum(axis=1))
    t, s = _square_taylor(np.fft.ifft(g, size, norm="forward"), fft)
    m3 = d ** 3 * float((t[0] + s[0]).max()) / math.cos(math.pi * d / size) * (1 + 8 * eps)
    bounds = _cell_bounds(t, s, h / 2, m3)
    ring = np.arange(size)
    peaks = np.flatnonzero((t[0] > t[0, ring - 1]) & (t[0] >= t[0, ring + 1 - size])
                           & (bounds > (t[0] - s[0]).max()))
    peaks = np.append(peaks[np.argsort(t[0, peaks])[-CIRCLE_PEAKS:]], np.argmax(t[0]))
    theta, slope, curve = h * peaks, t[1, peaks], t[2, peaks]   # the first step from the grid
    v = None
    for _ in range(CIRCLE_NEWTON_STEPS):
        step = slope / np.maximum(-curve, 1e-300)
        step = np.where(curve < 0, np.maximum(np.minimum(step, h), -h), 0.0)
        if v is not None and np.abs(step).max() <= 2 ** -30 * h:   # it would not show in t
            break
        theta = (theta + step) % (2 * np.pi)
        v = _circle_values(g, theta)
        slope = (v[0].conj() * v[1]).real
        curve = (v[1].conj() * v[1] + v[0].conj() * v[2]).real
    lower = float(np.abs(v[0]).max() - direct[0])
    tp, sp = _square_taylor(v, direct)
    radius = np.maximum(-1.5 * (tp[2] + sp[2]) / m3, 0.0)
    best, floor = float(_cell_bounds(tp, sp, radius, m3).max()), 2 * float(sp[0].max())
    centres, w, work = h * np.arange(size), h / 2, 0
    while True:
        settle = bounds <= max(lower, 0.0) ** 2 * (1 + CIRCLE_GAP) + floor
        best = max(best, float(bounds[settle].max(initial=0.0)))
        off = np.abs((centres[~settle, None] - theta + np.pi) % (2 * np.pi) - np.pi)
        open_ = ~(off + w <= radius).any(axis=1)
        centres, bounds = centres[~settle][open_], bounds[~settle][open_]
        work += 2 * centres.size * c.size
        if not centres.size or work > CIRCLE_MAX_WORK or w < 4 * np.pi * eps:
            best = max(best, float(bounds.max(initial=0.0)))
            break
        w /= 2
        centres = np.concatenate([centres - w, centres + w])
        v = _circle_values(g, centres)
        lower = max(lower, float(np.abs(v[0]).max() - direct[0]))
        bounds = _cell_bounds(*_square_taylor(v, direct), w, m3)
    return max(lower, 0.0), math.sqrt(max(best, lower * lower)) * (1 + 2 * float(eps))


def _suffix_closure(p: NcPolynomial) -> np.ndarray:
    """W, the least set of words that holds every word of p and is closed under
    deleting the first letter (so it holds ()), as the sorted indices of its
    words among those of length <= deg p in grade order."""
    n = p.n
    start = _grade_starts(n, int(p.degree))
    grade = np.array([len(word) for word in p.terms])
    value = np.array([word_value(word, n) for word in p.terms], dtype=np.int64)
    # each word of grade g gives its g + 1 suffixes, the last k letters for k = 0..g
    word = np.repeat(np.arange(grade.size), grade + 1)
    k = np.arange(word.size) - np.repeat(np.cumsum(grade + 1) - grade - 1, grade + 1)
    return np.unique(start[k] + value[word] % n ** k)


def _word_set_layout(n: int, d: int, words: np.ndarray):
    """Index arrays (src, dst, con, starts, gaps) over the splittings
    beta = alpha gamma, gamma nonempty, with alpha and beta in a word set W
    closed under deleting the first letter; words holds the sorted indices
    of W's words among those of length <= d in grade order.  src indexes
    alpha and dst beta in W, sorted by gamma; gaps holds each gamma that
    occurs once, as its index among the nonempty words in grade order;
    con[k] is the position in gaps of the gamma of pair k, and starts[j] is
    the first pair of gaps[j].  On all words there are sum_beta |beta| pairs
    and every gamma occurs, in the order of the pairs listed by grade.
    """
    start = _grade_starts(n, d)
    grade = np.searchsorted(start, words, side="right") - 1
    value = words - start[grade]
    # each beta of grade b splits after a = 0..b-1 letters
    beta = np.repeat(np.arange(words.size), grade)
    a = np.arange(beta.size) - np.repeat(np.cumsum(grade) - grade, grade)
    tail = grade[beta] - a
    alpha = start[a] + value[beta] // n ** tail
    src = np.searchsorted(words, alpha)
    keep = np.flatnonzero(words.take(src, mode="clip") == alpha)
    # gamma is a suffix of beta, so in W as well; only alpha can fall outside
    gamma = (start[tail] - 1 + value[beta] % n ** tail)[keep]
    order = np.argsort(gamma, kind="stable")
    gamma = gamma[order]
    first = np.diff(gamma, prepend=-1) > 0
    starts = np.flatnonzero(first)
    return src[keep][order], beta[keep][order], np.cumsum(first) - 1, starts, gamma[starts]


def _fejer_riesz_work(size: int, layout) -> int:
    """8 P^2 + |W|^3 for the P pairs of layout = _word_set_layout(n, d, W) and
    |W| = size: the work of one Gram solve iteration (FEJER_RIESZ_MAX_WORK)."""
    return 8 * layout[0].size ** 2 + size ** 3


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """L^-1 of an invertible lower-triangular L, by halves:
    [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]], down to blocks of
    side <= 32, which np.linalg.inv inverts (its pivoting may leave rounding
    above the diagonal).  At sides 63-200 this took 0.27-0.6 of the time of
    np.linalg.inv on all of L, which factors it as a general matrix (2-vCPU
    host, one thread)."""
    k = chol.shape[0]
    if k <= 32:
        return np.linalg.inv(chol)
    h = k // 2
    a, b = _lower_inverse(chol[:h, :h]), _lower_inverse(chol[h:, h:])
    out = np.zeros_like(chol)
    out[:h, :h], out[h:, h:] = a, b
    out[h:, :h] = -(b @ chol[h:, :h] @ a)
    return out


def _dual_matrix(y, src, dst, con, size: int) -> np.ndarray:
    """M(y) = sum_gamma conj(y_gamma) E_gamma + y_gamma E_gamma*, with
    tr(X M(y)) = 2 Re <y, A(X)>.  Every entry is one y_gamma or its
    conjugate, placed off the diagonal, so I - M(y) is formed exactly."""
    out = np.zeros((size, size), dtype=complex)
    out[src, dst] = y[con]
    out[dst, src] = y[con].conj()
    return out


def _schur_workspace(size: int, layout) -> tuple:
    """Buffers for _schur_system on the pairs of layout, allocated once per
    solve: the gathers come to pairs x pairs complex entries each (1 MB at
    258 pairs), and fresh ones each iteration page-faulted at rates that
    depended on the process's allocation history."""
    pairs, cons = layout[0].size, layout[3].size
    return (np.empty((pairs, size), dtype=complex), np.empty((2, pairs, pairs), dtype=complex),
            np.empty((2, pairs, pairs), dtype=complex), np.empty((2, cons, pairs), dtype=complex))


def _schur_system(x: np.ndarray, w: np.ndarray, layout, work) -> np.ndarray:
    """The real matrix of dy -> constraint(X M(dy) W) acting on [Re dy; Im dy],
    for Hermitian X and W and the pairs layout = _word_set_layout(n, d, W).

    The map is (minus conj(dy) + plus dy) / 2, where minus and plus sum, over
    the pairs of each gamma by rows and by columns, X[src, dst] * W[src, dst].T
    + conj(X[dst, src] * W[dst, src].T) and X[src, src] * W[dst, dst].T
    + conj(X[dst, dst] * W[src, src].T).  As X and W are Hermitian these are
    t + t.T with t = X[src, dst] * W[src, dst].T, and X[src, src] * W[dst, dst].T
    + X[dst, dst].T * W[src, src]: three pairs x pairs gathers of each matrix
    (Z[rows, cols].T is Z.T[cols, rows]).  Both are grouped in one pass over
    their (2, pairs, pairs) stack, and added only once grouped, all in the
    buffers work = _schur_workspace(size, layout).
    """
    src, dst, _, starts, _ = layout
    cons = starts.size
    row, (a, b), stack, grouped = work

    def gather(z, rows, cols, out):
        # mode "clip" writes straight into out; the indices are in range
        return z.take(rows, 0, row, "clip").take(cols, 1, out, "clip")

    np.multiply(gather(x, src, src, a), gather(w.T, dst, dst, b), out=stack[1])
    stack[1] += np.multiply(gather(x.T, dst, dst, a), gather(w, src, src, b), out=a)
    t = np.multiply(gather(x, src, dst, a), gather(w.T, dst, src, b), out=a)
    np.add(t, t.T, out=stack[0])
    minus, plus = np.add.reduceat(np.add.reduceat(stack, starts, axis=1, out=grouped),
                                  starts, axis=2)
    tot, diff = 0.5 * (minus + plus), 0.5 * (plus - minus)
    out = np.empty((2 * cons, 2 * cons), order="F")
    out[:cons, :cons], out[:cons, cons:] = tot.real, -diff.imag
    out[cons:, :cons], out[cons:, cons:] = tot.imag, diff.real
    return out


def _fejer_riesz_gram(symbol: np.ndarray, size: int, layout):
    """Approximate primal-dual solution (Q, y) of min tr Q subject to
    sum_alpha Q[alpha, alpha gamma] = -r_gamma for every gamma of the layout
    and Q >= 0, and of its dual: max -2 Re <y, r> subject to I - M(y) >= 0.
    Q is indexed by the size words of a word set W, the pairs
    layout = _word_set_layout(n, d, W) list the splittings inside it, and
    symbol holds r_gamma at the layout's gaps, scaled to r_() = 1.

    A primal-dual interior-point method: HKM direction with Mehrotra's
    predictor-corrector, the dual slack S = I - M(y) kept exactly feasible.
    The Schur complement of the Newton system is gathered from X and S^-1
    over the pairs; no constraint matrix is formed.  As X and S^-1
    are Hermitian, three pairs x pairs gathers of each, at (src, src),
    (src, dst) and (dst, dst), give it (_schur_system): the (dst, src)
    quadrant is the conjugate transpose of the (src, dst) one.  The
    iterates stay positive definite and are returned when the duality gap
    stops falling; y (one entry per gap of the layout) is the last point
    whose S had a Cholesky factor.
    """
    src, dst, con, starts, _ = layout
    cons, b = starts.size, -symbol
    eye = np.eye(size, dtype=complex)

    def constraint(y):
        """(A(Y) + A(Y*)) / 2 with A(Y)_gamma = sum_alpha Y[alpha, alpha gamma]."""
        return (np.add.reduceat(y[src, dst], starts)
                + np.add.reduceat(y[dst, src].conj(), starts)) / 2

    def max_step(z, inv_chol, dz, cap):
        """Largest t with Z + t dZ >= 0, for Z = L L* and inv_chol = L^-1, or
        inf when it is at least cap.  When Z + cap dZ has a Cholesky factor,
        the segment from Z to it stays positive definite (the cone is
        convex), so the step is at least cap and the eigensolve is skipped."""
        try:
            np.linalg.cholesky(z + cap * dz)
            return np.inf
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(inv_chol @ dz @ inv_chol.conj().T)[0]
        return -1.0 / low if low < 0 else np.inf

    x, s, y = eye, eye, np.zeros(cons, dtype=complex)
    chol_x = chol_s = eye
    work = _schur_workspace(size, layout)
    mu_prev, tx_last, ts_last = np.inf, 0.0, 0.0
    for _ in range(FR_MAX_ITER):
        mu = np.vdot(s, x).real / size
        scale = 1.0 + np.trace(x).real
        if mu * size <= FR_GAP_TOL * scale or (mu > 0.5 * mu_prev
                                              and mu * size <= FR_STALL_TOL * scale):
            break
        mu_prev = mu
        inv_x, inv_s = _lower_inverse(chol_x), _lower_inverse(chol_s)
        w = inv_s.conj().T @ inv_s
        # the linear map dy -> constraint(X M(dy) S^-1) is (minus conj(dy) + plus dy) / 2
        schur = _schur_system(x, w, layout, work)

        def newton(rhs, target, second):
            sol = np.linalg.solve(schur, np.concatenate([rhs.real, rhs.imag]))
            dy = sol[:cons] + 1j * sol[cons:]
            md = _dual_matrix(dy, src, dst, con, size)
            dx = target * w - x + (x @ md - second) @ w
            return (dx + dx.conj().T) / 2, dy, -md

        try:
            dx, dy, ds = newton(b, 0.0, 0.0)
        except np.linalg.LinAlgError:   # a singular Schur system ends the solve
            break
        tx, ts = min(1.0, max_step(x, inv_x, dx, 1.0)), min(1.0, max_step(s, inv_s, ds, 1.0))
        sigma = (np.vdot(s + ts * ds, x + tx * dx).real / size / mu) ** 3
        second = dx @ ds
        dx, dy, ds = newton(b - sigma * mu * constraint(w) + constraint(second @ w),
                            sigma * mu, second)
        # step fraction 0.9 + 0.09 min(last steps), as in SDPT3: short steps keep
        # the iterates away from the boundary, where the method would jam
        fraction = 0.9 + 0.09 * min(tx_last, ts_last)
        tx = min(1.0, fraction * max_step(x, inv_x, dx, 1.0 / fraction))
        ts = min(1.0, fraction * max_step(s, inv_s, ds, 1.0 / fraction))
        tx_last, ts_last = tx, ts
        x_new, y_new = x + tx * dx, y + ts * dy
        s_new = eye - _dual_matrix(y_new, src, dst, con, size)
        try:
            chol_x, chol_s = np.linalg.cholesky(x_new), np.linalg.cholesky(s_new)
        except np.linalg.LinAlgError:
            break
        x, y, s = x_new, y_new, s_new
    return x, y


def _fejer_riesz_bounds(p: NcPolynomial, q: np.ndarray, y: np.ndarray, r: np.ndarray,
                        layout):
    """Certified (lower, upper) for ||L_p|| from any Hermitian q indexed by a
    word set W and any dual point y, one entry per gap of the pairs
    layout = _word_set_layout(p.n, deg p, W).  W holds every word of p and
    is closed under deleting the first letter, which makes the solve on it
    exact (sup_norm_bounds).  r is _symbol(p, gaps).

    upper: with F the eigenvectors of q scaled by the roots of its clipped
    eigenvalues, Q+ = F F* is positive semidefinite, so the hereditary square
    sum Q+[alpha, beta] L_alpha* L_beta is >= 0, and with the residuals
    e_gamma = r_gamma + sum_alpha Q+[alpha, alpha gamma]:
    ||L_p||^2 <= r_() + tr Q+ + 2 sum_gamma |e_gamma|.  A gamma with no pair
    in W has r_gamma = 0, and so e_gamma = 0.  The slack
    8 eps (D^2 + P) (tr Q+ + ||c||_1^2), with eps the unit roundoff, D = |W|
    and P the number of pairs, covers the rounding in forming F F*, r and
    the sums; a final factor 1 + 4 eps covers the root.

    lower: with S = I - M(y) and delta = max(0, -lambda_min(S)), the point
    y / (1 + delta) is dual feasible, so its value bounds the least trace
    ||L_p||^2 - r_() from below: ||L_p||^2 >= r_() + v / (1 + delta) for the
    dual value v = -2 Re <y, r>.  S is formed exactly.  The slack
    16 eps D (||S||_F |v| + (1 + ||y||_1) r_()) covers eigh's error in
    lambda_min(S), which LAPACK bounds by a small multiple of eps ||S||, and
    the rounding in r_(), in each r_gamma (at most D eps r_() by
    Cauchy-Schwarz: only the terms of p add rounding) and in the sums; a
    factor 1 - 4 eps covers the root.
    """
    src, dst, con, starts, _ = layout
    r0, symbol = r[0].real, r[1:]
    size, eps = q.shape[0], np.finfo(float).eps
    vals, vecs = np.linalg.eigh(q)
    f = vecs * np.sqrt(np.clip(vals, 0.0, None))
    q_plus = f @ f.conj().T
    trace = float(np.vdot(f, f).real)
    residual = symbol + np.add.reduceat(q_plus[src, dst], starts)
    l1 = float(sum(abs(c) for c in p.terms.values()))
    slack = 8 * eps * (size ** 2 + src.size) * (trace + l1 * l1)
    square = r0 + trace + 2 * float(np.abs(residual).sum()) + slack
    upper = float(np.sqrt(square)) * (1 + 4 * eps)

    s = np.eye(size) - _dual_matrix(y, src, dst, con, size)
    delta = max(0.0, -float(np.linalg.eigvalsh(s)[0]))
    value = -2 * float(np.vdot(y, symbol).real)
    slack = 16 * eps * size * (float(np.linalg.norm(s)) * abs(value)
                               + (1 + float(np.abs(y).sum())) * r0)
    square = r0 + value / (1 + delta) - slack
    lower = float(np.sqrt(max(square, 0.0))) * (1 - 4 * eps)
    return lower, upper


def sup_norm_bounds(p: NcPolynomial, m: int) -> NormBounds:
    """Certified (lower, upper) bounds for the multiplier sup-norm ||L_p||.

    The certificate is chosen from the words of p before any Gram layout is
    built; each side carries a stated rounding slack.  Every path runs on
    p / 2^e, the e that puts the largest real or imaginary part of a
    coefficient in [1/2, 1), and the bracket is multiplied back by 2^e.
    ||L_(sp)|| = |s| ||L_p||, and scaling by a power of two is exact, so the
    paths, which square coefficients, neither overflow nor underflow, and
    sup_norm_bounds(p.scale(2^k), m) is 2^k sup_norm_bounds(p, m) bit for
    bit while no coefficient leaves the normal range.  A part below
    2^(e - 1074) is lost in the division; it moves ||L_p|| / 2^e by less
    than 2^-1074 per term, far inside every slack.  A bracket that 2^e puts
    above the largest double raises DomainError naming the scale.
    - Prefix-free p (no nonempty word a proper prefix of another; any n, the
      zero, constant, homogeneous and degree-1 p among them): lower and
      upper surround |c_()| + ||c||_2 (_prefix_free_norm), c the
      coefficients of the nonempty words.  For distinct v, w in a
      prefix-free set, v alpha = w beta is impossible, so L_v* L_w = 0: the
      L_w are isometries with orthogonal ranges, and
      V = sum_(w != ()) c_w L_w / ||c||_2 is an isometry.  Its range after k
      steps lies in the words of length >= k, so V is pure, a shift, whose
      spectrum is the closed unit disc, and ||c_() I + ||c||_2 V|| =
      |c_()| + ||c||_2.
    - Every other n = 1 p: max |p| on the unit circle is the multiplier
      norm, and both sides come from it (_circle_bounds, ResourceCapError
      above deg p = CIRCLE_MAX_DEGREE); upper is the smaller of its bound
      and the sum of the grade norms, which is the norm when all c_k z^k
      peak together.
    - The rest: by McCullough's noncommutative Fejer-Riesz theorem,
      c^2 I - L_p* L_p >= 0 exactly when it is a hereditary square with a
      PSD Gram matrix Q indexed by the words of length <= deg p, so the
      least tr Q is ||L_p||^2 - r_() (see _symbol).  One interior-point
      solve of that semidefinite program gives both sides, upper from its
      Gram matrix and lower from its dual point by weak duality, valid
      whether or not the solve converged (_fejer_riesz_bounds).  upper is
      the smaller of this bound and the sum of the grade norms
      (_grade_norm_bound).

    The solve runs on W, the suffix closure of supp p: the least word set
    that holds every word of p and is closed under deleting the first letter
    (_suffix_closure).  Its optimum is the one on all words:
    - Upper side.  A PSD Gram matrix on W x W, padded with zeros, is
      feasible for the full problem with the same trace: every gamma with
      r_gamma != 0 has alpha and alpha gamma in supp p, inside W, so no
      constraint is lost.
    - Lower side.  Let S_W = I - M_W(y) >= 0 on W and take Gram vectors
      v_w, w in W, with S_W[alpha, beta] = <v_alpha, v_beta>.  The form of M
      gives S_W[i alpha, j beta] = delta_ij S_W[alpha, beta] whenever i alpha
      and j beta lie in W (and then alpha and beta do), so v_alpha ->
      v_(i alpha) is a partial row isometry, which extends to a row isometry
      V on a larger space.  With xi = v_(), closure under deleting the first
      letter gives V_w xi = v_w for every w in W.  So
      S'[alpha, beta] = <V_alpha xi, V_beta xi> over all words of length
      <= deg p is PSD, has the form I - M(y'), and y' agrees with y at every
      gamma with a pair in W, which holds every gamma the objective reads.
      The dual value on W is a dual value on all words, a certified lower
      bound, and r_() plus it is ||p(V) xi||^2: V is an explicit witness.
    - If lambda_min(S_W) = -delta < 0, y / (1 + delta) is exactly feasible,
      as S_W(y / (1 + delta)) = (S_W(y) + delta I) / (1 + delta).
    This is the hereditary analogue of the Newton chip method for sums of
    hermitian squares (Klep-Povh, J. Pure Appl. Algebra 214 (2010)).  For
    dense p, W is every word of length <= deg p.

    Where the work on W exceeds FEJER_RIESZ_MAX_WORK (_fejer_riesz_work) the
    solve is skipped: upper is the grade-norm sum and lower the norm of L_p
    on P_m (_truncated_norm), the only place m enters.  upper_method,
    lower_method and gram_size (|W|, when the solve ran) on the result say
    which bounds were used.
    """
    # every path runs on p / 2^e, with max(|Re c|, |Im c|) in [1/2, 1)
    e = math.frexp(max((max(abs(c.real), abs(c.imag)) for c in p.terms.values()),
                       default=0.0))[1]
    p = NcPolynomial(p.n, {word: complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
                           for word, c in p.terms.items()})
    bounds = _normalized_bounds(p, m)
    try:
        lower, upper = math.ldexp(bounds[0], e), math.ldexp(bounds[1], e)
    except OverflowError:
        raise DomainError(f"the norm bracket [{bounds[0]!r}, {bounds[1]!r}] at scale 2^{e} "
                          f"exceeds the largest double") from None
    return NormBounds(lower, upper, bounds.upper_method, bounds.lower_method, bounds.gram_size)


def _normalized_bounds(p: NcPolynomial, m: int) -> NormBounds:
    """sup_norm_bounds of a p whose coefficients have real and imaginary
    parts below 1."""
    if _is_prefix_free(p):
        return NormBounds(*_prefix_free_norm(p), "prefix_free", "prefix_free")
    upper, upper_method = _grade_norm_bound(p), "grade_norms"
    if p.n == 1:
        with _BLAS_SCOPE:
            lower, bound = _circle_bounds(p)
        if bound < upper:
            upper, upper_method = bound, "circle"
        return NormBounds(lower, upper, upper_method, "circle")
    n, d = p.n, int(p.degree)
    words = _suffix_closure(p)
    # the |W|^3 term alone rules out a large W before its pairs are listed
    layout = _word_set_layout(n, d, words) if words.size ** 3 <= FEJER_RIESZ_MAX_WORK else None
    if layout is not None and _fejer_riesz_work(words.size, layout) <= FEJER_RIESZ_MAX_WORK:
        r = _symbol(p, layout[4])
        with _BLAS_SCOPE:
            gram, dual = _fejer_riesz_gram(r[1:] / r[0].real, words.size, layout)
            lower, bound = _fejer_riesz_bounds(p, r[0].real * gram, dual, r, layout)
        if bound < upper:
            upper, upper_method = bound, "fejer_riesz"
        return NormBounds(lower, upper, upper_method, "fejer_riesz_dual", words.size)
    with _BLAS_SCOPE:
        lower = _truncated_norm(p, m)
    return NormBounds(lower, upper, upper_method, "truncated")

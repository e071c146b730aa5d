"""Shared random generators for the test suite.

Generators deliberately control conditioning: interpolation nodes keep a
minimum coordinate gap so that 1e-12 oracle tolerances are meaningful in
double precision, and row contractions are scaled strictly inside their
contractivity bound so hard inequalities carry no rounding excuses.
"""

import itertools
import json

import numpy as np

from ncfock import (BallPoint, DomainError, NcPolynomial, ResourceCapError, RowContraction,
                    SingularGramError, WordIndex, as_hermitian, gram)
from ncfock.freealg import word_value
from ncfock.ideals import _lambda_table
from ncfock.numerics import _BLAS_SCOPE


def random_polynomial(rng, n, degree, terms=5, scale=1.0, homogeneous=False,
                      integer=False):
    out = {}
    for _ in range(terms):
        k = degree if homogeneous else int(rng.integers(0, degree + 1))
        word = tuple(int(i) for i in rng.integers(1, n + 1, size=k))
        if integer:
            coeff = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        else:
            coeff = scale * complex(rng.normal(), rng.normal())
        out[word] = out.get(word, 0.0) + coeff
    p = NcPolynomial(n, out)
    if p.is_zero:
        p = NcPolynomial(n, {(1,) * degree if homogeneous else (): 1.0})
    return p


def coefficient_vector(p, m):
    """The coefficients of p over the words of P_m, in WordIndex order."""
    wi = WordIndex(p.n, m)
    out = np.zeros(wi.dim, dtype=complex)
    for word, coeff in p.terms.items():
        out[wi.index(word)] = coeff
    return out


def z_vector(point, m):
    """The kernel vector of a point of the open ball: the (D(n, m),) array of
    the coefficients conj(lambda_alpha), |alpha| <= m, so that
    <p, z> = np.vdot(z, coefficient_vector(p, m)) = p(lambda) for deg p <= m.
    The oracle for the Gram matrix and the functional calculus at points."""
    point = point if isinstance(point, BallPoint) else BallPoint(point)
    if point.norm >= 1.0:
        raise DomainError(f"kernel vector needs |lambda| < 1, got {point.norm:.6g}")
    blocks = [np.ones(1, dtype=complex)]
    for _ in range(m):
        blocks.append(np.kron(blocks[-1], point.coords.conj()))
    return np.concatenate(blocks)


def mult_matrix(p, m):
    """Multiplication by p from P_m into P_(m + deg p), with no truncation:
    column beta holds p e_beta, each term put at WordIndex.index(alpha beta)
    of the concatenated word.  The dense oracle for truncated_mult_matrix
    (its top-left block) and for the multiplier norm ||L_p|| on P_m."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no multiplication matrix")
    wi_in, wi_out = WordIndex(p.n, m), WordIndex(p.n, m + int(p.degree))
    out = np.zeros((wi_out.dim, wi_in.dim), dtype=complex)
    for j, beta in enumerate(wi_in.words()):
        for alpha, coeff in p.terms.items():
            out[wi_out.index(alpha + beta), j] += coeff
    return out


def naive_word_product(X, word):
    """X_alpha for a stack X of shape (n, ..., d, d): the identity times each
    letter's operator in turn, nothing shared between words."""
    X = np.asarray(X, dtype=complex)
    out = np.broadcast_to(np.eye(X.shape[-1], dtype=complex), X.shape[1:])
    for letter in word:
        out = out @ X[letter - 1]
    return out


def naive_evaluate(p, X):
    """sum_alpha c_alpha X_alpha term by term: the oracle for freealg.evaluate
    on scalar polynomials and stacks of shape (n, ..., d, d)."""
    X = np.asarray(X, dtype=complex)
    out = np.zeros(X.shape[1:], dtype=complex)
    for word, coeff in p.terms.items():
        out = out + coeff * naive_word_product(X, word)
    return out


def naive_compression(blocks, wi, alpha, beta):
    """K* (M_alphabeta tensor I_d) K from the kernel's row blocks, one pair
    and one grade at a time: the block of each word beta w meets that of
    alpha w, |w| <= m - max(|alpha|, |beta|).  The oracle for the
    compressions that poisson takes from the iterates of Phi."""
    n, d = wi.n, blocks.shape[1]
    va, vb = word_value(alpha, n), word_value(beta, n)
    out = np.zeros((d, d), dtype=complex)
    for t in range(wi.m - max(len(alpha), len(beta)) + 1):
        size = n ** t
        rows_out = wi.grade_start(t + len(alpha)) + va * size
        rows_in = wi.grade_start(t + len(beta)) + vb * size
        out += (blocks[rows_out:rows_out + size].reshape(-1, d).conj().T
                @ blocks[rows_in:rows_in + size].reshape(-1, d))
    return out


def naive_cp_map(T, x):
    """sum_i T_i X T_i* as two einsum contractions: the oracle for
    RowContraction.cp_map."""
    return np.einsum("iac,idc->ad", T.matrices @ x, T.matrices.conj())


def naive_pair_defects(Y, Tw):
    """Y_alpha* Y_beta - T_alpha T_beta* for every ordered pair of the stacked
    words, shape (words, words, d, d), from two einsum contractions: the
    oracle for ideals._pair_defects."""
    return np.einsum("aki,bkj->abij", Y.conj(), Y) - np.einsum("aij,bkj->abik", Tw, Tw.conj())


def random_point(rng, n, radius=0.6):
    v = rng.uniform(-1.0, 1.0, size=(n, 2))
    coords = (v[:, 0] + 1j * v[:, 1]) * (radius / np.sqrt(2 * n))
    return BallPoint(coords)


def separated_points(rng, n, k, radius=0.6, min_gap=0.2, attempts=2000):
    """k points with pairwise max-coordinate gap at least min_gap."""
    for _ in range(attempts):
        pts = [random_point(rng, n, radius) for _ in range(k)]
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if np.abs(pts[i].coords - pts[j].coords).max() < min_gap:
                    ok = False
        if ok:
            return pts
    raise RuntimeError("could not sample separated points")


def max_generalized_eigenvalue(b, a):
    """max over x != 0 of <Bx, x> / <Ax, x> for Hermitian B and PD A.

    Computed by Cholesky whitening: the top eigenvalue of L^-1 B L^-*, where
    A = L L*.  Raises SingularGramError when the least eigenvalue of A is at
    most 1e-12 relative to max(1, ||A||).
    """
    A = as_hermitian(a)
    B = as_hermitian(b)
    if A.shape != B.shape:
        raise ValueError("shape mismatch between the two forms")
    with _BLAS_SCOPE:
        vals = np.linalg.eigvalsh(A)
        scale = max(1.0, float(np.abs(vals).max()))
        if vals[0] <= 1e-12 * scale:
            raise SingularGramError(f"matrix is not positive definite within tolerance "
                                    f"(min eigenvalue {vals[0]:.3e})")
        L = np.linalg.cholesky(A)
        X = np.linalg.solve(L, B)
        W = np.linalg.solve(L, X.conj().T).conj().T
        return float(np.linalg.eigvalsh((W + W.conj().T) / 2.0)[-1])


def kron_min_norm(problem):
    """c* as the square root of the top generalized eigenvalue of the kN x kN
    pair (B, G (x) I), block (i, j) of B being G[i][j] W_i W_j*: the oracle
    for min_norm_and_condition."""
    G, W = gram(problem), problem.targets
    size = W.shape[0] * W.shape[1]
    B = np.einsum("ij,iab,jcb->iajc", G, W, W.conj()).reshape(size, size)
    top = max_generalized_eigenvalue(B, np.kron(G, np.eye(W.shape[1])))
    return float(np.sqrt(max(top, 0.0)))


def random_row_contraction(rng, n, d, rho=0.9):
    """Tuple with sum T_i T_i* <= rho * I, strictly (margin 1e-8)."""
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    s = np.linalg.norm(np.einsum("iab,icb->ac", g, g.conj()), 2)
    return RowContraction(g * np.sqrt(rho * (1.0 - 1e-8) / s))


def graded_polynomial(rng, n, degree, constant=0.5):
    """One random word per grade 1..degree plus a constant: a sparse p whose
    suffix closure is far smaller than the D(n, degree) words."""
    terms = {(): constant}
    for k in range(1, degree + 1):
        word = tuple(int(i) for i in rng.integers(1, n + 1, size=k))
        terms[word] = 0.8 ** k * complex(rng.normal(), rng.normal())
    return NcPolynomial(n, terms)


def naive_suffix_closure(p):
    """Every suffix of every word of p, () included, in grade order: the
    oracle for freealg._suffix_closure."""
    closure = {word[k:] for word in p.terms for k in range(len(word) + 1)}
    return sorted(closure, key=lambda word: (len(word), word))


def naive_word_set_pairs(words):
    """(gamma, position of alpha, position of beta) for each splitting
    beta = alpha gamma, gamma nonempty, with alpha and beta in the list of
    words, sorted by gamma in grade order and then by alpha: the oracle for
    freealg._word_set_layout, one word and split at a time."""
    pos = {word: k for k, word in enumerate(words)}
    pairs = [(beta[a:], pos[beta[:a]], pos[beta])
             for beta in words for a in range(len(beta)) if beta[:a] in pos]
    return sorted(pairs, key=lambda t: (len(t[0]), t[0], t[1]))


def gns_row_isometry(s, words, n):
    """The row isometry of the Gram vectors of a dual slack S = I - M(y) > 0
    on a word set closed under deleting the first letter, listed as words.

    With conj(S) = G* G, column w of G is v_w, so S[alpha, beta] = <v_alpha, v_beta>.
    V_i maps v_u to v_(iu) whenever iu is in the set, and is zero on the
    orthocomplement of those v_u.  S[i alpha, j beta] = delta_ij S[alpha, beta]
    makes each V_i isometric there and their ranges orthogonal, so
    [V_1 ... V_n] is a partial isometry: a row contraction, and a row isometry
    on every vector that p(V) xi reads.  Returns (V, xi) with xi = v_(), so
    that V_w xi = v_w for every listed w.
    """
    g = np.linalg.cholesky(s.conj()).conj().T
    pos = {word: k for k, word in enumerate(words)}
    V = np.zeros((n,) + s.shape, dtype=complex)
    for i in range(1, n + 1):
        pairs = [(pos[w[1:]], pos[w]) for w in words if w and w[0] == i]
        if pairs:
            src, dst = (list(v) for v in zip(*pairs))
            V[i - 1] = g[:, dst] @ np.linalg.pinv(g[:, src])
    return V, g[:, pos[()]]


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def symmetrized_basis(n, lam, m):
    """Orthonormal basis built from explicit symmetrized spanning vectors.

    For each nondecreasing word the vector sums conj(eps(w)) e_w over the
    rearrangements w, where eps(w) multiplies one commutation factor per
    inverted letter pair (equal letters contribute 1).  Vectors of different
    letter multisets have disjoint support, so normalization suffices.

    Spans the same subspace as the complement computed by build_quotient
    from the commutation-relation generators; the two constructions are kept
    independent so they can be cross-checked.
    """
    if n < 2:
        raise ValueError("commutation relations need at least two generators")
    if m > 10:
        raise ResourceCapError("symmetrization enumerates k! rearrangements; m > 10 is off-scale")
    table = _lambda_table(n, lam)
    wi = WordIndex(n, m)
    columns = []
    for k in range(m + 1):
        start = wi.grade_start(k)
        for alpha in itertools.combinations_with_replacement(range(1, n + 1), k):
            col = np.zeros(wi.dim, dtype=complex)
            for w in set(itertools.permutations(alpha)):
                eps = 1.0 + 0.0j
                for p in range(k):
                    for q in range(p + 1, k):
                        if w[p] > w[q]:
                            eps *= table[w[p], w[q]]
                col[start + word_value(w, n)] = np.conj(eps)
            columns.append(col / np.linalg.norm(col))
    return np.column_stack(columns)


def dense_complement(rows, rank_tol):
    """Orthonormal columns of the complement of the row space of `rows`.

    One full SVD of all the rows, with a rank cut relative to the largest
    singular value: the dense oracle for the quotient builders' complement.
    """
    dim = rows.shape[1]
    if rows.shape[0] == 0:
        return np.eye(dim, dtype=complex)
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.count_nonzero(s > rank_tol * s[0])) if s.size else 0
    return np.ascontiguousarray(vh[rank:].T)


def padded_dense_rows(spec, wi):
    """Rows spanning the padded ideal inside all of P_m (any generators).

    One row per padded product e_alpha g e_beta: the dense oracle that the
    quotient builders are checked against.
    """
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


def jsonify(value):
    """A copy of value in JSON types: complex as [re, im], arrays as nested
    lists, numpy scalars as Python ones, keys through str, other objects as
    their str.  With json.dumps, the oracle for cli's report writer."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return jsonify(value.item())
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    return str(value)


def format_value(value) -> str:
    """One value of a text report, as cli wrote it with json.dumps: the
    oracle for Report.to_text."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return f"[{value.real!r}, {value.imag!r}]"
    if isinstance(value, (list, tuple, dict, np.ndarray)):
        return json.dumps(jsonify(value))
    return str(value)

import numpy as np
import pytest

from ncfock import (BallPoint, DomainError, FockVector, NcMatrixPolynomial, NcPolynomial,
                    ResourceCapError, WordIndex, basis_size, evaluate, flip,
                    mult_matrix, operator_norm, sup_norm_bounds, tensor_product, z_vector)
from ncfock import freealg
from helpers import random_polynomial, random_row_contraction


def test_basis_size():
    assert basis_size(1, 4) == 5
    assert basis_size(2, 3) == 15
    assert basis_size(3, 2) == 13


@pytest.mark.parametrize("n,m", [(1, 5), (2, 4), (3, 3)])
def test_word_index_bijection(n, m):
    wi = WordIndex(n, m)
    assert wi.index(()) == 0
    seen = set()
    previous = None
    for i in range(wi.dim):
        w = wi.word(i)
        assert wi.index(w) == i
        assert w not in seen
        seen.add(w)
        if previous is not None:
            # graded order, lexicographic inside a grade
            assert (len(previous), previous) < (len(w), w)
        previous = w
    assert len(seen) == wi.dim


def test_word_index_grade_layout():
    wi = WordIndex(2, 3)
    assert wi.grade_start(0) == 0
    assert wi.grade_start(2) == 3
    assert [wi.word(i) for i in range(3, 7)] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_word_index_resource_cap():
    with pytest.raises(ResourceCapError):
        WordIndex(10, 7)


def test_word_letter_range():
    wi = WordIndex(2, 3)
    with pytest.raises(ValueError):
        wi.index((3,))
    with pytest.raises(ValueError):
        NcPolynomial(2, {(0,): 1.0})


def test_tensor_product_identity():
    q = NcPolynomial(2, {(1, 2): 2.0, (): -1.0})
    one = NcPolynomial.unit(2)
    assert tensor_product(one, q).terms == q.terms


def test_tensor_product_basis_concatenation():
    e1 = NcPolynomial.generator(2, 1)
    e2 = NcPolynomial.generator(2, 2)
    prod = tensor_product(e1, e2)
    assert prod.terms == {(1, 2): 1.0 + 0.0j}


def test_tensor_product_difference_of_squares():
    p = NcPolynomial(1, {(): 1.0, (1,): 1.0})
    q = NcPolynomial(1, {(): 1.0, (1,): -1.0})
    prod = tensor_product(p, q)
    assert prod.coefficient(()) == 1.0
    assert prod.coefficient((1,)) == 0.0
    assert prod.coefficient((1, 1)) == -1.0


def test_tensor_product_mismatched_n():
    with pytest.raises(ValueError):
        tensor_product(NcPolynomial.unit(2), NcPolynomial.unit(3))


def test_tensor_product_associative_and_degree_additive():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = random_polynomial(rng, 2, 2, terms=3, integer=True)
        b = random_polynomial(rng, 2, 2, terms=3, integer=True)
        c = random_polynomial(rng, 2, 1, terms=2, integer=True)
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert left.terms == right.terms
        ab = tensor_product(a, b)
        if not a.is_zero and not b.is_zero and not ab.is_zero:
            assert ab.degree == a.degree + b.degree


def test_evaluate_examples():
    p = NcPolynomial(2, {(1,): 1.0, (2, 1): 1.0})
    assert evaluate(p, [0.5, 0.2]) == pytest.approx(0.6)
    assert evaluate(NcPolynomial.unit(2), [0.3, -0.1]) == pytest.approx(1.0)
    commutator = NcPolynomial(2, {(1, 2): 1.0, (2, 1): -1.0})
    assert evaluate(commutator, [0.3, 0.4]) == pytest.approx(0.0)


def test_evaluate_tolerates_sphere_points():
    p = NcPolynomial(2, {(1,): 1.0})
    assert evaluate(p, BallPoint([0.6, 0.8])) == pytest.approx(0.6)


def test_z_vector_vacuum():
    z = z_vector([0.0, 0.0], 3)
    expected = np.zeros(15)
    expected[0] = 1.0
    assert np.array_equal(z.coeffs, expected)


def test_z_vector_geometric():
    r = 0.5
    z = z_vector([r], 2)
    assert np.allclose(z.coeffs, [1.0, r, r ** 2])
    assert z.norm() ** 2 == pytest.approx(1 + r ** 2 + r ** 4)


def test_z_vector_orthogonal_points():
    zi = z_vector([0.5, 0.0], 8)
    zj = z_vector([0.0, 0.5], 8)
    tail = 0.25 ** 9 / 0.75
    assert abs(zi.inner(zj) - 1.0) <= tail


def test_z_vector_domain_error():
    with pytest.raises(DomainError):
        z_vector(BallPoint([0.6, 0.8]), 4)


@pytest.mark.parametrize("coords", [[np.nan], [0.1, np.nan], [complex(0.1, np.nan), 0.0]])
def test_ball_point_rejects_non_finite_coordinates(coords):
    with pytest.raises(DomainError):
        BallPoint(coords)


def test_reproducing_property():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = random_polynomial(rng, 2, 3, terms=6)
        lam = BallPoint([0.31 + 0.2j, -0.25 + 0.1j])
        z = z_vector(lam, 5)
        assert p.to_fock(5).inner(z) == pytest.approx(evaluate(p, lam), abs=1e-13)


def test_mult_matrix_shift():
    m = mult_matrix(NcPolynomial.generator(1, 1), 1)
    expected = np.zeros((3, 2))
    expected[1, 0] = 1.0
    expected[2, 1] = 1.0
    assert np.array_equal(m, expected)


def test_mult_matrix_unit_is_identity_embedding():
    m = mult_matrix(NcPolynomial.unit(2), 2)
    assert np.array_equal(m, np.eye(7))


def test_mult_matrix_single_column():
    p = NcPolynomial(2, {(1,): 1.0, (2,): 1.0})
    m = mult_matrix(p, 0)
    assert m.shape == (3, 1)
    assert np.linalg.norm(m[:, 0]) == pytest.approx(np.sqrt(2))


def test_mult_matrix_functorial():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_polynomial(rng, 2, 2, terms=3, integer=True)
        q = random_polynomial(rng, 2, 2, terms=3, integer=True)
        if p.is_zero or q.is_zero or tensor_product(p, q).is_zero:
            continue
        lhs = mult_matrix(tensor_product(p, q), 2)
        rhs = mult_matrix(p, 2 + int(q.degree)) @ mult_matrix(q, 2)
        assert np.array_equal(lhs, rhs)


def test_creation_operators_are_isometries_with_orthogonal_ranges():
    m1 = mult_matrix(NcPolynomial.generator(2, 1), 3)
    m2 = mult_matrix(NcPolynomial.generator(2, 2), 3)
    eye = np.eye(m1.shape[1])
    assert np.allclose(m1.conj().T @ m1, eye, atol=1e-14)
    assert np.allclose(m2.conj().T @ m2, eye, atol=1e-14)
    assert np.allclose(m1.conj().T @ m2, 0.0, atol=1e-14)


def test_flip_examples():
    v = NcPolynomial(2, {(1, 2): 1.0}).to_fock(3)
    assert flip(v).coefficient((2, 1)) == 1.0
    palindromic = NcPolynomial(2, {(): 1.0, (1,): 1.0}).to_fock(2)
    assert np.array_equal(flip(palindromic).coeffs, palindromic.coeffs)


def test_flip_involution_and_isometry():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=15) + 1j * rng.normal(size=15)
    v = FockVector(2, 3, coeffs)
    assert np.array_equal(flip(flip(v)).coeffs, v.coeffs)
    assert flip(v).norm() == pytest.approx(v.norm())


def _flip_matrix(n, m):
    wi = WordIndex(n, m)
    cols = []
    for i in range(wi.dim):
        e = np.zeros(wi.dim, dtype=complex)
        e[i] = 1.0
        cols.append(flip(FockVector(n, m, e)).coeffs)
    return np.column_stack(cols)


def test_flip_conjugation_swaps_multiplication_side():
    # flip o (left mult by p) o flip equals right multiplication by flip(p)
    rng = np.random.default_rng(9)
    p = random_polynomial(rng, 2, 2, terms=3, integer=True)
    if p.is_zero:
        p = NcPolynomial(2, {(1, 2): 1.0})
    m = 2
    d = int(p.degree)
    conj = _flip_matrix(2, m + d) @ mult_matrix(p, m) @ _flip_matrix(2, m)
    wi_in = WordIndex(2, m)
    wi_out = WordIndex(2, m + d)
    right = np.zeros_like(conj)
    p_flip = {w[::-1]: c for w, c in p.terms.items()}
    for j in range(wi_in.dim):
        beta = wi_in.word(j)
        for w, c in p_flip.items():
            right[wi_out.index(beta + w), j] += c
    assert np.allclose(conj, right, atol=1e-13)


def test_sup_norm_bounds_linear_closed_form():
    p = NcPolynomial(2, {(1,): 1.0, (2,): 2.0})
    lower, upper = sup_norm_bounds(p, 0)
    assert lower == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert upper == pytest.approx(np.sqrt(5.0), abs=1e-14)


def test_sup_norm_bounds_unit():
    assert sup_norm_bounds(NcPolynomial.unit(2), 3) == (1.0, 1.0)


def test_sup_norm_bounds_one_plus_shift():
    p = NcPolynomial(1, {(): 1.0, (1,): 1.0})
    lower8, upper = sup_norm_bounds(p, 8)
    assert upper == pytest.approx(2.0)
    assert lower8 > 1.97
    previous = 0.0
    for m in (1, 2, 4, 8):
        lower, _ = sup_norm_bounds(p, m)
        assert lower >= previous - 1e-12
        previous = lower


def test_sup_norm_bounds_order():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = random_polynomial(rng, 2, 3, terms=5)
        lower, upper = sup_norm_bounds(p, 3)
        assert lower <= upper + 1e-12


def test_matrix_grade_norms_of_scalar_entry_match_polynomial():
    rng = np.random.default_rng(71)
    for _ in range(10):
        p = random_polynomial(rng, 2, 4, terms=8)
        phi = NcMatrixPolynomial(2, [[p]])
        assert phi.grade_norms() == pytest.approx(p.grade_norms(), abs=1e-14)
    assert NcMatrixPolynomial(2, [[NcPolynomial.zero(2)]]).grade_norms() == []


def test_matrix_grade_norms_use_the_column_operator():
    # L_1 (x) E_11 + L_2 (x) E_22 is an isometry: ||C_1*C_1 + C_2*C_2|| = ||I|| = 1,
    # where summing entrywise l2 norms would give 2
    one, zero = NcPolynomial(2, {(1,): 1.0}), NcPolynomial.zero(2)
    phi = NcMatrixPolynomial(2, [[one, zero], [zero, NcPolynomial(2, {(2,): 1.0})]])
    assert phi.grade_norms() == pytest.approx([0.0, 1.0], abs=1e-15)


def test_line_multiplier_norm_matches_circle_sup():
    # for one generator the multiplier norm is the sup of |p| on the unit
    # circle: an oracle independent of the multiplication-matrix route.  The
    # grid of 2^20 angles is within about 2e-10 of the sup (|p|'' <= 50 here),
    # which the n = 1 bracket reaches
    rng = np.random.default_rng(57)
    theta = np.linspace(0.0, 2 * np.pi, 1 << 20, endpoint=False)
    for _ in range(6):
        p = random_polynomial(rng, 1, 3, terms=4)
        if p.is_zero:
            continue
        values = np.zeros_like(theta, dtype=complex)
        for word, coeff in p.terms.items():
            values += coeff * np.exp(1j * len(word) * theta)
        circle_sup = float(np.abs(values).max())
        lower, upper = sup_norm_bounds(p, 6)
        assert lower <= circle_sup + 1e-9
        assert circle_sup <= upper + 1e-9
        slower, supper = sup_norm_bounds(p, 8)
        assert slower <= circle_sup + 1e-9
        assert supper - slower <= 1e-8 * max(1.0, supper)


def _norm_test_polynomial(rng, n, degree, dense):
    """A non-homogeneous polynomial: every word of length <= degree (dense) or
    a few random words plus a constant (sparse)."""
    if dense:
        wi = WordIndex(n, degree)
        c = rng.normal(size=wi.dim) + 1j * rng.normal(size=wi.dim)
        return NcPolynomial(n, {wi.word(i): c[i] for i in range(wi.dim)})
    p = random_polynomial(rng, n, degree, terms=4)
    return p + NcPolynomial.unit(n, 0.5) if p.is_homogeneous else p


def _fine_circle_sup(p):
    # |p| on 2^20 angles: below the sup by at most (kappa / 2) (pi / 2^20)^2,
    # kappa the curvature of |p| at its maximum; under 1e-9 for the degree <= 4
    # polynomials drawn here
    c = p.to_fock(int(p.degree)).coeffs
    return float(np.abs(np.fft.fft(c, 1 << 20)).max())


def test_norm_bracket_orders_and_bounds_the_von_neumann_side():
    rng = np.random.default_rng(401)
    for trial in range(63):
        n, degree = 1 + trial % 3, 1 + (trial // 3) % 3
        p = _norm_test_polynomial(rng, n, degree, dense=trial % 2 == 0)
        m = {1: 20, 2: 6, 3: 4}[n]
        lower, upper = sup_norm_bounds(p, m)
        assert lower <= upper
        assert upper <= sum(p.grade_norms()) * (1 + 1e-15)
        assert upper - lower <= 1e-8 * max(1.0, upper)
        assert lower >= np.linalg.norm(mult_matrix(p, m), 2) * (1 - 1e-12)
        for _ in range(3):
            t = random_row_contraction(rng, n, int(rng.integers(1, 5)),
                                       rho=float(rng.uniform(0.5, 1.0)))
            assert operator_norm(t.evaluate_polynomial(p)) <= upper + 1e-12 * max(1.0, upper)


def test_line_bracket_contains_the_circle_sup_and_is_tight():
    rng = np.random.default_rng(402)
    for trial in range(8):
        p = _norm_test_polynomial(rng, 1, 1 + trial % 4, dense=trial % 2 == 0)
        circle_sup = _fine_circle_sup(p)
        lower, upper = sup_norm_bounds(p, 4)
        assert lower <= circle_sup + 1e-9
        assert circle_sup <= upper
        assert upper - lower <= 1e-8 * max(1.0, upper)


def test_lower_bound_is_the_truncated_multiplier_norm():
    # the dual bound of the Gram solve (n >= 2) and the circle sup (n = 1)
    # are within rounding of ||L_p||, so at least the norm of L_p on any P_m
    rng = np.random.default_rng(403)
    for trial in range(18):
        n, degree = 1 + trial % 3, 1 + (trial // 3) % 3
        p = _norm_test_polynomial(rng, n, degree, dense=trial % 2 == 0)
        m = {1: 9, 2: 5, 3: 3}[n]
        oracle = np.linalg.norm(mult_matrix(p, m), 2)
        lower, _ = sup_norm_bounds(p, m)
        assert lower >= oracle * (1 - 1e-12)


def test_truncated_fallback_is_the_multiplier_norm_on_p_m(monkeypatch):
    # above the pair cap the n >= 2 lower bound is Lanczos on P_m, at
    # D(n, m) <= 256 (once diagonalized densely) and above (D(2, 8) = 511)
    monkeypatch.setattr(freealg, "FEJER_RIESZ_MAX_PAIRS", 0)
    rng = np.random.default_rng(406)
    for n, m in [(2, 0), (2, 1), (2, 5), (3, 3), (2, 8)]:
        for dense in (True, False):
            p = _norm_test_polynomial(rng, n, 3, dense)
            bounds = sup_norm_bounds(p, m)
            assert bounds.lower_method == "truncated"
            oracle = np.linalg.norm(mult_matrix(p, m), 2)
            assert abs(bounds[0] - oracle) <= 1e-10 * oracle


def _gram_solve(p):
    """(Q, y) of the Fejer-Riesz solve, Q scaled back to the symbol of p."""
    r = freealg._symbol(p)
    scale = r[0][0].real
    q, y = freealg._fejer_riesz_gram([rg / scale for rg in r], p.n, int(p.degree))
    return scale * q, y


def test_fejer_riesz_bound_holds_for_a_poor_indefinite_gram_matrix():
    rng = np.random.default_rng(404)
    for trial in range(9):
        n, degree = 1 + trial % 3, 2 + trial % 2
        p = _norm_test_polynomial(rng, n, degree, dense=True)
        q, y = _gram_solve(p)
        scale = freealg._symbol(p)[0][0].real
        # halve the optimal Gram matrix and push it below zero: the trace term
        # alone then falls short of ||L_p||^2, the residual term must make it up
        poor = 0.5 * q - 1e-3 * scale * np.eye(q.shape[0])
        true_below = (_fine_circle_sup(p) if n == 1
                      else sup_norm_bounds(p, {2: 9, 3: 6}[n])[0])
        trace_only = np.sqrt(scale + np.clip(np.linalg.eigvalsh(poor), 0, None).sum())
        assert trace_only < true_below
        assert freealg._fejer_riesz_bounds(p, poor, y)[1] >= true_below


def test_fejer_riesz_dual_bound_holds_for_a_poor_dual_point():
    rng = np.random.default_rng(407)
    for trial in range(12):
        n = 1 + trial % 3
        p = _norm_test_polynomial(rng, n, 1 + trial % 3, dense=trial % 2 == 0)
        q, y = _gram_solve(p)
        _, upper = freealg._fejer_riesz_bounds(p, q, y)
        r = freealg._symbol(p)
        src, dst, con, _ = freealg._prefix_pairs(n, int(p.degree))
        for poor in (1.5 * y, 3 * y):
            # scaled past the optimum, the dual value alone overshoots
            # ||L_p||^2 and I - M(y) is indefinite: the penalty must undo it
            value = r[0][0].real - 2 * np.vdot(poor, np.concatenate(r[1:])).real
            s = np.eye(q.shape[0]) - freealg._dual_matrix(poor, src, dst, con, q.shape[0])
            assert value > upper ** 2
            assert np.linalg.eigvalsh(s)[0] < 0
            assert freealg._fejer_riesz_bounds(p, q, poor)[0] <= upper


def test_norm_bounds_name_the_upper_method(monkeypatch):
    rng = np.random.default_rng(405)
    p = _norm_test_polynomial(rng, 2, 2, dense=True)
    bounds = sup_norm_bounds(p, 3)
    assert (bounds.lower_method, bounds.upper_method) == ("fejer_riesz_dual", "fejer_riesz")
    line = _norm_test_polynomial(rng, 1, 2, dense=True)
    assert sup_norm_bounds(line, 3).lower_method == "circle"
    homogeneous = random_polynomial(rng, 2, 2, terms=4, homogeneous=True)
    bounds = sup_norm_bounds(homogeneous, 3)
    assert (bounds.lower_method, bounds.upper_method) == ("grade_norms", "grade_norms")
    monkeypatch.setattr(freealg, "FEJER_RIESZ_MAX_PAIRS", 0)
    lower, upper = bounds = sup_norm_bounds(p, 3)
    assert (bounds.lower_method, bounds.upper_method) == ("truncated", "grade_norms")
    assert upper == pytest.approx(sum(p.grade_norms()), rel=1e-15)
    assert sup_norm_bounds(line, 3).lower_method == "circle"


def test_zero_polynomial():
    zero = NcPolynomial.zero(2)
    assert zero.degree == float("-inf")
    assert sup_norm_bounds(zero, 3) == (0.0, 0.0)
    with pytest.raises(ValueError):
        mult_matrix(zero, 2)


def test_coefficient_chop():
    p = NcPolynomial(2, {(1,): 1e-16, (2,): 1.0})
    assert (1,) not in p.terms
    q = tensor_product(NcPolynomial(2, {(1,): 1e-8}), NcPolynomial(2, {(2,): 1e-8}))
    assert q.is_zero

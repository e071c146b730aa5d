import decimal
import fractions
import math
import time

import numpy as np
import pytest

from ncfock import (BallPoint, DomainError, NcMatrixPolynomial, NcPolynomial,
                    ResourceCapError, WordIndex, basis_size, evaluate, operator_norm,
                    sup_norm_bounds, tensor_product)
from ncfock import (IdealSpec, RowContraction, build_quotient, freealg,
                    q_commutation_spec)
from helpers import (coefficient_vector, graded_polynomial, gns_row_isometry, mult_matrix,
                     naive_evaluate, naive_suffix_closure, naive_word_set_pairs, random_point,
                     random_polynomial, random_row_contraction, z_vector)


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


CALCULUS_SHAPES = ["point", "points", "tuple", "compressions"]
CALCULUS_SPECS = [q_commutation_spec(2, 1.0, 4), q_commutation_spec(2, -1.0, 5),
                  q_commutation_spec(3, 0.5j, 3),
                  IdealSpec(3, (NcPolynomial(3, {(1, 2, 3): 1.0}),), 4),
                  IdealSpec(2, (NcPolynomial(2, {(1, 2): 1.0, (2, 1): -1.0, (1,): 0.3}),), 5)]


def _calculus_cases(shape, seed, count=50):
    """count (p, q, X, stack) cases of one shape: X as evaluate takes it, and
    stack the same operators as an (n, ..., d, d) array for the oracle."""
    rng = np.random.default_rng(seed)
    models = [build_quotient(spec) for spec in CALCULUS_SPECS] if shape == "compressions" else []
    for t in range(count):
        if shape == "compressions":
            model = models[t % len(models)]
            n, X = model.spec.n, model.compressions
            stack = X
        else:
            n = int(rng.integers(1, 4))
            if shape == "point":
                X = random_point(rng, n, radius=0.9)
                stack = X.coords[:, None, None]
            elif shape == "points":
                pts = [random_point(rng, n, radius=0.9) for _ in range(int(rng.integers(1, 8)))]
                X = stack = np.array([p.coords for p in pts]).T[:, :, None, None]
            else:
                X = random_row_contraction(rng, n, int(rng.integers(1, 5))).matrices
                stack = X
        p, q = (random_polynomial(rng, n, int(rng.integers(0, 4)), terms=int(rng.integers(1, 7)))
                for _ in range(2))
        yield p, q, X, stack


def _l1(p):
    return sum(abs(c) for c in p.terms.values())


@pytest.mark.parametrize("shape", CALCULUS_SHAPES)
def test_functional_calculus_matches_the_term_by_term_oracle(shape):
    for p, q, X, stack in _calculus_cases(shape, seed=11):
        value = np.asarray(evaluate(p, X))
        expected = naive_evaluate(p, stack)
        if shape == "point":
            assert isinstance(evaluate(p, X), complex)
            expected = expected[0, 0]
        assert value.shape == expected.shape
        assert np.abs(value - expected).max() <= 1e-13 * max(1.0, _l1(p))


@pytest.mark.parametrize("shape", CALCULUS_SHAPES)
def test_functional_calculus_is_linear_and_multiplicative(shape):
    rng = np.random.default_rng(12)
    for p, q, X, stack in _calculus_cases(shape, seed=13):
        a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        fp, fq = np.asarray(evaluate(p, X)), np.asarray(evaluate(q, X))
        scale = max(1.0, _l1(p)) * max(1.0, _l1(q)) * (1 + abs(a) + abs(b))
        combined = evaluate(p.scale(a) + q.scale(b), X)
        assert np.abs(combined - (a * fp + b * fq)).max() <= 1e-13 * scale
        product = evaluate(tensor_product(p, q), X)
        assert np.abs(product - (fp * fq if shape == "point" else fp @ fq)).max() <= 1e-13 * scale


@pytest.mark.parametrize("shape", ["point", "points"])
def test_functional_calculus_at_a_diagonal_tuple_is_diagonal(shape):
    # the diagonal tuple of k points has the k point values on its diagonal
    for p, q, X, stack in _calculus_cases(shape, seed=14):
        points = [BallPoint(c) for c in stack.reshape(len(stack), -1).T]
        value = evaluate(p, RowContraction.diagonal(points).matrices)
        expected = np.diag([evaluate(p, pt) for pt in points])
        assert np.abs(value - expected).max() <= 1e-13 * max(1.0, _l1(p))


def test_matrix_polynomial_value_is_the_kronecker_sum():
    # sum_alpha C_alpha (x) X_alpha: block (a, b) is the value of entry p_ab,
    # at a point, at batched points and on a tuple of matrices
    rng = np.random.default_rng(15)
    for shape in ("point", "points", "tuple"):
        for p, q, X, stack in _calculus_cases(shape, seed=16, count=10):
            n = p.n
            entries = [[random_polynomial(rng, n, 2, terms=3) for _ in range(3)]
                       for _ in range(2)]
            value = evaluate(NcMatrixPolynomial(n, entries), X)
            d = stack.shape[-1]
            assert value.shape == stack.shape[1:-2] + (2 * d, 3 * d)
            for a in range(2):
                for b in range(3):
                    block = value[..., a * d:(a + 1) * d, b * d:(b + 1) * d]
                    assert np.abs(block - naive_evaluate(entries[a][b], stack)).max() <= 1e-12


def test_evaluate_checks_the_operator_count_and_shape():
    p = NcPolynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        evaluate(p, [0.5])
    with pytest.raises(ValueError):
        evaluate(p, np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        evaluate(p, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        evaluate(p, np.zeros((2, 2, 3)))
    with pytest.raises(DomainError):
        evaluate(p, [0.9, 0.9])


def test_z_vector_vacuum():
    z = z_vector([0.0, 0.0], 3)
    expected = np.zeros(15)
    expected[0] = 1.0
    assert np.array_equal(z, expected)


def test_z_vector_geometric():
    r = 0.5
    z = z_vector([r], 2)
    assert np.allclose(z, [1.0, r, r ** 2])
    assert np.linalg.norm(z) ** 2 == pytest.approx(1 + r ** 2 + r ** 4)


def test_z_vector_orthogonal_points():
    zi = z_vector([0.5, 0.0], 8)
    zj = z_vector([0.0, 0.5], 8)
    tail = 0.25 ** 9 / 0.75
    assert abs(np.vdot(zj, zi) - 1.0) <= tail


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
        assert np.vdot(z, coefficient_vector(p, 5)) == pytest.approx(evaluate(p, lam), abs=1e-13)


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
    c = coefficient_vector(p, int(p.degree))
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
            assert operator_norm(evaluate(p, t.matrices)) <= upper + 1e-12 * max(1.0, upper)


def test_line_bracket_contains_the_circle_sup_and_is_tight():
    rng = np.random.default_rng(402)
    for trial in range(8):
        p = _norm_test_polynomial(rng, 1, 1 + trial % 4, dense=trial % 2 == 0)
        circle_sup = _fine_circle_sup(p)
        lower, upper = sup_norm_bounds(p, 4)
        assert lower <= circle_sup + 1e-9
        assert circle_sup <= upper
        assert upper - lower <= 1e-8 * max(1.0, upper)


def test_line_lower_bound_stays_below_a_sup_known_exactly():
    # p = c_0 + sum_(k <= d) z^k / (k + 1) has positive coefficients, so its
    # sup on the circle is p(1), their sum: neither side of the circle
    # bracket may round across it, on all 132 of them, nor the reported
    # bracket (13 of them once rounded the lower side above it)
    for c0 in (1.0, 0.3, 1e3):
        for d in range(1, 45):
            terms = {(): c0, **{(1,) * k: 1.0 / (k + 1) for k in range(1, d + 1)}}
            p, sup = NcPolynomial(1, terms), math.fsum(terms.values())
            lower, upper = freealg._circle_bounds(p)
            assert sup * (1 - 1e-13) <= lower <= sup <= upper <= sup * (1 + 1e-10)
            lower, upper = sup_norm_bounds(p, 0)
            assert lower <= sup <= upper


def test_grade_norm_upper_bound_is_not_below_the_norm(monkeypatch):
    # all terms of c_0 + sum_(k <= d) e_1^k / (k + 1) peak together, so the
    # grade-norm sum is the norm, the fsum of the coefficients; a plain float
    # sum rounded below it on 27 of the 132.  At n = 2 the words e_1^k nest,
    # and with the solve skipped upper is the grade-norm bound
    monkeypatch.setattr(freealg, "FEJER_RIESZ_MAX_WORK", 0)
    for c0 in (1.0, 0.3, 1e3):
        for d in range(1, 45):
            terms = {(): c0, **{(1,) * k: 1.0 / (k + 1) for k in range(1, d + 1)}}
            sup = math.fsum(terms.values())
            assert freealg._grade_norm_bound(NcPolynomial(1, terms)) >= sup
            bounds = sup_norm_bounds(NcPolynomial(2, terms), 0)
            assert bounds.upper_method == ("prefix_free" if d == 1 else "grade_norms")
            assert bounds[0] <= sup <= bounds[1]


def _direct_circle_max(p, points):
    """max |p| over `points` equally spaced angles, by Horner's rule at each."""
    c = coefficient_vector(p, int(p.degree))
    z = np.exp(2j * np.pi * np.arange(points) / points)
    return float(np.abs(np.polyval(c[::-1], z)).max())


def test_line_bracket_is_certified_and_tight_on_random_polynomials():
    # 300 p of degree 1-60 and 10 of degree 100-400, Gaussian coefficients
    # with c_() scaled by 1e-3-1e3: the bracket holds the maximum of |p| on a
    # grid of 64 (d + 1) angles, closes to 1e-10, and for d <= 12 meets the
    # bracket of the Gram solve on the same p (all 210 with d <= 44 of one
    # such draw met it; the larger solves take tenths of a second)
    rng = np.random.default_rng(460)
    degrees = [int(d) for d in rng.integers(1, 61, size=300)]
    degrees += [int(d) for d in rng.integers(100, 401, size=10)]
    for d in degrees:
        c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        c[0] *= 10 ** rng.uniform(-3, 3)
        p = NcPolynomial(1, {(1,) * k: c[k] for k in range(d + 1)})
        lower, upper = freealg._circle_bounds(p)
        assert lower <= upper
        assert _direct_circle_max(p, 64 * (d + 1)) <= upper
        assert upper - lower <= 1e-10 * max(1.0, upper)
        bounds = sup_norm_bounds(p, 0)
        assert bounds.lower_method == ("prefix_free" if d == 1 else "circle")
        assert bounds.gram_size is None and bounds[0] <= bounds[1]
        if d > 1:
            assert bounds[0] == lower and bounds[1] <= upper
        if d <= 12:
            gram = _gram_bracket(p)
            assert max(lower, gram[0]) <= min(upper, gram[1])


# max |p| on the circle to 25 digits (mpmath, 40 digits: golden-section
# searches from the best points of a fine grid), for a pair of peaks 2^-24
# apart in p, a flat top (t'' = 0 at the maximum 4.5, which 1 + 4z - z^2 / 2
# attains at z = 1, here in z^3 and turned by i^k) and a degree-400 p
CIRCLE_REFERENCES = [
    ({**{2 * j: a for j, a in enumerate([3, -1, 2, 1, -2, 1])}, 1: 2.0 ** -24},
     7.625250632657809047357442),
    ({0: 1.0, 3: -4j, 6: 0.5}, 4.5),
    ({k: complex((37 * k) % 23 - 11, (53 * k) % 19 - 9) for k in range(401)},
     1482.757524227333713373842),
]


@pytest.mark.parametrize("coeffs, sup", CIRCLE_REFERENCES, ids=["double", "flat", "d400"])
def test_line_bracket_holds_a_maximum_known_to_25_digits(coeffs, sup):
    p = NcPolynomial(1, {(1,) * k: c for k, c in coeffs.items()})
    lower, upper = bounds = sup_norm_bounds(p, 0)
    assert (bounds.lower_method, bounds.upper_method) == ("circle", "circle")
    assert lower <= sup <= upper
    assert upper - lower <= 1e-10 * upper


def test_cell_bound_holds_over_cells_wider_than_the_grid():
    # on the grid's narrow cells the third-order remainder m3 w^3 / 6 is
    # small; on cells of half-width 0.05-0.5 it decides the bound, which must
    # still lie above |p|^2 sampled across the cell.  m3 is max |t'''| itself,
    # from the coefficients a_j of t = |p|^2 on a grid of N angles, over
    # cos(d pi / N) (Bernstein-Szego), so a remainder taken any smaller shows
    rng = np.random.default_rng(463)
    for d in (2, 5, 12):
        k, j = np.arange(d + 1), np.arange(-d, d + 1)
        angles = 2 * np.pi * np.arange(1024 * d) / (1024 * d)
        for w in (0.05, 0.2, 0.5):
            c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            g = np.array([c, 1j * k * c, -(k * k) * c])
            theta = rng.uniform(0.0, 2 * np.pi, size=16)
            t, s = freealg._square_taylor(freealg._circle_values(g, theta), np.zeros(3))
            a = np.correlate(c, c, "full")      # a_j, j = -d..d
            third = ((1j * j) ** 3 * a) @ np.exp(1j * np.outer(j, angles))
            m3 = np.abs(third).max() / np.cos(np.pi / 1024) * (1 + 1e-12)
            bounds = freealg._cell_bounds(t, s, w, m3)
            across = theta[:, None] + np.linspace(-w, w, 401)
            sampled = np.abs(freealg._circle_values(g[:1], across.ravel())[0]) ** 2
            assert (sampled.reshape(across.shape).max(axis=1) <= bounds).all()


def test_line_bracket_costs_no_gram_solve():
    # d = 44 was the largest n = 1 degree under the solve's work cap, where
    # the solve took 0.26-0.45 s a call
    rng = np.random.default_rng(461)
    c = rng.normal(size=45) + 1j * rng.normal(size=45)
    p = NcPolynomial(1, {(1,) * k: c[k] for k in range(45)})
    warm = []
    for _ in range(4):
        start = time.process_time()
        sup_norm_bounds(p, 0)
        warm.append(time.process_time() - start)
    assert min(warm[1:]) < 0.02


def test_line_degree_above_the_circle_cap_fails_fast(monkeypatch):
    # the grid holds 16 d angles: above the cap an n = 1 p fails with the
    # resource cap, where its symbol over all D(1, d) words would take long
    monkeypatch.setattr(freealg, "CIRCLE_MAX_DEGREE", 8)
    with pytest.raises(ResourceCapError, match="cap 8"):
        sup_norm_bounds(NcPolynomial(1, {(): 1.0, (1,): 0.5, (1,) * 9: 0.25}), 2)
    bounds = sup_norm_bounds(NcPolynomial(1, {(): 1.0, (1,): 0.5, (1,) * 8: 0.25}), 2)
    assert bounds.lower_method == "circle"


def _prefix_free_polynomial(rng, n, degree, kind):
    """Random coefficients on random words of length 1..degree, none a prefix
    of another: all of one length (homogeneous), all letters (degree 1) or
    mixed, with or without a constant."""
    lengths = {"homogeneous": [degree], "degree_one": [1]}.get(kind, range(1, degree + 1))
    words = []
    for _ in range(int(rng.integers(1, 7))):
        word = tuple(int(i) for i in rng.integers(1, n + 1, size=int(rng.choice(lengths))))
        if all(word[:len(w)] != w and w[:len(word)] != word for w in words):
            words.append(word)
    terms = {w: complex(rng.normal(), rng.normal()) for w in words}
    if rng.random() < 0.5:
        terms[()] = complex(rng.normal(), rng.normal())
    return NcPolynomial(n, terms)


def _closed_form_to_40_digits(p):
    """|c_()| + ||c||_2 in 40-digit decimals from the exact squares of the
    coefficients (Fraction), c those of the nonempty words."""
    def root(square):
        return (decimal.Decimal(square.numerator) / decimal.Decimal(square.denominator)).sqrt()

    def square(c):
        return fractions.Fraction(c.real) ** 2 + fractions.Fraction(c.imag) ** 2

    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return (root(square(p.coefficient(())))
                + root(sum((square(c) for w, c in p.terms.items() if w), fractions.Fraction(0))))


def test_prefix_free_norm_is_the_closed_form_inside_the_gram_bracket():
    # 160 p over n = 2-4 letters of degree <= 5 whose nonempty words are
    # prefix-free: the bracket holds |c_()| + ||c||_2 (to 40 digits), as
    # does the grade-norm bound, closes to 1e-13, and lies inside the
    # bracket of the Gram solve on the same p.
    # Given a prefix of one of its words, every fifth of them solves instead
    rng = np.random.default_rng(462)
    kinds = ["mixed", "homogeneous", "degree_one", "mixed"]
    for trial in range(160):
        n, degree = 2 + trial % 3, 1 + trial % 5
        p = _prefix_free_polynomial(rng, n, degree, kinds[trial % 4])
        bounds = sup_norm_bounds(p, 2)
        assert (bounds.lower_method, bounds.upper_method, bounds.gram_size) == (
            "prefix_free", "prefix_free", None)
        exact = _closed_form_to_40_digits(p)
        assert decimal.Decimal(bounds[0]) <= exact <= decimal.Decimal(bounds[1])
        # the grade-norm bound is the norm itself for a homogeneous p
        assert exact <= decimal.Decimal(freealg._grade_norm_bound(p))
        assert bounds[1] - bounds[0] <= 1e-13 * bounds[1]
        if p.degree >= 1:
            gram = _gram_bracket(p)
            assert gram[0] * (1 - 1e-12) <= bounds[0] <= bounds[1] <= gram[1] * (1 + 1e-12)
        if trial % 5 == 0 and p.degree >= 2:
            word = max(p.terms, key=len)
            solved = sup_norm_bounds(p + NcPolynomial(n, {word[:1]: 0.5}), 2)
            assert solved.lower_method == "fejer_riesz_dual"
    # no coefficient is squared: near 1e200 the bracket stays finite and
    # holds the closed form, where a sum of squares overflows
    big = NcPolynomial(2, {(): 3e200, (1,): 4e200, (2, 1): 1e200j, (2, 2): -2e200})
    lower, upper = sup_norm_bounds(big, 2)
    assert decimal.Decimal(lower) <= _closed_form_to_40_digits(big) <= decimal.Decimal(upper)


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


@pytest.mark.parametrize("n, degrees", [(1, (25, 50, 100)), (2, (2, 5, 8)), (3, (1, 3, 5))])
def test_degree_one_norm_is_the_grade_norm_sum_without_a_solve(n, degrees):
    # sum c_i L_i is ||c||_2 times a pure isometry, whose spectrum is the
    # closed disc, so ||c_() + sum c_i L_i|| = |c_()| + ||c||_2; the norms on
    # P_m rise to it from below
    rng = np.random.default_rng(430 + n)
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    p = NcPolynomial(n, {(): c[0], **{(i + 1,): c[i + 1] for i in range(n)}})
    exact = abs(c[0]) + np.linalg.norm(c[1:])
    bounds = sup_norm_bounds(p, degrees[-1])
    assert bounds == pytest.approx((exact, exact), rel=1e-15)
    assert (bounds.lower_method, bounds.upper_method, bounds.gram_size) == (
        "prefix_free", "prefix_free", None)
    norms = [np.linalg.norm(mult_matrix(p, m), 2) for m in degrees]
    assert norms == sorted(norms)
    assert exact * (1 - 1 / degrees[-1]) <= norms[-1] <= exact * (1 + 1e-12)


def test_truncated_fallback_is_the_multiplier_norm_on_p_m(monkeypatch):
    # above the work cap the n >= 2 lower bound is the thick-restart Lanczos
    # on P_m, at D(n, m) below its 20 vectors (D(2, 1) = 3, D(3, 2) = 13), at
    # D(2, 5) = 63 and D(3, 3) = 40, and at D(2, 8) = 511
    # (a sparse draw whose nonempty words are prefix-free gets its closed
    # form from sup_norm_bounds; the fallback is run on it directly)
    monkeypatch.setattr(freealg, "FEJER_RIESZ_MAX_WORK", 0)
    rng = np.random.default_rng(406)
    for n, m in [(2, 0), (2, 1), (2, 5), (3, 3), (2, 8), (3, 2)]:
        for dense in (True, False):
            p = _norm_test_polynomial(rng, n, 3, dense)
            bounds = sup_norm_bounds(p, m)
            prefix_free = freealg._is_prefix_free(p)
            assert bounds.lower_method == ("prefix_free" if prefix_free else "truncated")
            lower = freealg._truncated_norm(p, m) if prefix_free else bounds[0]
            oracle = np.linalg.norm(mult_matrix(p, m), 2)
            assert abs(lower - oracle) <= 1e-10 * oracle
            assert lower <= oracle * (1 + 4 * np.finfo(float).eps)


def test_truncated_fallback_cut_short_is_still_a_lower_bound(monkeypatch):
    # one cycle of 3 vectors converges nowhere near the top of the spectrum,
    # and the quotient of its explicit Ritz vector is still below the norm
    monkeypatch.setattr(freealg, "FEJER_RIESZ_MAX_WORK", 0)
    monkeypatch.setattr(freealg, "LANCZOS_VECTORS", 3)
    monkeypatch.setattr(freealg, "LANCZOS_MAX_RESTARTS", 1)
    rng = np.random.default_rng(407)
    for n, m in [(2, 5), (3, 3)]:
        p = _norm_test_polynomial(rng, n, 3, dense=True)
        lower = sup_norm_bounds(p, m)[0]
        oracle = np.linalg.norm(mult_matrix(p, m), 2)
        assert 0.5 * oracle < lower < oracle * (1 - 1e-6)


def _all_words(p):
    return np.arange(basis_size(p.n, int(p.degree)))


def _gram_solve(p, words=None):
    """(Q, y, layout) of the Fejer-Riesz solve on a word set, by default the
    suffix closure of supp p, Q scaled back to the symbol of p."""
    words = freealg._suffix_closure(p) if words is None else words
    layout = freealg._word_set_layout(p.n, int(p.degree), words)
    r = freealg._symbol(p, layout[4])
    q, y = freealg._fejer_riesz_gram(r[1:] / r[0].real, words.size, layout)
    return r[0].real * q, y, layout


def _gram_bracket(p, words=None):
    """The certified (lower, upper) of the solve on a word set (_gram_solve),
    on one BLAS thread as in sup_norm_bounds."""
    with freealg._BLAS_SCOPE:
        q, y, layout = _gram_solve(p, words)
        return freealg._fejer_riesz_bounds(p, q, y, freealg._symbol(p, layout[4]), layout)


def test_fejer_riesz_bound_holds_for_a_poor_indefinite_gram_matrix():
    rng = np.random.default_rng(404)
    for trial in range(9):
        n, degree = 1 + trial % 3, 2 + trial % 2
        p = _norm_test_polynomial(rng, n, degree, dense=True)
        q, y, layout = _gram_solve(p)
        r = freealg._symbol(p, layout[4])
        scale = r[0].real
        # halve the optimal Gram matrix and push it below zero: the trace term
        # alone then falls short of ||L_p||^2, the residual term must make it up
        poor = 0.5 * q - 1e-3 * scale * np.eye(q.shape[0])
        true_below = (_fine_circle_sup(p) if n == 1
                      else sup_norm_bounds(p, {2: 9, 3: 6}[n])[0])
        trace_only = np.sqrt(scale + np.clip(np.linalg.eigvalsh(poor), 0, None).sum())
        assert trace_only < true_below
        assert freealg._fejer_riesz_bounds(p, poor, y, r, layout)[1] >= true_below


def test_fejer_riesz_dual_bound_holds_for_a_poor_dual_point():
    rng = np.random.default_rng(407)
    for trial in range(12):
        n = 1 + trial % 3
        p = _norm_test_polynomial(rng, n, 1 + trial % 3, dense=trial % 2 == 0)
        q, y, layout = _gram_solve(p)
        r = freealg._symbol(p, layout[4])
        _, upper = freealg._fejer_riesz_bounds(p, q, y, r, layout)
        src, dst, con, _, _ = layout
        for poor in (1.5 * y, 3 * y):
            # scaled past the optimum, the dual value alone overshoots
            # ||L_p||^2 and I - M(y) is indefinite: the rescaling must undo it
            value = r[0].real - 2 * np.vdot(poor, r[1:]).real
            s = np.eye(q.shape[0]) - freealg._dual_matrix(poor, src, dst, con, q.shape[0])
            assert value > upper ** 2
            assert np.linalg.eigvalsh(s)[0] < 0
            assert freealg._fejer_riesz_bounds(p, q, poor, r, layout)[0] <= upper


def test_mid_size_gram_solves_close_the_bracket():
    # 258 and 426 prefix pairs: on one BLAS thread these take tenths of a second
    rng = np.random.default_rng(408)
    for n, degree in [(2, 5), (3, 4)]:
        p = _norm_test_polynomial(rng, n, degree, dense=True)
        lower, upper = bounds = sup_norm_bounds(p, 2)
        assert bounds.lower_method == "fejer_riesz_dual"
        assert upper - lower <= 1e-8 * max(1.0, upper)
        assert lower >= np.linalg.norm(mult_matrix(p, 2), 2) * (1 - 1e-12)


@pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (3, 2), (2, 5), (4, 4), (6, 3)])
def test_word_set_layout_matches_the_word_by_word_oracle(n, d):
    # on all words and on suffix closures: the same pairs, grouped by gamma
    # in grade order, and inside a group ordered by alpha, the order the
    # solve on all words has always summed them in
    rng = np.random.default_rng(413)
    wi = WordIndex(n, d)
    cases = [np.arange(wi.dim)]
    for _ in range(4):
        p = _sparse_test_polynomial(rng, n, d)
        closure = freealg._suffix_closure(p)
        assert [wi.word(i) for i in closure] == naive_suffix_closure(p)
        if p.degree == d:
            cases.append(closure)
    for words in cases:
        src, dst, con, starts, gaps = freealg._word_set_layout(n, d, words)
        got = [(wi.word(gaps[c] + 1), a, b) for a, b, c in zip(src, dst, con)]
        assert got == naive_word_set_pairs([wi.word(i) for i in words])
        assert np.array_equal(starts, np.flatnonzero(np.diff(con, prepend=-1)))
        assert np.all(np.diff(gaps) > 0)


@pytest.mark.parametrize("n,d", [(1, 3), (2, 3), (3, 2), (4, 3)])
def test_symbol_from_the_terms_matches_the_word_by_word_oracle(n, d):
    # r_gamma = sum_alpha conj(c_alpha) c_(alpha gamma) at every nonempty word
    # of length <= d, and r_() = ||p||_2^2, on dense and sparse p
    rng = np.random.default_rng(414)
    wi = WordIndex(n, d)
    gaps = np.arange(wi.dim - 1)
    for dense in (True, False, False):
        p = _norm_test_polynomial(rng, n, d, dense)
        if p.degree < d:
            continue
        r = freealg._symbol(p, gaps)
        want = [sum(abs(c) ** 2 for c in p.terms.values())]
        for gamma in map(wi.word, gaps + 1):
            want.append(sum(np.conj(c) * p.coefficient(alpha + gamma)
                            for alpha, c in p.terms.items()))
        np.testing.assert_allclose(r, want, rtol=0, atol=1e-13 * want[0])


def test_lower_inverse_matches_the_general_inverse():
    # the inverse by halves of a Cholesky factor, at every side 1-70: below,
    # at and above the blocks that np.linalg.inv inverts
    rng = np.random.default_rng(415)
    for size in range(1, 71):
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        chol = np.linalg.cholesky(a @ a.conj().T / size + np.eye(size))
        want = np.linalg.inv(chol)
        got = freealg._lower_inverse(chol)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_sparse_p_beyond_the_basis_cap_solves_on_its_closure():
    # one word per grade (and a prefix of the longest, so that a solve
    # runs): D(2, 19) = 1,048,575 and D(30, 5) = 25,137,931 words pass
    # MAX_BASIS_SIZE, but the closures hold a few dozen to a few hundred
    # words, and nothing is formed over all words; at n = 30, d = 4 a warm
    # call costs the closure alone (the dense symbol took 19-36 ms)
    rng = np.random.default_rng(416)
    for n, d in [(2, 19), (30, 5), (30, 4)]:
        p = _not_prefix_free(graded_polynomial(rng, n, d))
        lower, upper = bounds = sup_norm_bounds(p, 2)
        assert bounds.lower_method == "fejer_riesz_dual"
        assert bounds.gram_size == freealg._suffix_closure(p).size
        assert lower <= upper and upper - lower <= 1e-8 * upper
    warm = []
    for _ in range(3):
        start = time.process_time()
        sup_norm_bounds(p, 2)
        warm.append(time.process_time() - start)
    assert min(warm) < 0.01


def test_word_indices_beyond_int64_fail_with_the_resource_cap():
    # D(30, 13) > 2^63: no word index of that degree fits in int64, which a
    # solve needs; with the prefix e_1 dropped the words are prefix-free and
    # the closed form needs none
    p = NcPolynomial(30, {(): 0.5, (1,) * 13: 1.0, (2, 3): 0.3, (1,): 0.2})
    with pytest.raises(ResourceCapError, match="64 bits"):
        sup_norm_bounds(p, 2)
    bounds = sup_norm_bounds(NcPolynomial(30, {(): 0.5, (1,) * 13: 1.0, (2, 3): 0.3}), 2)
    assert bounds.lower_method == "prefix_free"
    assert bounds == pytest.approx((0.5 + math.hypot(1.0, 0.3),) * 2, rel=1e-15)
    assert freealg._suffix_closure(NcPolynomial(30, {(): 0.5, (1,) * 12: 1.0})).size == 13


def _not_prefix_free(p):
    """p, plus 0.5 e_i for the first letter i of a longest word when the
    nonempty words of p are prefix-free, so that its norm takes a solve."""
    if not freealg._is_prefix_free(p):
        return p
    return p + NcPolynomial(p.n, {max(p.terms, key=len)[:1]: 0.5})


def _sparse_test_polynomial(rng, n, degree):
    """A random sparse p (_norm_test_polynomial) or one word per grade."""
    if rng.random() < 0.5:
        return graded_polynomial(rng, n, degree)
    return _norm_test_polynomial(rng, n, degree, dense=False)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2),
                                 (4, 3)])
def test_gram_solve_on_the_suffix_closure_matches_the_solve_on_all_words(n, d):
    # the closure drops words, pairs and gaps, and neither side of the bracket
    # moves: the solve on it is exact (sup_norm_bounds' docstring)
    rng = np.random.default_rng(420 + 10 * n + d)
    for _ in range(3):
        p = _sparse_test_polynomial(rng, n, d)
        if p.is_homogeneous:
            continue
        closure, full = _gram_bracket(p), _gram_bracket(p, _all_words(p))
        assert closure[0] <= closure[1]
        scale = max(1.0, full[1])
        assert abs(closure[0] - full[0]) <= 1e-8 * scale
        assert abs(closure[1] - full[1]) <= 1e-8 * scale
        bounds = sup_norm_bounds(p, 2)
        if freealg._is_prefix_free(p):   # no solve: the closed form |c_()| + ||c||_2
            assert closure[0] <= bounds[0] * (1 + 1e-12) and bounds[1] <= closure[1] * (1 + 1e-12)
            continue
        assert bounds.gram_size == freealg._suffix_closure(p).size <= basis_size(n, d)
        assert bounds[0] == pytest.approx(closure[0], rel=1e-12)


def test_closure_brackets_order_and_bound_the_von_neumann_side():
    # one word per grade up to degrees whose full solve is above the work cap
    rng = np.random.default_rng(421)
    for n, d in [(2, 3), (2, 6), (2, 8), (3, 3), (3, 5), (4, 5), (6, 3)]:
        for _ in range(2):
            p = _not_prefix_free(graded_polynomial(rng, n, d))
            lower, upper = bounds = sup_norm_bounds(p, 2)
            assert bounds.lower_method == "fejer_riesz_dual"
            assert bounds.gram_size < basis_size(n, d)
            assert lower <= upper <= sum(p.grade_norms()) * (1 + 1e-15)
            assert upper - lower <= 1e-6 * max(1.0, upper)
            for _ in range(3):
                t = random_row_contraction(rng, n, int(rng.integers(1, 5)),
                                           rho=float(rng.uniform(0.5, 1.0)))
                assert operator_norm(evaluate(p, t.matrices)) <= upper + 1e-12 * max(1.0, upper)


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (2, 7), (4, 5)])
def test_gns_witness_of_the_closure_dual_point_attains_its_value(n, d):
    # the row isometry V of the Gram vectors of S_W = I - M_W(y) has
    # ||p(V) xi||^2 = r_() - 2 Re <y, r>: the dual value on W is attained by
    # a row contraction, so it is a lower bound on ||L_p||^2
    rng = np.random.default_rng(412)
    p = graded_polynomial(rng, n, d)
    q, y, layout = _gram_solve(p)
    src, dst, con, _, gaps = layout
    size = q.shape[0]
    s = np.eye(size) - freealg._dual_matrix(y, src, dst, con, size)
    wi = WordIndex(n, d)
    V, xi = gns_row_isometry(s, [wi.word(i) for i in freealg._suffix_closure(p)], n)
    assert operator_norm(V.transpose(1, 0, 2).reshape(size, -1)) <= 1 + 1e-10
    r = freealg._symbol(p, gaps)
    value = r[0].real - 2 * np.vdot(y, r[1:]).real
    image = evaluate(p, V) @ xi
    assert abs(np.vdot(image, image).real - value) <= 1e-8 * value
    lower, upper = sup_norm_bounds(p, 2)
    assert value <= upper ** 2 * (1 + 1e-12)
    assert abs(np.sqrt(value) - lower) <= 1e-8 * upper


def _work_on_all_words(n, degree):
    words = np.arange(basis_size(n, degree))
    return freealg._fejer_riesz_work(words.size, freealg._word_set_layout(n, degree, words))


def test_gram_work_cap_admits_mid_sizes_and_stops_wide_alphabets():
    # the work counts the |W|^3 factorizations as well as the Schur system: on
    # all words at n = 22, d = 2 (990 pairs, |W| = 507) the solve took seconds,
    # and sup_norm_bounds takes the truncated path for a dense p there
    for n, degree in [(2, 5), (3, 4), (2, 6), (1, 44), (3, 3)]:
        assert _work_on_all_words(n, degree) <= freealg.FEJER_RIESZ_MAX_WORK
    assert _work_on_all_words(22, 2) > freealg.FEJER_RIESZ_MAX_WORK
    rng = np.random.default_rng(410)
    # a sparse p over the same alphabet has a small closure, and solves
    sparse = _not_prefix_free(graded_polynomial(rng, 22, 2))
    bounds = sup_norm_bounds(sparse, 2)
    assert (bounds.lower_method, bounds.gram_size) == ("fejer_riesz_dual",
                                                       freealg._suffix_closure(sparse).size)
    assert bounds.gram_size <= 5
    assert bounds[1] - bounds[0] <= 1e-8 * max(1.0, bounds[1])
    p = _norm_test_polynomial(rng, 22, 2, dense=True)
    start = time.process_time()
    try:
        lower, upper = bounds = sup_norm_bounds(p, 2)
    except ResourceCapError:
        pass
    else:
        assert (bounds.lower_method, bounds.gram_size) == ("truncated", None)
        assert lower <= upper
    assert time.process_time() - start < 1.0


def _random_hermitian_pd(rng, size):
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    h = a @ a.conj().T / size + 0.1 * np.eye(size)
    return (h + h.conj().T) / 2


def _assert_schur_system_is_the_newton_map(rng, size, layout):
    # the real system on [Re dy; Im dy] is dy -> constraint(X M(dy) W), here
    # formed from the full product: a sign or transpose slip in its Hermitian
    # shortcut would only slow the solve, which the bracket tests do not see
    src, dst, con, starts, _ = layout
    cons = starts.size
    x, w = _random_hermitian_pd(rng, size), _random_hermitian_pd(rng, size)
    dy = rng.normal(size=cons) + 1j * rng.normal(size=cons)
    y = x @ freealg._dual_matrix(dy, src, dst, con, size) @ w
    c = (np.add.reduceat(y[src, dst], starts) + np.add.reduceat(y[dst, src].conj(), starts)) / 2
    work = freealg._schur_workspace(size, layout)
    got = freealg._schur_system(x, w, layout, work) @ np.concatenate([dy.real, dy.imag])
    want = np.concatenate([c.real, c.imag])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the solve reuses one workspace across iterations: what an earlier
    # system left in it must not leak into the next
    freealg._schur_system(w, x, layout, work)
    again = freealg._schur_system(x, w, layout, work) @ np.concatenate([dy.real, dy.imag])
    assert np.array_equal(again, got)


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_schur_system_is_the_newton_map(n, d):
    words = np.arange(basis_size(n, d))
    layout = freealg._word_set_layout(n, d, words)
    _assert_schur_system_is_the_newton_map(np.random.default_rng(409), words.size, layout)


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (4, 5)])
def test_schur_system_is_the_newton_map_on_a_suffix_closure(n, d):
    # a closure drops words, and with them pairs and whole gaps: the gathers
    # and the grouping by gap must follow the renumbering
    rng = np.random.default_rng(411)
    p = graded_polynomial(rng, n, d)
    words = freealg._suffix_closure(p)
    layout = freealg._word_set_layout(n, d, words)
    assert words.size < basis_size(n, d) and layout[4].size < basis_size(n, d) - 1
    _assert_schur_system_is_the_newton_map(rng, words.size, layout)


def test_norm_bounds_name_the_upper_method(monkeypatch):
    rng = np.random.default_rng(405)
    p = _norm_test_polynomial(rng, 2, 2, dense=True)
    bounds = sup_norm_bounds(p, 3)
    assert (bounds.lower_method, bounds.upper_method) == ("fejer_riesz_dual", "fejer_riesz")
    assert bounds.gram_size == 7
    line = _norm_test_polynomial(rng, 1, 2, dense=True)
    bounds = sup_norm_bounds(line, 3)
    assert (bounds.lower_method, bounds.upper_method, bounds.gram_size) == ("circle", "circle",
                                                                             None)
    homogeneous = random_polynomial(rng, 2, 2, terms=4, homogeneous=True)
    bounds = sup_norm_bounds(homogeneous, 3)
    assert (bounds.lower_method, bounds.upper_method) == ("prefix_free", "prefix_free")
    assert bounds.gram_size is None
    monkeypatch.setattr(freealg, "FEJER_RIESZ_MAX_WORK", 0)
    lower, upper = bounds = sup_norm_bounds(p, 3)
    assert (bounds.lower_method, bounds.upper_method) == ("truncated", "grade_norms")
    assert bounds.gram_size is None
    # the grade-norm sum with its slack of (terms + 2) eps
    grade_sum = sum(p.grade_norms())
    assert grade_sum <= upper <= grade_sum * (1 + (len(p.terms) + 2) * np.finfo(float).eps)
    bounds = sup_norm_bounds(line, 3)
    assert (bounds.lower_method, bounds.gram_size) == ("circle", None)


def test_zero_polynomial():
    zero = NcPolynomial.zero(2)
    assert zero.degree == float("-inf")
    assert sup_norm_bounds(zero, 3) == (0.0, 0.0)
    with pytest.raises(ValueError):
        mult_matrix(zero, 2)


def test_coefficients_are_kept_as_given():
    # no scale is noise: 1e-300 coefficients stay, and only exact zeros go
    p = NcPolynomial(2, {(1,): 1e-300, (2,): 1.0, (1, 2): 0.0, (2, 2): -0.0j})
    assert p.terms == {(1,): 1e-300, (2,): 1.0}
    q = tensor_product(NcPolynomial(2, {(1,): 1e-150}), NcPolynomial(2, {(2,): 1e-150j}))
    assert q.terms == {(1, 2): 1e-300j}
    assert (p - p).is_zero and (p + p.scale(-1.0)).is_zero
    assert sup_norm_bounds(NcPolynomial(1, {(1,): 1e-300}), 3)[0] > 0.0


def test_grade_norms_at_any_scale():
    # one hypot per grade: no coefficient is squared, so 1e200 does not
    # overflow and 1e-200 does not underflow
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = random_polynomial(rng, int(rng.integers(1, 4)), 4, terms=8)
        unit = p.grade_norms()
        for scale in (1e200, 1e-200):
            scaled = p.scale(scale).grade_norms()
            assert scaled == pytest.approx([scale * v for v in unit], rel=1e-15)
    assert NcPolynomial.zero(2).grade_norms() == []


def _scale_cases(rng, count):
    """Random p for each certificate: homogeneous (the closed form), n = 1
    (the circle) and n = 2 with e_1 a prefix of e_1 e_2 (the Gram solve)."""
    for _ in range(count):
        yield random_polynomial(rng, int(rng.integers(1, 4)), 3, terms=4, homogeneous=True)
        yield random_polynomial(rng, 1, int(rng.integers(2, 9)), terms=6)
        yield random_polynomial(rng, 2, 3) + NcPolynomial(2, {(1,): 1.0, (1, 2): 0.7j})


@pytest.mark.parametrize("capped", [False, True])
def test_norm_bounds_are_scale_free_bit_for_bit(monkeypatch, capped):
    # every path runs on p / 2^e, so scaling p by 2^k scales the bracket by
    # 2^k exactly, with the same methods and gram_size; capped sends the
    # Gram solve's cases to the truncated fallback
    if capped:
        monkeypatch.setattr(freealg, "FEJER_RIESZ_MAX_WORK", 0)
    rng = np.random.default_rng(43)
    methods = set()
    for p in _scale_cases(rng, 10):
        base = sup_norm_bounds(p, 4)
        methods.add(base.lower_method)
        for k in (-500, 500):
            scaled = sup_norm_bounds(p.scale(2.0 ** k), 4)
            assert tuple(scaled) == (2.0 ** k * base[0], 2.0 ** k * base[1])
            assert ((scaled.lower_method, scaled.upper_method, scaled.gram_size)
                    == (base.lower_method, base.upper_method, base.gram_size))
    middle = "truncated" if capped else "fejer_riesz_dual"
    assert methods == {"prefix_free", "circle", middle}


def test_a_bracket_above_the_largest_double_is_a_domain_error():
    # ||L_p|| = 1.5e308 sqrt(2) at p = 1.5e308 (e_1 + e_2): the normalised
    # bracket times 2^1024 leaves the double range, an input error naming
    # the scale, not an OverflowError; 1e308 (e_1 + e_2) still fits
    big = NcPolynomial(2, {(1,): 1.5e308, (2,): 1.5e308})
    with pytest.raises(DomainError, match=r"2\^1024"):
        sup_norm_bounds(big, 3)
    lower, upper = sup_norm_bounds(NcPolynomial(2, {(1,): 1e308, (2,): 1e308}), 3)
    assert lower <= math.hypot(1e308, 1e308) <= upper < math.inf


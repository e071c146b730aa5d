import time

import numpy as np
import pytest

from ncfock import poisson
from ncfock import (BallPoint, DomainError, NcPolynomial, ResourceCapError, RowContraction,
                    WordIndex, c0_sequence, evaluate, is_c0_certified, minimal_subspace,
                    operator_norm, poisson_compression, poisson_covariance_check,
                    poisson_covariance_residuals, poisson_kernel, radial_scale,
                    suggest_truncation_degree, truncated_mult_matrix,
                    von_neumann_margin, z_vector)
from helpers import (naive_word_product, random_polynomial, random_row_contraction,
                     random_unitary, symmetrized_basis)


def test_row_contraction_rejects_expansive_tuples():
    with pytest.raises(DomainError):
        RowContraction([np.array([[1.2]])])


def test_row_contraction_boundary_allowed():
    t = RowContraction([np.array([[0.6]]), np.array([[0.8]])])
    assert np.allclose(t.delta, 0.0, atol=1e-7)


def test_c0_sequence_zero_tuple():
    t = RowContraction([np.zeros((2, 2)), np.zeros((2, 2))])
    assert c0_sequence(t, 3) == [1.0, 0.0, 0.0, 0.0]


def test_c0_sequence_rho_bound():
    rng = np.random.default_rng(1)
    rho = 0.7
    t = random_row_contraction(rng, 2, 3, rho=rho)
    sig = c0_sequence(t, 12)
    for k, s in enumerate(sig):
        assert s <= rho ** k + 1e-13
    for a, b in zip(sig, sig[1:]):
        assert b <= a + 1e-12


def test_c0_sequence_unitary_scalar():
    t = RowContraction([np.array([[1.0]])])
    assert c0_sequence(t, 5) == [1.0] * 6
    assert not is_c0_certified(t, kmax=10)


def _tuples_strict_boundary_non_pure(rng, count):
    """(kind, tuple): strict (sum T_i T_i* < I), boundary (that sum has norm
    exactly 1, yet the tuple is pure) and non-pure (a unitary block)."""
    for t in range(count):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        kind = ("strict", "boundary", "non-pure")[t % 3]
        if kind == "strict":
            yield kind, random_row_contraction(rng, n, d, rho=float(rng.uniform(0.1, 0.99)))
        elif kind == "boundary":
            d += 1   # at d = 1 the normalized tuple is a point of the sphere, not pure
            g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
            s = np.linalg.norm(np.einsum("iab,icb->ac", g, g.conj()), 2)
            yield kind, RowContraction(g / np.sqrt(s))
        else:
            inner = random_row_contraction(rng, n, d, rho=0.5).matrices
            mats = np.zeros((n, d + 1, d + 1), dtype=complex)
            mats[:, 1:, 1:] = inner
            mats[0, 0, 0] = np.exp(1j * rng.uniform(0, 2 * np.pi))
            yield kind, RowContraction(mats)


@pytest.mark.filterwarnings("ignore:clamped")
def test_is_c0_certified_matches_the_last_sigma():
    # the verdict stops at the first sigma_k below 1 - margin; it must be the
    # verdict on sigma_kmax, and a strict tuple stops at k = 1
    rng = np.random.default_rng(23)
    kinds = set()
    for kind, t in _tuples_strict_boundary_non_pure(rng, 90):
        kmax = int(rng.integers(0, 31))
        for margin in (1e-9, 1e-3, 0.2):
            expected = c0_sequence(t, kmax)[-1] < 1.0 - margin
            assert is_c0_certified(t, kmax, margin) == expected
        if kind == "strict" and kmax >= 1:
            assert len(poisson._sigmas(t, kmax, 1.0 - 1e-9)) == 2
        kinds.add((kind, is_c0_certified(t, 30)))
    assert kinds == {("strict", True), ("boundary", True), ("non-pure", False)}


def test_kernel_entry_cap_fails_fast():
    # D d = 3333 * 300 rows fit the row cap, but the kernel would hold
    # D d^2 = 3.0e8 complex entries (4.8 GB)
    t = RowContraction([np.zeros((300, 300))])
    start = time.process_time()
    with pytest.raises(ResourceCapError, match="entries"):
        poisson_kernel(t, 3332)
    assert time.process_time() - start < 1.0


def test_c0_sequence_nonincreasing_for_any_contraction():
    rng = np.random.default_rng(81)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        t = random_row_contraction(rng, n, d, rho=float(rng.uniform(0.3, 1.0)))
        sig = c0_sequence(t, 10)
        for a, b in zip(sig, sig[1:]):
            assert b <= a + 1e-12


def test_kernel_scalar_point():
    lam = BallPoint([0.5, 0.2])
    t = RowContraction.from_point(lam)
    m = 6
    kernel = poisson_kernel(t, m)
    z = z_vector(lam, m)
    expected = np.sqrt(1 - lam.norm ** 2) * z.coeffs.reshape(-1, 1)
    assert np.allclose(kernel.matrix, expected, atol=1e-14)
    assert kernel.tail == pytest.approx(lam.norm ** (2 * (m + 1)), abs=1e-14)


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_kernel_row_blocks_follow_the_word_order(n, d):
    # K*K does not depend on the order of the blocks and commuting scalar
    # points hide the order of the letters: compare each block with Delta
    # T_alpha* formed from the word alone, on non-commuting tuples
    rng = np.random.default_rng(10 * n + d)
    t = random_row_contraction(rng, n, d, rho=0.9)
    m = 4
    kernel = poisson_kernel(t, m)
    wi = WordIndex(n, m)
    for i in range(wi.dim):
        expected = t.delta @ naive_word_product(t.matrices, wi.word(i)).conj().T
        assert np.abs(kernel.blocks[i] - expected).max() <= 1e-14
    gram = kernel.matrix.conj().T @ kernel.matrix
    assert np.abs(kernel.defect - (np.eye(d) - gram)).max() <= 1e-15


def test_kernel_identity_above_1e5_rows():
    # D d = 88,573 * 2 = 177,146 rows (n = 3, m = 10)
    rng = np.random.default_rng(31)
    t = random_row_contraction(rng, 3, 2, rho=0.95)
    m = 10
    kernel = poisson_kernel(t, m)
    assert kernel.matrix.shape == (177146, 2)
    x = np.eye(2, dtype=complex)
    for _ in range(m + 1):
        x = t.cp_map(x)
    assert np.linalg.norm(kernel.defect - x, 2) <= 1e-12
    assert kernel.tail == pytest.approx(np.linalg.norm(x, 2), abs=1e-12)


def test_kernel_zero_tuple_exact_isometry():
    t = RowContraction([np.zeros((2, 2)), np.zeros((2, 2))])
    for m in (0, 1, 3):
        kernel = poisson_kernel(t, m)
        assert kernel.certified
        assert kernel.tail <= 1e-15


def test_kernel_identity_and_rho_tail():
    rng = np.random.default_rng(14)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        rho = float(rng.uniform(0.3, 0.95))
        t = random_row_contraction(rng, n, d, rho=rho)
        m = 5
        kernel = poisson_kernel(t, m)
        x = np.eye(d, dtype=complex)
        for _ in range(m + 1):
            x = t.cp_map(x)
        gap = np.linalg.norm(
            kernel.matrix.conj().T @ kernel.matrix + x - np.eye(d), 2)
        assert gap <= 1e-12
        assert kernel.tail <= rho ** (m + 1)


def test_covariance_identity_words_equal_tail():
    rng = np.random.default_rng(44)
    t = random_row_contraction(rng, 2, 3, rho=0.8)
    m = 5
    sig = c0_sequence(t, m + 1)
    residual = poisson_covariance_check(t, (), (), m)
    assert residual == pytest.approx(sig[m + 1], abs=1e-12)


def test_covariance_scalar_point_tail():
    lam = BallPoint([0.45, 0.35])
    t = RowContraction.from_point(lam)
    m = 8
    for alpha, beta in [((1,), ()), ((1, 2), (2,)), ((2, 2), (1, 1))]:
        residual = poisson_covariance_check(t, alpha, beta, m)
        bound = lam.norm ** (2 * (m + 1 - max(len(alpha), len(beta))))
        assert residual <= bound + 1e-14


def test_covariance_rho_half():
    rng = np.random.default_rng(50)
    t = random_row_contraction(rng, 2, 3, rho=0.5)
    residual = poisson_covariance_check(t, (1,), (2,), 12)
    assert residual < 1e-3


def test_covariance_rejects_long_words():
    t = RowContraction([np.array([[0.4]])])
    with pytest.raises(ValueError):
        poisson_covariance_check(t, (1, 1, 1), (), 2)


def test_covariance_residuals_match_the_moved_word_operator():
    # oracle: M_alphabeta = P_m L_alpha L_beta* P_m as a dense matrix
    rng = np.random.default_rng(14)
    for n, d, m in [(1, 3, 6), (2, 2, 4), (3, 2, 3)]:
        t = random_row_contraction(rng, n, d, rho=0.8)
        K = poisson_kernel(t, m).matrix
        words = [(), (1,), (n,), (1, n)]
        pairs = [(alpha, beta) for alpha in words for beta in words]
        residuals = poisson_covariance_residuals(t, pairs, m)
        for (alpha, beta), residual in zip(pairs, residuals):
            la = truncated_mult_matrix(NcPolynomial.from_word(n, alpha), m)
            lb = truncated_mult_matrix(NcPolynomial.from_word(n, beta), m)
            moved = K.conj().T @ np.kron(la @ lb.conj().T, np.eye(d)) @ K
            exact = (naive_word_product(t.matrices, alpha)
                     @ naive_word_product(t.matrices, beta).conj().T)
            assert abs(residual - operator_norm(moved - exact)) <= 1e-13
            assert residual == poisson_covariance_check(t, alpha, beta, m)
    with pytest.raises(ValueError):
        poisson_covariance_residuals(t, [((), ()), ((1, 1, 1, 1), ())], 3)


def test_von_neumann_homogeneous_hard_bound():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        t = random_row_contraction(rng, n, d, rho=float(rng.uniform(0.5, 1.0)))
        deg = int(rng.integers(1, 4))
        p = random_polynomial(rng, n, deg, terms=4, homogeneous=True)
        lhs, lower, upper = von_neumann_margin(t, p, 0)
        assert lhs <= upper + 1e-12
        assert lower == pytest.approx(upper, abs=1e-12)


def test_von_neumann_row_point():
    t = RowContraction.from_point(BallPoint([0.6, 0.8]))
    p = NcPolynomial(2, {(1,): 0.3, (2,): -0.4})
    lhs, _, upper = von_neumann_margin(t, p, 2)
    assert lhs == pytest.approx(abs(0.3 * 0.6 - 0.4 * 0.8))
    assert upper == pytest.approx(0.5)
    assert lhs <= upper + 1e-12


def test_von_neumann_unit():
    t = RowContraction.from_point(BallPoint([0.2, 0.1]))
    lhs, lower, upper = von_neumann_margin(t, NcPolynomial.unit(2), 2)
    assert (lhs, lower, upper) == (1.0, 1.0, 1.0)


def test_radial_scale_examples():
    t = RowContraction([np.array([[1.0]])])
    scaled = radial_scale(t, 0.9)
    sig = c0_sequence(scaled, 6)
    assert np.allclose(sig, [0.81 ** k for k in range(7)], atol=1e-14)
    twice = radial_scale(radial_scale(t, 0.9), 0.5)
    assert np.allclose(twice.matrices, radial_scale(t, 0.45).matrices)
    with pytest.raises(DomainError):
        radial_scale(t, 1.0)


def test_radial_compression_recovers_word_moments():
    # scaled-kernel compressions give r^(|alpha|+|beta|) T_alpha T_beta*;
    # dividing the factor out and letting r -> 1 recovers the word moment
    t = RowContraction([np.array([[0.4]]), np.array([[0.3]])])
    alpha, beta = (1,), (2,)
    exact = (naive_word_product(t.matrices, alpha)
             @ naive_word_product(t.matrices, beta).conj().T)[0, 0]
    m = 12
    recovered = []
    for r in (0.9, 0.99):
        scaled = radial_scale(t, r)
        c = poisson_compression(scaled, alpha, beta, m)[0, 0]
        assert abs(c - r ** 2 * exact) < 1e-4
        recovered.append(c / r ** 2)
    assert abs(recovered[1] - exact) < 1e-4


def test_minimal_subspace_scalar_point_is_kernel_line():
    lam = BallPoint([0.5, 0.2])
    t = RowContraction.from_point(lam)
    basis = minimal_subspace(t, 6)
    assert basis.shape[1] == 1
    z = z_vector(lam, 6)
    overlap = abs(np.vdot(basis[:, 0], z.coeffs / z.norm()))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_minimal_subspace_zero_tuple_is_vacuum():
    t = RowContraction([np.zeros((2, 2)), np.zeros((2, 2))])
    basis = minimal_subspace(t, 4)
    assert basis.shape[1] == 1
    assert abs(basis[0, 0]) == pytest.approx(1.0)


def test_minimal_subspace_commuting_inside_symmetric():
    rng = np.random.default_rng(20)
    pts = [BallPoint(c) for c in rng.normal(size=(3, 2)) * 0.2]
    t = RowContraction.diagonal(pts)
    with pytest.warns(UserWarning):
        basis = minimal_subspace(t, 6)
    sym = symmetrized_basis(2, 1.0, 6)
    residual = np.linalg.norm(basis - sym @ (sym.conj().T @ basis), 2)
    assert residual < 1e-10


def test_minimal_subspace_carries_kernel_columns():
    rng = np.random.default_rng(16)
    t = random_row_contraction(rng, 2, 3, rho=0.5)
    m = 6
    basis = minimal_subspace(t, m)
    kb = poisson_kernel(t, m).blocks
    coords = np.einsum("Dr,Dij->rij", basis.conj(), kb)
    projected = np.einsum("Dr,rij->Dij", basis, coords)
    assert np.abs(kb - projected).max() < 1e-10


def test_minimal_subspace_unitary_conjugation_invariance():
    rng = np.random.default_rng(64)
    t = random_row_contraction(rng, 2, 3, rho=0.6)
    u = random_unitary(rng, 3)
    conj = RowContraction([u.conj().T @ ti @ u for ti in t.matrices])
    m = 5
    b1 = minimal_subspace(t, m)
    b2 = minimal_subspace(conj, m)
    p1 = b1 @ b1.conj().T
    p2 = b2 @ b2.conj().T
    assert np.linalg.norm(p1 - p2, 2) <= 1e-9


def test_suggest_truncation_degree():
    rng = np.random.default_rng(90)
    t = random_row_contraction(rng, 2, 2, rho=0.5)
    m = suggest_truncation_degree(t, 1e-6)
    sig = c0_sequence(t, m + 1)
    assert sig[m + 1] <= 1e-6
    unitary = RowContraction([np.array([[1.0]])])
    with pytest.raises(DomainError):
        suggest_truncation_degree(unitary, 1e-6, kmax=10)

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from ncfock import poisson
from ncfock import (BallPoint, DomainError, NcPolynomial, ResourceCapError, RowContraction,
                    WordIndex, c0_sequence, evaluate, is_c0_certified, minimal_subspace,
                    operator_norm, poisson_covariance_residuals, poisson_kernel,
                    truncated_mult_matrix)
from ncfock.poisson import von_neumann_margin
from helpers import (naive_compression, naive_cp_map, naive_word_product, random_polynomial,
                     random_row_contraction, random_unitary, symmetrized_basis, z_vector)


def _compression(t, alpha, beta, m):
    """T_alpha Psi_t T_beta* from poisson._pair_factors: the compression
    K* (M_alphabeta tensor I_d) K of the degree-m kernel K."""
    left, psi, right = poisson._pair_factors(t, [(alpha, beta)], m)
    return left[0] @ psi[0] @ right[0].conj().T


def test_row_contraction_rejects_expansive_tuples():
    with pytest.raises(DomainError):
        RowContraction([np.array([[1.2]])])


def test_row_contraction_boundary_allowed():
    t = RowContraction([np.array([[0.6]]), np.array([[0.8]])])
    assert np.allclose(t.delta, 0.0, atol=1e-7)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cp_map_matches_the_einsum_oracle(n):
    # [T_1 ... T_n] times the stacked X T_i*, from the factors kept at
    # construction, against the two einsum contractions, d = 1..8
    rng = np.random.default_rng(440 + n)
    for d in range(1, 9):
        T = random_row_contraction(rng, n, d)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        want = naive_cp_map(T, x)
        assert np.abs(T.cp_map(x) - want).max() <= 1e-13 * np.abs(want).max()


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
    # the verdict stops at the first sigma_k below 1 - PURITY_MARGIN; it must
    # be the verdict on sigma_kmax.  A strict tuple stops at k = 1; a boundary
    # one has sigma_1 = 1 and stops at k = 2, before kmax when kmax > 2
    rng = np.random.default_rng(23)
    floor = 1.0 - poisson.PURITY_MARGIN
    kinds, early = set(), 0
    for kind, t in _tuples_strict_boundary_non_pure(rng, 90):
        kmax = int(rng.integers(0, 31))
        assert is_c0_certified(t, kmax) == (c0_sequence(t, kmax)[-1] < floor)
        steps = len(poisson._sigmas(t, kmax, floor)) - 1
        if kind == "strict" and kmax >= 1:
            assert steps == 1
        if kind == "boundary" and kmax >= 2:
            assert steps == 2
            early += kmax > 2
        kinds.add((kind, is_c0_certified(t)))
    assert early >= 10
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
    expected = np.sqrt(1 - lam.norm ** 2) * z.reshape(-1, 1)
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


@pytest.mark.parametrize("n, d, m", [(3, 2, 9), (2, 4, 10)])
def test_kernel_allocates_no_second_kernel(n, d, m):
    # the defect comes from K's real view: the build's peak stays at the one
    # kernel array, where a conjugate copy for K*K would double it
    t = random_row_contraction(np.random.default_rng(11 * n + d), n, d, rho=0.9)
    poisson_kernel(t, 1)   # first-call imports and caches stay out of the trace
    tracemalloc.start()
    try:
        K = poisson_kernel(t, m).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.nbytes <= peak <= 1.1 * K.nbytes


def test_covariance_peaks_below_a_tenth_of_the_kernel():
    # the compressions come from the Phi iterates, so no kernel-sized array is
    # allocated: the CLI's 91 pairs at (n, d, m) = (3, 1, 11)
    t = random_row_contraction(np.random.default_rng(12), 3, 1, rho=0.9)
    pairs = list(itertools.combinations_with_replacement(WordIndex(3, 2).words(), 2))
    poisson_covariance_residuals(t, pairs, 3)
    kernel_bytes = poisson_kernel(t, 11).matrix.nbytes
    tracemalloc.start()
    try:
        poisson_covariance_residuals(t, pairs, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * kernel_bytes


def test_compressions_of_a_clamped_defect_match_its_kernel():
    # I - sum T_i T_i* has least eigenvalue about -5e-11, which RowContraction
    # clamps to 0: the compressions use the clamped Delta^2 that the kernel's
    # blocks carry, which differs from I - Phi(I) by that clamp
    rng = np.random.default_rng(27)
    n, d, m = 2, 3, 6
    raw = random_row_contraction(rng, n, d, rho=0.9).matrices
    row_norm = np.linalg.norm(np.einsum("iab,icb->ac", raw, raw.conj()), 2)
    raw = raw * np.sqrt((1 + 5e-11) / row_norm)
    with pytest.warns(UserWarning, match="clamped"):
        t = RowContraction(raw)
    assert np.linalg.eigvalsh(t.defect)[0] == pytest.approx(-5e-11, rel=1e-3)
    blocks, wi = poisson_kernel(t, m).blocks, WordIndex(n, m)
    for alpha, beta in [((), ()), ((1,), ()), ((2,), (1, 2)), ((1, 1), (2, 1))]:
        assert np.abs(_compression(t, alpha, beta, m)
                      - naive_compression(blocks, wi, alpha, beta)).max() <= 1e-13


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
    residual = poisson_covariance_residuals(t, [((), ())], m)[0]
    assert residual == pytest.approx(sig[m + 1], abs=1e-12)


def test_covariance_scalar_point_tail():
    lam = BallPoint([0.45, 0.35])
    t = RowContraction.from_point(lam)
    m = 8
    for alpha, beta in [((1,), ()), ((1, 2), (2,)), ((2, 2), (1, 1))]:
        residual = poisson_covariance_residuals(t, [(alpha, beta)], m)[0]
        bound = lam.norm ** (2 * (m + 1 - max(len(alpha), len(beta))))
        assert residual <= bound + 1e-14


def test_covariance_rho_half():
    rng = np.random.default_rng(50)
    t = random_row_contraction(rng, 2, 3, rho=0.5)
    residual = poisson_covariance_residuals(t, [((1,), (2,))], 12)[0]
    assert residual < 1e-3


def test_covariance_rejects_long_words():
    t = RowContraction([np.array([[0.4]])])
    with pytest.raises(ValueError):
        poisson_covariance_residuals(t, [((1, 1, 1), ())], 2)


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
            assert residual == poisson_covariance_residuals(t, [(alpha, beta)], m)[0]
    with pytest.raises(ValueError):
        poisson_covariance_residuals(t, [((), ()), ((1, 1, 1, 1), ())], 3)


def _mixed_pairs(rng, n, longest, count):
    """count random word pairs of lengths 0..longest, with repeats."""
    words = list(WordIndex(n, longest).words())
    picks = rng.integers(0, len(words), size=(count, 2))
    pairs = [(words[i], words[j]) for i, j in picks]
    return pairs + pairs[:2]


@pytest.mark.parametrize("n, d, m", [(1, 1, 12), (1, 4, 12), (1, 3, 0), (2, 1, 6), (2, 3, 6),
                                     (2, 4, 8), (3, 1, 3), (3, 2, 5), (3, 4, 4)])
def test_batched_covariance_matches_the_per_pair_oracle(n, d, m):
    # every pair of words up to length 2 (the CLI's request), then random pairs
    # of mixed lengths with repeats, then a single pair
    rng = np.random.default_rng(100 * n + 10 * d + m)
    t = random_row_contraction(rng, n, d, rho=float(rng.uniform(0.4, 0.95)))
    blocks, wi = poisson_kernel(t, m).blocks, WordIndex(n, m)
    words = list(WordIndex(n, min(2, m)).words())
    for pairs in (list(itertools.combinations_with_replacement(words, 2)),
                  _mixed_pairs(rng, n, m, 12),
                  [(words[-1], words[0])]):
        residuals = poisson_covariance_residuals(t, pairs, m)
        assert len(residuals) == len(pairs)
        for (alpha, beta), residual in zip(pairs, residuals):
            exact = (naive_word_product(t.matrices, alpha)
                     @ naive_word_product(t.matrices, beta).conj().T)
            oracle = operator_norm(naive_compression(blocks, wi, alpha, beta) - exact)
            assert abs(residual - oracle) <= 1e-13
        alpha, beta = pairs[-1]
        assert residuals[-1] == poisson_covariance_residuals(t, [(alpha, beta)], m)[0]
        assert np.abs(_compression(t, alpha, beta, m)
                      - naive_compression(blocks, wi, alpha, beta)).max() <= 1e-13


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
        c = _compression(RowContraction(r * t.matrices), alpha, beta, m)[0, 0]
        assert abs(c - r ** 2 * exact) < 1e-4
        recovered.append(c / r ** 2)
    assert abs(recovered[1] - exact) < 1e-4


def test_minimal_subspace_scalar_point_is_kernel_line():
    lam = BallPoint([0.5, 0.2])
    t = RowContraction.from_point(lam)
    basis = minimal_subspace(t, 6)
    assert basis.shape[1] == 1
    z = z_vector(lam, 6)
    overlap = abs(np.vdot(basis[:, 0], z / np.linalg.norm(z)))
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

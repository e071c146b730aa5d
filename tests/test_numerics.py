import numpy as np
import pytest

from ncfock import (DomainError, SingularGramError, as_hermitian, hermitian_sqrt,
                    max_generalized_eigenvalue, operator_norm, psd_check)
from helpers import random_unitary


def test_psd_identity():
    v = psd_check(np.eye(3))
    assert v.is_psd
    assert v.min_eigenvalue == pytest.approx(1.0)


def test_psd_rank_one():
    v = psd_check(np.ones((2, 2)))
    assert v.is_psd
    assert v.min_eigenvalue == pytest.approx(0.0, abs=1e-14)
    assert v.is_marginal


def test_psd_indefinite_with_witness():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    v = psd_check(a)
    assert not v.is_psd
    assert v.min_eigenvalue == pytest.approx(-1.0)
    w = v.witness
    rayleigh = (w.conj() @ a @ w).real / (w.conj() @ w).real
    assert rayleigh == pytest.approx(v.min_eigenvalue, abs=1e-10)


def test_psd_rejects_non_hermitian():
    with pytest.raises(ValueError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_unitary_invariance():
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = as_hermitian(g + g.conj().T)
        u = random_unitary(rng, 4)
        v1 = psd_check(a)
        v2 = psd_check(u.conj().T @ a @ u)
        assert v1.is_psd == v2.is_psd
        assert v1.min_eigenvalue == pytest.approx(v2.min_eigenvalue, abs=1e-10)


def test_operator_norm_examples():
    assert operator_norm(np.zeros((3, 2))) == 0.0
    assert operator_norm(np.array([[1.0], [0.0]])) == pytest.approx(1.0)
    assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


def test_operator_norm_matches_spectral_norm():
    # both are the top value of the same LAPACK SVD, so they agree exactly
    rng = np.random.default_rng(83)
    for rows, cols in [(2, 2), (1, 5), (7, 3), (30, 30), (200, 30)]:
        a = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        assert operator_norm(a) == np.linalg.norm(a, 2)


def test_generalized_eigenvalue_trivial():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert max_generalized_eigenvalue(a, a) == pytest.approx(1.0)
    assert max_generalized_eigenvalue(np.zeros((2, 2)), a) == pytest.approx(0.0, abs=1e-14)


def test_generalized_eigenvalue_hand_example():
    a = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    b = np.array([[0.0, 0.0], [0.0, 1.0 / 3.0]])
    assert max_generalized_eigenvalue(b, a) == pytest.approx(1.0, abs=1e-12)


def test_generalized_eigenvalue_requires_pd():
    with pytest.raises(SingularGramError):
        max_generalized_eigenvalue(np.eye(2), np.ones((2, 2)))


def test_generalized_eigenvalue_congruence_invariance():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = g @ g.conj().T + 0.5 * np.eye(3)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = h @ h.conj().T
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2 * np.eye(3)
        before = max_generalized_eigenvalue(b, a)
        after = max_generalized_eigenvalue(m.conj().T @ b @ m, m.conj().T @ a @ m)
        assert after == pytest.approx(before, rel=1e-8)


def test_hermitian_sqrt_examples():
    assert np.allclose(hermitian_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = hermitian_sqrt(a)
    vals = np.linalg.eigvalsh(r)
    assert vals == pytest.approx([1.0, np.sqrt(3.0)])
    assert np.linalg.norm(r @ r - a, 2) <= 1e-10


def test_hermitian_sqrt_random_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = g @ g.conj().T
        r = hermitian_sqrt(a)
        scale = max(1.0, operator_norm(a))
        assert operator_norm(r @ r - a) <= 1e-10 * scale


def test_hermitian_sqrt_clamps_with_warning():
    a = np.diag([1.0, -1e-14])
    with pytest.warns(UserWarning):
        r = hermitian_sqrt(a)
    assert r[1, 1] == 0.0


def test_hermitian_sqrt_rejects_indefinite():
    with pytest.raises(DomainError):
        hermitian_sqrt(np.diag([1.0, -0.5]))

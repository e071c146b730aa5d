import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import ncfock
from ncfock import (DomainError, PickProblem, SingularGramError, as_hermitian, c0_sequence,
                    hermitian_sqrt, min_interpolation_norm, operator_norm, psd_check)
from ncfock.numerics import (_BLAS_SCOPE, SINGLE_THREAD_DIMS, SINGLE_THREAD_ENTRIES,
                             _blas_threads, _blas_threads_for)
from helpers import max_generalized_eigenvalue, random_row_contraction, random_unitary


@pytest.fixture
def two_blas_threads():
    """Every controlled OpenBLAS at 2 threads, so that a lost restore shows."""
    before = _BLAS_SCOPE.counts()
    setters = [set_ for _, set_ in _BLAS_SCOPE._functions.values()]
    for set_ in setters:
        set_(2)
    yield _BLAS_SCOPE.counts()
    for set_, count in zip(setters, before.values()):
        set_(count)


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


# The generalized eigenvalue is the c* oracle of the Pick tests (helpers).

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


def test_blas_thread_scope_controls_numpys_openblas():
    _BLAS_SCOPE.counts()
    if _BLAS_SCOPE.status["numpy"].startswith("not controlled: no "):
        pytest.skip("numpy bundles no OpenBLAS here; the scope is a no-op")
    assert _BLAS_SCOPE.status["numpy"] == "controlled"


@pytest.mark.parametrize("size", [40, 600])
def test_psd_check_leaves_the_thread_count(two_blas_threads, size):
    rng = np.random.default_rng(size)
    g = rng.normal(size=(size, size))
    assert not psd_check(g + g.T).is_psd
    assert _BLAS_SCOPE.counts() == two_blas_threads


@pytest.mark.parametrize("dim", [SINGLE_THREAD_DIMS[0], SINGLE_THREAD_DIMS[-1]])
def test_small_calls_run_on_one_thread(two_blas_threads, dim):
    with _blas_threads(dim):
        assert set(_BLAS_SCOPE.counts().values()) <= {1}
    assert _BLAS_SCOPE.counts() == two_blas_threads


@pytest.mark.parametrize("dim", [SINGLE_THREAD_DIMS[0] - 1, SINGLE_THREAD_DIMS[-1] + 1])
def test_tiny_and_large_calls_keep_the_process_threads(two_blas_threads, dim):
    with _blas_threads(dim):
        assert _BLAS_SCOPE.counts() == two_blas_threads


@pytest.mark.parametrize("rows", [SINGLE_THREAD_ENTRIES[0], SINGLE_THREAD_ENTRIES[-1]])
def test_tall_calls_run_on_one_thread_by_their_entries(two_blas_threads, rows):
    # a column of rows entries: keyed on its larger side it would keep two
    with _blas_threads_for(np.empty((rows, 1))):
        assert set(_BLAS_SCOPE.counts().values()) <= {1}
    assert _BLAS_SCOPE.counts() == two_blas_threads


@pytest.mark.parametrize("rows", [SINGLE_THREAD_ENTRIES[0] - 1, SINGLE_THREAD_ENTRIES[-1] + 1])
def test_small_and_large_tall_calls_keep_the_process_threads(two_blas_threads, rows):
    with _blas_threads_for(np.empty((rows, 1))):
        assert _BLAS_SCOPE.counts() == two_blas_threads


def test_thread_count_is_restored_when_the_call_raises(two_blas_threads):
    # k = 17 nodes, two of them 2e-13 apart: c* raises inside its one-thread scope
    size = SINGLE_THREAD_DIMS[0]
    nodes = np.linspace(-0.8, 0.8, size)
    nodes[1] = nodes[0] + 2e-13
    with pytest.raises(SingularGramError):
        min_interpolation_norm(PickProblem(nodes[:, None], [0.5] * size))
    with pytest.raises(DomainError):
        hermitian_sqrt(np.diag(np.linspace(-0.5, 1.0, size)))
    assert _BLAS_SCOPE.counts() == two_blas_threads


def test_nested_scopes_restore_the_outer_count(two_blas_threads):
    size = SINGLE_THREAD_DIMS[0]
    with _blas_threads(size):
        outer = _BLAS_SCOPE.counts()
        with _blas_threads(size):
            psd_check(np.eye(size))
        assert _BLAS_SCOPE.counts() == outer
    assert _BLAS_SCOPE.counts() == two_blas_threads


def test_scopes_from_many_python_threads_restore_the_count(two_blas_threads):
    a = np.diag(np.arange(1.0, SINGLE_THREAD_DIMS[0] + 1))
    errors = []

    def work():
        try:
            for _ in range(300):
                psd_check(a)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and not errors
    assert _BLAS_SCOPE.counts() == two_blas_threads


def test_pick_certification_does_not_import_scipy(tmp_path):
    # 20 nodes, so that the Pick matrix and c* take the one-thread scope; then
    # the same nodes through `pick interpolant`, which also computes c*
    code = ("import sys, numpy, ncfock, ncfock.cli\n"
            "nodes = 0.3 * numpy.random.default_rng(1).normal(size=(20, 3))\n"
            "targets = numpy.linspace(-0.5, 0.5, 20)\n"
            "ncfock.certify(ncfock.PickProblem(nodes, targets))\n"
            "ncfock.min_interpolation_norm(ncfock.PickProblem(nodes, targets))\n"
            "doc = {'kind': 'pick', 'n': 3, 'points': [[[x, 0.0] for x in p] for p in nodes.tolist()],\n"
            "       'targets': [[[[w, 0.0]]] for w in targets.tolist()]}\n"
            "open(sys.argv[1], 'w').write(__import__('json').dumps(doc))\n"
            "code = ncfock.cli.main(['pick', 'interpolant', sys.argv[1], '--out', sys.argv[2]])\n"
            "print('scipy' in sys.modules, code, ncfock.numerics._BLAS_SCOPE.status)")
    src = os.path.dirname(os.path.dirname(ncfock.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "p.json"),
                          str(tmp_path / "report.txt")], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.startswith("False 0 ")
    assert (tmp_path / "report.txt").read_text().startswith("ncfock pick interpolant")


def test_c0_sequence_holds_one_scope_around_its_loop(two_blas_threads, monkeypatch):
    # at d = 32 the map's products and the norms run on one thread, and the
    # values are those of the loop run on the process's threads
    T = random_row_contraction(np.random.default_rng(5), 2, 32)
    x, expected = np.eye(32, dtype=complex), [1.0]
    for _ in range(20):
        x = T.cp_map(x)
        expected.append(float(np.linalg.svd(x, compute_uv=False)[0]))
    counts, cp_map = [], T.cp_map
    monkeypatch.setattr(T, "cp_map", lambda x: counts.append(_BLAS_SCOPE.counts()) or cp_map(x))
    assert c0_sequence(T, 20) == pytest.approx(expected, rel=1e-13, abs=0)
    assert len(counts) == 20 and all(set(c.values()) <= {1} for c in counts)
    assert _BLAS_SCOPE.counts() == two_blas_threads

    def failing(x):
        raise FloatingPointError("map failed")
    monkeypatch.setattr(T, "cp_map", failing)
    with pytest.raises(FloatingPointError):
        c0_sequence(T, 5)
    assert _BLAS_SCOPE.counts() == two_blas_threads

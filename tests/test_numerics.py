import collections
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  loaded first, so that the fixture below sets its OpenBLAS too

import ncfock
from ncfock import (DomainError, IdealSpec, NcPolynomial, PickProblem, SingularGramError,
                    as_hermitian, build_quotient, c0_sequence, certify, freealg, hermitian_sqrt,
                    ideals, min_interpolation_norm, numerics, operator_norm, psd_check)
from ncfock.numerics import _BLAS_SCOPE
from helpers import max_generalized_eigenvalue, random_row_contraction, random_unitary


@pytest.fixture
def two_threads():
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
    # a stack takes one batched SVD, with the values of one call per matrix
    stack = rng.normal(size=(5, 7, 3)) + 1j * rng.normal(size=(5, 7, 3))
    assert operator_norm(stack).tolist() == [operator_norm(x) for x in stack]
    assert operator_norm(np.zeros((4, 0, 3))).tolist() == [0.0] * 4


def test_svd_retries_with_gesvd_when_gesdd_does_not_converge(monkeypatch):
    a = np.random.default_rng(2).normal(size=(6, 4)) + 0j
    _, s, _ = numerics._svd(a)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", failing)
    u, t, vh = numerics._svd(a)
    assert t == pytest.approx(s, rel=1e-13)
    assert np.abs((u * t) @ vh - a).max() <= 1e-13


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
def test_psd_check_leaves_the_thread_count(two_threads, size):
    rng = np.random.default_rng(size)
    g = rng.normal(size=(size, size))
    assert not psd_check(g + g.T).is_psd
    assert _BLAS_SCOPE.counts() == two_threads


def _public_call(name: str, side: int):
    """A call of a public entry whose LAPACK calls have sides up to 16 (side 3)
    or one above 256 (side 300): sizes that the former size gates left on
    the process's threads."""
    rng = np.random.default_rng(side)
    g = rng.normal(size=(side, side))
    if name == "psd_check":
        return lambda: psd_check(g + g.T)
    if name == "operator_norm":
        return lambda: operator_norm(g)
    if name == "hermitian_sqrt":
        return lambda: hermitian_sqrt(g @ g.T)
    if name == "build_quotient":
        # the words avoiding e1 e1 (m = 2) or e1 e1 e1 (m = 9); the last
        # step of the latter factors 298 candidates
        word, m = ((1, 1), 2) if side == 3 else ((1, 1, 1), 9)
        return lambda: build_quotient(IdealSpec(2, (NcPolynomial(2, {word: 1.0}),), m))
    # k nodes with N x N targets: the Pick matrix has side k N
    k, N = (3, 1) if side == 3 else (30, 10)
    nodes = rng.normal(size=(k, 3))
    nodes *= 0.8 / np.linalg.norm(nodes, axis=1, keepdims=True)
    return lambda: certify(PickProblem(nodes, 0.3 * rng.normal(size=(k, N, N))))


@pytest.mark.parametrize("side", [3, 300])
@pytest.mark.parametrize("name", ["psd_check", "operator_norm", "hermitian_sqrt",
                                  "build_quotient", "certify"])
def test_public_entries_run_on_one_thread_at_every_size(two_threads, monkeypatch,
                                                        name, side):
    call = _public_call(name, side)
    monkeypatch.setattr(ideals, "_memo", collections.OrderedDict())
    seen = []
    for lapack in ("eigh", "eigvalsh", "svd", "qr", "cholesky", "solve", "lstsq"):
        def recorded(a, *args, _lapack=getattr(np.linalg, lapack), **kwargs):
            seen.append((_BLAS_SCOPE.counts(), max(np.shape(a)[-2:])))
            return _lapack(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, lapack, recorded)
    call()
    sides = [size for _, size in seen]
    assert max(sides) <= 16 if side == 3 else max(sides) > 256
    assert all(counts == dict.fromkeys(two_threads, 1) for counts, _ in seen)
    assert _BLAS_SCOPE.counts() == two_threads


def test_thread_count_is_restored_when_the_call_raises(two_threads):
    # k = 17 nodes, two of them 2e-13 apart: c* raises inside its one-thread scope
    size = 17
    nodes = np.linspace(-0.8, 0.8, size)
    nodes[1] = nodes[0] + 2e-13
    with pytest.raises(SingularGramError):
        min_interpolation_norm(PickProblem(nodes[:, None], [0.5] * size))
    with pytest.raises(DomainError):
        hermitian_sqrt(np.diag(np.linspace(-0.5, 1.0, size)))
    assert _BLAS_SCOPE.counts() == two_threads


def test_nested_scopes_restore_the_outer_count(two_threads):
    with _BLAS_SCOPE:
        outer = _BLAS_SCOPE.counts()
        with _BLAS_SCOPE:
            psd_check(np.eye(17))
        assert _BLAS_SCOPE.counts() == outer
    assert _BLAS_SCOPE.counts() == two_threads


def test_scopes_from_many_python_threads_restore_the_count(two_threads):
    a = np.diag(np.arange(1.0, 18.0))
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
    assert _BLAS_SCOPE.counts() == two_threads


def _fresh_python(code: str, *args: str, **env) -> str:
    """stdout of code run in a new interpreter that imports ncfock from this tree."""
    src = os.path.dirname(os.path.dirname(ncfock.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def test_pick_certification_does_not_import_scipy(tmp_path):
    # the Pick matrix and c* of 20 nodes, which take the one-thread scope;
    # then the same nodes through `pick interpolant`, which also computes c*
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
    out = _fresh_python(code, str(tmp_path / "p.json"), str(tmp_path / "report.txt"))
    assert out.startswith("False 0 ")
    assert (tmp_path / "report.txt").read_text().startswith("ncfock pick interpolant")


def test_norm_solve_and_vonneumann_do_not_import_scipy():
    # the Gram solve and its certificate run on numpy's LAPACK: one solve,
    # then `poisson vonneumann` on a problem file, leave scipy unloaded, and
    # numpy's OpenBLAS reads one thread inside the solve and its own two
    # after; this module has imported scipy already, so a fresh interpreter
    problem = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "problems", "poisson_three_letters.json")
    code = ("import contextlib, io, sys\n"
            "from ncfock import NcPolynomial, cli, freealg\n"
            "from ncfock.numerics import _BLAS_SCOPE as scope\n"
            "seen, schur = [], freealg._schur_system\n"
            "freealg._schur_system = (lambda *a:\n"
            "    seen.append(scope.counts().get('numpy')) or schur(*a))\n"
            "p = NcPolynomial(2, {(): 0.5, (1,): 1.0, (2, 1): -0.25, (1, 2, 2): 0.2j})\n"
            "method = freealg.sup_norm_bounds(p, 3).lower_method\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(['poisson', 'vonneumann', sys.argv[1], '--json'])\n"
            "print(method, code, '\"fejer_riesz_dual\"' in out.getvalue(), 'scipy' in sys.modules,\n"
            "      '/', *set(seen), '/', scope.counts().get('numpy'), '/', scope.status['numpy'])")
    out = _fresh_python(code, problem, OPENBLAS_NUM_THREADS="2").split(" / ")
    assert out[0].split() == ["fejer_riesz_dual", "0", "True", "False"]
    if out[3].startswith("not controlled: no "):
        pytest.skip("numpy bundles no OpenBLAS here; the scope is a no-op")
    assert out[1:3] == ["1", "2"]


def test_c0_sequence_holds_one_scope_around_its_loop(two_threads, monkeypatch):
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
    assert _BLAS_SCOPE.counts() == two_threads

    def failing(x):
        raise FloatingPointError("map failed")
    monkeypatch.setattr(T, "cp_map", failing)
    with pytest.raises(FloatingPointError):
        c0_sequence(T, 5)
    assert _BLAS_SCOPE.counts() == two_threads


def test_gram_solve_and_certificate_run_on_one_thread(two_threads, monkeypatch):
    # on a suffix closure of 6 words and 8 pairs: the norm solve holds one
    # scope, and restores the counts after it returns and after it raises
    p = NcPolynomial(2, {(): 0.5, (1,): 1.0, (2, 1): -0.25, (1, 2, 2): 0.2j})
    counts, schur, bounds = [], freealg._schur_system, freealg._fejer_riesz_bounds
    monkeypatch.setattr(freealg, "_schur_system",
                        lambda *a: counts.append(_BLAS_SCOPE.counts()) or schur(*a))
    monkeypatch.setattr(freealg, "_fejer_riesz_bounds",
                        lambda *a: counts.append(_BLAS_SCOPE.counts()) or bounds(*a))
    assert freealg.sup_norm_bounds(p, 3).lower_method == "fejer_riesz_dual"
    assert len(counts) > 2
    assert all(c == dict.fromkeys(two_threads, 1) for c in counts)
    assert _BLAS_SCOPE.counts() == two_threads

    def failing(*args):
        raise FloatingPointError("certificate failed")
    monkeypatch.setattr(freealg, "_fejer_riesz_bounds", failing)
    with pytest.raises(FloatingPointError):
        freealg.sup_norm_bounds(p, 3)
    assert _BLAS_SCOPE.counts() == two_threads

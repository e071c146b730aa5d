import collections
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import ncfock
from ncfock import (DomainError, IdealSpec, NcPolynomial, PickProblem, SingularGramError,
                    as_hermitian, build_quotient, c0_sequence, certify, freealg, hermitian_sqrt,
                    ideals, min_norm_and_condition, numerics, operator_norm, psd_check)
from ncfock.numerics import _BLAS_SCOPE
from helpers import max_generalized_eigenvalue, random_row_contraction, random_unitary


@pytest.fixture
def two_threads():
    """numpy's OpenBLAS at 2 threads, so that a lost restore shows; None when
    the scope controls no library."""
    before = _BLAS_SCOPE.count()
    if before is not None:
        _BLAS_SCOPE._set(2)
    yield _BLAS_SCOPE.count()
    if before is not None:
        _BLAS_SCOPE._set(before)


def _one(two_threads):
    """The count a scope sets: 1, or None when it controls no library."""
    return None if two_threads is None else 1


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


@pytest.mark.parametrize("full_matrices", [False, True])
def test_svd_retries_on_the_adjoint_when_gesdd_does_not_converge(monkeypatch, full_matrices):
    a = np.random.default_rng(2).normal(size=(6, 4)) + 1j
    _, s, _ = numerics._svd(a)
    calls, svd = [], np.linalg.svd

    def failing_once(x, *args, **kwargs):
        calls.append(x.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(x, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", failing_once)
    u, t, vh = numerics._svd(a, full_matrices=full_matrices)
    assert calls == [(6, 4), (4, 6)]
    side = 6 if full_matrices else 4
    assert u.shape == (6, side) and vh.shape == (4, 4)
    assert t == pytest.approx(s, rel=1e-13)
    assert np.abs((u[:, :4] * t) @ vh - a).max() <= 1e-13
    assert np.abs(u.conj().T @ u - np.eye(side)).max() <= 1e-13
    assert np.abs(vh @ vh.conj().T - np.eye(4)).max() <= 1e-13


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
    if _BLAS_SCOPE.status.startswith("not controlled: no "):
        pytest.skip("numpy bundles no OpenBLAS here; the scope is a no-op")
    assert _BLAS_SCOPE.status == "controlled"


@pytest.mark.parametrize("size", [40, 600])
def test_psd_check_leaves_the_thread_count(two_threads, size):
    rng = np.random.default_rng(size)
    g = rng.normal(size=(size, size))
    assert not psd_check(g + g.T).is_psd
    assert _BLAS_SCOPE.count() == two_threads


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
            seen.append((_BLAS_SCOPE.count(), max(np.shape(a)[-2:])))
            return _lapack(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, lapack, recorded)
    call()
    sides = [size for _, size in seen]
    assert max(sides) <= 16 if side == 3 else max(sides) > 256
    assert all(count == _one(two_threads) for count, _ in seen)
    assert _BLAS_SCOPE.count() == two_threads


def test_thread_count_is_restored_when_the_call_raises(two_threads):
    # k = 17 nodes, two of them 2e-13 apart: c* raises inside its one-thread scope
    size = 17
    nodes = np.linspace(-0.8, 0.8, size)
    nodes[1] = nodes[0] + 2e-13
    with pytest.raises(SingularGramError):
        min_norm_and_condition(PickProblem(nodes[:, None], [0.5] * size))
    with pytest.raises(DomainError):
        hermitian_sqrt(np.diag(np.linspace(-0.5, 1.0, size)))
    assert _BLAS_SCOPE.count() == two_threads


def test_nested_scopes_restore_the_outer_count(two_threads):
    with _BLAS_SCOPE:
        outer = _BLAS_SCOPE.count()
        with _BLAS_SCOPE:
            psd_check(np.eye(17))
        assert _BLAS_SCOPE.count() == outer
    assert _BLAS_SCOPE.count() == two_threads


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
    assert _BLAS_SCOPE.count() == two_threads


def _fresh_python(code: str, *args: str, **env) -> str:
    """stdout of code run in a new interpreter that imports ncfock from this tree."""
    src = os.path.dirname(os.path.dirname(ncfock.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


# a fresh interpreter, since this module has imported scipy already, that
# blocks it as sys.modules["scipy"] = None does, so that any import of it raises
_BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"
_LOADED_SCIPY = ("[name for name, module in sys.modules.items()\n"
                 " if name.startswith('scipy') and module is not None]")


def test_pick_certification_does_not_import_scipy(tmp_path):
    # the Pick matrix and c* of 20 nodes, which take the one-thread scope;
    # then the same nodes through `pick interpolant`, which also computes c*
    code = (_BLOCK_SCIPY +
            "import json, numpy\n"
            "from ncfock import PickProblem, certify, cli, min_norm_and_condition\n"
            "nodes = 0.3 * numpy.random.default_rng(1).normal(size=(20, 3))\n"
            "targets = numpy.linspace(-0.5, 0.5, 20)\n"
            "certify(PickProblem(nodes, targets))\n"
            "min_norm_and_condition(PickProblem(nodes, targets))\n"
            "doc = {'kind': 'pick', 'n': 3,\n"
            "       'points': [[[x, 0.0] for x in p] for p in nodes.tolist()],\n"
            "       'targets': [[[[w, 0.0]]] for w in targets.tolist()]}\n"
            "open(sys.argv[1], 'w').write(json.dumps(doc))\n"
            "code = cli.main(['pick', 'interpolant', sys.argv[1], '--out', sys.argv[2]])\n"
            f"print(json.dumps(dict(code=code, scipy={_LOADED_SCIPY})))")
    out = json.loads(_fresh_python(code, str(tmp_path / "p.json"), str(tmp_path / "report.txt")))
    assert out == {"code": 0, "scipy": []}
    assert (tmp_path / "report.txt").read_text().startswith("ncfock pick interpolant")


def test_norm_solve_and_vonneumann_do_not_import_scipy():
    # the Gram solve and its certificate, the truncated fallback, and
    # `poisson vonneumann` on a problem file run on numpy alone; numpy's
    # OpenBLAS reads one thread inside the solve and the fallback, and its
    # own two after
    problem = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "problems", "poisson_three_letters.json")
    code = (_BLOCK_SCIPY +
            "import contextlib, io, json\n"
            "from ncfock import NcPolynomial, cli, freealg\n"
            "from ncfock.numerics import _BLAS_SCOPE as scope\n"
            "seen = []\n"
            "for name in ('_schur_system', '_compressed_square'):\n"
            "    setattr(freealg, name, lambda *a, f=getattr(freealg, name):\n"
            "            seen.append(scope.count()) or f(*a))\n"
            "p = NcPolynomial(2, {(): 0.5, (1,): 1.0, (2, 1): -0.25, (1, 2, 2): 0.2j})\n"
            "cap = freealg.FEJER_RIESZ_MAX_WORK\n"
            "methods = [freealg.sup_norm_bounds(p, 3).lower_method]\n"
            "freealg.FEJER_RIESZ_MAX_WORK = 0\n"
            "methods.append(freealg.sup_norm_bounds(p, 3).lower_method)\n"
            "freealg.FEJER_RIESZ_MAX_WORK = cap\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(['poisson', 'vonneumann', sys.argv[1], '--json'])\n"
            "print(json.dumps(dict(\n"
            "    methods=methods, code=code, report=json.loads(out.getvalue()),\n"
            f"    scipy={_LOADED_SCIPY}, inside=list(set(seen)), after=scope.count(),\n"
            "    status=scope.status)))")
    out = json.loads(_fresh_python(code, problem, OPENBLAS_NUM_THREADS="2"))
    assert out["methods"] == ["fejer_riesz_dual", "truncated"]
    assert (out["code"], out["scipy"]) == (0, [])
    assert out["report"]["results"]["lower_method"] == "fejer_riesz_dual"
    if out["status"].startswith("not controlled: no "):
        pytest.skip("numpy bundles no OpenBLAS here; the scope is a no-op")
    assert (out["inside"], out["after"]) == ([1], 2)


def test_svd_retry_on_the_adjoint_does_not_import_scipy():
    # the quotient by the triangle ideal, where zgesdd fails (test_ideals)
    # and the SVD retries on a*, builds on numpy alone
    code = (_BLOCK_SCIPY +
            "import json\n"
            "from ncfock import IdealSpec, NcPolynomial, build_quotient\n"
            "triangle = NcPolynomial(2, {(1, 2): 1.0, (2, 1): -1.0, (1,): 0.47878923076784435})\n"
            "rows = build_quotient(IdealSpec(2, (triangle,), 8)).n_basis.shape[0]\n"
            f"print(json.dumps(dict(rows=rows, scipy={_LOADED_SCIPY})))")
    # the last line: OpenBLAS prints its complaint about the failed zgesdd first
    out = json.loads(_fresh_python(code).splitlines()[-1])
    assert out == {"rows": 511, "scipy": []}


def test_c0_sequence_holds_one_scope_around_its_loop(two_threads, monkeypatch):
    # at d = 32 the map's products and the norms run on one thread, and the
    # values are those of the loop run on the process's threads
    T = random_row_contraction(np.random.default_rng(5), 2, 32)
    x, expected = np.eye(32, dtype=complex), [1.0]
    for _ in range(20):
        x = T.cp_map(x)
        expected.append(float(np.linalg.svd(x, compute_uv=False)[0]))
    counts, cp_map = [], T.cp_map
    monkeypatch.setattr(T, "cp_map", lambda x: counts.append(_BLAS_SCOPE.count()) or cp_map(x))
    assert c0_sequence(T, 20) == pytest.approx(expected, rel=1e-13, abs=0)
    assert len(counts) == 20 and all(c == _one(two_threads) for c in counts)
    assert _BLAS_SCOPE.count() == two_threads

    def failing(x):
        raise FloatingPointError("map failed")
    monkeypatch.setattr(T, "cp_map", failing)
    with pytest.raises(FloatingPointError):
        c0_sequence(T, 5)
    assert _BLAS_SCOPE.count() == two_threads


def test_gram_solve_and_certificate_run_on_one_thread(two_threads, monkeypatch):
    # on a suffix closure of 6 words and 8 pairs: the norm solve holds one
    # scope, and restores the counts after it returns and after it raises
    p = NcPolynomial(2, {(): 0.5, (1,): 1.0, (2, 1): -0.25, (1, 2, 2): 0.2j})
    counts, schur, bounds = [], freealg._schur_system, freealg._fejer_riesz_bounds
    monkeypatch.setattr(freealg, "_schur_system",
                        lambda *a: counts.append(_BLAS_SCOPE.count()) or schur(*a))
    monkeypatch.setattr(freealg, "_fejer_riesz_bounds",
                        lambda *a: counts.append(_BLAS_SCOPE.count()) or bounds(*a))
    assert freealg.sup_norm_bounds(p, 3).lower_method == "fejer_riesz_dual"
    assert len(counts) > 2
    assert all(c == _one(two_threads) for c in counts)
    assert _BLAS_SCOPE.count() == two_threads

    def failing(*args):
        raise FloatingPointError("certificate failed")
    monkeypatch.setattr(freealg, "_fejer_riesz_bounds", failing)
    with pytest.raises(FloatingPointError):
        freealg.sup_norm_bounds(p, 3)
    assert _BLAS_SCOPE.count() == two_threads


def test_truncated_fallback_runs_on_one_thread(two_threads, monkeypatch):
    # above the work cap the Lanczos products, its Gram-Schmidt and its eigh
    # hold one scope, and the counts come back after it returns
    p = NcPolynomial(2, {(): 0.5, (1,): 1.0, (2, 1): -0.25, (1, 2, 2): 0.2j})
    monkeypatch.setattr(freealg, "FEJER_RIESZ_MAX_WORK", 0)
    counts, square = [], freealg._compressed_square
    monkeypatch.setattr(freealg, "_compressed_square",
                        lambda *a: counts.append(_BLAS_SCOPE.count()) or square(*a))
    assert freealg.sup_norm_bounds(p, 5).lower_method == "truncated"
    assert len(counts) > 2
    assert all(c == _one(two_threads) for c in counts)
    assert _BLAS_SCOPE.count() == two_threads

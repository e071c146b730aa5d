import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ncfock import ideals
from ncfock import (BallPoint, DomainError, IdealSpec, NcPolynomial, ResourceCapError,
                    RowContraction, WordIndex, build_quotient, caratheodory_distance,
                    constrained_von_neumann_check, evaluate, ideal_subspace,
                    mult_matrix, q_commutation_spec, quotient_distance,
                    quotient_poisson_check, sup_norm_bounds, tensor_product,
                    truncated_mult_matrix)
from helpers import dense_complement, padded_dense_rows, random_polynomial, symmetrized_basis


@pytest.fixture(autouse=True)
def _empty_memo():
    # every test starts from an empty recursion memo, so cap and timing
    # tests measure fresh builds, not states an earlier test left behind
    ideals._memo.clear()
    yield
    ideals._memo.clear()


def _projector_distance(a, b):
    return np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        IdealSpec(2, (NcPolynomial.zero(2),), 4)
    with pytest.raises(ValueError):
        IdealSpec(2, (NcPolynomial(2, {(1, 1, 1): 1.0}),), 2)
    with pytest.raises(TypeError):
        IdealSpec(2, (NcPolynomial.generator(2, 1),), 4, homogeneous=False)
    spec = IdealSpec(2, (NcPolynomial(2, {(1,): 1.0, (): 1.0}),), 4)
    assert not spec.homogeneous
    with pytest.raises(AttributeError):
        spec.homogeneous = True


def test_ideal_subspace_single_generator_line():
    spec = IdealSpec(1, (NcPolynomial.generator(1, 1),), 2)
    basis = ideal_subspace(spec)
    assert basis.shape == (3, 2)
    # spans {e_1, e_1 e_1}: no vacuum component
    assert np.allclose(basis[0, :], 0.0, atol=1e-14)


def test_ideal_subspace_unit_generator_fills_everything():
    spec = IdealSpec(2, (NcPolynomial.unit(2),), 3)
    basis = ideal_subspace(spec)
    assert basis.shape == (15, 15)
    model = build_quotient(spec)
    assert model.trivial
    assert model.dim == 0


def test_ideal_subspace_q_commutation_grade_two():
    spec = q_commutation_spec(2, 1.0, 2)
    basis = ideal_subspace(spec)
    wi = WordIndex(2, 2)
    grade2 = basis[wi.grade_slice(2), :]
    ranks = np.linalg.matrix_rank(grade2)
    assert basis.shape[1] == 1
    assert ranks == 1


def test_build_quotient_symmetric_dimensions():
    model = build_quotient(q_commutation_spec(2, 1.0, 6))
    assert model.grade_dimensions() == [1, 2, 3, 4, 5, 6, 7]
    assert model.reliable_degree == 4
    # n = 3 commuting: grade-k dimension C(k + 2, 2)
    model3 = build_quotient(q_commutation_spec(3, 1.0, 4))
    assert model3.grade_dimensions() == [1, 3, 6, 10, 15]


def test_build_quotient_antisymmetric_grade_two():
    model = build_quotient(q_commutation_spec(2, -1.0, 4))
    assert model.grade_dimensions()[2] == 3
    wi = WordIndex(2, 4)
    block = model.n_basis[wi.grade_slice(2), model.grade_positions(2)]
    # complement of e21 + e12: contains e11, e22 and (e12 - e21)/sqrt(2)
    target = np.zeros((4, 3))
    target[0, 0] = 1.0
    target[3, 1] = 1.0
    target[1, 2] = 1.0 / np.sqrt(2)
    target[2, 2] = -1.0 / np.sqrt(2)
    assert _projector_distance(block, target) < 1e-12


def test_build_quotient_shift_model():
    spec = IdealSpec(3, (NcPolynomial.generator(3, 2), NcPolynomial.generator(3, 3)), 5)
    model = build_quotient(spec)
    assert model.grade_dimensions() == [1, 1, 1, 1, 1, 1]
    assert np.linalg.norm(model.compressions[1], 2) < 1e-12
    assert np.linalg.norm(model.compressions[2], 2) < 1e-12
    shift = model.compressions[0]
    sub = shift[:-1, :-1] if False else shift
    # truncated unilateral shift: ones on the subdiagonal in the grade order
    expected = np.zeros((6, 6))
    for k in range(5):
        expected[k + 1, k] = 1.0
    assert np.linalg.norm(np.abs(sub) - expected, 2) < 1e-12


def test_q_commutation_spec_generators():
    spec = q_commutation_spec(2, 1.0, 3)
    assert len(spec.generators) == 1
    assert spec.generators[0].terms == {(2, 1): 1.0 + 0.0j, (1, 2): -1.0 + 0.0j}
    spec_minus = q_commutation_spec(2, -1.0, 3)
    assert spec_minus.generators[0].terms == {(2, 1): 1.0 + 0.0j, (1, 2): 1.0 + 0.0j}
    assert len(q_commutation_spec(3, 1.0, 3).generators) == 3
    assert spec.homogeneous


def test_symmetrized_basis_grade_two():
    basis = symmetrized_basis(2, 1.0, 2)
    wi = WordIndex(2, 2)
    grade2 = basis[wi.grade_slice(2), 3:]
    assert grade2.shape == (4, 3)
    s = 1.0 / np.sqrt(2)
    # nondecreasing-word order: (1,1), (1,2), (2,2)
    assert np.allclose(grade2[:, 0], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(grade2[:, 1], [0.0, s, s, 0.0])
    assert np.allclose(grade2[:, 2], [0.0, 0.0, 0.0, 1.0])


def test_symmetrized_basis_dimensions():
    basis = symmetrized_basis(2, 1.0, 5)
    assert basis.shape[1] == sum(k + 1 for k in range(6))
    # grades 0 and 1 are always full
    three = symmetrized_basis(3, -1.0, 1)
    assert three.shape[1] == 4


def test_symmetrized_matches_quotient_complement():
    rng = np.random.default_rng(101)
    cases = [(n, m, {(j, i): np.exp(2j * np.pi * rng.uniform())
                     for j in range(2, n + 1) for i in range(1, j)})
             for n, m in [(2, 5), (3, 4)]]
    cases += [(n, m, lam) for n, m in [(2, 5), (3, 4)] for lam in (0.5j, 3.0, 2 - 1j)]
    for n, m, pairs in cases:
        sym = symmetrized_basis(n, pairs, m)
        model = build_quotient(q_commutation_spec(n, pairs, m))
        assert sym.shape[1] == model.dim
        assert _projector_distance(sym, model.n_basis) < 1e-10


MIXED_TABLE = {(2, 1): 1.0, (3, 1): -1.0, (3, 2): 0.5j}


@pytest.mark.parametrize("n, lam", [(n, lam) for n in (2, 3, 4)
                                    for lam in (0.0, -1.0, 1j, 0.5, 3.0)]
                         + [(3, MIXED_TABLE)])
def test_q_commutation_grades_are_symmetric_powers(n, lam):
    m = {2: 13, 3: 6, 4: 5}[n]
    model = build_quotient(q_commutation_spec(n, lam, m))
    assert model.grade_dimensions() == [math.comb(k + n - 1, n - 1) for k in range(m + 1)]
    keep = np.flatnonzero(model.grades <= model.reliable_degree)
    for g in model.spec.generators:
        assert np.linalg.norm(evaluate(g, model.compressions)[:, keep], 2) <= 1e-10


def _homogeneous_specs():
    """Random degree-2 plus degree-3 pairs, a sparse monomial and a
    constant beside a commutator."""
    rng = np.random.default_rng(23)
    for n, m in [(2, 6), (3, 4)]:
        for _ in range(3):
            yield IdealSpec(n, (random_polynomial(rng, n, 2, terms=2, homogeneous=True),
                                random_polynomial(rng, n, 3, terms=3, homogeneous=True)), m)
    yield IdealSpec(3, (NcPolynomial(3, {(1, 2, 3): 1.0}),), 5)
    yield IdealSpec(2, (NcPolynomial(2, {(): 0.5}), q_commutation_spec(2, 1.0, 2).generators[0]), 4)


def test_homogeneous_model_matches_dense_padded_complement():
    # the graded recursion against the complement of all padded generator rows
    for spec in _homogeneous_specs():
        n, m = spec.n, spec.m
        model = build_quotient(spec)
        rows = padded_dense_rows(spec, WordIndex(n, m))
        dense = dense_complement(rows, ideals.RANK_TOL)
        assert model.dim == dense.shape[1]
        assert _projector_distance(model.n_basis, dense) < 1e-10


@pytest.mark.parametrize("n, factor, m, counts", [
    (3, (1, 2, 3), 6, [1, 3, 9, 26, 75, 216, 622]),     # a_k = 3 a_{k-1} - a_{k-3}
    (2, (1, 1), 12, [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377])])   # Fibonacci
def test_monomial_quotient_grades_count_the_words_avoiding_it(n, factor, m, counts):
    # the quotient by a monomial is spanned by the words that avoid it as a factor
    model = build_quotient(IdealSpec(n, (NcPolynomial(n, {factor: 1.0}),), m))
    wi = WordIndex(n, m)
    containing = [any(w[i:i + len(factor)] == factor for i in range(len(w)))
                  for w in wi.words()]
    assert model.grade_dimensions() == counts
    assert model.dim == len(containing) - sum(containing)
    # orthonormal columns, as many as the avoiding words, vanishing off them
    assert np.abs(model.n_basis[containing]).max() < 1e-12


def _random_complex(rng):
    return complex(*rng.normal(size=2))


def _non_homogeneous_specs():
    """[e1, e2] + c e1, random complex degree-1 generators with a constant,
    and random degree-2 plus degree-3 pairs."""
    rng = np.random.default_rng(31)
    for n, m_max in [(2, 7), (3, 4)]:
        for m in range(2, m_max + 1):
            c = 0.2 + 0.3 * rng.uniform()
            g = NcPolynomial(n, {(1, 2): 1.0, (2, 1): -1.0, (1,): c})
            yield pytest.param(IdealSpec(n, (g,), m), id=f"commutator-n{n}-m{m}")
    for n, m in [(2, 5), (3, 3)]:
        for t in range(2):
            g = NcPolynomial(n, {(): _random_complex(rng),
                                 **{(i,): _random_complex(rng) for i in range(1, n + 1)}})
            yield pytest.param(IdealSpec(n, (g,), m), id=f"linear-n{n}-m{m}-{t}")
    for n, m in [(2, 6), (3, 4)]:
        for t in range(2):
            gens = (random_polynomial(rng, n, 2, terms=3) + NcPolynomial(n, {(2, 1): 1.0}),
                    random_polynomial(rng, n, 3, terms=4) + NcPolynomial(n, {(1, 2, 2): 1.0}))
            yield pytest.param(IdealSpec(n, gens, m), id=f"degree23-n{n}-m{m}-{t}")


@pytest.mark.parametrize("spec", _non_homogeneous_specs())
def test_non_homogeneous_model_matches_dense_padded_complement(spec):
    # the degree recursion against the complement of all padded generator
    # rows and the compressions N* S N of the dense truncated shifts
    n, m = spec.n, spec.m
    model = build_quotient(spec)
    dense = dense_complement(padded_dense_rows(spec, WordIndex(n, m)), ideals.RANK_TOL)
    assert not spec.homogeneous and model.approximate
    assert model.dim == dense.shape[1]
    assert _projector_distance(model.n_basis, dense) < 1e-10
    W = dense.conj().T @ model.n_basis
    for i in range(n):
        shift = truncated_mult_matrix(NcPolynomial.generator(n, i + 1), m)
        expected = W.conj().T @ (dense.conj().T @ shift @ dense) @ W
        assert np.linalg.norm(model.compressions[i] - expected, 2) < 1e-10
    rng = np.random.default_rng(m)
    for _ in range(10):
        f = random_polynomial(rng, n, int(rng.integers(0, m + 1)), terms=4)
        expected = np.linalg.norm(dense.conj().T @ truncated_mult_matrix(f, m) @ dense, 2)
        assert quotient_distance(f, spec, model=model) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("n, m, lead, count, message", [
    (2, 12, (1,) * 12, 2500, "degree-12 candidate space of size 8191"),
    (65, 2, (1,), 3200, "degree-2 candidate space of size 4290")],
    ids=["first-degree", "later-degree"])
def test_non_homogeneous_candidate_cap_fails_fast(n, m, lead, count, message):
    # e_lead + 0.5 and `count` degree-m monomials: the padded products leave
    # dim N small enough for the compressions' pre-check, but the candidates
    # pass GRADE_COORD_CAP, at the first degree (all of P_12) or at degree 2
    # (65 + 65^2, after the grade-1 block of N_1 has full rank)
    words = itertools.islice(itertools.product(range(1, n + 1), repeat=m), count)
    gens = (NcPolynomial(n, {lead: 1.0, (): 0.5}),) + tuple(
        NcPolynomial(n, {word: 1.0}) for word in words)
    spec = IdealSpec(n, gens, m)
    start = time.process_time()
    with pytest.raises(ResourceCapError, match=message):
        build_quotient(spec)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("cap, value, message", [
    ("GRADE_COORD_CAP", 40, "degree-6 candidate space of size 53"),
    ("MAX_DENSE_ENTRIES", 4000, "degree-6 candidates of 127 x 53 entries")],
    ids=["coordinate-cap", "entry-cap"])
def test_non_homogeneous_caps_precede_each_degree(monkeypatch, cap, value, message):
    # degree 6 of [e1, e2] + c e1 has 53 candidates in P_6 (D = 127), degree
    # 5 has 37 in P_5 (D = 63); the caps stop degree 6 before its shifts are
    # formed, while the final compressions (2 x 28 x 28) would fit
    spec = IdealSpec(2, (NcPolynomial(2, {(1, 2): 1.0, (2, 1): -1.0, (1,): 0.3}),), 6)
    degrees = []
    shifts = ideals._left_adjoint_shifts
    monkeypatch.setattr(ideals, "_left_adjoint_shifts",
                        lambda X, n, m: degrees.append(m) or shifts(X, n, m))
    monkeypatch.setattr(ideals, cap, value)
    with pytest.raises(ResourceCapError, match=message):
        build_quotient(spec)
    assert degrees[-1] == 5


def test_non_homogeneous_model_past_the_old_dense_cap():
    # D(2, 12) = 8191 builds; ideal_subspace returns D rows and keeps its cap
    spec = IdealSpec(2, (NcPolynomial(2, {(1,): 1.0, (2,): -0.5, (): 0.3}),), 12)
    model = build_quotient(spec)
    assert model.n_basis.shape == (8191, 13)
    assert np.linalg.norm(model.n_basis.conj().T @ model.n_basis - np.eye(13), 2) < 1e-12
    with pytest.raises(ResourceCapError):
        ideal_subspace(spec)


def test_homogeneous_grade_coordinate_cap_fails_fast():
    # D(65, 3) minus the one padded product bounds dim N far above what the
    # compressions may hold, so the spec is refused before any grade is built
    spec = IdealSpec(65, (NcPolynomial(65, {(1, 2, 3): 1.0}),), 3)
    start = time.process_time()
    with pytest.raises(ResourceCapError):
        build_quotient(spec)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("generators, message", [
    # e1 e1: the first candidates are all n^2 = 4225 words of grade 2
    ([(1, 1)], "degree-2 candidate space of size 4225"),
    # e1: grade 1 keeps r_1 = 64 letters, so grade 2 has n * r_1 = 4160
    # candidates, refused in the step before it allocates them
    ([(1,)], "degree-2 candidate space of size 4160"),
], ids=["first-degree", "later-degree"])
def test_homogeneous_candidate_cap_fails_fast(generators, message):
    # 3300 degree-2 monomials at n = 65 leave dim N <= D(65, 2) - 3300, small
    # enough for the compressions, so only the candidate cap refuses the spec
    words = itertools.islice(itertools.product(range(2, 66), repeat=2), 3300)
    spec = IdealSpec(65, tuple(NcPolynomial(65, {word: 1.0})
                               for word in generators + list(words)), 2)
    start = time.process_time()
    with pytest.raises(ResourceCapError, match=message):
        build_quotient(spec)
    assert time.process_time() - start < 1.0


def test_homogeneous_basis_cap_precedes_allocation(monkeypatch):
    # D(2, 18) * sum_k (k + 1) is about 1e8 entries, above MAX_DENSE_ENTRIES
    def no_assembly(*args):
        raise AssertionError("n_basis assembled past the cap")
    monkeypatch.setattr(ideals, "_assemble", no_assembly)
    with pytest.raises(ResourceCapError):
        build_quotient(q_commutation_spec(2, 1.0, 18))


def test_compression_cap_fails_fast():
    # free n = 2, m = 12: D * r = 8191^2 is under MAX_DENSE_ENTRIES, the
    # compressions' n * r^2 = 2 * 8191^2 are not
    spec = IdealSpec(2, (), 12)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="compressions"):
        build_quotient(spec)
    assert time.perf_counter() - start < 10.0


def test_full_grades_skip_the_identity_coordinates():
    # the free spec keeps every grade whole: reaching its compression cap
    # allocates the grade blocks (about 85 MB up to grade 11), and no n r x n r
    # identity coordinates (128 MB each at grade 11) or products with them
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceCapError, match="compressions"):
            build_quotient(IdealSpec(2, (), 12))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 2 ** 20
    assert elapsed < 0.5


def test_dense_compression_cap_precedes_allocation(monkeypatch):
    # the dense path checks n * r^2 before it allocates the compressions
    spec = IdealSpec(2, (NcPolynomial(2, {(): 1.0, (1, 2): 1.0}),), 3)
    r = build_quotient(spec).dim
    monkeypatch.setattr(ideals, "MAX_DENSE_ENTRIES", 2 * r * r - 1)
    with pytest.raises(ResourceCapError, match="compressions"):
        build_quotient(spec)


def test_grade_exactness_across_truncations():
    spec4 = q_commutation_spec(2, 1.0, 4)
    spec7 = q_commutation_spec(2, 1.0, 7)
    b4 = ideal_subspace(spec4)
    b7 = ideal_subspace(spec7)
    wi4, wi7 = WordIndex(2, 4), WordIndex(2, 7)
    for k in range(5):
        blk4 = b4[wi4.grade_slice(k), :]
        blk7 = b7[wi7.grade_slice(k), :]
        blk4 = blk4[:, np.linalg.norm(blk4, axis=0) > 1e-12]
        blk7 = blk7[:, np.linalg.norm(blk7, axis=0) > 1e-12]
        assert blk4.shape[1] == blk7.shape[1]
        if blk4.shape[1]:
            assert _projector_distance(blk4, blk7) < 1e-10


@pytest.mark.parametrize("n, m", [(1, 4), (2, 3), (3, 3)])
def test_adjoint_shifts_drop_the_first_or_the_last_letter(n, m):
    # oracle: row beta of L_i* X is row i beta of X, and of R_i* X row beta i;
    # the recursion takes R_i* X as the reshape X[1:].reshape(-1, n, w)
    rng = np.random.default_rng(n + m)
    wi, below = WordIndex(n, m), WordIndex(n, m - 1)
    X = rng.normal(size=(wi.dim, 3)) + 1j * rng.normal(size=(wi.dim, 3))
    left, right = ideals._left_adjoint_shifts(X, n, m), X[1:].reshape(below.dim, n, 3)
    for j, beta in enumerate(below.words()):
        for i in range(1, n + 1):
            assert np.array_equal(left[j, i - 1], X[wi.index((i,) + beta)])
            assert np.array_equal(right[j, i - 1], X[wi.index(beta + (i,))])


def test_semi_invariance_under_adjoint_shifts():
    model = build_quotient(q_commutation_spec(2, 1.0, 6))
    wi = WordIndex(2, 6)
    n_basis = model.n_basis
    p = n_basis @ n_basis.conj().T
    keep = np.flatnonzero(model.grades <= model.reliable_degree)
    for i in (1, 2):
        shift = truncated_mult_matrix(NcPolynomial.generator(2, i), 6)
        residual = (np.eye(wi.dim) - p) @ shift.conj().T @ n_basis[:, keep]
        assert np.linalg.norm(residual, 2) < 1e-10


def test_q_relations_on_reliable_grades():
    rng = np.random.default_rng(7)
    lam = np.exp(2j * np.pi * rng.uniform())
    model = build_quotient(q_commutation_spec(2, lam, 6))
    b1, b2 = model.compressions
    keep = np.flatnonzero(model.grades <= model.reliable_degree)
    residual = (b2 @ b1 - lam * b1 @ b2)[:, keep]
    assert np.linalg.norm(residual, 2) < 1e-10


def test_quotient_distance_annihilates_ideal_combinations():
    spec = q_commutation_spec(2, 1.0, 6)
    g = spec.generators[0]
    left = NcPolynomial(2, {(1,): 0.7, (): 0.2})
    right = NcPolynomial(2, {(2,): -1.3, (): 0.4})
    f = tensor_product(tensor_product(left, g), right)
    assert quotient_distance(f, spec) < 1e-12
    assert quotient_distance(g, spec) < 1e-12


def test_non_homogeneous_model_is_flagged_and_spans_paddings():
    # truncation cuts through a non-homogeneous generator, so compression
    # norms carry no exactness certificate; the vector-level containment of
    # the padded family in the modeled ideal subspace is still exact
    g = NcPolynomial(2, {(1,): 1.0, (): -0.5})
    spec = IdealSpec(2, (g,), 5)
    assert not spec.homogeneous
    model = build_quotient(spec)
    assert model.approximate
    assert model.grades is None
    basis = ideal_subspace(spec)
    assert np.linalg.norm(basis.conj().T @ model.n_basis, 2) < 1e-12
    assert basis.shape[1] + model.dim == WordIndex(2, 5).dim
    padded = tensor_product(tensor_product(NcPolynomial(2, {(2,): 1.0}), g),
                            NcPolynomial(2, {(1,): 0.5, (): 1.0}))
    vec = padded.to_fock(5).coeffs
    residual = vec - basis @ (basis.conj().T @ vec)
    assert np.linalg.norm(residual) < 1e-12


def test_quotient_distance_unit_is_one():
    spec = q_commutation_spec(2, 1.0, 6)
    assert quotient_distance(NcPolynomial.unit(2), spec) == pytest.approx(1.0, abs=1e-12)


def test_quotient_distance_below_sup_norm():
    rng = np.random.default_rng(9)
    spec = q_commutation_spec(2, 1.0, 6)
    for _ in range(8):
        f = random_polynomial(rng, 2, 3, terms=5)
        _, upper = sup_norm_bounds(f, 4)
        assert quotient_distance(f, spec) <= upper + 1e-12


def test_quotient_distance_monotone_in_degree():
    f = NcPolynomial(2, {(): 1.0, (1,): 1.0, (2, 1): -0.5})
    values = [quotient_distance(f, q_commutation_spec(2, 1.0, m)) for m in (3, 5, 7)]
    assert values[0] <= values[1] + 1e-12
    assert values[1] <= values[2] + 1e-12


def test_caratheodory_examples():
    assert caratheodory_distance(NcPolynomial.generator(2, 1), 1) == pytest.approx(1.0, abs=1e-13)
    assert caratheodory_distance(NcPolynomial.unit(3), 2) == pytest.approx(1.0, abs=1e-13)
    p = NcPolynomial(2, {(1, 2): 2.0, (2, 1): 1.0, (1, 1): -2.0})
    assert caratheodory_distance(p, 2) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("n, m0", [(2, 11), (1, 2048), (3, 7)])
def test_caratheodory_side_cap_fails_fast(n, m0):
    # D = 4095, 2049 and 3280 exceed CARATHEODORY_MAX_DIM: one dense SVD of
    # that side would take 10-25 s
    start = time.process_time()
    with pytest.raises(ResourceCapError, match="compression of side"):
        caratheodory_distance(NcPolynomial.generator(n, 1), m0)
    assert time.process_time() - start < 1.0


def test_caratheodory_monotone_in_degree():
    p = NcPolynomial(2, {(): 1.0, (1,): 1.0})
    values = [caratheodory_distance(p, m0) for m0 in (1, 2, 3)]
    assert values[0] <= values[1] + 1e-13
    assert values[1] <= values[2] + 1e-13
    assert all(v <= 2.0 for v in values)


def test_constrained_von_neumann_diagonal_tuple():
    rng = np.random.default_rng(11)
    pts = [BallPoint(c) for c in rng.normal(size=(4, 2)) * 0.25]
    t = RowContraction.diagonal(pts)
    spec = q_commutation_spec(2, 1.0, 8)
    f = random_polynomial(rng, 2, 3, terms=5)
    lhs, rhs = constrained_von_neumann_check(t, f, spec)
    assert lhs == pytest.approx(max(abs(evaluate(f, p)) for p in pts), abs=1e-12)
    assert lhs <= rhs + 1e-3


def test_constrained_von_neumann_generator_gives_zero():
    pts = [BallPoint([0.2, 0.1]), BallPoint([-0.3, 0.25])]
    t = RowContraction.diagonal(pts)
    spec = q_commutation_spec(2, 1.0, 6)
    lhs, rhs = constrained_von_neumann_check(t, spec.generators[0], spec)
    assert lhs < 1e-12
    assert rhs < 1e-12


def test_constrained_von_neumann_empty_spec_is_compression_bound():
    t = RowContraction.from_point(BallPoint([0.4, 0.3]))
    spec = IdealSpec(2, (), 6)
    f = NcPolynomial(2, {(): 0.3, (1,): 1.0, (2, 2): -0.7})
    lhs, rhs = constrained_von_neumann_check(t, f, spec)
    assert rhs == pytest.approx(caratheodory_distance(f, 6), abs=1e-12)
    assert lhs <= rhs + 1e-3


def test_constrained_von_neumann_rejects_non_annihilating_tuple():
    t = RowContraction([np.array([[0.0, 0.5], [0.0, 0.0]]),
                        np.array([[0.0, 0.0], [0.0, 0.0]])])
    extra = np.array([[0.0, 0.0], [0.5, 0.0]])
    t_bad = RowContraction([t.matrices[0], extra])
    spec = q_commutation_spec(2, 1.0, 4)
    f = NcPolynomial.unit(2)
    with pytest.raises(DomainError, match="generators"):
        constrained_von_neumann_check(t_bad, f, spec)


def test_constrained_von_neumann_rejects_non_pure_tuple():
    t = RowContraction([np.array([[1.0]]), np.array([[0.0]])])
    spec = IdealSpec(2, (), 4)
    with pytest.raises(DomainError, match="pure"):
        constrained_von_neumann_check(t, NcPolynomial.unit(2), spec)


def test_quotient_poisson_check_scalar_point():
    lam = BallPoint([0.35, 0.2])
    t = RowContraction.from_point(lam)
    spec = q_commutation_spec(2, 1.0, 8)
    range_residual, covariance_residual = quotient_poisson_check(t, spec, 8)
    tail = lam.norm ** (2 * 9)
    assert range_residual <= tail + 1e-12
    assert covariance_residual <= lam.norm ** (2 * 7) + 1e-12


def test_quotient_poisson_check_zero_tuple():
    t = RowContraction([np.zeros((2, 2)), np.zeros((2, 2))])
    spec = q_commutation_spec(2, 1.0, 4)
    range_residual, covariance_residual = quotient_poisson_check(t, spec, 4)
    assert range_residual < 1e-14
    assert covariance_residual < 1e-14


def test_quotient_poisson_check_commuting_rho_quarter():
    rng = np.random.default_rng(40)
    pts = []
    while len(pts) < 3:
        c = rng.normal(size=2) * 0.3
        if np.linalg.norm(c) ** 2 <= 0.25:
            pts.append(BallPoint(c))
    t = RowContraction.diagonal(pts)
    spec = q_commutation_spec(2, 1.0, 10)
    range_residual, covariance_residual = quotient_poisson_check(t, spec, 10)
    assert range_residual < 1e-4
    assert covariance_residual < 1e-4


def test_quotient_distance_degree_guard():
    spec = q_commutation_spec(2, 1.0, 3)
    with pytest.raises(ValueError):
        quotient_distance(NcPolynomial(2, {(1, 1, 1, 1): 1.0}), spec)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _count_steps(monkeypatch) -> list:
    steps = []
    step = ideals._next_complement
    monkeypatch.setattr(ideals, "_next_complement", lambda *a: steps.append(a[2]) or step(*a))
    return steps


def _ladder_specs():
    """(name, spec of degree m, degrees): every shape of recursion state."""
    commutator = q_commutation_spec(2, 1.0, 2).generators[0]
    rng = np.random.default_rng(43)
    c2, c3 = 0.2 + 0.3 * rng.uniform(size=2)
    return [
        ("q-n2", lambda m: q_commutation_spec(2, np.exp(0.6j), m), range(2, 10)),
        ("q-n3", lambda m: q_commutation_spec(3, -1.0, m), range(2, 6)),
        ("mixed-table", lambda m: q_commutation_spec(3, MIXED_TABLE, m), range(2, 6)),
        # at m = 6 its compressions (3 x 952 x 952, 43 MB) pass MEMO_BYTES,
        # but its state (14.8 MiB) is kept
        ("e1e2e3", lambda m: IdealSpec(3, (NcPolynomial(3, {(1, 2, 3): 1.0}),), m),
         range(3, 7)),
        ("constant", lambda m: IdealSpec(2, (NcPolynomial(2, {(): 0.5}), commutator), m),
         range(2, 6)),
        ("no-generators", lambda m: IdealSpec(2, (), m), range(0, 7)),
        ("non-homogeneous-n2", lambda m: IdealSpec(
            2, (NcPolynomial(2, {(1, 2): 1.0, (2, 1): -1.0, (1,): c2}),), m), range(2, 9)),
        ("non-homogeneous-n3", lambda m: IdealSpec(
            3, (NcPolynomial(3, {(1, 2): 1.0, (2, 1): -1.0, (1,): c3}),), m), range(2, 5)),
        ("constant-non-homogeneous", lambda m: IdealSpec(
            2, (NcPolynomial(2, {(): 0.5, (1,): 1.0}),), m), range(1, 5)),
    ]


@pytest.mark.parametrize("name, make, degrees", _ladder_specs(),
                         ids=[case[0] for case in _ladder_specs()])
def test_memo_models_equal_fresh_builds_bit_for_bit(monkeypatch, name, make, degrees):
    # each degree's recursion step runs once per memo state, whatever the
    # order of the requests, and every model equals a fresh build bit for bit
    fresh = {}
    for m in degrees:
        ideals._memo.clear()
        fresh[m] = build_quotient(make(m))
    steps = _count_steps(monkeypatch)
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(3):
        ideals._memo.clear()
        steps.clear()
        for m in rng.permutation(list(degrees) * 2):
            spec = make(int(m))
            model = build_quotient(spec)
            expected = fresh[int(m)]
            assert model.spec is spec
            assert _same_bits(model.n_basis, expected.n_basis)
            assert _same_bits(model.compressions, expected.compressions)
            assert (model.grades is None) == (expected.grades is None)
            assert model.grades is None or _same_bits(model.grades, expected.grades)
        assert sorted(steps) == sorted(set(steps))


@pytest.mark.parametrize("cap, value, fits, message", [
    # q-commutation at n = 2 keeps r_k = k + 1 per grade: degree 7 (D = 255)
    # holds 255 x 21 entries after degree 5, degree 6 (D = 127) at most 127 x 28
    ("MAX_DENSE_ENTRIES", 5000, 6, "quotient basis of 255 x 21 entries"),
    # step k has w = 2 r_{k-1} = 2k candidates
    ("GRADE_COORD_CAP", 11, 5, "degree-6 candidate space of size 12 exceeds the cap 11"),
], ids=["model-cap", "candidate-cap"])
def test_memo_replays_every_cap(monkeypatch, cap, value, fits, message):
    # a spec that fits at degree `fits` and not one higher fails with the same
    # message from an empty memo, from a state run up to `fits` and from one
    # run past the failing degree; a failed step stores nothing, and a later
    # lower-degree call still takes the stored state
    make = lambda m: q_commutation_spec(2, 1j, m)
    expected = build_quotient(make(fits))
    steps = _count_steps(monkeypatch)
    messages = []
    for warm in (None, fits, fits + 3):
        ideals._memo.clear()
        if warm is not None:
            build_quotient(make(warm))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ideals, cap, value)
            with pytest.raises(ResourceCapError, match=message) as err:
                build_quotient(make(fits + 1))
            messages.append(str(err.value))
            steps.clear()
            model = build_quotient(make(fits))
        assert bool(steps) == (warm is None)
        assert _same_bits(model.n_basis, expected.n_basis)
        assert _same_bits(model.compressions, expected.compressions)
    assert messages == messages[:1] * 3


def test_models_are_read_only_and_carry_the_callers_spec():
    # a non-homogeneous model's n_basis is the memo's own N_m, handed to
    # every caller at degree m; the other arrays are assembled per call, and
    # none is writeable
    for make in (lambda: q_commutation_spec(2, 1.0, 5),
                 lambda: IdealSpec(2, (NcPolynomial(2, {(1, 2): 1.0, (1,): 0.3}),), 4)):
        first_spec, second_spec = make(), make()
        first, second = build_quotient(first_spec), build_quotient(second_spec)
        assert first.spec is first_spec and second.spec is second_spec
        assert (second.n_basis is first.n_basis) == first.approximate
        assert second.compressions is not first.compressions
        for array in (first.n_basis, first.compressions, first.grades):
            if array is not None:
                with pytest.raises(ValueError):
                    array[0] = 0
                with pytest.raises(ValueError):
                    array += 1


def test_memo_keeps_few_small_states(monkeypatch):
    # at most MEMO_SPECS states, the least recently used dropped first; a
    # state past MEMO_BYTES (the free n = 4, m = 5 one: its whole grades
    # hold (16^6 - 1) / 15 identity entries, 17.1 MiB) is not kept once it
    # has returned and drops no other
    specs = [q_commutation_spec(2, lam, 5) for lam in (1.0, -1.0, 1j)]
    for spec in specs:
        build_quotient(spec)
    assert len(ideals._memo) == ideals.MEMO_SPECS
    big = build_quotient(IdealSpec(4, (), 5))
    assert big.dim == 1365
    assert len(ideals._memo) == ideals.MEMO_SPECS
    assert sum(run.nbytes() for run in ideals._memo.values()) <= ideals.MEMO_BYTES
    steps = _count_steps(monkeypatch)
    for spec in specs[::-1]:
        build_quotient(spec)
    assert steps == [2, 3, 4, 5]   # only the first spec was dropped


def test_memo_signed_zeros_count_apart():
    # coefficients equal as numbers but not bit for bit key different states
    plus = NcPolynomial(2, {(2, 1): 1.0, (1, 2): complex(-1.0, 0.0)})
    minus = NcPolynomial(2, {(2, 1): 1.0, (1, 2): complex(-1.0, -0.0)})
    assert plus.terms == minus.terms
    build_quotient(IdealSpec(2, (plus,), 4))
    build_quotient(IdealSpec(2, (minus,), 4))
    assert len(ideals._memo) == 2


def test_concurrent_builds_match_fresh_ones():
    # six threads on a short switch interval build two ideals at random
    # degrees through one memo: a half-extended state would show as a model
    # that differs from a fresh build
    makers = [lambda m: q_commutation_spec(2, 1j, m),
              lambda m: IdealSpec(2, (NcPolynomial(2, {(1, 2): 1.0, (2, 1): -1.0, (1,): 0.3}),),
                                  m)]
    degrees = range(2, 9)
    fresh = {}
    for i, make in enumerate(makers):
        for m in degrees:
            ideals._memo.clear()
            fresh[i, m] = build_quotient(make(m))
    ideals._memo.clear()
    results, errors = [], []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(25):
                i, m = int(rng.integers(2)), int(rng.choice(degrees))
                results.append(((i, m), build_quotient(makers[i](m))))
        except Exception as exc:  # reported below, with the thread's seed
            errors.append((seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 150
    for key, model in results:
        assert _same_bits(model.n_basis, fresh[key].n_basis)
        assert _same_bits(model.compressions, fresh[key].compressions)

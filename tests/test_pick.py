import math

import numpy as np
import pytest

from ncfock import pick
from ncfock import (BallPoint, DomainError, NcPolynomial, PickProblem, ResourceCapError,
                    SingularGramError, certify, classical_ball_matrix, evaluate,
                    gram, lagrange_interpolant, min_norm_and_condition, operator_norm,
                    pick_matrix, psd_check, sample_membership_check)
from helpers import kron_min_norm, random_point, random_unitary, separated_points, z_vector


def _random_problem(rng, n, k, target_dim, radius=0.6, target_scale=1.0):
    points = separated_points(rng, n, k, radius=radius, min_gap=0.15)
    targets = [target_scale * (rng.normal(size=(target_dim, target_dim))
                               + 1j * rng.normal(size=(target_dim, target_dim)))
               for _ in range(k)]
    return PickProblem(points, targets)


def test_problem_rejects_boundary_points():
    with pytest.raises(DomainError):
        PickProblem([[0.6, 0.8]], [0.5])


def test_problem_rejects_coincident_points():
    with pytest.raises(DomainError):
        PickProblem([[0.3, 0.1], [0.3, 0.1 + 1e-15]], [0.1, 0.2])


def _first_coincident_pair(points):
    # the pair loop the node check replaces, kept as its reference
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            gap = np.abs(points[i].coords - points[j].coords).max()
            if gap <= pick.POINT_SEPARATION:
                return f"points {i} and {j} coincide (gap {gap:.3e})"
    return None


@pytest.mark.parametrize("block_entries", [pick.SEPARATION_BLOCK_ENTRIES, 1, 7])
def test_problem_names_the_first_coincident_pair(monkeypatch, block_entries):
    # small blocks split the k x k gap array into row blocks of 1 to 7 nodes
    monkeypatch.setattr(pick, "SEPARATION_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(41)
    rejected = 0
    for _ in range(150):
        k, n = int(rng.integers(2, 33)), int(rng.integers(1, 4))
        coords = 0.5 / math.sqrt(n) * (rng.uniform(-1, 1, size=(k, n))
                                       + 1j * rng.uniform(-1, 1, size=(k, n)))
        for _ in range(int(rng.integers(0, 4))):
            i, j = rng.choice(k, size=2, replace=False)
            shift = rng.choice([0.0, 3e-15, 1e-14, 2e-14, 1e-13])
            coords[j] = coords[i] + shift * rng.choice([1, -1, 1j, -1j])
        points = [BallPoint(c) for c in coords]
        expected = _first_coincident_pair(points)
        if expected is None:
            assert PickProblem(points, [0.1] * k).k == k
            continue
        with pytest.raises(DomainError) as info:
            PickProblem(points, [0.1] * k)
        assert str(info.value) == expected
        rejected += 1
    assert rejected >= 50


def test_problem_rejects_mismatched_targets():
    with pytest.raises(ValueError):
        PickProblem([[0.1], [0.2]], [np.eye(2), np.eye(3)])


def test_gram_single_origin():
    assert np.array_equal(gram(PickProblem([[0.0, 0.0]], [0.0])), [[1.0]])


def test_gram_line_example():
    r = 0.45
    g = gram(PickProblem([[0.0], [r]], [0.0, 0.0]))
    expected = np.array([[1.0, 1.0], [1.0, 1.0 / (1.0 - r * r)]])
    assert np.allclose(g, expected, atol=1e-14)


def test_gram_matches_truncated_kernel_vectors():
    # norms near 0.5 keep the geometric tail above double-precision noise
    points = [BallPoint([0.5, 0.1]), BallPoint([0.45, -0.2]),
              BallPoint([0.3 + 0.3j, 0.25]), BallPoint([-0.1, 0.52])]
    problem = PickProblem(points, [0.0] * 4)
    g = gram(problem)
    m = 12
    zs = [z_vector(p, m) for p in problem.points]
    rho = max(abs(problem.points[i].inner(problem.points[j]))
              for i in range(4) for j in range(4))
    bound = rho ** (m + 1) / (1.0 - rho)
    assert bound > 1e-10
    for i in range(4):
        for j in range(4):
            truncated = np.vdot(zs[i], zs[j])
            assert abs(g[i, j] - truncated) <= bound


def test_pick_matrix_single_node():
    problem = PickProblem([[0.3, -0.2]], [0.0])
    verdict = psd_check(pick_matrix(problem, 1.0))
    assert verdict.is_psd and verdict.min_eigenvalue > 0


def test_pick_matrix_schwarz_threshold():
    r = 0.4
    for w, feasible in [(0.2, True), (0.4, True), (0.41, False), (0.75, False)]:
        problem = PickProblem([[0.0], [r]], [0.0, w])
        expected_22 = (1 - w * w) / (1 - r * r)
        assert np.allclose(pick_matrix(problem, 1.0),
                           [[1.0, 1.0], [1.0, expected_22]], atol=1e-14)
        assert psd_check(pick_matrix(problem, 1.0)).is_psd == feasible


def test_pick_matrix_large_level_dominates():
    rng = np.random.default_rng(2)
    problem = _random_problem(rng, 2, 3, 2)
    big = 10.0 * (min_norm_and_condition(problem)[0] + 1.0)
    assert psd_check(pick_matrix(problem, big)).is_psd


def test_min_norm_single_node_is_target_norm():
    w = np.array([[1.0, 2.0], [0.0, -1.5j]])
    problem = PickProblem([[0.2, 0.1]], [w])
    assert min_norm_and_condition(problem)[0] == pytest.approx(np.linalg.norm(w, 2), abs=1e-12)


def test_min_norm_shift_example():
    problem = PickProblem([[0.0, 0.0], [0.5, 0.0]], [0.0, 0.5])
    assert min_norm_and_condition(problem)[0] == pytest.approx(1.0, abs=1e-10)


def test_min_norm_scales_with_targets():
    rng = np.random.default_rng(31)
    problem = _random_problem(rng, 2, 3, 2)
    base = min_norm_and_condition(problem)[0]
    scaled = PickProblem(problem.points, [2.5 * w for w in problem.targets])
    assert min_norm_and_condition(scaled)[0] == pytest.approx(2.5 * base, rel=1e-12)


def test_feasibility_equivalence_and_flip():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 4))
        problem = _random_problem(rng, n, k, dim, target_scale=0.8)
        cstar = min_norm_and_condition(problem)[0]
        feasible = psd_check(pick_matrix(problem, 1.0)).is_psd
        assert feasible == (cstar <= 1.0 + 1e-9)
        if cstar > 1e-3:
            assert psd_check(pick_matrix(problem, cstar + 1e-4)).is_psd
            assert not psd_check(pick_matrix(problem, max(cstar - 1e-4, 0.0))).is_psd


def test_feasible_boundary_crossing_resolved_at_1e6():
    # c* = 1 exactly for this problem; the verdict flips across it already
    # at a 1e-6 perturbation of the level
    problem = PickProblem([[0.0, 0.0], [0.5, 0.0]], [0.0, 0.5])
    assert psd_check(pick_matrix(problem, 1.0 + 1e-6)).is_psd
    assert not psd_check(pick_matrix(problem, 1.0 - 1e-6)).is_psd


def test_min_eigenvalue_monotone_in_level():
    rng = np.random.default_rng(13)
    problem = _random_problem(rng, 2, 4, 2)
    previous = -np.inf
    for c in np.linspace(0.0, 3.0, 13):
        low = psd_check(pick_matrix(problem, c)).min_eigenvalue
        assert low >= previous - 1e-10
        previous = low


def test_relabeling_invariance():
    rng = np.random.default_rng(41)
    problem = _random_problem(rng, 2, 4, 2)
    perm = rng.permutation(4)
    shuffled = PickProblem([problem.points[i] for i in perm],
                           [problem.targets[i] for i in perm])
    assert min_norm_and_condition(shuffled)[0] == pytest.approx(
        min_norm_and_condition(problem)[0], abs=1e-10)
    v1 = psd_check(pick_matrix(problem, 1.0))
    v2 = psd_check(pick_matrix(shuffled, 1.0))
    assert v1.is_psd == v2.is_psd
    assert v1.min_eigenvalue == pytest.approx(v2.min_eigenvalue, abs=1e-10)


def test_unitary_covariance():
    rng = np.random.default_rng(53)
    problem = _random_problem(rng, 2, 3, 3)
    u = random_unitary(rng, 3)
    v = random_unitary(rng, 3)
    rotated = PickProblem(problem.points, [u @ w @ v.conj().T for w in problem.targets])
    assert min_norm_and_condition(rotated)[0] == pytest.approx(
        min_norm_and_condition(problem)[0], abs=1e-10)


def test_min_norm_agrees_with_psd_bisection():
    # independent route: bisect the norm level on the PSD verdict alone
    rng = np.random.default_rng(85)
    for _ in range(5):
        problem = _random_problem(rng, 2, 3, 2)
        cstar = min_norm_and_condition(problem)[0]
        lo, hi = 0.0, 2.0 * cstar + 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if psd_check(pick_matrix(problem, mid)).is_psd:
                hi = mid
            else:
                lo = mid
        # the verdict tolerance shifts the flip by O(tol * scale / slope)
        assert hi == pytest.approx(cstar, rel=1e-5)


def _oracle_agreement(problem) -> tuple:
    """(relative gap between c* and the kron oracle, its bound): 1e-12, or
    1e-16 cond(G) where G is worse conditioned, since both routes lose about
    cond(G) eps to rounding (compared with a 40-digit reference, each was off
    by 1e-17 to 1e-16 cond(G) on ill-conditioned nodes)."""
    cstar, oracle = min_norm_and_condition(problem)[0], kron_min_norm(problem)
    return abs(cstar - oracle) / oracle, max(1e-12, 1e-16 * np.linalg.cond(gram(problem)))


def test_min_norm_matches_the_kron_oracle():
    # 240 problems like the benchmark's Pick stream: nodes in the 0.9 ball,
    # n = 1..3, k up to 10 at n = 1 and up to 32 above, N = 1..3
    rng = np.random.default_rng(2024)
    conds = []
    for t in range(240):
        n, N = 1 + t % 3, 1 + t // 3 % 3
        k = int(rng.integers(1, 11 if n == 1 else 33))
        points = separated_points(rng, n, k, radius=0.9, min_gap=0.1 if n == 1 else 0.05)
        targets = rng.normal(size=(k, N, N)) + 1j * rng.normal(size=(k, N, N))
        problem = PickProblem(points, list(targets))
        gap, bound = _oracle_agreement(problem)
        assert gap <= bound, (n, k, N)
        conds.append(np.linalg.cond(gram(problem)))
    assert min(conds) < 10 and max(conds) > 1e6


def test_min_norm_matches_the_kron_oracle_on_ill_conditioned_disc_nodes():
    # 10 nodes in the 0.9 disc: cond(G) above 1e4 on every problem, past 1e8 on some
    rng = np.random.default_rng(71)
    conds = []
    for _ in range(30):
        points = separated_points(rng, 1, 10, radius=0.9, min_gap=0.1)
        problem = PickProblem(points, list(0.8 * rng.uniform(-1, 1, 10)))
        gap, bound = _oracle_agreement(problem)
        assert gap <= bound
        conds.append(np.linalg.cond(gram(problem)))
    assert min(conds) > 1e4 and max(conds) > 1e8


def test_gram_condition_states_the_slack_of_cstar():
    # cond(G) comes with c* from one eigvalsh of G: it is G's 2-norm
    # condition number, and c* agrees with the kron oracle within
    # 1e-16 cond(G) relative (1e-12 at least) from well to ill conditioned G
    rng = np.random.default_rng(97)
    conds = []
    for t in range(90):
        n, N = 1 + t % 3, 1 + t // 3 % 2
        k = int(rng.integers(2, 11 if n == 1 else 25))
        points = separated_points(rng, n, k, radius=0.9, min_gap=0.1 if n == 1 else 0.05)
        problem = PickProblem(points, list(rng.normal(size=(k, N, N))
                                           + 1j * rng.normal(size=(k, N, N))))
        cstar, cond = min_norm_and_condition(problem)
        cert = certify(problem)
        assert (cert.min_norm, cert.gram_condition) == (cstar, cond)
        assert cond == pytest.approx(np.linalg.cond(gram(problem)), rel=1e-8 + 1e-15 * cond)
        oracle = kron_min_norm(problem)
        assert abs(cstar - oracle) / oracle <= max(1e-12, 1e-16 * cond)
        conds.append(cond)
    assert min(conds) < 10 and max(conds) > 1e7


def test_min_norm_is_singular_exactly_where_the_oracle_is():
    # one node pair pulled together (gaps 1e-3 to 1e-9), or up to 30 nodes in
    # the 0.9 disc: the 1e-12 rule on G's spectrum against that of G (x) I
    rng = np.random.default_rng(19)
    outcomes = set()
    for t in range(120):
        n, N = 1 + t % 2, 1 + t // 4 % 2
        if t % 4 < 2:
            points = [random_point(rng, n, 0.6) for _ in range(5)]
            points.append(points[0].coords + 10.0 ** -rng.uniform(3, 9))
        else:
            points = separated_points(rng, 1, int(rng.integers(10, 31)), radius=0.9,
                                      min_gap=0.05)
        k = len(points)
        problem = PickProblem(points, list(rng.normal(size=(k, N, N))))
        raised = []
        for route in (min_norm_and_condition, kron_min_norm):
            try:
                route(problem)
                raised.append(False)
            except SingularGramError:
                raised.append(True)
        assert raised[0] == raised[1], (t, k)
        outcomes.add(raised[0])
    assert outcomes == {True, False}


def test_certificate_cross_check():
    rng = np.random.default_rng(61)
    problem = _random_problem(rng, 2, 3, 1, target_scale=0.5)
    cert = certify(problem)
    assert cert.feasible == (cert.min_norm <= 1.0 + cert.tol) or cert.marginal
    assert cert.gram.shape == (3, 3)


def test_lagrange_single_node_constant():
    w = np.array([[2.0, 1.0], [0.0, 1.0]])
    phi = lagrange_interpolant(PickProblem([[0.2, 0.3]], [w]))
    assert np.allclose(evaluate(phi, [0.0, 0.0]), w)
    assert np.allclose(evaluate(phi, [0.4, -0.2]), w)


def test_lagrange_two_point_line():
    problem = PickProblem([[0.0], [0.5]], [1.0, 0.0])
    phi = lagrange_interpolant(problem)
    p = phi.entries[0][0]
    assert p.coefficient(()) == pytest.approx(1.0)
    assert p.coefficient((1,)) == pytest.approx(-2.0)
    assert evaluate(phi, [0.0])[0, 0] == pytest.approx(1.0)
    assert evaluate(phi, [0.5])[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_lagrange_random_exactness():
    rng = np.random.default_rng(97)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 3))
        problem = _random_problem(rng, n, k, dim)
        phi = lagrange_interpolant(problem)
        assert phi.degree <= k - 1
        for p, w in zip(problem.points, problem.targets):
            assert np.linalg.norm(evaluate(phi, p) - w, 2) < 1e-12


# n = 1 nodes drawn in the radius-0.9 disc meet the 1e-10 residual up to
# k = 10, as the earlier product of linear factors did; past that the
# monomial coefficients of clustered nodes lose digits under any solve
# (both give 1e-9 at k = 12 and 1e-5 at k = 25), and `pick interpolant`
# warns instead (test_cli.py)
N1_EXACT_K = 10


def test_lagrange_least_norm_solve_properties():
    # generic nodes need the least d with C(d+n, n) >= k; nodes on a complex
    # line only see polynomials in one variable, so they need d = k - 1
    rng = np.random.default_rng(101)
    for trial in range(150):
        n = 1 + trial % 3
        collinear = n > 1 and trial % 5 == 0
        k = int(rng.integers(1, 11 if collinear else 41))
        dim = int(rng.integers(1, 4))
        if collinear:
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v /= np.linalg.norm(v)
            points = [random_point(rng, 1, 0.9).coords[0] * v for _ in range(k)]
        else:
            points = [random_point(rng, n, 0.9) for _ in range(k)]
        targets = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                   for _ in range(k)]
        problem = PickProblem(points, targets)
        phi = lagrange_interpolant(problem)
        residual = max(operator_norm(evaluate(phi, p) - w)
                       for p, w in zip(problem.points, problem.targets))
        if n > 1 or k <= N1_EXACT_K:
            assert residual <= 1e-10
        d = int(phi.degree)
        least = next(j for j in range(k) if math.comb(j + n, n) >= k)
        assert d == (k - 1 if collinear else least) <= k - 1
        terms = sum(len(p.terms) for row in phi.entries for p in row)
        assert terms <= dim * dim * math.comb(d + n, n)


def test_lagrange_norm_bracket():
    # c* is the least norm of any interpolant; the grade norms bound ours
    rng = np.random.default_rng(103)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4))
        problem = _random_problem(rng, n, k, dim)
        upper = sum(lagrange_interpolant(problem).grade_norms())
        assert min_norm_and_condition(problem)[0] <= upper * (1 + 1e-10)


def test_lagrange_cap_fires_at_the_first_degree_over():
    # collinear nodes climb to d = 17, where 30^2 C(20, 3) terms pass 10^6
    v = np.array([0.5, 0.5j, 0.5])
    problem = PickProblem([t * v for t in np.linspace(-1.0, 1.0, 20)],
                          [np.eye(30)] * 20)
    with pytest.raises(ResourceCapError, match="degree-17"):
        lagrange_interpolant(problem)


def test_classical_matches_pick_on_the_line():
    rng = np.random.default_rng(15)
    problem = _random_problem(rng, 1, 3, 1, target_scale=0.5)
    assert np.allclose(classical_ball_matrix(problem), pick_matrix(problem, 1.0),
                       atol=1e-13)


def test_classical_zero_targets_always_psd():
    rng = np.random.default_rng(19)
    for n in (2, 3):
        points = separated_points(rng, n, 4, min_gap=0.1)
        problem = PickProblem(points, [0.0] * 4)
        assert psd_check(classical_ball_matrix(problem)).is_psd


def test_classical_weaker_than_multiplier_condition():
    # sample targets from explicit norm <= 1 multipliers so feasibility is
    # guaranteed, then the classical necessary condition must hold too
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        points = separated_points(rng, n, 4, min_gap=0.1)
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        const = complex(rng.normal(), rng.normal()) * 0.2
        budget = 0.95 - abs(const)
        coeffs *= budget / np.linalg.norm(coeffs)
        values = [const + coeffs @ p.coords for p in points]
        problem = PickProblem(points, values)
        assert psd_check(pick_matrix(problem, 1.0)).is_psd
        assert psd_check(classical_ball_matrix(problem)).is_psd
        checked += 1
    assert checked == 20


def test_classical_requires_scalar_targets():
    problem = PickProblem([[0.1, 0.0]], [np.eye(2)])
    with pytest.raises(ValueError):
        classical_ball_matrix(problem)


def test_membership_coordinate_function():
    rng = np.random.default_rng(33)
    points = separated_points(rng, 2, 5, min_gap=0.1)
    samples = [(p, p.coords[0]) for p in points]
    assert sample_membership_check(samples).is_psd


def test_membership_constant():
    rng = np.random.default_rng(37)
    points = separated_points(rng, 2, 4, min_gap=0.1)
    assert sample_membership_check([(p, 0.35 + 0.1j) for p in points]).is_psd


def test_membership_dilation_fails():
    verdict = sample_membership_check([([0.0], 0.0), ([0.4], 0.8)])
    assert not verdict.is_psd
    # 2x2 matrix [[1, 1], [1, 0.36/0.84]] has negative determinant
    assert verdict.min_eigenvalue < -1e-3


def test_membership_precondition():
    with pytest.raises(DomainError):
        sample_membership_check([([0.0], 0.0), ([0.9], 1.8)])


def test_nearly_coincident_points_surface_singular_gram():
    problem = PickProblem([[0.3, 0.1], [0.3 + 2e-13, 0.1]], [0.1, 0.2])
    with pytest.raises(SingularGramError):
        min_norm_and_condition(problem)

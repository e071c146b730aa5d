"""Seeded request generators for the three benchmark workloads.

Pure standard library (``random.Random``), so generating inputs never
imports numpy or ncfock and stays out of the measured set-up time.  Every
request is a plain dict that names an operation (``op``), a label (``kind``)
that groups requests of one shape, and JSON data in the problem-file schema
of ``ncfock.cli``.  The same seed gives the same request sequence.

Requests come in cycles (``cycle`` field).  Every cycle of a workload asks
for the same mix of problem shapes and sizes; the seed draws the data
(nodes, targets, coefficients, tuples, commutation factors) and, in
pick_stream, the order inside the cycle.  Timing metrics are taken over
complete cycles only, so run-to-run spread measures the program rather
than where a run happened to stop in the mix.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

WORKLOADS = ("pick_stream", "norm_sweep", "quotient_ladder")


# ---------------------------------------------------------------- data helpers

def cplx(z) -> list:
    return [z.real, z.imag]


def matrix_doc(rows) -> list:
    return [[cplx(z) for z in row] for row in rows]


def poly_doc(terms: dict) -> list:
    return [{"word": list(w), "coeff": cplx(c)} for w, c in terms.items()]


def gaussian(rng) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def random_point(rng, n: int, radius: float) -> list:
    """Coordinates uniform in a square of half-width radius/sqrt(2n), so |z| <= radius."""
    s = radius / math.sqrt(2 * n)
    return [complex(rng.uniform(-s, s), rng.uniform(-s, s)) for _ in range(n)]


def separated_points(rng, n: int, k: int, radius: float, min_gap: float) -> list:
    """k points whose pairwise largest coordinate gap is at least min_gap.

    The gap keeps the kernel Gram matrix positive definite well above the
    1e-12 tolerance of the Cholesky whitening, as the test helpers do.
    """
    while True:
        pts = []
        for _ in range(200 * k):
            z = random_point(rng, n, radius)
            if all(max(abs(a - b) for a, b in zip(z, p)) >= min_gap for p in pts):
                pts.append(z)
                if len(pts) == k:
                    return pts


def random_matrix(rng, size: int, frobenius: float) -> list:
    g = [[gaussian(rng) for _ in range(size)] for _ in range(size)]
    norm = math.sqrt(sum(abs(z) ** 2 for row in g for z in row))
    return [[z * frobenius / norm for z in row] for row in g]


def row_contraction(rng, n: int, d: int, rho: float) -> list:
    """n random d x d matrices scaled so that sum_i ||T_i||_F^2 = rho < 1.

    The Frobenius bound dominates ||sum T_i T_i*||, so the tuple is a strict
    row contraction without any spectral computation here.
    """
    mats = [[[gaussian(rng) for _ in range(d)] for _ in range(d)] for _ in range(n)]
    total = sum(abs(z) ** 2 for m in mats for row in m for z in row)
    scale = math.sqrt(rho / total)
    return [[[z * scale for z in row] for row in m] for m in mats]


def graded_polynomial(rng, n: int, degree: int) -> dict:
    """One random word per grade 0..degree: non-homogeneous, degree exactly `degree`."""
    return {tuple(rng.randint(1, n) for _ in range(k)): gaussian(rng)
            for k in range(degree + 1)}


def phased(rng, moduli) -> list:
    return [r * cmath.exp(2j * math.pi * rng.random()) for r in moduli]


def interleave(heavy: list, light: list) -> list:
    """Merge heavy slots evenly into the light ones (fixed order, no seed)."""
    out = []
    step = (len(light) + len(heavy)) / max(len(heavy), 1)
    h = 0
    for i in range(len(light) + len(heavy)):
        if h < len(heavy) and i >= round(h * step):
            out.append(heavy[h])
            h += 1
        else:
            out.append(light[i - h])
    return out


# ---------------------------------------------------------------- pick_stream

PICK_INTERPOLANT_MAX_K = 12   # term count grows exponentially in k (ROADMAP item 4)
# The costliest requests of a cycle: n = 3 interpolants at k = 11, three of
# the 30 problems (120-210 ms each).  They are the top tenth of the
# requests, so the 95th percentile falls in the middle of this one cluster
# rather than on a step between sparse, differently sized ones.
PICK_HEAVY = (3, 11)
PICK_HEAVY_SLOTS = 3
# (n, slot) with matrix targets; every other slot is scalar.  For n >= 2
# they sit above k = 12, away from the interpolants whose term count
# already varies 2-3x with the nodes.
PICK_TARGET_SIZES = {(1, 6): 2, (2, 5): 2, (3, 7): 2, (2, 8): 2, (1, 3): 3, (3, 9): 3}


def pick_problem(rng, n: int, k: int, size: int, constructed: bool) -> dict:
    """One Pick problem with k nodes of norm <= 0.9 and size x size targets.

    constructed problems take their targets from phi = C0 + sum_t C_t z_t
    with sum ||C||_F = bound <= 0.9, so c* <= bound is known in advance.
    The others draw targets of norm < 0.95 and may go either way.
    """
    min_gap = 0.1 if n == 1 else 0.05
    pts = separated_points(rng, n, k, radius=0.9, min_gap=min_gap)
    bound = None
    if constructed:
        bound = rng.uniform(0.5, 0.9)
        weights = [rng.random() + 0.1 for _ in range(n + 1)]
        total = sum(weights)
        coeffs = [random_matrix(rng, size, bound * w / total) for w in weights]
        targets = []
        for p in pts:
            targets.append([[coeffs[0][a][b] + sum(coeffs[t + 1][a][b] * p[t] for t in range(n))
                             for b in range(size)] for a in range(size)])
    else:
        targets = [random_matrix(rng, size, 0.95 * rng.uniform(0.2, 1.0)) for _ in pts]
    doc = {"kind": "pick", "n": n, "points": [[cplx(z) for z in p] for p in pts],
           "targets": [matrix_doc(w) for w in targets]}
    interpolant = k <= PICK_INTERPOLANT_MAX_K
    return {"op": "pick", "kind": f"pick n={n} N={size}" + (" +interpolant" if interpolant else ""),
            "doc": doc, "k": k, "size": size, "bound": bound, "interpolant": interpolant}


def pick_slots(cycle: int) -> list:
    """The 30 (n, k, N, constructed) problems of one cycle.

    n = 1 takes k in [2, 10]: the one-variable Szego Gram matrix of more
    nodes falls below the 1e-12 definiteness tolerance.  n = 2, 3 take one
    k from each of the strata 2-4, 5-7 and 8-10, whose offset turns with
    the cycle, so three cycles cover every k there.  Then n = 2 takes
    k = 12 once, n = 3 takes PICK_HEAVY, and both fill their remaining
    slots from equal strata of [13, 30] (n = 2) or [13, 32] (n = 3),
    without interpolants.
    """
    slots = []
    for n in (1, 2, 3):
        if n == 1:
            ks = [2 + s for s in range(9)] + [2 + cycle % 9]
        else:
            ks = [2 + 3 * s + (cycle + s) % 3 for s in range(3)]
            if n == 2:
                ks += [12] + [13 + 3 * j + (cycle + j) % 3 for j in range(6)]
            else:
                ks += [PICK_HEAVY[1]] * PICK_HEAVY_SLOTS
                ks += [13 + 5 * j + (cycle + j) % 5 for j in range(4)]
        for s, k in enumerate(ks):
            slots.append((n, k, PICK_TARGET_SIZES.get((n, s), 1), (s + n + cycle) % 2 == 0))
    return slots


def pick_stream(rng):
    for cycle in itertools.count():
        slots = pick_slots(cycle)
        rng.shuffle(slots)
        for n, k, size, constructed in slots:
            yield dict(pick_problem(rng, n, k, size, constructed), cycle=cycle)


# ---------------------------------------------------------------- norm_sweep

def poisson_doc(rng, n: int, d: int, poly: dict = None) -> dict:
    doc = {"kind": "poisson", "n": n,
           "targets": [matrix_doc(m) for m in row_contraction(rng, n, d, rng.uniform(0.4, 0.95))]}
    if poly is not None:
        doc["polynomial"] = poly_doc(poly)
    return doc


def auto_degree_polynomial(rng, n: int) -> dict:
    """Polynomial for `poisson vonneumann` without --degree.

    For n = 1 the moduli are fixed and only the phases are drawn: the sup
    norm on the circle, and so the degree the growth loop walks to (m = 208,
    102 sup_norm_bounds calls), do not depend on the phases.  For n >= 2 the
    loop stops at its basis cap.
    """
    if n == 1:
        a, b = phased(rng, (1.0, 0.8))
        return {(): a, (1,): b}
    return graded_polynomial(rng, n, 3)


# (n, m) rungs of the `poisson vonneumann --degree m` ladder; the top rungs
# multiply into 1.3e5 (n = 2) and 2.7e5 (n = 3) rows.  n = 2, m = 14 and
# n = 3, m = 9 (0.8-1 s each) are left out: three such requests per cycle
# made the cycle rate swing by 20% between runs of one seed.
VONNEUMANN_LADDER = [(1, 50), (1, 100), (1, 200), (1, 400), (2, 6), (2, 10), (2, 12),
                     (2, 13), (3, 5), (3, 7), (3, 8)]
# (n, d, m) library kernels: in-cache sizes, then 800 to 5.3e5 rows
SMALL_KERNELS = [(1, 1, 10), (1, 2, 30), (1, 4, 60), (2, 1, 4), (2, 2, 6), (2, 3, 8),
                 (3, 1, 3), (3, 2, 4)]
LARGE_KERNELS = [(1, 4, 200), (2, 2, 10), (2, 4, 14), (3, 2, 8), (3, 2, 11)]
SUBSPACE_SIZES = [(1, 2, 40), (2, 2, 8), (3, 2, 6)]
COVARIANCE_SIZES = [(1, 1, 12), (1, 4, 12), (2, 1, 6), (2, 3, 6), (3, 1, 3), (3, 2, 3)]
SMALL_TUPLES = [(n, d) for n in (1, 2, 3) for d in (1, 2, 4)]
NORM_REPEATS = 3   # CLI kernel and c0 requests per small tuple and cycle


# A second request at the two rungs that cost about 200 ms, so that six
# requests of each cycle lie in 150-320 ms, and the 95th percentile (the
# fifth costliest of 92) falls among them rather than on the step below.
NORM_TAIL = [("vonneumann", 3, 8), ("kernel_lib", 3, 2, 11)]


def norm_slots() -> list:
    """One cycle: 92 requests, 21 of them 30 ms or more."""
    heavy = [("vonneumann", n, None) for n in (1, 2, 3)]
    heavy += [("vonneumann", n, m) for n, m in VONNEUMANN_LADDER]
    heavy += [("kernel_lib", *s) for s in LARGE_KERNELS] + NORM_TAIL
    light = [("kernel_lib", *s) for s in SMALL_KERNELS]
    light += [("subspace_lib", *s) for s in SUBSPACE_SIZES]
    light += [("covariance", *s) for s in COVARIANCE_SIZES]
    for _ in range(NORM_REPEATS):
        light += [("kernel", n, d) for n, d in SMALL_TUPLES]
        light += [("c0", n, d) for n, d in SMALL_TUPLES]
    return interleave(heavy, light)


def norm_request(rng, slot) -> dict:
    what = slot[0]
    if what == "vonneumann":
        _, n, m = slot
        d = rng.randint(1, 4)
        poly = auto_degree_polynomial(rng, n) if m is None else graded_polynomial(rng, n, 3)
        args = [] if m is None else ["--degree", str(m)]
        label = "auto" if m is None else f"m={m}"
        return {"op": "cli", "kind": f"cli:poisson vonneumann n={n} {label}",
                "argv": ["poisson", "vonneumann"], "flags": args,
                "doc": poisson_doc(rng, n, d, poly)}
    if what in ("kernel_lib", "subspace_lib"):
        _, n, d, m = slot
        name = "poisson_kernel" if what == "kernel_lib" else "minimal_subspace"
        return {"op": what, "kind": f"lib:{name} n={n} d={d} m={m}",
                "doc": poisson_doc(rng, n, d), "m": m}
    if what == "covariance":
        _, n, d, m = slot
        return {"op": "cli", "kind": f"cli:poisson covariance n={n}",
                "argv": ["poisson", "covariance"], "flags": ["--degree", str(m)],
                "doc": poisson_doc(rng, n, d)}
    _, n, d = slot
    return {"op": "cli", "kind": f"cli:poisson {what} n={n}", "argv": ["poisson", what],
            "flags": [], "doc": poisson_doc(rng, n, d)}


def norm_sweep(rng):
    slots = norm_slots()
    for cycle in itertools.count():
        for slot in slots:
            yield dict(norm_request(rng, slot), cycle=cycle)


# ---------------------------------------------------------------- quotient_ladder

MIXED_TABLE = [[2, 1, 1.0, 0.0], [3, 1, -1.0, 0.0], [3, 2, 0.0, 0.5]]
CLI_ACTIONS = ("basis", "distance", "compressions", "check")
CLI_REPEAT_EVERY = 3          # every third CLI request repeats one of the two before it
# CLI degrees by (homogeneous, n), alternating: the rebuilds cost 5-15 ms, so
# the CLI half forms one cluster that the median of each cycle falls into
CLI_DEGREES = {(True, 2): (5, 6), (True, 3): (3, 4), (False, 2): (4, 6), (False, 3): (3, 4)}


def unit_lambda(rng) -> list:
    theta = 2 * math.pi * rng.random()
    return [math.cos(theta), math.sin(theta)]


def ideal_families(rng, cycle: int) -> list:
    """The four families of one cycle.

    A homogeneous q-commutation family for n = 2 (m = 4..9) and one for
    n = 3 (m = 3..5), with lambda turning from cycle to cycle (the build
    cost depends on n and m only), and the dense non-homogeneous families
    g = [e1, e2] + c e1 for n = 2 (m = 4, 6, 8) and n = 3 (m = 3, 4).
    """
    lam2 = [1.0, -1.0, [0.0, 0.5], unit_lambda(rng)][cycle % 4]
    lam3 = [1.0, unit_lambda(rng), MIXED_TABLE][cycle % 3]
    fams = [{"n": 2, "lambda_q": lam2, "ladder": list(range(4, 10)), "homogeneous": True},
            {"n": 3, "lambda_q": lam3, "ladder": [3, 4, 5], "homogeneous": True}]
    for n, ladder in ((2, [4, 6, 8]), (3, [3, 4])):
        c = 0.2 + 0.3 * rng.random()
        gens = [{(1, 2): 1.0, (2, 1): -1.0, (1,): c}]
        fams.append({"n": n, "generators": gens, "ladder": ladder, "homogeneous": False})
    return fams


def family_tuple(rng, fam) -> dict:
    """A pure commuting tuple annihilating the family's generators.

    lambda = 1: diagonal (commuting) from two points; other lambda: only the
    first entry is nonzero, which satisfies every q-commutation relation.
    """
    n = fam["n"]
    if fam["lambda_q"] == 1.0:
        return {"points": [[cplx(z) for z in random_point(rng, n, 0.35)] for _ in range(2)]}
    a = random_matrix(rng, 2, 0.5)
    zero = [[0j, 0j], [0j, 0j]]
    return {"targets": [matrix_doc(a)] + [matrix_doc(zero)] * (n - 1)}


def ideal_doc(fam, m: int, poly: dict, tuple_doc: dict = None) -> dict:
    doc = {"kind": "ideal", "n": fam["n"], "degree": m, "polynomial": poly_doc(poly)}
    if fam["homogeneous"]:
        doc["lambda_q"] = fam["lambda_q"]
    else:
        doc["generators"] = [poly_doc(g) for g in fam["generators"]]
    if tuple_doc:
        doc.update(tuple_doc)
    return doc


def family_requests(rng, fam, key: str) -> list:
    """Library ladder of one family, each request followed by one CLI request.

    Library requests reuse the model built at their rung.  CLI requests
    rebuild the model of the same family at one of two low degrees
    (CLI_DEGREES) on every call; every CLI_REPEAT_EVERY-th one repeats one
    of the two CLI requests before it exactly.
    """
    poly = graded_polynomial(rng, fam["n"], 2)
    tup = family_tuple(rng, fam) if fam["homogeneous"] else None
    if fam["homogeneous"]:
        ops, actions, label = ("build", "distance", "check", "poisson"), CLI_ACTIONS, "q"
    else:
        ops, actions, label = ("build", "distance"), CLI_ACTIONS[:3], "dense"
    label = f"n={fam['n']} {label}"
    out, history = [], []
    cli_degrees = CLI_DEGREES[fam["homogeneous"], fam["n"]]
    for rung, m in enumerate(fam["ladder"]):
        doc = ideal_doc(fam, m, poly, tup)
        cli_doc = ideal_doc(fam, cli_degrees[rung % 2], poly, tup)
        for op in ops:
            out.append({"op": "ideal_lib", "kind": f"lib:ideal {op} {label}", "call": op,
                        "family": key, "homogeneous": fam["homogeneous"], "doc": doc})
            if len(history) % CLI_REPEAT_EVERY == CLI_REPEAT_EVERY - 1:
                req = rng.choice(history[-2:])
            else:
                action = actions[len(history) % len(actions)]
                req = {"op": "cli", "kind": f"cli:ideal {action} {label}",
                       "argv": ["ideal", action], "flags": [], "doc": cli_doc,
                       "homogeneous": fam["homogeneous"]}
            history.append(req)
            out.append(req)
    return out


def quotient_ladder(rng):
    for cycle in itertools.count():
        for fi, fam in enumerate(ideal_families(rng, cycle)):
            for req in family_requests(rng, fam, f"{cycle}:{fi}"):
                yield dict(req, cycle=cycle)


# ---------------------------------------------------------------- entry points

GENERATORS = {"pick_stream": pick_stream, "norm_sweep": norm_sweep,
              "quotient_ladder": quotient_ladder}


def requests(workload: str, seed: int):
    """The endless, seed-determined request sequence of a workload."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def warmup_request(workload: str, seed: int) -> dict:
    """One light request of the workload, drawn from its own seed stream.

    Used untimed before the loop, so lazy first-call work is paid in set-up.
    """
    rng = random.Random(f"{workload}:{seed}:warmup")
    if workload == "pick_stream":
        req = pick_problem(rng, 2, 6, 1, True)
    elif workload == "norm_sweep":
        req = norm_request(rng, ("vonneumann", 2, 4))
    else:
        fam = {"n": 2, "lambda_q": 1.0, "ladder": [4], "homogeneous": True}
        req = {"op": "cli", "kind": "cli:ideal check n=2 q", "argv": ["ideal", "check"],
               "flags": [], "homogeneous": True,
               "doc": ideal_doc(fam, 4, graded_polynomial(rng, 2, 2), family_tuple(rng, fam))}
    return dict(req, cycle=-1)

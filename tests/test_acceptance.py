"""End-to-end verification suite.

Each test here is one advertised guarantee of the library, run at its
stated scale and tolerance (everything is exact; the only tolerances are
wall-clock budgets).  One PASS/FAIL line per criterion is printed so the
suite can be read as a checklist.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import chain, combinations

from oracles import generated_points, irreducible_in_semigroup, leibniz_det, matmul
from slow_paths import solve_integer
from test_intlinalg import column_hermite_form
from toriq import catalog
from toriq.cones import (
    RationalCone,
    cone_contains,
    dual_cone,
    hilbert_basis,
    lineality_basis,
)
from toriq.fans import build_fan
from toriq.homogeneous import HomogeneousPoint, TorusElement, check_equivariance, in_discriminant
from toriq.intlinalg import IntMatrix, dot, integer_kernel, smith_normal_form
from toriq.kring import FormalSum, KRingElement, in_level_image, oracle_reduce, reduce
from toriq.moment import cusp_count, face_lattice
from toriq.quotient import charge_matrix, discriminant_locus, fan_symmetry, quotient_report
from toriq.solenoid import PolarComplex, ProfiniteInt, cover_map, nu, phi


def _report(name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"{name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _fail_line(name: str):
    print(f"{name}: FAIL")


def same_column_lattice(a: IntMatrix, b: IntMatrix) -> bool:
    return column_hermite_form(a).entries == column_hermite_form(b).entries


def test_golden_fan_invariants():
    """Shipped example fans reproduce their known quotient data exactly."""
    name = "golden fan invariants"
    started = time.perf_counter()
    try:
        cases = {
            "cp1": ([[1], [1]], 2, [[1, 2]], 1),
            "cp1xcp1": ([[1, 0], [1, 0], [0, 1], [0, 1]], 4, [[1, 2], [3, 4]], 2),
            "cp2": ([[1], [1], [1]], 6, [[1, 2, 3]], 2),
            "cp11_2": ([[1], [1], [2]], 2, [[1, 2, 3]], 2),
            "cp11_3": ([[1], [1], [3]], 2, [[1, 2, 3]], 2),
            "cp11_5": ([[1], [1], [5]], 2, [[1, 2, 3]], 2),
            "hirzebruch_1": ([[0, 1], [0, 1], [1, 0], [1, -1]], 2, [[1, 2], [3, 4]], 2),
            "hirzebruch_2": ([[0, 1], [0, 1], [1, 0], [1, -2]], 2, [[1, 2], [3, 4]], 2),
            "hirzebruch_3": ([[0, 1], [0, 1], [1, 0], [1, -3]], 2, [[1, 2], [3, 4]], 2),
        }
        shipped = catalog.shipped_fans()
        for fan_name, (expected_q, order, discriminant, aut_rank) in cases.items():
            fan = shipped[fan_name]
            q = charge_matrix(fan).matrix
            assert same_column_lattice(q, IntMatrix.from_rows(expected_q)), fan_name
            report = quotient_report(fan)
            assert report["symmetry"]["order"] == order, fan_name
            assert report["discriminant"] == discriminant, fan_name
            assert report["aut"]["torus_rank"] == aut_rank, fan_name
        assert quotient_report(shipped["cp1"])["aut"] == {"finite_part": "Z_2", "torus_rank": 1}
        assert quotient_report(shipped["cp2"])["aut"] == {"finite_part": "S_3", "torus_rank": 2}
    except BaseException:
        _fail_line(name)
        raise
    _report(name, started, 1.0)


def test_moment_structure():
    """Face lattices, fiber ranks and cusp counts of the example fans."""
    name = "moment-polytope structure"
    started = time.perf_counter()
    try:
        lattice = face_lattice(catalog.projective_plane())
        assert lattice.f_vector == (3, 3, 1)
        # faces[m] holds the faces of fiber rank m, each over a (2 - m)-ray cone
        assert [m for m, block in enumerate(lattice.faces) if block] == [0, 1, 2]
        for m, block in enumerate(lattice.faces):
            assert all(m == 2 - len(cone) for cone in block)
        expected_cusps = {
            "cp1": 2,
            "cp2": 3,
            "cp1xcp1": 4,
            "cp11_3": 3,
            "hirzebruch_2": 4,
        }
        shipped = catalog.shipped_fans()
        for fan_name, count in expected_cusps.items():
            assert cusp_count(shipped[fan_name]) == count, fan_name
        for m in (1, 2, 3):
            assert cusp_count(catalog.projective_space(m)) == m + 1
    except BaseException:
        _fail_line(name)
        raise
    _report(name, started, 1.0)


def _random_pointed_cones(count: int, seed: int):
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        rank = rng.randint(1, 3)
        n_gens = {1: rng.randint(1, 2), 2: rng.randint(2, 3), 3: rng.choice([2, 3, 3, 3, 4])}[rank]
        gens = []
        for _ in range(n_gens):
            v = tuple(rng.randint(-5, 5) for _ in range(rank))
            if any(v):
                gens.append(v)
        if not gens:
            continue
        cone = RationalCone.from_generators(rank, gens)
        if lineality_basis(cone):
            continue
        cones.append(cone)
    return cones


def test_hilbert_bases_randomized():
    """Hilbert bases: sound, generating on a box, and irreducible, against
    brute-force lattice-point oracles (200 seeded pointed cones)."""
    name = "Hilbert bases vs brute force"
    started = time.perf_counter()
    try:
        from itertools import product

        box = 5
        for cone in _random_pointed_cones(200, seed=20260809):
            rank = cone.ambient_rank
            dual = dual_cone(cone)
            basis = hilbert_basis(cone).generators
            weight = tuple(sum(d[i] for d in dual.generators) for i in range(rank))
            # soundness
            for b in basis:
                assert cone_contains(cone, b)
                assert dot(weight, b) > 0
            # bounded generation: every cone lattice point in the box is a
            # nonnegative integer combination of the basis
            points = [
                p
                for p in product(range(-box, box + 1), repeat=rank)
                if cone_contains(cone, p)
            ]
            missed = set(points) - generated_points(points, basis, weight, dual.generators)
            assert not missed, (cone.generators, missed)
            # minimality: no basis element is a sum of two nonzero semigroup
            # elements (exhaustive polytope scan)
            for b in basis:
                assert irreducible_in_semigroup(b, dual.generators, rank), (
                    cone.generators,
                    b,
                )
    except BaseException:
        _fail_line(name)
        raise
    _report(name, started, 60.0)


def test_solenoid_identities():
    """Baseleaf/fiber compatibility, covering functoriality, fiber structure."""
    name = "solenoid identities"
    started = time.perf_counter()
    try:
        # nu(full turns n) = phi(n) at every level up to 1000
        for level in range(1, 1001):
            for n in range(-50, 51):
                assert nu(n, level) == phi(ProfiniteInt.from_int(n, level))
        # covering functoriality over all divisor chains n | m | l <= 360
        z = PolarComplex(F(3, 2), F(5, 7))
        for l in range(1, 361):
            divisors = [d for d in range(1, l + 1) if l % d == 0]
            z_l = {m: cover_map(m, l, z) for m in divisors}
            for m in divisors:
                for n in (d for d in divisors if m % d == 0):
                    assert cover_map(n, m, z_l[m]) == z_l[n]
        # exact-sequence fiber at levels <= 100: points over the identity of
        # the base are exactly the phi-images, one per residue
        for level in range(1, 101):
            images = {phi(ProfiniteInt(level, a)).top for a in range(level)}
            assert len(images) == level
            expected = {PolarComplex(F(1), F(k, level)) for k in range(level)}
            assert images == expected
            for top in images:
                assert top.pow_int(level) == PolarComplex.one()
            off_fiber = PolarComplex(F(2), F(0))
            assert off_fiber.pow_int(level) != PolarComplex.one()
    except BaseException:
        _fail_line(name)
        raise
    _report(name, started, 10.0)


def test_equivariance_randomized():
    """Power maps intertwine the torus action on all example fans."""
    name = "power-map equivariance"
    started = time.perf_counter()
    try:
        rng = random.Random(97)
        fans = [
            catalog.projective_line(),
            catalog.product_of_lines(),
            catalog.projective_plane(),
            catalog.weighted_plane(3),
            catalog.hirzebruch(2),
        ]

        def rand_polar(allow_zero):
            if allow_zero and rng.random() < 0.2:
                return PolarComplex.zero()
            return PolarComplex(
                F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(0, 23), 24)
            )

        for fan in fans:
            s = charge_matrix(fan).torus_rank
            for _ in range(500):
                t = TorusElement(1, tuple(rand_polar(False) for _ in range(s)))
                while True:
                    coords = tuple(rand_polar(True) for _ in range(fan.n_rays))
                    if not in_discriminant(fan, coords):
                        break
                z = HomogeneousPoint(fan, 1, coords)
                assert check_equivariance(fan, t, z, rng.randint(1, 12))
    except BaseException:
        _fail_line(name)
        raise
    _report(name, started, 10.0)


def test_kring_normal_forms():
    """Closed-form reduction against the splitting oracle; level directedness."""
    name = "K-ring normal forms"
    started = time.perf_counter()
    try:
        rng = random.Random(271828)
        for trial in range(1000):
            n_terms = rng.randint(0, 6)
            sum_ = FormalSum.from_terms(
                [
                    (F(rng.randint(-15, 15), rng.randint(1, 24)), rng.randint(-6, 6))
                    for _ in range(n_terms)
                ]
            )
            closed = reduce(sum_)
            assert oracle_reduce(sum_, seed=trial) == closed
            assert oracle_reduce(sum_, seed=trial + 10**6) == closed
        # worked identity: x^(1/2) * x^(1/2) == 2 x^(1/2) - 1 in normal form
        half = reduce(FormalSum.monomial(F(1, 2)))
        assert half * half == reduce(
            FormalSum.from_terms([(F(1, 2), 2), (F(0), -1)])
        )
        # directedness of level images under divisibility
        elements = [
            KRingElement(a, F(p, q))
            for a in (-1, 2)
            for p in range(-8, 9)
            for q in (1, 2, 3, 4, 6, 8, 12, 24)
        ]
        for n in range(1, 25):
            for m in range(1, 25):
                if m % n == 0:
                    for e in elements:
                        if in_level_image(e, n):
                            assert in_level_image(e, m)
    except BaseException:
        _fail_line(name)
        raise
    _report(name, started, 30.0)


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def test_property_suites():
    """Randomized structural invariants: normal forms, kernels, face
    closure, symmetry independence of presentation choices."""
    name = "property suites"
    started = time.perf_counter()
    try:
        rng = random.Random(314159)
        # Smith form invariants on random small matrices
        for _ in range(250):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            )
            u, d, v = smith_normal_form(a)
            assert matmul(matmul(u.entries, a.entries), v.entries) == d.entries
            assert leibniz_det(u.entries) in (1, -1) and leibniz_det(v.entries) in (1, -1)
            diag = [d.entries[i][i] for i in range(min(m, n))]
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or y == 0 or (x != 0 and y % x == 0)
            kernel = integer_kernel(a)
            assert kernel.cols == n - a.rank()
            for j in range(kernel.cols):
                assert a.mat_vec(kernel.column(j)) == (0,) * m
        # kernel box completeness on small systems
        from itertools import product

        for _ in range(40):
            m = rng.randint(1, 3)
            a = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(m)]
            )
            kernel = integer_kernel(a)
            for c in product(range(-3, 4), repeat=3):
                if a.mat_vec(c) == (0,) * m:
                    if kernel.cols == 0:
                        assert all(x == 0 for x in c)
                    else:
                        assert solve_integer(kernel, c) is not None
        # face closure is downward closed on every example fan
        for fan in catalog.shipped_fans().values():
            carrier = set(fan.cones())
            for cone in carrier:
                for face in powerset(cone):
                    assert tuple(sorted(face)) in carrier
            antichain = discriminant_locus(fan).minimal_subsets
            for subset in powerset(range(fan.n_rays)):
                covered = any(set(t) <= set(subset) for t in antichain)
                assert covered == (not fan.is_cone(subset))
        # fan symmetry is independent of the lattice basis and of the
        # charge-matrix column presentation
        base_fan = catalog.hirzebruch(2)
        sym0 = fan_symmetry(base_fan)
        from toriq.quotient import _row_classes

        q0 = charge_matrix(base_fan).matrix
        for _ in range(30):
            t = [[1, 0], [0, 1]]
            for _ in range(5):
                i, j = rng.sample(range(2), 2)
                c = rng.randint(-2, 2)
                for row in t:
                    row[i] += c * row[j]
            tm = IntMatrix.from_rows(t)
            assert leibniz_det(t) in (1, -1)
            moved = build_fan(
                2, [tm.mat_vec(v) for v in base_fan.rays], base_fan.maximal_cones, complete=True
            )
            sym = fan_symmetry(moved)
            assert (sym.order, sym.row_classes, sym.generators) == (
                sym0.order,
                sym0.row_classes,
                sym0.generators,
            )
            w = [[1, 0], [0, 1]]
            for _ in range(4):
                i, j = rng.sample(range(2), 2)
                c = rng.randint(-3, 3)
                for row in w:
                    row[i] += c * row[j]
            mixed = IntMatrix.from_rows(matmul(q0.entries, w))
            assert _row_classes(mixed) == _row_classes(q0)
    except BaseException:
        _fail_line(name)
        raise
    _report(name, started, 30.0)

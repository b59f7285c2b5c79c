"""Fast paths of ``toriq.cones`` against the exhaustive algorithms they
replaced (``slow_paths.py``), plus output-sensitivity and Hirzebruch-Jung
checks of the rank-2 boundary walk and the fiber-rank count."""

import random
import re
import time
from fractions import Fraction
from math import atan2, comb, gcd
from itertools import combinations, product

import pytest

from oracles import leibniz_det, matmul
from slow_paths import (
    slow_affine_fiber_rank,
    slow_dual_cone,
    slow_hilbert_basis,
    slow_integer_kernel,
    slow_lineality_basis,
    slow_parallelepiped_points,
    slow_rank2_start,
    slow_split_rays,
)
from toriq import catalog, cones as cones_module, intlinalg
from toriq.cones import (
    RationalCone,
    _lineality_quotient,
    _parallelepiped,
    _rank2_start,
    _smith_rays,
    affine_fiber_rank,
    dual_cone,
    fan_cone,
    hilbert_basis,
    lineality_basis,
)
from toriq.errors import DomainError, FanValidationError, ResourceLimitError
from toriq.fans import build_fan
from toriq.intlinalg import IntMatrix, primitive

SEED = 20261018


def _unit(rank, i, sign=1):
    return tuple(sign * int(i == j) for j in range(rank))


def _product_fan(dims):
    """cp^{d_1} x ... x cp^{d_k}: a product of standard projective fans."""
    rank = sum(dims)
    rays, blocks, offset = [], [], 0
    for m in dims:
        pad = lambda v: (0,) * offset + v + (0,) * (rank - offset - m)
        blocks.append(range(len(rays), len(rays) + m + 1))
        rays += [pad(_unit(m, i)) for i in range(m)] + [pad((-1,) * m)]
        offset += m
    cones = [
        [i for block, skip in zip(blocks, choice) for i in block if i != skip]
        for choice in product(*blocks)
    ]
    return build_fan(rank, rays, cones, complete=True)


def _simplicial_cones(rng, count):
    """Independent generator sets, full-dimensional with |det| <= 60 or of
    lower dimension, ranks 1-4."""
    cones = []
    while len(cones) < count:
        rank = rng.choice([1, 2, 2, 3, 3, 4])
        k = rank if rng.random() < 0.8 else rng.randint(1, rank)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(k)]
        if IntMatrix.from_rows(gens, rank).rank() != k:
            continue
        if k == rank and abs(leibniz_det(gens)) > 60:
            continue
        cones.append(RationalCone.from_generators(rank, gens))
    return cones


def _singular_simplicial_cones():
    """Full-dimensional simplicial cones of rank 3 and 4 with |det| up to 100,
    past the random corpus's bound of 60."""
    gens = [
        [(1, 0, 0), (0, 1, 0), (1, 2, 97)],
        [(1, 0, 0), (0, 1, 0), (-1, -1, -12)],
        [(2, 1, 0), (0, 3, 1), (1, 0, 5)],
        [(1, 1, 1), (1, -1, 2), (3, 2, -7)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 100)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -2, -3, -47)],
        [(1, 1, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1), (1, 0, 0, 5)],
        [(2, 1, 1, 0), (-1, 3, 0, 2), (1, -1, 4, 1), (0, 2, -1, 3)],
    ]
    return [RationalCone.from_generators(len(g[0]), g) for g in gens]


def _non_simplicial_pointed_cones(rng, count):
    """More generators than the rank, all on one side of a hyperplane."""
    cones = []
    while len(cones) < count:
        rank = rng.choice([2, 3, 3, 4])
        k = rng.randint(rank + 1, rank + 2)
        top = 2 if rank < 4 else 1
        gens = [
            tuple(rng.randint(-top, top) for _ in range(rank - 1)) + (rng.randint(1, 2),)
            for _ in range(k)
        ]
        cone = RationalCone.from_generators(rank, gens)
        if len(cone.generators) > rank:
            cones.append(cone)
    return cones


def corpus_fans():
    """The shipped fans, cp^1-4 and product fans."""
    fans = list(catalog.shipped_fans().values())
    fans += [catalog.projective_space(m) for m in range(1, 5)]
    fans += [_product_fan(dims) for dims in ((1, 1), (1, 2), (1, 1, 1), (2, 2), (1, 1, 2))]
    return fans


def _fan_duals():
    """Duals of every cone (zero cone included) of the corpus fans.  Every
    one but the duals of maximal cones is non-pointed."""
    return [dual_cone(fan_cone(fan, c)) for fan in corpus_fans() for c in fan.cones()]


def _boundary_cones():
    cones = [RationalCone.from_generators(3, [(0, 0, 1), (0, -1, 2), (0, 5, -1)])]
    for rank in range(1, 5):
        cones.append(RationalCone(rank, ()))
        cones.append(RationalCone.from_generators(
            rank, [_unit(rank, i, s) for i in range(rank) for s in (1, -1)]
        ))
    return cones


def test_fast_paths_match_slow_paths():
    rng = random.Random(SEED)
    simplicial = _simplicial_cones(rng, 160) + _singular_simplicial_cones()
    fan_duals = _fan_duals()
    other = _non_simplicial_pointed_cones(rng, 30) + _boundary_cones()
    cones = simplicial + fan_duals + other
    assert len(cones) >= 300
    assert {c.ambient_rank for c in cones} == {1, 2, 3, 4}
    assert sum(1 for d in fan_duals if lineality_basis(d)) >= 100
    for cone in cones:
        assert dual_cone(cone).generators == slow_dual_cone(cone).generators, cone
        assert hilbert_basis(cone).generators == slow_hilbert_basis(cone), cone
    # duals of the dual cones: the pointed side of every fan cone, and the
    # split (pairs plus independent rays) input shape of the fast dual
    for cone in simplicial + fan_duals:
        dual = dual_cone(cone)
        assert dual_cone(dual).generators == slow_dual_cone(dual).generators, cone


def test_lineality_basis_matches_slow_path():
    """The lineality basis, in order, against the kernel of the dual's
    generators, on the corpus and its duals.  Duals carry the basis
    ``dual_cone`` built them with; a fresh rebuild of each cone carries
    none, computes it on the first call and keeps it."""
    rng = random.Random(SEED)
    corpus = (_simplicial_cones(rng, 160) + _fan_duals()
              + _non_simplicial_pointed_cones(rng, 30) + _boundary_cones())
    duals = [dual_cone(cone) for cone in corpus]
    assert all(dual._lineality is not None for dual in duals)
    non_pointed = 0
    for cone in corpus + duals:
        expected = slow_lineality_basis(cone)
        non_pointed += bool(expected)
        if cone._lineality is not None:
            assert lineality_basis(cone) == expected, cone
        fresh = RationalCone.from_generators(cone.ambient_rank, cone.generators)
        assert fresh._lineality is None
        assert lineality_basis(fresh) == expected, cone
        assert fresh._lineality == tuple(expected)
    assert non_pointed >= 200


def test_rank2_fiber_ranks_take_no_dual_of_a_dual(monkeypatch):
    """From empty caches, the Hilbert bases of the duals of the cones of a
    weighted plane and of cp^2 never take the Smith form of a dual cone's
    generators: ``hilbert_basis`` reads the lineality the dual carries, and
    the rank-2 walk needs no dual.  (``affine_fiber_rank`` counts these
    ranks without building either basis.)"""
    smith_rays, dual = cones_module._smith_rays, cones_module.dual_cone
    inputs, outputs, repeats = [], set(), []

    def recording_smith_rays(gens, rank):
        inputs.append(gens)
        if gens in outputs:
            repeats.append(gens)
        return smith_rays(gens, rank)

    def recording_dual(sigma):
        out = dual(sigma)
        outputs.add(out.generators)
        return out

    dual_cone.cache_clear()
    hilbert_basis.cache_clear()
    monkeypatch.setattr(cones_module, "_smith_rays", recording_smith_rays)
    monkeypatch.setattr(cones_module, "dual_cone", recording_dual)
    for fan in (catalog.weighted_plane(7), catalog.projective_plane()):
        for cone in fan.cones():
            hilbert_basis(cones_module.dual_cone(fan_cone(fan, cone)))
    assert len(inputs) >= 14 and len(outputs) >= 14
    assert repeats == []


def test_smith_rays_match_per_facet_kernels():
    """Rays read off one Smith form against one kernel per facet, on the
    corpus above and the duals of its simplicial cones and fan duals.  Both
    must agree on which inputs split, and on split inputs the rays must
    reduce modulo the lineality lattice to the same list, in generator
    order.  The lineality from the one Hermite pass must equal the kernel
    read off a Smith form (Z^n for the zero cone)."""
    rng = random.Random(SEED)
    simplicial = _simplicial_cones(rng, 160)
    fan_duals = _fan_duals()
    other = _non_simplicial_pointed_cones(rng, 30) + _boundary_cones()
    cones = simplicial + fan_duals + other
    cones += [dual_cone(cone) for cone in simplicial + fan_duals]
    split = not_split = 0
    for cone in cones:
        n, gens = cone.ambient_rank, cone.generators
        lineality, rays = _smith_rays(gens, n)
        smith_read = (slow_integer_kernel(IntMatrix.from_rows(gens, n)).columns() if gens
                      else tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
        assert lineality == list(smith_read), cone
        rho = n - len(lineality)
        if rho == 0:
            continue
        oracle = slow_split_rays(gens, rho, n)
        assert (rays is None) == (oracle is None), cone
        if rays is None:
            not_split += 1
            continue
        split += 1
        project, lift = _lineality_quotient(lineality, n)
        assert ([primitive(lift(project(r))) for r in rays]
                == [primitive(lift(project(r))) for r in oracle]), cone
    assert split >= 500 and not_split >= 30


def test_parallelepiped_points_match_slow_path():
    """Smith-form enumeration against the ``Fraction``-solve enumeration, on
    independent subsets of rank 1-4, lower-dimensional ones included.  A
    Gram determinant of at most 30^2 bounds the number of points by 30.
    Points are compared as sorted lists, so a repeated coset shows, and
    the size read off the Smith diagonal must count them."""
    rng = random.Random(SEED)
    shapes = set()
    checked = 0
    while checked < 2000:
        rank = rng.randint(1, 4)
        k = rank if rng.random() < 0.5 else rng.randint(1, rank)
        bound = 9 if rank == 1 else 4
        gens = [tuple(rng.randint(-bound, bound) for _ in range(rank)) for _ in range(k)]
        g = IntMatrix.from_rows(gens, rank)
        if g.rank() != k or leibniz_det(matmul(gens, g.columns())) > 30 ** 2:
            continue
        size, points = _parallelepiped(gens, rank)
        points = list(points)
        assert size == len(points), gens
        assert sorted(points) == sorted(slow_parallelepiped_points(gens, rank)), gens
        shapes.add((rank, k))
        checked += 1
    assert shapes == {(r, k) for r in range(1, 5) for k in range(1, r + 1)}


def test_rank2_walk_is_output_sensitive():
    cone = RationalCone.from_generators(2, [(0, 1), (100000, -1)])
    assert hilbert_basis(cone).generators == ((0, 1), (1, 0), (100000, -1))
    for n in (3, 50, 20000):
        fan = catalog.weighted_plane(n)
        assert hilbert_basis(dual_cone(fan_cone(fan, (0, 1)))).rank_r == n + 1
        assert affine_fiber_rank(fan, (0, 1)) == n + 1


def test_rank2_basis_past_the_cap_is_refused():
    """The cone (0, 1), (n, 1) has n + 1 basis elements: the walk refuses to
    list them past ``_POINT_CAP`` and names the cone, size and cap."""
    cap = cones_module._POINT_CAP
    cone = RationalCone.from_generators(2, [(0, 1), (cap, 1)])
    with pytest.raises(ResourceLimitError, match=rf"hilbert_basis: .*\(0, 1\) and \({cap}, 1\) "
                       rf"has {cap + 1} basis elements, past the cap of {cap}"):
        hilbert_basis(cone)


def test_parallelepiped_candidates_past_the_cap_are_refused(monkeypatch):
    """``_pointed_hilbert_basis`` sizes every parallelepiped from its Smith
    diagonal before it lists any point and refuses more than
    ``_POINT_CAP`` candidates: the dual of a random rank-4 cone, whose 70
    generator 4-subsets hold 2,291,100 points, and the singular chart dual
    of P(1, 1, 1, 1500), with 1500^2.  At the cap it lists them all."""
    cap = cones_module._POINT_CAP
    start = time.perf_counter()
    dual = dual_cone(RationalCone.from_generators(4, [
        (0, 1, 0, -2), (-2, -1, 0, -3), (1, -3, -2, 0), (1, -2, 1, -2),
        (3, 2, 0, 1), (-2, -1, 3, -1), (-3, -3, 2, -1),
    ]))
    assert len(dual.generators) == 8
    with pytest.raises(ResourceLimitError, match=rf"^hilbert_basis: the cone spanned by .* "
                       rf"has 2291100 candidates in .* 4-generator subsets, past the cap of {cap}$"):
        hilbert_basis(dual)
    chart = RationalCone.from_generators(3, [(-1, -1, -1500), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(ResourceLimitError, match=rf"has {1500 ** 2} candidates"):
        hilbert_basis(dual_cone(chart))
    assert time.perf_counter() - start < 1.0
    # a dependent subset has size 0 and lists nothing
    size, points = _parallelepiped([(1, 0, 0), (2, 0, 0)], 3)
    assert size == 0 and list(points) == []
    # the chart dual of P(1, 1, 1, 4) has 16 candidates: refused only past them
    four = dual_cone(RationalCone.from_generators(3, [(-1, -1, -4), (1, 0, 0), (0, 1, 0)]))
    hilbert_basis.cache_clear()
    monkeypatch.setattr(cones_module, "_POINT_CAP", 15)
    with pytest.raises(ResourceLimitError, match="has 16 candidates"):
        hilbert_basis(four)
    monkeypatch.setattr(cones_module, "_POINT_CAP", 16)
    assert hilbert_basis(four).generators == tuple(slow_hilbert_basis(four))


def test_rank3_fiber_rank_past_the_cap_is_counted():
    """A 2-cone in rank 3 with a rank-2 quotient past the cap: the dual of
    (1, 0), (d - 1, d) is spanned by (0, 1) and (d, 1 - d) and has basis
    (0, 1), (j, 1 - j) for j = 1..d, so the fiber rank is 2 + (d + 1).
    ``affine_fiber_rank`` counts it, and ``hilbert_basis`` of the dual
    refuses to list it, naming the dual cone itself."""
    cap = cones_module._POINT_CAP
    d = 2 * cap
    fan = build_fan(3, [(1, 0, 0), (d - 1, d, 0)], [[0, 1]])
    assert affine_fiber_rank(fan, (0, 1)) == 2 + d + 1
    dual = dual_cone(fan_cone(fan, (0, 1)))
    named = ", ".join(map(str, dual.generators))
    with pytest.raises(ResourceLimitError, match=rf"hilbert_basis: the cone spanned by {re.escape(named)} "
                       rf"has a pointed quotient .* has {d + 1} basis elements, past the cap of {cap}"):
        hilbert_basis(dual)
    # a singular 2-cone of determinant d whose dual basis is small
    fan = build_fan(3, [(1, 0, 0), (1, d, 0)], [[0, 1]])
    assert affine_fiber_rank(fan, (0, 1)) == 2 + 3 == slow_affine_fiber_rank(fan, (0, 1))


def test_hilbert_basis_closed_form_sizes():
    """Sizes past the reach of the slow path: the dual of the chart
    (e1, e2, (-1, -1, -n)) of P(1,1,1,n) has C(n+2, 2) basis elements, and
    the cone (e1, e2, (1, 2, d)) has d + 2."""
    chart = RationalCone.from_generators(3, [(1, 0, 0), (0, 1, 0), (-1, -1, -50)])
    assert hilbert_basis(dual_cone(chart)).rank_r == comb(52, 2) == 1326
    cone = RationalCone.from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 2, 2001)])
    assert hilbert_basis(cone).rank_r == 2003


def _hirzebruch_jung(d, k):
    """Entries b_i of d/k = b_1 - 1/(b_2 - 1/(...))."""
    x, out = Fraction(d, k), []
    while True:
        b = -((-x.numerator) // x.denominator)  # ceiling
        out.append(b)
        if x == b:
            return out
        x = 1 / (b - x)


def test_rank2_start_matches_hermite_bezout_pair():
    """The modular-inverse Bezout pair against the Hermite-form one, on every
    primitive u and nonzero w with entries in [-6, 6] (u1 = 0 and |u1| = 1
    among them) and on random 64-bit pairs."""
    box = [v for v in product(range(-6, 7), repeat=2) if any(v)]
    rng = random.Random(SEED)
    big = [tuple(rng.randint(-2**64, 2**64) for _ in range(4)) for _ in range(2000)]
    pairs = [(u, w) for u in box if gcd(*u) == 1 for w in box]
    pairs += [(primitive(v[:2]), v[2:]) for v in big if any(v[:2])]
    checked = 0
    for u, w in pairs:
        if u[0] * w[1] - u[1] * w[0]:
            assert _rank2_start(u, w) == slow_rank2_start(u, w), (u, w)
            checked += 1
    assert checked > 10000


def test_rank2_basis_size_is_hirzebruch_jung_length():
    for d in range(2, 201):
        for k in range(1, d):
            if gcd(d, k) != 1:
                continue
            cone = RationalCone.from_generators(2, [(0, 1), (d, -k)])
            assert hilbert_basis(cone).rank_r == 2 + len(_hirzebruch_jung(d, k)), (d, k)


def _simplex_fan(tail):
    """Complete fan with rays e_1, ..., e_n and -tail, and every n of them
    spanning a maximal cone; tail (1, ..., 1) gives cp^n.  Its cones are
    singular where the minors of the tail are not coprime."""
    n = len(tail)
    rays = [_unit(n, i) for i in range(n)] + [tuple(-x for x in tail)]
    return build_fan(n, rays, combinations(range(n + 1), n), complete=True)


def _random_polygon_fan(rng):
    """Complete rank-2 fan on 4-9 random primitive rays, no two adjacent
    ones half a turn or more apart."""
    while True:
        points = [(rng.randint(-7, 7), rng.randint(-7, 7)) for _ in range(rng.randint(4, 9))]
        rays = sorted({primitive(v) for v in points if any(v)}, key=lambda v: atan2(v[1], v[0]))
        m = len(rays)
        pairs = [(rays[i], rays[(i + 1) % m]) for i in range(m)]
        if m >= 3 and all(u[0] * w[1] - u[1] * w[0] > 0 for u, w in pairs):
            return build_fan(2, rays, [[i, (i + 1) % m] for i in range(m)], complete=True)


def _disguise(rng, fan):
    """The fan moved by a random unimodular map: column operations on its rays."""
    n = fan.lattice_rank
    rays = [list(v) for v in fan.rays]
    for _ in range(3 * n):
        i, j, q = rng.randrange(n), rng.randrange(n), rng.choice([-2, -1, 1, 2])
        for v in rays:
            if i == j:
                v[i] = -v[i]
            else:
                v[i] += q * v[j]
    return build_fan(n, rays, fan.maximal_cones, complete=fan.complete)


def _blown_up_cp3(rng, steps):
    """cp^3 after ``steps`` star subdivisions, each of a random 2- or 3-cone
    at the sum of its rays: smooth and complete."""
    rays = [_unit(3, i) for i in range(3)] + [(-1, -1, -1)]
    cones = {frozenset(c) for c in combinations(range(4), 3)}
    for _ in range(steps):
        faces = sorted({f for c in cones for r in (2, 3) for f in combinations(sorted(c), r)})
        star = frozenset(rng.choice(faces))
        rays.append(tuple(map(sum, zip(*(rays[i] for i in star)))))
        for cone in [c for c in cones if star <= c]:
            cones.remove(cone)
            cones.update(cone - {i} | {len(rays) - 1} for i in star)
    return build_fan(3, rays, cones, complete=True)


def _mask_fans(rng):
    """(fan, its expected ``_unimodular`` mask).  P(1,1,1,2), whose maximal
    cone on e_1, e_2 and -(1, 1, 2) alone is singular; a disguised smooth
    blow-up of cp^3; and three incomplete rank-4 fans with a 3-ray and a
    2-ray maximal cone: last Bareiss pivot +-1; pivot 2 but index 1, a
    unimodular pair the mask leaves to the Hermite index; and index 2."""
    blown_up = _disguise(rng, _blown_up_cp3(rng, 8))
    return [
        (_simplex_fan((1, 1, 2)), 0b1101),
        (blown_up, (1 << len(blown_up.maximal_cones)) - 1),
        (build_fan(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0)],
                   [[0, 1, 2], [3, 4]]), 0b11),
        (build_fan(4, [(2, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, -1, 0, 0), (0, 0, -2, 1)],
                   [[0, 1, 2], [3, 4]]), 0),
        (build_fan(4, [(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1), (0, 0, -1, -1)],
                   [[0, 1, 2], [3, 4]]), 0),
    ]


def test_unimodular_mask_is_sound_and_decides_full_dimensional_cones():
    """``Fan._unimodular`` on the fans of ``_mask_fans``, and on every fan of
    the fiber-rank check: a marked maximal cone has index 1 (the gcd of its
    rays' maximal minors), and a full-dimensional one is marked exactly
    when |det| = 1."""
    for fan, mask in _mask_fans(random.Random(SEED + 2)):
        assert fan._unimodular == mask, fan
    for fan in _fiber_rank_fans():
        n = fan.lattice_rank
        for k, cone in enumerate(fan.maximal_cones):
            rays = [fan.rays[i] for i in cone]
            index = gcd(*(leibniz_det([[v[j] for j in cols] for v in rays])
                          for cols in combinations(range(n), len(cone))))
            marked = fan._unimodular >> k & 1
            assert not marked or index == 1, (fan, cone)
            if len(cone) == n:
                assert marked == (index == 1), (fan, cone)


def test_smooth_fans_take_no_lattice_work(monkeypatch):
    """Every face of a smooth fan has fiber rank 2n - k with no Hermite
    form, determinant or Hilbert basis: cp^1-5, the shipped smooth fans, a
    disguised blow-up of cp^3 and a disguised 12-ray unimodular cone."""
    rng = random.Random(SEED + 3)
    fans = [catalog.projective_space(m) for m in range(1, 6)]
    fans += [catalog.load_named(name) for name in
             ("cp1", "cp2", "cp1xcp1", "hirzebruch_1", "hirzebruch_2", "hirzebruch_3")]
    fans.append(_disguise(rng, _blown_up_cp3(rng, 8)))
    fans.append(_disguise(rng, build_fan(12, [_unit(12, i) for i in range(12)], [range(12)])))

    def refuse(*args, **kwargs):
        raise AssertionError("lattice work on a face of a smooth fan")

    monkeypatch.setattr(cones_module, "_hermite", refuse)
    monkeypatch.setattr(cones_module, "hilbert_basis", refuse)
    monkeypatch.setattr(intlinalg, "_bareiss", refuse)
    monkeypatch.setattr(cones_module, "_bareiss", refuse)
    faces = 0
    for fan in fans:
        n = fan.lattice_rank
        for cone in fan.cones():
            assert affine_fiber_rank(fan, cone) == 2 * n - len(cone), (fan, cone)
            faces += 1
    assert faces > 4096


def _fiber_rank_cones():
    """(fan, cone) pairs: every cone of the fans below, each coprime
    0 <= q < d < 120 as the 2-cone of a two-ray fan, in four orientations
    (its faces are cones of the other fans), and each coprime 0 < q < d < 40
    lifted to a disguised 2-cone in rank 3 and 4 by random further
    coordinates, which change the lattice of the rays' span."""
    for fan in _fiber_rank_fans():
        for cone in fan.cones():
            yield fan, cone
    for d in range(1, 120):
        for q in range(d):
            if gcd(d, q) == 1:
                for rays in ([(0, 1), (d, -q)], [(d, -q), (0, 1)], [(1, 0), (-q, d)], [(-q, d), (1, 0)]):
                    yield build_fan(2, rays, [[0, 1]]), (0, 1)
    rng = random.Random(SEED + 1)
    for d in range(2, 40):
        for q in range(1, d):
            if gcd(d, q) == 1:
                for n in (3, 4):
                    extra = [rng.randint(-3, 3) for _ in range(2 * n - 4)]
                    rays = [(0, 1, *extra[:n - 2]), (d, -q, *extra[n - 2:])]
                    yield _disguise(rng, build_fan(n, rays, [[0, 1]])), (0, 1)


def _fiber_rank_fans():
    rng = random.Random(SEED)
    fans = list(catalog.shipped_fans().values())
    fans += [catalog.projective_space(m) for m in range(1, 6)]
    fans += [catalog.weighted_plane(n) for n in range(1, 201)]
    # singular 2-, 3- and 4-cones in rank 3 and 4 (e_1 and -tail)
    simplices = [_simplex_fan(t) for t in ((1, 2, 4), (1, 6, 9), (2, 3, 5), (1, 2, 4, 6), (1, 1, 3, 9))]
    fans += simplices
    # a 3-cone in rank 4 whose Hermite pivots are 1, 2, 1: the index is their
    # product, not the last one
    fans.append(build_fan(4, [(1, 0, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0)], [[0, 1, 2]]))
    fans += [_disguise(rng, fan) for fan in simplices]
    fans += [_disguise(rng, _random_polygon_fan(rng)) for _ in range(40)]
    fans += [_disguise(rng, _simplex_fan(primitive([rng.randint(1, 7) for _ in range(rank)])))
             for rank in (3, 3, 4, 4)]
    fans += [_disguise(rng, catalog.hirzebruch(rng.randint(0, 30))) for _ in range(5)]
    fans += [fan for fan, _ in _mask_fans(rng)]
    return fans


def test_fiber_rank_count_matches_built_basis():
    """``affine_fiber_rank`` against the length of the built Hilbert basis,
    on every cone of the shipped fans, cp^1-5, weighted planes up to 200,
    every 2-cone of determinant below 120 in four orientations, singular
    2-cones lifted to rank 3 and 4, singular cones of rank 3 and 4, and
    disguised random fans."""
    shapes = set()
    checked = 0
    for fan, cone in _fiber_rank_cones():
        n, r = fan.lattice_rank, affine_fiber_rank(fan, cone)
        assert r == slow_affine_fiber_rank(fan, cone), (fan, cone)
        shapes.add((n, len(cone), r > 2 * n - len(cone)))
        checked += 1
    assert checked >= 19000
    # every path: unimodular cones of each size, singular 2-cones in rank 2
    # to 4, and the fallback's singular cones of size >= 3 in rank 3 and 4
    assert {(n, k, False) for n in range(1, 6) for k in range(n + 1)} <= shapes
    assert {(2, 2, True), (3, 2, True), (3, 3, True), (4, 2, True), (4, 3, True), (4, 4, True)} <= shapes


def test_cone_queries_sort_only_out_of_order_indices():
    """``fan_cone`` and ``affine_fiber_rank`` check indices in one pass and
    sort only indices that do not strictly increase: reversed, repeated and
    generator inputs give the same cone and rank as the sorted tuple, and a
    non-cone names its rays sorted and deduplicated."""
    rng = random.Random(SEED)
    fans = [catalog.projective_space(3), catalog.weighted_plane(7), _simplex_fan((1, 2, 3))]
    fans += [_disguise(rng, _random_polygon_fan(rng)) for _ in range(5)]
    checked = 0
    for fan in fans:
        for cone in fan.cones()[1:]:
            rank, sigma = affine_fiber_rank(fan, cone), fan_cone(fan, cone)
            for indices in (cone[::-1], cone + cone[:1], cone[:1] + cone, iter(cone)):
                assert affine_fiber_rank(fan, indices) == rank, (fan, indices)
            assert fan_cone(fan, cone[::-1] + cone) == sigma
            checked += 1
    assert checked >= 80
    cp3 = catalog.projective_space(3)
    for indices in ((3, 0, 1, 2, 0), [2, 1, 0, 3]):
        with pytest.raises(DomainError, match=re.escape("[1, 2, 3, 4] is not a cone of the fan")):
            affine_fiber_rank(cp3, indices)
    with pytest.raises(FanValidationError, match="ray index 5 out of range"):
        fan_cone(cp3, (2, 1, 4))

"""Dual cones and Hilbert bases, checked against brute-force oracles."""

import random
from fractions import Fraction
from itertools import product

import pytest

from oracles import (
    closure_points,
    generated_points,
    halfspace_lattice_points,
    irreducible_in_semigroup,
    is_nonneg_combination,
)
from toriq import catalog
from toriq.cones import (
    RationalCone,
    affine_fiber_rank,
    cone_contains,
    dual_cone,
    fan_cone,
    hilbert_basis,
    lineality_basis,
)
from toriq.errors import DomainError
from toriq.intlinalg import dot

BOX = 5


def orthant(rank):
    return RationalCone.from_generators(
        rank, [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    )


def test_dual_of_orthant_is_orthant():
    c = orthant(2)
    assert dual_cone(c).generators == c.generators


def test_dual_of_single_ray_is_halfplane():
    d = dual_cone(RationalCone.from_generators(2, [(1, 0)]))
    assert set(d.generators) == {(1, 0), (0, 1), (0, -1)}


def test_dual_of_wedge():
    d = dual_cone(RationalCone.from_generators(2, [(0, 1), (2, -1)]))
    assert set(d.generators) == {(1, 0), (1, 2)}


def test_generators_stored_primitive_and_deduped():
    c = RationalCone.from_generators(2, [(2, 4), (1, 2), (3, 0)])
    assert c.generators == ((1, 0), (1, 2))


@pytest.mark.parametrize(
    "gens",
    [
        [(1, 0), (0, 1)],
        [(1, 0)],
        [(0, 1), (2, -1)],
        [(1, 1), (1, -1)],
        [(2, 3), (3, -1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 0, 0), (1, 2, 0), (1, 0, 3)],
        [(1, 1, 1)],
        [(1, 0, 0), (0, 1, 0)],
    ],
)
def test_duality_soundness_and_box_completeness(gens):
    rank = len(gens[0])
    cone = RationalCone.from_generators(rank, gens)
    dual = dual_cone(cone)
    for d in dual.generators:
        for g in cone.generators:
            assert dot(d, g) >= 0
    # every box point satisfying the primal inequalities is a nonnegative
    # rational combination of the dual generators (independent FM oracle)
    for point in halfspace_lattice_points(cone.generators, rank, BOX):
        assert is_nonneg_combination(dual.generators, point), point


@pytest.mark.parametrize(
    "gens",
    [[(1, 0), (0, 1)], [(0, 1), (2, -1)], [(1, 0)], [(1, 1), (1, -1)], [(1, 2, 3)]],
)
def test_double_dual_same_solution_set(gens):
    rank = len(gens[0])
    cone = RationalCone.from_generators(rank, gens)
    double = dual_cone(dual_cone(cone))
    for point in product(range(-3, 4), repeat=rank):
        assert is_nonneg_combination(cone.generators, point) == is_nonneg_combination(
            double.generators, point
        )


def test_hilbert_orthant():
    hb = hilbert_basis(orthant(2))
    assert set(hb.generators) == {(1, 0), (0, 1)}
    assert hb.rank_r == 2


def test_hilbert_wedge_dual():
    hb = hilbert_basis(RationalCone.from_generators(2, [(1, 0), (1, 2)]))
    assert hb.generators == ((1, 0), (1, 1), (1, 2))
    assert hb.rank_r == 3


def test_hilbert_halfplane():
    hb = hilbert_basis(RationalCone.from_generators(2, [(1, 0), (0, 1), (0, -1)]))
    assert set(hb.generators) == {(1, 0), (0, 1), (0, -1)}
    assert hb.rank_r == 3


def test_hilbert_full_space():
    rank = 3
    gens = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    gens += [tuple(-x for x in g) for g in gens]
    hb = hilbert_basis(RationalCone.from_generators(rank, gens))
    assert hb.rank_r == 2 * rank


def test_hilbert_non_simplicial_pointed():
    # cone over a square: 4 extreme rays in rank 3
    gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    cone = RationalCone.from_generators(3, gens)
    hb = hilbert_basis(cone)
    assert set(gens) <= set(hb.generators)
    assert (0, 0, 1) in hb.generators  # interior point of the fundamental region
    dual = dual_cone(cone).generators
    weight = tuple(sum(d[i] for d in dual) for i in range(3))
    points = [p for p in product(range(-3, 4), repeat=3) if cone_contains(cone, p)]
    assert generated_points(points, hb.generators, weight, dual) == set(points)
    rest = [b for b in hb.generators if b != (0, 0, 1)]
    missed = set(points) - generated_points(points, rest, weight, dual)
    assert (0, 0, 1) in missed and (0, 0, 2) not in missed  # (0, 0, 2) = (1, 0, 1) + (-1, 0, 1)


def test_hilbert_singular_quadric_cone():
    # dual of the weight-n chart: Hilbert basis has n+1 elements
    for n in (2, 3, 5):
        hb = hilbert_basis(RationalCone.from_generators(2, [(0, 1), (n, 1)]))
        assert hb.rank_r == n + 1
        assert set(hb.generators) == {(k, 1) for k in range(n + 1)}


def test_hilbert_minimality_on_worked_examples():
    # removing any basis element must break bounded generation
    for gens in ([(1, 0), (1, 2)], [(1, 0), (0, 1), (0, -1)], [(0, 1), (5, 1)]):
        cone = RationalCone.from_generators(2, gens)
        hb = hilbert_basis(cone)
        dual = dual_cone(cone)
        weight = tuple(sum(d[i] for d in dual.generators) for i in range(2))
        points = [
            p
            for p in product(range(-BOX, BOX + 1), repeat=2)
            if cone_contains(cone, p)
        ]
        w_cap = max(dot(weight, p) for p in points)
        reachable = closure_points(hb.generators, 2, weight, w_cap, coord_bound=75)
        assert all(p in reachable for p in points)
        for drop in hb.generators:
            rest = [b for b in hb.generators if b != drop]
            partial = closure_points(rest, 2, weight, w_cap, coord_bound=75)
            assert not all(p in partial for p in points), (gens, drop)


def test_cone_contains_is_exact():
    ray = RationalCone(2, ((1, 0),))
    assert cone_contains(ray, (3, 0)) and cone_contains(ray, (Fraction(3, 2), 0))
    assert not cone_contains(ray, (Fraction(3, 2), Fraction(1, 10**30)))
    for point in [(1.5, 0), (1, 0.0), (Fraction(1, 2), "x")]:
        with pytest.raises(DomainError):
            cone_contains(ray, point)


def test_lineality_basis():
    halfplane = RationalCone.from_generators(2, [(1, 0), (0, 1), (0, -1)])
    assert lineality_basis(halfplane) == [(0, 1)]
    assert lineality_basis(orthant(2)) == []


def test_fan_cone_and_fiber_ranks():
    cp2 = catalog.projective_plane()
    assert fan_cone(cp2, ()).is_zero
    assert affine_fiber_rank(cp2, (0, 1)) == 2
    assert affine_fiber_rank(cp2, ()) == 4
    assert affine_fiber_rank(cp2, (0,)) == 3
    with pytest.raises(DomainError):
        fan_cone(catalog.product_of_lines(), (0, 1))  # not a cone
    with pytest.raises(DomainError, match=r"\[1, 2\] is not a cone"):
        affine_fiber_rank(catalog.product_of_lines(), (0, 1))


def test_fiber_rank_wedge_fan():
    from toriq.fans import build_fan

    fan = build_fan(2, [(0, 1), (2, -1)], [[0, 1]])
    assert affine_fiber_rank(fan, (0, 1)) == 3


def test_irreducibility_oracle_agrees_on_small_cones():
    rng = random.Random(5)
    checked = 0
    while checked < 25:
        rank = rng.choice([2, 3])
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(2, rank))
        ]
        if any(not any(g) for g in gens):
            continue
        cone = RationalCone.from_generators(rank, gens)
        if lineality_basis(cone):
            continue
        hb = hilbert_basis(cone)
        dual = dual_cone(cone)
        for b in hb.generators:
            assert irreducible_in_semigroup(b, dual.generators, rank), (gens, b)
        checked += 1

"""Metamorphic relations across whole reports: products of fans, ray
relabelling and torus orbits.

Each relation states how an invariant of a transformed input follows from
the invariants of the inputs, so it checks the fast paths without a slow
path to compare with:

- products: for complete fans F and G, the fan F x G has rays (v, 0) and
  (0, w) and maximal cones a + (k + b), k the ray count of F.  Fiber ranks
  and torus ranks add, the primitive collections are the disjoint union
  (G's shifted by k) and the f-vector is the convolution of the two;
- ray relabelling: permuting the rays permutes the discriminant, every
  fiber rank and the charge matrix's relation lattice, and leaves the
  quotient group, the symmetry order and name and the f-vector as they
  are;
- orbits: a point and its image under a torus element lie in one orbit,
  and ``same_orbit`` is symmetric.

All draws are seeded.
"""

import random

from slow_paths import slow_row_hermite_form
from test_discriminant_fastpath import cp3_blowup, polygon_fan, product_fan
from test_orbit_fastpath import partner, polar, random_point
from toriq import catalog
from toriq.cones import affine_fiber_rank
from toriq.fans import build_fan
from toriq.homogeneous import TorusElement, act, same_orbit
from toriq.intlinalg import IntMatrix
from toriq.moment import face_lattice
from toriq.quotient import charge_matrix, discriminant_locus, fan_symmetry, group_structure

SEED = 20261022


def _complete_fan(rng):
    """A weighted plane (1, 1, n), a Hirzebruch surface, a polygon fan, a
    blown-up cp3 or P^1."""
    kind = rng.randrange(5)
    if kind == 0:
        return catalog.weighted_plane(rng.randint(1, 7))
    if kind == 1:
        return catalog.hirzebruch(rng.randint(0, 4))
    if kind == 2:
        return polygon_fan(rng, rng.randint(3, 8))
    if kind == 3:
        return cp3_blowup(rng, rng.randint(0, 3))
    return catalog.projective_line()


def product(f, g):
    """F x G: rays (v, 0) and (0, w), maximal cones a + (k + b)."""
    k, r, s = f.n_rays, f.lattice_rank, g.lattice_rank
    rays = [tuple(v) + (0,) * s for v in f.rays] + [(0,) * r + tuple(w) for w in g.rays]
    cones = [a + tuple(k + j for j in b) for a in f.maximal_cones for b in g.maximal_cones]
    return build_fan(r + s, rays, cones, complete=True)


def _convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_products_add_fiber_and_torus_ranks_and_join_discriminants_and_f_vectors():
    """200 seeded products F x G: the fiber rank of sigma x tau is the sum
    of the two, for every cone sigma of F and tau of G; the primitive
    collections are F's and G's shifted by F's ray count, the f-vector is
    the convolution of the two and the torus ranks add."""
    rng = random.Random(SEED)
    pairs = 0
    for _ in range(200):
        f, g = _complete_fan(rng), _complete_fan(rng)
        fg, k = product(f, g), f.n_rays
        for tau in g.cones():
            shifted, rank = tuple(k + j for j in tau), affine_fiber_rank(g, tau)
            for sigma in f.cones():
                assert affine_fiber_rank(fg, sigma + shifted) == (
                    affine_fiber_rank(f, sigma) + rank), (f.rays, g.rays, sigma, tau)
                pairs += 1
        locus = discriminant_locus(fg).minimal_subsets
        union = discriminant_locus(f).minimal_subsets + tuple(
            tuple(k + j for j in t) for t in discriminant_locus(g).minimal_subsets)
        assert len(locus) == len(union) and set(locus) == set(union), (f.rays, g.rays)
        assert face_lattice(fg).f_vector == _convolution(face_lattice(f).f_vector,
                                                         face_lattice(g).f_vector)
        for torus_rank in (lambda x: charge_matrix(x).torus_rank,
                           lambda x: group_structure(x).torus_rank):
            assert torus_rank(fg) == torus_rank(f) + torus_rank(g)
    assert pairs > 20000, pairs


def _relabelling_fan(rng):
    """A weighted plane, a polygon fan, a blown-up cp3 or a product of
    projective spaces."""
    kind = rng.randrange(4)
    if kind == 0:
        return catalog.weighted_plane(rng.randint(1, 40))
    if kind == 1:
        return polygon_fan(rng, rng.randint(3, 10))
    if kind == 2:
        return cp3_blowup(rng, rng.randint(0, 5))
    return product_fan(rng.choice([(1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 2)]))


def test_ray_relabelling_permutes_every_report_block():
    """1,000 seeded fans with their rays permuted: the discriminant and every
    fiber rank relabel; the quotient group, the symmetry order and name
    and the f-vector stay; the charge matrix's columns span the permuted
    relation lattice (row Hermite forms of the transposes, by the slow
    path)."""
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        fan = _relabelling_fan(rng)
        n = fan.n_rays
        perm = list(range(n))
        rng.shuffle(perm)
        rays = [None] * n
        for i, v in enumerate(fan.rays):
            rays[perm[i]] = v
        moved = build_fan(fan.lattice_rank, rays,
                          [sorted(perm[i] for i in c) for c in fan.maximal_cones], complete=True)

        def image(cone):
            return tuple(sorted(perm[i] for i in cone))

        assert set(discriminant_locus(moved).minimal_subsets) == set(
            map(image, discriminant_locus(fan).minimal_subsets)), (fan.rays, perm)
        for cone in fan.cones():
            assert affine_fiber_rank(moved, image(cone)) == affine_fiber_rank(fan, cone)
        assert group_structure(moved) == group_structure(fan)
        sym, moved_sym = fan_symmetry(fan), fan_symmetry(moved)
        assert (moved_sym.order, moved_sym.structure_name) == (sym.order, sym.structure_name)
        assert face_lattice(moved).f_vector == face_lattice(fan).f_vector
        q = charge_matrix(fan).matrix.entries
        relabelled = [None] * n
        for i, row in enumerate(q):
            relabelled[perm[i]] = row
        s = charge_matrix(fan).torus_rank
        assert (slow_row_hermite_form(charge_matrix(moved).matrix.transpose())
                == slow_row_hermite_form(IntMatrix.from_rows(relabelled, s).transpose()))


def test_points_share_an_orbit_with_their_torus_images_and_same_orbit_is_symmetric():
    """4,000 seeded points on the shipped fans and P^3: each lies in the
    orbit of its image under a random torus element, both ways round, and
    ``same_orbit`` gives one answer for a pair in either order, over
    partners in the orbit, a modulus or a turn away, or unrelated."""
    fans = list(catalog.shipped_fans().values()) + [catalog.projective_space(3)]
    rng = random.Random(SEED + 2)
    related = 0
    for k in range(4000):
        fan = fans[k % len(fans)]
        z = random_point(rng, fan)
        t = TorusElement(1, tuple(polar(rng) for _ in range(charge_matrix(fan).torus_rank)))
        image = act(t, z)
        assert same_orbit(z, image) and same_orbit(image, z), (fan.name, z.coords, t.params)
        z2 = partner(rng, z)
        answer = same_orbit(z, z2)
        assert same_orbit(z2, z) is answer, (fan.name, z.coords, z2.coords)
        related += answer
    assert 1000 < related < 3000, related

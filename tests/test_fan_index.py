"""The fan's ray-incidence index against the scans it replaced
(``slow_paths.py``): cone membership on every ray subset, the face list,
the first validation message of seeded broken fans, point validity on
every zero pattern, and fan automorphisms; plus a bound on what building a
fan and asking about one small cone may cost."""

import random
import time
from itertools import chain, combinations, permutations, product

import pytest

from slow_paths import (
    _maps_antichain_to_itself,
    slow_fan_cones,
    slow_fan_error,
    slow_fan_symmetry,
    slow_in_discriminant,
    slow_is_cone,
)
from toriq import catalog, fans as fans_module
from toriq.cones import affine_fiber_rank, dual_cone, fan_cone, hilbert_basis
from toriq.errors import FanValidationError, ResourceLimitError, ToriqError
from toriq.fans import _CACHE_SIZE, Fan, build_fan
from toriq.homogeneous import in_discriminant
from toriq.intlinalg import IntMatrix, primitive
from toriq.moment import face_lattice
from toriq.quotient import (
    _preserves_cones,
    aut_presentation,
    charge_matrix,
    discriminant_locus,
    fan_symmetry,
    group_structure,
    quotient_report,
)
from toriq.solenoid import PolarComplex

SEED = 20261018


def _cp1_power(k):
    """(cp^1)^k: rays ±e_i, one maximal cone per choice of signs."""
    rays = [tuple(s * int(i == j) for j in range(k)) for i in range(k) for s in (1, -1)]
    cones = [[2 * i + b for i, b in enumerate(bits)] for bits in product((0, 1), repeat=k)]
    return build_fan(k, rays, cones, complete=True, name=f"cp1^{k}")


def _random_ray(rng, rank):
    while True:
        v = tuple(rng.randint(-4, 4) for _ in range(rank))
        if any(v):
            return primitive(v)


def _random_fan(rng):
    """A fan on at most 9 random primitive rays in rank 2-4 whose maximal
    cones are random independent ray subsets of mixed sizes."""
    while True:
        rank = rng.randint(2, 4)
        rays = sorted({_random_ray(rng, rank) for _ in range(rng.randint(3, 9))})
        found = set()
        for _ in range(rng.randint(1, 8)):
            cone = tuple(sorted(rng.sample(range(len(rays)), rng.randint(1, min(rank, len(rays))))))
            if IntMatrix.from_rows([rays[i] for i in cone], rank).rank() == len(cone):
                found.add(cone)
        maximal = [c for c in found if not any(set(c) < set(d) for d in found)]
        if maximal:
            used = sorted({i for c in maximal for i in c})
            new = {old: j for j, old in enumerate(used)}
            return build_fan(rank, [rays[i] for i in used], [[new[i] for i in c] for c in maximal])


def _complete_fans():
    fans = list(catalog.shipped_fans().values())
    fans += [catalog.projective_space(m) for m in range(1, 5)]
    fans += [_cp1_power(k) for k in range(1, 6)]
    fans += [catalog.weighted_plane(n) for n in (1, 4, 7, 50)]
    return fans


def _corpus():
    rng = random.Random(SEED)
    return _complete_fans() + [_random_fan(rng) for _ in range(60)]


def test_is_cone_and_cones_match_slow_paths():
    fans = _corpus()
    assert any(len({len(c) for c in f.maximal_cones}) > 1 for f in fans)
    assert max(f.n_rays for f in fans) == 10
    for fan in fans:
        assert fan.cones() == slow_fan_cones(fan), fan
        assert fan.cones() is fan.cones()
        rays = range(fan.n_rays)
        for subset in chain.from_iterable(combinations(rays, r) for r in range(fan.n_rays + 1)):
            assert fan.is_cone(subset) == slow_is_cone(fan, subset), (fan, subset)
            # unsorted, with a repeat
            shuffled = subset[::-1] + subset[:1]
            assert fan.is_cone(shuffled) == slow_is_cone(fan, shuffled), (fan, shuffled)


def _broken_fans(rng, count):
    """(lattice_rank, rays, maximal cones, complete) of fans each broken one
    way, the maximal cones in random order: a cone dropped from a complete
    fan, a face added as a maximal cone, a duplicate cone, or a third cone
    on one facet of a complete fan through a new ray."""
    complete = _complete_fans()
    sources = complete + [_random_fan(rng) for _ in range(40)]
    for _ in range(count):
        kind = rng.choice(["drop", "face", "duplicate", "third"])
        fan = rng.choice(complete if kind in ("drop", "third") else sources)
        rays, cones = list(fan.rays), list(fan.maximal_cones)
        if kind == "drop":
            cones.pop(rng.randrange(len(cones)))
        elif kind == "face":
            cone = rng.choice([c for c in cones if len(c) > 1] or cones)
            cones.append(tuple(sorted(rng.sample(cone, rng.randint(1, max(1, len(cone) - 1))))))
        elif kind == "duplicate":
            cones.append(rng.choice(cones))
        elif fan.lattice_rank > 1:
            cone = rng.choice(cones)
            facet = tuple(i for i in cone if i != rng.choice(cone))
            new = _random_ray(rng, fan.lattice_rank)
            while new in rays:
                new = _random_ray(rng, fan.lattice_rank)
            rays.append(new)
            cones.append(facet + (len(rays) - 1,))
        rng.shuffle(cones)
        yield fan.lattice_rank, rays, cones, fan.complete


def _lower_dimensional_fans():
    """(lattice_rank, rays, maximal cones, True) of fans declared complete
    with a maximal cone below full dimension, from each complete fan of rank
    at least 2: every ray its own maximal cone (the rays span, no cone is
    full-dimensional), the same in one rank more (the rays do not span), and
    the cones through ray 1 traded for ray 1 alone, listed last (the check
    reaches a lower-dimensional cone after full-dimensional ones)."""
    for fan in _complete_fans():
        if fan.lattice_rank < 2:
            continue
        singletons = [(i,) for i in range(fan.n_rays)]
        yield fan.lattice_rank, fan.rays, singletons, True
        yield fan.lattice_rank + 1, [v + (0,) for v in fan.rays], singletons, True
        yield fan.lattice_rank, fan.rays, [c for c in fan.maximal_cones if 0 not in c] + [(0,)], True


def test_first_validation_message_matches_slow_path():
    rng = random.Random(SEED + 1)
    messages = []
    for rank, rays, cones, complete in chain(_broken_fans(rng, 600), _lower_dimensional_fans()):
        expected = slow_fan_error(rank, rays, cones, complete)
        if expected is None:
            Fan(rank, rays, cones, complete)
            continue
        with pytest.raises(FanValidationError) as exc:
            Fan(rank, rays, cones, complete)
        assert str(exc.value) == expected, (rank, rays, cones, complete)
        messages.append(expected)
    for part in ("duplicate cone", "is contained in", "lies in 1 ", "lies in 3 ", "not used",
                 "must span the lattice", "is not full-dimensional"):
        assert any(part in m for m in messages), part


def test_valid_complete_fans_eliminate_each_maximal_cone_once(monkeypatch):
    """Building a valid complete fan runs one Bareiss elimination per
    maximal cone and none over all its rays: cp^1 to cp^5, polygon fans
    like the wide-fans benchmark's and a 200-ray cp3 blow-up."""
    from test_discriminant_fastpath import cp3_blowup, polygon_fan

    rng = random.Random(SEED + 4)
    inputs = [catalog.projective_space(m) for m in range(1, 6)]
    inputs += [polygon_fan(rng, n) for n in (11, 12, 14) for _ in range(5)]
    inputs.append(cp3_blowup(random.Random(0), 196))
    calls = []

    def counting(rows, cols):
        calls.append(len(rows))
        return bareiss(rows, cols)

    bareiss = fans_module._bareiss
    monkeypatch.setattr(fans_module, "_bareiss", counting)
    for fan in inputs:
        calls.clear()
        again = Fan(fan.lattice_rank, fan.rays, fan.maximal_cones, fan.complete)
        assert again == fan and again.complete
        assert calls == [len(c) for c in fan.maximal_cones], fan


def test_one_40_ray_cone_is_cheap():
    """A face set built with the fan would hold 2^40 faces."""
    start = time.perf_counter()
    rays = [tuple(int(i == j) for j in range(40)) for i in range(40)]
    fan = Fan(40, rays, [tuple(range(40))])
    assert fan.is_cone((0, 1))
    assert affine_fiber_rank(fan, (0, 1)) == 78
    assert time.perf_counter() - start < 1.0


def test_face_list_past_the_cap_is_refused(monkeypatch):
    """``cones()`` refuses a maximal cone with more than ``_FACE_CAP``
    faces before listing any of them, and the maximal cone whose faces take
    the count past the cap; at the cap it lists every face."""
    start = time.perf_counter()
    fan = Fan(40, [tuple(int(i == j) for j in range(40)) for i in range(40)], [tuple(range(40))])
    with pytest.raises(ResourceLimitError, match=r"^cones: .* maximal cone 1 of 1 \(40 rays, "
                       rf"{2 ** 40} faces\) passes the cap of {2 ** 20} cones$"):
        fan.cones()
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(fans_module, "_FACE_CAP", 64)
    units = lambda k: [tuple(int(i == j) for j in range(k)) for i in range(k)]
    assert len(Fan(6, units(6), [tuple(range(6))]).cones()) == 64
    with pytest.raises(ResourceLimitError, match=r"maximal cone 1 of 1 \(7 rays, 128 faces\)"):
        Fan(7, units(7), [tuple(range(7))]).cones()
    # 64 + 63 distinct faces: the second cone takes the count past the cap
    with pytest.raises(ResourceLimitError, match=r"maximal cone 2 of 2 \(6 rays, 64 faces\)"):
        Fan(12, units(12), [tuple(range(6)), tuple(range(6, 12))]).cones()
    assert len(_cp1_power(3).cones()) == 27


def test_caches_stay_bounded_over_many_fans():
    """Every lru_cache keyed on a fan or a cone keeps at most
    ``_CACHE_SIZE`` entries after 300 distinct fans."""
    cached = (charge_matrix, group_structure, discriminant_locus, fan_symmetry,
              aut_presentation, face_lattice, dual_cone, hilbert_basis)
    for f in cached:
        f.cache_clear()
    for n in range(1, 301):
        fan = catalog.weighted_plane(n)
        quotient_report(fan)
        face_lattice(fan)
        hilbert_basis(dual_cone(fan_cone(fan, (0, 1))))
    assert _CACHE_SIZE == 128
    for f in cached:
        info = f.cache_info()
        assert info.misses >= 300 and info.currsize <= _CACHE_SIZE, (f.__name__, info)


def test_in_discriminant_matches_antichain_scan_on_every_zero_pattern():
    one, zero = PolarComplex.one(), PolarComplex.zero()
    for fan in _corpus():
        for zeros in product((False, True), repeat=fan.n_rays):
            coords = tuple(zero if z else one for z in zeros)
            assert in_discriminant(fan, coords) == slow_in_discriminant(fan, coords), (fan, zeros)


def _outcome(f, fan):
    try:
        return f(fan)
    except ToriqError as exc:
        return type(exc), str(exc)


def test_fan_symmetry_matches_antichain_filter():
    rng = random.Random(SEED + 2)
    enumerated = 0
    for fan in _corpus() + [_random_fan(rng) for _ in range(200)]:
        fan_symmetry.cache_clear()
        got = _outcome(fan_symmetry, fan)
        assert got == _outcome(slow_fan_symmetry, fan), fan
        if not isinstance(got, tuple):
            assert got.preserves_maximal_cones, fan
            classes = [set(c) for c in got.row_classes]
            enumerated += any(
                set(t) != set().union(*(c for c in classes if c & set(t)))
                for t in discriminant_locus(fan).minimal_subsets
            )
    assert enumerated >= 10
    fan_symmetry.cache_clear()


def test_preserves_maximal_cones_on_a_wide_corpus():
    """``fan_symmetry`` reports ``preserves_maximal_cones`` without testing
    the generators; here every generator of a wide corpus takes the index
    test it used to take, ``_preserves_cones``.  The corpus covers both
    branches: fans whose antichain is a union of row classes (products of
    projective spaces, cp^m, cp3 blow-ups) and random fans whose group is
    enumerated."""
    # imported here: test_discriminant_fastpath imports this module
    from test_discriminant_fastpath import cp3_blowup, product_fan

    rng = random.Random(SEED + 4)
    fans = _corpus() + [_random_fan(rng) for _ in range(500)]
    fans += [_cp1_power(k) for k in range(1, 6)]
    fans += [catalog.projective_space(m) for m in range(1, 7)]
    fans += [product_fan(dims) for dims in ((2, 2), (3, 1), (1, 1, 2), (1, 1, 1, 1))]
    fans += [cp3_blowup(rng, rng.randint(1, 12)) for _ in range(60)]
    checked = enumerated = generators = 0
    for fan in fans:
        got = _outcome(fan_symmetry, fan)
        if isinstance(got, tuple):
            continue
        checked += 1
        assert got.preserves_maximal_cones, fan
        for g in got.generators:
            assert _preserves_cones(g, fan), (fan, g)
            generators += 1
        classes = [set(c) for c in got.row_classes]
        enumerated += any(
            set(t) != set().union(*(c for c in classes if c & set(t)))
            for t in discriminant_locus(fan).minimal_subsets
        )
    assert checked >= 550 and enumerated >= 10 and generators >= 300, (
        checked, enumerated, generators)


def test_preserves_cones_matches_antichain_image_for_every_permutation():
    rng = random.Random(SEED + 3)
    fans = [f for f in _corpus() + [_random_fan(rng) for _ in range(40)] if f.n_rays <= 7]
    assert len(fans) >= 40 and max(f.n_rays for f in fans) == 7
    moved = 0
    for fan in fans:
        antichain = discriminant_locus(fan).minimal_subsets
        for perm in permutations(range(fan.n_rays)):
            keeps = _preserves_cones(perm, fan)
            assert keeps == _maps_antichain_to_itself(perm, antichain), (fan, perm)
            moved += not keeps
    assert moved

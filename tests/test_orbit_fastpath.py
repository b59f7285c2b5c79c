"""``same_orbit`` over a coprime base of the modulus ratios against the
trial-division, one-system-per-prime decision it replaced
(``slow_paths.slow_same_orbit``), cold and with the plans warm, the
coprime-base refinement, and ratios with primes far beyond trial division.
The orbit plans: one Smith form per fan instance and nonzero pattern, at
most one plan per cone, each of bounded size, none shared between fans."""

import random
import time
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from slow_paths import slow_same_orbit
from test_discriminant_fastpath import cp3_blowup
from toriq import catalog, homogeneous
from toriq.homogeneous import (
    HomogeneousPoint,
    TorusElement,
    _coprime_base,
    act,
    in_discriminant,
    same_orbit,
)
from toriq.intlinalg import smith_normal_form
from toriq.quotient import charge_matrix, group_structure
from toriq.solenoid import PolarComplex

SEED = 20261018
PRIMES = (2, 3, 5, 7)


def orbit_fans():
    """New fan instances, so their orbit plans start empty."""
    return (
        [catalog.projective_line(), catalog.projective_plane(), catalog.product_of_lines(),
         catalog.projective_space(3)]
        + [catalog.hirzebruch(a) for a in (1, 2, 3)]
        + [catalog.weighted_plane(n) for n in (2, 3, 4, 6)]
    )


def small_rational(rng, top=3):
    num = den = 1
    for p in PRIMES:
        e = rng.randint(-top, top)
        if e > 0:
            num *= p ** e
        else:
            den *= p ** -e
    return Fraction(num, den)


def polar(rng):
    return PolarComplex(small_rational(rng), Fraction(rng.randint(0, 23), 24))


def random_point(rng, fan):
    while True:
        coords = tuple(PolarComplex.zero() if rng.random() < 0.3 else polar(rng)
                       for _ in range(fan.n_rays))
        if not in_discriminant(fan, coords):
            return HomogeneousPoint(fan, 1, coords)


def partner(rng, z):
    """In the orbit of z, or one modulus or turn away from it, or unrelated."""
    s = charge_matrix(z.fan).torus_rank
    image = act(TorusElement(1, tuple(polar(rng) for _ in range(s))), z).coords
    kind = rng.randrange(4)
    if kind == 0:
        return HomogeneousPoint(z.fan, 1, image)
    if kind == 3:
        return HomogeneousPoint(z.fan, 1, tuple(
            polar(rng) if not c.is_zero else c for c in z.coords))
    j = rng.choice(sorted(set(range(z.fan.n_rays)) - z.zero_pattern))
    if kind == 1:
        p, k = rng.choice(PRIMES), rng.choice((-3, -2, -1, 1, 2, 3))
        nudge = PolarComplex(Fraction(p) ** k)
    else:
        nudge = PolarComplex(Fraction(1), Fraction(rng.randint(1, 23), 24))
    return HomogeneousPoint(z.fan, 1, tuple(
        c * nudge if i == j else c for i, c in enumerate(image)))


def test_same_orbit_matches_slow_path(monkeypatch):
    rng = random.Random(SEED)
    fans = orbit_fans()
    agree = 0
    # weighted planes (1,1,n) with only the weight-n coordinate nonzero:
    # the modulus ratio must be an n-th power, the branch with a_b > 1
    powers = {True: 0, False: 0}
    seen = []
    for k in range(2400):
        fan = fans[k % len(fans)]
        z = random_point(rng, fan)
        if k % len(fans) >= len(fans) - 4 and k % 3 == 0:
            z = HomogeneousPoint(fan, 1, (PolarComplex.zero(),) * 2 + (polar(rng),))
        z2 = partner(rng, z)
        want = slow_same_orbit(z, z2)
        assert same_orbit(z, z2) is want, (fan.name, z.coords, z2.coords)
        assert same_orbit(z2, z) is want
        agree += want
        if z.zero_pattern == {0, 1} and z.coords[2].rho != z2.coords[2].rho:
            powers[want] += 1
        seen.append((z, z2, want))
    assert 600 < agree < 1800
    assert powers[True] > 20 and powers[False] > 20
    # the same pairs again, every plan now warm: the same answers, no Smith form
    monkeypatch.setattr(homogeneous, "smith_normal_form", None)
    for z, z2, want in seen:
        assert same_orbit(z, z2) is want and same_orbit(z2, z) is want


def nonzero_rows(z):
    return tuple(i for i, c in enumerate(z.coords) if not c.is_zero)


def test_one_smith_form_per_fan_instance_and_pattern(monkeypatch):
    """Repeated calls take one Smith form per (fan instance, nonzero
    pattern); equal fans built separately each take their own."""
    calls = []

    def counted(a):
        calls.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(homogeneous, "smith_normal_form", counted)
    rng = random.Random(SEED + 1)
    fans = orbit_fans() + orbit_fans()
    patterns = set()
    for _ in range(3):
        for fan in fans:
            for _ in range(40):
                z = random_point(rng, fan)
                z2 = partner(rng, z)
                same_orbit(z, z2)
                if nonzero_rows(z) == nonzero_rows(z2):
                    patterns.add((id(fan), nonzero_rows(z)))
    assert len(calls) == len(patterns) > 2 * len(orbit_fans())
    half = len(fans) // 2
    for a, b in zip(fans[:half], fans[half:]):
        assert a == b and a._orbit_plans is not b._orbit_plans
        # patterns that both took, so each took its own Smith form of them
        assert a._orbit_plans.keys() & b._orbit_plans.keys()


def test_orbit_plans_stay_within_the_cones_of_a_200_ray_fan():
    """At most one plan per cone, keyed on the rows outside it, and each
    plan at most n_rays - torus_rank + len(torsion) rows long."""
    rng = random.Random(SEED + 2)
    fan = cp3_blowup(random.Random(0), 196)
    structure = group_structure(fan)
    bound = fan.n_rays - structure.torus_rank + len(structure.torsion_factors)
    cones = fan.cones()
    for cone in [()] + rng.sample(cones, 6):
        coords = tuple(PolarComplex.zero() if i in cone else polar(rng)
                       for i in range(fan.n_rays))
        z = HomogeneousPoint(fan, 1, coords)
        # charges reach the thousands, so the torus element only turns
        t = TorusElement(1, tuple(PolarComplex(1, Fraction(rng.randint(0, 23), 24))
                                  for _ in range(structure.torus_rank)))
        for _ in range(2):
            assert same_orbit(z, act(t, z)) and same_orbit(z, z)
    plans = fan._orbit_plans
    assert 1 < len(plans) <= len(cones)
    for rows, plan in plans.items():
        assert fan.is_cone(set(range(fan.n_rays)) - set(rows))
        assert len(plan) <= bound


def test_same_orbit_ratios_sharing_primes():
    # cp1 x cp1: t1 scales coordinates 1 and 2, t2 coordinates 3 and 4
    fan = catalog.product_of_lines()
    one = HomogeneousPoint(fan, 1, (PolarComplex(1),) * 4)
    for ratios, want in [
        ((Fraction(6, 35), Fraction(6, 35), Fraction(35, 6), Fraction(35, 6)), True),
        ((Fraction(6, 35), Fraction(10, 21), Fraction(1), Fraction(1)), False),
        ((Fraction(12, 5), Fraction(12, 5), Fraction(5, 12), Fraction(5, 18)), False),
        ((Fraction(4, 9), Fraction(4, 9), Fraction(9, 4), Fraction(9, 4)), True),
    ]:
        z2 = HomogeneousPoint(fan, 1, tuple(PolarComplex(r) for r in ratios))
        assert same_orbit(one, z2) is want is slow_same_orbit(one, z2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10 ** 6)
                | st.builds(lambda a, b, c: 6 ** a * 10 ** b * 15 ** c,
                            st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                max_size=8))
def test_coprime_base_properties(numbers):
    base = _coprime_base(numbers)
    assert all(b > 1 for b in base)
    assert all(gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1:])
    for n in numbers:
        for b in base:
            while n % b == 0:
                n //= b
        assert n == 1


def test_same_orbit_decides_huge_primes_without_factoring():
    # cp2: t scales all three coordinates alike, so three equal ratios
    # 6/35 are one orbit
    cp2 = catalog.projective_plane()
    z = HomogeneousPoint(cp2, 1, (PolarComplex(1),) * 3)
    z2 = HomogeneousPoint(cp2, 1, (PolarComplex(Fraction(6, 35)),) * 3)
    assert same_orbit(z, z2)
    # weighted plane (1,1,2) with only the weight-2 coordinate nonzero:
    # the ratio must be a square
    fan = catalog.weighted_plane(2)
    w = HomogeneousPoint(fan, 1, (PolarComplex.zero(),) * 2 + (PolarComplex(1),))
    started = time.perf_counter()
    for p in (2 ** 127 - 1, 2 ** 521 - 1):
        for ratio, want in ((p, False), (p * p, True), (Fraction(1, p * p), True)):
            w2 = HomogeneousPoint(fan, 1, (PolarComplex.zero(),) * 2 + (PolarComplex(ratio),))
            assert same_orbit(w, w2) is want
        assert same_orbit(z, HomogeneousPoint(cp2, 1, (PolarComplex(p),) * 3))
        assert not same_orbit(z, HomogeneousPoint(
            cp2, 1, (PolarComplex(p), PolarComplex(p), PolarComplex(p * p))))
    assert time.perf_counter() - started < 1.0

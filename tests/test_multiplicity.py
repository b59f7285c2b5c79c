"""``homogeneous._multiplicity`` by repeated squaring of the base, against
the one-division-per-unit loop it replaced (``slow_paths.slow_multiplicity``),
and ``same_orbit`` on the huge moduli that a torus element with small prime
moduli makes on a 104-ray fan, within a stated time."""

import random
import time

from slow_paths import slow_multiplicity
from test_discriminant_fastpath import cp3_blowup
from toriq.homogeneous import HomogeneousPoint, TorusElement, _multiplicity, act, same_orbit
from toriq.quotient import charge_matrix
from toriq.solenoid import PolarComplex

SEED = 20261020


def test_multiplicity_matches_one_division_per_unit():
    rng = random.Random(SEED)
    cases = 0
    for _ in range(3000):
        b = rng.choice((2, 3, 10, rng.randint(2, 10 ** 6), rng.getrandbits(200) | 2))
        e = rng.choice((0, 1, rng.randint(0, 40), rng.randint(0, 400)))
        m = rng.randint(1, 10 ** 12) * rng.choice((1, -1))
        n = b ** e * m
        assert _multiplicity(b, n) == slow_multiplicity(b, n), (b, e, m)
        cases += 1
    assert cases == 3000
    for e in (0, 1, 2, 3, 7, 8, 9, 1000, 1023, 1024, 1025):
        for b in (2, 3, 6):
            assert _multiplicity(b, b ** e * 7) == e


class _CountedInt(int):
    """An int that logs each ``%`` and ``divmod`` taken of it."""

    ops: list[str] = []

    def __mod__(self, other):
        self.ops.append("%")
        return int(self) % other

    def __divmod__(self, other):
        self.ops.append("divmod")
        return divmod(int(self), other)


def test_a_base_that_does_not_divide_costs_one_modulo():
    for b, n in ((3, 2 ** 4000 + 1), (2, 3 ** 900), (10 ** 30 + 7, 10 ** 30 + 8)):
        _CountedInt.ops = []
        assert _multiplicity(b, _CountedInt(n)) == 0
        assert _CountedInt.ops == ["%"]


def test_same_orbit_on_a_104_ray_fan_with_huge_moduli_within_a_stated_time():
    """A cp3 blow-up with 104 rays, charges in the hundreds, acted on by a
    torus element whose moduli are 2, 3, 5 or 7: coordinates of some 26,000
    bits.  ``same_orbit`` took 0.33 s with one division per unit of each
    exponent and takes about 0.08 s on a 2-vCPU host; the stated time is
    2 s.  Scaling one coordinate by 11 leaves the orbit: no other modulus
    holds 11, and e_j is no combination of charge columns, since each ray
    is nonzero."""
    fan = cp3_blowup(random.Random(0), 100)
    rng = random.Random(104)
    params = tuple(PolarComplex(rng.choice((2, 3, 5, 7)))
                   for _ in range(charge_matrix(fan).torus_rank))
    z = HomogeneousPoint(fan, 1, (PolarComplex(1),) * fan.n_rays)
    image = act(TorusElement(1, params), z)
    assert max(c.parts[0].bit_length() for c in image.coords) > 20_000
    off = HomogeneousPoint(fan, 1, (image.coords[0] * PolarComplex(11),) + image.coords[1:])
    started = time.perf_counter()
    assert same_orbit(z, image) and same_orbit(image, z)
    assert not same_orbit(z, off)
    assert time.perf_counter() - started < 2.0

"""Homogeneous-coordinate model: discriminant, action, power maps, orbits."""

import random
from fractions import Fraction as F

import pytest

from slow_paths import zero_indices
from toriq import catalog
from toriq.errors import DomainError, LevelMismatchError
from toriq.fans import build_fan
from toriq.kring import FormalSum
from toriq.homogeneous import (
    HomogeneousPoint,
    TorusElement,
    act,
    check_equivariance,
    in_discriminant,
    power_map,
    same_orbit,
)
from toriq.quotient import charge_matrix
from toriq.solenoid import PolarComplex as P

CP1 = catalog.projective_line()
CP2 = catalog.projective_plane()
PROD = catalog.product_of_lines()

ALL_FANS = [CP1, PROD, CP2, catalog.weighted_plane(3), catalog.hirzebruch(2)]


def polar(rho, turns=F(0)):
    return P(F(rho), F(turns))


def rand_polar(rng, allow_zero=True):
    if allow_zero and rng.random() < 0.2:
        return P.zero()
    return P(F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(0, 23), 24))


def rand_point(rng, fan, level=1):
    while True:
        coords = tuple(rand_polar(rng) for _ in range(fan.n_rays))
        if not in_discriminant(fan, coords):
            return HomogeneousPoint(fan, level, coords)


def rand_torus(rng, fan, level=1):
    s = charge_matrix(fan).torus_rank
    return TorusElement(level, tuple(rand_polar(rng, allow_zero=False) for _ in range(s)))


def test_in_discriminant_examples():
    assert in_discriminant(CP2, (P.zero(), P.zero(), P.zero()))
    assert not in_discriminant(CP2, (polar(1), P.zero(), P.zero()))
    assert in_discriminant(PROD, (P.zero(), P.zero(), polar(1), polar(1)))
    with pytest.raises(DomainError):
        in_discriminant(CP2, (P.zero(),))


def test_point_outside_discriminant_enforced():
    with pytest.raises(DomainError, match="discriminant"):
        HomogeneousPoint(CP1, 1, (P.zero(), P.zero()))


def test_points_and_torus_elements_reject_non_polar_input():
    for bad in ((1, 2, 3), (polar(1), polar(1), F(1)), (polar(1), None, polar(2))):
        with pytest.raises(DomainError, match="coordinates must be PolarComplex"):
            HomogeneousPoint(CP2, 1, bad)
    for bad in ((2,), (polar(2), F(3)), ((1, 0),)):
        with pytest.raises(DomainError, match="torus parameters must be PolarComplex"):
            TorusElement(1, bad)


@pytest.mark.parametrize("call, named", [
    (lambda: FormalSum((1, 2)), "terms: each term must be"),
    (lambda: FormalSum(None), "terms must be"),
    (lambda: FormalSum(((F(1), 2, 3),)), "terms: each term must be"),
    (lambda: HomogeneousPoint(CP2, 1, None), "coordinates must be"),
    (lambda: TorusElement(1, 3), "torus parameters must be"),
    (lambda: same_orbit(1, 2), "same_orbit: z must be"),
    (lambda: same_orbit(HomogeneousPoint(CP2, 1, (polar(1),) * 3), 2), "same_orbit: z2 must be"),
    (lambda: check_equivariance(CP2, 1, 2, 3), "check_equivariance: t must be"),
    (lambda: check_equivariance(CP2, TorusElement(1, (polar(2),)), 2, 3),
     "check_equivariance: z must be"),
])
def test_malformed_arguments_raise_named_domain_errors(call, named):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value).startswith(named)


def test_torus_pow_int_rejects_a_non_integer_exponent():
    """The exponent is checked once, also when there are no parameters to
    check it."""
    for t in (TorusElement(1, ()), TorusElement(2, (polar(2), polar(3)))):
        for k in (1.5, "x", True, F(2), None):
            with pytest.raises(DomainError, match="exponent must be an integer"):
                t.pow_int(k)
        assert t.pow_int(-2) == TorusElement(t.level, tuple(p.pow_int(-2) for p in t.params))


def test_act_identity_and_example():
    z = HomogeneousPoint(CP1, 1, (polar(1), polar(1)))
    t_id = TorusElement(1, (P.one(),))
    assert act(t_id, z).coords == z.coords
    t = TorusElement(1, (polar(2),))
    assert act(t, z).coords == (polar(2), polar(2))


def test_act_level_guard_and_param_count():
    z = HomogeneousPoint(CP1, 2, (polar(1), polar(1)))
    with pytest.raises(LevelMismatchError):
        act(TorusElement(1, (polar(2),)), z)
    with pytest.raises(DomainError):
        act(TorusElement(2, (polar(2), polar(2))), z)


def test_act_is_group_action():
    rng = random.Random(42)
    for fan in ALL_FANS:
        for _ in range(50):
            z = rand_point(rng, fan)
            t1, t2 = rand_torus(rng, fan), rand_torus(rng, fan)
            assert act(t1, act(t2, z)).coords == act(t1 * t2, z).coords


def test_power_map_examples():
    z = HomogeneousPoint(CP2, 1, (P(F(1), F(1, 3)), polar(1), P(F(2), F(1, 2))))
    assert power_map(1, z).coords == z.coords
    cubed = power_map(3, z)
    assert cubed.coords == (polar(1), polar(1), P(F(8), F(1, 2)))
    z = HomogeneousPoint(CP2, 1, (polar(1), P.zero(), P.zero()))
    assert zero_indices(power_map(5, z)) == zero_indices(z)


def test_power_map_is_functorial():
    rng = random.Random(1)
    for fan in ALL_FANS:
        for _ in range(25):
            z = rand_point(rng, fan)
            l, k = rng.randint(1, 6), rng.randint(1, 6)
            assert power_map(l, power_map(k, z)).coords == power_map(l * k, z).coords


def test_equivariance_worked_example():
    z = HomogeneousPoint(CP1, 1, (polar(1), P(F(1), F(1, 4))))
    t = TorusElement(1, (P(F(1), F(1, 6)),))
    left = power_map(2, act(t, z))
    right = act(t.pow_int(2), power_map(2, z))
    expected = (P(F(1), F(1, 3)), P(F(1), F(5, 6)))
    assert left.coords == right.coords == expected
    assert check_equivariance(CP1, t, z, 2)
    assert check_equivariance(CP1, t, z, 1)


def test_equivariance_random():
    rng = random.Random(777)
    for fan in ALL_FANS:
        for _ in range(100):
            assert check_equivariance(fan, rand_torus(rng, fan), rand_point(rng, fan), rng.randint(1, 12))


def test_same_orbit_reflexive_and_under_action():
    rng = random.Random(5)
    for fan in ALL_FANS:
        for _ in range(20):
            z = rand_point(rng, fan)
            assert same_orbit(z, z)
            t = rand_torus(rng, fan)
            assert same_orbit(z, act(t, z))
            assert same_orbit(act(t, z), z)


def test_same_orbit_rejects_unequal_scaling():
    a = HomogeneousPoint(CP1, 1, (polar(1), polar(1)))
    b = HomogeneousPoint(CP1, 1, (polar(2), polar(3)))
    assert not same_orbit(a, b)


def test_same_orbit_zero_pattern_mismatch():
    a = HomogeneousPoint(CP2, 1, (polar(1), P.zero(), polar(1)))
    b = HomogeneousPoint(CP2, 1, (polar(1), polar(1), polar(1)))
    assert not same_orbit(a, b)


def test_same_orbit_turn_obstruction():
    # CP1: both coordinates scale by the same factor, so unequal turn
    # differences are not realizable
    a = HomogeneousPoint(CP1, 1, (polar(1), polar(1)))
    b = HomogeneousPoint(CP1, 1, (P(F(1), F(1, 3)), P(F(1), F(1, 5))))
    assert not same_orbit(a, b)


def test_same_orbit_detects_integrality_obstruction():
    # product fan: coordinates 1,2 scale by t1, coordinates 3,4 by t2;
    # ratio (2,2,1,1) needs t1 with modulus 2 -> fine
    a = HomogeneousPoint(PROD, 1, (polar(1), polar(1), polar(1), polar(1)))
    b = HomogeneousPoint(PROD, 1, (polar(2), polar(2), polar(1), polar(1)))
    assert same_orbit(a, b)
    # but ratio (2,3,1,1) is impossible
    c = HomogeneousPoint(PROD, 1, (polar(2), polar(3), polar(1), polar(1)))
    assert not same_orbit(a, c)


def test_same_orbit_weighted_chart():
    # weights (1,1,n): scaling acts with exponent n on the third coordinate
    fan = catalog.weighted_plane(2)
    a = HomogeneousPoint(fan, 1, (polar(1), polar(1), polar(1)))
    b = HomogeneousPoint(fan, 1, (polar(2), polar(2), polar(4)))
    assert same_orbit(a, b)
    c = HomogeneousPoint(fan, 1, (polar(2), polar(2), polar(2)))
    assert not same_orbit(a, c)


def test_same_orbit_without_charge_columns():
    """Two independent rays spanning one cone: the quotient group is
    trivial, so the charge matrix has no columns and points are compared
    coordinate by coordinate; the all-zero point is its own orbit."""
    fan = build_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    assert charge_matrix(fan).matrix.cols == 0
    origin = HomogeneousPoint(fan, 1, (P.zero(), P.zero()))
    assert same_orbit(origin, origin)
    a = HomogeneousPoint(fan, 1, (polar(2), polar(3, F(1, 2))))
    b = HomogeneousPoint(fan, 1, (polar(2), polar(3)))
    assert same_orbit(a, a) and same_orbit(b, b)
    assert not same_orbit(a, b)

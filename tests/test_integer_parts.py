"""The torus action, the power maps, the equivariance check, ``pow_int``,
products and the orbit test on integer parts, against the ``Fraction``
arithmetic they replaced (``slow_paths``): equal values and fields, the same
``pow_int`` cap messages, and the same error types.

Seeded over the orbit fans of the benchmark and every shipped fan, so
zero coordinates, negative charge entries (Hirzebruch), charge entries
above 1 (weighted planes) and every level from 1 to 12 all occur.
"""

import random
from fractions import Fraction as F

import pytest

from slow_paths import (
    slow_act,
    slow_act_per_entry,
    slow_check_equivariance,
    slow_pow_int,
    slow_power_map,
    slow_same_orbit,
)
from toriq import catalog
from toriq.errors import DomainError, LevelMismatchError, ResourceLimitError
from toriq.homogeneous import (
    HomogeneousPoint,
    TorusElement,
    act,
    check_equivariance,
    power_map,
    same_orbit,
)
from toriq.quotient import charge_matrix
from toriq.solenoid import _POW_BITS_CAP, PolarComplex

SEED = 20261019
ORBIT_FANS = {name: catalog.load_named(name)
              for name in ("cp2", "cp1xcp1", "hirzebruch_1", "hirzebruch_2")}
ORBIT_FANS["cp3"] = catalog.projective_space(3)
FANS = {**ORBIT_FANS, **catalog.shipped_fans()}


def fields(x):
    """The stored fields of a polar value, a point or a torus element."""
    if isinstance(x, PolarComplex):
        assert type(x.rho) is type(x.turns) is F
        return x.rho, x.turns
    values = x.coords if isinstance(x, HomogeneousPoint) else x.params
    return x.level, tuple(fields(c) for c in values)


def same_outcome(fast, slow):
    """Both calls return equal values with equal fields, or both raise the
    same error type with the same message."""
    try:
        expected = slow()
    except DomainError as e:
        with pytest.raises(type(e)) as got:
            fast()
        assert type(got.value) is type(e) and str(got.value) == str(e)
        return None
    result = fast()
    assert result == expected
    if not isinstance(result, bool):
        assert fields(result) == fields(expected)
    return result


def polar(rng, zero=False):
    turns = F(rng.randint(-50, 50), rng.randint(1, 24))
    return PolarComplex(0 if zero else F(rng.randint(1, 60), rng.randint(1, 60)), turns)


def point(rng, fan, level):
    zeros = set(rng.sample(range(fan.n_rays), rng.randint(0, 2)))
    if not fan.is_cone(zeros):
        zeros = set()
    return HomogeneousPoint(fan, level, tuple(polar(rng, i in zeros) for i in range(fan.n_rays)))


@pytest.mark.parametrize("name", sorted(FANS))
def test_integer_parts_match_fraction_arithmetic(name):
    fan = FANS[name]
    rng = random.Random(f"{SEED}-{name}")
    s = charge_matrix(fan).torus_rank
    for trial in range(36):
        level = 1 + trial % 12
        z = point(rng, fan, level)
        t = TorusElement(level, tuple(polar(rng) for _ in range(s)))
        t2 = TorusElement(level, tuple(polar(rng) for _ in range(s)))
        l = rng.randint(1, 7)
        k = rng.randint(-6, 6)

        image = same_outcome(lambda: act(t, z), lambda: slow_act(t, z))
        assert fields(image) == fields(slow_act_per_entry(t, z))
        same_outcome(lambda: power_map(l, z), lambda: slow_power_map(l, z))
        assert same_outcome(lambda: check_equivariance(fan, t, z, l),
                            lambda: slow_check_equivariance(fan, t, z, l)) is True
        same_outcome(lambda: t.pow_int(k),
                     lambda: TorusElement(level, tuple(slow_pow_int(p, k) for p in t.params)))
        same_outcome(lambda: t * t2, lambda: TorusElement(level, tuple(
            PolarComplex(a.rho * b.rho, a.turns + b.turns) for a, b in zip(t.params, t2.params))))
        for c in z.coords:
            same_outcome(lambda: c.pow_int(k), lambda: slow_pow_int(c, k))
            # check_equivariance powers both sides alike, so check its powers alone
            same_outcome(lambda: c.pow_int(l), lambda: slow_pow_int(c, l))
            same_outcome(lambda: c * t.params[0], lambda: PolarComplex(
                c.rho * t.params[0].rho, c.turns + t.params[0].turns))

        assert same_orbit(z, image) is slow_same_orbit(z, image) is True
        i = rng.choice([i for i, c in enumerate(image.coords) if not c.is_zero])
        nudge = PolarComplex(rng.choice((1, 1, 2, F(4, 9), 8)), F(rng.randrange(12), 12))
        moved = image.coords[:i] + (image.coords[i] * nudge,) + image.coords[i + 1:]
        other = HomogeneousPoint(fan, level, moved)
        assert same_orbit(z, other) is slow_same_orbit(z, other)


def test_caps_and_errors_match_fraction_arithmetic():
    """At ``_POW_BITS_CAP`` a power goes through and one bit past it is
    refused with the message of the ``Fraction`` path, in the action, the
    power maps and the equivariance check, whichever side trips first; a
    level or arity mismatch and a bad exponent raise the same types."""
    half = PolarComplex(F(1, 2), F(1, 3))
    for k in (_POW_BITS_CAP, -_POW_BITS_CAP, _POW_BITS_CAP + 1, -_POW_BITS_CAP - 1):
        same_outcome(lambda: half.pow_int(k), lambda: slow_pow_int(half, k))
    with pytest.raises(ResourceLimitError):
        half.pow_int(_POW_BITS_CAP + 1)

    # (1, 1, n) has n in its charge column, so a parameter of b bits trips
    # the cap inside the action once n * (b - 1) passes it
    n = 5
    fan = catalog.weighted_plane(n)
    one = PolarComplex.one()
    z = HomogeneousPoint(fan, 1, (one, PolarComplex.zero(), one))
    for bits in (_POW_BITS_CAP // n + 1, _POW_BITS_CAP // n + 2):
        t = TorusElement(1, (PolarComplex(F(2 ** (bits - 1) + 1, 3), F(1, 7)),))
        same_outcome(lambda: act(t, z), lambda: slow_act(t, z))
        for l in (1, 0):  # the action's cap trips before a bad exponent is seen
            same_outcome(lambda: check_equivariance(fan, t, z, l),
                         lambda: slow_check_equivariance(fan, t, z, l))

    # t = 2^a against a point of moduli 2^-a, 2^-a, 2^-na acts to all ones:
    # at l = 1 nothing trips, at l = 4 the point's power trips on the right
    # side after t^l went through, and at l = 8 t^l trips first; a point of
    # modulus past the cap / 4 trips both sides, the power of the image on
    # the left first
    a = _POW_BITS_CAP // n
    t = TorusElement(2, (PolarComplex(2 ** a, F(1, 5)),))
    w = HomogeneousPoint(fan, 2, tuple(PolarComplex(F(1, 2 ** (e * a))) for e in (1, 1, n)))
    big = HomogeneousPoint(fan, 2, (PolarComplex(2 ** (_POW_BITS_CAP // 4 + 1) + 1), one, one))
    small = PolarComplex(F(3, 2), F(1, 5))
    for t, w, l in ((t, w, 1), (t, w, 4), (t, w, 8), (TorusElement(2, (small,)), big, 4)):
        same_outcome(lambda: check_equivariance(fan, t, w, l),
                     lambda: slow_check_equivariance(fan, t, w, l))
        same_outcome(lambda: power_map(l, w), lambda: slow_power_map(l, w))

    cp2 = catalog.load_named("cp2")
    z = HomogeneousPoint(cp2, 3, (small, one, small))
    t = TorusElement(3, (small,))
    calls = [
        (lambda: act(TorusElement(4, (small,)), z),
         lambda: slow_act(TorusElement(4, (small,)), z)),
        (lambda: act(TorusElement(3, (small, small)), z),
         lambda: slow_act(TorusElement(3, (small, small)), z)),
        (lambda: check_equivariance(cp2, TorusElement(4, (small,)), z, 0),
         lambda: slow_check_equivariance(cp2, TorusElement(4, (small,)), z, 0)),
        (lambda: check_equivariance(cp2, TorusElement(3, ()), z, 2),
         lambda: slow_check_equivariance(cp2, TorusElement(3, ()), z, 2)),
        (lambda: check_equivariance(fan, t, z, 2),
         lambda: slow_check_equivariance(fan, t, z, 2)),
    ] + [
        (lambda e=e: power_map(e, z), lambda e=e: slow_power_map(e, z))
        for e in (0, -1, True, 1.0)
    ] + [
        (lambda e=e: check_equivariance(cp2, t, z, e),
         lambda e=e: slow_check_equivariance(cp2, t, z, e))
        for e in (0, True, F(2))
    ] + [
        (lambda e=e: small.pow_int(e), lambda e=e: slow_pow_int(small, e))
        for e in (True, 2.0)
    ] + [
        (lambda: PolarComplex.zero().pow_int(0), lambda: slow_pow_int(PolarComplex.zero(), 0)),
    ]
    for fast, slow in calls:
        with pytest.raises(DomainError):
            slow()
        same_outcome(fast, slow)
    with pytest.raises(LevelMismatchError):
        act(TorusElement(4, (small,)), z)

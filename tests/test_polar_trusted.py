"""Results of polar arithmetic are built without re-validation
(``PolarComplex._from_parts`` and ``pow_int`` store through the shared
``intlinalg._trusted`` helper), and so are the points that ``act`` and
``power_map`` return and the torus elements of ``pow_int`` and ``*``;
``act`` takes one pass per coordinate.

Checked against the ``Fraction`` action (``slow_paths.slow_act``) and
against rebuilds through the validating constructor; the ``pow_int``
cap still trips inside ``act``; and a count of the validating
``PolarComplex.__init__`` and ``__post_init__`` calls keeps re-validation
out of the action, the power maps and the solenoid maps.
"""

import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from slow_paths import slow_act, slow_power_map, zero_indices
from toriq import catalog
from toriq.errors import ResourceLimitError
from toriq.homogeneous import (
    HomogeneousPoint,
    TorusElement,
    act,
    check_equivariance,
    in_discriminant,
    power_map,
)
from toriq.quotient import charge_matrix
from toriq.solenoid import (
    _POW_BITS_CAP,
    PolarComplex,
    ProfiniteInt,
    SolenoidPoint,
    cover_map,
    nu,
    phi,
    refine,
    sol_exp,
)

FANS = [
    catalog.projective_line(),
    catalog.projective_plane(),
    catalog.product_of_lines(),
    catalog.weighted_plane(3),
    catalog.hirzebruch(2),
    catalog.projective_space(3),
]

# turns well outside [0, 1), so every constructor and product must reduce
turns = st.fractions(min_value=-7, max_value=7, max_denominator=24)
moduli = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
nonzero = st.builds(PolarComplex, moduli, turns)
polars = st.one_of(st.builds(PolarComplex, st.just(0), turns), nonzero)


def assert_canonical(x):
    """x has Fraction fields, turns in [0, 1), turns 0 at modulus 0, and
    equals (fields, ==, hash) its rebuild by the validating constructor."""
    assert type(x) is PolarComplex
    assert type(x.rho) is type(x.turns) is F
    assert x.rho >= 0 and 0 <= x.turns < 1
    assert x.rho or x.turns == 0
    y = PolarComplex(x.rho, x.turns)
    assert (x.rho, x.turns) == (y.rho, y.turns)
    assert x == y and hash(x) == hash(y)
    assert repr(x) == f"PolarComplex(rho={x.rho!r}, turns={x.turns!r})"


def assert_matches(x, rho, turns):
    """x is canonical and equals ``PolarComplex(rho, turns)``."""
    assert_canonical(x)
    y = PolarComplex(rho, turns)
    assert (x.rho, x.turns) == (y.rho, y.turns)
    assert x == y and hash(x) == hash(y)


@st.composite
def action_inputs(draw):
    fan = draw(st.sampled_from(FANS))
    coords = tuple(draw(polars) for _ in range(fan.n_rays))
    if in_discriminant(fan, coords):
        coords = tuple(c if c.rho else PolarComplex(1, F(1, 5)) for c in coords)
    level = draw(st.integers(1, 6))
    params = tuple(draw(nonzero) for _ in range(charge_matrix(fan).torus_rank))
    return fan, TorusElement(level, params), HomogeneousPoint(fan, level, coords)


@settings(max_examples=200, deadline=None)
@given(action_inputs(), st.integers(1, 7))
def test_action_power_map_and_equivariance_match_validated_arithmetic(inputs, l):
    fan, t, z = inputs
    q = charge_matrix(fan).matrix.entries
    image = act(t, z)
    assert image == slow_act(t, z)
    for c, row, x in zip(z.coords, q, image.coords):
        rho, tw = c.rho, c.turns
        for e, p in zip(row, t.params):
            rho, tw = rho * p.rho ** e, tw + p.turns * e
        assert_matches(x, rho, tw)
    powered = power_map(l, z)
    assert powered == slow_power_map(l, z)
    for c, x in zip(z.coords, powered.coords):
        assert_matches(x, c.rho ** l, c.turns * l)
    assert zero_indices(powered) == zero_indices(z)
    t_l = t.pow_int(l)
    assert t_l == TorusElement(t.level, t_l.params)
    assert t_l * t == TorusElement(t.level, tuple(a * b for a, b in zip(t_l.params, t.params)))
    for p, x in zip(t.params, t_l.params):
        assert_matches(x, p.rho ** l, p.turns * l)
    right = act(t_l, powered)
    assert right == slow_act(t_l, powered)
    assert power_map(l, image) == right
    assert check_equivariance(fan, t, z, l) is True
    assert power_map(l, slow_act(t, z)).coords == slow_act(t_l, power_map(l, z)).coords
    for x in image.coords + right.coords:
        assert_canonical(x)


@settings(max_examples=200, deadline=None)
@given(polars, nonzero, st.integers(-6, 6), st.integers(1, 4), st.data())
def test_polar_arithmetic_matches_validated_rebuilds(a, b, k, q, data):
    assert_matches(a * b, a.rho * b.rho, a.turns + b.turns)
    assert_matches(b.pow_int(k), b.rho ** k, b.turns * k)
    if a.rho or k > 0:
        assert_matches(a.pow_int(k), a.rho ** k, a.turns * k)
    branch = data.draw(st.integers(0, q - 1))
    raw = data.draw(turns)
    radicand = PolarComplex(a.rho ** q, raw)
    root = radicand.root(q, branch)
    turn = (radicand.turns + branch) / q
    assert_matches(root, a.rho, turn)
    assert root.pow_int(q) == radicand


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(-100, 100), turns)
def test_solenoid_maps_match_validated_rebuilds(level, residue, theta):
    a = ProfiniteInt(level, residue)
    assert_matches(phi(a).top, 1, F(residue, level))
    assert_matches(nu(theta, level).top, 1, theta / level)
    assert_matches(sol_exp(a, theta).top, 1, F(residue, level) + theta / level)
    assert_matches(sol_exp(a, theta).coordinate(1), 1, residue + theta)


def test_pow_int_cap_holds_inside_act():
    """(1, 1, n) has n in its charge column; a parameter whose modulus has
    |n| * (bits - 1) past the cap trips it before any power is formed, with
    the message ``pow_int`` gives and the per-entry action gave, even on a
    zero coordinate.  Just under the cap the action goes through."""
    n = 8
    fan = catalog.weighted_plane(n)
    assert n in charge_matrix(fan).matrix.columns()[0]
    bits = _POW_BITS_CAP // n + 2
    assert n * (bits - 1) > _POW_BITS_CAP >= bits - 1
    t = TorusElement(1, (PolarComplex(2 ** (bits - 1) + 1, F(1, 3)),))
    message = (f"pow_int: exponent {n} on a modulus of {bits}/1 bits (numerator/denominator) "
               f"exceeds the cap of {_POW_BITS_CAP} bits on the power")
    one, zero = PolarComplex.one(), PolarComplex.zero()
    for coords in ((one, one, one), (one, one, zero)):
        z = HomogeneousPoint(fan, 1, coords)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as fast:
            act(t, z)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ResourceLimitError) as slow:
            slow_act(t, z)
        with pytest.raises(ResourceLimitError) as power:
            t.params[0].pow_int(n)
        assert str(fast.value) == str(slow.value) == str(power.value) == message
    under = TorusElement(1, (PolarComplex(2 ** (bits - 2) + 1),))
    z = HomogeneousPoint(fan, 1, (one, one, one))
    assert act(under, z) == slow_act(under, z)


def test_no_revalidation_inside_action_powers_or_solenoid_maps(monkeypatch):
    """Only the caller's own ``PolarComplex(...)``, ``HomogeneousPoint(...)``
    and ``TorusElement(...)`` calls run the validating ``__init__`` or
    ``__post_init__``."""
    fan = catalog.hirzebruch(2)
    z = HomogeneousPoint(fan, 2, (PolarComplex(F(3, 2), F(9, 4)), PolarComplex.zero(),
                                  PolarComplex(F(5), F(-1, 3)), PolarComplex(F(2, 7))))
    t = TorusElement(2, (PolarComplex(F(4, 9), F(7, 5)), PolarComplex(F(6), F(-2, 3))))
    base = SolenoidPoint(3, PolarComplex(F(16, 81), F(2, 3)))
    calls = []
    for cls, name in ((PolarComplex, "__init__"), (HomogeneousPoint, "__post_init__"),
                      (TorusElement, "__post_init__")):
        original = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args, original=original, **kwargs:
                            calls.append(self) or original(self, *args, **kwargs))
    PolarComplex(F(2), F(5, 4))
    HomogeneousPoint(fan, 2, z.coords)
    TorusElement(2, t.params)
    assert [type(x) for x in calls] == [PolarComplex, HomogeneousPoint, TorusElement]
    calls.clear()
    act(t, z)
    power_map(3, z)
    assert check_equivariance(fan, t, z, 3)
    t.pow_int(-2) * t
    zero = z.coords[1]
    assert zero.pow_int(4) is zero and zero.root(3, 1) is zero
    for p in z.coords[0], t.params[0]:
        p * p
        p.pow_int(-5)
    lifted = refine(base, 12, 3)
    cover_map(3, 12, lifted.top)
    (base * base).coordinate(1)
    sol_exp(ProfiniteInt(6, 5), F(7, 3))
    phi(ProfiniteInt(4, 1))
    nu(F(-5, 2), 3).coordinate(1)
    assert calls == []

"""Profinite integers, polar arithmetic, solenoid points and their maps."""

import random
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from slow_paths import slow_integer_root, slow_polar_parts
from toriq.cones import RationalCone, cone_contains
from toriq.errors import DomainError, LevelMismatchError, ResourceLimitError
from toriq.kring import FormalSum, KRingElement
from toriq.solenoid import (
    _POW_BITS_CAP,
    PolarComplex,
    ProfiniteInt,
    SolenoidPoint,
    _exact_root,
    _integer_root,
    cover_map,
    nu,
    phi,
    refine,
    sol_exp,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=24
)
positive_rationals = st.fractions(min_value=F(1, 24), max_value=8, max_denominator=24)


def test_pf_add_examples():
    assert ProfiniteInt(6, 4) + ProfiniteInt(6, 5) == ProfiniteInt(6, 3)
    x = ProfiniteInt(12, 7)
    assert x + ProfiniteInt(12, 0) == x
    assert x + x == ProfiniteInt(12, 2)


def test_pf_add_level_mismatch():
    with pytest.raises(LevelMismatchError):
        ProfiniteInt(4, 1) + ProfiniteInt(6, 1)


def test_pf_group_laws():
    import random

    rng = random.Random(0)
    for _ in range(200):
        m = rng.randint(1, 60)
        a, b, c = (ProfiniteInt(m, rng.randrange(m)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + -a == ProfiniteInt(m, 0)


def test_pf_project_examples():
    x = ProfiniteInt(12, 7)
    assert x.project(4) == 3
    assert x.project(1) == 0
    assert x.project(12) == 7
    with pytest.raises(DomainError):
        x.project(5)


def test_pf_project_compatible():
    x = ProfiniteInt(60, 43)
    for d in (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60):
        for e in (dd for dd in range(1, d + 1) if d % dd == 0):
            assert x.project(d) % e == x.project(e)


def test_polar_normalization_and_zero():
    z = PolarComplex(F(0), F(3, 4))
    assert z.turns == 0 and z.is_zero
    z = PolarComplex(F(2), F(7, 4))
    assert z.turns == F(3, 4)
    with pytest.raises(DomainError):
        PolarComplex(F(-1), F(0))
    with pytest.raises(DomainError):
        PolarComplex(0.5, F(0))


def test_polar_parts_match_reduced_conversion():
    """The parts read off the ``Fraction`` arguments equal ``_reduced`` of
    the old conversion, for ints, Fractions and Decimals, turns below 0 or
    at least 1, and modulus 0 under nonzero turns; refused input raises
    the same error with the same text."""
    rng = random.Random(20261019)

    def number(lo, hi):
        den = rng.choice((1, 2, 4, 5, 10, 12, 1000, rng.randint(1, 10 ** 6)))
        q = F(rng.randint(lo * den, hi * den), den)
        forms = [q, Decimal(q.numerator) / Decimal(q.denominator)] if 10 ** 6 % den == 0 else [q]
        return rng.choice(forms + [q.numerator] if q.denominator == 1 else forms)

    kinds = set()
    for _ in range(3000):
        rho = 0 if rng.random() < 0.1 else number(0, 50)
        turns = number(-7, 7)
        kinds.add((type(rho), type(turns), rho == 0, turns < 0, turns >= 1))
        assert PolarComplex(rho, turns).parts == slow_polar_parts(rho, turns), (rho, turns)
    assert len(kinds) > 20
    for bad in ((-1, 0), (F(-1, 2), F(1, 3)), (Decimal("-0.5"), 0), (0.5, 0), (1, 0.25),
                ("1/2", 0), (1, "1/3"), (True, 0), (1, False), (-1, 0.5)):
        with pytest.raises(DomainError) as fast:
            PolarComplex(*bad)
        with pytest.raises(DomainError) as slow:
            slow_polar_parts(*bad)
        assert type(fast.value) is type(slow.value) and str(fast.value) == str(slow.value)


@pytest.mark.parametrize("make", [
    PolarComplex,
    lambda x: PolarComplex(1, x),
    nu,
    FormalSum.monomial,
    lambda x: KRingElement(0, x),
    pytest.param(lambda x: FormalSum([(x, 1)]), id="formal_sum_terms"),
    pytest.param(lambda x: cone_contains(RationalCone(2, ((1, 0),)), (x, 0)), id="cone_contains"),
    pytest.param(lambda x: sol_exp(ProfiniteInt(3, 1), x), id="sol_exp"),
])
def test_non_rational_input_is_domain_error(make):
    """Every exact-rational boundary takes numbers only: text that
    ``Fraction`` would parse, and a ``bool``, are refused like any other
    non-rational value."""
    for bad in (None, "x", "1/0", "3/4", " 2 ", "1.5", True, False):
        with pytest.raises(DomainError, match=f"got {bad!r}"):
            make(bad)
    for good in (3, F(3, 4), Decimal("1.5")):
        make(good)


@settings(max_examples=150, deadline=None)
@given(positive_rationals, rationals, positive_rationals, rationals)
def test_polar_multiplication_abelian_exact(r1, t1, r2, t2):
    a = PolarComplex(r1, t1)
    b = PolarComplex(r2, t2)
    assert a * b == b * a
    assert (a * b).rho == r1 * r2
    assert ((a * b).turns - (t1 + t2)).denominator == 1


def test_cover_map_examples():
    assert cover_map(1, 2, PolarComplex(F(1), F(1, 4))) == PolarComplex(F(1), F(1, 2))
    z = PolarComplex(F(5, 3), F(7, 11))
    assert cover_map(7, 7, z) == z
    assert cover_map(2, 6, PolarComplex(F(2), F(1, 3))) == PolarComplex(F(8), F(0))
    with pytest.raises(DomainError):
        cover_map(4, 6, z)


def test_pow_int_size_cap():
    """The cap trips before any power is formed, and a unit modulus, whose
    powers stay one bit, covers exactly at any level."""
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"pow_int: exponent 1000000000 .* 2/2 bits"):
        cover_map(1, 10**9, PolarComplex(F(3, 2)))
    assert time.perf_counter() - start < 1.0
    assert cover_map(1, 10**9, PolarComplex(F(1), F(1, 3))) == PolarComplex(F(1), F(1, 3))
    assert PolarComplex(F(1, 2)).pow_int(-_POW_BITS_CAP).rho == 2 ** _POW_BITS_CAP
    with pytest.raises(ResourceLimitError, match=f"cap of {_POW_BITS_CAP} bits"):
        PolarComplex(F(1, 2)).pow_int(-_POW_BITS_CAP - 1)
    with pytest.raises(ResourceLimitError):
        SolenoidPoint(10**9, PolarComplex(F(3), F(0))).coordinate(1)


def test_cover_functoriality_divisor_chains():
    z = PolarComplex(F(3, 2), F(5, 7))
    for l in (12, 36, 360):
        for m in (d for d in range(1, l + 1) if l % d == 0):
            for n in (d for d in range(1, m + 1) if m % d == 0):
                assert cover_map(n, m, cover_map(m, l, z)) == cover_map(n, l, z)


def test_phi_examples():
    p = phi(ProfiniteInt(4, 1))
    assert p.top == PolarComplex(F(1), F(1, 4))
    assert p.coordinate(1) == PolarComplex.one()
    assert phi(ProfiniteInt(7, 0)).top == PolarComplex.one()
    p = phi(ProfiniteInt(6, 3))
    assert p.top == PolarComplex(F(1), F(1, 2))
    assert p.coordinate(2) == PolarComplex(F(1), F(1, 2))


def test_phi_lands_in_fiber_and_fills_it():
    for m in range(1, 101):
        seen = set()
        for a in range(m):
            p = phi(ProfiniteInt(m, a))
            assert p.coordinate(1) == PolarComplex.one()
            seen.add(p.top)
        # every level-m point with trivial base coordinate is phi of a
        # unique residue: rho = 1 and turns in (1/m)Z
        assert len(seen) == m
        assert seen == {PolarComplex(F(1), F(k, m)) for k in range(m)}


def test_nu_examples():
    assert nu(1, 5) == phi(ProfiniteInt(5, 1))
    assert nu(0, 7).top == PolarComplex.one()
    assert nu(5, 5).top == PolarComplex.one()


def test_nu_phi_identity_across_levels():
    for m in (1, 2, 3, 5, 8, 30, 360, 1000):
        for n in range(-50, 51):
            assert nu(n, m) == phi(ProfiniteInt(m, n))


def test_sol_exp_examples():
    a = ProfiniteInt(4, 1)
    assert sol_exp(a, 1).top == PolarComplex(F(1), F(1, 2))
    t = F(3, 7)
    assert sol_exp(ProfiniteInt(9, 0), t) == nu(t, 9)
    assert sol_exp(a, 0) == phi(a)


def test_solenoid_multiplication_and_level_guard():
    x = SolenoidPoint(6, PolarComplex(F(2), F(1, 3)))
    y = SolenoidPoint(6, PolarComplex(F(3), F(1, 2)))
    assert (x * y).top == PolarComplex(F(6), F(5, 6))
    with pytest.raises(LevelMismatchError):
        x * SolenoidPoint(5, PolarComplex.one())


def test_solenoid_point_and_root_reject_bad_input():
    for bad in (5, F(1), None, (1, 0)):
        with pytest.raises(DomainError, match="must be a PolarComplex"):
            SolenoidPoint(2, bad)
    for branch in (0.5, F(1, 2), F(1), True, 2, -1):
        with pytest.raises(DomainError, match=r"branch must be an integer in \[0, 2\)"):
            PolarComplex(F(4)).root(2, branch)


def test_root_names_its_degree_and_refine_its_level():
    for q in (0, -1, 1.0, True, None):
        with pytest.raises(DomainError, match=rf"root degree must be a positive integer, got {q!r}$"):
            PolarComplex(1).root(q, 0)
    with pytest.raises(DomainError, match=r"^level must be a positive integer, got 0$"):
        refine(SolenoidPoint(1, PolarComplex.one()), 0, 0)


def test_refine_examples():
    assert refine(SolenoidPoint(1, PolarComplex.one()), 3, 1).top == PolarComplex(F(1), F(1, 3))
    assert refine(SolenoidPoint(2, PolarComplex(F(1), F(1, 2))), 4, 0).top == PolarComplex(F(1), F(1, 4))


def test_refine_section_property():
    z = SolenoidPoint(3, PolarComplex(F(16, 81), F(2, 3)))
    for branch in range(4):
        lifted = refine(z, 12, branch)
        assert cover_map(3, 12, lifted.top) == z.top
    with pytest.raises(DomainError):
        refine(z, 12, 4)
    with pytest.raises(DomainError):
        refine(z, 7, 0)  # 3 does not divide 7


def test_exact_root_search_is_bounded_by_bit_length():
    for x in range(1, 40):
        for q in range(1, 9):
            assert _exact_root(x ** q, q) == x
            if q > 1:
                with pytest.raises(DomainError, match="not a perfect"):
                    _exact_root(x ** q + 1, q)
    # an unbounded search would form 2 ** (10 ** 12), a 125 GB integer
    started = time.perf_counter()
    with pytest.raises(DomainError, match="not a perfect"):
        _exact_root(3, 10 ** 12)
    with pytest.raises(DomainError, match="not a perfect"):
        PolarComplex(F(3)).root(10 ** 12, 0)
    assert time.perf_counter() - started < 1.0


def test_square_root_matches_bisection_at_every_size():
    """Square roots by ``math.isqrt`` against the bisection they replaced,
    on perfect squares and their neighbours of about 2, 64, 8,192 and
    32,768 bits.  Bisection takes about 2 s per 32,768-bit radicand."""
    rng = random.Random(20261019)
    library_s = 0.0
    for bits in (2, 64, 8192, 32768):
        half = bits // 2
        x = rng.getrandbits(half) | 1 << (half - 1)
        for n, expected in ((x * x - 1, None), (x * x, x), (x * x + 1, None)):
            started = time.perf_counter()
            root = _integer_root(n, 2)
            library_s += time.perf_counter() - started
            assert root == slow_integer_root(n, 2) == (expected if n > 1 else n), (bits, n)
    assert library_s < 0.5


def test_refine_requires_exact_radicals():
    z = SolenoidPoint(1, PolarComplex(F(2), F(0)))
    with pytest.raises(DomainError, match="perfect"):
        refine(z, 2, 0)
    ok = refine(SolenoidPoint(1, PolarComplex(F(4, 9), F(0))), 2, 0)
    assert ok.top.rho == F(2, 3)


def test_compatibility_under_projection():
    z = SolenoidPoint(12, PolarComplex(F(1), F(5, 12)))
    for d in (1, 2, 3, 4, 6, 12):
        for e in (dd for dd in range(1, d + 1) if d % dd == 0):
            assert z.coordinate(d).pow_int(d // e) == z.coordinate(e)


def test_rendering_fixed():
    assert str(SolenoidPoint(4, PolarComplex(F(1), F(1, 4)))) == "level=4 rho=1 turns=1/4"
    assert str(PolarComplex(F(8), F(0))) == "rho=8 turns=0"
    assert str(ProfiniteInt(12, 7)) == "7 mod 12"

"""Finite-level homogeneous-coordinate model of the completed toric variety.

Points carry one exact polar coordinate per ray, constrained to avoid the
discriminant locus; the quotient torus acts through the charge matrix, and
the coordinatewise power maps realize the bonding maps of the completion.
All identities here are level-wise, so a single truncation level suffices:
inverse-limit points are never materialized.

A caller's ``HomogeneousPoint`` and ``TorusElement`` are checked once, when
built.  Nonzero parameters keep a point's zero pattern, so the images under
``act`` and ``power_map`` and the powers and products of torus elements are
built by the shared ``_trusted`` helper without the checks.

The action, the equivariance check and the orbit test read the integer
parts ``(n, d, tn, td)`` that each ``PolarComplex`` stores.  One helper,
``_scaled``, gives a coordinate of the action: moduli multiply as numerator
and denominator products, turns add over a common denominator, and the
coordinate is normalized once, at the end.  It caps each factor's power and
then their sum, so a coordinate's size is bounded before any power is
formed.  ``check_equivariance`` builds both sides of its identity on parts
alone, the powers by ``solenoid._pow_parts``, in the order the built sides
would form them.

``same_orbit`` needs one Smith form of the charge rows of the nonzero
coordinates.  It depends only on the fan and the nonzero pattern, so each
fan instance keeps the rows of U and the d_i that constrain the test, one
plan per pattern and so at most one per cone, beside its face list and its
lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import (DomainError, LevelMismatchError, ResourceLimitError, _check_int, _check_type,
                     _shown)
from .fans import Fan
from .intlinalg import IntMatrix, _trusted, smith_normal_form
from .quotient import charge_matrix
from .solenoid import (_POW_BITS_CAP, PolarComplex, _check_level, _integer_root, _pow_bits,
                       _pow_parts, _reduced)


def _polar_tuple(values, what: str) -> tuple[PolarComplex, ...]:
    try:
        values = tuple(values)
    except TypeError:
        raise DomainError(f"{what} must be an iterable of PolarComplex values, "
                          f"got {_shown(values)}") from None
    for v in values:
        _check_type(v, PolarComplex, what + " must be PolarComplex values, got {}")
    return values


def in_discriminant(fan: Fan, coords) -> bool:
    """Does the zero-coordinate pattern contain a minimal non-cone subset?

    Cones are closed under subsets, so it does exactly when the pattern is
    no cone itself.
    """
    _check_type(fan, Fan, "in_discriminant: fan must be a Fan, got {}")
    return _in_discriminant(fan, _polar_tuple(coords, "in_discriminant: coords"))


def _in_discriminant(fan: Fan, coords: tuple[PolarComplex, ...]) -> bool:
    """``in_discriminant`` on a ``Fan`` and a tuple of ``PolarComplex``."""
    if len(coords) != fan.n_rays:
        raise DomainError(f"expected {fan.n_rays} coordinates, got {len(coords)}")
    return not fan.is_cone(i for i, c in enumerate(coords) if c.is_zero)


@dataclass(frozen=True)
class HomogeneousPoint:
    """Coordinates outside the discriminant locus, at one truncation level."""

    fan: Fan
    level: int
    coords: tuple[PolarComplex, ...]

    def __post_init__(self):
        _check_type(self.fan, Fan, "HomogeneousPoint: fan must be a Fan, got {}")
        _check_level(self.level)
        object.__setattr__(self, "coords", _polar_tuple(self.coords, "coordinates"))
        if _in_discriminant(self.fan, self.coords):
            raise DomainError("point lies in the discriminant locus")

    @property
    def zero_pattern(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coords) if c.is_zero)


@dataclass(frozen=True)
class TorusElement:
    """Element of the quotient torus: one nonzero parameter per charge column."""

    level: int
    params: tuple[PolarComplex, ...]

    def __post_init__(self):
        _check_level(self.level)
        object.__setattr__(self, "params", _polar_tuple(self.params, "torus parameters"))
        if any(p.is_zero for p in self.params):
            raise DomainError("torus parameters must be nonzero")

    def pow_int(self, k: int) -> "TorusElement":
        _check_int(k, "exponent must be an integer")
        # powers of nonzero parameters are nonzero
        return _trusted(TorusElement, level=self.level,
                        params=tuple(p.pow_int(k) for p in self.params))

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement):
            return NotImplemented
        if self.level != other.level:
            raise LevelMismatchError("torus elements at different levels")
        return _trusted(TorusElement, level=self.level,
                        params=tuple(a * b for a, b in zip(self.params, other.params)))


def _charge_rows(t: TorusElement, z: HomogeneousPoint) -> tuple[tuple[int, ...], ...]:
    """The charge rows of z's fan, once t and z are seen to match: the
    same level, and one parameter per charge column."""
    if t.level != z.level:
        raise LevelMismatchError("torus element and point live at different levels")
    q = charge_matrix(z.fan).matrix
    if len(t.params) != q.cols:
        raise DomainError(f"expected {q.cols} torus parameters, got {len(t.params)}")
    return q.entries


def _scaled(i: int, parts, row, params) -> tuple[int, int, int, int]:
    """The reduced parts of coordinate i, of parts ``parts``, times the
    product of the parameters of parts ``params`` to the powers in its
    charge ``row``: the moduli multiply as numerator and denominator
    products, a negative exponent swapping the two, and the turns add over
    a common denominator.  Before any power is formed, each factor's size
    is capped as in ``pow_int`` (``_pow_bits``), in row order, and then
    their sum, which bounds the size of the coordinate."""
    bits = 0
    for e, (a, b, _, _) in zip(row, params):
        if e:
            bits += _pow_bits(a, b, e)
    if bits > _POW_BITS_CAP:
        sizes = [_pow_bits(a, b, e) for e, (a, b, _, _) in zip(row, params) if e]
        raise ResourceLimitError(
            f"act: coordinate {i} takes {len(sizes)} factors of {bits} bits in all "
            f"(the largest {max(sizes)} bits), past the cap of {_POW_BITS_CAP} bits "
            f"on a coordinate")
    n, d, tn, td = parts
    for e, (a, b, pn, pd) in zip(row, params):
        if e > 0:
            n *= a ** e
            d *= b ** e
        elif e:
            n *= b ** -e
            d *= a ** -e
        else:
            continue
        tn = tn * pd + pn * e * td
        td *= pd
    return _reduced(n, d, tn, td)


def act(t: TorusElement, z: HomogeneousPoint) -> HomogeneousPoint:
    """Scale coordinate i by the product of t_j to the power Q[i][j].

    One pass per coordinate on integer parts (``_scaled``), each factor's
    power and their sum capped; one ``PolarComplex`` is built at the end.
    """
    _check_type(t, TorusElement, "act: t must be a TorusElement, got {}")
    _check_type(z, HomogeneousPoint, "act: z must be a HomogeneousPoint, got {}")
    rows = _charge_rows(t, z)
    params = [p.parts for p in t.params]
    # nonzero parameters keep the zero pattern, so the image is valid too
    return _trusted(HomogeneousPoint, fan=z.fan, level=z.level, coords=tuple(
        _trusted(PolarComplex, parts=_scaled(i, c.parts, row, params))
        for i, (c, row) in enumerate(zip(z.coords, rows))))


def power_map(l: int, z: HomogeneousPoint) -> HomogeneousPoint:
    """Coordinatewise l-th power; zero patterns are unchanged."""
    _check_int(l, "power map exponent must be a positive integer", 1)
    _check_type(z, HomogeneousPoint, "power_map: z must be a HomogeneousPoint, got {}")
    return _trusted(HomogeneousPoint, fan=z.fan, level=z.level,
                    coords=tuple(c.pow_int(l) for c in z.coords))


def check_equivariance(fan: Fan, t: TorusElement, z: HomogeneousPoint, l: int) -> bool:
    """Exact check that powering intertwines the action with its l-fold
    reparametrization: power_map(l, t . z) == (t^l) . power_map(l, z).

    Both sides are worked out on integer parts, with no point, torus
    element or polar value built between.  Every power that building the
    sides would form is formed and capped, and errors come in the order
    they would: the checks and caps of t . z, the check of l, the caps of
    the powers of t . z, of t^l and of z^l, then those of (t^l) . z^l.
    """
    _check_type(t, TorusElement, "check_equivariance: t must be a TorusElement, got {}")
    _check_type(z, HomogeneousPoint, "check_equivariance: z must be a HomogeneousPoint, got {}")
    if z.fan is not fan and z.fan != fan:
        raise DomainError("point does not belong to the given fan")
    rows = _charge_rows(t, z)
    params = [p.parts for p in t.params]
    coords = [c.parts for c in z.coords]
    left = [_scaled(i, c, row, params) for i, (c, row) in enumerate(zip(coords, rows))]
    _check_int(l, "power map exponent must be a positive integer", 1)
    # a zero value's positive powers are zero
    left = [_pow_parts(c, l) if c[0] else c for c in left]
    t_l = [_pow_parts(p, l) for p in params]
    z_l = [_pow_parts(c, l) if c[0] else c for c in coords]
    return left == [_scaled(i, c, row, t_l) for i, (c, row) in enumerate(zip(z_l, rows))]


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 whose powers give every number, by gcd
    refinement: b and x sharing g > 1 give way to g, x / g and b / g, so the
    product of all pending numbers falls by g at each step."""
    base: list[int] = []
    pending = list(numbers)
    while pending:
        x = pending.pop()
        if x == 1:
            continue
        for k, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[k]
                pending += [g, x // g, b // g]
                break
        else:
            base.append(x)
    return base


def _multiplicity(b: int, n: int) -> int:
    """The exponent of b >= 2 in n != 0: one ``%`` when b does not divide
    n, the trailing zeros of n when b is 2.  Else, past the first division,
    divisions by b, b^2, b^4, ... while they are exact, then by the same
    powers back down, so an exponent v takes O(log v) divisions, not v."""
    if n % b:
        return 0
    if b == 2:
        return (n & -n).bit_length() - 1
    n //= b
    k, p, powers = 1, b, []
    while True:
        q, r = divmod(n, p)
        if r:
            break
        n, k = q, k + (1 << len(powers))
        powers.append(p)
        p *= p
    for i in reversed(range(len(powers))):
        q, r = divmod(n, powers[i])
        if not r:
            n, k = q, k + (1 << i)
    return k


def _orbit_plan(fan: Fan, rows: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The pairs ``(d_i, U[i])`` of one Smith form ``U @ sub @ V == D`` of
    the charge rows ``sub`` of the nonzero coordinates ``rows``, for the
    rows that constrain ``same_orbit``: d_i != 1 (a row with d_i == 1
    admits every exponent and every turn).  Worked out once per fan
    instance and pattern, in the fan's ``_orbit_plans``; each pattern's
    zero rows form a cone of the fan, so there is at most one plan per cone.
    """
    plans = fan._orbit_plans
    if plans is None:
        plans = {}
        object.__setattr__(fan, "_orbit_plans", plans)
    plan = plans.get(rows)
    if plan is None:
        q = charge_matrix(fan).matrix
        if q.cols:
            u, d, _ = smith_normal_form(
                _trusted(IntMatrix, entries=tuple(q.entries[i] for i in rows), cols=q.cols))
            diag = [d.entries[i][i] if i < q.cols else 0 for i in range(len(rows))]
            plan = tuple((di, row) for di, row in zip(diag, u.entries) if di != 1)
        else:  # no torus: U is the identity and every d_i is 0
            plan = tuple((0, tuple(int(i == j) for j in range(len(rows))))
                         for i in range(len(rows)))
        plans[rows] = plan
    return plan


def same_orbit(z: HomogeneousPoint, z2: HomogeneousPoint) -> bool:
    """Decide whether some torus element maps z to z2.

    One Smith form ``U @ sub @ V == D`` of the charge rows of the nonzero
    coordinates decides both halves; its rows with d_i != 1 are kept on the
    fan per nonzero pattern (``_orbit_plan``), so repeated calls take no
    Smith form.  Turns: ``sub @ x == delta (mod 1)`` must be solvable over
    the rationals, a condition on the rows with d_i == 0.  Moduli, without
    factoring: the ratios' numerators and denominators refine by gcds into
    a pairwise coprime base B.  A prime p divides one b in B, and its
    valuations over the ratios are v_p(b) * E_b for b's exponent vector
    E_b.  ``m * E_b`` lies in the image of sub iff a_b divides m, where a_b
    is the lcm over d_i != 0 of d_i / gcd(d_i, (U @ E_b)_i), and for no m
    if (U @ E_b)_i != 0 at some d_i == 0.  So the moduli are solvable iff
    every b is a perfect a_b-th power, a root test bounded by b's bit length.
    """
    _check_type(z, HomogeneousPoint, "same_orbit: z must be a HomogeneousPoint, got {}")
    _check_type(z2, HomogeneousPoint, "same_orbit: z2 must be a HomogeneousPoint, got {}")
    if z.fan != z2.fan:
        raise DomainError("points belong to different fans")
    if z.level != z2.level:
        raise LevelMismatchError("points live at different levels")
    rows = tuple(i for i, c in enumerate(z.coords) if c.parts[0])
    if rows != tuple(i for i, c in enumerate(z2.coords) if c.parts[0]):
        return False
    if not rows:
        return True
    plan = _orbit_plan(z.fan, rows)
    pairs = [(z.coords[i].parts, z2.coords[i].parts) for i in rows]

    # each modulus ratio z2 / z in lowest terms, by one gcd of cross products
    ratios = []
    for (a, b, _, _), (a2, b2, _, _) in pairs:
        num, den = a2 * b, b2 * a
        g = gcd(num, den)
        ratios.append((num // g, den // g))
    for b in _coprime_base([x for ratio in ratios for x in ratio]):
        e = [_multiplicity(b, num) - _multiplicity(b, den) for num, den in ratios]
        a = 1
        for di, row in plan:
            ci = sum(uij * ej for uij, ej in zip(row, e))
            if di:
                a = lcm(a, di // gcd(di, ci))
            elif ci:
                return False
        if a > 1 and _integer_root(b, a) is None:
            return False

    # the turn differences as numerators over one common denominator
    common = lcm(*(x[3] for pair in pairs for x in pair))
    delta = [tn2 * (common // td2) - tn * (common // td)
             for (_, _, tn, td), (_, _, tn2, td2) in pairs]
    for di, row in plan:
        if di == 0 and sum(uij * dj for uij, dj in zip(row, delta)) % common:
            return False
    return True

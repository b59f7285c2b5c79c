"""Finite-level homogeneous-coordinate model of the completed toric variety.

Points carry one exact polar coordinate per ray, constrained to avoid the
discriminant locus; the quotient torus acts through the charge matrix, and
the coordinatewise power maps realize the bonding maps of the completion.
All identities here are level-wise, so a single truncation level suffices:
inverse-limit points are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, LevelMismatchError
from .fans import Fan
from .intlinalg import IntMatrix, smith_normal_form, solve_integer
from .quotient import charge_matrix, discriminant_locus
from .solenoid import PolarComplex, _check_level


def in_discriminant(fan: Fan, coords) -> bool:
    """Does the zero-coordinate pattern contain a minimal non-cone subset?"""
    coords = tuple(coords)
    if len(coords) != fan.n_rays:
        raise DomainError(
            f"expected {fan.n_rays} coordinates, got {len(coords)}"
        )
    zero_set = frozenset(i for i, c in enumerate(coords) if c.is_zero)
    return discriminant_locus(fan).covers(zero_set)


@dataclass(frozen=True)
class HomogeneousPoint:
    """Coordinates outside the discriminant locus, at one truncation level."""

    fan: Fan
    level: int
    coords: tuple[PolarComplex, ...]

    def __post_init__(self):
        _check_level(self.level)
        object.__setattr__(self, "coords", tuple(self.coords))
        if in_discriminant(self.fan, self.coords):
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
        object.__setattr__(self, "params", tuple(self.params))
        if any(p.is_zero for p in self.params):
            raise DomainError("torus parameters must be nonzero")

    def pow_int(self, k: int) -> "TorusElement":
        return TorusElement(self.level, tuple(p.pow_int(k) for p in self.params))

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement):
            return NotImplemented
        if self.level != other.level:
            raise LevelMismatchError("torus elements at different levels")
        return TorusElement(self.level, tuple(a * b for a, b in zip(self.params, other.params)))


def act(t: TorusElement, z: HomogeneousPoint) -> HomogeneousPoint:
    """Scale coordinate i by the product of t_j to the power Q[i][j]."""
    if t.level != z.level:
        raise LevelMismatchError("torus element and point live at different levels")
    q = charge_matrix(z.fan).matrix
    if len(t.params) != q.cols:
        raise DomainError(f"expected {q.cols} torus parameters, got {len(t.params)}")
    new_coords = []
    for i, c in enumerate(z.coords):
        factor = PolarComplex.one()
        for j, p in enumerate(t.params):
            e = q.entries[i][j]
            if e:
                factor = factor * p.pow_int(e)
        new_coords.append(factor * c)
    return HomogeneousPoint(z.fan, z.level, tuple(new_coords))


def power_map(l: int, z: HomogeneousPoint) -> HomogeneousPoint:
    """Coordinatewise l-th power; zero patterns are unchanged."""
    if isinstance(l, bool) or not isinstance(l, int) or l < 1:
        raise DomainError("power map exponent must be a positive integer")
    return HomogeneousPoint(z.fan, z.level, tuple(c.pow_int(l) for c in z.coords))


def check_equivariance(fan: Fan, t: TorusElement, z: HomogeneousPoint, l: int) -> bool:
    """Exact check that powering intertwines the action with its l-fold
    reparametrization: power_map(l, t . z) == (t^l) . power_map(l, z)."""
    if z.fan != fan:
        raise DomainError("point does not belong to the given fan")
    left = power_map(l, act(t, z))
    right = act(t.pow_int(l), power_map(l, z))
    return left.coords == right.coords


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _valuations(x: Fraction) -> dict[int, int]:
    vals = dict(_prime_factors(x.numerator))
    for p, e in _prime_factors(x.denominator).items():
        vals[p] = vals.get(p, 0) - e
    return {p: e for p, e in vals.items() if e}


def same_orbit(z: HomogeneousPoint, z2: HomogeneousPoint) -> bool:
    """Decide whether some torus element maps z to z2.

    Splits into an integer system per prime (valuations of the modulus
    ratios; torus moduli are positive rationals, so exponent vectors are
    integral) and a rational congruence system for the turns.  Both are
    solved exactly through Smith forms, so the decision is complete for
    the exact rational data representable here.
    """
    if z.fan != z2.fan:
        raise DomainError("points belong to different fans")
    if z.level != z2.level:
        raise LevelMismatchError("points live at different levels")
    if z.zero_pattern != z2.zero_pattern:
        return False
    rows = sorted(set(range(z.fan.n_rays)) - z.zero_pattern)
    if not rows:
        return True
    q = charge_matrix(z.fan).matrix
    s = q.cols
    if s == 0:
        return all(z.coords[i] == z2.coords[i] for i in rows)
    sub = IntMatrix.from_rows([q.row(i) for i in rows], s)

    # moduli: solve sub @ x = valuation vector, over the integers, per prime
    vals = [_valuations(z2.coords[i].rho / z.coords[i].rho) for i in rows]
    primes = sorted({p for v in vals for p in v})
    for p in primes:
        target = tuple(v.get(p, 0) for v in vals)
        if solve_integer(sub, target) is None:
            return False

    # turns: solvability of sub @ x == delta (mod 1) over the rationals
    delta = [z2.coords[i].turns - z.coords[i].turns for i in rows]
    u, d, _ = smith_normal_form(sub)
    c = [sum(Fraction(u.entries[i][j]) * delta[j] for j in range(len(rows)))
         for i in range(len(rows))]
    for i in range(len(rows)):
        di = d.entries[i][i] if i < min(len(rows), s) else 0
        if di == 0 and c[i].denominator != 1:
            return False
    return True

"""Exact finite-level arithmetic for profinite integers, the universal
one-dimensional solenoid, and the solenoidal complex plane.

A point of an inverse limit along the divisibility net is truncated to a
single level M: the residue mod M determines the residue mod every divisor,
and the level-M complex coordinate determines every lower coordinate by
powering.  Angles are stored in turns (fractions of a full rotation), so
the usual 2*pi factors become integer shifts and everything stays rational.
Moduli under root extraction are kept exact by accepting only perfect
powers; anything else raises rather than rounding.

Input is validated once, at the public boundary: ``PolarComplex(...)``
converts and checks its modulus and turns, which take numbers only (no text
and no ``bool``), and ``SolenoidPoint`` accepts only a ``PolarComplex``.  A
polar value is stored as one tuple of integer parts, ``(n, d, tn, td)`` for
modulus n / d and turns tn / td in lowest terms; ``rho`` and ``turns`` are
``Fraction``s built from them on request.  The package's own exact
arithmetic (products, powers and roots, ``phi``, ``nu`` and the torus action
of ``homogeneous``) runs on those parts and builds its results by
``PolarComplex._from_parts``, which only normalizes: one ``gcd`` for the
modulus, and one for the turns after a ``%``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import (DomainError, LevelMismatchError, ResourceLimitError, _as_fraction,
                     _check_int, _check_type, _shown, _trusted)

# Bound on |k| * (bit length of the larger part of rho, less one) for each
# power that pow_int or homogeneous.act forms, about the bit size of the
# power, and on the sum of those sizes over the factors of one coordinate of
# homogeneous.act; tests and benchmark workloads stay below 600.
_POW_BITS_CAP = 1 << 20

_ZERO_PARTS = (0, 1, 0, 1)


def _pow_bits(n: int, d: int, k: int) -> int:
    """|k| * (bit length of the larger of n >= 0 and d > 0, less one): about
    the bit size of ``(n / d) ** k``.  Refused past ``_POW_BITS_CAP``."""
    bits = abs(k) * (max(n, d).bit_length() - 1)
    if bits > _POW_BITS_CAP:
        raise ResourceLimitError(
            f"pow_int: exponent {_shown(k)} on a modulus of {n.bit_length()}/{d.bit_length()} "
            f"bits (numerator/denominator) exceeds the cap of {_POW_BITS_CAP} bits on the power")
    return bits


def _pow_parts(parts: tuple[int, int, int, int], k: int) -> tuple[int, int, int, int]:
    """The reduced parts of the k-th power of the nonzero value of reduced
    ``parts``, refused past ``_POW_BITS_CAP`` (``_pow_bits``).  A negative
    k swaps n and d, and powers of coprime parts stay coprime, so only the
    turns are reduced."""
    n, d, tn, td = parts
    _pow_bits(n, d, k)
    tn = tn * k % td
    h = gcd(tn, td)
    if k < 0:
        n, d, k = d, n, -k
    if k != 1:
        n, d = n ** k, d ** k
    return n, d, tn // h, td // h


def _reduced(n: int, d: int, tn: int, td: int) -> tuple[int, int, int, int]:
    """The parts of modulus n / d and turns tn / td in lowest terms, with
    the turns in [0, 1) and forced to 0 when n is 0.  ``n >= 0``, ``d > 0``
    and ``td > 0``."""
    if not n:
        return _ZERO_PARTS
    g = gcd(n, d)
    tn %= td
    h = gcd(tn, td)
    return n // g, d // g, tn // h, td // h


def _check_level(m) -> int:
    return _check_int(m, "level must be a positive integer, got {}", 1)


@dataclass(frozen=True)
class ProfiniteInt:
    """Residue at a finite truncation level of the profinite integers."""

    level: int
    residue: int

    def __post_init__(self):
        _check_level(self.level)
        _check_int(self.residue, "residue must be an integer")
        object.__setattr__(self, "residue", self.residue % self.level)

    @classmethod
    def from_int(cls, n: int, level: int) -> "ProfiniteInt":
        """Canonical inclusion of an integer at the given level."""
        return cls(level, n)

    def project(self, d: int) -> int:
        """Residue mod a divisor d of the level."""
        _check_level(d)
        if self.level % d != 0:
            raise DomainError(f"{_shown(d)} does not divide the level {_shown(self.level)}")
        return self.residue % d

    def __add__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        if not isinstance(other, ProfiniteInt):
            return NotImplemented
        if self.level != other.level:
            raise LevelMismatchError(
                f"cannot add residues at levels {_shown(self.level)} and {_shown(other.level)}; "
                "lift both to a common level first"
            )
        return ProfiniteInt(self.level, self.residue + other.residue)

    def __neg__(self) -> "ProfiniteInt":
        return ProfiniteInt(self.level, -self.residue)

    def __sub__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        return self + (-other)

    def __str__(self) -> str:
        return f"{self.residue} mod {self.level}"


@dataclass(frozen=True, init=False)
class PolarComplex:
    """Exact polar form rho * e^(2*pi*i*turns): rational modulus and turns.

    The one field, ``parts = (n, d, tn, td)``, holds rho = n / d and
    turns = tn / td in lowest terms, turns in [0, 1) and ``(0, 1, 0, 1)``
    at modulus 0, so equality of values is equality of parts.  The
    constructor converts both arguments to ``Fraction`` and rejects floats,
    non-rationals and a negative modulus; ``_from_parts`` builds the results
    of exact arithmetic on values that already passed it.
    """

    parts: tuple[int, int, int, int]

    def __init__(self, rho, turns=0):
        rho = _as_fraction(rho)
        turns = _as_fraction(turns)
        n = rho.numerator
        if n < 0:
            raise DomainError("modulus must be nonnegative")
        # a Fraction is in lowest terms, and tn % td stays coprime to td
        td = turns.denominator
        object.__setattr__(self, "parts", (n, rho.denominator, turns.numerator % td, td)
                           if n else _ZERO_PARTS)

    @classmethod
    def _from_parts(cls, n: int, d: int, tn: int, td: int) -> "PolarComplex":
        """The value of modulus n / d and turns tn / td, from integer parts
        that need not be in lowest terms, built without conversion or the
        sign check: for results of this package's exact arithmetic.
        ``n >= 0``, ``d > 0`` and ``td > 0``."""
        return _trusted(cls, parts=_reduced(n, d, tn, td))

    @property
    def rho(self) -> Fraction:
        return Fraction(self.parts[0], self.parts[1])

    @property
    def turns(self) -> Fraction:
        return Fraction(self.parts[2], self.parts[3])

    @classmethod
    def one(cls) -> "PolarComplex":
        return cls(1)

    @classmethod
    def zero(cls) -> "PolarComplex":
        return cls(0)

    @property
    def is_zero(self) -> bool:
        return not self.parts[0]

    def __mul__(self, other: "PolarComplex") -> "PolarComplex":
        if not isinstance(other, PolarComplex):
            return NotImplemented
        n, d, tn, td = self.parts
        m, e, sn, sd = other.parts
        return PolarComplex._from_parts(n * m, d * e, tn * sd + sn * td, td * sd)

    def pow_int(self, k: int) -> "PolarComplex":
        """The k-th power, by ``_pow_parts``."""
        _check_int(k, "exponent must be an integer")
        if not self.parts[0]:
            if k < 1:
                raise DomainError("0 cannot be raised to a nonpositive power")
            return self
        return _trusted(PolarComplex, parts=_pow_parts(self.parts, k))

    def root(self, q: int, branch: int) -> "PolarComplex":
        """The branch-th of the q-th roots; modulus must be a perfect power."""
        _check_int(q, "root degree must be a positive integer, got {}", 1)
        if type(branch) is not int or not 0 <= branch < q:  # message built on failure only
            _check_int(branch, f"branch must be an integer in [0, {_shown(q)}), got {{}}", 0,
                       below=q)
        n, d, tn, td = self.parts
        if not n:
            return self
        return PolarComplex._from_parts(
            _exact_root(n, q), _exact_root(d, q), tn + branch * td, td * q)

    def __repr__(self) -> str:
        return f"PolarComplex(rho={self.rho!r}, turns={self.turns!r})"

    def __str__(self) -> str:
        return f"rho={self.rho} turns={self.turns}"


def _integer_root(n: int, q: int) -> int | None:
    """Integer q-th root of n >= 0, or ``None`` when n is not a perfect power.

    A square root is ``math.isqrt``'s, in time near-linear in the bits.
    For ``q >= 3`` and ``n >= 2`` a root x >= 2 has ``x ** q >= 2 ** q``,
    so there is none unless ``q`` is below ``n.bit_length()``, and then
    bisection under ``x < 2 ** (bit_length // q + 1)`` finds it: no power
    above ``2 ** (bit_length + q)`` is formed.
    """
    if n in (0, 1):
        return n
    if q == 2:
        root = isqrt(n)
        return root if root * root == n else None
    bits = n.bit_length()
    lo, hi = 1, (1 << (bits // q + 1) if q < bits else 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** q < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** q == n else None


def _exact_root(n: int, q: int) -> int:
    """``_integer_root``, raising when n is not a perfect q-th power."""
    root = _integer_root(n, q)
    if root is None:
        raise DomainError(
            f"{_shown(n)} is not a perfect {_shown(q)}-th power; refine only along exact radicals"
        )
    return root


def cover_map(n: int, m: int, z: PolarComplex) -> PolarComplex:
    """Bonding map of the divisibility net: send a level-m coordinate to the
    level-n one by raising to the power m/n (requires n | m)."""
    _check_level(n)
    _check_level(m)
    _check_type(z, PolarComplex, "cover_map: z must be a PolarComplex, got {}")
    if m % n != 0:
        raise DomainError(f"cover map needs n | m, got n={_shown(n)}, m={_shown(m)}")
    return z.pow_int(m // n)


@dataclass(frozen=True)
class SolenoidPoint:
    """Point of a solenoidal object truncated at level M.

    Only the level-M coordinate is stored; the coordinate at a divisor d is
    top**(M/d), so the compatibility relations hold by construction.
    """

    level: int
    top: PolarComplex

    def __post_init__(self):
        _check_level(self.level)
        _check_type(self.top, PolarComplex, "top coordinate must be a PolarComplex, got {}")

    def coordinate(self, d: int) -> PolarComplex:
        _check_level(d)
        if self.level % d != 0:
            raise DomainError(f"{_shown(d)} does not divide the level {_shown(self.level)}")
        return self.top.pow_int(self.level // d)

    def base_coordinate(self) -> PolarComplex:
        """The level-1 coordinate (image in the base circle or plane)."""
        return self.coordinate(1)

    def __mul__(self, other: "SolenoidPoint") -> "SolenoidPoint":
        if not isinstance(other, SolenoidPoint):
            return NotImplemented
        if self.level != other.level:
            raise LevelMismatchError(
                f"cannot multiply points at levels {_shown(self.level)} and {_shown(other.level)}"
            )
        return SolenoidPoint(self.level, self.top * other.top)

    def __str__(self) -> str:
        return f"level={self.level} {self.top}"


def phi(a: ProfiniteInt) -> SolenoidPoint:
    """Inclusion of the profinite integers into the solenoid fiber.

    The image has trivial base coordinate: its level-M turn is a/M, which
    powers to a whole number of turns at level 1.
    """
    _check_type(a, ProfiniteInt, "phi: a must be a ProfiniteInt, got {}")
    return SolenoidPoint(a.level, PolarComplex._from_parts(1, 1, a.residue, a.level))


def nu(theta_turns, level: int = 1) -> SolenoidPoint:
    """Base-leaf parametrization: theta turns of the base circle, realized
    at the working level by dividing the angle."""
    t = _as_fraction(theta_turns)
    _check_level(level)
    return SolenoidPoint(level, PolarComplex._from_parts(1, 1, t.numerator, t.denominator * level))


def sol_exp(a: ProfiniteInt, theta_turns) -> SolenoidPoint:
    """Group exponential: the product phi(a) * nu(theta) at a's level."""
    _check_type(a, ProfiniteInt, "sol_exp: a must be a ProfiniteInt, got {}")
    return phi(a) * nu(theta_turns, a.level)


def refine(z: SolenoidPoint, new_level: int, branch: int) -> SolenoidPoint:
    """Lift a point to a deeper level by choosing a root branch.

    The result projects back to z under the cover map, for every branch.
    """
    _check_type(z, SolenoidPoint, "refine: z must be a SolenoidPoint, got {}")
    _check_level(new_level)
    if new_level % z.level != 0:
        raise DomainError(
            f"refinement level {_shown(new_level)} must be a multiple of {_shown(z.level)}"
        )
    q = new_level // z.level
    return SolenoidPoint(new_level, z.top.root(q, branch))

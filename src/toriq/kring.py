"""Normal forms in the K-ring of the solenoidal projective line.

The ring is generated by classes x^q for rational q, subject to
(x^q - 1)(x^p - 1) = 0 for all rational p, q.  Every element then has a
unique normal form a*1 + r*u with integer a and rational r, where u is the
common class of x^q - 1 scaled so that x^q maps to (1, q).

The closed form (sum of coefficients, exponent-weighted sum) is cheap but
derived, so the module also ships an independent brute-force reduction:
rewrite x^(p+q) -> x^p + x^q - 1 at random split points on a shared term
table, largest exponent magnitude first, so that each exponent is split
once with its merged coefficient, until only the exponents {0, g} of the
common grid survive.  It runs on the integer multiples of g: int heap keys,
one ``getrandbits`` draw per split and no ``Fraction`` until the result.
The two must agree; tests and the acceptance suite gate the closed form on
that agreement.
"""

from __future__ import annotations

import heapq
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .errors import (DomainError, ExpressionError, _as_fraction, _check_int, _check_iterable,
                     _check_type, _shown, _trusted)


@dataclass(frozen=True)
class FormalSum:
    """Finite integer combination of monomials x^q, q rational.

    The constructor takes any iterable of (exponent, coefficient) pairs: an
    exponent is an exact rational, kept as given when it is a ``Fraction``
    and converted otherwise; a coefficient is an ``int``.  Terms merge on
    the exponent's (numerator, denominator), the first ``Fraction`` given
    standing for its key, and are kept in increasing exponent order, sorted
    on the integer numerators over the lcm of the denominators, with the
    terms that cancel to zero dropped.
    """

    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        terms = _check_iterable(self.terms, "terms must be an iterable of (exponent, "
                                "coefficient) pairs, got {}")
        merged: dict[tuple[int, int], list] = {}
        for term in terms:
            try:
                q, c = term
            except (TypeError, ValueError):
                raise DomainError(f"terms: each term must be an (exponent, coefficient) "
                                  f"pair, got {_shown(term)}") from None
            if type(q) is not Fraction:
                q = _as_fraction(q)
            _check_int(c, "coefficients must be integers")
            key = q.numerator, q.denominator
            entry = merged.get(key)
            if entry is None:
                merged[key] = [q, c]
            else:
                entry[1] += c
        den = lcm(*(d for _, d in merged))
        kept = sorted((n * (den // d), q, c) for (n, d), (q, c) in merged.items() if c)
        object.__setattr__(self, "terms", tuple((q, c) for _, q, c in kept))

    @classmethod
    def monomial(cls, q, c: int = 1) -> "FormalSum":
        return cls(((_as_fraction(q), c),))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        return FormalSum(self.terms + other.terms)

    def __mul__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        return FormalSum(
            tuple((q1 + q2, c1 * c2) for q1, c1 in self.terms for q2, c2 in other.terms)
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for q, c in self.terms:
            parts.append(f"{c:+d}*x^({q})" if q else f"{c:+d}")
        return " ".join(parts)


@dataclass(frozen=True)
class KRingElement:
    """Normal form a*1 + r*u; multiplication kills the square of u."""

    rank_part: int
    class_part: Fraction

    def __post_init__(self):
        _check_int(self.rank_part, "rank part must be an integer")
        object.__setattr__(self, "class_part", _as_fraction(self.class_part))

    def __add__(self, other: "KRingElement") -> "KRingElement":
        if not isinstance(other, KRingElement):
            return NotImplemented
        return KRingElement(self.rank_part + other.rank_part,
                            self.class_part + other.class_part)

    def __mul__(self, other: "KRingElement") -> "KRingElement":
        if not isinstance(other, KRingElement):
            return NotImplemented
        return KRingElement(
            self.rank_part * other.rank_part,
            self.rank_part * other.class_part + other.rank_part * self.class_part,
        )

    def __str__(self) -> str:
        return f"rank_part={self.rank_part} class_part={self.class_part}"


def reduce(s: FormalSum) -> KRingElement:
    """Closed-form normal form: (sum of coefficients, weighted exponent sum).

    The weighted sum adds integer numerators over the lcm of the exponents'
    denominators and is normalized once."""
    _check_type(s, FormalSum, "reduce: s must be a FormalSum, got {}")
    a = sum(c for _, c in s.terms)
    den = lcm(*(q.denominator for q, _ in s.terms))
    r = Fraction(sum(c * q.numerator * (den // q.denominator) for q, c in s.terms), den)
    return KRingElement(a, r)


def in_level_image(e: KRingElement, n: int) -> bool:
    """Is the element in the image of the level-n covering, i.e. is the class
    part a multiple of 1/n?"""
    _check_type(e, KRingElement, "in_level_image: e must be a KRingElement, got {}")
    _check_int(n, "level must be a positive integer", 1)
    return (e.class_part * n).denominator == 1


def oracle_reduce(s: FormalSum, seed: int | None = None) -> KRingElement:
    """Brute-force normal form by exhaustive monomial splitting.

    Exponents are put on the common grid g = 1/lcm(denominators), as the
    integers k of x^(k*g), and every monomial outside {0, g} is split by
    x^(a+b) -> x^a + x^b - 1 (applied backwards for exponents below zero),
    with the split point chosen at random, until only 1 and x^g survive.
    Coefficients merge in a shared table.  Every split yields exponents of
    smaller magnitude, so taking the pending exponent of largest magnitude
    first splits each exponent once, with its fully merged coefficient.
    Any splitting order reaches the same pair, which is the point of using
    it as an oracle for the closed form in ``reduce``.

    The loop runs on integers alone: the pending exponents sit in a heap
    of int keys, -(2|k| + 1) for k > 0 and -2|k| for k < 0, so the largest
    magnitude pops first; each split takes one ``getrandbits`` draw; and
    x^0, which is never split, keeps its coefficient in a local.
    """
    if not s.terms:
        return KRingElement(0, Fraction(0))
    den = lcm(*(q.denominator for q, _ in s.terms))
    # the terms are merged, so each grid exponent appears once
    table = {q.numerator * (den // q.denominator): c for q, c in s.terms}
    a0 = table.pop(0, 0)
    heap = [-2 * k - 1 if k > 0 else 2 * k for k in table if k != 1]
    heapq.heapify(heap)
    get, pop, push = table.get, heapq.heappop, heapq.heappush
    draw = random.Random(seed).getrandbits
    while heap:
        key = pop(heap)
        m = -key >> 1
        k = m if key & 1 else -m
        c = table.pop(k, 0)
        if not c:  # split already, or cancelled to zero
            continue
        # a split point in [1, |k| - 1] (1 for k = -1), near the middle
        # past 32; any point reaches the same pair
        bound = m - 1 or 1
        j = 1 + draw(5) % bound if bound < 32 else m // 2 - 3 + draw(3) % 7
        if k > 0:  # x^k = x^(k-j) + x^j - 1
            u, d = k - j, c
            a0 -= c
        else:  # x^k = x^(k+j) - x^j + 1
            u, d = k + j, -c
            a0 += c
        # x^u gains c and x^j gains d; u is 0 only for k = -1
        if u:
            old = get(u)
            if old is None:
                table[u] = c
                if u != 1:
                    push(heap, -2 * u - 1 if u > 0 else 2 * u)
            elif old + c:
                table[u] = old + c
            else:
                del table[u]
        else:
            a0 += c
        old = get(j)
        if old is None:
            table[j] = d
            if j != 1:
                push(heap, -2 * j - 1)
        elif old + d:
            table[j] = old + d
        else:
            del table[j]
    a1 = get(1, 0)
    return KRingElement(a0 + a1, Fraction(a1, den))


_TERM_RE = re.compile(
    r"""\s*(?P<signs>(?:[+-]\s*)*)          # a run of signs, multiplied out
        (?P<term>
            (?:(?P<coeff>\d+)\s*\*?\s*)?    # optional integer coefficient
            (?:
                (?P<var>x)
                (?:\^(?:
                    (?P<plain>\d+)          # unsigned: x^-2 is no term
                    |\(\s*(?P<num>-?\d+)\s*(?:/\s*(?P<den>\d+)\s*)?\)
                ))?
            )?
            \s*(?P<rest>[^+-]*)             # what no term allows, up to a sign
        )""",
    re.VERBOSE,
)


_NOT_PAREN = re.compile(r"[^()]+")
_DEPTH_STEP = {"(": 1, ")": -1}


def _balanced(text: str) -> bool:
    """Do the parentheses of ``text`` balance?  Cancelling the adjacent
    pairs ``()`` keeps the answer, and leaves nothing of well-formed text
    in one pass; what is left, nesting or a stray parenthesis, is read for
    a running depth that never drops below zero and ends at zero, in one
    pass however deep the nesting."""
    rest = _NOT_PAREN.sub("", text).replace("()", "")
    if not rest:
        return True
    depths = list(accumulate(map(_DEPTH_STEP.__getitem__, rest)))
    return min(depths) >= 0 and depths[-1] == 0


def parse_expression(text: str) -> FormalSum:
    """Parse expressions such as ``3*x^(1/2) - x^(2/3) + 1``.

    Grammar: signed terms joined by + or -; a term is an optional integer
    coefficient (with optional ``*``), then optionally ``x`` with an
    optional exponent, written as an integer or as ``(p/q)``.  A run of
    signs before a term multiplies out; signs after the last term are
    ignored.  Terms merge on the exponent's reduced (numerator,
    denominator) as they are read, and the result is built from the merged
    terms as ``FormalSum`` would order them, without merging them again.
    """
    if not _check_type(text, str, "empty expression", ExpressionError).strip():
        raise ExpressionError("empty expression")
    if not _balanced(text):
        raise ExpressionError("unbalanced parentheses")
    merged: dict[tuple[int, int], int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        pos = m.end()
        signs, term, coeff, var, plain, num, den, rest = m.group(
            "signs", "term", "coeff", "var", "plain", "num", "den", "rest")
        term = term.strip()
        if rest:
            raise ExpressionError(f"cannot parse term {term!r}")
        if not term:  # only signs were left
            continue
        # x^(num/den), x^plain, bare x (exponent 1) or a constant (exponent 0)
        try:
            coeff, num, den = map(int, (coeff or "1", plain or num or ("1" if var else "0"),
                                        den or "1"))
        except ValueError:  # a literal past sys.get_int_max_str_digits()
            raise ExpressionError(
                f"term {term[:40]!r}... holds an integer literal past the limit of "
                f"{sys.get_int_max_str_digits()} digits on string-to-integer conversion"
            ) from None
        if den == 0:
            raise ExpressionError(f"zero denominator in term {term!r}")
        g = gcd(num, den)
        key = num // g, den // g
        merged[key] = merged.get(key, 0) + (-coeff if signs.count("-") % 2 else coeff)
    if not merged:
        raise ExpressionError("no terms found")
    grid = lcm(*(d for _, d in merged))
    kept = sorted((n * (grid // d), n, d, c) for (n, d), c in merged.items() if c)
    return _trusted(FormalSum, terms=tuple((Fraction(n, d), c) for _, n, d, c in kept))

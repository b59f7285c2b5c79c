"""K-ring normal forms, the rewriting oracle, levels, and the parser, the
last also against the sign-splitting parser it replaced (``slow_paths.py``);
formal sums merged and ordered on integer keys, and the parenthesis check,
against the ``Fraction``-keyed merge and the depth loop they replaced."""

import random
import sys
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from slow_paths import slow_balanced, slow_formal_sum_terms, slow_parse_expression
from toriq.errors import DomainError, ExpressionError
from toriq.kring import (
    FormalSum,
    KRingElement,
    _balanced,
    in_level_image,
    oracle_reduce,
    parse_expression,
    reduce,
)

exponents = st.fractions(min_value=-5, max_value=5, max_denominator=24)
coefficients = st.integers(-6, 6).filter(lambda c: c != 0)
formal_sums = st.lists(st.tuples(exponents, coefficients), max_size=6).map(FormalSum)


def test_reduce_unit():
    assert reduce(FormalSum.monomial(0)) == KRingElement(1, F(0))


def test_reduce_defining_relation():
    q, p = F(1, 2), F(1, 3)
    s = (FormalSum.monomial(q) + FormalSum.monomial(0, -1)) * (
        FormalSum.monomial(p) + FormalSum.monomial(0, -1)
    )
    assert reduce(s) == KRingElement(0, F(0))


def test_reduce_single_monomial():
    assert reduce(FormalSum.monomial(F(1, 2))) == KRingElement(1, F(1, 2))
    assert oracle_reduce(FormalSum.monomial(F(1, 2)), seed=0) == KRingElement(1, F(1, 2))


def test_multiply_examples():
    assert KRingElement(1, F(1, 2)) * KRingElement(1, F(1, 2)) == KRingElement(1, F(1))
    u = KRingElement(-3, F(7, 5))
    assert u * KRingElement(1, F(0)) == u
    assert KRingElement(0, F(2)) * KRingElement(0, F(9)) == KRingElement(0, F(0))


def test_worked_identity_square_root_class():
    # x^(1/2) * x^(1/2) = x and x is identified with 2*x^(1/2) - 1
    lhs = reduce(FormalSum.monomial(F(1, 2))) * reduce(FormalSum.monomial(F(1, 2)))
    assert lhs == reduce(FormalSum.monomial(1))
    assert lhs == reduce(FormalSum([(F(1, 2), 2), (F(0), -1)]))


def test_level_image_examples():
    assert in_level_image(KRingElement(3, F(5)), 1)
    assert not in_level_image(KRingElement(1, F(1, 2)), 1)
    assert in_level_image(KRingElement(1, F(1, 2)), 2)
    assert all(in_level_image(KRingElement(7, F(0)), n) for n in range(1, 25))
    with pytest.raises(DomainError):
        in_level_image(KRingElement(1, F(0)), 0)


def test_level_image_directed_under_divisibility():
    elements = [KRingElement(a, F(p, q)) for a in (-2, 0, 3) for p in range(-6, 7) for q in (1, 2, 3, 4, 6, 8, 12, 24)]
    for n in range(1, 25):
        for m in range(1, 25):
            if m % n == 0:
                for e in elements:
                    if in_level_image(e, n):
                        assert in_level_image(e, m)


@settings(max_examples=200, deadline=None)
@given(formal_sums, formal_sums)
def test_reduce_is_ring_homomorphism(a, b):
    assert reduce(a + b) == reduce(a) + reduce(b)
    assert reduce(a * b) == reduce(a) * reduce(b)


@settings(max_examples=150, deadline=None)
@given(formal_sums, st.integers(0, 2**20))
def test_oracle_agrees_and_is_confluent(s, seed):
    closed = reduce(s)
    assert oracle_reduce(s, seed=seed) == closed
    assert oracle_reduce(s, seed=seed + 1) == closed


def test_oracle_handles_huge_grid_exponents():
    # lcm of denominators near 5 * 10^9: splitting must stay logarithmic
    s = FormalSum(
        [(F(5, 23), 3), (F(-4, 19), 2), (F(3, 17), -1), (F(5, 16), 1), (F(1, 9), 4), (F(-5, 7), -2)]
    )
    assert oracle_reduce(s, seed=11) == reduce(s)


def test_ring_axioms_random():
    rng = random.Random(4)
    for _ in range(300):
        u, v, w = (
            KRingElement(rng.randint(-9, 9), F(rng.randint(-20, 20), rng.randint(1, 12)))
            for _ in range(3)
        )
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


def test_operators_refuse_foreign_operands():
    s, e = FormalSum.monomial(1), KRingElement(1, 0)
    for x, other in ((s, 1), (FormalSum(()), 3), (s, e), (e, 2), (e, F(1)), (e, s)):
        assert x.__add__(other) is NotImplemented and x.__mul__(other) is NotImplemented
        for op in (lambda: x + other, lambda: other + x, lambda: x * other, lambda: other * x):
            with pytest.raises(TypeError):
                op()


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3*x^(1/2) - x^(2/3) + 1", KRingElement(3, F(5, 6))),
        ("x", KRingElement(1, F(1))),
        ("1", KRingElement(1, F(0))),
        ("-x^2 + 4", KRingElement(3, F(-2))),
        ("x^(-1/2)", KRingElement(1, F(-1, 2))),
        ("2x", KRingElement(2, F(2))),
        ("x - x", KRingElement(0, F(0))),
        ("x^(3)", KRingElement(1, F(3))),
    ],
)
def test_parser(text, expected):
    assert reduce(parse_expression(text)) == expected


@pytest.mark.parametrize("text", ["", "x^^2", "x^(1/0)", "y + 1", "x^(1/2", "*3"])
def test_parser_rejects(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


_ERROR_KINDS = (
    "empty expression",
    "unbalanced parentheses",
    "no terms found",
    "cannot parse term",
    "zero denominator",
    "holds an integer literal past the limit",
)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ExpressionError as exc:
        kinds = [k for k in _ERROR_KINDS if k in str(exc)]
        assert len(kinds) == 1, str(exc)
        return kinds[0]


def _random_text(rng):
    return "".join(rng.choice("x^()/*+-0123456789 \t") for _ in range(rng.randint(0, 14)))


def _near_valid_text(rng):
    """Signed terms built from the grammar, each piece sometimes broken."""
    def literal():
        r = rng.random()
        if r < 0.01 and hasattr(sys, "get_int_max_str_digits"):
            return "7" * (sys.get_int_max_str_digits() + 1)
        return "0" if r < 0.1 else str(rng.randint(1, 60))

    def ws():
        return rng.choice(["", "", " ", "\t", "  "])

    def broken(valid, *faults):
        return valid if rng.random() < 0.9 else rng.choice(faults)

    def term():
        star = broken(rng.choice(["", "*"]), "**", "/")
        coeff = rng.choice(["", literal() + ws() + star + ws()])
        num = rng.choice(["", "-"]) + literal()
        exponent = rng.choice([
            "", "^" + literal(), "^(" + ws() + num + ws() + ")",
            "^(" + num + ws() + "/" + ws() + broken(literal(), "-1", "- 2") + ")",
        ])
        exponent = broken(exponent, "^-" + literal(), "^(" + num + "/" + literal(),
                          "^" + num + "/" + literal() + ")", "^", "^(- 1)")
        var = rng.choice(["x", "x", broken("x", "y", "xx")]) + exponent
        return broken(rng.choice([coeff + var, coeff or "1", var]), coeff + var + "x",
                      coeff + var + ")", coeff + var + "(", coeff + var + "2", "")

    out = ws() + "".join(rng.choice(["", "-", "+", "- -"]) for _ in range(rng.randint(0, 2)))
    for k in range(rng.randint(1, 4)):
        if k:
            out += ws() + rng.choice(["+", "-", "+-", "--", " + - "]) + ws()
        out += term()
    return out + rng.choice(["", "", " ", "+", " - "])


def test_parser_matches_sign_splitting_parser():
    rng = random.Random(20261018)
    texts = [_random_text(rng) for _ in range(6000)] + [_near_valid_text(rng) for _ in range(6000)]
    seen = set()
    for text in texts:
        got = _parse_outcome(parse_expression, text)
        assert got == _parse_outcome(slow_parse_expression, text), repr(text)
        seen.add(got if isinstance(got, str) else "parsed")
    kinds = set(_ERROR_KINDS) if hasattr(sys, "get_int_max_str_digits") else set(_ERROR_KINDS[:-1])
    assert seen == kinds | {"parsed"}


def _rendered_terms(rng):
    """(text, its (exponent, coefficient) pairs): terms written as x, a
    constant, x^k or x^(p/q) with p/q often not in lowest terms, repeats of
    one exponent written differently, and terms that cancel."""
    pairs, pieces = [], []
    for _ in range(rng.randint(1, 7)):
        kind = rng.randrange(4)
        if kind == 0:
            num, den, var = 1, 1, "x"
        elif kind == 1:
            num, den, var = 0, 1, ""
        elif kind == 2:
            num = den = rng.randint(1, 4)
            num *= rng.randint(0, 3)
            var = f"x^({num}/{den})" if rng.random() < 0.5 else f"x^{num // den}"
        else:
            scale = rng.randint(1, 4)
            num, den = rng.randint(-6, 6) * scale, rng.randint(1, 4) * scale
            var = f"x^( {num} / {den} )" if rng.random() < 0.3 else f"x^({num}/{den})"
        coeff = rng.randint(1, 5)
        shown = rng.choice(["", f"{coeff}", f"{coeff}*", f"{coeff} * "]) if var else f"{coeff}"
        if not shown:
            coeff = 1
        sign = rng.choice([1, -1])
        pairs.append((F(num, den), sign * coeff))
        pieces.append((sign, shown + var))
        if rng.random() < 0.3:  # the same term again, cancelling it
            pairs.append((F(num, den), -sign * coeff))
            pieces.append((-sign, shown + var))
    text = "".join(rng.choice(["+", " + ", "--", "- -"] if sign > 0 else ["-", " - ", "+-"]) + piece
                   for sign, piece in pieces)
    return text, pairs


def test_parser_merges_terms_as_formal_sum_does():
    """The parser's in-loop merge and trusted result against
    ``FormalSum`` of the parsed pairs: the same terms in the same
    order, each exponent a ``Fraction`` and each coefficient an ``int``, over
    cancelling terms, repeated exponents and equal fractions written
    differently."""
    for text, pairs in [("x - x", [(F(1), 1), (F(1), -1)]),
                        ("x^(2/4) + x^(1/2)", [(F(1, 2), 1), (F(1, 2), 1)]),
                        ("3x^2 - x^(4/2) + 2 - 2", [(F(2), 3), (F(2), -1), (F(0), 2), (F(0), -2)]),
                        ("x^(-3/6) - -x^(-1/2)", [(F(-1, 2), 1), (F(-1, 2), 1)])]:
        assert parse_expression(text).terms == FormalSum(pairs).terms, text
    rng = random.Random(20261020)
    cancelled = merged = 0
    for _ in range(3000):
        text, pairs = _rendered_terms(rng)
        got = parse_expression(text)
        want = FormalSum(pairs)
        assert got == want == slow_parse_expression(text), text
        assert [(type(q), type(c)) for q, c in got.terms] == [(F, int)] * len(want.terms), text
        exponents = {q for q, _ in pairs}
        merged += len(exponents) < len(pairs)
        cancelled += len(want.terms) < len(exponents)
    assert merged > 2000 and cancelled > 1000, (merged, cancelled)


def test_formal_sum_merges_terms():
    s = FormalSum([(F(1, 2), 3), (F(1, 2), -3), (F(0), 1)])
    assert s.terms == ((F(0), 1),)
    assert str(FormalSum(())) == "0"


def test_formal_sum_keeps_fraction_exponents_and_converts_the_rest():
    half = F(1, 2)
    s = FormalSum([(half, 1), (2, 1), (Decimal("0.25"), 1)])
    assert s.terms == ((F(1, 4), 1), (half, 1), (F(2), 1))
    assert s.terms[1][0] is half and all(type(q) is F for q, _ in s.terms)
    for bad in (0.5, "1/3", True):
        with pytest.raises(DomainError):
            FormalSum([(bad, 1)])


def _exponent(rng):
    """A rational exponent, negative half the time, with a denominator up
    to 10^6, given as an int, a Fraction or a Decimal when it is one."""
    den = rng.choice((1, 2, 3, 12, rng.randint(1, 60), rng.randint(1, 10 ** 6)))
    q = F(rng.randint(-5 * den, 5 * den), den)
    forms = [q]
    if q.denominator == 1:
        forms.append(q.numerator)
    if 10 ** 6 % q.denominator == 0:
        forms.append(Decimal(q.numerator) / Decimal(q.denominator))
    return rng.choice(forms)


def test_formal_sum_matches_fraction_keyed_merge():
    """Terms, their order and their types as the ``Fraction``-keyed merge
    gave them, over equal exponents given as int, Fraction and Decimal,
    coefficients that cancel, and denominators up to 10^6."""
    rng = random.Random(20261019)
    cancelled = mixed = 0
    for _ in range(2000):
        terms = [(_exponent(rng), rng.randint(-9, 9)) for _ in range(rng.randint(0, 8))]
        for q, c in list(terms):
            if rng.random() < 0.3:
                # the same exponent in another form, cancelling half the time
                other = q.numerator if isinstance(q, F) and q.denominator == 1 else F(q)
                terms.insert(rng.randrange(len(terms) + 1), (other, rng.choice((-c, 1))))
        rng.shuffle(terms)
        got = FormalSum(tuple(terms)).terms
        want = slow_formal_sum_terms(terms)
        assert got == want, terms
        assert [(type(q), type(c)) for q, c in got] == [(type(q), type(c)) for q, c in want]
        cancelled += len(want) < len({F(q) for q, _ in terms})
        mixed += len({type(q) for q, _ in terms}) == 3
    assert cancelled > 200 and mixed > 200
    for bad in ([(F(1), 1), (F(1, 2), True)], [(F(1), 1.0)], [(0.5, 1)], [("1/2", 1)]):
        with pytest.raises(DomainError) as fast:
            FormalSum(tuple(bad))
        with pytest.raises(DomainError) as slow:
            slow_formal_sum_terms(bad)
        assert str(fast.value) == str(slow.value)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.text(alphabet="()x^1 ", max_size=30))
def test_paren_check_matches_depth_loop(text):
    assert _balanced(text) is slow_balanced(text)


def test_paren_check_is_linear_in_nesting_depth():
    """Cancelling pairs takes one pass per level of nesting; the depth scan
    of what is left keeps a deeply nested text to one pass."""
    deep = "(" * 200_000 + ")" * 200_000
    for text, want in ((deep, True), (deep + ")", False), ("(" + deep, False)):
        started = time.perf_counter()
        assert _balanced(text) is want
        assert time.perf_counter() - started < 1.0
        assert slow_balanced(text) is want

"""
K-ring of the solenoidal sphere
===============================

Vector bundle classes on the solenoidal projective line form the colimit
of the rings Z[x^(1/n)] / ((x^(1/n) - 1)^2) along divisibility: formal
sums of rational powers of a line-bundle class x, where the product of
any two (x^q - 1) factors vanishes.  Every element collapses to a normal
form: an integer rank plus a rational first-order class.
"""

from fractions import Fraction as F

from toriq.kring import (
    FormalSum,
    in_level_image,
    oracle_reduce,
    parse_expression,
    reduce,
)

# The normal form of a sum of monomials.
s = parse_expression("3*x^(1/2) - x^(2/3) + 1")
print("3*x^(1/2) - x^(2/3) + 1  ->", reduce(s))

# Defining relations vanish: expand (x^q - 1)(x^p - 1).
q, p = F(1, 2), F(1, 3)
rel = (FormalSum.monomial(q) + FormalSum.monomial(0, -1)) * (
    FormalSum.monomial(p) + FormalSum.monomial(0, -1)
)
print("(x^(1/2)-1)(x^(1/3)-1)   ->", reduce(rel))

# Multiplication in normal form: x^(1/2) squares to x, and x is identified
# with 2*x^(1/2) - 1 because the square of (x^(1/2) - 1) vanishes.
half = reduce(FormalSum.monomial(F(1, 2)))
print("x^(1/2) * x^(1/2)        ->", half * half)
print("2*x^(1/2) - 1            ->", reduce(parse_expression("2*x^(1/2) - 1")))

# The closed form is gated on a brute-force splitting oracle: rewrite
# x^(p+q) -> x^p + x^q - 1 in random order until only 1 and x^g remain.
for seed in (0, 1, 2):
    print(f"oracle (seed {seed}):", oracle_reduce(s, seed=seed))

# Level images form a directed system under divisibility: an element lies
# at level n when its class part is a multiple of 1/n.
e = reduce(parse_expression("x^(1/6) + x^(1/2)"))
print("\nelement:", e)
for n in (1, 2, 3, 6, 12):
    print(f"   in level-{n} image: {in_level_image(e, n)}")

# Inverses exist for the monomial classes: x^(-q) reduces like any other
# rational power, and the product lands back at rank 1, class 0.
inv = reduce(parse_expression("x^(-1/2)"))
print("\nx^(-1/2):", inv, "| product with x^(1/2):", half * inv)

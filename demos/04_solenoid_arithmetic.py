"""
Exact solenoid arithmetic
=========================

Points of the universal solenoid and of the solenoidal plane are inverse
sequences of circle or plane points along the divisibility net.  A finite
truncation keeps one exact coordinate at a level M; every coordinate at a
divisor level is recovered by powering.  Angles live in turns (fractions
of a full rotation), so all arithmetic stays in exact rationals.
"""

from fractions import Fraction as F

from toriq.solenoid import (
    PolarComplex,
    ProfiniteInt,
    SolenoidPoint,
    cover_map,
    nu,
    phi,
    refine,
    sol_exp,
)

# Profinite integers at level 12: ordinary modular arithmetic, with
# compatible projections to every divisor.
a = ProfiniteInt(12, 7)
b = ProfiniteInt(12, 9)
print("7 + 9 at level 12:", a + b)
print("projections of 7:", {d: a.project(d) for d in (1, 2, 3, 4, 6, 12)})

# The bonding maps of the net raise coordinates to powers.
z = PolarComplex(F(2), F(1, 3))
print("\ncover map level 6 -> 2 of rho=2 turns=1/3:", cover_map(2, 6, z))

# phi embeds the profinite integers as the fiber over the base identity;
# nu parametrizes the dense base leaf.  One full base turn equals phi(1).
print("\nphi(1 mod 4):", phi(ProfiniteInt(4, 1)))
print("nu(1 turn) at level 4:", nu(1, 4))
print("they agree:", nu(1, 4) == phi(ProfiniteInt(4, 1)))

# The exponential combines both: exp(a, theta) = phi(a) * nu(theta).
print("exp(1 mod 4, 1 turn):", sol_exp(ProfiniteInt(4, 1), 1))

# Refining a truncation means choosing a root branch.  All branches
# project back to the original point.
point = SolenoidPoint(2, PolarComplex(F(1), F(1, 2)))
for branch in range(2):
    lifted = refine(point, 4, branch)
    print(f"branch {branch} lift to level 4:", lifted,
          "| projects back:", cover_map(2, 4, lifted.top) == point.top)

# Moduli refine only along exact radicals; nothing is ever rounded.
exact = refine(SolenoidPoint(1, PolarComplex(F(4, 9), F(0))), 2, 0)
print("\nsquare root of modulus 4/9:", exact)
try:
    refine(SolenoidPoint(1, PolarComplex(F(2), F(0))), 2, 0)
except Exception as exc:
    print("modulus 2 refuses to refine:", exc)

"""Seeded input generators for the benchmark workloads.

Everything here is built from a ``random.Random`` the caller seeds, so the
same seed gives the same inputs.  Nothing calls into toriq: the workloads
hand the generated rays, cones, points and expressions to the library.

Fan families and the property each one varies:

* polygon fans: complete rank-2 fans with many small rays, so the
  discriminant scan over all ray subsets dominates;
* rank-3 blow-ups of cp3: smooth complete fans with many rays;
* weighted planes (1,1,n): one cone of determinant n, so Hilbert-basis
  candidates grow with n;
* Hirzebruch surfaces, cp^m and products of projective spaces: smooth fans
  with large entries or high rank.

Every fan except the polygons passes through a random unimodular change of
coordinates and a random ray order, so that no two ops share a fan and the
library caches see a stream of misses, as a user analysing many fans would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product


@dataclass(frozen=True)
class FanInput:
    """A generated fan: 0-based maximal cones over primitive integer rays."""

    name: str
    family: str
    rank: int
    rays: tuple[tuple[int, ...], ...]
    cones: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------- primes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, bits: int) -> int:
    """A uniformly drawn prime with exactly ``bits`` bits."""
    while True:
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime(n):
            return n


# ---------------------------------------------------------------- fans


def _det2(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def polygon_fan(rng: random.Random, n_rays: int, box: int = 3) -> FanInput:
    """Complete rank-2 fan on ``n_rays`` primitive rays of the box [-box, box]^2.

    Rays are sorted by angle and consecutive rays span the maximal cones;
    draws whose angular gaps reach a half turn are rejected.
    """
    pool = [
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    ]
    while True:
        rays = sorted(rng.sample(pool, n_rays), key=lambda v: math.atan2(v[1], v[0]))
        if all(_det2(rays[i], rays[(i + 1) % n_rays]) > 0 for i in range(n_rays)):
            break
    cones = tuple(tuple(sorted((i, (i + 1) % n_rays))) for i in range(n_rays))
    return FanInput(f"polygon{n_rays}", "polygon", 2, tuple(rays), cones)


def cp3_blowup(rng: random.Random, n_blowups: int) -> FanInput:
    """Smooth complete rank-3 fan: cp3 after ``n_blowups`` random blow-ups.

    Each step blows up a random maximal cone (new ray: the sum of its three
    rays) or a random 2-dimensional cone (the sum of its two rays), which
    keeps the fan smooth and complete.
    """
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = {frozenset(c) for c in combinations(range(4), 3)}
    for _ in range(n_blowups):
        new = len(rays)
        if rng.random() < 0.5:
            star = rng.choice(sorted(map(sorted, cones)))
        else:
            walls = sorted({tuple(sorted(w)) for c in cones for w in combinations(sorted(c), 2)})
            star = list(rng.choice(walls))
        rays.append(tuple(sum(rays[i][k] for i in star) for k in range(3)))
        star = frozenset(star)
        for cone in [c for c in cones if star <= c]:
            cones.remove(cone)
            for i in star:
                cones.add(cone - {i} | {new})
    return FanInput(
        f"cp3_blowup{n_blowups}", "blowup", 3, tuple(rays),
        tuple(sorted(tuple(sorted(c)) for c in cones)),
    )


def weighted_plane(n: int) -> FanInput:
    """Weights (1, 1, n): the cone on the first two rays has determinant n."""
    return FanInput(f"cp11_{n}", "weighted", 2, ((1, 0), (-1, n), (0, -1)),
                    ((0, 1), (1, 2), (0, 2)))


def hirzebruch(n: int) -> FanInput:
    return FanInput(f"hirzebruch_{n}", "hirzebruch", 2, ((1, 0), (-1, n), (0, -1), (0, 1)),
                    ((0, 3), (1, 3), (1, 2), (0, 2)))


def projective_product(dims: tuple[int, ...]) -> FanInput:
    """Product fan cp^{d_1} x ... x cp^{d_k} of rank sum(dims)."""
    rank = sum(dims)
    rays: list[tuple[int, ...]] = []
    blocks = []
    offset = 0
    for m in dims:
        block = []
        for i in range(m + 1):
            v = [0] * rank
            if i < m:
                v[offset + i] = 1
            else:
                for j in range(m):
                    v[offset + j] = -1
            block.append(len(rays))
            rays.append(tuple(v))
        blocks.append(block)
        offset += m
    cones = tuple(
        tuple(sorted(i for block, skip in zip(blocks, choice) for i in block if i != skip))
        for choice in product(*blocks)
    )
    name = "x".join(f"cp{m}" for m in dims)
    return FanInput(name, "projective", rank, tuple(rays), cones)


def unimodular(rng: random.Random, rank: int, steps: int) -> tuple[tuple[int, ...], ...]:
    """Random matrix of determinant ±1: a product of elementary row operations."""
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(steps):
        if rank == 1:
            m[0][0] = -m[0][0]
            continue
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


def disguise(rng: random.Random, fan: FanInput, steps: int = 3) -> FanInput:
    """Same fan up to isomorphism: new coordinates and a new ray order."""
    g = unimodular(rng, fan.rank, steps)
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    rays = tuple(
        tuple(sum(g[r][c] * fan.rays[old][c] for c in range(fan.rank)) for r in range(fan.rank))
        for old in order
    )
    cones = tuple(sorted(tuple(sorted(new_index[i] for i in c)) for c in fan.cones))
    return FanInput(fan.name, fan.family, fan.rank, rays, cones)


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


# ---------------------------------------------------------------- orbits


@dataclass(frozen=True)
class OrbitInput:
    """One homogeneous-model op plus its solenoid and K-ring riders.

    ``coords`` and ``params`` are (rho, turns) pairs.  A positive pair's
    second point is the image of the first under ``params``; a negative
    pair's second point is that image with its first coordinate turned by
    ``nudge``, which the one-parameter torus of cp^m cannot absorb.
    """

    fan_name: str
    level: int
    coords: tuple[tuple[Fraction, Fraction], ...]
    params: tuple[tuple[Fraction, Fraction], ...]
    prime_bits: int
    positive: bool
    nudge: Fraction
    power: int
    sol_level: int
    sol_to: int
    sol_branch: int
    sol_base: tuple[Fraction, Fraction]
    sol_exp: tuple[int, Fraction]
    kring_terms: tuple[tuple[Fraction, int], ...]
    kring_text: str
    oracle_seed: int


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _small_ratio(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_SMALL_PRIMES) ** rng.randint(0, 2),
                    rng.choice(_SMALL_PRIMES) ** rng.randint(0, 1))


def _turns(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(12), 12)


def orbit_input(rng: random.Random, fan_name: str, charge_columns: tuple[tuple[int, ...], ...],
                prime_bits: int, positive: bool) -> OrbitInput:
    """A point pair on a fan with the given charge-matrix columns.

    One torus parameter, on a column whose entries are all -1, 0 or 1, has
    a modulus carrying a prime of ``prime_bits`` bits; the others and the
    point itself carry only small primes.  So every modulus ratio holds at
    most one large prime, to the first power.
    """
    n_rays = len(charge_columns[0])
    unit_cols = [j for j, col in enumerate(charge_columns) if all(abs(x) <= 1 for x in col)]
    big = rng.choice(unit_cols)
    p = random_prime(rng, prime_bits)
    params = []
    for j in range(len(charge_columns)):
        rho = Fraction(p, rng.choice(_SMALL_PRIMES)) if j == big else _small_ratio(rng)
        params.append((rho, _turns(rng)))
    coords = tuple((_small_ratio(rng), _turns(rng)) for _ in range(n_rays))
    sol_level = rng.choice((1, 2, 3, 6))
    q = rng.choice((2, 3, 5))
    base = Fraction(rng.randint(1, 30), rng.randint(1, 30))
    terms, text = kring_sum(rng)
    return OrbitInput(
        fan_name=fan_name,
        level=rng.choice((1, 2, 4, 12)),
        coords=coords,
        params=tuple(params),
        prime_bits=prime_bits,
        positive=positive,
        nudge=Fraction(rng.randrange(1, 12), 12),
        power=rng.randint(2, 5),
        sol_level=sol_level,
        sol_to=sol_level * q,
        sol_branch=rng.randrange(q),
        sol_base=(base ** q, _turns(rng)),
        sol_exp=(rng.randrange(sol_level * 4), Fraction(rng.randrange(8), 8)),
        kring_terms=terms,
        kring_text=text,
        oracle_seed=rng.randrange(1 << 30),
    )


def kring_sum(rng: random.Random, n_terms: int = 5, max_den: int = 12):
    """A K-ring formal sum as (exponent, coefficient) pairs and as text."""
    terms = []
    for _ in range(n_terms):
        den = rng.randint(1, max_den)
        q = Fraction(rng.randint(-3 * den, 3 * den), den)
        c = rng.choice((-1, 1)) * rng.randint(1, 9)
        terms.append((q, c))
    parts = []
    for q, c in terms:
        sign = "-" if c < 0 else "+"
        mono = "1" if q == 0 else f"x^({q.numerator}/{q.denominator})"
        parts.append(f"{sign} {abs(c)}*{mono}" if q else f"{sign} {abs(c)}")
    text = " ".join(parts).lstrip("+ ")
    return tuple(terms), text

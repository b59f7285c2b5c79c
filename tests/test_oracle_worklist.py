"""``kring.oracle_reduce`` splits the largest exponent first, each once, on
integers alone: it must agree with the closed form, with the random-order
rewrite and with the heap-and-``bump`` worklist on ``Fraction`` grid steps
that it replaced (``slow_paths.py``), and its split count is bounded by the
number of exponents its table ever holds."""

import random
import sys
import time
from fractions import Fraction as F
from math import lcm
from types import SimpleNamespace

import slow_paths
import toriq.kring as kring
from slow_paths import slow_oracle_reduce, slow_worklist_oracle_reduce
from toriq.kring import FormalSum, KRingElement, oracle_reduce, reduce

GRID_DENOMINATORS = (1, 2, 3, 4, 6, 8, 9, 12, 24, 35, 77, 360, 2520, 27720)


def _random_sum(rng: random.Random, den: int, n_terms: int) -> FormalSum:
    terms = []
    for _ in range(n_terms):
        q = F(rng.randint(-3 * den, 3 * den), den)
        terms.append((q, rng.choice((-6, -3, -2, -1, 1, 1, 2, 4, 5))))
    return FormalSum(terms)


def _corpus():
    """About 500 (sum, seed) pairs: random sums on grids up to 1/27720 with
    negative exponents, sums whose terms cancel, constants, lone x^g, the
    empty sum, and seed None."""
    rng = random.Random(20240)
    cases = [(FormalSum(()), 0), (FormalSum(()), None)]
    for den in GRID_DENOMINATORS:
        cases.append((FormalSum.monomial(F(1, den)), rng.randrange(10**6)))
        cases.append((FormalSum.monomial(F(1, den), -4), None))
        cases.append((FormalSum.monomial(F(-1, den), 3), rng.randrange(10**6)))
    for c in (-7, -1, 1, 12):
        cases.append((FormalSum.monomial(0, c), rng.randrange(10**6)))
    for _ in range(260):
        den = rng.choice(GRID_DENOMINATORS)
        s = _random_sum(rng, den, rng.randint(1, 12))
        cases.append((s, None if rng.random() < 0.1 else rng.randrange(10**6)))
    for _ in range(100):
        # (x^q - 1)(x^p - 1) times a random sum is zero in the ring
        den = rng.choice(GRID_DENOMINATORS)
        q, p = (F(rng.randint(-2 * den, 2 * den), den) for _ in range(2))
        relation = (FormalSum.monomial(q) + FormalSum.monomial(0, -1)) * (
            FormalSum.monomial(p) + FormalSum.monomial(0, -1)
        )
        other = _random_sum(rng, rng.choice(GRID_DENOMINATORS), rng.randint(1, 3))
        cases.append((relation * other, rng.randrange(10**6)))
        cases.append((relation + other, rng.randrange(10**6)))
    for _ in range(10):  # a sum plus its negation merges to the empty sum
        s = _random_sum(rng, rng.choice(GRID_DENOMINATORS), 5)
        cases.append((s + FormalSum((q, -c) for q, c in s.terms), rng.randrange(10**6)))
    return cases


def test_worklist_oracle_matches_random_order_oracle_and_closed_form():
    cases = _corpus()
    assert len(cases) >= 500
    assert any(s.terms and reduce(s) == KRingElement(0, F(0)) for s, _ in cases)
    assert any(q < 0 for s, _ in cases for q, _ in s.terms)
    for s, seed in cases:
        closed = reduce(s)
        assert oracle_reduce(s, seed=seed) == closed, (str(s), seed)
        assert slow_oracle_reduce(s, seed=seed) == closed, (str(s), seed)
        assert slow_worklist_oracle_reduce(s, seed=seed) == closed, (str(s), seed)


def _orbit_sum(rng: random.Random) -> FormalSum:
    """A sum of the kind the orbits benchmark reduces: 5 terms, each an
    exponent of denominator at most 12 and magnitude at most 3 with a
    coefficient of magnitude 1 to 9, so grids reach 1/27720."""
    terms = []
    for _ in range(5):
        den = rng.randint(1, 12)
        terms.append((F(rng.randint(-3 * den, 3 * den), den),
                      rng.choice((-1, 1)) * rng.randint(1, 9)))
    return FormalSum(terms)


def test_integer_oracle_matches_replaced_oracles_on_orbit_sums():
    rng = random.Random(20261020)
    grids = set()
    for _ in range(3000):
        s = _orbit_sum(rng)
        seed = rng.randrange(1 << 30)
        closed = reduce(s)
        assert oracle_reduce(s, seed=seed) == closed, (str(s), seed)
        assert slow_worklist_oracle_reduce(s, seed=seed) == closed, (str(s), seed)
        assert slow_oracle_reduce(s, seed=seed) == closed, (str(s), seed)
        grids.add(lcm(*(q.denominator for q, _ in s.terms)))
    assert 27720 in grids and 1 in grids


class _CountingRandom(random.Random):
    """Counts draws: the integer oracle takes one ``getrandbits`` per split,
    the random-order rewrite one ``randint`` per split (and more
    ``getrandbits`` inside it and ``choice``)."""

    bits = ints = 0

    def getrandbits(self, k):
        type(self).bits += 1
        return super().getrandbits(k)

    def randint(self, a, b):
        type(self).ints += 1
        return super().randint(a, b)


def _split_work(monkeypatch, module, fn, s, seed) -> tuple[int, int, set]:
    """(getrandbits draws, randint draws, exponents the table ever held)
    for one call: the oracle's ``table`` is read at every line the oracle
    runs, and a line adds or removes at most one exponent, so none comes
    and goes unseen."""
    monkeypatch.setattr(module, "random", SimpleNamespace(Random=_CountingRandom))
    _CountingRandom.bits = _CountingRandom.ints = 0
    held = set()

    def local(frame, event, arg):
        held.update(frame.f_locals.get("table", ()))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is fn.__code__ else None

    sys.settrace(trace)
    try:
        fn(s, seed=seed)
    finally:
        sys.settrace(None)
        monkeypatch.undo()
    return _CountingRandom.bits, _CountingRandom.ints, held


def test_each_exponent_is_split_at_most_once(monkeypatch):
    slow_excess = False
    total = 0
    for s, seed in _corpus():
        splits, ints, held = _split_work(monkeypatch, kring, oracle_reduce, s, seed)
        splittable = held - {0, 1}
        assert ints == 0
        assert splits <= len(splittable), (str(s), seed, splits, splittable)
        # a monomial outside {1, x^g} is there from the start, and is split
        assert (splits > 0) == bool(splittable), (str(s), seed, splits)
        total += splits
        if not slow_excess:
            _, splits, held = _split_work(monkeypatch, slow_paths, slow_oracle_reduce, s, seed)
            slow_excess = splits > len(held - {0, 1})
    assert total > 10_000
    # the bound is one the random-order rewrite does break
    assert slow_excess


def test_three_prime_grid_is_reduced_within_a_second():
    # denominators 997, 991, 983: the common grid is 1/971,230,541
    s = FormalSum([(F(5, 997), 3), (F(-7, 991), 2), (F(11, 983), -1)])
    start = time.perf_counter()
    result = oracle_reduce(s, seed=3)
    elapsed = time.perf_counter() - start
    assert result == reduce(s)
    assert elapsed < 1.0, elapsed

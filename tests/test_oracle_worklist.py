"""``kring.oracle_reduce`` splits the largest exponent first, each once: it
must agree with the random-order rewrite it replaced (``slow_paths.py``)
and with the closed form, and its split count is bounded by the number of
exponents its table ever holds."""

import random
import sys
import time
from fractions import Fraction as F
from types import SimpleNamespace

import slow_paths
import toriq.kring as kring
from slow_paths import slow_oracle_reduce
from toriq.kring import FormalSum, KRingElement, oracle_reduce, reduce

GRID_DENOMINATORS = (1, 2, 3, 4, 6, 8, 9, 12, 24, 35, 77, 360, 2520, 27720)


def _random_sum(rng: random.Random, den: int, n_terms: int) -> FormalSum:
    terms = []
    for _ in range(n_terms):
        q = F(rng.randint(-3 * den, 3 * den), den)
        terms.append((q, rng.choice((-6, -3, -2, -1, 1, 1, 2, 4, 5))))
    return FormalSum.from_terms(terms)


def _corpus():
    """About 500 (sum, seed) pairs: random sums on grids up to 1/27720 with
    negative exponents, sums whose terms cancel, constants, lone x^g, the
    empty sum, and seed None."""
    rng = random.Random(20240)
    cases = [(FormalSum.zero(), 0), (FormalSum.zero(), None)]
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
        cases.append((s + FormalSum.from_terms((q, -c) for q, c in s.terms), rng.randrange(10**6)))
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


class _CountingRandom(random.Random):
    """Counts ``randint`` draws: each split of either oracle draws once."""

    draws = 0

    def randint(self, a, b):
        type(self).draws += 1
        return super().randint(a, b)


def _split_work(monkeypatch, module, fn, s, seed) -> tuple[int, int]:
    """(splits, distinct exponents the table ever held) for one call: the
    table starts with the grid exponents of s, and every exponent entering
    it later passes through the oracle's ``bump``."""
    monkeypatch.setattr(module, "random", SimpleNamespace(Random=_CountingRandom))
    _CountingRandom.draws = 0
    held = set()
    if s.terms:
        g = kring._common_grid(s)
        held = {(q / g).numerator for q, _ in s.terms}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "bump" and code.co_filename == module.__file__:
            held.add(frame.f_locals["k"])

    sys.setprofile(profile)
    try:
        fn(s, seed=seed)
    finally:
        sys.setprofile(None)
        monkeypatch.undo()
    return _CountingRandom.draws, len(held)


def test_each_exponent_is_split_at_most_once(monkeypatch):
    slow_excess = False
    for s, seed in _corpus():
        splits, held = _split_work(monkeypatch, kring, oracle_reduce, s, seed)
        assert splits <= held, (str(s), seed, splits, held)
        if not slow_excess:
            splits, held = _split_work(monkeypatch, slow_paths, slow_oracle_reduce, s, seed)
            slow_excess = splits > held
    # the bound is one the random-order rewrite does break
    assert slow_excess


def test_three_prime_grid_is_reduced_within_a_second():
    # denominators 997, 991, 983: the common grid is 1/971,230,541
    s = FormalSum.from_terms([(F(5, 997), 3), (F(-7, 991), 2), (F(11, 983), -1)])
    start = time.perf_counter()
    result = oracle_reduce(s, seed=3)
    elapsed = time.perf_counter() - start
    assert result == reduce(s)
    assert elapsed < 1.0, elapsed

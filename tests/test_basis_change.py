"""Invariance under a change of lattice basis: every invariant that
``toriq analyze`` and ``toriq delzant`` report depends only on the fan up
to GL(n, Z), yet several fast paths read coordinates (the closed-form
determinants up to 4 x 4, the lex-last ray basis, the Hermite form mod d,
the unimodular mask).  Seeded unimodular maps move rank-3 and rank-4 fans,
and each report must stay the same."""

import random
from itertools import combinations

from test_discriminant_fastpath import product_fan
from toriq.catalog import projective_space
from toriq.cones import affine_fiber_rank
from toriq.fans import build_fan
from toriq.moment import delzant_report
from toriq.quotient import quotient_report

SEED = 20261020


def _moved(rng, fan, steps):
    """The fan's rays under ``steps`` random elementary unimodular column
    operations: add +-1 or +-2 times one coordinate to another, or negate
    one."""
    n = fan.lattice_rank
    rays = [list(v) for v in fan.rays]
    for _ in range(steps):
        i, j, q = rng.randrange(n), rng.randrange(n), rng.choice([-2, -1, 1, 2])
        for v in rays:
            if i == j:
                v[i] = -v[i]
            else:
                v[i] += q * v[j]
    return build_fan(n, rays, fan.maximal_cones, complete=fan.complete)


def _reports(fan):
    return (quotient_report(fan),
            [(cone, affine_fiber_rank(fan, cone)) for cone in fan.cones()],
            delzant_report(fan))


def test_reports_are_invariant_under_basis_change():
    """200 seeded maps of 3-30 elementary steps each, spread over P^4,
    (P^1)^4, P^2 x P^2, P^3 x P^1, P(1,1,1,1,2) and (P^1)^3: the quotient
    report, the fiber rank of every cone and the Delzant report equal the
    unmoved fan's."""
    fans = [
        projective_space(4),
        product_fan((1, 1, 1, 1)),
        product_fan((2, 2)),
        product_fan((3, 1)),
        build_fan(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -2)],
                  combinations(range(5), 4), complete=True),
        product_fan((1, 1, 1)),
    ]
    expected = [_reports(fan) for fan in fans]
    rng = random.Random(SEED)
    largest = 0
    for k in range(200):
        fan, want = fans[k % len(fans)], expected[k % len(fans)]
        moved = _moved(rng, fan, rng.randint(3, 30))
        assert _reports(moved) == want, moved
        largest = max(largest, *(abs(x) for v in moved.rays for x in v))
    assert largest > 500

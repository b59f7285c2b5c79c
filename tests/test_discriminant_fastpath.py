"""The primitive-collection discriminant against the exhaustive 2^n-subset
scan it replaced (``slow_paths.slow_discriminant_locus``), its scaling on
many-ray fans and the named error at the ``fan_symmetry`` enumeration
cap."""

import json
import math
import random
from itertools import combinations, product

import pytest

from slow_paths import slow_discriminant_locus, slow_discriminant_scan, slow_face_lattice
from test_fan_index import _corpus, _cp1_power, _random_fan
from toriq import catalog, quotient
from toriq.cli import main
from toriq.errors import DomainError, ResourceLimitError
from toriq.fans import build_fan, fan_to_dict
from toriq.moment import delzant_report, face_lattice
from toriq.quotient import discriminant_locus, fan_symmetry

SEED = 20261019


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def polygon_fan(rng, n_rays, box=3):
    """Complete rank-2 fan on ``n_rays`` primitive rays of [-box, box]^2,
    consecutive by angle; draws with a gap of a half turn are rejected."""
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
    cones = [sorted((i, (i + 1) % n_rays)) for i in range(n_rays)]
    return build_fan(2, rays, cones, complete=True, name=f"polygon{n_rays}")


def cp3_blowup(rng, n_blowups):
    """cp3 after ``n_blowups`` star subdivisions of a random maximal or
    2-dimensional cone: smooth and complete, 4 + n_blowups rays."""
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
    return build_fan(3, rays, [sorted(c) for c in cones], complete=True)


def product_fan(dims):
    """cp^{d_1} x ... x cp^{d_k}."""
    rank = sum(dims)
    rays, blocks, offset = [], [], 0
    for m in dims:
        blocks.append(range(len(rays), len(rays) + m + 1))
        for i in range(m + 1):
            v = [0] * rank
            for j in range(m):
                v[offset + j] = int(i == j) if i < m else -1
            rays.append(tuple(v))
        offset += m
    cones = [
        [i for block, skip in zip(blocks, choice) for i in block if i != skip]
        for choice in product(*blocks)
    ]
    return build_fan(rank, rays, cones, complete=True)


def subfan(rng, fan, picks):
    """An incomplete fan: a random antichain of up to ``picks`` nonempty
    cones of ``fan`` (mixed dimensions), on the rays they use."""
    chosen = []
    for cone in rng.sample(fan.cones()[1:], len(fan.cones()) - 1):
        if len(chosen) == picks:
            break
        if all(not set(cone) <= set(c) and not set(c) <= set(cone) for c in chosen):
            chosen.append(cone)
    used = sorted({i for c in chosen for i in c})
    index = {old: new for new, old in enumerate(used)}
    return build_fan(
        fan.lattice_rank,
        [fan.rays[i] for i in used],
        [[index[i] for i in c] for c in chosen],
    )


OPPOSITE_QUADRANTS = build_fan(
    2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [[0, 2], [1, 3]], name="opposite-quadrants"
)


def _fixed_fans():
    fans = list(catalog.shipped_fans().values())
    fans += [catalog.projective_space(m) for m in range(1, 5)]
    fans += [product_fan(d) for d in [(1, 1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 2), (3, 2)]]
    fans += [
        OPPOSITE_QUADRANTS,
        build_fan(1, [(1,), (-1,)], [[0], [1]], complete=True),
        build_fan(1, [(1,)], [[0]]),
        build_fan(1, [(1,), (-1,)], [[0], [1]]),
        build_fan(2, [(1, 0)], [[0]]),
        build_fan(2, [(1, 0), (1, 2)], [[0, 1]]),
        build_fan(3, [(1, 0, 0), (0, 1, 0), (1, 1, 3)], [[0, 1, 2]]),
        build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [[0, 1], [2], [3]]),
    ]
    return fans


def _random_fans(rng):
    fans = []
    for n in range(3, 13):
        fans += [polygon_fan(rng, n) for _ in range(12)]
    for steps in range(7):
        fans += [cp3_blowup(rng, steps) for _ in range(10)]
    sources = fans + [product_fan(d) for d in [(1, 1, 1), (2, 2), (3, 1)]]
    for _ in range(120):
        fans.append(subfan(rng, rng.choice(sources), rng.randint(1, 6)))
    return fans


def test_discriminant_matches_exhaustive_scan():
    rng = random.Random(SEED)
    fans = _fixed_fans() + _random_fans(rng)
    assert len(fans) >= 300
    assert max(f.n_rays for f in fans) <= 12
    assert any(f.lattice_rank == 1 and not f.complete for f in fans)
    assert any(len(f.maximal_cones) == 1 for f in fans)
    assert any(len({len(c) for c in f.maximal_cones}) > 1 for f in fans)
    for fan in fans:
        assert discriminant_locus(fan).minimal_subsets == slow_discriminant_locus(fan), fan


def test_discriminant_of_a_40_ray_polygon():
    pool = sorted(
        (
            (x, y)
            for x in range(-4, 5)
            for y in range(-4, 5)
            if (x, y) != (0, 0) and math.gcd(x, y) == 1
        ),
        key=lambda v: math.atan2(v[1], v[0]),
    )
    rays = [v for i, v in enumerate(pool) if i % 6]
    n = len(rays)
    assert n == 40
    fan = build_fan(2, rays, [sorted((i, (i + 1) % n)) for i in range(n)], complete=True)
    adjacent = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    expected = tuple(p for p in combinations(range(n), 2) if p not in adjacent)
    assert len(expected) == n * (n - 3) // 2 == 740
    assert discriminant_locus(fan).minimal_subsets == expected
    assert discriminant_locus(catalog.projective_plane()).minimal_subsets == ((0, 1, 2),)


def test_symmetry_cap_raises_named_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(quotient, "_ENUMERATION_CAP", 1)
    fan_symmetry.cache_clear()
    try:
        with pytest.raises(ResourceLimitError) as info:
            fan_symmetry(OPPOSITE_QUADRANTS)
        assert isinstance(info.value, DomainError)
        message = str(info.value)
        for part in ("fan_symmetry", "4 candidate", "4 rays", "[2, 2]", "cap of 1"):
            assert part in message
        path = tmp_path / "quadrants.json"
        path.write_text(json.dumps(fan_to_dict(OPPOSITE_QUADRANTS)))
        assert main(["analyze", str(path)]) == 1
        assert "fan_symmetry" in capsys.readouterr().err
    finally:
        fan_symmetry.cache_clear()


def _order_corpus():
    """The fan-index corpus, 200 random fans and 600 fans like the
    wide-fans benchmark's (11-, 12- and 14-ray polygons and seven-step cp3
    blow-ups)."""
    rng = random.Random(SEED)
    fans = _corpus() + [_random_fan(rng) for _ in range(200)]
    for _ in range(150):
        fans += [polygon_fan(rng, n) for n in (11, 12, 14)] + [cp3_blowup(rng, 7)]
    return fans


def _report_from(lattice) -> dict:
    """The ``toriq delzant`` report of a face lattice: every face dimension
    and fiber rank read off its cone's size, not its block."""
    n = lattice.lattice_rank
    cones = [cone for block in lattice.faces for cone in block]
    return {
        "f_vector": [len(block) for block in lattice.faces],
        "cusps": sum(1 for cone in cones if len(cone) == n),
        "faces": [{"cone": [i + 1 for i in cone], "dim": n - len(cone),
                   "fiber_rank": n - len(cone)} for cone in cones],
    }


def test_face_lattice_and_discriminant_keep_face_list_order():
    """``face_lattice`` slices the face list by face dimension and
    ``discriminant_locus`` keeps its scan order, with no sort: both equal
    the sorted outputs, on ``_order_corpus``.  ``delzant_report``, whose
    bytes no golden pins above rank 2, equals the report of the sorted
    lattice."""
    fans = _order_corpus()
    complete = [fan for fan in fans if fan.complete]
    assert len(fans) == 882 and len(complete) >= 600
    assert {fan.lattice_rank for fan in complete} == {1, 2, 3, 4, 5}
    face_lattice.cache_clear()
    for fan in complete:
        slow = slow_face_lattice(fan)
        assert face_lattice(fan) == slow, fan
        assert delzant_report(fan) == _report_from(slow), fan
    discriminant_locus.cache_clear()
    for fan in fans:
        minimal = discriminant_locus(fan).minimal_subsets
        assert minimal == tuple(sorted(minimal, key=lambda t: (len(t), t))), fan


def test_mask_scan_matches_hash_lookup_scan():
    """The ray-mask scan against the hash-lookup scan it replaced, member
    for member and in order: on ``_order_corpus``, on (cp^1)^6, P^5 and
    cp^2 x cp^3 (primitive collections of 2, 6 and 3 + 4 rays), and on a
    200-ray cp3 blow-up, where the 2^n-subset oracle cannot run."""
    fans = _order_corpus() + [_cp1_power(6), catalog.projective_space(5), product_fan((2, 3))]
    fans.append(cp3_blowup(random.Random(0), 196))
    assert len(fans) == 886 and fans[-1].n_rays == 200
    sizes = set()
    discriminant_locus.cache_clear()
    for fan in fans:
        minimal = discriminant_locus(fan).minimal_subsets
        assert minimal == slow_discriminant_scan(fan), fan
        sizes.update(map(len, minimal))
    assert sizes == {2, 3, 4, 5, 6}
    assert len(discriminant_locus(fans[-1]).minimal_subsets) == 19_403

"""``Fan.ray_lattice`` by ``intlinalg.spanning_lattice`` against the
augmented Hermite pass it replaced, ``slow_paths.hermite_and_left_kernel``
of the ray matrix: the same H and K, bit for bit, on the lattice corpus, on fans
shaped like the wide-fans benchmark's, on 50-, 100- and 200-ray cp3
blow-ups and on disguised fans with large determinants and entries.  Each
corpus asserts how many fans take the d = 1 path (K read off the lex-last
basis B) and how many the mod-d relation scan (d = |det B| > 1).  The same
reference checks ``_basis_kernel`` at every rank through all three of its
callers, on seeded matrices and on every cone of the shipped fans and its
dual."""

import random

import pytest

from oracles import matmul
from slow_paths import hermite_and_left_kernel
from test_discriminant_fastpath import cp3_blowup, polygon_fan
from test_fan_index import SEED
from test_lattice_pass import _lattice_corpus, _non_spanning_fan
from toriq import catalog, intlinalg
from toriq.cones import _kernel_columns, dual_cone, fan_cone
from toriq.errors import TorusFactorError
from toriq.fans import build_fan
from toriq.intlinalg import (
    IntMatrix,
    _basis_kernel,
    _lex_last_basis,
    integer_kernel,
    primitive,
    spanning_lattice,
)
from toriq.quotient import charge_matrix, group_structure


def _unimodular(rng, rank, bits):
    """A random unimodular matrix: 2 * rank row additions with multipliers
    of up to ``bits`` bits, then a row shuffle."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(2 * rank):
        i, j = rng.sample(range(rank), 2)
        q = rng.randint(-(2**bits), 2**bits)
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def _disguise(rng, fan, bits=2):
    """The fan in coordinates changed by ``_unimodular``, rays shuffled."""
    u = _unimodular(rng, fan.lattice_rank, bits)
    order = rng.sample(range(fan.n_rays), fan.n_rays)
    where = {old: new for new, old in enumerate(order)}
    rays = [tuple(sum(x * row[j] for x, row in zip(fan.rays[i], u)) for j in range(len(u)))
            for i in order]
    return build_fan(fan.lattice_rank, rays, [[where[i] for i in c] for c in fan.maximal_cones],
                     fan.complete)


def _designed_fan(rng):
    """Rank 2-5 rays whose last rows form a basis of determinant d, up to
    10^6, after up to six random rays, in coordinates with entries up to
    about 2^70; every ray is its own maximal cone.  A third of them shuffle
    the rays, so that the lex-last basis is another one."""
    while True:
        rank = rng.randint(2, 5)
        d = rng.choice([1, 2, 6, 97, 1024, 65_536, 999_983, 10**6])
        basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank - 1)]
        basis.append((1, *(rng.randint(-9, 9) for _ in range(rank - 2)), d))
        extra = [tuple(rng.randint(-5, 5) for _ in range(rank)) for _ in range(rng.randint(0, 6))]
        rays = [primitive(v) for v in extra if any(v)] + basis
        u = _unimodular(rng, rank, rng.choice([1, 6, 14]))
        rays = [tuple(sum(x * row[j] for x, row in zip(v, u)) for j in range(rank)) for v in rays]
        if rng.random() < 1 / 3:
            rng.shuffle(rays)
        if len(set(rays)) == len(rays):
            return build_fan(rank, rays, [[i] for i in range(len(rays))])


def _check(fans, monkeypatch):
    """Compare every fan with the oracle; return (d = 1 fans, d > 1 fans,
    fans whose rays do not span)."""
    scans = []
    scan = intlinalg._relations_mod
    monkeypatch.setattr(intlinalg, "_relations_mod", lambda v, d: scans.append(d) or scan(v, d))
    paths = [0, 0, 0]
    for fan in fans:
        expected = hermite_and_left_kernel(fan.ray_matrix())
        before = len(scans)
        if expected[0].rows < fan.lattice_rank:
            assert spanning_lattice(fan.rays, fan.lattice_rank) is None, fan
            with pytest.raises(TorusFactorError):
                fan.ray_lattice()
            assert len(scans) == before, fan
            paths[2] += 1
            continue
        assert fan.ray_lattice() == expected, fan
        assert fan.ray_lattice() is fan.ray_lattice()
        d = abs(_lex_last_basis(fan.rays, fan.lattice_rank)[1])
        assert scans[before:] == ([d] if d > 1 else []), fan
        paths[d > 1] += 1
    return tuple(paths)


def test_spanning_lattice_matches_augmented_pass_on_the_lattice_corpus(monkeypatch):
    assert _check(_lattice_corpus(), monkeypatch) == (54, 70, 10)


def test_spanning_lattice_matches_augmented_pass_on_wide_fans_shapes(monkeypatch):
    """600 fans like the wide-fans benchmark's: 11-, 12- and 14-ray polygons
    and disguised seven-step cp3 blow-ups."""
    rng = random.Random(SEED)
    fans = []
    for _ in range(150):
        fans += [polygon_fan(rng, n) for n in (11, 12, 14)] + [_disguise(rng, cp3_blowup(rng, 7))]
    assert _check(fans, monkeypatch) == (375, 225, 0)


def test_spanning_lattice_matches_augmented_pass_on_big_blowups(monkeypatch):
    fans = [cp3_blowup(random.Random(0), n - 4) for n in (50, 100, 200)]
    assert _check(fans, monkeypatch) == (0, 3, 0)
    assert [abs(_lex_last_basis(f.rays, 3)[1]) for f in fans] == [82, 314, 113]
    for fan in fans:
        assert fan.ray_lattice()[0].entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_spanning_lattice_matches_augmented_pass_with_large_entries(monkeypatch):
    rng = random.Random(SEED)
    fans = [_designed_fan(rng) for _ in range(300)]
    assert {f.lattice_rank for f in fans} == {2, 3, 4, 5}
    assert 2**69 < max(abs(x) for f in fans for v in f.rays for x in v) < 2**73
    dets = {abs(_lex_last_basis(f.rays, f.lattice_rank)[1]) for f in fans}
    assert {2, 97, 65_536, 999_983, 10**6} <= dets
    assert _check(fans, monkeypatch) == (43, 257, 0)
    assert sum(bool(group_structure(f).torsion_factors) for f in fans) == 59


def test_torus_factor_is_raised_before_any_kernel_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel work on a fan whose rays do not span")

    for name in ("_relations_mod", "_hermite", "_basis_kernel"):
        monkeypatch.setattr(intlinalg, name, refuse)
    fans = [_non_spanning_fan(), build_fan(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], [[0], [1], [2]])]
    for fan in fans:
        for f in (charge_matrix, group_structure):
            with pytest.raises(TorusFactorError, match="rays do not span the lattice"):
                f(fan)
        assert fan._lattice is None


def _generator_matrices(rng, count):
    """``count`` seeded k x n matrices, 1 <= n <= 5 and 0 <= k <= 15, with
    entries up to 1, 3, 100 or 10^6: every third a product through a
    smaller inner dimension (rank-deficient), and some with plus/minus
    pairs of rows, a sum of two rows appended or a row zeroed."""
    out = []
    for index in range(count):
        n, k = rng.randint(1, 5), rng.randint(0, 15)
        bound = rng.choice([1, 3, 100, 10**6])
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
        if index % 3 == 0:
            inner = rng.randint(0, n - 1)
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(k)]
            right = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(inner)]
            rows = [list(r) for r in matmul(left, right, n)]
        if rows and index % 4 == 1:
            rows += [[-x for x in r] for r in rng.sample(rows, rng.randint(1, len(rows)))]
        if len(rows) > 1 and index % 5 == 2:
            i, j = rng.sample(range(len(rows)), 2)
            rows.append([x + y for x, y in zip(rows[i], rows[j])])
        if rows and index % 7 == 3:
            rows[rng.randrange(len(rows))] = [0] * n
        rng.shuffle(rows)
        out.append(IntMatrix.from_rows(rows, n))
    return out


def _shipped_cone_matrices():
    """The generators of every cone of the shipped fans and of its dual."""
    out = []
    for fan in catalog.shipped_fans().values():
        for indices in fan.cones():
            cone = fan_cone(fan, indices)
            for c in (cone, dual_cone(cone)):
                out.append(IntMatrix(c.generators, c.ambient_rank))
    return out


def test_basis_kernel_matches_augmented_pass_on_seeded_matrices():
    """``_basis_kernel`` of the lex-last basis against the augmented Hermite
    pass it replaced, bit for bit, as the left kernel of the rows, as
    ``spanning_lattice``, as the cone kernel ``_kernel_columns`` and as
    ``integer_kernel``.  The corpus has rank-deficient matrices, zero rows,
    no rows and no columns (the identity kernel), plus/minus pairs,
    entries of 10^6, and both the d = 1 and the d > 1 path."""
    rng = random.Random(SEED)
    shipped = _shipped_cone_matrices()
    assert len(shipped) == 2 * 67
    inputs = _generator_matrices(rng, 3000) + shipped
    inputs += [IntMatrix((), n) for n in range(6)] + [IntMatrix(((),) * k, 0) for k in range(1, 6)]
    assert sum(a.rank() < min(a.rows, a.cols) for a in inputs) >= 1000
    assert sum(any(not any(row) for row in a.entries) for a in inputs) >= 1000
    assert sum(not a.rows for a in inputs) >= 200
    assert sum(any(tuple(-x for x in row) in a.entries for row in a.entries if any(row))
               for a in inputs) >= 1000
    assert max(abs(x) for a in inputs for row in a.entries for x in row) >= 10**6
    paths = [0, 0]
    for a in inputs:
        h, k = hermite_and_left_kernel(a)
        basis, p, reduced = _lex_last_basis(a.entries, a.cols)
        paths[abs(p) > 1] += 1
        assert _basis_kernel(a.rows, basis, p, reduced) == list(k.entries), a
        assert spanning_lattice(a.entries, a.cols) == ((h, k) if h.rows == a.cols else None), a
        columns = hermite_and_left_kernel(a.transpose())[1]
        assert _kernel_columns(list(a.entries), a.cols) == list(columns.entries), a
        if not a.is_empty:
            assert integer_kernel(a) == columns.transpose(), a
    assert min(paths) >= 1000

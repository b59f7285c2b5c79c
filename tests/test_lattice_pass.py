"""The lattice routes against the Smith-form routes they replaced
(``slow_paths.py``): integer kernels of random matrices, charge
matrices, torsion factors and the torus-factor error on a wide fan corpus;
plus counts of the lattice work that ``quotient_report``, ``load_fan``
and ``delzant_report`` do."""

import json
import random
from itertools import chain
from types import SimpleNamespace

import pytest

from oracles import matmul
from slow_paths import (
    hermite_and_left_kernel,
    slow_charge_matrix,
    slow_clear_column,
    slow_group_structure,
    slow_hermite,
    slow_hermite_and_left_kernel,
    slow_integer_kernel,
    slow_row_hermite_form,
)
from test_discriminant_fastpath import cp3_blowup, polygon_fan, product_fan
from test_fan_index import SEED, _cp1_power, _random_fan
from toriq import catalog, fans, intlinalg, quotient
from toriq.errors import TorusFactorError
from toriq.fans import build_fan, fan_to_dict, load_fan
from toriq.intlinalg import (
    IntMatrix,
    _augmented,
    _clear_column,
    _hermite,
    _lex_last_basis,
    integer_kernel,
)
from toriq.moment import delzant_report, face_lattice
from toriq.quotient import charge_matrix, group_structure, quotient_report

QUOTIENT_CACHES = (
    quotient.charge_matrix,
    quotient.group_structure,
    quotient.discriminant_locus,
    quotient.fan_symmetry,
    quotient.aut_presentation,
)


def _random_matrix(rng, index):
    """An m x n matrix, 1 <= m <= 6 and 1 <= n <= 9, with entries up to
    2^70 in size; some are products through a smaller inner dimension
    (rank-deficient), and some have a zeroed row or column."""
    m, n = rng.randint(1, 6), rng.randint(1, 9)
    bound = rng.choice([1, 3, 100, 2**20, 2**70])
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    if index % 3 == 0:
        k = rng.randint(0, min(m, n) - 1)
        left = IntMatrix.from_rows([r[:k] for r in rows], k)
        right = IntMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)], n
        )
        rows = [list(r) for r in matmul(left.entries, right.entries, n)]
    if index % 4 == 0:
        rows[rng.randrange(m)] = [0] * n
    if index % 5 == 0:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return IntMatrix.from_rows(rows, n)


def test_integer_kernel_matches_smith_route_on_random_matrices():
    rng = random.Random(SEED)
    inputs = [_random_matrix(rng, i) for i in range(600)]
    assert sum(a.rank() < min(a.rows, a.cols) for a in inputs) >= 200
    assert max(abs(x) for a in inputs for row in a.entries for x in row) > 2**69
    for a in inputs:
        assert integer_kernel(a) == slow_integer_kernel(a), a
        h, k = hermite_and_left_kernel(a)
        assert h == slow_row_hermite_form(a), a
        assert k.transpose() == slow_integer_kernel(a.transpose()), a


def test_hermite_and_left_kernel_on_empty_shapes():
    """The reference pass and the lex-last kernel: the identity for three
    rows of no columns, nothing for no rows."""
    h, k = hermite_and_left_kernel(IntMatrix(((),) * 3, 0))
    assert (h.rows, h.cols) == (0, 0)
    assert (k.entries, k.cols) == (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    assert intlinalg._basis_kernel(3, *_lex_last_basis(((),) * 3, 0)) == list(k.entries)
    h, k = hermite_and_left_kernel(IntMatrix((), 4))
    assert (h.rows, h.cols, k.rows, k.cols) == (0, 4, 0, 0)
    assert intlinalg._basis_kernel(0, *_lex_last_basis((), 4)) == []


def _lattice_corpus():
    rng = random.Random(SEED)
    out = list(catalog.shipped_fans().values())
    out += [catalog.projective_space(m) for m in range(1, 6)]
    out += [_cp1_power(k) for k in range(1, 6)]
    out += [product_fan(d) for d in ((1, 2), (2, 2), (1, 1, 2), (1, 3))]
    out += [catalog.weighted_plane(n) for n in (1, 2, 4, 7, 50, 700, 2600)]
    out += [catalog.hirzebruch(n) for n in (1, 3, 10)]
    out += [polygon_fan(rng, n) for n in chain(range(3, 15), range(3, 15))]
    out += [cp3_blowup(rng, n) for n in range(0, 12)]
    out += [_random_fan(rng) for _ in range(60)]
    # torus factors: every ray in the first rank - 1 coordinates
    out += [build_fan(rank, [tuple(int(i == j) for j in range(rank)) for i in range(rank - 1)],
                      [list(range(rank - 1))]) for rank in range(2, 6)]
    out.append(_non_spanning_fan())
    return out


def test_one_pass_matches_carried_transform_oracles():
    """One Hermite pass over ``[a | I]`` against the routines that carried a
    separate transform T and took a second pass for the kernel: the same H
    and K, bit for bit, on the random matrices, the ray matrices of the fan
    corpus and rank x 0 and 0 x n shapes.  The gcd step on ``[a | I]`` leaves
    A and T side by side, and ``_hermite`` on a alone leaves the same form."""
    rng = random.Random(SEED)
    inputs = [_random_matrix(rng, i) for i in range(600)]
    inputs += [fan.ray_matrix() for fan in _lattice_corpus()]
    inputs += [IntMatrix(((),) * k, 0) for k in range(6)] + [IntMatrix((), n) for n in range(4)]
    steps = 0
    for a in inputs:
        assert hermite_and_left_kernel(a) == slow_hermite_and_left_kernel(a), a
        rows, expected = [list(r) for r in a.entries], [list(r) for r in a.entries]
        _hermite(rows)
        slow_hermite(expected, [[] for _ in expected])
        assert rows == expected, a
        c = next((j for j in range(a.cols) if a.rows and a.entries[0][j]), None)
        if c is None:
            continue
        aug = _augmented(a.entries)
        A = [list(r) for r in a.entries]
        T = [[int(i == j) for j in range(a.rows)] for i in range(a.rows)]
        while True:
            least = _clear_column(aug, 0, c)
            assert least == slow_clear_column(A, T, 0, c), a
            assert aug == [x + y for x, y in zip(A, T)], a
            steps += 1
            if least is None:
                break
    assert steps >= 3000


def _non_spanning_fan():
    return build_fan(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)], [[0, 1], [1, 2], [0, 2]])


def _lattice_data(charge, group, fan):
    try:
        return charge(fan).matrix, group(fan)
    except TorusFactorError as exc:
        return str(exc)


def test_charge_matrix_and_group_match_smith_routes():
    corpus = _lattice_corpus()
    for f in QUOTIENT_CACHES:
        f.cache_clear()
    results = [_lattice_data(charge_matrix, group_structure, fan) for fan in corpus]
    expected = [_lattice_data(slow_charge_matrix, slow_group_structure, fan) for fan in corpus]
    for fan, got, want in zip(corpus, results, expected):
        assert got == want, fan
    assert sum(isinstance(r, str) for r in results) >= 10
    assert any(not isinstance(r, str) and r[1].has_torsion for r in results)


def test_non_spanning_fan_raises_the_same_message_from_both_functions():
    fan = _non_spanning_fan()
    with pytest.raises(TorusFactorError) as slow:
        slow_charge_matrix(fan)
    for f in (charge_matrix, group_structure, slow_group_structure):
        with pytest.raises(TorusFactorError) as exc:
            f(fan)
        assert str(exc.value) == str(slow.value)
    assert "rays do not span the lattice" in str(slow.value)


def _count_passes(monkeypatch):
    """Record the lattice work wherever the library does it: each
    ``spanning_lattice`` (one per fan), each kernel read off a lex-last
    basis (``_basis_kernel``, as rows and basis size), each mod-d relation
    scan and the shape of every Smith-form input."""
    seen = SimpleNamespace(lattices=[], kernels=[], scans=[], smith_shapes=[])

    def recorded(log, f, shape):
        return lambda *args: log.append(shape(*args)) or f(*args)

    monkeypatch.setattr(fans, "spanning_lattice", recorded(
        seen.lattices, fans.spanning_lattice, lambda rows, cols: (len(rows), cols)))
    monkeypatch.setattr(intlinalg, "_basis_kernel", recorded(
        seen.kernels, intlinalg._basis_kernel, lambda n, basis, p, a: (n, len(basis))))
    monkeypatch.setattr(intlinalg, "_relations_mod", recorded(
        seen.scans, intlinalg._relations_mod, lambda vectors, d: (len(vectors), d)))
    for module in (intlinalg, quotient):
        monkeypatch.setattr(module, "smith_normal_form", recorded(
            seen.smith_shapes, module.smith_normal_form, lambda a: (a.rows, a.cols)))
    for f in QUOTIENT_CACHES:
        f.cache_clear()
    return seen


# a complete fan whose rays span an index-2 sublattice: torsion Z/2, d = 2
TORSION_FAN = build_fan(2, [(1, 0), (1, 2), (-1, 0), (-1, -2)],
                        [[0, 1], [1, 2], [2, 3], [0, 3]], complete=True)


@pytest.mark.parametrize("make", [
    lambda: catalog.projective_space(3),
    lambda: catalog.weighted_plane(7),
    lambda: cp3_blowup(random.Random(SEED), 6),
    lambda: cp3_blowup(random.Random(0), 46),
    lambda: TORSION_FAN,
])
def test_quotient_report_takes_one_lattice_pass(monkeypatch, make):
    """One ``spanning_lattice`` per fan and one kernel, its own.  With d = 1
    (the first three fans) there is no relation scan; with d > 1 there is
    one.  Rays that span, as in every smooth complete fan, take no Smith
    form; only the torsion fan takes one, of the square H."""
    fan = make()
    r = fan.lattice_rank
    seen = _count_passes(monkeypatch)
    quotient_report(fan)
    smooth = fan._unimodular == (1 << len(fan.maximal_cones)) - 1
    torsion = group_structure(fan).has_torsion
    assert seen.lattices == seen.kernels == [(fan.n_rays, r)]
    d = abs(_lex_last_basis(fan.rays, r)[1])
    assert seen.scans == ([(fan.n_rays - r, d)] if d > 1 else [])
    assert (d > 1) == (fan.n_rays == 50 or fan is TORSION_FAN)
    assert seen.smith_shapes == ([(r, r)] if torsion else [])
    assert torsion == (fan is TORSION_FAN) and not (smooth and torsion)
    quotient_report(fan)
    for f in QUOTIENT_CACHES:
        f.cache_clear()
    quotient_report(fan)
    assert len(seen.lattices) == len(seen.kernels) == 1


def test_loading_a_fan_for_delzant_takes_no_lattice_pass(monkeypatch, tmp_path):
    fan = cp3_blowup(random.Random(SEED), 4)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan_to_dict(fan)))
    seen = _count_passes(monkeypatch)
    for loaded in (build_fan(3, fan.rays, fan.maximal_cones, complete=True), load_fan(path)):
        face_lattice.cache_clear()
        delzant_report(loaded)
        assert loaded._lattice is None
    assert seen.lattices == seen.kernels == seen.scans == []

"""Charge matrices, quotient groups, discriminants, fan symmetry."""

import random

import pytest

from oracles import leibniz_det, matmul, powerset
from test_intlinalg import column_hermite_form
from toriq import catalog
from toriq.errors import IncompleteFanError, TorusFactorError
from toriq.fans import build_fan
from toriq.intlinalg import IntMatrix
from toriq.quotient import (
    aut_presentation,
    charge_matrix,
    discriminant_locus,
    fan_symmetry,
    group_structure,
    quotient_report,
)


def column_lattice(rows):
    return column_hermite_form(IntMatrix.from_rows(rows)).entries


def one_based(subsets):
    return [[i + 1 for i in t] for t in subsets]


def test_charge_matrix_cp1():
    q = charge_matrix(catalog.projective_line())
    assert q.matrix.entries == ((1,), (1,))


def test_charge_matrix_weighted_plane():
    for n in (2, 3, 5):
        q = charge_matrix(catalog.weighted_plane(n))
        assert q.matrix.entries == ((1,), (1,), (n,))


def test_charge_matrix_hirzebruch_column_lattice():
    for n in (1, 2, 3):
        q = charge_matrix(catalog.hirzebruch(n))
        expected = column_lattice([[0, 1], [0, 1], [1, 0], [1, -n]])
        assert column_hermite_form(q.matrix).entries == expected


def test_charge_matrix_requires_spanning_rays():
    fan = build_fan(2, [(1, 0)], [[0]])
    with pytest.raises(TorusFactorError):
        charge_matrix(fan)


def test_group_structure_examples():
    gs = group_structure(catalog.projective_plane())
    assert (gs.torus_rank, gs.torsion_factors) == (1, ())
    gs = group_structure(catalog.product_of_lines())
    assert (gs.torus_rank, gs.torsion_factors) == (2, ())
    degenerate = build_fan(2, [(1, 0), (1, 2)], [[0, 1]])
    gs = group_structure(degenerate)
    assert (gs.torus_rank, gs.torsion_factors) == (0, (2,))
    assert gs.describe() == "Z/2"


def test_discriminant_examples():
    assert one_based(discriminant_locus(catalog.projective_plane()).minimal_subsets) == [[1, 2, 3]]
    assert one_based(discriminant_locus(catalog.product_of_lines()).minimal_subsets) == [[1, 2], [3, 4]]
    for n in (1, 2, 3):
        assert one_based(discriminant_locus(catalog.hirzebruch(n)).minimal_subsets) == [[1, 2], [3, 4]]


@pytest.mark.parametrize(
    "fan",
    [
        catalog.projective_line(),
        catalog.projective_plane(),
        catalog.product_of_lines(),
        catalog.weighted_plane(2),
        catalog.hirzebruch(3),
        catalog.projective_space(3),
    ],
    ids=lambda f: f.name,
)
def test_discriminant_antichain_characterizes_non_cones(fan):
    antichain = discriminant_locus(fan).minimal_subsets
    # antichain: no member contains another
    for a in antichain:
        for b in antichain:
            if a != b:
                assert not set(a) <= set(b)
    for subset in powerset(range(fan.n_rays)):
        covered = any(set(t) <= set(subset) for t in antichain)
        assert covered == (not fan.is_cone(subset))


def test_symmetry_cp2_is_s3():
    sym = fan_symmetry(catalog.projective_plane())
    assert sym.order == 6
    assert sym.structure_name == "S_3"
    assert sym.preserves_maximal_cones


def test_symmetry_weighted_plane_is_z2():
    for n in (2, 3, 5):
        sym = fan_symmetry(catalog.weighted_plane(n))
        assert sym.order == 2
        assert sym.structure_name == "Z_2"


def test_symmetry_product_is_z2xz2():
    sym = fan_symmetry(catalog.product_of_lines())
    assert sym.order == 4
    assert sym.structure_name == "Z_2 x Z_2"


def test_symmetry_hirzebruch_is_z2():
    for n in (1, 2, 3):
        sym = fan_symmetry(catalog.hirzebruch(n))
        assert sym.order == 2
        assert sym.structure_name == "Z_2"


def test_symmetry_generators_fix_rows_and_discriminant():
    for fan in [catalog.projective_plane(), catalog.product_of_lines(), catalog.hirzebruch(2)]:
        q = charge_matrix(fan).matrix
        antichain = set(discriminant_locus(fan).minimal_subsets)
        for g in fan_symmetry(fan).generators:
            for i in range(fan.n_rays):
                assert q.row(g[i]) == q.row(i)
            assert {tuple(sorted(g[i] for i in t)) for t in antichain} == antichain


def test_symmetry_invariant_under_lattice_basis_change():
    rng = random.Random(3)
    fan = catalog.hirzebruch(2)
    sym0 = fan_symmetry(fan)
    for _ in range(20):
        # random unimodular change of lattice basis
        t = [[1, 0], [0, 1]]
        for _ in range(5):
            a, b = rng.sample(range(2), 2)
            q = rng.randint(-2, 2)
            for row in t:
                row[a] += q * row[b]
        tm = IntMatrix.from_rows(t)
        assert leibniz_det(t) in (1, -1)
        rays = [tm.mat_vec(v) for v in fan.rays]
        changed = build_fan(2, rays, fan.maximal_cones, complete=True)
        sym = fan_symmetry(changed)
        assert sym.order == sym0.order
        assert sym.row_classes == sym0.row_classes
        assert sym.generators == sym0.generators


def test_row_classes_depend_only_on_column_span():
    from toriq.quotient import _row_classes

    rng = random.Random(9)
    q = IntMatrix.from_rows([[1, 0], [1, 0], [0, 1], [-2, 1]])
    base = _row_classes(q)
    for _ in range(25):
        w = [[1, 0], [0, 1]]
        for _ in range(4):
            a, b = rng.sample(range(2), 2)
            c = rng.randint(-3, 3)
            for row in w:
                row[a] += c * row[b]
        mixed = IntMatrix.from_rows(matmul(q.entries, w))
        assert _row_classes(mixed) == base


def test_symmetry_discriminant_filter_can_cut_the_group():
    # two opposite quadrants: charge rows are equal in pairs {1,2} and
    # {3,4}, but the discriminant antichain is not a union of those
    # classes, so only the simultaneous double swap survives the filter
    fan = build_fan(
        2,
        [(1, 0), (-1, 0), (0, 1), (0, -1)],
        [[0, 2], [1, 3]],
        name="opposite-quadrants",
    )
    sym = fan_symmetry(fan)
    assert sym.row_classes == ((0, 1), (2, 3))
    assert sym.order == 2  # cut down from the full product of order 4
    assert sym.generators == ((1, 0, 3, 2),)
    assert sym.preserves_maximal_cones
    antichain = set(discriminant_locus(fan).minimal_subsets)
    assert antichain == {(0, 1), (0, 3), (1, 2), (2, 3)}
    for g in sym.generators:
        assert {tuple(sorted(g[i] for i in t)) for t in antichain} == antichain
    # pentagon: all rows distinct, trivial symmetry
    irregular = build_fan(
        2,
        [(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)],
        [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
        complete=True,
        name="pentagon",
    )
    sym = fan_symmetry(irregular)
    assert sym.order == 1 and sym.structure_name == "1"


def test_rank_nullity_when_rays_span():
    for fan in [catalog.projective_plane(), catalog.hirzebruch(2), catalog.projective_space(3)]:
        q = charge_matrix(fan)
        assert q.torus_rank + fan.lattice_rank == fan.n_rays
        # Q-columns kill the rays
        rt = IntMatrix.from_rows(fan.rays, fan.lattice_rank).transpose()
        assert not any(map(any, matmul(rt.entries, q.matrix.entries)))


def test_torsion_warning():
    degenerate = build_fan(2, [(1, 0), (1, 2)], [[0, 1]])
    assert fan_symmetry(degenerate).torsion_warning


def test_aut_presentation_examples():
    aut = aut_presentation(catalog.projective_line())
    assert aut.finite_part.structure_name == "Z_2"
    assert aut.solenoidal_torus_rank == 1
    aut = aut_presentation(catalog.projective_plane())
    assert aut.finite_part.structure_name == "S_3"
    assert aut.solenoidal_torus_rank == 2
    for n in (1, 2, 3):
        aut = aut_presentation(catalog.hirzebruch(n))
        assert aut.finite_part.structure_name == "Z_2"
        assert aut.solenoidal_torus_rank == 2
        assert aut.describe() == "Z_2 x| (C*_Q)^2"


def test_aut_requires_complete_fan():
    fan = build_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    with pytest.raises(IncompleteFanError, match="complete"):
        aut_presentation(fan)


def test_quotient_report_shape():
    report = quotient_report(catalog.product_of_lines())
    assert set(report) == {"charge_matrix", "torus_rank", "torsion", "discriminant", "symmetry", "aut"}
    assert report["charge_matrix"] == [[1, 0], [1, 0], [0, 1], [0, 1]]
    assert report["discriminant"] == [[1, 2], [3, 4]]
    assert report["symmetry"]["order"] == 4
    assert report["aut"] == {"finite_part": "Z_2 x Z_2", "torus_rank": 2}

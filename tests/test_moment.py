"""Delzant face lattices, fiber ranks, cusp counts."""

import pytest

from toriq import catalog
from toriq.errors import DomainError, IncompleteFanError
from toriq.fans import build_fan
from toriq.moment import cusp_count, delzant_report, delzant_svg, face_lattice


def test_cp2_face_lattice():
    lattice = face_lattice(catalog.projective_plane())
    assert lattice.f_vector == (3, 3, 1)
    assert len(lattice.cusps) == 3
    assert lattice.top.face_dim == 2 and lattice.top.cone == ()
    for node in lattice.nodes:
        assert node.fiber_rank == node.face_dim
        assert node.is_cusp == (node.face_dim == 0)


def test_cp1_face_lattice():
    lattice = face_lattice(catalog.projective_line())
    assert lattice.f_vector == (2, 1)
    assert len(lattice.cusps) == 2


def test_product_face_lattice():
    assert face_lattice(catalog.product_of_lines()).f_vector == (4, 4, 1)


@pytest.mark.parametrize(
    "fan",
    [
        catalog.projective_line(),
        catalog.projective_plane(),
        catalog.product_of_lines(),
        catalog.weighted_plane(2),
        catalog.hirzebruch(2),
        catalog.projective_space(3),
    ],
    ids=lambda f: f.name,
)
def test_euler_alternating_sum_is_one(fan):
    lattice = face_lattice(fan)
    assert sum((-1) ** m * count for m, count in enumerate(lattice.f_vector)) == 1
    # top face has fiber rank equal to the ambient rank; cusps have rank 0
    assert lattice.top.fiber_rank == fan.lattice_rank
    assert all(node.fiber_rank == 0 for node in lattice.cusps)


def test_order_reversing_bijection():
    fan = catalog.projective_plane()
    lattice = face_lattice(fan)
    nodes = lattice.nodes
    assert sorted(node.cone for node in nodes) == sorted(fan.cones())
    # a larger cone has a smaller face: face dimension n - dim(cone)
    for node in nodes:
        assert node.face_dim == fan.lattice_rank - len(node.cone)


def test_cusp_counts():
    assert cusp_count(catalog.projective_line()) == 2
    assert cusp_count(catalog.projective_plane()) == 3
    assert cusp_count(catalog.product_of_lines()) == 4
    assert cusp_count(catalog.weighted_plane(3)) == 3
    assert cusp_count(catalog.hirzebruch(2)) == 4
    for m in (1, 2, 3):
        assert cusp_count(catalog.projective_space(m)) == m + 1


def test_incomplete_fan_is_rejected():
    fan = build_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    with pytest.raises(IncompleteFanError):
        face_lattice(fan)
    with pytest.raises(IncompleteFanError):
        cusp_count(fan)


def test_delzant_report_shape():
    report = delzant_report(catalog.projective_plane())
    assert report["f_vector"] == [3, 3, 1]
    assert report["cusps"] == 3
    assert report["faces"][0] == {"cone": [1, 2], "dim": 0, "fiber_rank": 0}
    assert report["faces"][-1] == {"cone": [], "dim": 2, "fiber_rank": 2}


def test_svg_rendering():
    svg = delzant_svg(catalog.projective_plane())
    assert svg.startswith("<svg") or svg.startswith("<?xml") or "<svg" in svg
    assert svg.count("<circle") == 3  # one dot per cusp
    assert svg.count("<line") == 3  # one edge per ray
    svg = delzant_svg(catalog.product_of_lines())
    assert svg.count("<circle") == 4 and svg.count("<line") == 4
    with pytest.raises(DomainError):
        delzant_svg(catalog.projective_space(3))

"""Delzant face lattices, fiber ranks, cusp counts."""

from xml.dom import minidom

import pytest

from toriq import catalog
from toriq.errors import DomainError, IncompleteFanError
from toriq.fans import build_fan
from toriq.moment import cusp_count, delzant_report, delzant_svg, face_lattice


def test_cp2_face_lattice():
    lattice = face_lattice(catalog.projective_plane())
    assert lattice.f_vector == (3, 3, 1)
    assert lattice.cusps == lattice.faces[0]
    assert lattice.faces == (((0, 1), (0, 2), (1, 2)), ((0,), (1,), (2,)), ((),))


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
    # the top face, fiber rank n, is the zero cone's; the cusps, fiber rank
    # 0, are the n-ray cones
    assert len(lattice.faces) == fan.lattice_rank + 1 and lattice.faces[-1] == ((),)
    assert all(len(cone) == fan.lattice_rank for cone in lattice.cusps)


def test_order_reversing_bijection():
    fan = catalog.projective_plane()
    faces = face_lattice(fan).faces
    assert sorted(cone for block in faces for cone in block) == sorted(fan.cones())
    # a larger cone has a smaller face: face dimension n - dim(cone)
    for m, block in enumerate(faces):
        assert all(m == fan.lattice_rank - len(cone) for cone in block)


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


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: face_lattice(5), "face lattice"),
        (lambda: cusp_count(None), "cusp count"),
        (lambda: delzant_report(5), "face lattice"),
        (lambda: delzant_report([1]), "face lattice"),
        (lambda: delzant_svg([1]), "polytope drawing"),
    ],
    ids=["face_lattice", "cusp_count", "delzant_report", "delzant_report_unhashable",
         "delzant_svg"],
)
def test_non_fan_is_a_named_error(call, what):
    with pytest.raises(DomainError, match=f"^{what}: fan must be a Fan, got "):
        call()


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


def test_svg_title_is_escaped():
    """A fan name holding markup stays text: the SVG parses, and its title
    reads back as the name."""
    name = "a</text><script>alert(1)</script>&"
    plane = catalog.projective_plane()
    fan = build_fan(2, plane.rays, plane.maximal_cones, complete=True, name=name)
    title = minidom.parseString(delzant_svg(fan)).getElementsByTagName("text")[0]
    assert title.firstChild.data.startswith(f"{name}: cusps at vertices")

"""Behaviour that no other test runs: ``toriq analyze`` on an incomplete
fan, ``str`` of a formal sum, ``same_orbit`` across fans and levels, the
torus-element guards, ``cone_contains`` on a point of the wrong length, the
structure messages of ``fan_from_dict``, ``ProfiniteInt`` subtraction and
``catalog.fan_path`` on an unknown name.  And ``cusp_count``, the number of
maximal cones, against the face lattice's cusps on the complete fans of
the face-order corpus."""

import json
from fractions import Fraction as F

import pytest

from test_discriminant_fastpath import _order_corpus
from toriq import catalog
from toriq.cli import main
from toriq.cones import RationalCone, cone_contains
from toriq.errors import DomainError, FanValidationError, LevelMismatchError
from toriq.fans import fan_from_dict
from toriq.homogeneous import HomogeneousPoint, TorusElement, same_orbit
from toriq.kring import FormalSum
from toriq.moment import cusp_count, face_lattice
from toriq.solenoid import PolarComplex as P
from toriq.solenoid import ProfiniteInt

CP2 = catalog.projective_plane()


def test_analyze_of_an_incomplete_fan_has_no_face_lattice_and_no_aut(capsys, tmp_path):
    path = tmp_path / "quadrants.json"
    path.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                                "maximal_cones": [[1, 3], [2, 4]]}))
    assert main(["analyze", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["face_lattice"] is None and report["aut"] is None
    assert report["name"] == "fan" and report["torus_rank"] == 2
    assert report["discriminant"] == [[1, 2], [1, 4], [2, 3], [3, 4]]
    assert [f["rank"] for f in report["fiber_ranks"]] == [4, 3, 3, 3, 3, 2, 2]


def test_str_of_a_formal_sum():
    assert str(FormalSum([(F(1, 2), 3), (0, -1), (F(-2, 3), 1)])) == "+1*x^(-2/3) -1 +3*x^(1/2)"
    assert str(FormalSum.zero()) == "0"


def test_same_orbit_refuses_points_of_different_fans_or_levels():
    z = HomogeneousPoint(CP2, 2, (P(1),) * 3)
    with pytest.raises(DomainError, match=r"^points belong to different fans$"):
        same_orbit(z, HomogeneousPoint(catalog.weighted_plane(2), 2, (P(1),) * 3))
    with pytest.raises(LevelMismatchError, match=r"^points live at different levels$"):
        same_orbit(z, HomogeneousPoint(CP2, 3, (P(1),) * 3))


def test_torus_elements_refuse_a_zero_parameter_and_a_product_across_levels():
    with pytest.raises(DomainError, match=r"^torus parameters must be nonzero$"):
        TorusElement(2, (P(2), P(0)))
    with pytest.raises(LevelMismatchError, match=r"^torus elements at different levels$"):
        TorusElement(2, (P(2),)) * TorusElement(3, (P(2),))
    assert (TorusElement(2, (P(2),)) * TorusElement(2, (P(3),))).params == (P(6),)


def test_cone_contains_refuses_a_point_of_the_wrong_length():
    cone = RationalCone(2, ((1, 0), (1, 2)))
    assert cone_contains(cone, (2, 1)) and not cone_contains(cone, (0, 1))
    with pytest.raises(DomainError, match=r"^point has wrong length$"):
        cone_contains(cone, (1, 1, 1))


CP2_DICT = {"lattice_rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
            "maximal_cones": [[1, 2], [2, 3], [1, 3]], "complete": True}


@pytest.mark.parametrize("data, message", [
    ([CP2_DICT], "fan file must contain a JSON object"),
    ({**CP2_DICT, "rays": "[[1, 0]]"}, "rays: expected a list of integer vectors"),
    ({**CP2_DICT, "rays": [[1, 0], (0, 1), [-1, -1]]}, "rays: expected a list of integer vectors"),
    ({**CP2_DICT, "maximal_cones": {"1": [1, 2]}}, "maximal_cones: expected a list of index lists"),
    ({**CP2_DICT, "maximal_cones": [[1, 2], 3]}, "maximal_cones: expected a list of index lists"),
    ({**CP2_DICT, "complete": 1}, "complete: expected true or false"),
    ({**CP2_DICT, "name": 7}, "name: expected a string"),
])
def test_fan_from_dict_structure_messages(data, message):
    with pytest.raises(FanValidationError) as raised:
        fan_from_dict(data)
    assert str(raised.value) == message


def test_profinite_subtraction():
    assert ProfiniteInt(6, 1) - ProfiniteInt(6, 4) == ProfiniteInt(6, 3)
    with pytest.raises(LevelMismatchError):
        ProfiniteInt(6, 1) - ProfiniteInt(4, 1)


def test_fan_path_names_the_packaged_fans_for_an_unknown_name():
    with pytest.raises(FileNotFoundError, match=r"^no packaged fan 'cp9'; available: \['cp1', "):
        catalog.fan_path("cp9")


def test_cusp_count_is_the_number_of_cusps_on_the_face_order_corpus():
    complete = [fan for fan in _order_corpus() if fan.complete]
    assert len(complete) == 622
    for fan in complete:
        assert cusp_count(fan) == len(face_lattice(fan).cusps) == len(fan.maximal_cones), fan

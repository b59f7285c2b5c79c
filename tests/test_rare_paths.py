"""Behaviour that no other test runs: ``toriq analyze`` on an incomplete
fan, ``str`` of a formal sum, ``same_orbit`` across fans and levels, the
torus-element guards, ``cone_contains`` on a point of the wrong length, the
structure messages of ``fan_from_dict``, ``ProfiniteInt`` subtraction and
``catalog.fan_path`` on an unknown name.  And ``cusp_count``, the number of
maximal cones, against the face lattice's cusps on the complete fans of
the face-order corpus.  And the statements no other test runs in process:
the guards of ``dot``, ``IntMatrix.from_rows`` and ``integer_kernel``,
``str`` of an ``IntMatrix``, ``delzant_svg``'s tie-break for a cone whose
rays are a half turn apart, the ``NotImplemented`` of the arithmetic
operators, and the bit count of an overlong integer in a dict report."""

import json
import sys
from fractions import Fraction as F
from xml.dom import minidom

import pytest

from test_discriminant_fastpath import _order_corpus
from toriq import catalog
from toriq.cli import main
from toriq.cones import RationalCone, cone_contains
from toriq.errors import DomainError, FanValidationError, LevelMismatchError
from toriq.fans import build_fan, fan_from_dict
from toriq.homogeneous import HomogeneousPoint, TorusElement, same_orbit
from toriq.intlinalg import IntMatrix, dot, integer_kernel
from toriq.kring import FormalSum
from toriq.moment import cusp_count, delzant_svg, face_lattice
from toriq.solenoid import PolarComplex as P
from toriq.solenoid import ProfiniteInt, SolenoidPoint

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
    assert str(FormalSum(())) == "0"


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


def test_integer_matrix_guards_and_str():
    with pytest.raises(DomainError, match=r"^dot product of vectors of unequal length$"):
        dot((1, 2), (1,))
    with pytest.raises(DomainError, match=r"^cannot infer column count of an empty matrix$"):
        IntMatrix.from_rows([])
    with pytest.raises(DomainError, match=r"^integer_kernel requires a nonempty matrix$"):
        integer_kernel(IntMatrix((), 3))
    assert str(IntMatrix.from_rows([[1, 2], [3, 4]])) == "1 2\n3 4"


def test_delzant_svg_breaks_the_tie_of_rays_a_half_turn_apart():
    # the unit rays of cone [1, 2] sum to (0, 2e-12), inside the 1e-9 tie
    fan = build_fan(2, [(10**12, 1), (-10**12, 1), (0, -1)], [[0, 1], [1, 2], [0, 2]],
                    complete=True)
    svg = minidom.parseString(delzant_svg(fan)).documentElement
    assert len(svg.getElementsByTagName("circle")) == len(svg.getElementsByTagName("line")) == 3


@pytest.mark.parametrize("op", [
    lambda: TorusElement(1, (P(1),)) * 3,
    lambda: P(1) * 3,
    lambda: SolenoidPoint(2, P(1)) * 3,
    lambda: ProfiniteInt(4, 1) + 3,
])
def test_arithmetic_with_a_plain_int_is_not_implemented(op):
    with pytest.raises(TypeError, match=r"^unsupported operand type"):
        op()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer-to-string conversion")
def test_overlong_integer_in_a_dict_report_is_resource_error(capsys, tmp_path):
    a, b = 10**2200 + 1, 10**2200 + 3
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"lattice_rank": 3, "rays": [[1, a, 0], [0, 1, b], [0, 0, 1]],
                                "maximal_cones": [[1, 2, 3]]}))
    assert main(["hilbert", str(path), "--cone", "1,2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: hilbert: the result holds a 14617-bit integer, past the "
                            f"limit of {sys.get_int_max_str_digits()} decimal digits on "
                            "integer-to-string conversion\n")

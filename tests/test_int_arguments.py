"""Integer arguments: one check, and one way to show a caller's value.

Every integer argument of the public names and the catalog builders (a
level, exponent, root degree, branch, residue, coefficient, rank, ray entry
or cone index) is an ``int``, never a ``bool``, checked by
``errors._check_int``.  A message shows a caller's value by
``errors._shown``: its repr cut to 40 characters, or an integer too long
for that by its bit length, so that an integer past
``sys.get_int_max_str_digits()`` raises the named error, not ``ValueError``.
An AST guard keeps the hand-written bool/int test from growing back
outside ``_check_int``.
"""

import ast
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toriq import catalog
from toriq.cones import RationalCone, affine_fiber_rank, fan_cone, hilbert_basis
from toriq.errors import (
    DomainError,
    FanValidationError,
    LevelMismatchError,
    ResourceLimitError,
    ToriqError,
    _check_int,
    _shown,
)
from toriq.fans import build_fan, fan_from_dict
from toriq.homogeneous import HomogeneousPoint, TorusElement, act, check_equivariance, power_map
from toriq.intlinalg import IntMatrix, primitive
from toriq.kring import FormalSum, KRingElement, in_level_image
from toriq.solenoid import PolarComplex as P
from toriq.solenoid import ProfiniteInt, SolenoidPoint, cover_map, nu, refine

SRC = Path(__file__).resolve().parents[1] / "src" / "toriq"
HUGE = 10 ** 5000  # past the default limit of 4,300 digits on int-to-str conversion
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no integer digit limit")

CP2 = catalog.projective_plane()
POINT = HomogeneousPoint(CP2, 2, (P(1), P(2, F(1, 3)), P(3)))
TORUS = TorusElement(2, (P(2, F(1, 2)),))
CP2_DICT = {"lattice_rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
            "maximal_cones": [[1, 2], [2, 3], [1, 3]], "complete": True}


def _with(data: dict, key: str, path: tuple, x) -> dict:
    """A copy of a fan dict with the entry at ``data[key][path]`` set to x."""
    out = {k: [list(v) for v in val] if isinstance(val, list) else val for k, val in data.items()}
    if path:
        out[key][path[0]][path[1]] = x
    else:
        out[key] = x
    return out


# each integer argument of a public name, as a call of that argument alone
# and a value it accepts; the other arguments are valid
SITES = {
    "ProfiniteInt level": (lambda x: ProfiniteInt(x, 1), 6),
    "ProfiniteInt residue": (lambda x: ProfiniteInt(6, x), -7),
    "ProfiniteInt.project divisor": (lambda x: ProfiniteInt(6, 1).project(x), 3),
    "PolarComplex.pow_int exponent": (lambda x: P(4, F(1, 3)).pow_int(x), -3),
    "PolarComplex.root degree": (lambda x: P(4, F(1, 3)).root(x, 0), 2),
    "PolarComplex.root branch": (lambda x: P(4, F(1, 3)).root(2, x), 1),
    "cover_map n": (lambda x: cover_map(x, 6, P(2, F(1, 3))), 3),
    "cover_map m": (lambda x: cover_map(2, x, P(2, F(1, 3))), 4),
    "SolenoidPoint level": (lambda x: SolenoidPoint(x, P(2)), 6),
    "SolenoidPoint.coordinate divisor": (lambda x: SolenoidPoint(6, P(2)).coordinate(x), 2),
    "nu level": (lambda x: nu(F(1, 3), x), 3),
    "refine level": (lambda x: refine(SolenoidPoint(2, P(4)), x, 0), 4),
    "refine branch": (lambda x: refine(SolenoidPoint(2, P(4)), 4, x), 1),
    "TorusElement level": (lambda x: TorusElement(x, (P(2),)), 2),
    "TorusElement.pow_int exponent": (lambda x: TORUS.pow_int(x), -2),
    "HomogeneousPoint level": (lambda x: HomogeneousPoint(CP2, x, POINT.coords), 2),
    "power_map exponent": (lambda x: power_map(x, POINT), 3),
    "check_equivariance exponent": (lambda x: check_equivariance(CP2, TORUS, POINT, x), 2),
    "FormalSum coefficient": (lambda x: FormalSum([(F(1, 2), x), (F(2), 1)]), -4),
    "FormalSum.monomial coefficient": (lambda x: FormalSum.monomial(F(1, 2), x), 3),
    "KRingElement rank part": (lambda x: KRingElement(x, F(1, 2)), 2),
    "in_level_image level": (lambda x: in_level_image(KRingElement(1, F(1, 2)), x), 2),
    "build_fan lattice rank": (lambda x: build_fan(x, [(1,), (-1,)], [(0,), (1,)]), 1),
    "build_fan ray entry": (
        lambda x: build_fan(2, [(1, 0), (x, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]), 0),
    "build_fan cone index": (
        lambda x: build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, x), (1, 2), (0, 2)]), 1),
    "fan_from_dict lattice rank": (
        lambda x: fan_from_dict(_with(CP2_DICT, "lattice_rank", (), x)), 2),
    "fan_from_dict ray entry": (lambda x: fan_from_dict(_with(CP2_DICT, "rays", (1, 0), x)), 0),
    "fan_from_dict cone index": (
        lambda x: fan_from_dict(_with(CP2_DICT, "maximal_cones", (0, 1), x)), 2),
    "Fan.is_cone index": (lambda x: CP2.is_cone((0, x)), 1),
    "fan_cone index": (lambda x: fan_cone(CP2, (x,)), 2),
    "affine_fiber_rank index": (lambda x: affine_fiber_rank(CP2, (x, 0)), 1),
    "RationalCone rank": (lambda x: RationalCone(x, ((1, 0), (0, 1))), 2),
    "RationalCone entry": (lambda x: RationalCone(2, ((1, x), (0, 1))), -3),
    "primitive entry": (lambda x: primitive((x, 4)), 6),
    "IntMatrix entry": (lambda x: IntMatrix.from_rows([(1, x)]), 5),
    "IntMatrix column count": (lambda x: IntMatrix((), x), 3),
    "IntMatrix.row index": (lambda x: IntMatrix.from_rows([(1, 2), (3, 4)]).row(x), 1),
    "IntMatrix.column index": (lambda x: IntMatrix.from_rows([(1, 2), (3, 4)]).column(x), 0),
    "IntMatrix.mat_vec entry": (lambda x: IntMatrix.from_rows([(1, 2)]).mat_vec((1, x)), -2),
    "catalog.projective_space m": (catalog.projective_space, 3),
    "catalog.weighted_plane n": (catalog.weighted_plane, 5),
    "catalog.hirzebruch n": (catalog.hirzebruch, 0),
}
NOT_INTS = [True, False, 2.0, 0.5, F(1, 2), F(-7, 3), "1", None]
INTS = [0, -1, HUGE, -HUGE]


@pytest.mark.parametrize("name", sorted(SITES))
def test_every_site_accepts_its_valid_value(name):
    call, valid = SITES[name]
    call(valid)


def _returns_or_raises_a_named_error(name: str, x) -> None:
    try:
        SITES[name][0](x)
    except ToriqError as exc:
        assert str(exc)
    else:
        assert type(x) is int, f"{name} accepted {x!r:.40}"


def test_every_site_with_each_listed_value():
    """Every site against every listed value, so that none is left to the
    draw of the property test below."""
    for name in SITES:
        for x in NOT_INTS + INTS:
            _returns_or_raises_a_named_error(name, x)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SITES)),
       st.one_of(st.sampled_from(NOT_INTS + INTS), st.booleans(), st.floats(),
                 st.fractions().filter(lambda q: q.denominator != 1), st.text(max_size=3)))
def test_integer_arguments_return_or_raise_a_named_error(name, x):
    """Swapping one integer argument for a bool, float, non-integral
    Fraction, str, None, 0, -1 or +-10**5000 returns or raises a
    ``ToriqError``, and anything but an ``int`` raises one."""
    _returns_or_raises_a_named_error(name, x)


def test_shown_keeps_reprs_that_fit_and_names_long_integers_by_bit_length():
    assert _shown(0) == "0" and _shown(-7) == "-7" and _shown("ab") == "'ab'"
    assert _shown(10 ** 39) == str(10 ** 39) and _shown(-(10 ** 38)) == str(-(10 ** 38))
    assert _shown(10 ** 40) == "a 133-bit integer"
    assert _shown(-(10 ** 39)) == "a negative 130-bit integer"
    assert _shown(tuple(range(30))) == repr(tuple(range(30)))[:40]
    assert _shown(True) == "True" and _shown(F(1, 2)) == "Fraction(1, 2)"


@needs_digit_limit
def test_shown_names_a_value_holding_an_integer_past_the_digit_limit():
    assert _shown(HUGE) == f"a {HUGE.bit_length()}-bit integer"
    assert _shown((1, HUGE)) == "a tuple too long to print"


def test_check_int_refuses_bools_and_fills_the_message_only_on_failure():
    assert _check_int(5, "never {} formatted", 5) == 5
    assert _check_int(-5, "{") == -5  # the message is not formatted on success
    for bad, least in ((True, None), (1.0, None), (F(3), None), (4, 5), (None, 0)):
        with pytest.raises(DomainError, match=r"^bad: .+ given$"):
            _check_int(bad, "bad: {} given", least)
    with pytest.raises(FanValidationError, match=r"^no value$"):
        _check_int("x", "no value", error=FanValidationError)
    with pytest.raises(DomainError, match=r"^got a 133-bit integer$"):
        _check_int(10 ** 40, "got {}", 10 ** 41)
    assert _check_int(2, "{", 0, below=3) == 2 and _check_int(-9, "{", below=-8) == -9
    for bad, least in ((3, 0), (-1, 0), (4, None), (True, 0)):
        with pytest.raises(DomainError, match=r"^index: .+ not in \[0, 3\)$"):
            _check_int(bad, "index: {} not in [0, 3)", least, below=3)


@needs_digit_limit
@pytest.mark.parametrize("call, error, message", [
    (lambda: ProfiniteInt(-HUGE, 0), DomainError, "got a negative 16610-bit integer"),
    (lambda: P(4).root(2, HUGE), DomainError, "in [0, 2), got a 16610-bit integer"),
    (lambda: P(2 * HUGE + 1).root(2, 0), DomainError,
     "a 16611-bit integer is not a perfect 2-th power"),
    (lambda: P(4).root(HUGE, 0), DomainError, "perfect a 16610-bit integer-th power"),
    (lambda: build_fan(1, [(2 * HUGE,)], [(0,)]), FanValidationError,
     "ray a tuple too long to print is not primitive"),
    (lambda: build_fan(HUGE, [(1,)], [(0,)]), FanValidationError,
     "expected a 16610-bit integer coordinates"),
    (lambda: cover_map(HUGE, HUGE + 1, P(1)), DomainError, "n=a 16610-bit integer"),
    (lambda: ProfiniteInt(HUGE, 1).project(HUGE + 1), DomainError,
     "does not divide the level a 16610-bit integer"),
    (lambda: ProfiniteInt(HUGE, 1) + ProfiniteInt(HUGE + 1, 1), LevelMismatchError,
     "at levels a 16610-bit integer and"),
    (lambda: SolenoidPoint(HUGE, P(1)).coordinate(HUGE + 1), DomainError, "does not divide"),
    (lambda: SolenoidPoint(HUGE, P(1)) * SolenoidPoint(HUGE + 1, P(1)), LevelMismatchError,
     "at levels a 16610-bit integer"),
    (lambda: SolenoidPoint(1, HUGE), DomainError, "PolarComplex, got a 16610-bit integer"),
    (lambda: refine(SolenoidPoint(HUGE, P(1)), HUGE + 1, 0), DomainError,
     "refinement level a 16610-bit integer"),
    (lambda: P(HUGE, "x"), DomainError, "exact rational expected, got 'x'"),
    (lambda: P((HUGE,)), DomainError, "exact rational expected, got a tuple too long to print"),
    (lambda: P(2).pow_int(HUGE), ResourceLimitError, "exponent a 16610-bit integer"),
    (lambda: FormalSum(HUGE), DomainError, "pairs, got a 16610-bit integer"),
    (lambda: FormalSum([(1, 2, HUGE)]), DomainError, "pair, got a tuple too long to print"),
    (lambda: act(TORUS, HUGE), DomainError, "act: z must be a HomogeneousPoint, got a 16610-bit"),
    (lambda: HomogeneousPoint(CP2, 1, HUGE), DomainError, "iterable of PolarComplex values, got a"),
    (lambda: HomogeneousPoint(CP2, 1, (HUGE,)), DomainError, "PolarComplex values, got a 16610"),
    (lambda: fan_from_dict(_with(CP2_DICT, "maximal_cones", (0, 0), -HUGE)), FanValidationError,
     "1-based, got a negative 16610-bit integer"),
    (lambda: CP2.is_cone((HUGE,)), FanValidationError, "ray index a 16610-bit integer out of"),
    (lambda: build_fan(1, [(1,), (-1,)], [(0,), (HUGE,)]), FanValidationError,
     "ray index a 16610-bit integer out of range"),
    (lambda: RationalCone(2, ((1, 0, HUGE),)), DomainError, "generator a tuple too long"),
    (lambda: hilbert_basis(RationalCone(2, ((1, 0), (1, HUGE)))), ResourceLimitError,
     "(1, 0) and a tuple too long to print has a 16610-bit integer basis elements"),
    (lambda: catalog.projective_space(HUGE), ResourceLimitError, "m = a 16610-bit integer"),
])
def test_a_caller_value_past_the_digit_limit_shows_by_bit_length(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert message in str(raised.value)


@pytest.mark.parametrize("call, message", [
    (lambda: act(1, POINT), "act: t must be a TorusElement, got 1"),
    (lambda: act(TORUS, 5), "act: z must be a HomogeneousPoint, got 5"),
    (lambda: power_map(2, 7), "power_map: z must be a HomogeneousPoint, got 7"),
    (lambda: HomogeneousPoint(None, 1, ()), "HomogeneousPoint: fan must be a Fan, got None"),
])
def test_homogeneous_calls_name_an_argument_of_the_wrong_type(call, message):
    with pytest.raises(DomainError, match=rf"^{message}$"):
        call()


def test_catalog_names_show_long_parameters_by_bit_length():
    assert catalog.weighted_plane(10 ** 18).name == "cp11_1000000000000000000"
    assert catalog.hirzebruch(10 ** 40).name == "hirzebruch_a 133-bit integer"
    with pytest.raises(ResourceLimitError, match=r"^projective_space: m = 1024 is past 1023"):
        catalog.projective_space(1024)


# --- the AST guard ---------------------------------------------------------

CHECK_OWNER = ("errors.py", "_check_int")


def _names_type(node, name: str) -> bool:
    """Is ``node`` a call ``isinstance(_, T)`` whose T is ``name`` or a tuple
    holding it?"""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(k, ast.Name) and k.id == name for k in kinds)


class _IntCheckGuard(ast.NodeVisitor):
    def __init__(self, filename: str):
        self.filename = filename
        self.functions: list[str] = []
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_BoolOp(self, node):
        inside = self.functions and (self.filename, self.functions[-1]) == CHECK_OWNER
        calls = list(ast.walk(node))
        if not inside and any(_names_type(c, "bool") for c in calls) and any(
                _names_type(c, "int") for c in calls):
            self.found.append(f"{self.filename}:{node.lineno}: bool/int check")
            return  # one report for the outermost BoolOp
        self.generic_visit(node)


def int_check_violations(source: str, filename: str) -> list[str]:
    guard = _IntCheckGuard(filename)
    guard.visit(ast.parse(source, filename=filename))
    return guard.found


def test_no_bool_int_check_outside_check_int():
    files = sorted(SRC.glob("*.py"))
    assert {"errors.py", "fans.py", "solenoid.py"} <= {f.name for f in files}
    found = [v for f in files for v in int_check_violations(f.read_text(), f.name)]
    assert found == []
    # the one check is where the guard exempts it
    assert "_check_int" in (SRC / "errors.py").read_text()


def test_int_check_guard_reports_each_form():
    source = '''
def level(m):
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError
    if type(m) is not int and (isinstance(m, (bool, str)) or not isinstance(m, int)):
        raise ValueError
    return isinstance(m, str) or isinstance(m, int) or isinstance(m, bool)

def _check_int(x):
    return isinstance(x, bool) or not isinstance(x, int)
'''
    assert [v.split(": ", 1)[0] for v in int_check_violations(source, "fans.py")] == [
        "fans.py:3", "fans.py:5", "fans.py:7", "fans.py:10"]
    # only errors._check_int is exempt
    assert len(int_check_violations(source, "errors.py")) == 3
    assert int_check_violations("x = isinstance(a, bool)\ny = isinstance(a, int)\n", "kring.py") == []

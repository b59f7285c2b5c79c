"""Object arguments: one check, run before every cache.

Every object argument of the public names (a fan, a cone, a matrix, a
point, a polar value, a profinite integer, a K-ring element, or an iterable
of vectors or indices) is checked by ``errors._check_type``, or, for an
iterable, where the function turns it into tuples (``errors._check_iterable``,
with ``item=tuple`` for a list of vectors and ``item=_int_item`` for an
integer vector), so that a wrong type raises a named
``ToriqError`` whose message names the function and shows the caller's
value.  The eight ``lru_cache``s keyed on a fan or a cone run the check
before the cache hashes the key (``fans._cached``).  The integer twin of
this file is ``test_int_arguments.py``; two AST guards keep hand-written
``if not isinstance(...): raise`` checks and ``try: tuple(x)`` /
``except TypeError`` blocks from growing back outside ``errors.py``.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toriq
from toriq import catalog
from toriq.cones import dual_cone, hilbert_basis
from toriq.errors import (DomainError, FanValidationError, ToriqError, _check_iterable,
                          _check_type, _int_item, _shown)
from toriq.intlinalg import inverse_unimodular
from toriq.kring import FormalSum, in_level_image, reduce
from toriq.moment import face_lattice
from toriq.quotient import (aut_presentation, charge_matrix, discriminant_locus, fan_symmetry,
                            group_structure)
from toriq.solenoid import PolarComplex as P

SRC = Path(__file__).resolve().parents[1] / "src" / "toriq"

CP2 = catalog.projective_plane()
POINT = toriq.HomogeneousPoint(CP2, 2, (P(1), P(2, F(1, 3)), P(3)))
TORUS = toriq.TorusElement(2, (P(2, F(1, 2)),))
CONE = toriq.RationalCone(2, ((1, 0), (1, 2)))
MATRIX = toriq.IntMatrix.from_rows([(2, 4), (6, 8)])
RESIDUE = toriq.ProfiniteInt(6, 5)

# each call with one object argument of the wrong type, and its message
CALLS = [
    (lambda: toriq.cover_map(1, 2, 5), "cover_map: z must be a PolarComplex, got 5"),
    (lambda: toriq.phi(3), "phi: a must be a ProfiniteInt, got 3"),
    (lambda: toriq.sol_exp(3, 0), "sol_exp: a must be a ProfiniteInt, got 3"),
    (lambda: toriq.refine(5, 2, 0), "refine: z must be a SolenoidPoint, got 5"),
    (lambda: in_level_image(5, 2), "in_level_image: e must be a KRingElement, got 5"),
    (lambda: reduce(5), "reduce: s must be a FormalSum, got 5"),
    (lambda: toriq.cone_contains(5, (1,)), "cone_contains: cone must be a RationalCone, got 5"),
    (lambda: toriq.fan_cone(None, (0,)), "fan_cone: fan must be a Fan, got None"),
    (lambda: toriq.affine_fiber_rank(5, (0,)), "affine_fiber_rank: fan must be a Fan, got 5"),
    (lambda: toriq.quotient_report(5), "quotient_report: fan must be a Fan, got 5"),
    (lambda: toriq.smith_normal_form(5), "smith_normal_form: a must be an IntMatrix, got 5"),
    (lambda: toriq.integer_kernel(5), "integer_kernel: a must be an IntMatrix, got 5"),
    (lambda: inverse_unimodular(5), "inverse_unimodular: a must be an IntMatrix, got 5"),
    (lambda: toriq.affine_fiber_rank(CP2, 5),
     "affine_fiber_rank: indices must be an iterable of ray indices, got 5"),
    (lambda: toriq.in_discriminant(CP2, 5),
     "in_discriminant: coords must be an iterable of PolarComplex values, got 5"),
    (lambda: toriq.RationalCone(2, 5),
     "RationalCone: generators must be an iterable of integer vectors, got 5"),
    (lambda: toriq.IntMatrix.from_rows(5),
     "IntMatrix.from_rows: rows must be an iterable of rows, got 5"),
    (lambda: toriq.build_fan(2, 5, []),
     "build_fan: rays must be an iterable of integer vectors, got 5"),
    (lambda: toriq.Fan(2, CP2.rays, CP2.maximal_cones, [1]), "Fan: complete must be a bool, got [1]"),
    (lambda: toriq.build_fan(2, CP2.rays, CP2.maximal_cones, True, 5),
     "Fan: name must be a str, got 5"),
    # public methods outside toriq.__all__: an iterable, an index, a vector
    (lambda: CP2.is_cone(5), "Fan.is_cone: indices must be an iterable of ray indices, got 5"),
    (lambda: MATRIX.row("a"), "IntMatrix.row: i must be an integer in [0, 2), got 'a'"),
    (lambda: MATRIX.column(None), "IntMatrix.column: j must be an integer in [0, 2), got None"),
    (lambda: MATRIX.row(5), "IntMatrix.row: i must be an integer in [0, 2), got 5"),
    (lambda: MATRIX.column(7), "IntMatrix.column: j must be an integer in [0, 2), got 7"),
    (lambda: charge_matrix(CP2).row(9),
     "ChargeMatrix.row: i must be an integer in [0, 3), got 9"),
    (lambda: MATRIX.row(-1), "IntMatrix.row: i must be an integer in [0, 2), got -1"),
    (lambda: MATRIX.row(True), "IntMatrix.row: i must be an integer in [0, 2), got True"),
    (lambda: MATRIX.mat_vec(5), "IntMatrix.mat_vec: v must be an iterable of integers, got 5"),
    (lambda: MATRIX.mat_vec(("a", "b")),
     "IntMatrix.mat_vec: v must be an iterable of integers, got ('a', 'b')"),
    (lambda: MATRIX.mat_vec((0.5, 1)),
     "IntMatrix.mat_vec: v must be an iterable of integers, got (0.5, 1)"),
    # the iterable arguments that errors._check_iterable turns into tuples
    (lambda: toriq.primitive(5), "primitive: v must be an iterable of integers, got 5"),
    (lambda: toriq.cone_contains(CONE, 5),
     "cone_contains: point must be an iterable of rationals, got 5"),
    (lambda: toriq.fan_cone(CP2, 5), "fan_cone: indices must be an iterable of ray indices, got 5"),
    (lambda: toriq.HomogeneousPoint(CP2, 1, 5),
     "coordinates must be an iterable of PolarComplex values, got 5"),
    (lambda: toriq.TorusElement(1, 5),
     "torus parameters must be an iterable of PolarComplex values, got 5"),
    (lambda: FormalSum(5), "terms must be an iterable of (exponent, coefficient) pairs, got 5"),
]
# the eight cached names, the name their messages use and what they take
CACHED = [
    (charge_matrix, "charge_matrix", "fan", "Fan"),
    (group_structure, "group_structure", "fan", "Fan"),
    (discriminant_locus, "discriminant_locus", "fan", "Fan"),
    (fan_symmetry, "fan_symmetry", "fan", "Fan"),
    (aut_presentation, "aut_presentation", "fan", "Fan"),
    (face_lattice, "face lattice", "fan", "Fan"),
    (dual_cone, "dual_cone", "sigma", "RationalCone"),
    (hilbert_basis, "hilbert_basis", "cone", "RationalCone"),
]
CALLS += [((lambda f=f, x=x: f(x)), f"{name}: {arg} must be a {cls}, got {x!r}")
          for f, name, arg, cls in CACHED for x in (5, None, [1])]


@pytest.mark.parametrize("call, message", CALLS, ids=[m for _, m in CALLS])
def test_an_object_argument_of_the_wrong_type_raises_a_named_error(call, message):
    fan_data = message.startswith(("build_fan", "Fan:", "Fan.is_cone"))
    error = FanValidationError if fan_data else DomainError
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def _broken(*items):
    """An iterator that yields ``items`` and then raises ``TypeError``."""
    yield from items
    raise TypeError("iteration broke part-way")


# each iterable argument given an iterator that breaks after valid items,
# and the start of the message naming it
BROKEN = [
    (lambda: toriq.primitive(_broken(2, 4)), "primitive: v must be an iterable of integers"),
    (lambda: toriq.cone_contains(CONE, _broken(1)),
     "cone_contains: point must be an iterable of rationals"),
    (lambda: toriq.fan_cone(CP2, _broken(0)),
     "fan_cone: indices must be an iterable of ray indices"),
    (lambda: toriq.affine_fiber_rank(CP2, _broken(0)),
     "affine_fiber_rank: indices must be an iterable of ray indices"),
    (lambda: CP2.is_cone(_broken(0)), "Fan.is_cone: indices must be an iterable of ray indices"),
    (lambda: toriq.HomogeneousPoint(CP2, 1, _broken(P(1))),
     "coordinates must be an iterable of PolarComplex values"),
    (lambda: toriq.TorusElement(1, _broken(P(1))),
     "torus parameters must be an iterable of PolarComplex values"),
    (lambda: toriq.in_discriminant(CP2, _broken(P(1))),
     "in_discriminant: coords must be an iterable of PolarComplex values"),
    (lambda: FormalSum(_broken((F(1), 1))),
     "terms must be an iterable of (exponent, coefficient) pairs"),
]


@pytest.mark.parametrize("call, message", BROKEN, ids=[m for _, m in BROKEN])
def test_an_iterator_that_breaks_part_way_raises_the_named_error(call, message):
    error = FanValidationError if message.startswith("Fan.is_cone") else DomainError
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message + ", got <generator object _broken at ")


def test_cached_names_keep_their_cache_and_body():
    for f, *_, cls in CACHED:
        key = CP2 if cls == "Fan" else CONE
        f.cache_clear()
        f(key)
        f(key)
        info = f.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1), f.__name__
        assert f.__wrapped__.__name__ == f.__name__ and f.__doc__ == f.__wrapped__.__doc__
        with pytest.raises(DomainError):
            f([1])
        assert f.cache_info() == info  # a refused key never reaches the cache


def test_check_type_and_check_iterable_fill_the_message_only_on_failure():
    assert _check_type(CP2, toriq.Fan, "{") is CP2
    assert _check_type("p", (str, bytes), "{") == "p"
    with pytest.raises(FanValidationError, match=r"^want a Fan, got \[1\]$"):
        _check_type([1], toriq.Fan, "want a Fan, got {}", FanValidationError)
    assert _check_iterable([[1, 2], (3,), "ab"], "{", item=tuple) == ((1, 2), (3,), ("a", "b"))
    for bad in (5, None, [1, 2], [[1], None]):
        with pytest.raises(DomainError, match=r"^rows, got "):
            _check_iterable(bad, "rows, got {}", item=tuple)
    assert _check_iterable([1, "a", None], "{") == (1, "a", None)
    assert _check_iterable(iter(()), "{") == () and _check_iterable("ab", "{") == ("a", "b")
    for bad in (5, None, _broken(1)):
        with pytest.raises(FanValidationError, match=r"^iterable, got (5|None|<generator)"):
            _check_iterable(bad, "iterable, got {}", FanValidationError)
    assert _check_iterable([1, -2], "{", item=_int_item) == (1, -2)
    assert _check_iterable(iter(()), "{", item=_int_item) == ()
    for bad in (5, None, [1, True], [0.5], [F(2)], ["1"], [[1]]):
        with pytest.raises(FanValidationError, match=r"^vector, got "):
            _check_iterable(bad, "vector, got {}", FanValidationError, item=_int_item)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(-9, 9) | st.floats() | st.fractions() | st.booleans(), max_size=3))
def test_mat_vec_returns_integers_or_raises_a_named_error(v):
    """``IntMatrix.mat_vec`` never returns a float or a ``Fraction``."""
    integers = all(type(x) is int for x in v)
    try:
        result = MATRIX.mat_vec(v)
    except DomainError as exc:
        wrong = f"IntMatrix.mat_vec: v must be an iterable of integers, got {_shown(v)}"
        assert str(exc) == ("matrix-vector shape mismatch" if integers else wrong)
    else:
        assert integers and all(type(y) is int for y in result)


# --- the sweep over toriq.__all__ -------------------------------------------

# a valid argument tuple for every public callable
ARGS = {
    "AutPresentation": (aut_presentation(CP2).finite_part, 2, ()),
    "ChargeMatrix": (MATRIX,),
    "DiscriminantAntichain": (((0, 1, 2),),),
    "DomainError": ("message",),
    "FaceLattice": (2, ()),
    "Fan": (2, CP2.rays, CP2.maximal_cones, True, "cp2"),
    "FanSymmetryGroup": (((0, 1, 2),), (), 6, "S_3", True, False),
    "HilbertBasis": (CONE, ((1, 0),)),
    "HomogeneousPoint": (CP2, 2, POINT.coords),
    "InputError": ("message",),
    "IntMatrix": (((1, 2),), 2),
    "PolarComplex": (F(4), F(1, 3)),
    "ProfiniteInt": (6, 5),
    "QuotientGroupStructure": (1, ()),
    "RationalCone": (2, ((1, 0), (1, 2))),
    "SolenoidPoint": (4, P(16)),
    "ToriqError": ("message",),
    "TorusElement": (2, TORUS.params),
    "act": (TORUS, POINT),
    "affine_fiber_rank": (CP2, (0, 1)),
    "aut_presentation": (CP2,),
    "build_fan": (2, CP2.rays, CP2.maximal_cones, True, "cp2"),
    "charge_matrix": (CP2,),
    "check_equivariance": (CP2, TORUS, POINT, 2),
    "cone_contains": (CONE, (1, 1)),
    "cover_map": (2, 4, P(2, F(1, 3))),
    "cusp_count": (CP2,),
    "delzant_report": (CP2,),
    "discriminant_locus": (CP2,),
    "dual_cone": (CONE,),
    "face_lattice": (CP2,),
    "fan_cone": (CP2, (0, 1)),
    "fan_from_dict": (toriq.fan_to_dict(CP2),),
    "fan_symmetry": (CP2,),
    "fan_to_dict": (CP2,),
    "group_structure": (CP2,),
    "hilbert_basis": (CONE,),
    "in_discriminant": (CP2, POINT.coords),
    "integer_kernel": (MATRIX,),
    "load_fan": (catalog.fan_path("cp2"),),
    "nu": (F(1, 3), 3),
    "phi": (RESIDUE,),
    "power_map": (3, POINT),
    "primitive": ((2, 4),),
    "quotient_report": (CP2,),
    "refine": (toriq.SolenoidPoint(2, P(4)), 4, 1),
    "same_orbit": (POINT, POINT),
    "smith_normal_form": (MATRIX,),
    "sol_exp": (RESIDUE, F(1, 2)),
}
SITES = sorted((name, k) for name, args in ARGS.items() for k in range(len(args)))
DRAWN = st.one_of(
    st.integers(), st.floats(), st.text(max_size=3), st.none(), st.booleans(),
    st.lists(st.integers(-2, 2) | st.none() | st.lists(st.integers(-2, 2), max_size=2),
             max_size=3),
)


def test_every_public_callable_has_valid_arguments_that_it_accepts():
    assert sorted(ARGS) == sorted(n for n in toriq.__all__ if callable(getattr(toriq, n)))
    for name, args in ARGS.items():
        getattr(toriq, name)(*args)


@settings(max_examples=700, derandomize=True, deadline=None)
@given(st.sampled_from(SITES), DRAWN)
def test_one_wrong_argument_returns_or_raises_a_named_error(site, x):
    """Each public callable, with one argument swapped for a drawn int,
    float, str, None, bool or list, returns or raises a ``ToriqError``.
    ``load_fan`` given a path string raises the ``OSError`` of reading it,
    as documented."""
    name, k = site
    args = list(ARGS[name])
    args[k] = x
    try:
        getattr(toriq, name)(*args)
    except ToriqError as exc:
        assert str(exc)
    except OSError:
        assert name == "load_fan" and isinstance(x, str)


# --- the AST guard ---------------------------------------------------------


def _negated_isinstance(node) -> bool:
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
            and isinstance(node.operand, ast.Call) and isinstance(node.operand.func, ast.Name)
            and node.operand.func.id == "isinstance")


def type_check_violations(source: str, filename: str) -> list[str]:
    """``file:line`` of each ``if`` whose test holds ``not isinstance(...)``
    and whose body raises; ``errors.py``, which owns the check, is exempt."""
    if filename == "errors.py":
        return []
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename=filename))
            if isinstance(node, ast.If) and any(map(_negated_isinstance, ast.walk(node.test)))
            and any(isinstance(n, ast.Raise) for s in node.body for n in ast.walk(s))]


def test_no_hand_written_type_check_outside_errors():
    files = sorted(SRC.glob("*.py"))
    assert {"errors.py", "fans.py", "homogeneous.py", "moment.py"} <= {f.name for f in files}
    assert [v for f in files for v in type_check_violations(f.read_text(), f.name)] == []
    assert "def _check_type" in (SRC / "errors.py").read_text()


def test_type_check_guard_reports_each_form():
    source = '''
def f(x, y):
    if not isinstance(x, int):
        raise ValueError
    if y is None or not isinstance(y, (str, bytes)):
        if y:
            raise TypeError(y)
    if not isinstance(x, float):
        return NotImplemented
    if isinstance(x, bool):
        raise ValueError
    return not isinstance(y, str)
'''
    assert type_check_violations(source, "fans.py") == ["fans.py:3", "fans.py:5"]
    assert type_check_violations(source, "errors.py") == []


def _catches_type_error(handler) -> bool:
    """Does this ``except`` clause catch ``TypeError`` (bare, by name or by a base)?"""
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(k is None or isinstance(k, ast.Name)
               and k.id in ("TypeError", "Exception", "BaseException") for k in kinds)


def _type_error_catches(source: str, filename: str) -> list:
    """Each ``try`` in ``source`` with an ``except`` that catches ``TypeError``."""
    return [node for node in ast.walk(ast.parse(source, filename=filename))
            if isinstance(node, ast.Try) and any(map(_catches_type_error, node.handlers))]


def iterable_check_violations(source: str, filename: str) -> list[str]:
    """``file:line`` of each ``try`` that catches ``TypeError`` around a
    ``tuple(...)`` or ``iter(...)`` call; ``errors.py``, which owns the
    check (``_check_iterable``), is exempt."""
    if filename == "errors.py":
        return []
    return [f"{filename}:{node.lineno}" for node in _type_error_catches(source, filename)
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id in ("tuple", "iter") for s in node.body for n in ast.walk(s))]


def test_no_hand_written_iterable_check_outside_errors():
    files = sorted(SRC.glob("*.py"))
    assert [v for f in files for v in iterable_check_violations(f.read_text(), f.name)] == []
    assert "def _check_iterable" in (SRC / "errors.py").read_text()
    # the one TypeError caught outside errors.py: FormalSum's pair unpacking
    catches = [(f.name, node) for f in files if f.name != "errors.py"
               for node in _type_error_catches(f.read_text(), f.name)]
    assert [(name, [type(s).__name__ for s in node.body], type(node.body[0].targets[0]))
            for name, node in catches] == [("kring.py", ["Assign"], ast.Tuple)]


def test_iterable_check_guard_reports_each_form():
    # the first two blocks are Fan.is_cone and FormalSum.__post_init__ as
    # they were written before _check_iterable
    source = '''
def f(self, indices, term):
    try:
        indices = tuple(indices)
    except TypeError:
        raise FanValidationError(f"Fan.is_cone: indices must be an iterable of ray indices, "
                                 f"got {_shown(indices)}") from None
    try:
        terms = iter(self.terms)
    except TypeError:
        raise DomainError(f"terms must be an iterable of (exponent, coefficient) "
                          f"pairs, got {_shown(self.terms)}") from None
    try:
        v = [int(x) for x in tuple(map(abs, indices))]
    except (ValueError, TypeError):
        v = None
    try:
        v = tuple(indices)
    except:
        pass
    try:
        q, c = term
    except (TypeError, ValueError):
        raise DomainError("not a pair") from None
    try:
        v = tuple(indices)
    except ValueError:
        v = None
    return v
'''
    assert iterable_check_violations(source, "fans.py") == [
        "fans.py:3", "fans.py:8", "fans.py:13", "fans.py:17"]
    assert iterable_check_violations(source, "errors.py") == []
    assert [node.lineno for node in _type_error_catches(source, "fans.py")] == [3, 8, 13, 17, 21]

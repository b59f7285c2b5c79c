"""``src/toriq`` never rounds, builds ``Fraction``s only in public ways,
and keeps one representation of a polar value.

No float literal, no ``float(`` call and no float-valued ``math`` function
appears outside ``moment.delzant_svg``, which draws with floats by design.
No private ``Fraction`` attribute is touched anywhere: ``_normalize`` is
gone in Python 3.12, and the other private names may go the same way.
No module but ``solenoid`` reads a ``.rho`` or ``.turns``: the rest of the
package works on the integer ``parts`` that ``PolarComplex`` stores, so a
second, ``Fraction``-valued copy of its arithmetic cannot grow back.  The
CLI's ``args.rho`` and ``args.turns``, its ``--rho`` and ``--turns``
options, are the one exception.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "toriq"

# the functions of math and cmath that return floats, and their float constants
FLOAT_MATH = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt", "copysign",
    "cos", "cosh", "degrees", "dist", "e", "erf", "erfc", "exp", "exp2", "expm1",
    "fabs", "fmod", "frexp", "fsum", "gamma", "hypot", "inf", "ldexp", "lgamma",
    "log", "log10", "log1p", "log2", "modf", "nan", "nextafter", "pi", "pow",
    "radians", "remainder", "sin", "sinh", "sqrt", "sumprod", "tan", "tanh", "tau",
    "ulp",
}
PRIVATE_FRACTION = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"}
FLOAT_EXEMPT = {("moment.py", "delzant_svg")}
POLAR_FIELDS = {"rho", "turns"}
POLAR_MODULE = "solenoid.py"
POLAR_FIELD_EXEMPT = {("cli.py", "args")}


class _Guard(ast.NodeVisitor):
    def __init__(self, filename: str):
        self.filename = filename
        self.functions: list[str] = []
        self.math_names = set()
        self.fraction_names = set()
        self.found: list[str] = []

    def report(self, node, what: str, floats: bool = True):
        if floats and any((self.filename, f) in FLOAT_EXEMPT for f in self.functions):
            return
        self.found.append(f"{self.filename}:{node.lineno}: {what}")

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name in ("math", "cmath"):
                self.math_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if node.module in ("math", "cmath") and (
                    alias.name in FLOAT_MATH or node.module == "cmath"):
                self.report(node, f"imports {node.module}.{alias.name}")
            if node.module == "fractions":
                if alias.name.startswith("_"):
                    self.report(node, f"imports fractions.{alias.name}", floats=False)
                elif alias.name == "Fraction":
                    self.fraction_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, (float, complex)):
            self.report(node, f"float literal {node.value!r}")

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            self.report(node, "float( call")
        self.generic_visit(node)

    def visit_Attribute(self, node):
        owner = node.value.id if isinstance(node.value, ast.Name) else None
        if owner in self.math_names and node.attr in FLOAT_MATH:
            self.report(node, f"{owner}.{node.attr}")
        if node.attr in PRIVATE_FRACTION or (
                owner in self.fraction_names and node.attr.startswith("_")):
            self.report(node, f"private Fraction attribute {node.attr}", floats=False)
        if (node.attr in POLAR_FIELDS and isinstance(node.ctx, ast.Load)
                and self.filename != POLAR_MODULE
                and (self.filename, owner) not in POLAR_FIELD_EXEMPT):
            self.report(node, f"reads .{node.attr}", floats=False)
        self.generic_visit(node)


def violations(source: str, filename: str) -> list[str]:
    guard = _Guard(filename)
    guard.visit(ast.parse(source, filename=filename))
    return guard.found


def test_library_never_rounds_and_keeps_to_public_fraction_api():
    files = sorted(SRC.glob("*.py"))
    assert {"homogeneous.py", "solenoid.py", "moment.py"} <= {f.name for f in files}
    found = [v for f in files for v in violations(f.read_text(), f.name)]
    assert found == []


def test_guard_reports_each_kind_of_violation():
    """Each forbidden form is found, also in a file the exemption names
    outside the exempt function; inside it only the private attribute is."""
    source = '''
import math
import math as m
from math import sqrt, isqrt
from fractions import Fraction, _gcd

def f(x):
    y = 0.5 + float(x) + m.log(x) + math.hypot(x, 1) + math.gcd(4, 6) + isqrt(9) + 2j
    return Fraction._from_coprime_ints(1, 2), x._numerator, Fraction._new, Fraction(1, 2)

def delzant_svg(x):
    return math.hypot(x, 0.5), float(x), x._normalize
'''
    found = [v.split(": ", 1)[1] for v in violations(source, "moment.py")]
    assert found == [
        "imports math.sqrt", "imports fractions._gcd",
        "float literal 0.5", "float( call", "m.log", "math.hypot", "float literal 2j",
        "private Fraction attribute _from_coprime_ints",
        "private Fraction attribute _numerator", "private Fraction attribute _new",
        "private Fraction attribute _normalize",
    ]
    # outside moment.py delzant_svg's hypot, float literal and float( count too
    assert len(violations(source, "solenoid.py")) == len(found) + 3


def test_guard_reports_polar_field_reads_outside_solenoid():
    """A ``.rho`` or ``.turns`` read is found in any module but
    ``solenoid``; the CLI's argument namespace is exempt, and only there."""
    source = '''
def f(z, args, pairs):
    n = z.coords[0].rho.numerator
    t = [c.turns for c in pairs]
    return n, t, args.rho, args.turns, z.parts
'''
    found = [v.split(": ", 1)[1] for v in violations(source, "homogeneous.py")]
    assert found == ["reads .rho", "reads .turns", "reads .rho", "reads .turns"]
    found = [v.split(": ", 1)[1] for v in violations(source, "cli.py")]
    assert found == ["reads .rho", "reads .turns"]
    assert violations(source, "solenoid.py") == []

"""Imports: one table of public names, loaded on first use.

``toriq/__init__`` names each public name once, under its home module, and
imports that module when the name is first read (a module ``__getattr__``,
PEP 562), so ``import toriq`` loads no submodule.  Each CLI command imports
the modules it runs inside its ``cmd_*``.  The subprocess tests read
``sys.modules`` of a fresh interpreter after the import or the command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toriq
from toriq import catalog

SRC = Path(toriq.__file__).resolve().parents[1]

# toriq.__all__ as the explicit import block and list left it, in order
PUBLIC_NAMES = [
    "AutPresentation", "ChargeMatrix", "DiscriminantAntichain", "DomainError", "FaceLattice",
    "Fan", "FanSymmetryGroup", "HilbertBasis", "HomogeneousPoint", "InputError", "IntMatrix",
    "PolarComplex", "ProfiniteInt", "QuotientGroupStructure", "RationalCone", "SolenoidPoint",
    "ToriqError", "TorusElement", "act", "affine_fiber_rank", "aut_presentation", "build_fan",
    "charge_matrix", "check_equivariance", "cone_contains", "cover_map", "cusp_count",
    "delzant_report", "discriminant_locus", "dual_cone", "face_lattice", "fan_cone",
    "fan_from_dict", "fan_symmetry", "fan_to_dict", "group_structure", "hilbert_basis",
    "in_discriminant", "integer_kernel", "load_fan", "nu", "phi", "power_map", "primitive",
    "quotient_report", "refine", "same_orbit", "smith_normal_form", "sol_exp",
]
# the modules that home a public name, all reachable from a bare import
HOMES = ["cones", "errors", "fans", "homogeneous", "intlinalg", "moment", "quotient", "solenoid"]
MODULES = sorted({*HOMES, "catalog", "kring"})


def run_python(code: str, *args: str):
    """The JSON that ``code`` prints in a fresh interpreter importing this
    checkout's toriq."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_is_the_49_public_names_in_order():
    assert toriq.__all__ == PUBLIC_NAMES


def test_each_public_name_is_the_object_its_home_module_defines():
    for name in PUBLIC_NAMES:
        value = getattr(toriq, name)
        package, _, module = value.__module__.partition(".")
        assert package == "toriq" and module in HOMES, name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_a_bare_import_loads_no_submodule_and_each_name_on_first_use():
    loaded = run_python("""
import json, sys
import toriq
out = {"bare": sorted(m for m in sys.modules if m.startswith("toriq."))}
out["fan"] = toriq.Fan.__qualname__
out["after_fan"] = sorted(m for m in sys.modules if m.startswith("toriq."))
out["fans_module"] = toriq.fans.__name__
out["cached"] = "Fan" in vars(toriq)
print(json.dumps(out))
""")
    assert loaded == {"bare": [], "fan": "Fan",
                      "after_fan": ["toriq.errors", "toriq.fans", "toriq.intlinalg"],
                      "fans_module": "toriq.fans", "cached": True}


def test_star_import_dir_submodules_and_unknown_names_after_a_bare_import():
    got = run_python("""
import json
import toriq
homes = {m: getattr(toriq, m).__name__ for m in %r}
from toriq import catalog, kring
others = [catalog.__name__, kring.__name__]
names = {}
exec("from toriq import *", names)
try:
    toriq.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
star = sorted(n for n in names if n != "__builtins__")
print(json.dumps({"homes": homes, "others": others, "star": star, "dir": dir(toriq),
                  "missing": missing}))
""" % HOMES)
    assert got["homes"] == {m: f"toriq.{m}" for m in HOMES}
    assert got["others"] == ["toriq.catalog", "toriq.kring"]
    assert got["star"] == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) | set(HOMES) <= set(got["dir"]) and got["dir"] == sorted(got["dir"])
    assert got["missing"] == "module 'toriq' has no attribute 'no_such_name'"


CP2 = str(catalog.fan_path("cp2"))
RUN_MAIN = """
import contextlib, io, json, sys
from toriq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m[6:] for m in sys.modules if m.startswith("toriq."))]))
"""
# each command, and the modules it must leave unloaded
COMMANDS = [
    (["solenoid", "exp", "--a", "5/6", "--turns", "1/2"],
     ["catalog", "cones", "fans", "homogeneous", "kring", "moment", "quotient"]),
    (["kring", "reduce", "3*x^(1/2) - x^(2/3) + 1"],
     [m for m in MODULES if m not in ("errors", "kring")]),
    (["delzant", CP2], ["homogeneous", "kring", "quotient", "solenoid"]),
    (["hilbert", CP2, "--cone", "1,2"], ["homogeneous", "kring", "quotient", "solenoid"]),
    (["analyze", CP2], ["homogeneous", "kring", "solenoid"]),
]


@pytest.mark.parametrize("argv, absent", COMMANDS,
                         ids=["solenoid exp", "kring reduce", "delzant", "hilbert", "analyze"])
def test_each_command_imports_only_its_modules(argv, absent):
    code, loaded = run_python(RUN_MAIN, *argv)
    assert code == 0
    assert {"cli", "errors"} <= set(loaded)
    assert sorted(set(absent) & set(loaded)) == []


def test_the_kring_command_loads_only_errors_and_kring():
    assert run_python(RUN_MAIN, *COMMANDS[1][0]) == [0, ["cli", "errors", "kring"]]


def test_importing_the_cli_loads_only_errors():
    loaded, dataclasses = run_python("""
import json, sys
import toriq.cli
print(json.dumps([sorted(m for m in sys.modules if m.startswith("toriq.")),
                  "dataclasses" in sys.modules]))
""")
    assert loaded == ["toriq.cli", "toriq.errors"]
    assert not dataclasses  # cli._max_bits tests __dataclass_fields__ itself

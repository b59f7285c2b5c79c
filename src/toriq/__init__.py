"""toriq: exact invariants of toric fans and their profinite completions.

The package computes, for a fan describing a normal toric variety, the
combinatorial and group-theoretic data of its solenoidal completion:

* ``intlinalg``: arbitrary-precision Smith/Hermite normal forms and kernels;
* ``fans``: fans as primitive rays plus simplicial ray-index cones;
* ``cones``: dual cones and Hilbert bases of rational cones;
* ``quotient``: charge matrix, quotient group, discriminant locus, fan
  symmetry and the automorphism presentation;
* ``moment``: Delzant face lattice with solenoidal fiber ranks and cusps;
* ``solenoid``: exact truncated arithmetic for profinite integers, the
  universal solenoid and the solenoidal plane;
* ``homogeneous``: homogeneous-coordinate model: torus action, power maps,
  equivariance and orbit decision;
* ``kring``: normal forms in the K-ring of the solenoidal projective line;
* ``catalog``: ready-made example fans, also shipped as JSON files;
* ``cli``: the ``toriq`` command.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name once, under its home module; ``__getattr__`` imports the
# module on first access, so ``import toriq`` itself loads none of them
_PUBLIC = {
    "cones": ("HilbertBasis", "RationalCone", "affine_fiber_rank", "cone_contains", "dual_cone",
              "fan_cone", "hilbert_basis"),
    "errors": ("DomainError", "InputError", "ToriqError"),
    "fans": ("Fan", "build_fan", "fan_from_dict", "fan_to_dict", "load_fan"),
    "homogeneous": ("HomogeneousPoint", "TorusElement", "act", "check_equivariance",
                    "in_discriminant", "power_map", "same_orbit"),
    "intlinalg": ("IntMatrix", "integer_kernel", "primitive", "smith_normal_form"),
    "moment": ("FaceLattice", "cusp_count", "delzant_report", "face_lattice"),
    "quotient": ("AutPresentation", "ChargeMatrix", "DiscriminantAntichain", "FanSymmetryGroup",
                 "QuotientGroupStructure", "aut_presentation", "charge_matrix",
                 "discriminant_locus", "fan_symmetry", "group_structure", "quotient_report"),
    "solenoid": ("PolarComplex", "ProfiniteInt", "SolenoidPoint", "cover_map", "nu", "phi",
                 "refine", "sol_exp"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name, or one of the modules that home them, imported on
    first access and then kept in the package namespace."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _PUBLIC:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})

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

from .cones import (
    HilbertBasis,
    RationalCone,
    affine_fiber_rank,
    cone_contains,
    dual_cone,
    fan_cone,
    hilbert_basis,
)
from .errors import DomainError, InputError, ToriqError
from .fans import Fan, build_fan, fan_from_dict, fan_to_dict, load_fan
from .homogeneous import (
    HomogeneousPoint,
    TorusElement,
    act,
    check_equivariance,
    in_discriminant,
    power_map,
    same_orbit,
)
from .intlinalg import IntMatrix, integer_kernel, primitive, smith_normal_form
from .moment import FaceLattice, cusp_count, delzant_report, face_lattice
from .quotient import (
    AutPresentation,
    ChargeMatrix,
    DiscriminantAntichain,
    FanSymmetryGroup,
    QuotientGroupStructure,
    aut_presentation,
    charge_matrix,
    discriminant_locus,
    fan_symmetry,
    group_structure,
    quotient_report,
)
from .solenoid import (
    PolarComplex,
    ProfiniteInt,
    SolenoidPoint,
    cover_map,
    nu,
    phi,
    refine,
    sol_exp,
)

__version__ = "0.1.0"

__all__ = [
    "AutPresentation",
    "ChargeMatrix",
    "DiscriminantAntichain",
    "DomainError",
    "FaceLattice",
    "Fan",
    "FanSymmetryGroup",
    "HilbertBasis",
    "HomogeneousPoint",
    "InputError",
    "IntMatrix",
    "PolarComplex",
    "ProfiniteInt",
    "QuotientGroupStructure",
    "RationalCone",
    "SolenoidPoint",
    "ToriqError",
    "TorusElement",
    "act",
    "affine_fiber_rank",
    "aut_presentation",
    "build_fan",
    "charge_matrix",
    "check_equivariance",
    "cone_contains",
    "cover_map",
    "cusp_count",
    "delzant_report",
    "discriminant_locus",
    "dual_cone",
    "face_lattice",
    "fan_cone",
    "fan_from_dict",
    "fan_symmetry",
    "fan_to_dict",
    "group_structure",
    "hilbert_basis",
    "in_discriminant",
    "integer_kernel",
    "load_fan",
    "nu",
    "phi",
    "power_map",
    "primitive",
    "quotient_report",
    "refine",
    "same_orbit",
    "smith_normal_form",
    "sol_exp",
]

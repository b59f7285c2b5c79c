"""Homogeneous quotient data of a fan: charge matrix, quotient group,
discriminant locus, fan symmetry, and the automorphism presentation of the
profinite completion.

The charge matrix and the quotient group come from the ray lattice of the
fan, computed once per fan (``Fan.ray_lattice``; Cox, J. Algebraic Geom.
4 (1995)): the Hermite form H of the ray matrix M and the canonical
(Hermite) basis of the relations among its rows, transposed into the
charge matrix Q, so that its columns span the relations
sum_i Q[i][j] * v_i = 0 among the primitive ray generators.  Both are read
off the lex-last ray basis B: with |det B| = 1 directly, else by a Hermite
form modulo |det B|.  The quotient group G (kernel of the evaluation map
from the big torus to the lattice torus) has free rank
``n_rays - lattice_rank`` plus one finite cyclic factor per invariant
factor of H (equal to those of M) exceeding 1; when the rays span, H = I
and there is none.

The discriminant locus (primitive collections) is read off the face list,
one ray bit mask per cone, and off the fan's ray-incidence index.

The fan symmetry is computed as the ray permutations fixing every row of Q
and mapping every maximal cone into a cone, a question the fan's incidence
index answers per cone.  Such a bijection maps the finite set of cones into
itself injectively, so it permutes the cones, the maximal cones and the
discriminant antichain; conversely, permuting the antichain fixes the cones,
the ray sets holding no antichain member.  Row equality reproduces the
known symmetry groups of the classical examples; the cone filter is a no-op
on those but guards degenerate inputs.  So every such permutation preserves
the maximal cones, and the reported flag is true by that argument, not
tested again; ``test_fan_index.test_preserves_maximal_cones_on_a_wide_corpus``
runs the index test on every generator of a wide corpus of fans.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product as iproduct
from math import factorial, prod

from .errors import IncompleteFanError, ResourceLimitError, _check_int, _check_type
from .fans import Fan, _cached
from .intlinalg import IntMatrix, smith_normal_form

Permutation = tuple[int, ...]  # one-line form: i -> perm[i]

_ENUMERATION_CAP = 500_000


@dataclass(frozen=True)
class ChargeMatrix:
    """n_rays x s integer matrix with Hermite-canonical columns."""

    matrix: IntMatrix

    @property
    def n_rays(self) -> int:
        return self.matrix.rows

    @property
    def torus_rank(self) -> int:
        return self.matrix.cols

    def row(self, i: int):
        _check_int(i, f"ChargeMatrix.row: i must be an integer in [0, {self.n_rays}), got {{}}", 0,
                   below=self.n_rays)
        return self.matrix.entries[i]


@dataclass(frozen=True)
class QuotientGroupStructure:
    torus_rank: int
    torsion_factors: tuple[int, ...]

    @property
    def has_torsion(self) -> bool:
        return bool(self.torsion_factors)

    def describe(self) -> str:
        parts = []
        if self.torus_rank:
            parts.append(f"(C*)^{self.torus_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion_factors)
        return " x ".join(parts) if parts else "1"


@dataclass(frozen=True)
class DiscriminantAntichain:
    """Minimal ray-index sets generating no cone (0-based, sorted)."""

    minimal_subsets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FanSymmetryGroup:
    row_classes: tuple[tuple[int, ...], ...]
    generators: tuple[Permutation, ...]
    order: int
    structure_name: str
    preserves_maximal_cones: bool
    torsion_warning: bool


@dataclass(frozen=True)
class AutPresentation:
    """Automorphism data of the completed variety: finite fan symmetry
    extended by the solenoidal torus of rank ``n_rays - torus_rank``."""

    finite_part: FanSymmetryGroup
    solenoidal_torus_rank: int
    torsion_factors: tuple[int, ...]

    def describe(self) -> str:
        return f"{self.finite_part.structure_name} x| (C*_Q)^{self.solenoidal_torus_rank}"


@_cached(Fan)
def charge_matrix(fan: Fan) -> ChargeMatrix:
    """Canonical relation matrix among the primitive ray generators."""
    return ChargeMatrix(fan.ray_lattice()[1].transpose())


@_cached(Fan)
def group_structure(fan: Fan) -> QuotientGroupStructure:
    """Free rank and invariant factors of the quotient group: none when the
    rays span the lattice (H = I), else the Smith form of the square H."""
    h, _ = fan.ray_lattice()
    torsion = ()
    if any(h.entries[i][i] != 1 for i in range(h.rows)):
        _, d, _ = smith_normal_form(h)
        torsion = tuple(d.entries[i][i] for i in range(h.rows) if d.entries[i][i] > 1)
    return QuotientGroupStructure(fan.n_rays - fan.lattice_rank, torsion)


@_cached(Fan)
def discriminant_locus(fan: Fan) -> DiscriminantAntichain:
    """Primitive collections: the minimal ray subsets generating no cone.

    Every proper subset of a primitive collection is a cone, so it has at
    most max-cone-size + 1 rays.  Each one S arises exactly once as
    F + (j,) with F = S minus max(S) a cone and j > max(F).  Let ext(F) be
    the bit mask of the rays j > max(F) with F + (j,) a cone, one OR per
    face.  S is kept when j is not in ext(F) and every facet S - k is a
    cone: S minus max(F) when j is in ext(F[:-1]); for |F| = 2 the last one
    when j shares a maximal cone with max(F), one AND of incidence masks
    that screens larger F too, whose other facets take the incidence index.
    Faces come by size, then lexicographically, and j ascends, so the scan
    lists S in that order.  Cost: O(#cones) mask operations, plus one AND
    per candidate left and |F| incidence tests per one left with |F| > 2.
    """
    cones = fan.cones()
    ext, prefix_of, p = [0] * len(cones), [0] * len(cones), 0
    for i in range(1, len(cones)):
        # faces of one size come lexicographically, so their prefixes do too
        prefix = cones[i][:-1]
        while cones[p] != prefix:
            p += 1
        prefix_of[i] = p
        ext[p] |= 1 << cones[i][-1]
    star, minimal = fan._star, []
    for i in range(1, len(cones)):
        face = cones[i]
        new = ext[prefix_of[i]] & ~ext[i] & -(2 << face[-1])
        last = star[face[-1]] if len(face) > 1 else -1  # a ray F: -1 & star[j] = star[j] != 0
        while new:
            low = new & -new
            j = low.bit_length() - 1
            # for |F| <= 2 the masks and the AND were every facet test
            if last & star[j] and (len(face) < 3 or all(
                    fan._holders(face[:k] + face[k + 1:] + (j,)) for k in range(len(face) - 1))):
                minimal.append(face + (j,))
            new ^= low
    return DiscriminantAntichain(tuple(minimal))


def _row_classes(q: IntMatrix) -> tuple[tuple[int, ...], ...]:
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(q.entries):
        groups.setdefault(row, []).append(i)
    return tuple(sorted((tuple(v) for v in groups.values()), key=lambda c: c[0]))


def _adjacent_transpositions(classes, n) -> list[Permutation]:
    gens = []
    for cls in classes:
        for a, b in zip(cls, cls[1:]):
            perm = list(range(n))
            perm[a], perm[b] = perm[b], perm[a]
            gens.append(tuple(perm))
    return gens


def _closure(generators, n) -> set[Permutation]:
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                gh = tuple(g[h[i]] for i in range(n))
                if gh not in group:
                    group.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return group


def _minimal_generators(group: set[Permutation], n) -> list[Permutation]:
    identity = tuple(range(n))
    gens: list[Permutation] = []
    span = {identity}
    for g in sorted(group):
        if g in span:
            continue
        gens.append(g)
        span = _closure(gens, n)
        if len(span) == len(group):
            break
    return gens


def _structure_name(group_order: int, orbit_sizes: list[int], is_full_product: bool) -> str:
    if group_order == 1:
        return "1"
    if not is_full_product:
        return f"group of order {group_order}"
    names = []
    for size in sorted((s for s in orbit_sizes if s > 1), reverse=True):
        names.append("Z_2" if size == 2 else f"S_{size}")
    return " x ".join(names)


def _preserves_cones(perm: Permutation, fan: Fan) -> bool:
    """Does the ray bijection map every maximal cone into a cone?"""
    return all(fan._holders([perm[i] for i in c]) for c in fan.maximal_cones)


@_cached(Fan)
def fan_symmetry(fan: Fan) -> FanSymmetryGroup:
    """Ray permutations fixing the charge matrix row-wise and preserving
    the cones.

    When every antichain member is a union of row classes, every such
    permutation fixes the antichain, so the cone filter is vacuous and the
    group is the full product of symmetric groups on the classes; otherwise
    the subgroup is enumerated (desk-scale inputs only).  Either way every
    generator preserves the maximal cones, so ``preserves_maximal_cones``
    is true without a test: a transposition within one row class fixes
    each antichain member, hence the cones, and an enumerated generator is
    a member that passed ``_preserves_cones``.
    """
    n = fan.n_rays
    q = charge_matrix(fan).matrix
    torsion = group_structure(fan).has_torsion
    classes = _row_classes(q)

    # t is a union of row classes iff every class meeting t lies inside t;
    # only classes of more than one ray can fail that
    class_of = {i: cls for cls in classes if len(cls) > 1 for i in cls}
    filter_vacuous = not class_of or all(
        j in t for t in discriminant_locus(fan).minimal_subsets
        for i in t if i in class_of for j in class_of[i]
    )
    total = _product_of_factorials(len(c) for c in classes)

    if filter_vacuous:
        order = total
        generators = tuple(_adjacent_transpositions(classes, n))
        orbit_sizes = [len(c) for c in classes]
        name = _structure_name(order, orbit_sizes, True)
    elif total > _ENUMERATION_CAP:
        raise ResourceLimitError(
            f"fan_symmetry: {total} candidate permutations for {n} rays "
            f"(row class sizes {[len(c) for c in classes]}) exceed the cap "
            f"of {_ENUMERATION_CAP}"
        )
    else:
        members = []
        pools = [list(permutations(cls)) for cls in classes]

        def assemble(choice):
            perm = [0] * n
            for cls, images in zip(classes, choice):
                for src, dst in zip(cls, images):
                    perm[src] = dst
            return tuple(perm)

        for choice in iproduct(*pools):
            perm = assemble(choice)
            if _preserves_cones(perm, fan):
                members.append(perm)
        group = set(members)
        order = len(group)
        generators = tuple(_minimal_generators(group, n))
        orbits = _orbits(group, n)
        orbit_sizes = [len(o) for o in orbits]
        full = order == _product_of_factorials(orbit_sizes)
        name = _structure_name(order, orbit_sizes, full)

    return FanSymmetryGroup(
        row_classes=classes,
        generators=generators,
        order=order,
        structure_name=name,
        preserves_maximal_cones=True,
        torsion_warning=torsion,
    )


def _orbits(group, n) -> list[tuple[int, ...]]:
    seen = set()
    orbits = []
    for i in range(n):
        if i in seen:
            continue
        orbit = {perm[i] for perm in group} | {i}
        orbits.append(tuple(sorted(orbit)))
        seen |= orbit
    return orbits


def _product_of_factorials(sizes) -> int:
    return prod(map(factorial, sizes))


@_cached(Fan)
def aut_presentation(fan: Fan) -> AutPresentation:
    """Finite fan symmetry extended by the residual solenoidal torus.

    Needs a complete fan: only then do the cusps and invariant divisors pin
    the automorphisms down to this form.
    """
    if not fan.complete:
        raise IncompleteFanError(
            "automorphism presentation requires a complete fan"
        )
    symmetry = fan_symmetry(fan)
    structure = group_structure(fan)
    return AutPresentation(
        finite_part=symmetry,
        solenoidal_torus_rank=fan.n_rays - structure.torus_rank,
        torsion_factors=structure.torsion_factors,
    )


def symmetry_report(fan: Fan) -> dict:
    sym = fan_symmetry(fan)
    return {
        "order": sym.order,
        "classes": [[i + 1 for i in c] for c in sym.row_classes],
        "generators": [[i + 1 for i in g] for g in sym.generators],
        "structure": sym.structure_name,
        "preserves_maximal_cones": sym.preserves_maximal_cones,
        "torsion_warning": sym.torsion_warning,
    }


def quotient_report(fan: Fan) -> dict:
    """JSON-ready quotient data; ray indices 1-based, keys fixed."""
    q = charge_matrix(_check_type(fan, Fan, "quotient_report: fan must be a Fan, got {}"))
    structure = group_structure(fan)
    disc = discriminant_locus(fan)
    report = {
        "charge_matrix": [list(row) for row in q.matrix.entries],
        "torus_rank": structure.torus_rank,
        "torsion": list(structure.torsion_factors),
        "discriminant": [[i + 1 for i in t] for t in disc.minimal_subsets],
        "symmetry": symmetry_report(fan),
    }
    if fan.complete:
        aut = aut_presentation(fan)
        report["aut"] = {
            "finite_part": aut.finite_part.structure_name,
            "torus_rank": aut.solenoidal_torus_rank,
        }
    else:
        report["aut"] = None
    return report

"""The exhaustive algorithms that the fast paths in ``toriq.cones`` and
``toriq.quotient`` replaced, kept as differential oracles.

Unlike ``oracles.py`` these reuse the library's exact primitives (kernels,
Smith forms, parallelepiped enumeration, ``Fan.is_cone``); what they keep is
the original search: every corank-one generator subset for a dual, every
independent generator subset for a Hilbert basis, and every ray subset for
the discriminant.  ``slow_hilbert_basis`` is ``toriq.cones.hilbert_basis``
with both searches put back, so the two must agree byte for byte.
"""

from __future__ import annotations

from itertools import combinations

from toriq.cones import (
    RationalCone,
    _direction_outside,
    _grlex_key,
    _kernel_columns,
    _lineality_reducer,
    _parallelepiped_points,
)
from toriq.intlinalg import IntMatrix, dot, inverse_unimodular, primitive, smith_normal_form


def slow_dual_cone(sigma: RationalCone) -> RationalCone:
    """Dual cone by scanning all C(k, rho - 1) generator subsets."""
    n = sigma.ambient_rank
    gens = sigma.generators
    lineality = _kernel_columns(list(gens), n)
    ell = len(lineality)
    rho = n - ell
    out: set = set()
    for b in lineality:
        out.add(b)
        out.add(tuple(-x for x in b))
    if rho > 0:
        reduce_mod = _lineality_reducer(lineality, n)
        for subset in combinations(range(len(gens)), rho - 1):
            rows = [gens[i] for i in subset]
            if rows and IntMatrix.from_rows(rows, n).rank() != rho - 1:
                continue
            kernel = _kernel_columns(rows, n)
            if len(kernel) != ell + 1:
                continue
            u = _direction_outside(kernel, lineality, n)
            if u is None:
                continue
            if all(dot(g, u) >= 0 for g in gens):
                ray = u
            elif all(dot(g, u) <= 0 for g in gens):
                ray = tuple(-x for x in u)
            else:
                continue
            out.add(primitive(reduce_mod(ray)))
    return RationalCone(n, tuple(out))


def slow_pointed_hilbert_basis(gens, rank, dual_gens):
    """Parallelepiped points of every independent generator subset, closed
    by the irreducibility filter."""
    weight = tuple(sum(d[i] for d in dual_gens) for i in range(rank))
    candidates = set(gens)
    for size in range(1, min(len(gens), rank) + 1):
        for subset in combinations(gens, size):
            if IntMatrix.from_rows(list(subset), rank).rank() != size:
                continue
            candidates.update(_parallelepiped_points(list(subset), rank))
    candidates.discard((0,) * rank)
    graded = sorted(candidates, key=lambda x: (dot(weight, x), _grlex_key(x)))
    accepted = []
    accepted_by_grade = []
    for x in graded:
        wx = dot(weight, x)
        reducible = False
        for wy, y in accepted_by_grade:
            if wy >= wx:
                break
            z = tuple(a - b for a, b in zip(x, y))
            if all(dot(d, z) >= 0 for d in dual_gens):
                reducible = True
                break
        if not reducible:
            accepted.append(x)
            accepted_by_grade.append((wx, x))
    return accepted


def slow_hilbert_basis(cone: RationalCone) -> tuple:
    """Graded-lex sorted Hilbert basis generators, by the slow paths only."""
    n = cone.ambient_rank
    dual = slow_dual_cone(cone)
    lineality = _kernel_columns(list(dual.generators), n)
    if not lineality:
        gens = slow_pointed_hilbert_basis(cone.generators, n, dual.generators)
        return tuple(sorted(gens, key=_grlex_key))
    ell = len(lineality)
    out = []
    for b in lineality:
        out.append(b)
        out.append(tuple(-x for x in b))
    if ell < n:
        basis = IntMatrix(tuple(zip(*lineality)), ell)
        u, _, _ = smith_normal_form(basis)
        uinv = inverse_unimodular(u)
        proj_gens = []
        for g in cone.generators:
            img = u.mat_vec(g)[ell:]
            if any(img):
                proj_gens.append(img)
        if proj_gens:
            quotient = RationalCone.from_generators(n - ell, proj_gens)
            for h in slow_hilbert_basis(quotient):
                out.append(uinv.mat_vec((0,) * ell + tuple(h)))
    return tuple(sorted(set(out), key=_grlex_key))


def slow_discriminant_locus(fan) -> tuple:
    """Minimal ray subsets generating no cone, by an ascending-cardinality
    scan over all 2^n ray subsets, sorted like ``discriminant_locus``."""
    n = fan.n_rays
    minimal: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if any(set(t) <= set(subset) for t in minimal):
                continue
            if not fan.is_cone(subset):
                minimal.append(subset)
    return tuple(sorted(minimal, key=lambda t: (len(t), t)))

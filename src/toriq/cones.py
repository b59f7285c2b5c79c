"""Rational polyhedral cones: duals, lattice membership, Hilbert bases.

All computations are exact.  A cone is the set of nonnegative rational
combinations of its integer generators; a non-pointed cone carries its
lineality space as explicit plus/minus generator pairs.

Duals.  The extreme rays of ``{m : <m, v> >= 0 for all v}`` are kernels of
corank-one generator subsets.  When the generators split into plus/minus
pairs and a set independent modulo the pairs' span (every fan cone, every
dual of one, every quotient cone below), each independent generator owns
one ray, and one Smith form of the generators gives every ray.  Any other
cone falls back to scanning all corank-one subsets.  The dual carries its
lineality basis, the generators' canonical kernel read off their lex-last
basis (``intlinalg._kernel_columns``), so ``lineality_basis`` need not
recompute it.

Hilbert bases.  A pointed cone in rank 2 with two generators is walked
along its boundary (Hirzebruch-Jung continued fraction), in steps
proportional to the size of the basis.  Any other pointed cone takes
candidates from the fundamental parallelepipeds of its maximal independent
generator subsets (a single one when the generators are linearly
independent).  The lattice points of a parallelepiped are the cosets of its
generators' lattice, read off one Smith form in integer arithmetic.  One
irreducibility filter, pairing-vector dominance under the degree-halving
bound (Bruns-Ichim, J. Algebra 324 (2010)), serves every such cone.  The
non-pointed case projects to the quotient by the lineality lattice (the
same projection that makes dual rays canonical) and recurses on the
pointed quotient.

Fiber ranks.  ``affine_fiber_rank`` counts the Hilbert basis of the dual of
a fan cone from the cone's k rays in rank n, without building it.  A
unimodular cone has rank 2n - k: a ray or a face of a maximal cone in
``fan._unimodular`` by the index check, before any ray is read, any other
cone with k < n when its rays' lattice has index 1 in its saturation.  A
singular 2-cone in any rank counts the walk of its pointed dual quotient
in O(log det) steps, collapsing each run of ``b = 2`` steps into one
division.  Only a singular cone with k >= 3 builds the dual's basis.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, islice, product
from math import prod
from operator import le, mul

from .errors import (DomainError, ResourceLimitError, _as_fraction, _check_int, _check_iterable,
                     _check_type, _shown, _trusted)
from .fans import Fan, _cached
from .intlinalg import (
    IntMatrix,
    IntVector,
    _bareiss,
    _hermite,
    _kernel_columns,
    dot,
    inverse_unimodular,
    primitive,
    smith_normal_form,
)


def _grlex_key(v: IntVector):
    return (sum(abs(x) for x in v), v)


@dataclass(frozen=True)
class RationalCone:
    """Cone of nonnegative combinations of the stored generators.

    Generators are stored primitive, deduplicated and graded-lex sorted;
    the empty generator tuple is the zero cone.  A cone may carry its
    lineality basis (see ``lineality_basis``); that is not part of its
    value, so equality, hashing and ``repr`` ignore it.
    """

    ambient_rank: int
    generators: tuple[IntVector, ...]
    _lineality = None  # not a field; see lineality_basis

    def __post_init__(self):
        _check_int(self.ambient_rank, "ambient rank must be positive", 1)
        gens = []
        for v in _check_iterable(self.generators, "RationalCone: generators must be an iterable "
                                 "of integer vectors, got {}", item=tuple):
            if len(v) != self.ambient_rank:
                raise DomainError(f"generator {_shown(v)} has wrong length")
            gens.append(primitive(v))
        object.__setattr__(
            self, "generators", tuple(sorted(set(gens), key=_grlex_key))
        )

    @classmethod
    def from_generators(cls, ambient_rank, generators) -> "RationalCone":
        return cls(ambient_rank, generators)

    @classmethod
    def _carrying(cls, ambient_rank: int, generators, lineality) -> "RationalCone":
        """Build carrying ``lineality``, without the per-generator check:
        ``generators`` must be primitive tuples of ``int`` of the right length."""
        return _trusted(cls, ambient_rank=ambient_rank,
                        generators=tuple(sorted(set(generators), key=_grlex_key)),
                        _lineality=tuple(lineality))

    @property
    def is_zero(self) -> bool:
        return not self.generators


@dataclass(frozen=True)
class HilbertBasis:
    """Minimal generating set of ``cone ∩ Z^n`` as an additive semigroup."""

    cone: RationalCone
    generators: tuple[IntVector, ...]

    @property
    def rank_r(self) -> int:
        return len(self.generators)


@_cached(RationalCone)
def dual_cone(sigma: RationalCone) -> RationalCone:
    """Generators of ``{m : <m, v> >= 0 for every generator v of sigma}``.

    Extreme rays are listed once; when the dual is not pointed its
    lineality space enters as a basis together with its negation.  Ray
    representatives are reduced modulo the lineality lattice so the output
    is canonical.

    ``_smith_rays`` gives the lineality basis (the generators' canonical
    kernel), which the output carries, and, when the generators split into
    plus/minus pairs and a set independent modulo their span, every ray.
    Other cones take their rays from ``_scanned_rays`` (every corank-one
    generator subset).  Both feed the same reduction, which is linear, so
    the output does not depend on the path.
    """
    n = sigma.ambient_rank
    gens = sigma.generators
    lineality, rays = _smith_rays(gens, n)
    rho = n - len(lineality)
    out: set[IntVector] = set()
    for b in lineality:
        out.add(b)
        out.add(tuple(-x for x in b))
    if rho > 0:
        project, lift = _lineality_quotient(lineality, n)
        if rays is None:
            rays = _scanned_rays(gens, rho, n)
        out.update(primitive(lift(project(ray))) for ray in rays)
    return RationalCone._carrying(n, out, lineality)


def _smith_rays(gens, rank):
    """The dual's ``(lineality, rays)``: the generators' kernel and the rays.

    P collects the generators whose negation is also a generator and R the
    rest.  ``U @ M @ V == D`` factors M = rows(R) then one row of each pair
    in P, with ``rho = rank - len(lineality)`` nonzero ``d_j``.  The rows
    ``j >= rho`` of U span the relations among the rows of M, so R is
    independent modulo span(P) exactly when they vanish on R.  Then, with
    ``top = d_(rho-1)``, the ray of ``r_i`` is ``V[:, :rho] @ (U[j][i] * top
    / d_j)``: M maps it to ``top * e_i``, so it is positive on ``r_i`` and
    zero on every other generator.  ``rays`` is ``None`` when the
    generators do not split so.
    """
    lineality = _kernel_columns(gens, rank)
    if not gens:
        return lineality, []
    gen_set = set(gens)
    rest, pairs = [], []
    for g in gens:
        neg = tuple(-x for x in g)
        if neg not in gen_set:
            rest.append(g)
        elif g > neg:
            pairs.append(g)
    u, d, v = smith_normal_form(_trusted(IntMatrix, entries=tuple(rest + pairs), cols=rank))
    diag = [d.entries[j][j] for j in range(rank - len(lineality))]
    rho, k = len(diag), len(rest)
    if any(u.entries[j][i] for j in range(rho, u.rows) for i in range(k)):
        return lineality, None
    top = diag[-1]
    rays = []
    for i in range(k):
        y = [u.entries[j][i] * (top // dj) for j, dj in enumerate(diag)]
        rays.append(tuple(dot(row[:rho], y) for row in v.entries))
    return lineality, rays


def _scanned_rays(gens, rho, rank):
    """Dual rays found by scanning all C(len(gens), rho - 1) subsets."""
    rays = []
    for rows in combinations(gens, rho - 1):
        kernel = _kernel_columns(rows, rank)
        if len(kernel) != rank - rho + 1:  # the rows have rank < rho - 1
            continue
        # the kernel is the lineality space plus one direction; a basis
        # vector is off the lineality space iff some generator sees it
        u = next(v for v in kernel if any(dot(g, v) for g in gens))
        if all(dot(g, u) >= 0 for g in gens):
            rays.append(u)
        elif all(dot(g, u) <= 0 for g in gens):
            rays.append(tuple(-x for x in u))
    return rays


def _lineality_quotient(lineality, rank):
    """``(project, lift)`` for Z^rank modulo the saturated lineality lattice.

    ``project`` gives coordinates in the quotient Z^(rank - ell) and
    ``lift`` maps them back along a fixed section, so ``lift(project(x))``
    is a canonical representative of x modulo the lattice.
    """
    if not lineality:
        return (lambda x: x), (lambda y: y)
    ell = len(lineality)
    u, _, _ = smith_normal_form(_trusted(IntMatrix, entries=tuple(zip(*lineality)), cols=ell))
    uinv = inverse_unimodular(u)
    return (
        lambda x: tuple(dot(row, x) for row in u.entries[ell:]),
        lambda y: tuple(dot(row[ell:], y) for row in uinv.entries),
    )


def lineality_basis(cone: RationalCone) -> list[IntVector]:
    """Saturated lattice basis of ``cone ∩ -cone``, in column Hermite form:
    carried by duals and quotient cones, computed once for any other cone."""
    if cone._lineality is None:
        basis = _kernel_columns(list(dual_cone(cone).generators), cone.ambient_rank)
        object.__setattr__(cone, "_lineality", tuple(basis))
    return list(cone._lineality)


def cone_contains(cone: RationalCone, point) -> bool:
    """Exact membership via the dual description.  Coordinates are integers
    or ``Fraction``s; a float or a non-rational one raises ``DomainError``."""
    _check_type(cone, RationalCone, "cone_contains: cone must be a RationalCone, got {}")
    point = _check_iterable(point, "cone_contains: point must be an iterable of rationals, got {}")
    p = tuple(x if type(x) is int else _as_fraction(x) for x in point)
    if len(p) != cone.ambient_rank:
        raise DomainError("point has wrong length")
    return all(dot(d, p) >= 0 for d in dual_cone(cone).generators)


_POINT_CAP = 2**20  # most rank-2 basis elements or parallelepiped candidates per basis


def _parallelepiped(subset: list[IntVector], rank: int):
    """``(size, points)`` for the lattice points of ``{sum t_i g_i : 0 <= t_i
    < 1}``, ``points`` lazy so that every size can be read before any point.

    The points are the cosets of the generators' lattice in the saturation
    of its span, and a Smith form ``U @ G^T @ V = D`` of the generator
    columns indexes them: ``G^T @ t`` is integral exactly when ``V^-1 @ t``
    has i-th coordinate in ``Z / d_i``, so there are ``prod(d_i)`` of them;
    a zero ``d_i`` marks dependent g_i, with size 0 and no points.  Each
    residue vector ``0 <= r_i < d_i`` gives ``t = V @ (r_i / d_i)``; over
    the common denominator ``d_k`` (every ``d_i`` divides it) ``t mod 1`` is
    ``(V @ (r_i * d_k / d_i) mod d_k) / d_k`` and the point
    ``G^T @ (t mod 1)`` is an exact integer quotient.
    """
    k = len(subset)
    _, d, v = smith_normal_form(_trusted(IntMatrix, entries=tuple(zip(*subset)), cols=k))
    diag = [d.entries[i][i] for i in range(k)]
    top = diag[-1]
    def points():
        for residues in product(*(range(di) for di in diag)):
            w = [r * (top // di) for r, di in zip(residues, diag)]
            t = [dot(row, w) % top for row in v.entries]
            yield tuple(sum(g[i] * tj for g, tj in zip(subset, t)) // top for i in range(rank))
    return prod(diag), points()


def _pointed_hilbert_basis(cone: RationalCone) -> list[IntVector]:
    """Hilbert basis of a pointed cone.

    Two independent generators in rank 2 take the boundary walk of
    ``_rank2_hilbert_basis``, with no candidates, no filter and no dual.
    Any other cone takes as candidates the generators and the lattice
    points of the fundamental parallelepiped of each maximal independent
    generator subset (``rho`` generators, ``rho`` the rank of the
    generators).  Every independent subset lies in a maximal one, and its
    parallelepiped is a ``t_i = 0`` face of the maximal one's, so no point
    of a smaller subset is missed.  Simplicial cones have exactly one such
    subset.  All ``rho``-subsets are sized before any is enumerated, and
    more than ``_POINT_CAP`` candidates raise ``ResourceLimitError``.

    Candidates are filtered in increasing grade ``s(x) = sum(p(x))``, where
    the pairing vector ``p(x)`` lists x's pairings with the dual generators.
    ``p(y) <= p(x)`` componentwise iff ``x - y`` lies in the cone, and a
    reducible x has a basis summand y with ``2 * s(y) <= s(x)`` (the
    degree-halving bound), so x is rejected iff an accepted such y has
    ``p(y) <= p(x)``.  One test serves simplicial and other cones alike.
    """
    gens, rank = cone.generators, cone.ambient_rank
    if not gens:
        return []
    rho = _bareiss(gens, rank)[0]
    if rho == len(gens) == rank == 2:
        return _rank2_hilbert_basis(*gens)
    parallelepipeds = [_parallelepiped(list(s), rank) for s in combinations(gens, rho)]
    size = sum(n for n, _ in parallelepipeds)
    if size > _POINT_CAP:
        raise ResourceLimitError(
            f"hilbert_basis: the cone spanned by {', '.join(map(_shown, gens))} has {_shown(size)} "
            f"candidates in the parallelepipeds of its {rho}-generator subsets, past the cap of {_POINT_CAP}"
        )
    dual_gens = dual_cone(cone).generators
    candidates: set[IntVector] = set(gens)
    for _, points in parallelepipeds:
        candidates.update(points)
    candidates.discard((0,) * rank)
    pairings = [tuple(sum(map(mul, d, x)) for d in dual_gens) for x in candidates]
    grades, accepted_pairings, accepted = [], [], []
    for s, p, x in sorted(zip(map(sum, pairings), pairings, candidates)):
        half = bisect_right(grades, s // 2)
        if not any(all(map(le, q, p)) for q in islice(accepted_pairings, half)):
            grades.append(s)
            accepted_pairings.append(p)
            accepted.append(x)
    return accepted


def _rank2_start(u: IntVector, w: IntVector) -> tuple[IntVector, int, int]:
    """``(e, p, q)``: the second boundary point and the first remainder pair
    of the Hirzebruch-Jung walk from u to w (see ``_rank2_hilbert_basis``).
    u must be primitive."""
    det = u[0] * w[1] - u[1] * w[0]
    sign = 1 if det > 0 else -1
    d = abs(det)
    # x*u0 + y*u1 == gcd(u) == 1; u1 == 0 forces u0 == ±1, and pow mod 1 is 0
    x = pow(u[0], -1, abs(u[1])) if u[1] else u[0]
    y = (1 - x * u[0]) // u[1] if u[1] else 0
    e = (-sign * y, sign * x)
    # w - d*e is a multiple c*u of u; (x, y) reads off c
    c = (w[0] - d * e[0]) * x + (w[1] - d * e[1]) * y
    t = -(-c // d)
    return (e[0] + t * u[0], e[1] + t * u[1]), c - d * t, d


def _rank2_count(p: int, q: int) -> int:
    """Size of the rank-2 Hilbert basis whose walk starts at the remainder
    pair ``(p, q)`` of ``_rank2_start``, in O(log q) steps.

    A walk step with ``b = 2`` keeps ``q + p`` fixed (``p < 0``), and such
    steps follow one another while ``q + p <= -p``, so one division counts
    the whole run: Euclid on the Riemenschneider dual of the continued
    fraction (Riemenschneider, Math. Ann. 209 (1974)).
    """
    count = 2
    while p:
        gap = q + p
        if gap <= -p:
            run = -p // gap
            p += run * gap
            q = gap - p
            count += run
        else:
            b = -(q // p)
            p, q = p * b + q, -p
            count += 1
    return count


def _rank2_hilbert_basis(u: IntVector, w: IntVector) -> list[IntVector]:
    """Hilbert basis of the cone spanned by independent primitive u, w in Z^2.

    The basis is the lattice boundary from u to w (Hirzebruch-Jung; Cox,
    Little and Schenck, *Toric Varieties*, 10.2).  With ``d = |det(u, w)|``
    and ``e`` the lattice point with ``det(u, e) = ±1`` (the sign of
    ``det(u, w)``) and ``w = d*e - k*u``, ``0 <= k < d``, the walk starts at
    ``u, e``.  While ``w = p*v_prev + q*v`` with ``p < 0`` it steps to
    ``b*v - v_prev``, ``b = ceil(q / -p)``; ``|p|`` strictly falls and the
    walk ends on ``w``.  The cost is one integer step per basis element, so
    a basis that ``_rank2_count`` puts above ``_POINT_CAP`` raises
    ``ResourceLimitError`` before the walk.
    """
    e, p, q = _rank2_start(u, w)
    size = _rank2_count(p, q)
    if size > _POINT_CAP:
        raise ResourceLimitError(
            f"hilbert_basis: the rank-2 cone spanned by {_shown(u)} and {_shown(w)} "
            f"has {_shown(size)} basis elements, past the cap of {_POINT_CAP}"
        )
    out = [u, e]
    prev, cur = u, e
    while p:
        b = -(q // p)
        prev, cur = cur, (b * cur[0] - prev[0], b * cur[1] - prev[1])
        p, q = p * b + q, -p
        out.append(cur)
    return out


@_cached(RationalCone)
def hilbert_basis(cone: RationalCone) -> HilbertBasis:
    """Minimal generating set of the semigroup of lattice points of a cone.

    A pointed cone goes to ``_pointed_hilbert_basis``, which picks the
    rank-2 boundary walk or the parallelepipeds of the maximal independent
    generator subsets (one for a simplicial cone).  For a non-pointed cone
    the lineality lattice contributes a basis and its negation, and the
    pointed quotient (built carrying its empty lineality) is handled
    recursively; its basis elements are lifted along a fixed section,
    keeping the output deterministic.  Output is graded-lex sorted.
    """
    n = cone.ambient_rank
    lineality = lineality_basis(cone)
    if not lineality:
        gens = _pointed_hilbert_basis(cone)
        return HilbertBasis(cone, tuple(sorted(gens, key=_grlex_key)))
    ell = len(lineality)
    out: list[IntVector] = []
    for b in lineality:
        out.append(b)
        out.append(tuple(-x for x in b))
    if ell < n:
        project, lift = _lineality_quotient(lineality, n)
        proj_gens = [primitive(img) for img in map(project, cone.generators) if any(img)]
        if proj_gens:
            quotient = RationalCone._carrying(n - ell, proj_gens, ())
            try:
                quotient_basis = hilbert_basis(quotient).generators
            except ResourceLimitError as exc:
                # name the caller's cone, not only the quotient coordinates
                raise ResourceLimitError(
                    f"hilbert_basis: the cone spanned by {', '.join(map(_shown, cone.generators))} "
                    f"has a pointed quotient by its lineality space where "
                    f"{str(exc).removeprefix('hilbert_basis: ')}"
                ) from None
            out.extend(map(lift, quotient_basis))
    return HilbertBasis(cone, tuple(sorted(set(out), key=_grlex_key)))


def _fan_cone_indices(fan: Fan, indices: tuple) -> tuple[tuple[int, ...], int]:
    """The sorted ray indices of a fan cone and the mask of the maximal
    cones holding it; a ray set that is no cone raises ``DomainError``."""
    idx, holders = fan._cone_indices(indices)
    if not holders:
        raise DomainError(f"{[i + 1 for i in idx]} is not a cone of the fan")
    return idx, holders


def fan_cone(fan: Fan, indices) -> RationalCone:
    """The cone of a fan spanned by the referenced rays (empty = zero cone)."""
    # fan rays are primitive and fan cones simplicial, hence pointed
    _check_type(fan, Fan, "fan_cone: fan must be a Fan, got {}")
    indices = _check_iterable(indices, "fan_cone: indices must be an iterable of ray indices, "
                              "got {}")
    idx = _fan_cone_indices(fan, indices)[0]
    return RationalCone._carrying(fan.lattice_rank, [fan.rays[i] for i in idx], ())


def affine_fiber_rank(fan: Fan, indices) -> int:
    """Semigroup rank of the dual of a fan cone.

    This is the number of Hilbert basis elements of the dual semigroup,
    i.e. the exponent r such that the covering fiber over the associated
    affine chart is the r-th power of the profinite integers.

    Fiber ranks.  The count comes from the cone's k rays without building
    the basis.  The dual is a lineality lattice of rank n - k, which
    contributes a basis and its negation, plus a pointed quotient dual to
    the cone in the saturation of the rays' span.  A unimodular cone has a
    unimodular quotient, so r = 2n - k.  Rays (fan rays are primitive) and
    faces of the maximal cones in ``fan._unimodular``, which holds every
    full-dimensional cone with |det| = 1, are unimodular; another cone with
    k < n is when the product of the pivots of its rays' column Hermite
    form, their lattice's index in its saturation, is 1.  A singular 2-cone
    has r = 2(n - 2) plus the basis size of the rank-2 cone of the normals
    to its rays, written in a basis of that saturation (the rays themselves
    when n = 2), which ``_rank2_count`` counts in O(log det) steps.  A
    singular cone with k >= 3 builds the Hilbert basis of its dual.
    """
    _check_type(fan, Fan, "affine_fiber_rank: fan must be a Fan, got {}")
    indices = _check_iterable(indices, "affine_fiber_rank: indices must be an iterable of ray "
                              "indices, got {}")
    idx, holders = _fan_cone_indices(fan, indices)
    n, k = fan.lattice_rank, len(idx)
    if k <= 1 or holders & fan._unimodular:
        return 2 * n - k
    rays = [fan.rays[i] for i in idx]
    if k < n:
        # column j of the top k x k block of h holds the coordinates of
        # ray j in a basis of the saturation of the rays' span
        h = [list(col) for col in zip(*rays)]
        _hermite(h)
        if prod(h[i][i] for i in range(k)) == 1:
            return 2 * n - k
    if k > 2:
        return hilbert_basis(dual_cone(RationalCone._carrying(n, rays, ()))).rank_r
    (a, b), (c, d) = rays if k == n else zip(*h[:2])
    # the normals to the two rays span the pointed dual or its negation,
    # which has a basis of the same size
    _, p, q = _rank2_start((-b, a), (d, -c))
    return 2 * (n - 2) + _rank2_count(p, q)

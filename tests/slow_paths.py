"""The exhaustive or rational-arithmetic algorithms that the fast paths in
``toriq.cones``, ``toriq.quotient`` and ``toriq.intlinalg`` replaced, kept as
differential oracles.

Unlike ``oracles.py`` these reuse some of the library's exact primitives
(kernels, Smith forms, the lineality quotient); what they keep is the
original search: every corank-one generator subset for a dual, one kernel
per facet for the rays of a split dual, every independent generator subset
for a Hilbert basis, and every ray subset for the discriminant.
``slow_is_cone``, ``slow_fan_cones`` and ``slow_fan_error`` are the fan
checks from before the ray-incidence index: a scan of the maximal cones per
query, 2^k index masks per maximal cone, and the pairwise containment loop
and facet-count dict of the constructor.  ``slow_rank2_start`` takes the
rank-2 Bezout pair from a gcd elimination of u.  They also keep the
original arithmetic: the parallelepiped enumeration by ``Fraction``
solves, the cross-multiplying rank and the ``Fraction`` Gauss-Jordan
inverse.  ``slow_hilbert_basis`` is
``toriq.cones.hilbert_basis`` with both searches and the old parallelepiped
enumeration put back, so the two must agree byte for byte.
``slow_lineality_basis`` recomputes a cone's lineality from the generators
of its dual, as every call did before dual cones carried it.
``slow_affine_fiber_rank`` builds the Hilbert basis of the dual of a fan
cone and takes its length, where ``affine_fiber_rank`` counts from the rays.
``slow_same_orbit`` factors every modulus ratio by trial division and
solves one integer system per prime, with new Smith forms on every call,
where ``same_orbit`` keeps one per fan and nonzero pattern.
``slow_smith_normal_form`` and ``slow_row_hermite_form`` are the normal forms from before they shared one
gcd step: each clears columns with its own loop, and Smith's column
operations run over every row.  ``slow_clear_column``, ``slow_hermite`` and
``slow_hermite_and_left_kernel`` are that gcd step and Hermite pass from
before transforms rode in identity columns: they repeat every row
operation on a separate transform T, and the left kernel takes a second
Hermite pass.  ``hermite_and_left_kernel`` is the library's augmented
Hermite pass over ``[a | I]``, kept verbatim on the library's
``_hermite``: it gave the kernels of ``cones`` and ``integer_kernel``
before every canonical kernel was read off the lex-last basis
(``intlinalg._basis_kernel``).  ``slow_integer_kernel``,
``slow_charge_matrix`` and ``slow_group_structure`` are the lattice data
from before one Hermite pass gave them all: the kernel from a Smith form
and a column Hermite form (``_smith_kernel``, which also gave dual cones
their lineality), the charge matrix as the kernel of the
transposed ray matrix, and the group from a second Smith form of the ray
matrix itself.  ``solve_integer`` solves an integer system through a Smith
form; the library no longer needs one.  ``slow_in_discriminant`` and
``slow_fan_symmetry`` answer point validity and fan automorphisms from the
discriminant antichain, as before both read the fan's incidence index: a
subset test per primitive collection, and the row-class permutations that
map the antichain onto itself.  ``slow_parse_expression`` is the K-ring
parser from before one term pattern scanned the text: a sign-splitting
state machine, then one anchored match per chunk.  ``slow_oracle_reduce``
is ``kring.oracle_reduce`` from before it split the largest exponent
first: each step rebuilds the pending list from the whole table and
splits a random entry of it, so an exponent can be split, rebuilt by a
later split and split again.  ``slow_worklist_oracle_reduce`` is
``kring.oracle_reduce`` from before it ran on integers alone: the same
largest-first worklist on ``Fraction`` grid steps, with ``(-|k|, k)``
heap tuples, a ``bump`` closure per new term, ``randint`` split points and
the coefficient of x^0 in the table.  ``slow_face_lattice``
sorts and counts the cones that ``moment.face_lattice`` now slices from the
face list.  ``slow_discriminant_scan`` is the primitive-collection scan from
before it read ray masks: hash lookups of every F + (j,) and its facets
in the set of cones.  ``slow_integer_root`` finds every root, square roots too, by
bisection over the root's bits, as ``solenoid._integer_root`` did before
squares went to ``math.isqrt``.  ``slow_act``, ``slow_power_map``,
``slow_check_equivariance`` and ``slow_pow_int`` are the torus action, the
power map, the equivariance check and ``PolarComplex.pow_int`` from before
they ran on integer parts: ``Fraction`` products and sums, each power
capped by ``slow_capped_pow`` on the ``Fraction`` modulus, and every result
built by the validating constructors; the equivariance check builds both
sides, and the action has no cap on the sum of a coordinate's factor sizes.  ``slow_act_per_entry`` is the action
from before it took one pass per coordinate: one ``slow_pow_int`` per
nonzero charge entry, and each product built by the validating
``PolarComplex`` constructor.  ``slow_bareiss`` is ``intlinalg._bareiss`` from before small
square inputs took the cofactor formula and the elimination stopped
copying rows: every row below a pivot is rewritten.
``slow_formal_sum_terms`` is the body of ``FormalSum.__post_init__`` from
before terms merged on integer (numerator, denominator) keys: it hashes and
sorts the ``Fraction`` exponents themselves.  ``slow_balanced`` is the
per-character depth loop that ``parse_expression`` ran before it cancelled
adjacent ``()`` pairs, and ``slow_polar_parts`` the ``PolarComplex``
constructor from before it read its parts off the ``Fraction`` arguments,
which are already in lowest terms: a ``Fraction`` sign test and the two
gcds of ``_reduced``.  ``slow_multiplicity`` is
``homogeneous._multiplicity`` from before it divided by repeated squares
of the base: one division by b per unit of the exponent.
"""

from __future__ import annotations

import heapq
import random
import re
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

from toriq.cones import (
    RationalCone,
    _grlex_key,
    _kernel_columns,
    _lineality_quotient,
    dual_cone,
    fan_cone,
    hilbert_basis,
)
from toriq.errors import (
    DomainError,
    ExpressionError,
    FanValidationError,
    LevelMismatchError,
    ResourceLimitError,
    TorusFactorError,
)
from toriq.homogeneous import HomogeneousPoint, TorusElement
from toriq.intlinalg import (
    IntMatrix,
    _augmented,
    _clear_column,
    _hermite,
    _negate_row,
    _row_sub,
    _swap_rows,
    _trusted,
    dot,
    primitive,
    smith_normal_form,
)
from toriq.kring import FormalSum, KRingElement
from toriq.moment import FaceLattice
from toriq.quotient import (
    _ENUMERATION_CAP,
    ChargeMatrix,
    FanSymmetryGroup,
    QuotientGroupStructure,
    _adjacent_transpositions,
    _minimal_generators,
    _orbits,
    _product_of_factorials,
    _row_classes,
    _structure_name,
    charge_matrix,
    discriminant_locus,
    group_structure,
)
from toriq.solenoid import _POW_BITS_CAP, PolarComplex, _as_fraction, _reduced


def _direction_outside(kernel, lineality, rank):
    """A kernel basis vector independent of the lineality columns."""
    if not lineality:
        return kernel[0] if kernel else None
    base = IntMatrix.from_rows(lineality, rank).rank()
    for u in kernel:
        if IntMatrix.from_rows(lineality + [u], rank).rank() > base:
            return u
    return None


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
        project, lift = _lineality_quotient(lineality, n)
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
            out.add(primitive(lift(project(ray))))
    return RationalCone(n, tuple(out))


def slow_lineality_basis(cone: RationalCone) -> list:
    """Saturated basis of ``cone ∩ -cone``: the kernel of the generators of
    the dual, never read from a basis a cone carries."""
    return _kernel_columns(list(dual_cone(cone).generators), cone.ambient_rank)


def slow_split_rays(gens, rho, rank):
    """Dual rays of ``span(P) + cone(R)`` for R independent modulo span(P),
    by one kernel per facet.

    P collects the generators whose negation is also a generator.  The
    dual ray of r in R is the kernel direction of ``P + R - {r}`` that is
    positive on r.  Returns ``None`` when the generators do not split so.
    """
    gen_set = set(gens)
    pairs, rest = [], []
    for g in gens:
        (pairs if tuple(-x for x in g) in gen_set else rest).append(g)
    pair_rank = IntMatrix.from_rows(pairs, rank).rank() if pairs else 0
    if pair_rank + len(rest) != rho:
        return None
    rays = []
    for i, r in enumerate(rest):
        kernel = _kernel_columns(pairs + rest[:i] + rest[i + 1:], rank)
        # kernel vectors vanish on every generator but r; those off the
        # lineality space are exactly those not vanishing on r
        u = next(v for v in kernel if dot(v, r) != 0)
        rays.append(u if dot(u, r) > 0 else tuple(-x for x in u))
    return rays


def slow_pointed_hilbert_basis(gens, rank, dual_gens):
    """Parallelepiped points of every independent generator subset, closed
    by the irreducibility filter."""
    weight = tuple(sum(d[i] for d in dual_gens) for i in range(rank))
    candidates = set(gens)
    for size in range(1, min(len(gens), rank) + 1):
        for subset in combinations(gens, size):
            if IntMatrix.from_rows(list(subset), rank).rank() != size:
                continue
            candidates.update(slow_parallelepiped_points(list(subset), rank))
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
        project, lift = _lineality_quotient(lineality, n)
        proj_gens = [img for img in map(project, cone.generators) if any(img)]
        if proj_gens:
            quotient = RationalCone.from_generators(n - ell, proj_gens)
            out.extend(map(lift, slow_hilbert_basis(quotient)))
    return tuple(sorted(set(out), key=_grlex_key))


def slow_affine_fiber_rank(fan, indices) -> int:
    """Size of the Hilbert basis of the dual of a fan cone, built in full."""
    return hilbert_basis(dual_cone(fan_cone(fan, indices))).rank_r


def slow_rank2_start(u, w) -> tuple:
    """``cones._rank2_start`` with the Bezout pair of u read off a gcd
    elimination of the column u, its transform carried in identity columns."""
    det = u[0] * w[1] - u[1] * w[0]
    sign = 1 if det > 0 else -1
    d = abs(det)
    rows = [[u[0], 1, 0], [u[1], 0, 1]]
    # least nonzero entry first, row 0 on ties, as the Hermite pivot choice
    if not u[0] or (u[1] and abs(u[1]) < abs(u[0])):
        rows.reverse()
    while _clear_column(rows, 0, 0) is not None:
        pass
    g, x, y = rows[0]
    if g < 0:
        x, y = -x, -y
    e = (-sign * y, sign * x)
    c = (w[0] - d * e[0]) * x + (w[1] - d * e[1]) * y
    t = -(-c // d)
    return (e[0] + t * u[0], e[1] + t * u[1]), c - d * t, d


def slow_is_cone(fan, indices) -> bool:
    """Is some maximal cone a superset of the listed rays?"""
    s = frozenset(indices)
    for i in s:
        if not (0 <= i < fan.n_rays):
            raise FanValidationError(f"ray index {i + 1} out of range")
    return any(s <= set(c) for c in fan.maximal_cones)


def slow_fan_cones(fan) -> tuple:
    """Every face of every maximal cone, one per index mask, deduplicated and
    sorted like ``Fan.cones``."""
    found = set()
    for cone in fan.maximal_cones:
        k = len(cone)
        for mask in range(1 << k):
            found.add(tuple(cone[i] for i in range(k) if mask >> i & 1))
    return tuple(sorted(found, key=lambda c: (len(c), c)))


def slow_fan_error(lattice_rank, rays, maximal_cones, complete=False):
    """The first message the ``Fan`` constructor's maximal-cone checks raise,
    or None; the rays must pass the ray checks.  Containment is tested over
    every ordered pair of cones, and facets are counted in a dict."""
    seen = set()
    for k, cone in enumerate(maximal_cones):
        if not cone:
            return f"maximal_cones[{k + 1}]: empty cone"
        if tuple(sorted(set(cone))) != tuple(cone):
            return f"maximal_cones[{k + 1}]: indices must be sorted and distinct"
        for i in cone:
            if not (0 <= i < len(rays)):
                return f"maximal_cones[{k + 1}]: ray index {i + 1} out of range"
        if cone in seen:
            return f"maximal_cones[{k + 1}]: duplicate cone"
        seen.add(cone)
        if slow_rank(IntMatrix.from_rows([rays[i] for i in cone], lattice_rank)) != len(cone):
            return (
                f"maximal_cones[{k + 1}]: generators are linearly dependent "
                "(only simplicial cones are supported)"
            )
    for a in maximal_cones:
        for b in maximal_cones:
            if a != b and set(a) <= set(b):
                return f"maximal_cones: cone {[i + 1 for i in a]} is contained in {[i + 1 for i in b]}"
    used = {i for cone in maximal_cones for i in cone}
    for i in range(len(rays)):
        if i not in used:
            return f"rays[{i + 1}]: ray is not used by any cone"
    if not complete:
        return None
    if slow_rank(IntMatrix.from_rows(rays, lattice_rank)) != lattice_rank:
        return "complete: rays of a complete fan must span the lattice"
    for k, cone in enumerate(maximal_cones):
        if len(cone) != lattice_rank:
            return f"complete: maximal_cones[{k + 1}] is not full-dimensional"
    facet_count = {}
    for cone in maximal_cones:
        for drop in cone:
            facet = tuple(i for i in cone if i != drop)
            facet_count[facet] = facet_count.get(facet, 0) + 1
    for facet, count in facet_count.items():
        if count != 2:
            return (
                f"complete: facet {[i + 1 for i in facet]} lies in {count} maximal cones, "
                "expected exactly 2"
            )
    return None


def _saturation_basis(vectors, rank):
    """Basis of ``span(vectors) ∩ Z^rank`` (the saturated column lattice)."""
    orth = _kernel_columns(vectors, rank)
    return _kernel_columns(orth, rank)


def _solve_fraction(a: IntMatrix, b) -> list:
    """Unique rational solution of ``a @ x = b`` for injective ``a``."""
    m, n = a.rows, a.cols
    work = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a.entries, b)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    if r < n:
        raise DomainError("system is underdetermined")
    for i in range(r, m):
        if work[i][n] != 0:
            raise DomainError("system is inconsistent")
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = work[i][n]
    return x


def slow_parallelepiped_points(subset, rank):
    """Lattice points of ``{sum t_i g_i : 0 <= t_i < 1}`` for independent g_i,
    as coset representatives of the generators' lattice inside a basis of
    its saturation, found by ``Fraction`` solves."""
    k = len(subset)
    basis = _saturation_basis(subset, rank)
    bmat = IntMatrix(tuple(zip(*basis)), k)
    coords = []
    for g in subset:
        h = _solve_fraction(bmat, g)
        assert all(x.denominator == 1 for x in h)  # saturation guarantees integrality
        coords.append(tuple(x.numerator for x in h))
    h = IntMatrix.from_rows(coords, k).transpose()  # columns = generators in basis coords
    u, d, _ = smith_normal_form(h)
    uinv = slow_inverse_unimodular(u)
    hinv_cols = [_solve_fraction(h, tuple(int(i == j) for i in range(k))) for j in range(k)]
    points = []
    for residues in product(*(range(d.entries[i][i]) for i in range(k))):
        rep = uinv.mat_vec(residues)
        t = [sum(hinv_cols[j][i] * rep[j] for j in range(k)) for i in range(k)]
        frac = [x - (x.numerator // x.denominator) for x in t]
        y = [sum(coords[j][i] * frac[j] for j in range(k)) for i in range(k)]
        assert all(x.denominator == 1 for x in y)
        point = tuple(
            sum(basis[j][i] * int(y[j]) for j in range(k)) for i in range(rank)
        )
        points.append(point)
    return points


def slow_bareiss(rows, cols: int) -> tuple[int, int]:
    """Fraction-free row echelon (Bareiss, Math. Comp. 22 (1968)).

    Returns the rank and the last pivot, negated once per row swap (1 when
    the rank is 0).  After ``r`` pivots every entry below them is an
    ``(r + 1)``-minor of the input, so each division by the previous pivot
    is exact and entries stay the size of minors.  For a square matrix of
    full rank the signed last pivot is the determinant.
    """
    a = [list(row) for row in rows]
    m = len(a)
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == m:
            break
        pivot = next((i for i in range(rank, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, m):
            row = a[i]
            q = row[c]
            for j in range(c + 1, cols):
                row[j] = (row[j] * p - q * top[j]) // prev
        prev = p
        rank += 1
    return rank, sign * prev


def slow_rank(a: IntMatrix) -> int:
    """Rank over the rationals, via integer cross-multiplication echelon."""
    rows = [list(row) for row in a.entries]
    m, n = a.rows, a.cols
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, m):
            if rows[i][c] != 0:
                p, q = rows[r][c], rows[i][c]
                rows[i] = [p * rows[i][j] - q * rows[r][j] for j in range(n)]
        r += 1
        if r == m:
            break
    return r


def slow_smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``U``, diagonal ``D`` and unimodular ``V`` with
    ``U @ a @ V == D``, the diagonal nonnegative with ``d_i | d_{i+1}``.

    Classic elimination: repeatedly move a least-magnitude entry to the
    pivot, clear its row and column, and absorb any entry the pivot fails
    to divide.  Deterministic pivot choice keeps results reproducible.
    """
    if a.is_empty:
        raise DomainError("smith_normal_form requires a nonempty matrix")
    m, n = a.rows, a.cols
    A = [list(row) for row in a.entries]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    # column operations act on V; run them on the rows of its transpose
    Vt = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_swap(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        _swap_rows(Vt, j, k)

    def col_sub(j, t, q):
        # col_j -= q * col_t
        for row in A:
            row[j] -= q * row[t]
        _row_sub(Vt, j, t, q)

    def min_entry(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        return best

    t = 0
    while t < min(m, n):
        best = min_entry(t)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            _swap_rows(A, t, pi)
            _swap_rows(U, t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    if q:
                        _row_sub(A, i, t, q)
                        _row_sub(U, i, t, q)
                    if A[i][t] != 0:
                        dirty = True
            if dirty:
                i0 = min(
                    (i for i in range(t, m) if A[i][t] != 0),
                    key=lambda i: (abs(A[i][t]), i),
                )
                if i0 != t:
                    _swap_rows(A, t, i0)
                    _swap_rows(U, t, i0)
                continue
            # clear the pivot row
            dirty = False
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    if q:
                        col_sub(j, t, q)
                    if A[t][j] != 0:
                        dirty = True
            if dirty:
                j0 = min(
                    (j for j in range(t, n) if A[t][j] != 0),
                    key=lambda j: (abs(A[t][j]), j),
                )
                if j0 != t:
                    col_swap(t, j0)
                continue
            # pivot must divide the remaining block for the chain to hold
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _row_sub(A, t, offender, -1)  # row_t += row_offender
            _row_sub(U, t, offender, -1)
        if A[t][t] < 0:
            _negate_row(A, t)
            _negate_row(U, t)
        t += 1

    return (
        _trusted(IntMatrix, entries=tuple(map(tuple, U)), cols=m),
        _trusted(IntMatrix, entries=tuple(map(tuple, A)), cols=n),
        _trusted(IntMatrix, entries=tuple(zip(*Vt)), cols=n),
    )


def slow_row_hermite_form(a: IntMatrix) -> IntMatrix:
    """Canonical row-style Hermite form (row span preserved).

    Echelon with positive pivots; entries above each pivot reduced into
    ``[0, pivot)``.  Zero rows are dropped.
    """
    if a.cols == 0:
        return IntMatrix((), a.cols)
    A = [list(row) for row in a.entries]
    m, n = len(A), a.cols
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if A[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(A[i][c]), i))
            if i0 != r:
                _swap_rows(A, r, i0)
            done = True
            for i in range(r + 1, m):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    _row_sub(A, i, r, q)
                    if A[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and A[r][c] != 0:
            if A[r][c] < 0:
                _negate_row(A, r)
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    _row_sub(A, i, r, q)
            r += 1
            if r == m:
                break
    return _trusted(IntMatrix, entries=tuple(map(tuple, A[:r])), cols=n)


def slow_clear_column(A, T, t, c):
    """``intlinalg._clear_column`` from before transforms rode in identity
    columns: every row operation on A is repeated on T."""
    p = A[t][c]
    least = None
    for i in range(t + 1, len(A)):
        x = A[i][c]
        if x:
            q = x // p
            if q:
                _row_sub(A, i, t, q)
                _row_sub(T, i, t, q)
            x = A[i][c]
            if x and (least is None or abs(x) < abs(A[least][c])):
                least = i
    if least is not None:
        _swap_rows(A, t, least)
        _swap_rows(T, t, least)
    return least


def slow_hermite(A, T) -> int:
    """``intlinalg._hermite`` with a separate transform T (which may have no
    columns), returning the rank."""
    m, n = len(A), len(A[0]) if A else 0
    r = 0
    for c in range(n):
        if r == m:
            break
        nonzero = [i for i in range(r, m) if A[i][c]]
        if not nonzero:
            continue
        i0 = min(nonzero, key=lambda i: (abs(A[i][c]), i))
        if i0 != r:
            _swap_rows(A, r, i0)
            _swap_rows(T, r, i0)
        while slow_clear_column(A, T, r, c) is not None:
            pass
        if A[r][c] < 0:
            _negate_row(A, r)
            _negate_row(T, r)
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                _row_sub(A, i, r, q)
                _row_sub(T, i, r, q)
        r += 1
    return r


def hermite_and_left_kernel(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite form H of ``a`` and the canonical basis K of its left
    kernel ``{x : x @ a = 0}``, as matrix rows, from one Hermite pass.

    The pass over ``[a | I]`` leaves ``[T @ a | T]`` with T unimodular, so
    the rows of T opposite the zero rows of T @ a are a basis of the
    (saturated) left kernel, which the same pass makes canonical.  H keeps
    only the nonzero rows, one per unit of rank.
    """
    n = a.cols
    A = _augmented(a.entries)
    _hermite(A)
    r = len([row for row in A if any(row[:n])])
    return (
        _trusted(IntMatrix, entries=tuple([tuple(row[:n]) for row in A[:r]]), cols=n),
        _trusted(IntMatrix, entries=tuple([tuple(row[n:]) for row in A[r:]]), cols=a.rows),
    )


def slow_hermite_and_left_kernel(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """``hermite_and_left_kernel`` in two passes: T carried beside A, then a
    second Hermite pass over the kernel rows of T."""
    m = a.rows
    A = [list(row) for row in a.entries]
    T = [[int(i == j) for j in range(m)] for i in range(m)]
    r = slow_hermite(A, T)
    K = T[r:]
    slow_hermite(K, [[] for _ in K])
    return (
        _trusted(IntMatrix, entries=tuple(map(tuple, A[:r])), cols=a.cols),
        _trusted(IntMatrix, entries=tuple(map(tuple, K)), cols=m),
    )


def slow_inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant ±1, by
    ``Fraction`` Gauss-Jordan elimination."""
    if a.rows != a.cols:
        raise DomainError("inverse of a non-square matrix")
    n = a.rows
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a.entries)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            raise DomainError("matrix is singular")
        work[c], work[pivot] = work[pivot], work[c]
        pv = work[c][c]
        work[c] = [x / pv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    inv = []
    for row in work:
        out = []
        for x in row[n:]:
            if x.denominator != 1:
                raise DomainError("matrix is not unimodular")
            out.append(int(x))
        inv.append(tuple(out))
    return IntMatrix(tuple(inv), n)


def _smith_kernel(d: IntMatrix, v: IntMatrix) -> IntMatrix:
    """The kernel of ``a`` read off a Smith form ``U @ a @ V == D``.

    The columns of V past the nonzero diagonal entries are a saturated
    kernel basis; the Hermite form of their transpose makes it canonical.
    """
    n = v.cols
    rank = sum(1 for i in range(min(d.rows, n)) if d.entries[i][i] != 0)
    K = [list(col) for col in zip(*v.entries)][rank:]
    _hermite(K)
    return _trusted(IntMatrix, entries=tuple(zip(*K)) if K else ((),) * n, cols=n - rank)


def slow_integer_kernel(a: IntMatrix) -> IntMatrix:
    """Saturated kernel columns from the right factor of a Smith form, in
    column Hermite form."""
    if a.is_empty:
        raise DomainError("integer_kernel requires a nonempty matrix")
    _, d, v = smith_normal_form(a)
    return _smith_kernel(d, v)


def _slow_ray_matrix_checked(fan) -> IntMatrix:
    mat = IntMatrix.from_rows(fan.rays, fan.lattice_rank)
    if mat.rank() != fan.lattice_rank:
        raise TorusFactorError(
            "fan has a torus factor (rays do not span the lattice); "
            "the homogeneous quotient presentation does not apply"
        )
    return mat


def slow_charge_matrix(fan) -> ChargeMatrix:
    """The integer kernel of the transposed ray matrix, by Smith form."""
    return ChargeMatrix(slow_integer_kernel(_slow_ray_matrix_checked(fan).transpose()))


def slow_group_structure(fan) -> QuotientGroupStructure:
    """Invariant factors from the Smith form of the n x r ray matrix."""
    _, d, _ = smith_normal_form(_slow_ray_matrix_checked(fan))
    k = min(d.rows, d.cols)
    torsion = tuple(d.entries[i][i] for i in range(k) if d.entries[i][i] > 1)
    return QuotientGroupStructure(fan.n_rays - fan.lattice_rank, torsion)


def slow_discriminant_locus(fan) -> tuple:
    """Minimal ray subsets generating no cone, by an ascending-cardinality
    scan over all 2^n ray subsets, sorted like ``discriminant_locus``."""
    n = fan.n_rays
    minimal: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if any(set(t) <= set(subset) for t in minimal):
                continue
            if not slow_is_cone(fan, subset):
                minimal.append(subset)
    return tuple(sorted(minimal, key=lambda t: (len(t), t)))


def slow_discriminant_scan(fan) -> tuple:
    """``quotient.discriminant_locus`` from before it read ray masks: for
    every face F and every j > max(F), hash lookups of F + (j,) and of its
    facets in the set of cones, in face order."""
    cones = fan.cones()
    faces = set(cones)
    minimal: list[tuple[int, ...]] = []
    for face in cones:
        for j in range(face[-1] + 1 if face else 0, fan.n_rays):
            s = face + (j,)
            if s not in faces and all(s[:k] + s[k + 1:] in faces for k in range(len(face))):
                minimal.append(s)
    return tuple(minimal)


def slow_face_lattice(fan) -> FaceLattice:
    """``moment.face_lattice`` from before it sliced the face list: the
    cones sorted by (face dimension, cone), counted by face dimension, then
    cut into blocks of those counts."""
    n = fan.lattice_rank
    # simplicial: a cone with d independent rays has a face of dimension n - d
    cones = sorted(fan.cones(), key=lambda cone: (n - len(cone), cone))
    counts = [0] * (n + 1)
    for cone in cones:
        counts[n - len(cone)] += 1
    faces, start = [], 0
    for count in counts:
        faces.append(tuple(cones[start:start + count]))
        start += count
    return FaceLattice(n, tuple(faces))


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _valuations(x: Fraction) -> dict[int, int]:
    vals = dict(_prime_factors(x.numerator))
    for p, e in _prime_factors(x.denominator).items():
        vals[p] = vals.get(p, 0) - e
    return {p: e for p, e in vals.items() if e}


def solve_integer(a: IntMatrix, b) -> tuple | None:
    """One integer solution of ``a @ x = b``, or ``None`` if none exists."""
    if a.is_empty:
        raise DomainError("solve_integer requires a nonempty matrix")
    if len(b) != a.rows:
        raise DomainError("right-hand side length mismatch")
    u, d, v = smith_normal_form(a)
    c = u.mat_vec(tuple(b))
    m, n = a.rows, a.cols
    y = [0] * n
    for i in range(m):
        di = d.entries[i][i] if i < min(m, n) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return v.mat_vec(tuple(y))


def slow_multiplicity(b: int, n: int) -> int:
    k = 0
    while n % b == 0:
        n //= b
        k += 1
    return k


def zero_indices(z: HomogeneousPoint) -> frozenset[int]:
    """The indices of a point's zero coordinates."""
    return frozenset(i for i, c in enumerate(z.coords) if c.is_zero)


def slow_same_orbit(z: HomogeneousPoint, z2: HomogeneousPoint) -> bool:
    """``same_orbit`` with one ``solve_integer`` per prime of the modulus
    ratios, found by trial division; the caller checks fan and level."""
    pattern = zero_indices(z)
    if pattern != zero_indices(z2):
        return False
    rows = sorted(set(range(z.fan.n_rays)) - pattern)
    if not rows:
        return True
    q = charge_matrix(z.fan).matrix
    s = q.cols
    if s == 0:
        return all(z.coords[i] == z2.coords[i] for i in rows)
    sub = IntMatrix.from_rows([q.row(i) for i in rows], s)

    # moduli: solve sub @ x = valuation vector, over the integers, per prime
    vals = [_valuations(z2.coords[i].rho / z.coords[i].rho) for i in rows]
    primes = sorted({p for v in vals for p in v})
    for p in primes:
        target = tuple(v.get(p, 0) for v in vals)
        if solve_integer(sub, target) is None:
            return False

    # turns: solvability of sub @ x == delta (mod 1) over the rationals
    delta = [z2.coords[i].turns - z.coords[i].turns for i in rows]
    u, d, _ = smith_normal_form(sub)
    c = [sum(Fraction(u.entries[i][j]) * delta[j] for j in range(len(rows)))
         for i in range(len(rows))]
    for i in range(len(rows)):
        di = d.entries[i][i] if i < min(len(rows), s) else 0
        if di == 0 and c[i].denominator != 1:
            return False
    return True


def slow_in_discriminant(fan, coords) -> bool:
    """Does the zero pattern cover a primitive collection, by a subset test
    against every member of the discriminant antichain?"""
    zero_set = {i for i, c in enumerate(coords) if c.is_zero}
    return any(set(t) <= zero_set for t in discriminant_locus(fan).minimal_subsets)


def _maps_antichain_to_itself(perm, antichain) -> bool:
    mapped = {tuple(sorted(perm[i] for i in t)) for t in antichain}
    return mapped == set(antichain)


def _maps_maximal_cones_to_themselves(perm, fan) -> bool:
    mapped = {tuple(sorted(perm[i] for i in c)) for c in fan.maximal_cones}
    return mapped == set(fan.maximal_cones)


def slow_fan_symmetry(fan) -> FanSymmetryGroup:
    """``fan_symmetry`` filtering the row-class permutations by the image of
    the discriminant antichain, deciding the vacuous case by set unions and
    the flag by the image of the maximal-cone set."""
    n = fan.n_rays
    classes = _row_classes(charge_matrix(fan).matrix)
    antichain = discriminant_locus(fan).minimal_subsets
    class_of = {i: cls for cls in classes for i in cls}
    filter_vacuous = all(set(t) == set().union(*(class_of[i] for i in t)) for t in antichain)
    total = _product_of_factorials(len(c) for c in classes)
    if filter_vacuous:
        order = total
        generators = tuple(_adjacent_transpositions(classes, n))
        name = _structure_name(order, [len(c) for c in classes], True)
    elif total > _ENUMERATION_CAP:
        raise ResourceLimitError(
            f"fan_symmetry: {total} candidate permutations for {n} rays "
            f"(row class sizes {[len(c) for c in classes]}) exceed the cap "
            f"of {_ENUMERATION_CAP}"
        )
    else:
        group = set()
        for choice in product(*(permutations(cls) for cls in classes)):
            perm = [0] * n
            for cls, images in zip(classes, choice):
                for src, dst in zip(cls, images):
                    perm[src] = dst
            if _maps_antichain_to_itself(perm, antichain):
                group.add(tuple(perm))
        order = len(group)
        generators = tuple(_minimal_generators(group, n))
        orbit_sizes = [len(o) for o in _orbits(group, n)]
        name = _structure_name(order, orbit_sizes, order == _product_of_factorials(orbit_sizes))
    return FanSymmetryGroup(
        row_classes=classes,
        generators=generators,
        order=order,
        structure_name=name,
        preserves_maximal_cones=all(_maps_maximal_cones_to_themselves(g, fan) for g in generators),
        torsion_warning=group_structure(fan).has_torsion,
    )


_SLOW_TERM_RE = re.compile(
    r"""^\s*
        (?:(?P<coeff>\d+)\s*\*?\s*)?          # optional integer coefficient
        (?:
            (?P<var>x)
            (?:\^(?:
                (?P<plain>-?\d+)
                |\(\s*(?P<num>-?\d+)\s*(?:/\s*(?P<den>\d+)\s*)?\)
            ))?
        )?
    \s*$""",
    re.VERBOSE,
)


def slow_parse_expression(text: str) -> FormalSum:
    """``parse_expression`` that first splits the text at signs outside
    parentheses with a character state machine, then matches each chunk
    against an anchored term pattern."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    chunks: list[tuple[int, str]] = []
    depth = 0
    sign = 1
    current: list[str] = []
    started = False
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ExpressionError("unbalanced parentheses")
        if ch in "+-" and depth == 0:
            if started and "".join(current).strip():
                chunks.append((sign, "".join(current)))
                current = []
                sign = 1 if ch == "+" else -1
            elif not "".join(current).strip():
                sign *= 1 if ch == "+" else -1
            started = True
            continue
        current.append(ch)
        started = True
    if depth != 0:
        raise ExpressionError("unbalanced parentheses")
    if "".join(current).strip():
        chunks.append((sign, "".join(current)))
    if not chunks:
        raise ExpressionError("no terms found")
    terms: list[tuple[Fraction, int]] = []
    for sgn, chunk in chunks:
        m = _SLOW_TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ExpressionError(f"cannot parse term {chunk.strip()!r}")
        bare = "1" if m.group("var") else "0"
        literals = (m.group("coeff") or "1", m.group("plain") or m.group("num") or bare,
                    m.group("den") or "1")
        try:
            coeff, num, den = map(int, literals)
        except ValueError:
            raise ExpressionError(
                f"term {chunk.strip()[:40]!r}... holds an integer literal past the limit of "
                f"{sys.get_int_max_str_digits()} digits on string-to-integer conversion"
            ) from None
        if den == 0:
            raise ExpressionError(f"zero denominator in term {chunk.strip()!r}")
        terms.append((Fraction(num, den), sgn * coeff))
    return FormalSum(terms)


def _common_grid(s: FormalSum) -> Fraction:
    return Fraction(1, lcm(*(q.denominator for q, _ in s.terms)))


def slow_worklist_oracle_reduce(s: FormalSum, seed: int | None = None) -> KRingElement:
    """``oracle_reduce`` on ``Fraction`` grid steps, a heap of ``(-|k|, k)``
    tuples, a ``bump`` helper per new term and ``randint`` split points:
    the largest exponent first, each split once."""
    if not s.terms:
        return KRingElement(0, Fraction(0))
    rng = random.Random(seed)
    g = _common_grid(s)
    table: dict[int, int] = {}
    for q, c in s.terms:
        k = q / g
        assert k.denominator == 1
        table[k.numerator] = table.get(k.numerator, 0) + c
    # pending exponents keyed on -|k|; an entry whose exponent has left the
    # table (split, or cancelled to zero) is skipped when popped
    heap = [(-abs(k), k) for k in table if k not in (0, 1)]
    heapq.heapify(heap)

    def bump(k: int, c: int):
        new = table.get(k, 0) + c
        if new:
            if k not in table and k not in (0, 1):
                heapq.heappush(heap, (-abs(k), k))
            table[k] = new
        else:
            table.pop(k, None)

    while heap:
        k = heapq.heappop(heap)[1]
        c = table.pop(k, 0)
        if not c:
            continue
        if k >= 2:
            if k <= 32:
                j = rng.randint(1, k - 1)
            else:
                j = max(1, min(k - 1, k // 2 + rng.randint(-3, 3)))
            bump(j, c)
            bump(k - j, c)
            bump(0, -c)
        else:
            # k <= -1: x^k = x^(k+j) - x^j + 1, split point capped so both
            # new exponents shrink in magnitude
            bound = max(1, -k - 1)
            if bound <= 32:
                j = rng.randint(1, bound)
            else:
                j = max(1, min(bound, (-k) // 2 + rng.randint(-3, 3)))
            bump(k + j, c)
            bump(j, -c)
            bump(0, c)
    a0 = table.get(0, 0)
    a1 = table.get(1, 0)
    return KRingElement(a0 + a1, a1 * g)


def slow_oracle_reduce(s: FormalSum, seed: int | None = None) -> KRingElement:
    """``oracle_reduce`` choosing the next exponent to split at random."""
    if not s.terms:
        return KRingElement(0, Fraction(0))
    rng = random.Random(seed)
    g = _common_grid(s)
    table: dict[int, int] = {}
    for q, c in s.terms:
        k = q / g
        assert k.denominator == 1
        table[k.numerator] = table.get(k.numerator, 0) + c

    def bump(k: int, c: int):
        new = table.get(k, 0) + c
        if new:
            table[k] = new
        else:
            table.pop(k, None)

    while True:
        pending = [k for k in table if k not in (0, 1)]
        if not pending:
            break
        k = rng.choice(pending)
        c = table.pop(k)
        if k >= 2:
            if k <= 32:
                j = rng.randint(1, k - 1)
            else:
                j = max(1, min(k - 1, k // 2 + rng.randint(-3, 3)))
            bump(j, c)
            bump(k - j, c)
            bump(0, -c)
        else:
            # k <= -1: x^k = x^(k+j) - x^j + 1, split point capped so both
            # new exponents shrink in magnitude
            bound = max(1, -k - 1)
            if bound <= 32:
                j = rng.randint(1, bound)
            else:
                j = max(1, min(bound, (-k) // 2 + rng.randint(-3, 3)))
            bump(k + j, c)
            bump(j, -c)
            bump(0, c)
    a0 = table.get(0, 0)
    a1 = table.get(1, 0)
    return KRingElement(a0 + a1, a1 * g)


def slow_integer_root(n: int, q: int) -> int | None:
    """Integer q-th root of n >= 0, or ``None``, by bisection under
    ``x < 2 ** (bit_length // q + 1)`` for every q."""
    if n in (0, 1):
        return n
    bits = n.bit_length()
    lo, hi = 1, (1 << (bits // q + 1) if q < bits else 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** q < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** q == n else None


def slow_capped_pow(rho: Fraction, k: int) -> Fraction:
    """``rho ** k`` for a nonzero modulus (``rho`` itself for k = 1), refused
    past ``_POW_BITS_CAP``."""
    num, den = rho.numerator.bit_length(), rho.denominator.bit_length()
    if abs(k) * (max(num, den) - 1) > _POW_BITS_CAP:
        raise ResourceLimitError(
            f"pow_int: exponent {k} on a modulus of {num}/{den} bits (numerator/"
            f"denominator) exceeds the cap of {_POW_BITS_CAP} bits on the power")
    return rho if k == 1 else rho ** k


def slow_pow_int(c: PolarComplex, k: int) -> PolarComplex:
    """``c.pow_int(k)`` on ``Fraction`` fields, rebuilt by the validating
    constructor."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise DomainError("exponent must be an integer")
    if c.rho == 0:
        if k < 1:
            raise DomainError("0 cannot be raised to a nonpositive power")
        return c
    return PolarComplex(slow_capped_pow(c.rho, k), c.turns * k)


def slow_act(t: TorusElement, z: HomogeneousPoint) -> HomogeneousPoint:
    """Scale coordinate i by the product of t_j to the power Q[i][j], one
    pass per coordinate on ``Fraction``s, each power capped as in
    ``pow_int``."""
    if t.level != z.level:
        raise LevelMismatchError("torus element and point live at different levels")
    q = charge_matrix(z.fan).matrix
    if len(t.params) != q.cols:
        raise DomainError(f"expected {q.cols} torus parameters, got {len(t.params)}")
    new_coords = []
    for c, row in zip(z.coords, q.entries):
        rho, turns = c.rho, c.turns
        for e, p in zip(row, t.params):
            if e:
                rho *= slow_capped_pow(p.rho, e)
                turns += p.turns * e
        new_coords.append(PolarComplex(rho, turns))
    return HomogeneousPoint(z.fan, z.level, tuple(new_coords))


def slow_act_per_entry(t: TorusElement, z: HomogeneousPoint) -> HomogeneousPoint:
    """Scale coordinate i by t_j ** Q[i][j], one validated product per
    nonzero charge entry."""
    if t.level != z.level:
        raise LevelMismatchError("torus element and point live at different levels")
    q = charge_matrix(z.fan).matrix
    if len(t.params) != q.cols:
        raise DomainError(f"expected {q.cols} torus parameters, got {len(t.params)}")
    new_coords = []
    for i, c in enumerate(z.coords):
        for j, p in enumerate(t.params):
            e = q.entries[i][j]
            if e:
                power = slow_pow_int(p, e)
                c = PolarComplex(c.rho * power.rho, c.turns + power.turns)
        new_coords.append(c)
    return HomogeneousPoint(z.fan, z.level, tuple(new_coords))


def slow_power_map(l: int, z: HomogeneousPoint) -> HomogeneousPoint:
    """Coordinatewise l-th power, rebuilt by the validating constructor."""
    if isinstance(l, bool) or not isinstance(l, int) or l < 1:
        raise DomainError("power map exponent must be a positive integer")
    return HomogeneousPoint(z.fan, z.level, tuple(slow_pow_int(c, l) for c in z.coords))


def slow_check_equivariance(fan, t: TorusElement, z: HomogeneousPoint, l: int) -> bool:
    """power_map(l, t . z) == (t^l) . power_map(l, z), each side built."""
    if z.fan != fan:
        raise DomainError("point does not belong to the given fan")
    left = slow_power_map(l, slow_act(t, z))
    t_l = TorusElement(t.level, tuple(slow_pow_int(p, l) for p in t.params))
    right = slow_act(t_l, slow_power_map(l, z))
    return left.coords == right.coords


def slow_formal_sum_terms(terms) -> tuple:
    """The terms ``FormalSum.__post_init__`` kept before it merged on
    integer keys: a dict keyed on the ``Fraction`` exponents, then a sort
    that compares them."""
    merged: dict[Fraction, int] = {}
    for q, c in terms:
        if type(q) is not Fraction:
            q = _as_fraction(q)
        if isinstance(c, bool) or not isinstance(c, int):
            raise DomainError("coefficients must be integers")
        merged[q] = merged.get(q, 0) + c
    cleaned = tuple(sorted((q, c) for q, c in merged.items() if c != 0))
    return cleaned


def slow_balanced(text: str) -> bool:
    """The parenthesis check of ``parse_expression`` before it cancelled
    adjacent pairs: a running depth, one character at a time."""
    depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
    return depth == 0


def slow_polar_parts(rho, turns=0) -> tuple[int, int, int, int]:
    """The parts ``PolarComplex(rho, turns)`` stored before it read them off
    its ``Fraction`` arguments: a ``Fraction`` sign test, then ``_reduced``
    with its two gcds."""
    rho = _as_fraction(rho)
    turns = _as_fraction(turns)
    if rho < 0:
        raise DomainError("modulus must be nonnegative")
    return _reduced(rho.numerator, rho.denominator, turns.numerator, turns.denominator)

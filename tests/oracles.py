"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own algorithms: cone membership and
feasibility run through Fourier-Motzkin elimination over exact rationals,
lattice decompositions through memoized descent or bounded search,
irreducibility through exhaustive polytope scans whose vertices come from
Cramer's rule, determinants through the permutation sum and products
through row-by-column sums.  Where an oracle needs a cone's inequalities,
the caller passes them in.  Nothing here imports ``toriq``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, permutations, product


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def fm_feasible(inequalities, n_vars: int) -> bool:
    """Feasibility of ``sum c_i x_i <= b`` systems by Fourier-Motzkin.

    ``inequalities`` is a list of (coefficients, bound) pairs over exact
    rationals.  Exponential in the number of variables, which is fine at
    test scale.
    """
    ineqs = [([Fraction(c) for c in coeffs], Fraction(b)) for coeffs, b in inequalities]
    for var in range(n_vars):
        pos, neg, rest = [], [], []
        for coeffs, b in ineqs:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, b))
            elif c < 0:
                neg.append((coeffs, b))
            else:
                rest.append((coeffs, b))
        new = rest
        for pc, pb in pos:
            for nc, nb in neg:
                # eliminate: scale p by -nc[var] (>0) and n by pc[var] (>0)
                sp, sn = -nc[var], pc[var]
                coeffs = [sp * a + sn * b_ for a, b_ in zip(pc, nc)]
                new.append((coeffs, sp * pb + sn * nb))
        seen = set()
        ineqs = []
        for coeffs, b in new:
            key = (tuple(coeffs), b)
            if key not in seen:
                seen.add(key)
                ineqs.append((coeffs, b))
    return all(b >= 0 for coeffs, b in ineqs)


def is_nonneg_combination(generators, target) -> bool:
    """Is target a nonnegative rational combination of the generators?"""
    if not generators:
        return all(x == 0 for x in target)
    k = len(generators)
    n = len(target)
    ineqs = []
    for i in range(k):
        coeffs = [Fraction(0)] * k
        coeffs[i] = Fraction(-1)
        ineqs.append((coeffs, Fraction(0)))  # -lambda_i <= 0
    for j in range(n):
        row = [Fraction(g[j]) for g in generators]
        ineqs.append((row, Fraction(target[j])))              # sum <= t_j
        ineqs.append(([-c for c in row], Fraction(-target[j])))  # -sum <= -t_j
    return fm_feasible(ineqs, k)


def halfspace_lattice_points(primal_generators, rank: int, bound: int):
    """Lattice points of the box satisfying every primal inequality."""
    pts = []
    for point in product(range(-bound, bound + 1), repeat=rank):
        if all(dot(g, point) >= 0 for g in primal_generators):
            pts.append(point)
    return pts


def generated_points(points, basis, weight, inequalities) -> set:
    """The given points that are nonnegative integer combinations of the
    basis, each decided by memoized descent.

    p is generated when p = 0, or when p - b is generated for some basis
    vector b.  Every b must have positive weight, so the weight falls at
    each step and the descent ends; a point is generated exactly when a
    chain of basis vectors leads from it down to 0.  The basis lies in the
    cone ``{y : d.y >= 0 for d in inequalities}``, so a step that leaves it
    leads to no sum of basis vectors and is not taken: wrong inequalities
    could only reject a generated point, never accept another one.
    """
    assert all(dot(weight, b) > 0 for b in basis)
    known = {(0,) * len(weight): True}
    for p in points:
        # each entry: a point, the basis vectors left to try, the last step taken
        stack = [[p, iter(basis), None]]
        while stack:
            q, rest, step = top = stack[-1]
            if q in known:
                stack.pop()
                continue
            if step is not None and known[step]:
                known[q] = True
                stack.pop()
                continue
            for b in rest:
                r = tuple(x - y for x, y in zip(q, b))
                found = known.get(r)
                if found or found is None and all(dot(d, r) >= 0 for d in inequalities):
                    break
            else:
                known[q] = False
                stack.pop()
                continue
            if found:
                known[q] = True
                stack.pop()
            else:
                top[2] = r
                stack.append([r, iter(basis), None])
    return {p for p in points if known[p]}


def closure_points(basis, rank: int, weight, w_cap, coord_bound):
    """Forward closure of 0 under adding basis vectors, for a basis with
    lineality directions of weight zero, where descent would not end.

    Prefix sums of semigroup elements stay in the cone, so the closure cut
    off at weight ``w_cap`` and the coordinate bound contains every
    nonnegative integer combination within both.
    """
    zero = (0,) * rank
    seen = {zero}
    queue = [zero]
    while queue:
        x = queue.pop()
        for b in basis:
            y = tuple(a + c for a, c in zip(x, b))
            if y in seen:
                continue
            if dot(weight, y) > w_cap:
                continue
            if any(abs(v) > coord_bound for v in y):
                continue
            seen.add(y)
            queue.append(y)
    return seen


def polytope_box(constraints, n: int):
    """Integer bounding box of a compact polytope ``{y : a.y >= b}`` with
    integer a and b.

    Vertices are intersections of n constraints, each solved exactly by
    Cramer's rule as y = num / den with den > 0; a vertex is feasible when
    a.num >= b * den for every constraint, and the box is the coordinate
    range over the feasible ones.
    """
    lo = hi = None
    for subset in combinations(constraints, n):
        vertex = _solve_square([a for a, _ in subset], [b for _, b in subset])
        if vertex is None:
            continue
        num, den = vertex
        if all(dot(a, num) >= b * den for a, b in constraints):
            floors = [x // den for x in num]
            ceils = [-(-x // den) for x in num]
            lo = floors if lo is None else list(map(min, lo, floors))
            hi = ceils if hi is None else list(map(max, hi, ceils))
    if lo is None:
        return None
    return [range(lo[i], hi[i] + 1) for i in range(n)]


def _solve_square(rows, rhs):
    """(numerators, den) with ``rows . (num / den) = rhs`` and den > 0, by
    Cramer's rule over permutation-sum determinants; None if singular."""
    det = leibniz_det(rows)
    if det == 0:
        return None
    sign = 1 if det > 0 else -1
    num = [
        sign * leibniz_det([[*row[:i], b, *row[i + 1:]] for row, b in zip(rows, rhs)])
        for i in range(len(rows))
    ]
    return num, sign * det


def irreducible_in_semigroup(element, dual_generators, rank: int) -> bool:
    """Exhaustively test that element is not a sum of two nonzero lattice
    points of the cone cut out by the dual generators.

    Any decomposition y + z = element with both parts in the cone forces y
    into the compact polytope ``cone ∩ (element - cone)``; its integer
    points are scanned directly.
    """
    constraints = []
    for d in dual_generators:
        constraints.append((tuple(d), 0))  # d.y >= 0
        constraints.append((tuple(-x for x in d), -dot(d, element)))  # d.y <= d.e
    box = polytope_box(constraints, rank)
    if box is None:
        return True
    zero = (0,) * rank
    for y in product(*box):
        if y == zero or y == tuple(element):
            continue
        if all(dot(d, y) >= 0 for d in dual_generators):
            z = tuple(a - b for a, b in zip(element, y))
            if all(dot(d, z) >= 0 for d in dual_generators):
                return False
    return True


def leibniz_det(rows) -> int:
    """Determinant as the signed sum over all permutations (n! terms)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def matmul(a, b, cols: int | None = None) -> tuple:
    """Product of two matrices given as sequences of rows, as a tuple of
    row tuples; each entry is a plain sum of products.  ``cols`` is b's
    column count, needed only when b has no rows."""
    assert all(len(row) == len(b) for row in a), "matrix product shape mismatch"
    columns = list(zip(*b)) or [()] * (cols or 0)
    return tuple(tuple(dot(row, col) for col in columns) for row in a)


def powerset(iterable):
    """Every subset of the items, as tuples in order of size."""
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))

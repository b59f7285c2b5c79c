"""Independent answers for every op the benchmark times.

Nothing here calls the toriq routine it checks: the expected values come
from the fan data by separate arithmetic (own determinants, own cone
closure, own continued fractions).  Each checker returns a list of
``(layer, message)`` failures; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations


# ---------------------------------------------------------------- arithmetic


def rank_of(rows) -> int:
    """Rank of an integer matrix by exact Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def det(rows) -> int:
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            out = -out
        out *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return int(out)


def multiplicity(gens, rank: int) -> int:
    """gcd of the maximal minors: 1 exactly for a smooth (unimodular) cone."""
    k = len(gens)
    if k == 0:
        return 1
    g = 0
    for cols in combinations(range(rank), k):
        g = math.gcd(g, det([[v[c] for c in cols] for v in gens]))
    return g


def hj_length(d: int, e: int) -> int:
    """Length of the Hirzebruch-Jung continued fraction of d/e, d > e >= 1."""
    length = 0
    while e:
        a = -(-d // e)
        d, e = e, a * e - d
        length += 1
    return length


def rank2_fiber_rank(u, v) -> int:
    """Hilbert-basis size of the dual of the 2-dimensional cone on u, v.

    The dual is spanned by the inward normals of u and v.  Writing it as
    cone((1, 0), (k, d)) in a lattice basis gives 2 + HJ length of d/(d-k).
    """
    if u[0] * v[1] - u[1] * v[0] < 0:
        u, v = v, u
    p = (v[1], -v[0])    # normal of v, positive on u
    q = (-u[1], u[0])    # normal of u, positive on v
    d = p[0] * q[1] - p[1] * q[0]
    if d == 1:
        return 2
    g, x, y = _ext_gcd(p[0], p[1])
    w = (-y, x)           # det(p, w) = p0*x + p1*y = 1
    alpha = q[0] * w[1] - q[1] * w[0]
    k = alpha % d
    return 2 + hj_length(d, d - k)


def _ext_gcd(a: int, b: int):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


# ---------------------------------------------------------------- fans


def cone_closure(cones) -> set[tuple[int, ...]]:
    out = set()
    for cone in cones:
        for k in range(len(cone) + 1):
            out.update(combinations(sorted(cone), k))
    return out


def minimal_non_faces(n_rays: int, rank: int, cones) -> set[tuple[int, ...]]:
    """Minimal ray sets spanning no cone.  Each has at most rank + 1 rays,
    because its proper subsets are simplicial cones of at most rank rays."""
    faces = cone_closure(cones)
    out = set()
    for size in range(1, min(n_rays, rank + 1) + 1):
        for subset in combinations(range(n_rays), size):
            if subset not in faces and all(
                s in faces for s in combinations(subset, size - 1)
            ):
                out.add(subset)
    return out


def expected_fiber_rank(rays, rank: int, cone) -> int | None:
    gens = [rays[i] for i in cone]
    if multiplicity(gens, rank) == 1:
        return 2 * rank - len(cone)
    if rank == 2 and len(cone) == 2:
        return rank2_fiber_rank(gens[0], gens[1])
    return None


def check_charge_matrix(rank: int, rays, q) -> list[tuple[str, str]]:
    """Rays^T Q = 0, and Q has n_rays - rank independent columns."""
    n = len(rays)
    cols = len(q[0]) if q else 0
    bad = []
    if cols != n - rank:
        bad.append(("quotient", f"charge matrix has {cols} columns, expected {n - rank}"))
    for j in range(cols):
        if any(sum(rays[i][c] * q[i][j] for i in range(n)) for c in range(rank)):
            bad.append(("quotient", f"charge column {j} is not a ray relation"))
    if cols and rank_of(q) != cols:
        bad.append(("quotient", "charge columns are dependent"))
    return bad


def check_analysis(fan_input, result) -> list[tuple[str, str]]:
    """Check one analyze op: charge matrix, discriminant, fiber ranks, faces."""
    rank, rays, cones = fan_input.rank, fan_input.rays, fan_input.cones
    n = len(rays)
    report, fiber_ranks, delzant = result["report"], result["fiber_ranks"], result["delzant"]
    bad = check_charge_matrix(rank, rays, report["charge_matrix"])

    disc = {tuple(i - 1 for i in t) for t in report["discriminant"]}
    if rank == 2 and n >= 4:
        edges = {tuple(sorted(c)) for c in cones}
        expected = {p for p in combinations(range(n), 2) if p not in edges}
    else:
        expected = minimal_non_faces(n, rank, cones)
    if disc != expected:
        bad.append(("quotient", f"discriminant {sorted(disc)} != {sorted(expected)}"))

    faces = cone_closure(cones)
    got = {tuple(i - 1 for i in entry["cone"]): entry["rank"] for entry in fiber_ranks}
    if set(got) != faces:
        bad.append(("cones", "fiber ranks do not list every cone once"))
    for cone in sorted(faces & set(got)):
        want = expected_fiber_rank(rays, rank, cone)
        if want is None:
            bad.append(("cones", f"no independent fiber rank for cone {cone}"))
        elif got[cone] != want:
            bad.append(("cones", f"fiber rank of {cone} is {got[cone]}, expected {want}"))

    f_vector = [0] * (rank + 1)
    for cone in faces:
        f_vector[rank - len(cone)] += 1
    if delzant["f_vector"] != f_vector:
        bad.append(("moment", f"f-vector {delzant['f_vector']} != {f_vector}"))
    if delzant["cusps"] != sum(1 for c in cones if len(c) == rank):
        bad.append(("moment", "cusp count differs from the full-dimensional cones"))
    return bad


# ---------------------------------------------------------------- CLI


def check_cli(cmd: str, fan_data: dict, cone, stdout: bytes, golden: bytes | None,
              returncode: int) -> list[tuple[str, str]]:
    """analyze/delzant must match the golden bytes; hilbert is recomputed."""
    if returncode != 0:
        return [("cli", f"{cmd} exited with {returncode}")]
    if cmd != "hilbert":
        if stdout != golden:
            return [("cli", f"{cmd} {fan_data.get('name')}: stdout differs from the golden file")]
        return []
    try:
        data = json.loads(stdout)
    except ValueError:
        return [("cli", "hilbert printed no JSON")]
    rank = fan_data["lattice_rank"]
    rays = [tuple(v) for v in fan_data["rays"]]
    gens = [rays[i - 1] for i in cone]
    want = expected_fiber_rank(rays, rank, tuple(i - 1 for i in cone))
    bad = []
    if data["cone"] != list(cone):
        bad.append(("cli", f"hilbert echoed cone {data['cone']}, asked for {list(cone)}"))
    if data["rank"] != len(data["hilbert_basis"]) or data["rank"] != want:
        bad.append(("cones", f"hilbert rank {data['rank']}, expected {want}"))
    for h in data["hilbert_basis"]:
        if any(sum(a * b for a, b in zip(h, g)) < 0 for g in gens):
            bad.append(("cones", f"hilbert element {h} lies outside the dual cone"))
    return bad


# ---------------------------------------------------------------- orbits


def _polar_pow(c, k):
    rho, turns = c
    return (rho ** k, (turns * k) % 1)


def _polar_mul(a, b):
    return (a[0] * b[0], (a[1] + b[1]) % 1)


def check_orbit(inp, q_rows, result) -> list[tuple[str, str]]:
    """Check the homogeneous, solenoid and K-ring parts of one orbit op.

    ``q_rows`` is the fan's charge matrix, checked against the rays once
    at set-up; the expected image of the action is rebuilt from it here.
    """
    bad: list[tuple[str, str]] = []
    z = [(r, t % 1) for r, t in inp.coords]
    image = []
    for i, c in enumerate(z):
        for j, p in enumerate(inp.params):
            if q_rows[i][j]:
                c = _polar_mul(c, _polar_pow(p, q_rows[i][j]))
        image.append(c)
    if result["image"] != image:
        bad.append(("homogeneous", "act gave the wrong image"))
    if result["power"] != [_polar_pow(c, inp.power) for c in z]:
        bad.append(("homogeneous", "power_map gave the wrong coordinates"))
    if result["equivariant"] is not True:
        bad.append(("homogeneous", "check_equivariance returned false"))

    if inp.positive:
        want_same = True
    else:
        # cp^m: one torus parameter scales every coordinate alike, so the
        # pair shares an orbit exactly when all coordinate ratios agree
        other = result["other"]
        ratios = {(b[0] / a[0], (b[1] - a[1]) % 1) for a, b in zip(z, other)}
        want_same = len(ratios) == 1
        if want_same:
            bad.append(("homogeneous", "negative pair was generated inside the orbit"))
    if result["same_orbit"] is not want_same:
        bad.append(("homogeneous", f"same_orbit returned {result['same_orbit']}, expected {want_same}"))

    if result["covered"] != (inp.sol_base[0], inp.sol_base[1] % 1):
        bad.append(("solenoid", "cover_map(refine(z)) is not z"))
    a, theta = inp.sol_exp
    want_exp = (Fraction(1), (Fraction(a, inp.sol_level) + theta / inp.sol_level) % 1)
    if result["exp"] != (inp.sol_level, want_exp):
        bad.append(("solenoid", f"sol_exp gave {result['exp']}, expected {want_exp}"))

    merged: dict[Fraction, int] = {}
    for q, c in inp.kring_terms:
        merged[q] = merged.get(q, 0) + c
    if result["parsed"] != sorted((q, c) for q, c in merged.items() if c):
        bad.append(("kring", "parse_expression lost or changed a term"))
    if result["reduced"] != result["oracle"]:
        bad.append(("kring", f"reduce {result['reduced']} != oracle_reduce {result['oracle']}"))
    return bad

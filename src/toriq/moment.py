"""Delzant-polytope combinatorics of a complete fan.

Faces of the moment polytope correspond order-reversingly to cones of the
fan; an m-dimensional face carries an m-dimensional solenoidal-torus fiber,
and the vertices (m = 0, the full-dimensional cones) are the cusps.  The
lattice is computed abstractly by inverting the cone poset; no polytope
coordinates are needed for the fiber bookkeeping, and producing them would
require choosing an ample divisor the combinatorics does not depend on.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import DomainError, IncompleteFanError, _check_type
from .fans import ConeRef, Fan, _cached


@dataclass(frozen=True)
class FaceLattice:
    """Faces of the Delzant polytope, ordered by reversed cone inclusion:
    ``faces[m]`` holds the cones with ``lattice_rank - m`` rays, the
    m-dimensional faces, each with an m-dimensional fiber."""

    lattice_rank: int
    faces: tuple[tuple[ConeRef, ...], ...]

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.faces))

    @property
    def cusps(self) -> tuple[ConeRef, ...]:
        return self.faces[0]


def _require_complete(fan: Fan, what: str):
    if not _check_type(fan, Fan, what + ": fan must be a Fan, got {}").complete:
        raise IncompleteFanError(
            f"{what} requires a complete fan (the moment-map picture needs a "
            "projective toric variety)"
        )


@_cached(Fan, "face lattice")
def face_lattice(fan: Fan) -> FaceLattice:
    """Invert the cone poset: each cone of dimension d becomes a face of
    dimension ``lattice_rank - d`` with fiber rank equal to its dimension."""
    _require_complete(fan, "face lattice")
    n = fan.lattice_rank
    cones = fan.cones()
    # cones come by dimension, then lexicographically: the d-ray cones are
    # the block cones[ends[d]:ends[d + 1]], and face dimension m takes d = n - m
    ends = [bisect_left(cones, d, key=len) for d in range(n + 2)]
    return FaceLattice(n, tuple(cones[ends[n - m]:ends[n - m + 1]] for m in range(n + 1)))


def cusp_count(fan: Fan) -> int:
    """Number of vertices of the polytope: the maximal cones, all of them
    full-dimensional in a fan declared complete."""
    _require_complete(fan, "cusp count")
    return len(fan.maximal_cones)


def delzant_report(fan: Fan) -> dict:
    """JSON-ready face listing; ray indices 1-based, keys fixed."""
    lattice = face_lattice(fan)
    return {
        "f_vector": list(lattice.f_vector),
        "cusps": len(lattice.cusps),
        "faces": [{"cone": [i + 1 for i in cone], "dim": m, "fiber_rank": m}
                  for m, block in enumerate(lattice.faces) for cone in block],
    }


def delzant_svg(fan: Fan) -> str:
    """Schematic picture of the polytope of a complete rank-2 fan.

    Purely cosmetic: rays are placed on the unit circle by the direction of
    their generators, each maximal cone becomes a polygon vertex on the
    bisector of its two rays, and edges join vertices sharing a ray.
    Geometry is approximate by design; the combinatorics is exact.
    """
    _require_complete(fan, "polytope drawing")
    if fan.lattice_rank != 2:
        raise DomainError("SVG output is implemented for rank-2 fans only")
    from html import escape  # here, not at import: kept off start-up

    size, radius = 420.0, 150.0
    cx = cy = size / 2

    def unit(v):
        norm = math.hypot(v[0], v[1])
        return (v[0] / norm, v[1] / norm)

    positions = {}
    for cone in fan.maximal_cones:
        ua, ub = (unit(fan.rays[i]) for i in cone)
        bx, by = ua[0] + ub[0], ua[1] + ub[1]
        if abs(bx) < 1e-9 and abs(by) < 1e-9:
            # opposite rays: rotate one by 90 degrees to break the tie
            bx, by = -ua[1], ua[0]
        norm = math.hypot(bx, by)
        positions[cone] = (cx + radius * bx / norm, cy - radius * by / norm)

    edges = []
    for ray_index in range(fan.n_rays):
        touching = [c for c in fan.maximal_cones if ray_index in c]
        if len(touching) == 2:
            edges.append((touching[0], touching[1], ray_index))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    title = escape(fan.name or "fan", quote=False)
    parts.append(
        f'<text x="{cx:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}: cusps at vertices, rank-1 fibers on edges</text>'
    )
    for a, b, ray_index in edges:
        (x1, y1), (x2, y2) = positions[a], positions[b]
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="black" stroke-width="1.5"/>'
        )
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        parts.append(
            f'<text x="{mx:.1f}" y="{my - 6:.1f}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">ray {ray_index + 1}</text>'
        )
    for cone, (x, y) in sorted(positions.items()):
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="black"/>')
        label = ",".join(str(i + 1) for i in cone)
        parts.append(
            f'<text x="{x:.1f}" y="{y - 9:.1f}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">cusp ({label})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""
Moment polytopes and solenoidal fibers
======================================

For a complete fan, the orbit space of the completed variety under the
compact part of the solenoidal torus is the Delzant polytope.  Faces of
the polytope correspond to cones of the fan with the order reversed, and
the fiber over an m-dimensional face is an m-dimensional solenoidal torus.
Vertices carry the cusps: cone points over solenoidal tori.
"""

from pathlib import Path

from toriq import catalog
from toriq.moment import cusp_count, delzant_svg, face_lattice

# The projective plane: a triangle.  Three cusps at the vertices, three
# edges with one-dimensional fibers, full-rank fiber over the interior.
lattice = face_lattice(catalog.projective_plane())
print("cp2 f-vector (faces by dimension):", lattice.f_vector)
for m, block in enumerate(lattice.faces):
    for cone in block:
        label = [i + 1 for i in cone] or "interior"
        kind = "cusp" if m == 0 else f"fiber rank {m}"
        print(f"   face of dim {m} over cone {label}: {kind}")

# Cusps count the full-dimensional cones, i.e. the polytope vertices.
print("\ncusp counts:")
for fan in [
    catalog.projective_line(),
    catalog.projective_plane(),
    catalog.product_of_lines(),
    catalog.weighted_plane(3),
    catalog.hirzebruch(2),
]:
    print(f"   {fan.name}: {cusp_count(fan)}")

# Projective m-space always has m + 1 cusps.
for m in (1, 2, 3, 4):
    print(f"   projective {m}-space: {cusp_count(catalog.projective_space(m))}")

# A schematic picture for rank-2 fans (combinatorics exact, geometry not).
out = Path("delzant_cp2.svg")
out.write_text(delzant_svg(catalog.projective_plane()), encoding="utf-8")
print(f"\nwrote {out} (open in a browser)")

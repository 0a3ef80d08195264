"""Structured triangulation of the demonstration plate.

Generates the default 20 cm x 10 cm plate on a 5 x 5 grid (50 triangles),
shows which nodes sit on each wall, and dumps the plain-text mesh listing
for the smallest possible mesh.
"""

import io
import sys

from fuzzyheat import Wall, generate_structured_mesh, nodes_on_wall, write_mesh_listing
from fuzzyheat.mesh import triangle_area

mesh = generate_structured_mesh(20.0, 10.0, 5, 5)
coords = mesh.coords

print(f"plate {mesh.width_cm} x {mesh.height_cm} cm")
print(f"nodes: {mesh.n_nodes}, triangles: {len(mesh.elements)}, boundary edges: {len(mesh.boundary)}")

total_area = sum(triangle_area(coords, t) for t in mesh.elements)
print(f"sum of element areas: {total_area} (plate area {mesh.width_cm * mesh.height_cm})")

for wall in Wall:
    ids = nodes_on_wall(mesh, wall)
    print(f"{wall.value:>6s} wall: {len(ids)} nodes -> {ids}")

print("\nmesh listing for the 1x1 plate (2 triangles):")
tiny = generate_structured_mesh(1.0, 1.0, 1, 1)
buf = io.StringIO()
write_mesh_listing(tiny, buf)
sys.stdout.write(buf.getvalue())

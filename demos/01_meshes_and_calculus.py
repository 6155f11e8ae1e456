"""Sphere meshes and their discrete calculus.

Builds the three sphere families, checks the structural identities
(boundary-of-boundary, Euler characteristics, oriented volumes), and
projects a few analytic forms to cochains.
"""

import numpy as np

from quanthom import build_sphere_mesh, de_rham_project
from quanthom.geometry import FormField, SPHERE_VOLUMES

print("== sphere meshes ==")
for dim, level in ((1, 3), (2, 3), (3, 1)):
    m = build_sphere_mesh(dim, level)
    counts = [m.n_simplices(k) for k in range(dim + 1)]
    vol = m.top_volumes.sum()
    exact = SPHERE_VOLUMES[dim]
    print(f"S^{dim} level {level}: simplex counts {counts}, "
          f"chi = {m.euler_characteristic()}, "
          f"flat volume {vol:.4f} vs {exact:.4f} "
          f"({100 * (vol / exact - 1):+.2f}%)")
    prods = [abs(m.coboundary(k + 1) @ m.coboundary(k)).max()
             for k in range(dim - 1)]
    print(f"   boundary-of-boundary max entries: {prods or 'n/a (dim 1)'}")

print()
print("== de Rham projection ==")
m1 = build_sphere_mesh(1, 0)


def dtheta(points, frames):
    x, y = points[:, 0], points[:, 1]
    v = frames[:, 0, :]
    return (-y * v[:, 0] + x * v[:, 1]) / (x * x + y * y)


c = de_rham_project(FormField(1, dtheta), m1)
print(f"octagon, integral of dtheta per edge: {c.values[0]:.15f} "
      f"(arc angle {2 * np.pi / 8:.15f})")
print(f"total: {c.values.sum():.15f} = 2*pi")

m2 = build_sphere_mesh(2, 4)
from quanthom.maps import S2, volume_form

c2 = de_rham_project(volume_form(S2), m2)
print(f"normalized S^2 volume form, sum over triangles: "
      f"{c2.values.sum():.9f} (exact 1)")

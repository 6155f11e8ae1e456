"""Fractional seminorm estimators.

Gagliardo seminorms, by tensor quadrature on S^1 and by chord-stratified
Monte Carlo on S^2 and S^3, the Hoelder sampled sup, the BMO mean
oscillation, and the Poisson extension probe.
"""

import numpy as np

from quanthom import (bmo_seminorm, build_sphere_mesh, holder_seminorm,
                      poisson_extension_distance, sobolev_seminorm)
from quanthom.maps import (make_circle_power, make_constant, make_hopf,
                           make_oscillation_perturbation,
                           make_sphere_suspension)

print("== Gagliardo seminorm on S^1 ==")
ident = make_circle_power(1)
est = sobolev_seminorm(ident, 0.5, 2.0)
print(f"  identity, beta=1/2, p=2 (tensor):   {est.value:.6f} "
      f"+- {est.error:.1e}   [2*pi = {2 * np.pi:.6f}]")

print("\n== Gagliardo seminorm on S^2 ==")
mc = sobolev_seminorm(make_sphere_suspension(1), 0.5, 4.0, samples=200_000,
                      seed=1)
print(f"  identity, beta=1/2, p=4 ({mc.method}): {mc.value:.6f} "
      f"+- {mc.error:.1e}   [sqrt(4*pi) = {np.sqrt(4 * np.pi):.6f}, "
      f"{mc.samples} map evaluations]")

print("\n== S^3 family, beta = 4/5, p = N/beta ==")
hopf = make_hopf()
est3 = sobolev_seminorm(hopf, 0.8, 3 / 0.8, samples=200_000, seed=2)
print(f"  [hopf]: {est3.value:.4f} +- {est3.error:.4f} ({est3.method})")

print("\n== Hoelder sampled sup ==")
for d in (2, 3):
    h = holder_seminorm(make_circle_power(d), 1.0, samples=20_000, seed=3)
    print(f"  circle-power d={d}, beta=1: {h.value:.6f}  "
          f"(local Lipschitz constant {d})")

print("\n== BMO mean oscillation ==")
for eps in (0.02, 0.05, 0.1):
    f = make_oscillation_perturbation(make_constant(2), eps, 3)
    b = bmo_seminorm(f, seed=4)
    print(f"  perturbed constant eps={eps}: {b.value:.5f} +- {b.error:.5f}")

print("\n== Poisson extension distance ==")
mesh = build_sphere_mesh(2, 3)
probes = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 0.85]])
for name, f in (("constant", make_constant(2)),
                ("identity", make_sphere_suspension(1))):
    out = poisson_extension_distance(f, probes, mesh)
    dists = ", ".join(f"{d:.2e}" for _, d in out)
    print(f"  {name}: distances to target at |x| = 0, 0.3, 0.85: {dists}")

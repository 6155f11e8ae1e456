"""The Hodge antiderivative d^{-1} = d* Delta^{-1}.

Projects a closed 1-form on S^2, solves for its coexact primitive (one
conjugate-gradient curl solve plus a gauge projection), and verifies
the defining contract d(d^{-1} eta) = eta together with co-exactness
d*(d^{-1} eta) = 0.
"""

import numpy as np

from quanthom import build_sphere_mesh, d_inverse, de_rham_project
from quanthom.geometry import FormField
from quanthom.hodge import codifferential, hodge_operator


def report(stats):
    """Print the solve statistics that d_inverse returns."""
    print(f"closedness defect of the input: {stats['closedness']:.2e}")
    print(f"curl solve: {stats['iterations']} CG iterations, "
          f"relative residual {stats['residual']:.2e}")
    print(f"gauge solve: {stats['gauge_iterations']} CG iterations, "
          f"relative residual {stats['gauge_residual']:.2e}")


mesh = build_sphere_mesh(2, 4)

g = FormField(0, lambda p, f: np.sin(2 * p[:, 0]) * p[:, 1] + p[:, 2] ** 2)
eta = de_rham_project(g, mesh).d()          # an exactly closed 1-cochain

xi, stats = d_inverse(eta)
op = hodge_operator(mesh, 1)

print(f"S^2 level 4: {mesh.n_simplices(1)} edges")
report(stats)
print(f"||d(d^-1 eta) - eta|| / ||eta||   = "
      f"{op.norm(xi.d() - eta) / op.norm(eta):.2e}")
w = op.mass_down @ np.ones(mesh.n_simplices(0))
print(f"M_0-mean of d^-1 eta              = {w @ xi.values / w.sum():.2e}"
      f"  (0-cochain: the gauge fixes the constant)")

# on S^3 the same solver runs one degree higher, where d* of the result
# is defined and vanishes to gauge-solve tolerance
mesh3 = build_sphere_mesh(3, 1)
from quanthom.maps import S2 as target
from quanthom.maps import make_hopf, pullback_form, volume_form

eta3 = de_rham_project(pullback_form(make_hopf(), volume_form(target)), mesh3)
xi3, stats3 = d_inverse(eta3, closed_tol=1e-3)
op2 = hodge_operator(mesh3, 2)
print(f"\nS^3 level 1, Hopf pullback:")
report(stats3)
print(f"||d(d^-1 eta) - eta|| / ||eta||   = "
      f"{op2.norm(xi3.d() - eta3) / op2.norm(eta3):.2e}")
dstar = codifferential(xi3)
print(f"max |d*(d^-1 eta)|               = "
      f"{np.abs(dstar.values).max():.2e}  (zero to gauge-solve tolerance)")

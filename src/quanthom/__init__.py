"""Numerical rational homotopy invariants of sphere maps.

Evaluates winding numbers, mapping degrees, the Hopf invariant, and
general wedge-integral invariants of analytic maps f: S^N -> target via
discrete exterior calculus with a Hodge antiderivative; estimates the
fractional Sobolev, Hoelder and BMO seminorms bounding them; and checks
the scaling inequality |deg| <= C * [f]^{(N+L)/beta} on map families.

The batched kernels already run on every core (geometry.mesh.map_blocks),
so BLAS gets one thread: OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS default to 1 when this package is imported before numpy,
which reads them as it loads.  A value already set in the environment is
kept, and a numpy loaded first keeps the threads it started with.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    del _var

__version__ = "0.1.0"

from .geometry import (Cochain, SimplicialSphere, build_sphere_mesh,
                       de_rham_project, exterior_derivative, integrate_wedge)
from .hodge import HodgeOperator, codifferential, d_inverse, hodge_operator
from .invariants import (DegreeStructure, InvariantResult, Term,
                         hardt_riviere, hopf_invariant, mapping_degree,
                         winding_number, winding_number_oracle)
from .linking import gauss_linking_oracle
from .maps import (SmoothMap, make_circle_power, make_constant, make_hopf,
                   make_map_composition, make_oscillation_perturbation,
                   make_product_map, make_sphere_suspension, parse_map_spec,
                   pullback, pullback_form)
from .registry import beta0, catalogue, exponent, lookup, sigma
from .seminorms import (SeminormEstimate, bmo_seminorm, holder_seminorm,
                        poisson_extension_distance, sobolev_seminorm)

__all__ = [
    "__version__",
    "SimplicialSphere", "build_sphere_mesh", "Cochain",
    "exterior_derivative", "de_rham_project", "integrate_wedge",
    "HodgeOperator", "hodge_operator", "codifferential", "d_inverse",
    "SmoothMap", "make_circle_power", "make_sphere_suspension",
    "make_hopf", "make_product_map", "make_constant",
    "make_map_composition", "make_oscillation_perturbation",
    "parse_map_spec", "pullback", "pullback_form",
    "DegreeStructure", "Term", "InvariantResult", "winding_number",
    "mapping_degree", "hopf_invariant", "hardt_riviere",
    "winding_number_oracle", "gauss_linking_oracle",
    "sigma", "beta0", "exponent", "catalogue", "lookup",
    "SeminormEstimate", "sobolev_seminorm", "holder_seminorm",
    "bmo_seminorm", "poisson_extension_distance",
]

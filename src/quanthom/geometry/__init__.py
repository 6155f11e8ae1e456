"""Simplicial sphere meshes and their discrete exterior calculus."""

from .mesh import SimplicialSphere, build_sphere_mesh, SPHERE_VOLUMES
from .cochain import Cochain, exterior_derivative
from .forms import (
    FormField,
    de_rham_project,
    integrate_wedge,
    radial_projection,
    sphere_quadrature,
)
from .quadrature import simplex_rule

__all__ = [
    "SimplicialSphere", "build_sphere_mesh", "SPHERE_VOLUMES",
    "Cochain", "exterior_derivative",
    "FormField", "de_rham_project", "integrate_wedge", "radial_projection",
    "sphere_quadrature", "simplex_rule",
]

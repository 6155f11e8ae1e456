"""Discrete k-forms: one real value per oriented k-simplex."""

from __future__ import annotations

import numpy as np


class Cochain:
    """Value per oriented k-simplex of a SimplicialSphere.

    Supports linear combinations; the exterior derivative is the signed
    incidence sum over boundary faces and satisfies d(d(c)) = 0 exactly.
    """

    __slots__ = ("mesh", "degree", "values")

    def __init__(self, mesh, degree: int, values: np.ndarray):
        if not 0 <= degree <= mesh.dim:
            raise ValueError(f"cochain degree {degree} on S^{mesh.dim}: "
                             f"degrees run 0..{mesh.dim}")
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_simplices(degree),):
            raise ValueError("cochain length does not match simplex count")
        self.mesh = mesh
        self.degree = degree
        self.values = values

    @classmethod
    def zeros(cls, mesh, degree: int) -> "Cochain":
        """The zero cochain; the constructor refuses a degree off 0..N."""
        return cls(mesh, degree, np.zeros(len(mesh.simplices.get(degree, ()))))

    def d(self) -> "Cochain":
        return exterior_derivative(self)

    # -- linear structure -------------------------------------------------

    def _check(self, other: "Cochain"):
        if other.mesh is not self.mesh or other.degree != self.degree:
            raise ValueError("cochain mismatch")

    def __add__(self, other):
        self._check(other)
        return Cochain(self.mesh, self.degree, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Cochain(self.mesh, self.degree, self.values - other.values)

    def __mul__(self, a):
        return Cochain(self.mesh, self.degree, self.values * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return Cochain(self.mesh, self.degree, -self.values)

    def __repr__(self):
        return (f"Cochain(k={self.degree}, n={len(self.values)}, "
                f"S^{self.mesh.dim} level {self.mesh.level})")


def exterior_derivative(c: Cochain) -> Cochain:
    """Coboundary: (dc)(s) = sum of signed values of c on the faces of s."""
    if c.degree >= c.mesh.dim:
        raise ValueError("top degree")
    return Cochain(c.mesh, c.degree + 1, c.mesh.coboundary(c.degree) @ c.values)

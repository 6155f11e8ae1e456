"""Rational homotopy invariants via the wedge-integral representation.

An invariant is described by a DegreeStructure: a sum of terms, each an
integral over S^N of

    c_k * f*(omega_0) ^ d^{-1} f*(omega_1) ^ ... ^ d^{-1} f*(omega_L_k)

with closed target forms omega_i of degrees M_i summing to N + L_k.
The first factor is evaluated analytically at the quadrature points;
the d^{-1} factors are projected to cochains, antidifferentiated by the
Hodge solver, and interpolated back as Whitney forms.

Winding number, mapping degree, and the Hopf invariant are the standard
structures; values are reported raw together with the nearest integer,
never silently rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import de_rham_project, integrate_wedge
from .geometry.forms import PROJECT_DEGREE, WEDGE_DEGREE
from .geometry.quadrature import rule_info
# hodge_operator is not called here; it stays an attribute of this module
# because perfbench/tracing.py wraps quanthom.invariants.hodge_operator
from .hodge import d_inverse, hodge_operator  # noqa: F401
from .maps import (S1, S2, S2xS2, SmoothMap, Target, pullback_form,
                   sphere_target, volume_form)

_ORACLE_POINTS = 8192    # polygon vertices of the winding-number oracle


@dataclass(frozen=True)
class Term:
    """One wedge integral: coefficient and form degrees [M_0, .., M_L]."""
    coefficient: Fraction
    degrees: tuple
    forms: tuple | None = None          # None marks a symbolic-only term

    @property
    def L(self) -> int:
        return len(self.degrees) - 1


@dataclass(frozen=True)
class DegreeStructure:
    """Data of the representation formula for one rational invariant."""
    name: str
    domain_dim: int
    terms: tuple
    target: Target | None = None        # None for symbolic-only entries

    def __post_init__(self):
        N = self.domain_dim
        for t in self.terms:
            if t.degrees == (1,) and N == 1:
                continue                # the S^1 winding special case
            if sum(t.degrees) != N + t.L:
                raise ValueError("term degrees must sum to N + L")
            if not 2 <= t.degrees[0] <= N:
                raise ValueError("M_0 must lie in {2..N}")
            # L = 0 forces M_0 = N, already implied by the sum rule
            for M in t.degrees[1:]:
                if not 2 <= M <= N - 1:
                    raise ValueError("M_i must lie in {2..N-1} for i >= 1")

    @property
    def L(self) -> int:
        return max(t.L for t in self.terms)

    @property
    def numerically_evaluable(self) -> bool:
        return (self.target is not None
                and all(t.forms is not None for t in self.terms)
                and self.domain_dim <= 3)


@dataclass
class InvariantResult:
    value: float
    per_term: list
    mesh_level: int
    residuals: dict
    quadrature: dict    # stage -> exact degree and nodes per simplex
    nearest_int: int = field(init=False)
    int_distance: float = field(init=False)

    def __post_init__(self):
        self.nearest_int = int(np.rint(self.value))
        self.int_distance = abs(self.value - self.nearest_int)


# -- standard structures -------------------------------------------------

def winding_structure() -> DegreeStructure:
    return DegreeStructure("winding", 1,
                           (Term(Fraction(1), (1,), (volume_form(S1),)),), S1)


def degree_structure(N: int) -> DegreeStructure:
    tgt = sphere_target(N)
    return DegreeStructure(f"degree:s{N}", N,
                           (Term(Fraction(1), (N,), (volume_form(tgt),)),), tgt)


def hopf_structure() -> DegreeStructure:
    om = volume_form(S2)
    return DegreeStructure("hopf:n=1", 3,
                           (Term(Fraction(1), (2, 2), (om, om)),), S2)


def s2xs2_beta_structure(i: int) -> DegreeStructure:
    om = volume_form(S2xS2, i - 1)
    return DegreeStructure(f"s2xs2:beta{i}", 3,
                           (Term(Fraction(1), (2, 2), (om, om)),), S2xS2)


def s2xs2_alpha_structure(i: int) -> DegreeStructure:
    om = volume_form(S2xS2, i - 1)
    return DegreeStructure(f"s2xs2:alpha{i}", 2,
                           (Term(Fraction(1), (2,), (om,)),), S2xS2)


# -- evaluators -----------------------------------------------------------

def check_evaluable(f: SmoothMap, structure: DegreeStructure, dim: int):
    """Raise ValueError unless hardt_riviere can evaluate `structure` for
    f on a mesh of S^dim; cheap, so callers can check before a mesh build."""
    if not structure.numerically_evaluable:
        raise ValueError("structure not numerically evaluable")
    if dim != structure.domain_dim:
        raise ValueError("mesh dimension does not match the structure")
    if f.domain_dim != structure.domain_dim:
        raise ValueError("map domain does not match the structure")
    if structure.target is not None and f.target != structure.target:
        raise ValueError("map target does not match the structure's forms")


def hardt_riviere(f: SmoothMap, structure: DegreeStructure, mesh) -> InvariantResult:
    """General multi-term invariant evaluation on a mesh.

    For each term the first pulled-back form enters the wedge
    analytically; every further factor is projected, run through
    d^{-1} = d* Delta^{-1} (a curl solve plus a gauge projection, see
    `hodge`), and enters as the Whitney interpolant of the resulting
    cochain.  Solve statistics and closedness defects are collected per
    term.
    """
    check_evaluable(f, structure, mesh.dim)
    per_term = []
    residuals: dict = {}
    quadrature = {"wedge": rule_info(mesh.dim, WEDGE_DEGREE)}
    for kterm, term in enumerate(structure.terms):
        factors = [pullback_form(f, term.forms[0])]
        for i, om in enumerate(term.forms[1:], start=1):
            eta = de_rham_project(pullback_form(f, om), mesh)
            quadrature["projection"] = rule_info(om.degree, PROJECT_DEGREE)
            xi, residuals[f"term{kterm}.d_inverse{i}"] = d_inverse(eta)
            factors.append(xi)
        val = integrate_wedge(factors, mesh)
        per_term.append(val)
    value = float(sum(float(t.coefficient) * v
                      for t, v in zip(structure.terms, per_term)))
    return InvariantResult(value, per_term, mesh.level, residuals, quadrature)


def winding_number(f: SmoothMap, mesh) -> InvariantResult:
    """(1/2pi) integral of f*(dtheta); pure quadrature, no Hodge solve."""
    if f.domain_dim != 1 or f.target != S1:
        raise ValueError("winding number requires a circle map")
    return hardt_riviere(f, winding_structure(), mesh)


def mapping_degree(f: SmoothMap, mesh) -> InvariantResult:
    """Degree of f: S^N -> S^N as the integral of the pulled-back
    normalized volume form."""
    if f.target.kind != "sphere" or f.target.dim != f.domain_dim:
        raise ValueError("dimension mismatch")
    if f.domain_dim not in (2, 3):
        raise ValueError("dimension mismatch")
    return hardt_riviere(f, degree_structure(f.domain_dim), mesh)


def hopf_invariant(f: SmoothMap, mesh) -> InvariantResult:
    """Integral Hopf invariant of f: S^3 -> S^2."""
    if f.domain_dim != 3 or f.target != S2:
        raise ValueError("hopf invariant requires a map S3 -> S2")
    return hardt_riviere(f, hopf_structure(), mesh)


def winding_number_oracle(f: SmoothMap) -> int:
    """Branch-tracking oracle: continuous argument along a fine polygon."""
    th = np.linspace(0.0, 2 * np.pi, _ORACLE_POINTS, endpoint=False)
    X = np.stack([np.cos(th), np.sin(th)], axis=1)
    Y = f.value(X)
    ang = np.arctan2(Y[:, 1], Y[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    total = d.sum() / (2 * np.pi)
    return int(np.rint(total))

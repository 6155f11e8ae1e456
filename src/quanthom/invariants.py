"""Rational homotopy invariants via the wedge-integral representation.

An invariant is described by a DegreeStructure: a sum of terms, each an
integral over S^N of

    c_k * f*(omega_0) ^ d^{-1} f*(omega_1) ^ ... ^ d^{-1} f*(omega_L_k)

with closed target forms omega_i of degrees M_i summing to N + L_k.

A term with L = 0 (winding number, mapping degree) is the pulled-back
top form, evaluated analytically on the tops by the rule of degree
WEDGE_DEGREE.

A term with L = 1 evaluates Whitehead's integral H = int alpha ^ d alpha
with d alpha = f*omega (Whitehead, PNAS 1947), so both of its forms must
be one and the same omega.  f*omega is projected to a cochain eta,
antidifferentiated by the Hodge solver, xi = d^{-1} eta, and interpolated
back as the Whitney form alpha_h = W(xi).  The term tries the first of
two projection rules and takes the second where de_rham_project or
d_inverse refuses the first; its value follows from the rule:

* "solid_angle": the solid-angle cochain of the vertex images
  (geometry.forms._solid_angles), which de_rham_project makes for the
  area form of an S^2 factor (every L = 1 term of the catalogue).  Where
  the mesh resolves f that cochain is closed to round-off, so D xi = eta
  to the solver tolerance and the value is the Chern-Simons integral

      H = CS(alpha_h) = int W(D xi) ^ W(xi),

  which converges at O(h^4) and needs no derivative of f.  Where it does
  not, the cochain is off by O(1) on some tets (the integer charge of a
  tet whose image wraps S^2) and d_inverse's closedness gate refuses it.
* "quadrature", where the first rule is refused: eta holds the integrals
  of f*omega on the rule of degree PROJECT_DEGREE, closed only to
  quadrature error, and the value is

      H* = 2 H_A - CS(alpha_h),   H_A = int f*omega ^ alpha_h.

  Whitney forms commute with d, D W = W d (Arnold, Falk & Winther, Acta
  Numerica 2006), and integration by parts on S^3 gives H* = H -
  CS(alpha - alpha_h): the first-order error of H_A, int d alpha ^
  (alpha - alpha_h), cancels, and H* converges at O(h^4) where H_A does
  at O(h^2).

Both wedges run on the 4-node rule of degree CS_WEDGE_DEGREE; CS(alpha_h)
is a product of two affine Whitney forms per top, which that rule
integrates exactly.

Winding number, mapping degree, and the Hopf invariant are the standard
structures; values are reported raw together with the nearest integer,
never silently rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import de_rham_project, integrate_wedge
from .geometry.forms import CS_WEDGE_DEGREE, PROJECT_DEGREE, WEDGE_DEGREE
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
    quadrature: dict    # stage -> its rule: exact degree and nodes per
                        # simplex, or the projection rule of an L = 1 term
    corrections: dict   # L = 1 term -> its rule, CS(alpha_h) and, by
                        # quadrature, H_A
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
    for k, term in enumerate(structure.terms):
        if term.L == 1 and term.forms[0] is not term.forms[1]:
            raise ValueError(
                f"term {k} of {structure.name} (degrees {term.degrees}) "
                f"wedges two different forms: the corrected L = 1 estimate "
                f"needs f*omega ^ d^{{-1}} f*omega with one omega")


def _primitive(fstar, mesh) -> tuple:
    """(rule, xi, stats): xi = d^{-1} of the solid-angle cochain of fstar,
    or of its quadrature projection where de_rham_project or d_inverse
    refuses that cochain (module docstring)."""
    try:
        return ("solid_angle",
                *d_inverse(de_rham_project(fstar, mesh, "solid_angle")))
    except ValueError:
        pass
    return ("quadrature", *d_inverse(de_rham_project(fstar, mesh)))


def hardt_riviere(f: SmoothMap, structure: DegreeStructure, mesh) -> InvariantResult:
    """General multi-term invariant evaluation on a mesh.

    A term with L = 0 integrates its pulled-back top form on the rule of
    degree WEDGE_DEGREE.  A term with L = 1 projects f*omega by the
    solid-angle or the quadrature rule, runs it through d^{-1} =
    d* Delta^{-1} (a curl solve plus a gauge projection, see `hodge`) and
    returns H = CS(alpha_h) or H* = 2 H_A - CS(alpha_h) on the rule of
    degree CS_WEDGE_DEGREE (module docstring).  `quadrature` names each
    stage's rule and, as `term<k>.projection`, each L = 1 term's
    projection rule; `corrections` holds each L = 1 term's rule, its
    CS(alpha_h) and, by quadrature, its H_A.  Solve statistics and
    closedness defects are collected per term.
    """
    check_evaluable(f, structure, mesh.dim)
    per_term = []
    residuals: dict = {}
    quadrature: dict = {}
    corrections: dict = {}
    for kterm, term in enumerate(structure.terms):
        fstar = pullback_form(f, term.forms[0])
        if term.L == 0:
            quadrature["wedge"] = rule_info(mesh.dim, WEDGE_DEGREE)
            per_term.append(integrate_wedge([fstar], mesh, WEDGE_DEGREE))
            continue
        key = f"term{kterm}"
        rule, xi, residuals[f"{key}.d_inverse1"] = _primitive(fstar, mesh)
        cs = integrate_wedge([xi.d(), xi], mesh, CS_WEDGE_DEGREE)
        quadrature["cs_wedge"] = rule_info(mesh.dim, CS_WEDGE_DEGREE)
        if rule == "solid_angle":
            quadrature[f"{key}.projection"] = {"rule": rule}
            corrections[key] = {"rule": rule, "chern_simons": cs}
            per_term.append(cs)
            continue
        raw = integrate_wedge([fstar, xi], mesh, CS_WEDGE_DEGREE)
        quadrature[f"{key}.projection"] = {
            "rule": rule, **rule_info(fstar.degree, PROJECT_DEGREE)}
        corrections[key] = {"rule": rule, "uncorrected": raw,
                            "chern_simons": cs}
        per_term.append(2.0 * raw - cs)
    value = float(sum(float(t.coefficient) * v
                      for t, v in zip(structure.terms, per_term)))
    return InvariantResult(value, per_term, mesh.level, residuals, quadrature,
                           corrections)


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
        raise ValueError(f"mapping_degree takes S^2 and S^3, not "
                         f"S^{f.domain_dim}; the degree of a circle map is "
                         f"its winding number (winding_number)")
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

"""Analytic map families f: S^N -> target and the targets' reference forms.

Every family provides exact pointwise values and ambient Jacobians,
vectorized over batches of points: value(X) maps (m, N+1) -> (m, M')
and jacobian(X) -> (m, M', N+1).  Jacobians are applied to tangent
vectors of the domain sphere only, so the radial derivative of the
defining formula is immaterial.

Targets are unit spheres S^M in R^{M+1} and the product S^2 x S^2 in
R^6.  Reference forms carry their normalization (volume forms integrate
to 1 over the target).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry.forms import FormField
from .geometry.mesh import SPHERE_VOLUMES
from .geometry.minors import det


# ----------------------------------------------------------------------
# targets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    kind: str                 # "sphere" | "product"
    dim: int                  # manifold dimension
    ambient: int              # embedding dimension
    factors: tuple = ()

    def __str__(self):
        if self.kind == "sphere":
            return f"S{self.dim}"
        return "x".join(str(f) for f in self.factors)

    @property
    def blocks(self) -> tuple:
        """The ambient coordinate slice of each sphere factor."""
        if self.kind == "sphere":
            return (slice(0, self.ambient),)
        ends = np.cumsum([0] + [f.ambient for f in self.factors]).tolist()
        return tuple(map(slice, ends[:-1], ends[1:]))


def sphere_target(M: int) -> Target:
    return Target("sphere", M, M + 1)

S1 = sphere_target(1)
S2 = sphere_target(2)
S3 = sphere_target(3)
S2xS2 = Target("product", 4, 6, (S2, S2))


def distance_to_target(points: np.ndarray, target: Target) -> np.ndarray:
    """Euclidean distance from ambient points to the target manifold."""
    pts = np.atleast_2d(points)
    return np.sqrt(sum((np.linalg.norm(pts[:, b], axis=1) - 1.0) ** 2
                       for b in target.blocks))


def project_to_target(points: np.ndarray, target: Target) -> np.ndarray:
    """Analytic nearest-point projection onto the target."""
    pts = np.atleast_2d(points)
    return np.concatenate([pts[:, b] / np.linalg.norm(pts[:, b], axis=1,
                                                      keepdims=True)
                           for b in target.blocks], axis=1)


# ----------------------------------------------------------------------
# smooth maps
# ----------------------------------------------------------------------

class SmoothMap:
    """Analytic map from S^N into a target manifold."""

    def __init__(self, domain_dim: int, target: Target, value, jacobian,
                 name: str = ""):
        self.domain_dim = domain_dim
        self.target = target
        self._value = value
        self._jacobian = jacobian
        self.name = name

    def value(self, X: np.ndarray) -> np.ndarray:
        return self._value(np.atleast_2d(np.asarray(X, dtype=float)))

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        return self._jacobian(np.atleast_2d(np.asarray(X, dtype=float)))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = self.value(X)
        return out[0] if X.ndim == 1 else out

    def __repr__(self):
        return f"SmoothMap({self.name!r}: S{self.domain_dim} -> {self.target})"


def make_circle_power(d: int) -> SmoothMap:
    """theta -> d*theta on the unit circle; winding number d."""
    d = int(d)

    def value(X):
        th = np.arctan2(X[:, 1], X[:, 0])
        return np.stack([np.cos(d * th), np.sin(d * th)], axis=1)

    def jacobian(X):
        r2 = (X ** 2).sum(axis=1)
        th = np.arctan2(X[:, 1], X[:, 0])
        gth = np.stack([-X[:, 1] / r2, X[:, 0] / r2], axis=1)
        col = np.stack([-np.sin(d * th), np.cos(d * th)], axis=1) * d
        return col[:, :, None] * gth[:, None, :]

    return SmoothMap(1, S1, value, jacobian, name=f"circle-power:d={d}")


def make_sphere_suspension(d: int) -> SmoothMap:
    """(colatitude, longitude) -> (colatitude, d*longitude) on S^2.

    Smooth away from the poles, Lipschitz globally; classical degree d.
    """
    d = int(d)

    def _trig(X):
        x, y = X[:, 0], X[:, 1]
        rho = np.hypot(x, y)
        th = np.arctan2(y, x)
        return x, y, rho, np.cos(d * th), np.sin(d * th)

    def value(X):
        x, y, rho, c, s = _trig(X)
        return np.stack([rho * c, rho * s, X[:, 2]], axis=1)

    def jacobian(X):
        x, y, rho, c, s = _trig(X)
        J = np.zeros((len(X), 3, 3))
        J[:, 0, 0] = c * x / rho + d * s * y / rho
        J[:, 0, 1] = c * y / rho - d * s * x / rho
        J[:, 1, 0] = s * x / rho - d * c * y / rho
        J[:, 1, 1] = s * y / rho + d * c * x / rho
        J[:, 2, 2] = 1.0
        return J

    return SmoothMap(2, S2, value, jacobian, name=f"suspension:d={d}")


# Df of the Hopf map is linear in X: row i is 2 * sign * X[columns]
_HOPF_COLUMNS = np.array([[0, 1, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0]])
_HOPF_SIGNS = 2.0 * np.array([[1, 1, -1, -1], [1, 1, 1, 1], [-1, 1, 1, -1]])


def make_hopf() -> SmoothMap:
    """Quaternionic Hopf map S^3 -> S^2 with Hopf invariant 1."""

    def value(X):
        a, b, c, d = X.T
        return np.stack([a * a + b * b - c * c - d * d,
                         2 * (a * c + b * d),
                         2 * (b * c - a * d)], axis=1)

    def jacobian(X):
        J = X[:, _HOPF_COLUMNS]
        J *= _HOPF_SIGNS
        return J

    return SmoothMap(3, S2, value, jacobian, name="hopf")


def make_constant(domain_dim: int, target: Target = S2,
                  point: np.ndarray | None = None) -> SmoothMap:
    if point is None:
        point = np.zeros(target.ambient)
        point[[b.start for b in target.blocks]] = 1.0
    point = np.asarray(point, dtype=float)

    def value(X):
        return np.broadcast_to(point, (len(X), len(point))).copy()

    def jacobian(X):
        return np.zeros((len(X), len(point), domain_dim + 1))

    return SmoothMap(domain_dim, target, value, jacobian, name="const")


def make_reflection(domain_dim: int, axis: int = 0) -> SmoothMap:
    """Orientation-reversing isometry of S^N (one coordinate negated)."""
    tgt = sphere_target(domain_dim)
    sign = np.ones(domain_dim + 1)
    sign[axis] = -1.0

    def value(X):
        return X * sign

    def jacobian(X):
        return np.broadcast_to(np.diag(sign), (len(X), len(sign), len(sign))).copy()

    return SmoothMap(domain_dim, tgt, value, jacobian, name=f"reflect:axis={axis}")


def make_antipodal(domain_dim: int) -> SmoothMap:
    tgt = sphere_target(domain_dim)

    def value(X):
        return -X

    def jacobian(X):
        n = domain_dim + 1
        return np.broadcast_to(-np.eye(n), (len(X), n, n)).copy()

    return SmoothMap(domain_dim, tgt, value, jacobian, name="antipodal")


def make_product_map(f1: SmoothMap, f2: SmoothMap) -> SmoothMap:
    """x -> (f1(x), f2(x)) into the product of the factor targets."""
    if f1.domain_dim != f2.domain_dim:
        raise ValueError("product factors must share the domain")
    if not (f1.target.kind == "sphere" and f2.target.kind == "sphere"):
        raise ValueError("product factors must map into spheres")
    tgt = Target("product", f1.target.dim + f2.target.dim,
                 f1.target.ambient + f2.target.ambient,
                 (f1.target, f2.target))

    def value(X):
        return np.concatenate([f1.value(X), f2.value(X)], axis=1)

    def jacobian(X):
        return np.concatenate([f1.jacobian(X), f2.jacobian(X)], axis=1)

    return SmoothMap(f1.domain_dim, tgt, value, jacobian,
                     name=f"product:{f1.name},{f2.name}")


def make_map_composition(g: SmoothMap, f: SmoothMap) -> SmoothMap:
    """g after f; domains must match up."""
    if f.target.ambient != g.domain_dim + 1:
        raise ValueError("composition domain mismatch")

    def value(X):
        return g.value(f.value(X))

    def jacobian(X):
        return g.jacobian(f.value(X)) @ f.jacobian(X)

    return SmoothMap(f.domain_dim, g.target, value, jacobian,
                     name=f"compose:{g.name}|{f.name}")


def compose_with_isometry(f: SmoothMap, Q: np.ndarray) -> SmoothMap:
    """f composed with the orthogonal map x -> Q x of its domain."""
    Q = np.asarray(Q, dtype=float)

    def value(X):
        return f.value(X @ Q.T)

    def jacobian(X):
        return f.jacobian(X @ Q.T) @ Q

    return SmoothMap(f.domain_dim, f.target, value, jacobian,
                     name=f"{f.name}∘R")


_OSC_SHIFT = 0.7


def _osc_field(ambient_out: int, n_in: int):
    """Fixed smooth vector field used by the oscillation perturbation."""

    def g(U):
        out = np.empty((len(U), ambient_out))
        for j in range(ambient_out):
            arg = U[:, j % n_in] + _OSC_SHIFT * U[:, (j + 1) % n_in] + j
            out[:, j] = np.sin(arg)
        return out

    def dg(U):
        out = np.zeros((len(U), ambient_out, n_in))
        for j in range(ambient_out):
            arg = U[:, j % n_in] + _OSC_SHIFT * U[:, (j + 1) % n_in] + j
            c = np.cos(arg)
            out[:, j, j % n_in] += c
            out[:, j, (j + 1) % n_in] += _OSC_SHIFT * c
        return out

    return g, dg


def make_oscillation_perturbation(f: SmoothMap, eps: float, m: int) -> SmoothMap:
    """x -> Pi(f(x) + eps g(m x)): homotopic wiggle at fixed invariant.

    The straight-line homotopy stays inside the tubular neighborhood of
    the target for eps < 0.2, so the homotopy class of f is unchanged.
    """
    if eps >= 0.2:
        raise ValueError("leaves tubular neighborhood")
    eps = float(eps)
    m = int(m)
    tgt = f.target
    g, dg = _osc_field(tgt.ambient, f.domain_dim + 1)

    def raw(X):
        return f.value(X) + eps * g(m * X)

    def value(X):
        return project_to_target(raw(X), tgt)

    def jacobian(X):
        Y = raw(X)
        J = f.jacobian(X) + eps * m * dg(m * X)
        out = np.empty_like(J)
        for b in tgt.blocks:
            seg = Y[:, b]
            r = np.linalg.norm(seg, axis=1, keepdims=True)
            unit = seg / r
            Jb = J[:, b, :]
            rad = np.einsum("md,mdk->mk", unit, Jb)
            out[:, b, :] = (Jb - unit[:, :, None] * rad[:, None, :]) / r[:, :, None]
        return out

    return SmoothMap(f.domain_dim, tgt, value, jacobian,
                     name=f"perturb:eps={eps},m={m}|{f.name}")


# ----------------------------------------------------------------------
# target forms
# ----------------------------------------------------------------------

class TargetForm(FormField):
    """Closed reference form on a target manifold."""

    def __init__(self, target: Target, degree: int, evaluator, name: str = ""):
        super().__init__(degree, evaluator, name=name)
        self.target = target


def volume_form(target: Target) -> TargetForm:
    """Normalized volume form of a sphere target (integral 1).

    For S^1 this is dtheta/2pi, the generator of H^1.
    """
    if target.kind != "sphere":
        raise ValueError("volume form defined for sphere targets")
    M = target.dim
    scale = 1.0 / SPHERE_VOLUMES[M]

    def ev(points, frames):
        return det(np.concatenate([points[:, None, :], frames], axis=1)) * scale

    return TargetForm(target, M, ev, name=f"vol[S{M}]")


def product_factor_form(target: Target, i: int) -> TargetForm:
    """Pullback of the S^2 generator under the i-th coordinate projection."""
    if target.kind != "product":
        raise ValueError("factor form requires a product target")
    b = target.blocks[i]
    scale = 1.0 / SPHERE_VOLUMES[target.factors[i].dim]

    def ev(points, frames):
        return det(np.concatenate([points[:, None, b], frames[:, :, b]],
                                  axis=1)) * scale

    return TargetForm(target, target.factors[i].dim, ev, name=f"omega_{i + 1}")


class PullbackForm(FormField):
    """f^*(omega)(x; v_1..v_k) = omega(f(x); Df v_1, .., Df v_k)."""

    def __init__(self, f: SmoothMap, omega):
        if omega.degree > f.domain_dim:
            raise ValueError("form degree exceeds domain dimension")
        super().__init__(omega.degree, self._evaluate,
                         name=f"{f.name}^*({omega.name})")
        self.map = f
        self.form = omega

    def _push(self, points, frames):
        """f at the points and Df applied to every frame vector."""
        # Df^T (m, n, M') made contiguous once; Df itself is freed here
        DfT = np.swapaxes(self.map.jacobian(points), 1, 2).copy()
        return self.map.value(points), frames @ DfT

    def _evaluate(self, points, frames):
        return self.form(*self._push(points, frames))

    def on_frame_subsets(self, points, frames, subsets):
        """One evaluation of f and Df per point for all subsets."""
        y, W = self._push(points, frames)
        return np.stack([self.form(y, W[:, list(sub), :]) for sub in subsets],
                        axis=-1)


def pullback(f: SmoothMap, omega, x, *vectors) -> float:
    """Pointwise pullback f^*(omega)(x; v_1..v_k) = omega(f(x); Df v_i)."""
    x = np.asarray(x, dtype=float)
    V = np.array(vectors, dtype=float).reshape(len(vectors), len(x))
    return float(PullbackForm(f, omega)(x[None], V[None])[0])


def pullback_form(f: SmoothMap, omega) -> FormField:
    """f^*(omega) as a vectorized form field on the domain sphere."""
    return PullbackForm(f, omega)


# ----------------------------------------------------------------------
# verification helpers and the map-spec grammar
# ----------------------------------------------------------------------

def jacobian_fd_error(f: SmoothMap, n_probes: int = 1000, seed: int = 0,
                      step: float = 1e-5) -> float:
    """Worst relative error of Df against central finite differences.

    Probes random points and random tangent directions; differences are
    taken along renormalized chords so all evaluations stay on the
    domain sphere.
    """
    rng = np.random.default_rng(seed)
    n = f.domain_dim + 1
    X = rng.standard_normal((n_probes, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    V = rng.standard_normal((n_probes, n))
    V -= (V * X).sum(axis=1, keepdims=True) * X
    V /= np.linalg.norm(V, axis=1, keepdims=True)

    def at(t):
        P = X + t * V
        return f.value(P / np.linalg.norm(P, axis=1, keepdims=True))

    fd = (at(step) - at(-step)) / (2 * step)
    an = np.einsum("mij,mj->mi", f.jacobian(X), V)
    num = np.linalg.norm(fd - an, axis=1)
    den = np.maximum(np.linalg.norm(an, axis=1), 1.0)
    return float((num / den).max())


def target_distance_error(f: SmoothMap, n_probes: int = 1000, seed: int = 0) -> float:
    """Max distance of sampled values from the target manifold."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_probes, f.domain_dim + 1))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return float(distance_to_target(f.value(X), f.target).max())


def _spec_keys(spec: str, args: str, required=(), optional=()) -> dict:
    """The key=value parameters of a map spec, checked against the keys
    its family takes; an unknown, repeated or missing key is named."""
    kv = {}
    for part in args.split(",") if args else ():
        key, eq, val = (x.strip() for x in part.partition("="))
        if not eq:
            raise ValueError(f"parameter {part!r} is not key=value in map "
                             f"spec {spec!r}")
        if key not in required and key not in optional:
            raise ValueError(f"unknown key {key!r} in map spec {spec!r}")
        if key in kv:
            raise ValueError(f"repeated key {key!r} in map spec {spec!r}")
        kv[key] = val
    for key in required:
        if key not in kv:
            raise ValueError(f"missing key {key!r} in map spec {spec!r}")
    return kv


def parse_map_spec(spec: str) -> SmoothMap:
    """Build a map family from its CLI string.

    Grammar: `circle-power:d=3`, `suspension:d=2`, `hopf`, `const`,
    `antipodal:n=2`, `compose:OUTER|INNER`, `product:SPEC,SPEC`,
    `perturb:eps=0.1,m=7|SPEC`.  Unknown, repeated and missing keys
    raise ValueError naming the key and the spec.
    """
    spec = spec.strip()
    if spec.startswith("compose:"):
        outer, _, inner = spec[len("compose:"):].partition("|")
        if not inner:
            raise ValueError(f"compose needs OUTER|INNER in {spec!r}")
        return make_map_composition(parse_map_spec(outer), parse_map_spec(inner))
    if spec.startswith("perturb:"):
        args, _, inner = spec[len("perturb:"):].partition("|")
        if not inner:
            raise ValueError(f"perturb needs parameters|SPEC in {spec!r}")
        kv = _spec_keys(spec, args, required=("eps",), optional=("m",))
        return make_oscillation_perturbation(
            parse_map_spec(inner), float(kv["eps"]), int(kv.get("m", 1)))
    if spec.startswith("product:"):
        parts = spec[len("product:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"product needs two factor specs in {spec!r}")
        maps = []
        for p in parts:
            p = p.strip()
            if p == "const":
                maps.append(None)
            else:
                maps.append(parse_map_spec(p))
        dom = next(m.domain_dim for m in maps if m is not None)
        maps = [m if m is not None else make_constant(dom, S2) for m in maps]
        return make_product_map(*maps)
    head, _, args = spec.partition(":")
    if head in ("circle-power", "suspension"):
        d = int(_spec_keys(spec, args, required=("d",))["d"])
        return make_circle_power(d) if head == "circle-power" else make_sphere_suspension(d)
    if head == "hopf":
        _spec_keys(spec, args)
        return make_hopf()
    if head in ("antipodal", "const"):
        n = _spec_keys(spec, args, optional=("n",)).get("n")
        if head == "antipodal":
            return make_antipodal(int(n or 2))
        return make_constant(int(n or 3), S2)
    raise ValueError(f"unknown map spec {spec!r}")

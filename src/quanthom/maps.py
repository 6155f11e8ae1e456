"""Analytic map families f: S^N -> target and the targets' reference forms.

Every family provides exact pointwise values and ambient Jacobians,
vectorized over batches of points: value(X) maps (m, N+1) -> (m, M'),
and jet(X) returns the value and the Jacobian (m, M', N+1) from one
pass, computing the intermediates they share once (forward mode: a
composition chains its factors' jets).  jacobian(X) is the second half
of jet(X), so every family has one Jacobian formula, and jet(X)[0] is
the same bits as value(X).  Jacobians are applied to tangent vectors of
the domain sphere only, so the radial derivative of the defining
formula is immaterial.

Targets are unit spheres S^M in R^{M+1} and the product S^2 x S^2 in
R^6.  Reference forms carry their normalization (volume forms integrate
to 1 over the target).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry.forms import FormField
from .geometry.mesh import SPHERE_VOLUMES
from .geometry.minors import det_rows, row_norm, row_sum


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
    return np.sqrt(sum((row_norm(pts[:, b]) - 1.0) ** 2
                       for b in target.blocks))


def project_to_target(points: np.ndarray, target: Target) -> np.ndarray:
    """Analytic nearest-point projection onto the target."""
    pts = np.atleast_2d(points)
    return np.concatenate([pts[:, b] / row_norm(pts[:, b])[:, None]
                           for b in target.blocks], axis=1)


# ----------------------------------------------------------------------
# smooth maps
# ----------------------------------------------------------------------

class SmoothMap:
    """Analytic map from S^N into a target manifold, given by its value
    and its jet X -> (f(X), Df(X)) on batches of points."""

    def __init__(self, domain_dim: int, target: Target, value, jet,
                 name: str = ""):
        self.domain_dim = domain_dim
        self.target = target
        self._value = value
        self._jet = jet
        self.name = name

    def value(self, X: np.ndarray) -> np.ndarray:
        return self._value(np.atleast_2d(np.asarray(X, dtype=float)))

    def jet(self, X: np.ndarray) -> tuple:
        """(f(X), Df(X)) from one pass over the points."""
        return self._jet(np.atleast_2d(np.asarray(X, dtype=float)))

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        return self.jet(X)[1]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = self.value(X)
        return out[0] if X.ndim == 1 else out

    def __repr__(self):
        return f"SmoothMap({self.name!r}: S{self.domain_dim} -> {self.target})"


def make_circle_power(d: int) -> SmoothMap:
    """theta -> d*theta on the unit circle; winding number d."""
    d = int(d)

    def trig(X):
        th = np.arctan2(X[:, 1], X[:, 0])
        return np.cos(d * th), np.sin(d * th)

    def value(X):
        return np.stack(trig(X), axis=1)

    def jet(X):
        c, s = trig(X)
        r2 = row_sum(X ** 2)
        gth = np.stack([-X[:, 1] / r2, X[:, 0] / r2], axis=1)
        col = np.stack([-s, c], axis=1) * d
        return np.stack([c, s], axis=1), col[:, :, None] * gth[:, None, :]

    return SmoothMap(1, S1, value, jet, name=f"circle-power:d={d}")


def make_sphere_suspension(d: int) -> SmoothMap:
    """(colatitude, longitude) -> (colatitude, d*longitude) on S^2.

    Smooth away from the poles, Lipschitz globally; classical degree d.
    At a pole (rho = 0) the Jacobian has no limit; the jet returns its
    limit along the meridian theta = 0, diag(1, d, 1).
    """
    d = int(d)

    def _trig(X):
        x, y = X[:, 0], X[:, 1]
        rho = np.hypot(x, y)
        th = np.arctan2(y, x)
        return x, y, rho, np.cos(d * th), np.sin(d * th)

    def point(X, rho, c, s):
        return np.stack([rho * c, rho * s, X[:, 2]], axis=1)

    def value(X):
        _, _, rho, c, s = _trig(X)
        return point(X, rho, c, s)

    def jet(X):
        x, y, rho, c, s = _trig(X)
        pole = rho == 0.0
        r = np.where(pole, 1.0, rho)    # no 0/0 at the poles
        J = np.zeros((len(X), 3, 3))
        J[:, 0, 0] = c * x / r + d * s * y / r
        J[:, 0, 1] = c * y / r - d * s * x / r
        J[:, 1, 0] = s * x / r - d * c * y / r
        J[:, 1, 1] = s * y / r + d * c * x / r
        J[:, 2, 2] = 1.0
        J[pole, :2, :2] = np.diag([1.0, d])
        return point(X, rho, c, s), J

    return SmoothMap(2, S2, value, jet, name=f"suspension:d={d}")


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

    def jet(X):
        J = X[:, _HOPF_COLUMNS]
        J *= _HOPF_SIGNS
        return value(X), J

    return SmoothMap(3, S2, value, jet, name="hopf")


def make_constant(domain_dim: int) -> SmoothMap:
    """S^N -> S^2 onto the first basis vector."""
    point = np.array([1.0, 0.0, 0.0])

    def value(X):
        return np.broadcast_to(point, (len(X), 3)).copy()

    def jet(X):
        return value(X), np.zeros((len(X), 3, domain_dim + 1))

    return SmoothMap(domain_dim, S2, value, jet,
                     name=f"const:n={domain_dim}")


def _sign_map(sign: np.ndarray, name: str) -> SmoothMap:
    """x -> sign * x, an isometry of S^N for N + 1 signs."""
    n = len(sign)

    def value(X):
        return X * sign

    def jet(X):
        return value(X), np.broadcast_to(np.diag(sign), (len(X), n, n)).copy()

    return SmoothMap(n - 1, sphere_target(n - 1), value, jet, name=name)


def make_reflection(domain_dim: int, axis: int = 0) -> SmoothMap:
    """Orientation-reversing isometry of S^N (one coordinate negated)."""
    if not 0 <= axis <= domain_dim:
        raise ValueError(f"reflection axis {axis} is not a coordinate of "
                         f"S^{domain_dim}")
    sign = np.ones(domain_dim + 1)
    sign[axis] = -1.0
    return _sign_map(sign, f"reflect:n={domain_dim},axis={axis}")


def make_antipodal(domain_dim: int) -> SmoothMap:
    """x -> -x on S^N, of degree (-1)^(N+1)."""
    return _sign_map(-np.ones(domain_dim + 1), f"antipodal:n={domain_dim}")


def make_product_map(f1: SmoothMap, f2: SmoothMap) -> SmoothMap:
    """x -> (f1(x), f2(x)) into the product of the factor targets."""
    if f1.domain_dim != f2.domain_dim:
        raise MapSpecError(f"product factors must share the domain: "
                           f"{f1.name!r} is defined on S^{f1.domain_dim}, "
                           f"{f2.name!r} on S^{f2.domain_dim}")
    if not (f1.target.kind == "sphere" and f2.target.kind == "sphere"):
        raise MapSpecError(f"product factors must map into spheres: "
                           f"{f1.name!r} maps into {f1.target}, "
                           f"{f2.name!r} into {f2.target}")
    tgt = Target("product", f1.target.dim + f2.target.dim,
                 f1.target.ambient + f2.target.ambient,
                 (f1.target, f2.target))

    def value(X):
        return np.concatenate([f1.value(X), f2.value(X)], axis=1)

    def jet(X):
        (y1, J1), (y2, J2) = f1.jet(X), f2.jet(X)
        return (np.concatenate([y1, y2], axis=1),
                np.concatenate([J1, J2], axis=1))

    return SmoothMap(f1.domain_dim, tgt, value, jet,
                     name=f"product:{f1.name}|{f2.name}")


def make_map_composition(g: SmoothMap, f: SmoothMap) -> SmoothMap:
    """g after f; domains must match up."""
    if f.target.ambient != g.domain_dim + 1:
        raise MapSpecError(f"composition domain mismatch: outer {g.name!r} "
                           f"is defined on S^{g.domain_dim} in "
                           f"R^{g.domain_dim + 1}, inner {f.name!r} maps "
                           f"into {f.target} in R^{f.target.ambient}")

    def value(X):
        return g.value(f.value(X))

    def jet(X):
        # the inner value is computed once, as part of the inner jet
        fy, fJ = f.jet(X)
        gy, gJ = g.jet(fy)
        return gy, gJ @ fJ

    return SmoothMap(f.domain_dim, g.target, value, jet,
                     name=f"compose:{g.name}|{f.name}")


def compose_with_isometry(f: SmoothMap, Q: np.ndarray) -> SmoothMap:
    """f composed with the orthogonal map x -> Q x of its domain."""
    Q = np.asarray(Q, dtype=float)

    def value(X):
        return f.value(X @ Q.T)

    def jet(X):
        y, J = f.jet(X @ Q.T)
        return y, J @ Q

    return SmoothMap(f.domain_dim, f.target, value, jet,
                     name=f"{f.name}∘R")


_OSC_SHIFT = 0.7


def _osc_field(ambient_out: int, n_in: int):
    """Fixed smooth vector field used by the oscillation perturbation:
    its value and its jet, each computing the arguments once."""

    def args(U):
        return [U[:, j % n_in] + _OSC_SHIFT * U[:, (j + 1) % n_in] + j
                for j in range(ambient_out)]

    def g(U):
        out = np.empty((len(U), ambient_out))
        for j, arg in enumerate(args(U)):
            out[:, j] = np.sin(arg)
        return out

    def jet(U):
        out = np.empty((len(U), ambient_out))
        dg = np.zeros((len(U), ambient_out, n_in))
        for j, arg in enumerate(args(U)):
            out[:, j] = np.sin(arg)
            c = np.cos(arg)
            dg[:, j, j % n_in] += c
            dg[:, j, (j + 1) % n_in] += _OSC_SHIFT * c
        return out, dg

    return g, jet


def make_oscillation_perturbation(f: SmoothMap, eps: float, m: int) -> SmoothMap:
    """x -> Pi(f(x) + eps g(m x)): homotopic wiggle at fixed invariant.

    The straight-line homotopy stays inside the tubular neighborhood of
    the target for |eps| < 0.2, so the homotopy class of f is unchanged.
    """
    eps = float(eps)
    if not abs(eps) < 0.2:              # also false for a NaN
        raise ValueError(f"perturbation eps={eps} leaves tubular neighborhood; "
                         "need a finite |eps| < 0.2")
    m = int(m)
    tgt = f.target
    g, g_jet = _osc_field(tgt.ambient, f.domain_dim + 1)

    def value(X):
        return project_to_target(f.value(X) + eps * g(m * X), tgt)

    def jet(X):
        fy, fJ = f.jet(X)
        gy, gJ = g_jet(m * X)
        Y = fy + eps * gy
        J = fJ + eps * m * gJ
        # each block's unit vector is its projection, as project_to_target
        # computes it
        units, out = [], np.empty_like(J)
        for b in tgt.blocks:
            seg = Y[:, b]
            r = row_norm(seg)[:, None]
            unit = seg / r
            Jb = J[:, b, :]
            rad = np.einsum("md,mdk->mk", unit, Jb)
            out[:, b, :] = (Jb - unit[:, :, None] * rad[:, None, :]) / r[:, :, None]
            units.append(unit)
        return np.concatenate(units, axis=1), out

    return SmoothMap(f.domain_dim, tgt, value, jet,
                     name=f"perturb:eps={eps},m={m}|{f.name}")


# ----------------------------------------------------------------------
# target forms
# ----------------------------------------------------------------------

class VolumeForm(FormField):
    """Normalized volume form of one sphere factor of a target:
    omega(y; v_1..v_M) = det[y_b; v_1b; ...; v_Mb] / |S^M|, with b the
    factor's ambient coordinates."""

    def __init__(self, target: Target, i: int = 0):
        self.coords = target.blocks[i]
        M = (target.factors or (target,))[i].dim
        self.scale = 1.0 / SPHERE_VOLUMES[M]
        super().__init__(M, self._evaluate,
                         name=f"vol[{target}]" if target.kind == "sphere"
                         else f"omega_{i + 1}")

    def _det(self, points, frames, sub):
        """det[y_b; v_ib for i in sub] from views of the points and frames."""
        b = self.coords
        return det_rows([points[:, b]] + [frames[:, i, b] for i in sub])

    def _evaluate(self, points, frames):
        return self._det(points, frames, range(frames.shape[1])) * self.scale

    def on_frame_subsets(self, points, frames, subsets):
        """All subsets without gathering a sub-frame: each determinant
        reads its rows as views of the points and the frame."""
        return np.stack([self._det(points, frames, sub) for sub in subsets],
                        axis=-1) * self.scale


def volume_form(target: Target, i: int = 0) -> FormField:
    """Normalized volume form of the i-th sphere factor of the target
    (integral 1 over the factor), pulled back under its coordinate
    projection; a sphere target is its own single factor.

    For S^1 this is dtheta/2pi, the generator of H^1.
    """
    return VolumeForm(target, i)


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
        """f at the points and Df applied to every frame vector, from one
        jet of f."""
        Y, Df = self.map.jet(points)
        # Df^T (m, n, M') made contiguous once; Df itself is freed here
        DfT = np.swapaxes(Df, 1, 2).copy()
        del Df
        return Y, frames @ DfT

    def _evaluate(self, points, frames):
        return self.form(*self._push(points, frames))

    def on_frame_subsets(self, points, frames, subsets):
        """One evaluation of f and Df per point for all subsets; omega
        then sees the whole pushed frame at once."""
        return self.form.on_frame_subsets(*self._push(points, frames), subsets)


def pullback(f: SmoothMap, omega, x, *vectors) -> float:
    """Pointwise pullback f^*(omega)(x; v_1..v_k) = omega(f(x); Df v_i)."""
    x = np.asarray(x, dtype=float)
    V = np.array(vectors, dtype=float).reshape(len(vectors), len(x))
    return float(PullbackForm(f, omega)(x[None], V[None])[0])


def pullback_form(f: SmoothMap, omega) -> FormField:
    """f^*(omega) as a vectorized form field on the domain sphere."""
    return PullbackForm(f, omega)


# ----------------------------------------------------------------------
# the map-spec grammar
# ----------------------------------------------------------------------

class MapSpecError(ValueError):
    """A map spec that the grammar rejects: an unknown family, a missing
    or extra sub-map, a key that is unknown, repeated, missing or of the
    wrong type, or sub-maps that do not fit together (a composition whose
    inner target is not the outer domain, a product whose factors differ
    in domain or do not map into spheres).  A value its family's builder
    rejects raises a plain ValueError."""


def _dim(text: str) -> int:
    """A sphere dimension: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise ValueError
    return n


# what each value type of MAP_FAMILIES accepts, for error messages
_VALUE_TYPES = {int: "an integer", float: "a number",
                _dim: "an integer >= 1"}

# head -> (builder, {key: (type,) or (type, default)}, number of
# sub-maps); a key without a default is required.  The builder takes the
# sub-maps, then the keys' values in table order.
MAP_FAMILIES = {
    "circle-power": (make_circle_power, {"d": (int,)}, 0),
    "suspension": (make_sphere_suspension, {"d": (int,)}, 0),
    "hopf": (make_hopf, {}, 0),
    "const": (make_constant, {"n": (_dim, 3)}, 0),
    "antipodal": (make_antipodal, {"n": (_dim, 2)}, 0),
    "reflect": (make_reflection, {"n": (_dim, 2), "axis": (int, 0)}, 0),
    "compose": (make_map_composition, {}, 2),
    "product": (make_product_map, {}, 2),
    "perturb": (make_oscillation_perturbation,
                {"eps": (float,), "m": (int, 1)}, 1),
}


def _params(spec: str, text: str, keys: dict) -> list:
    """The values of a family's keys, in table order, from its
    `key=value,...` text; an unknown, repeated or missing key, or a value
    its type rejects, is named."""
    kv = {}
    for part in text.split(",") if text else ():
        key, eq, val = (x.strip() for x in part.partition("="))
        if not eq:
            raise MapSpecError(f"parameter {part!r} is not key=value in "
                               f"map spec {spec!r}")
        if key not in keys:
            raise MapSpecError(f"unknown key {key!r} in map spec {spec!r}")
        if key in kv:
            raise MapSpecError(f"repeated key {key!r} in map spec {spec!r}")
        kv[key] = val
    values = []
    for key, (kind, *default) in keys.items():
        if key not in kv and not default:
            raise MapSpecError(f"missing key {key!r} in map spec {spec!r}")
        try:
            values.append(kind(kv[key]) if key in kv else default[0])
        except ValueError:
            raise MapSpecError(f"key {key!r} in map spec {spec!r} must be "
                               f"{_VALUE_TYPES[kind]}, not {kv[key]!r}") from None
    return values


def _walk(spec: str, items: list, i: int) -> tuple:
    """The map whose spec starts at items[i], and the index of the item
    after its last sub-map."""
    head, _, rest = items[i].strip().partition(":")
    if head not in MAP_FAMILIES:
        raise MapSpecError(f"unknown map spec {spec!r}: no family {head!r}")
    build, keys, n_sub = MAP_FAMILIES[head]
    if n_sub and not keys:
        items[i], params = rest, []     # the first sub-map follows the ':'
    else:
        params, i = _params(spec, rest, keys), i + 1
    subs = []
    for _ in range(n_sub):
        if i == len(items):
            raise MapSpecError(f"missing sub-map of {head!r} in map spec "
                               f"{spec!r}")
        f, i = _walk(spec, items, i)
        subs.append(f)
    return build(*subs, *params), i


def parse_map_spec(spec: str) -> SmoothMap:
    """Build a map from its spec; every map's name but `f∘R` is a spec.

    Grammar: a family head (a key of MAP_FAMILIES), its `key=value`
    parameters after a `:`, separated by commas, then each sub-map after
    a `|`; a family without parameters takes its first sub-map right
    after its `:`.  So `compose:OUTER|INNER`, `product:FIRST|SECOND` and
    `perturb:eps=0.1,m=7|SPEC` nest to any depth, e.g.
    `compose:perturb:eps=0.1,m=3|suspension:d=2|hopf`.  Unknown,
    repeated and missing keys, a value that is not a number, and a
    domain `n` below 1 raise MapSpecError naming the key and spec.
    """
    spec = spec.strip()
    items = spec.split("|")
    f, end = _walk(spec, items, 0)
    if end < len(items):
        raise MapSpecError(f"extra sub-map {'|'.join(items[end:])!r} in "
                           f"map spec {spec!r}")
    return f

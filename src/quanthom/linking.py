"""Gauss-linking oracle for maps S^3 -> S^2.

Independent cross-check of the integral Hopf invariant: the preimages
of two regular values are disjoint links of circles in S^3, and the
invariant equals the total linking number between them.

Fiber geometry is closed form, batched over points: the quaternion
frame B = (i x, j x, k x) of T_x S^3 has det[x, B] = +1; with a positive
frame t of T_y S^2, r_a = t_a^T Df B and G = R R^T, the tangent
v = B (r_1 x r_2) / |r_1 x r_2| has the preimage orientation, (v, w_1,
w_2) positive in T_x S^3 (spheres oriented outward) for the min-norm
solutions of Df w_a = t_a, as w_1 x w_2 = (r_1 x r_2) / det G.  G gives
the transverse singular value and the Newton step is
B R^T G^{-1} (-t.(f(x) - p)).  A coarse trace with _COARSE times the
output spacing is refined by projecting the points of its chords onto
the fiber in one batched Newton call.  The Gauss double integral runs in
a stereographic chart with numerator (x - y).(dx x dy) = (x x dx).dy +
dx.(y x dy), two matmuls per block of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_COARSE = 8          # coarse trace step over output spacing
_GAUSS_ROWS = 256    # rows per block of the Gauss double sum


class NonRegularValueError(ValueError):
    pass


@dataclass
class FiberCurve:
    points: np.ndarray              # (n, 4), closed cyclically
    min_transverse_sv: float


@dataclass
class LinkingResult:
    value: float                    # raw Gauss integral total
    rounded: int
    pair_values: list = field(default_factory=list)
    n_components: tuple = (0, 0)
    min_transverse_sv: float | None = None  # over all components
    points: tuple = ((), ())        # polyline size of each component


def _quaternion_frame(X: np.ndarray) -> np.ndarray:
    """Tangent frames (i x, j x, k x) of S^3 at the rows of X, (n, 4, 3)."""
    a, b, c, d = X.T
    return np.stack([np.stack([-b, a, -d, c], axis=1),
                     np.stack([-c, d, a, -b], axis=1),
                     np.stack([-d, -c, b, a], axis=1)], axis=2)


def _fiber_geometry(f, X: np.ndarray, p: np.ndarray):
    """|f(x) - p|, Newton step, fiber tangent and transverse sv per row."""
    B = _quaternion_frame(X)
    Y = f.value(X)
    J = f.jacobian(X) @ B                           # (n, 3, 3)
    a = np.argmin(np.abs(Y), axis=1)[:, None]       # positive frame t of T_y
    t1 = np.eye(3)[a[:, 0]] - np.take_along_axis(Y, a, axis=1) * Y
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(Y, t1)
    r1 = np.einsum("ni,nij->nj", t1, J)
    r2 = np.einsum("ni,nij->nj", t2, J)
    g11, g12, g22 = (r1 * r1).sum(1), (r1 * r2).sum(1), (r2 * r2).sum(1)
    det = g11 * g22 - g12 ** 2
    big = 0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12)
    res = Y - p
    b1, b2 = -(t1 * res).sum(1), -(t2 * res).sum(1)
    k = np.cross(r1, r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        sv = np.sqrt(np.maximum(det / big, 0.0))
        c1, c2 = (g22 * b1 - g12 * b2) / det, (g11 * b2 - g12 * b1) / det
        v = np.einsum("nij,nj->ni", B, k / np.linalg.norm(k, axis=1)[:, None])
        step = np.einsum("nij,nj->ni", B, c1[:, None] * r1 + c2[:, None] * r2)
    return np.linalg.norm(res, axis=1), step, v, sv


def _project(f, X: np.ndarray, p: np.ndarray, tol: float = 1e-12,
             maxiter: int = 40):
    """Newton projection of the rows of X onto f^{-1}(p) along S^3: the
    points, the converged mask, and tangent and sv at converged rows."""
    X = np.array(X, dtype=float)
    V, S = np.full_like(X, np.nan), np.full(len(X), np.nan)
    ok = np.zeros(len(X), dtype=bool)
    act = np.arange(len(X))
    for _ in range(maxiter):
        if not act.size:
            break
        res, step, v, sv = _fiber_geometry(f, X[act], p)
        hit = res < tol
        ok[act[hit]] = True
        V[act[hit]], S[act[hit]] = v[hit], sv[hit]
        keep = ~hit & np.isfinite(step).all(axis=1)
        act, step = act[keep], step[keep]
        step *= 0.5 / np.maximum(np.linalg.norm(step, axis=1), 0.5)[:, None]
        x = X[act] + step
        X[act] = x / np.linalg.norm(x, axis=1, keepdims=True)
    return X, ok, V, S


def trace_fiber(f, p: np.ndarray, x0: np.ndarray, step: float,
                reg_tol: float = 1e-3, max_steps: int = 100000) -> FiberCurve:
    """Closed preimage curve of the regular value p through x0, with
    points about `step` apart (at most max_steps coarse steps)."""
    X, ok, V, S = _project(f, np.asarray(x0, dtype=float)[None], p)
    if not ok[0]:
        raise RuntimeError("could not land on the preimage")
    h = _COARSE * step
    pts = [X[0]]
    for n in range(max_steps):
        if not S[0] > reg_tol:
            raise NonRegularValueError("non-regular value")
        pred = X[0] + h * V[0]
        X, ok, V, S = _project(f, (pred / np.linalg.norm(pred))[None], p)
        if not ok[0]:
            raise RuntimeError("corrector failed during fiber tracing")
        if n >= 2 and np.linalg.norm(X[0] - pts[0]) < 0.75 * h:
            break
        pts.append(X[0])
    else:
        raise RuntimeError("open preimage trace: no closure within step budget")
    coarse = np.array(pts)
    chord = np.roll(coarse, -1, axis=0) - coarse
    m = np.maximum(1, np.rint(np.linalg.norm(chord, axis=1) / step)).astype(int)
    seg = np.repeat(np.arange(len(coarse)), m)
    t = (np.arange(len(seg)) - np.repeat(np.cumsum(m) - m, m)) / m[seg]
    X = coarse[seg] + t[:, None] * chord[seg]
    X, ok, _, S = _project(f, X / np.linalg.norm(X, axis=1, keepdims=True), p)
    if not ok.all():
        raise RuntimeError("corrector failed during fiber refinement")
    if not S.min() > reg_tol:
        raise NonRegularValueError("non-regular value")
    return FiberCurve(X, float(S.min()))


def preimage_link(f, p: np.ndarray, step: float, seed: int = 0,
                  n_starts: int = 64, reg_tol: float = 1e-3) -> list[FiberCurve]:
    """All components of f^{-1}(p), each traced as a closed polyline."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_starts, 4))
    X, ok, _, _ = _project(f, X / np.linalg.norm(X, axis=1, keepdims=True), p)
    curves: list[FiberCurve] = []
    for x in X[ok]:
        if any(np.linalg.norm(c.points - x, axis=1).min() < 2.0 * step
               for c in curves):
            continue
        curves.append(trace_fiber(f, p, x, step, reg_tol=reg_tol))
    return curves


def _stereographic(points: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """Orientation-preserving chart S^3 minus pole -> R^3: the basis b of
    pole-perp has det[pole, b] = -1, matching the outward orientation."""
    q, _ = np.linalg.qr(np.column_stack([pole, np.eye(4)[:, :3]]))
    q = q[:, 1:]
    if np.linalg.det(np.column_stack([pole, q])) > 0:
        q = q[:, [1, 0, 2]]
    den = 1.0 - points @ pole
    flat = (points - np.outer(points @ pole, pole)) / den[:, None]
    return flat @ q


def gauss_linking_integral(c1: np.ndarray, c2: np.ndarray) -> float:
    """(1/4pi) oint oint (x-y).(dx x dy)/|x-y|^3 for closed polylines in R^3.

    Midpoint rule per segment pair; exact in the limit of fine curves.
    """
    dx = np.roll(c1, -1, axis=0) - c1
    dy = np.roll(c2, -1, axis=0) - c2
    x, y = c1 + 0.5 * dx, c2 + 0.5 * dy
    xdx, ydy = np.cross(x, dx), np.cross(y, dy)
    total = 0.0
    for i in range(0, len(x), _GAUSS_ROWS):
        rows = slice(i, i + _GAUSS_ROWS)
        num = xdx[rows] @ dy.T + dx[rows] @ ydy.T
        d2 = sum((x[rows, k, None] - y[None, :, k]) ** 2 for k in range(3))
        total += float((num / (d2 * np.sqrt(d2))).sum())
    return total / (4.0 * np.pi)


def _chart_pole(curves: list[np.ndarray], seed: int = 1) -> np.ndarray:
    """Random candidate farthest from all curve points: |c-x|^2 = 2 - 2c.x."""
    rng = np.random.default_rng(seed)
    cand = rng.standard_normal((256, 4))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    nearest = np.max([(cand @ c.T).max(axis=1) for c in curves], axis=0)
    return cand[int(np.argmin(nearest))]


def gauss_linking_oracle(f, p, q, step: float | None = None, seed: int = 0,
                         reg_tol: float = 1e-3) -> LinkingResult:
    """Total linking number between the preimage links of p and q.

    p and q must be distinct regular values of f: the smallest transverse
    singular value of Df along the preimages must exceed `reg_tol`.
    Step defaults to about 2000 points per unit-circumference fiber.
    """
    if f.domain_dim != 3 or f.target.dim != 2 or f.target.kind != "sphere":
        raise ValueError("oracle requires a map S3 -> S2")
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    for name, v in (("p", p), ("q", q)):
        if v.shape != (3,) or not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
            raise ValueError(f"{name} must be a unit 3-vector, got {v!r}")
    if np.linalg.norm(p - q) <= 1e-12:
        raise ValueError("p and q must be distinct values")
    step = 2 * np.pi / 2000 if step is None else step
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    if not reg_tol >= 0:
        raise ValueError(f"reg_tol must be >= 0, got {reg_tol!r}")
    link_p = preimage_link(f, p, step, seed=seed, reg_tol=reg_tol)
    link_q = preimage_link(f, q, step, seed=seed + 1, reg_tol=reg_tol)
    info = dict(n_components=(len(link_p), len(link_q)),
                min_transverse_sv=min((c.min_transverse_sv for c in
                                       link_p + link_q), default=None),
                points=(tuple(len(c.points) for c in link_p),
                        tuple(len(c.points) for c in link_q)))
    if not link_p or not link_q:
        return LinkingResult(0.0, 0, [], **info)
    pole = _chart_pole([c.points for c in link_p + link_q], seed=seed + 2)
    flat_p = [_stereographic(c.points, pole) for c in link_p]
    flat_q = [_stereographic(c.points, pole) for c in link_q]
    pairs = [gauss_linking_integral(a, b) for a in flat_p for b in flat_q]
    total = float(sum(pairs))
    return LinkingResult(total, int(np.rint(total)), pairs, **info)

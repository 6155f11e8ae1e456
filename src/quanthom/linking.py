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
B R^T G^{-1} (-t.(f(x) - p)).  The random starts landed on the preimages
of all regular values are traced in lockstep, one batched Newton call
per coarse step of _COARSE = 2 output spacings, each only until it comes
within 0.75 coarse steps (1.5 output spacings) of another start of its
value (its own counts from the third step).  That start is its
successor; the cycles of the successor map are the components, and a
start off every cycle lies on another's segment.  Starts within that
radius of an earlier one are dropped first, so no trace steps over a
start and each cycle goes round its fiber once.  One more batched call
projects the points of the coarse chords onto the fibers.  The Gauss
double integral runs in a stereographic chart with numerator
(x - y).(dx x dy) = (x x dx).dy + dx.(y x dy), two matmuls per block of
_GAUSS_ROWS = 128 rows, and |x - y|^2 from minors.pair_sq_dist.  The
blocks run on every core (geometry.mesh.map_tasks), each worker in its
own three buffers, and their partial sums are added in block order, so
the integral is the same bits at any core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry.mesh import map_tasks, workers
from .geometry.minors import cross3, pair_sq_dist, row_norm, row_sum

_COARSE = 2          # coarse trace step over output spacing
_GAUSS_ROWS = 128    # rows per block of the Gauss double sum
_STARTS = 64         # random starts that seek every preimage component
_MAX_STEPS = 100000  # coarse steps before a trace counts as open
_NEWTON_TOL = 1e-12  # |f(x) - p| at which a Newton projection converges
_NEWTON_ITERS = 40   # Newton steps before a projection counts as failed
REG_TOL = 1e-3       # least transverse singular value of a regular value


class NonRegularValueError(ValueError):
    pass


@dataclass
class FiberCurve:
    points: np.ndarray              # (n, 4), closed cyclically
    min_transverse_sv: float
    value: int                      # index of its regular value


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
    Y, J = f.jet(X)
    J = J @ B                                       # (n, 3, 3)
    a = np.argmin(np.abs(Y), axis=1)[:, None]       # positive frame t of T_y
    t1 = np.eye(3)[a[:, 0]] - np.take_along_axis(Y, a, axis=1) * Y
    t1 /= row_norm(t1)[:, None]
    t2 = cross3(Y, t1)
    r1 = np.einsum("ni,nij->nj", t1, J)
    r2 = np.einsum("ni,nij->nj", t2, J)
    g11, g12, g22 = row_sum(r1 * r1), row_sum(r1 * r2), row_sum(r2 * r2)
    det = g11 * g22 - g12 ** 2
    big = 0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12)
    res = Y - p
    b1, b2 = -row_sum(t1 * res), -row_sum(t2 * res)
    k = cross3(r1, r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        sv = np.sqrt(np.maximum(det / big, 0.0))
        c1, c2 = (g22 * b1 - g12 * b2) / det, (g11 * b2 - g12 * b1) / det
        v = np.einsum("nij,nj->ni", B, k / row_norm(k)[:, None])
        step = np.einsum("nij,nj->ni", B, c1[:, None] * r1 + c2[:, None] * r2)
    return row_norm(res), step, v, sv


def _unit(X: np.ndarray) -> np.ndarray:
    return X / row_norm(X)[:, None]


def _project(f, X: np.ndarray, P: np.ndarray):
    """Newton projection of each row of X onto f^{-1} of its row of P
    along S^3: the points, the converged mask, and tangent and sv at
    converged rows."""
    X = np.array(X, dtype=float)
    V, S = np.full_like(X, np.nan), np.full(len(X), np.nan)
    ok = np.zeros(len(X), dtype=bool)
    act = np.arange(len(X))
    for _ in range(_NEWTON_ITERS):
        if not act.size:
            break
        res, step, v, sv = _fiber_geometry(f, X[act], P[act])
        hit = res < _NEWTON_TOL
        ok[act[hit]] = True
        V[act[hit]], S[act[hit]] = v[hit], sv[hit]
        keep = ~hit & np.isfinite(step).all(axis=1)
        act, step = act[keep], step[keep]
        step *= 0.5 / np.maximum(row_norm(step), 0.5)[:, None]
        X[act] = _unit(X[act] + step)
    return X, ok, V, S


def _cycles(succ: np.ndarray) -> list[list[int]]:
    """Cycles of the map i -> succ[i], in the order that following it
    from each index in turn first meets them."""
    cycles, seen = [], np.zeros(len(succ), dtype=bool)
    for first in range(len(succ)):
        path, i = [], first
        while not seen[i]:
            seen[i] = True
            path.append(i)
            i = succ[i]
        if i in path:
            cycles.append(path[path.index(i):])
    return cycles


def preimage_link(f, values: np.ndarray, step: float,
                  seed: int = 0) -> list[FiberCurve]:
    """All components of f^{-1}(p) for each value p of `values`, (3,) or
    (m, 3), as closed polylines with points about `step` apart, tagged
    with the index of their value.  Value j is sought from _STARTS random
    starts of seed + j.  Raises NonRegularValueError where the transverse
    singular value of Df along a preimage is not above REG_TOL."""
    P = np.atleast_2d(np.asarray(values, dtype=float))
    X = np.concatenate([np.random.default_rng(seed + j)
                        .standard_normal((_STARTS, 4)) for j in range(len(P))])
    val = np.repeat(np.arange(len(P)), _STARTS)
    X, ok, V, S = _project(f, _unit(X), P[val])
    if not ok.any():
        return []
    X, V, S, val = X[ok], V[ok], S[ok], val[ok]
    r2 = (0.75 * _COARSE * step) ** 2           # arrival radius, squared
    same = val[:, None] == val[None]
    # a start within the arrival radius of an earlier start of its value
    # is dropped, so no trace steps over a start
    keep = ~np.tril(same & (2.0 - 2.0 * X @ X.T < r2), -1).any(axis=1)
    starts, val, same = X[keep], val[keep], same[np.ix_(keep, keep)]
    x, v, s = starts, V[keep], S[keep]
    succ = np.empty(len(starts), dtype=int)
    act = np.arange(len(starts))
    segs = [[x0] for x0 in starts]              # coarse points per start
    for n in range(_MAX_STEPS):
        if not act.size:
            break
        if not (s > REG_TOL).all():
            raise NonRegularValueError("non-regular value")
        x, ok, v, s = _project(f, _unit(x + _COARSE * step * v), P[val[act]])
        if not ok.all():
            raise RuntimeError("corrector failed during fiber tracing")
        d2 = np.where(same[act], 2.0 - 2.0 * x @ starts.T, np.inf)
        if n < 2:
            d2[np.arange(len(act)), act] = np.inf
        near = np.argmin(d2, axis=1)
        stop = d2[np.arange(len(act)), near] < r2
        succ[act[stop]] = near[stop]
        act, x, v, s = act[~stop], x[~stop], v[~stop], s[~stop]
        for i, y in zip(act, x):
            segs[i].append(y)
    if act.size:
        raise RuntimeError("open preimage trace: no closure within step budget")
    cycles = _cycles(succ)
    fine = []
    for cyc in cycles:
        coarse = np.array([y for i in cyc for y in segs[i]])
        chord = np.roll(coarse, -1, axis=0) - coarse
        m = np.maximum(1, np.rint(row_norm(chord) / step))
        m = m.astype(int)
        seg = np.repeat(np.arange(len(coarse)), m)
        t = (np.arange(len(seg)) - np.repeat(np.cumsum(m) - m, m)) / m[seg]
        fine.append(coarse[seg] + t[:, None] * chord[seg])
    cval = val[[cyc[0] for cyc in cycles]]
    sizes = [len(c) for c in fine]
    X, ok, _, S = _project(f, _unit(np.concatenate(fine)),
                           np.repeat(P[cval], sizes, axis=0))
    if not ok.all():
        raise RuntimeError("corrector failed during fiber refinement")
    if not S.min() > REG_TOL:
        raise NonRegularValueError("non-regular value")
    cut = np.cumsum(sizes)[:-1]
    return [FiberCurve(x, float(s.min()), int(j))
            for x, s, j in zip(np.split(X, cut), np.split(S, cut), cval)]


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
    xdx, ydy = cross3(x, dx), cross3(y, dy)

    starts = range(0, len(x), _GAUSS_ROWS)
    # three buffers per worker, made here: block j runs on worker
    # j mod w (map_tasks) and writes each temporary in place in its set
    w = workers(len(starts))
    buffers = np.empty((w, 3, min(_GAUSS_ROWS, len(x)), len(y)))

    def block(j):
        i = starts[j]
        rows = slice(i, i + _GAUSS_ROWS)
        num, tmp, d2 = buffers[j % w, :, :min(_GAUSS_ROWS, len(x) - i)]
        np.matmul(xdx[rows], dy.T, out=num)
        np.add(num, np.matmul(dx[rows], ydy.T, out=tmp), out=num)
        pair_sq_dist(x[rows], y, d2, tmp)
        np.multiply(d2, np.sqrt(d2, out=tmp), out=tmp)
        return float(np.divide(num, tmp, out=num).sum())

    total = 0.0
    for part in map_tasks(block, range(len(starts))):
        total += part
    return total / (4.0 * np.pi)


def _chart_pole(curves: list[np.ndarray], seed: int = 1) -> np.ndarray:
    """Random candidate farthest from all curve points: |c-x|^2 = 2 - 2c.x."""
    rng = np.random.default_rng(seed)
    cand = rng.standard_normal((256, 4))
    cand /= row_norm(cand)[:, None]
    nearest = np.max([(cand @ c.T).max(axis=1) for c in curves], axis=0)
    return cand[int(np.argmin(nearest))]


def gauss_linking_oracle(f, p, q, step: float | None = None,
                         seed: int = 0) -> LinkingResult:
    """Total linking number between the preimage links of p and q.

    p and q must be distinct regular values of f: the smallest transverse
    singular value of Df along the preimages must exceed REG_TOL = 1e-3.
    Step defaults to 2pi/2000, 2000 points on a great circle of S^3.
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
    curves = preimage_link(f, np.stack([p, q]), step, seed=seed)
    link_p = [c for c in curves if c.value == 0]
    link_q = [c for c in curves if c.value == 1]
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

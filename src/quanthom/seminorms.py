"""Fractional Sobolev, Hoelder and BMO seminorm estimators on S^N.

The Gagliardo seminorm

    [f]_{W^{beta,p}}^p = int int |f(x)-f(y)|^p / |x-y|^{N + beta p} dx dy

uses the extrinsic chordal distance |x-y| throughout.  Near the
diagonal the pair integral is carried by its leading term
A t^p chord(t)^{-(N + beta p)}, with A = int int |Df(x) u|^p du dx over
the unit tangent vectors u, taken from the analytic Jacobian and
integrated in closed form in t (singularity subtraction).  On S^1 the
rest is a single shift integral, by adaptive Gauss-Kronrod panels over
a periodic trapezoid rule in the angle whose count (256 to 2,048) is
fixed first, by doubling until the rule resolves the Jacobian moment.  On
S^2 and S^3 the rest is estimated by Monte Carlo in 12 dyadic chord
strata (the integrand is unbounded near the diagonal for beta > 1/2,
where plain sampling has unbounded variance), and the leading term
covers the angles below the last stratum.  The strata run on every core
(geometry.mesh.map_tasks) and are added in stratum order; the leading
term's Jacobian moment runs in the same call, in tasks of x-nodes added
in node order, on three rules built once per N (read-only arrays, so a
second estimate on the same sphere builds no mesh).  The BMO
estimate is a sampled sup of cap U-statistics of the pair distances: the
caps are prepared in one batch (each cap's directions and its angles'
uniforms drawn from its own stream, the angles of all caps in one
closed-form transform on S^1 and S^2 and per cap on S^3, then the cap
points and one f.value call over all caps), and the pair distances run
on every core in tasks of _BMO_CAPS caps, each batched over its caps
through minors.pair_sq_dist in two buffers of its worker (mesh.map_scratch),
with the caps' U-statistics, row means and standard errors in three
reductions per task and the best cap taken in cap order.  The cap
points, the strata and the Hoelder shell pairs share one great-circle step.

All Monte Carlo draws use counter-based Philox streams spawned per
stratum (per cap for BMO) from the master seed, so results are
reproducible for a fixed seed and the same bits at any core count.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry.forms import sphere_quadrature
from .geometry.mesh import (SPHERE_VOLUMES, blocks, build_sphere_mesh,
                            map_scratch, map_tasks)
from .geometry.minors import pair_sq_dist, row_norm, row_sum
from .geometry.quadrature import gauss_jacobi
from .maps import SmoothMap, distance_to_target


@dataclass
class SeminormEstimate:
    value: float
    error: float
    method: str
    samples: int
    seed: int | None = None
    angles: int | None = None    # trapezoid angles of the S^1 rule


# ----------------------------------------------------------------------
# sampling helpers
# ----------------------------------------------------------------------

def _count(name: str, value, least: int) -> int:
    """value as an int >= least, or a ValueError naming the argument."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}, not {value!r}")
    return n


def _sampled_dim(f, what: str) -> int:
    """f's domain dimension N, if the cap angles of the `what` estimator,
    distributed like sin^{N-1}, have a sampler on S^N (N = 1, 2, 3)."""
    N = f.domain_dim
    if N not in (1, 2, 3):
        raise ValueError(f"no {what} seminorm on S^{N}: its cap angles are "
                         f"sampled on S^1, S^2 and S^3 only")
    return N


def _rng(seed, *key) -> np.random.Generator:
    ss = np.random.SeedSequence(_count("seed", seed, 0), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def _uniform_sphere(rng, n: int, dim_ambient: int) -> np.ndarray:
    X = rng.standard_normal((n, dim_ambient))
    return X / row_norm(X)[:, None]


def _tilt(X: np.ndarray, U: np.ndarray, psi) -> np.ndarray:
    """cos psi X + sin psi U, written into U once it is made a unit tangent
    at the unit rows X (broadcast against U); psi has U's leading shape."""
    U -= row_sum(U * X)[..., None] * X
    U /= row_norm(U)[..., None]
    U *= np.sin(psi)[..., None]
    U += np.cos(psi)[..., None] * X
    return U


_NEWTON_STEPS = 8            # cap of the S^3 angle sampler


def _sin_mass(N: int, a):
    """int_0^a sin^{N-1}, in forms that do not cancel at small a; on S^3
    (2a - sin 2a)/4, by the series of x - sin x below 2a = 1."""
    if N == 1:
        return a
    if N == 2:
        return 2.0 * np.sin(0.5 * a) ** 2
    x = 2.0 * np.asarray(a, dtype=float)
    s = np.ones_like(x)
    for k in range(8, 0, -1):    # x^3/6 (1 - x^2/20 (1 - x^2/42 (...)))
        s = 1.0 - x * x / ((2 * k + 2) * (2 * k + 3)) * s
    return np.where(x < 1.0, x ** 3 / 24.0 * s, 0.25 * (x - np.sin(x)))


def _inverse_sin_mass(N: int, psi_lo, psi_hi, u: np.ndarray) -> np.ndarray:
    """The angles in [psi_lo, psi_hi] at which _sin_mass takes the
    fractions u of its mass there.  On S^1 and S^2 the inverse is in
    closed form and psi_lo, psi_hi may be arrays broadcast against u."""
    lo, hi = _sin_mass(N, psi_lo), _sin_mass(N, psi_hi)
    target = lo + u * (hi - lo)
    if N == 1:
        return target
    if N == 2:
        return 2.0 * np.arcsin(np.sqrt(np.clip(0.5 * target, 0.0, 1.0)))
    # Newton from the small-angle inverse (3 t)^{1/3} of t = _sin_mass,
    # taken past pi/2 from pi by the symmetry t(pi - a) = pi/2 - t(a),
    # until the largest step is a few ulp of psi_hi
    mirror = target > 0.25 * np.pi
    guess = np.cbrt(3.0 * np.where(mirror, 0.5 * np.pi - target, target))
    psi = np.clip(np.where(mirror, np.pi - guess, guess), psi_lo, psi_hi)
    for _ in range(_NEWTON_STEPS):
        step = (_sin_mass(3, psi) - target) / np.maximum(np.sin(psi) ** 2, 1e-300)
        psi, old = np.clip(psi - step, psi_lo, psi_hi), psi
        if np.abs(psi - old).max() <= 4.0 * np.spacing(psi_hi):
            break
    return psi


def random_rotation(n: int, seed: int = 0) -> np.ndarray:
    """Haar-ish random rotation matrix with determinant +1."""
    rng = _rng(seed, 777)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


# ----------------------------------------------------------------------
# fractional Sobolev seminorm
# ----------------------------------------------------------------------

_JACOBI_NODES = 6            # exact to round-off for the smooth factor
_STRATA = 12                 # dyadic chord shells of the Monte Carlo
_MOMENT_ROWS = 128           # x-nodes per task of the Jacobian moment


def _near_diagonal(N: int, beta: float, p: float, t_max: float) -> float:
    """int_0^t_max t^p chord(t)^{-(N + beta p)} sin^{N-1}(t) dt, the
    radial factor of the leading term at the diagonal, by a Gauss-Jacobi
    rule for the weight t^{p(1-beta)-1}; the rest is smooth."""
    expo = N + beta * p
    a = p - expo + (N - 1)
    x, w = gauss_jacobi(_JACOBI_NODES, 0.0, a)      # weight (1 + x)^a
    t = 0.5 * t_max * (x + 1.0)
    smooth = (t / (2.0 * np.sin(t / 2.0))) ** expo * (np.sin(t) / t) ** (N - 1)
    return (0.5 * t_max) ** (a + 1.0) * float((w * smooth).sum())


@lru_cache(maxsize=None)
def _moment_rules(N: int) -> tuple:
    """The rules of the Jacobian moment on S^N, built once per N.

    x runs over the level-0 mesh rule of S^N, with the tangent frame of
    each node (the last N columns of the complete QR of x), and the
    tangent directions u over the level-1 and then the level-0 mesh rule
    of S^{N-1} (u = +-1 on S^0).  Returns the nodes, frames and weights
    of x and, per direction rule, the flattened products u u^T and the
    weights.  The arrays are read-only: the cache shares them with every
    caller and every task.
    """
    X, wx = sphere_quadrature(build_sphere_mesh(N, 0))
    frames = np.linalg.qr(X[:, :, None], "complete")[0][:, :, 1:]
    rules = [(np.array([[1.0], [-1.0]]), np.ones(2))] * 2 if N == 1 else [
        sphere_quadrature(build_sphere_mesh(N - 1, level)) for level in (1, 0)]
    directions = tuple(((U[:, :, None] * U[:, None, :]).reshape(len(U), -1),
                        wu) for U, wu in rules)
    for arr in (X, frames, wx) + sum(directions, ()):
        arr.flags.writeable = False
    return X, frames, wx, directions


def _moment_rows(f, p, rows: slice) -> np.ndarray:
    """The x-nodes `rows` of A = int_{S^N} int_{S^{N-1}_x} |Df(x) u|^p du
    dx (before the volume factors), by the finer and by the coarser
    direction rule of _moment_rules."""
    X, frames, wx, directions = _moment_rules(f.domain_dim)
    # Df on the tangent frame, and |Df u|^2 = u^T G u with G its Gram matrix
    JT = f.jacobian(X[rows]) @ frames[rows]
    G = (np.swapaxes(JT, 1, 2) @ JT).reshape(len(JT), -1)
    part = np.empty(2)
    for i, (uu, wu) in enumerate(directions):
        sq = np.maximum(G @ uu.T, 0.0) ** (0.5 * p)
        part[i] = wx[rows] @ sq @ wu / wu.sum()
    return part


def _sobolev_mc(f, beta, p, samples, seed):
    """[f]^p by stratified Monte Carlo, its error and the rows passed to
    f.value.  The leading term's Jacobian moment A, by the finer and the
    coarser direction rule, comes from tasks after the strata's in the
    same pool, its rules' weights scaled to their spheres' volumes so
    that constants integrate exactly."""
    N = f.domain_dim
    amb = N + 1
    expo = N + beta * p

    # dyadic chord shells [2^-k-1 D, 2^-k D], k < _STRATA, then the
    # leading term below the last edge psi_min; the strata run on every
    # core and their (total, variance) pairs are added in stratum order
    psi_edges = [2.0 * np.arcsin(2.0 ** -k) for k in range(_STRATA + 1)]
    n_per = max(64, samples // _STRATA)

    def stratum(k):
        hi, lo = psi_edges[k], psi_edges[k + 1]
        rng = _rng(seed, k)
        X = _uniform_sphere(rng, n_per, amb)
        U = rng.standard_normal(X.shape)
        psi = _inverse_sin_mass(N, lo, hi, rng.random(n_per))
        Y = _tilt(X, U, psi)
        chord = 2.0 * np.sin(psi / 2.0)
        g = row_norm(f.value(X) - f.value(Y)) ** p / chord ** expo
        vol = SPHERE_VOLUMES[N] * SPHERE_VOLUMES[N - 1] * float(
            _sin_mass(N, hi) - _sin_mass(N, lo))
        return vol * float(g.mean()), (vol ** 2) * float(g.var(ddof=1)) / n_per

    X, _, wx, _ = _moment_rules(N)       # built before any task runs

    def task(k):
        return stratum(k) if isinstance(k, int) else _moment_rows(f, p, k)

    parts = map_tasks(task, [*range(_STRATA), *blocks(len(X), _MOMENT_ROWS)])
    total, var = 0.0, 0.0
    for part, part_var in parts[:_STRATA]:
        total += part
        var += part_var
    # at angle psi along u, |f(y) - f(x)|^p = psi^p |Df(x) u|^p
    # (1 + O(psi^2)): the psi^{p+1} term is odd in u and integrates to 0
    A = np.zeros(2)
    for part in parts[_STRATA:]:
        A += part
    A = A * SPHERE_VOLUMES[N] * SPHERE_VOLUMES[N - 1] / wx.sum()
    psi_min = psi_edges[-1]
    c = _near_diagonal(N, beta, p, psi_min)
    err = float(np.sqrt(var)) + (abs(A[0] - A[1]) + psi_min ** 2 * A[0]) * c
    return total + A[0] * c, err, 2 * n_per * _STRATA


# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15): the Kronrod nodes of
# one sign, largest first, and their weights; the odd entries are the
# 7-point Gauss nodes, with the Gauss weights below
_KRONROD_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_KRONROD_W = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GAUSS_W = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_GK_X = np.concatenate([-_KRONROD_X[:-1], _KRONROD_X[::-1]])
_GK_W = np.concatenate([_KRONROD_W[:-1], _KRONROD_W[::-1]])
_GK_DIFF = _GK_W.copy()                 # K15 - G7 weights on the same nodes
_GK_DIFF[1::2] -= np.concatenate([_GAUSS_W[:-1], _GAUSS_W[::-1]])

_THETA_MIN = 256             # periodic trapezoid angles of G(t): the
_THETA_MAX = 2048            # first count tried, and the cap
_DYADIC = 15                 # initial far panels [pi 2^-k-1, pi 2^-k]
_T_MIN = np.pi * 2.0 ** -_DYADIC   # near part [0, T_MIN]
_PANEL_RTOL = 1e-9           # target of sum |K15 - G7| over the total
_MAX_PANELS = 128            # far panels, so at most 241 f.value calls
_REFINE_ITERS = 60           # hill-climbing steps per best Hoelder pair
# BMO cap half-angles of the dyadic chord radii 2 * 2^-k, k = 0..8
_BMO_ANGLES = tuple(2.0 * np.arcsin(min(1.0, 2.0 ** -k)) for k in range(9))
_BMO_CAPS = 8                # caps per task of the BMO cap statistics


def _sobolev_circle_quadrature(f, beta, p):
    """[f]^p on S^1 by singularity subtraction and adaptive GK panels.

    [f]^p = 2 int_0^pi G(t) chord(t)^{-(1+beta p)} dt with
    G(t) = int |f(theta+t)-f(theta)|^p dtheta, the periodic trapezoid
    rule on n angles.  Near the diagonal G(t) = A t^p + O(t^{p+2}),
    A = int |f'|^p (the t^{p+1} term is a derivative and integrates to
    0), so [0, T_MIN] takes the leading term with A from the analytic
    Jacobian, by a Gauss-Jacobi rule for the weight t^{p(1-beta)-1}.
    n is fixed before any panel: from _THETA_MIN it doubles while A on
    n angles and on every other one differ by more than a tenth of
    _PANEL_RTOL, up to _THETA_MAX.  [T_MIN, pi] starts from dyadic
    panels; the panel of largest |K15 - G7| is bisected until their sum
    is below _PANEL_RTOL of the total or a tenth of the trapezoid change
    against every other angle, which more panels cannot reduce.  The
    error adds that sum, the near remainder (extrapolated from the
    lowest panel as t^{p(1-beta)+2}), that trapezoid change, and a
    round-off floor eps/T_MIN for the cancellation in f(theta+t) -
    f(theta).  Returns the total, its error, the rows passed to f.value
    and n.
    """
    expo = 1.0 + beta * p
    n = _THETA_MIN
    while True:
        th = 2.0 * np.pi * np.arange(n) / n
        base = np.stack([np.cos(th), np.sin(th)], axis=1)
        tang = np.stack([-base[:, 1], base[:, 0]], axis=1)
        speed = row_norm(np.einsum("nij,nj->ni", f.jacobian(base),
                                   tang)) ** p
        A = 2.0 * np.pi * np.array([speed.mean(), speed[::2].mean()])
        if (n == _THETA_MAX
                or abs(A[0] - A[1]) <= 0.1 * _PANEL_RTOL * abs(A[0])):
            break
        n *= 2
    f_base = f.value(base)
    n_eval = n

    near = 2.0 * _near_diagonal(1, beta, p, _T_MIN)

    def nodes(lo, hi):
        # Kronrod shifts and their weights times 2 chord^{-expo}
        half = 0.5 * (hi - lo)
        t = lo + half * (_GK_X + 1.0)
        return t, 2.0 * half * (2.0 * np.sin(t / 2.0)) ** -expo

    def panel(lo, hi):
        # one f.value call: 15 Kronrod shifts of all n angles; K15 on
        # all angles and on every other one, and |K15 - G7|
        nonlocal n_eval
        t, kern = nodes(lo, hi)
        pts = (np.cos(t)[:, None, None] * base
               + np.sin(t)[:, None, None] * tang).reshape(-1, 2)
        diff = f.value(pts).reshape(len(t), n, -1) - f_base
        n_eval += len(pts)
        g = np.einsum("tnk,tnk->tn", diff, diff) ** (0.5 * p)
        G = 2.0 * np.pi * np.stack([g.mean(axis=1), g[:, ::2].mean(axis=1)])
        k15 = G @ (_GK_W * kern)
        return (-abs(float(G[0] @ (_GK_DIFF * kern))), lo, hi, k15[0], k15[1])

    edges = np.pi * 2.0 ** -np.arange(_DYADIC + 1)
    heap = [panel(lo, hi) for hi, lo in zip(edges[:-1], edges[1:])]
    # (G - A t^p) chord^{-expo} ~ t^{q-1}, q = p(1-beta) + 2: its integral
    # over [0, T_MIN] is its integral over [T_MIN, 2 T_MIN] / (2^q - 1)
    t, kern = nodes(_T_MIN, 2.0 * _T_MIN)
    q = p - expo + 3.0
    lowest = heap[-1][3] - A[0] * float((t ** p * kern) @ _GK_W)
    remainder = abs(lowest) / (2.0 ** q - 1.0)
    heapq.heapify(heap)
    while True:
        total = math.fsum([A[0] * near] + [h[3] for h in heap])
        coarse = math.fsum([A[1] * near] + [h[4] for h in heap])
        err = math.fsum(-h[0] for h in heap)
        if (err <= max(_PANEL_RTOL * abs(total), 0.1 * abs(total - coarse))
                or len(heap) >= _MAX_PANELS):
            break
        _, lo, hi, _, _ = heapq.heappop(heap)
        for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)):
            heapq.heappush(heap, panel(*half))
    err += (remainder + abs(total - coarse)
            + np.finfo(float).eps / _T_MIN * abs(total))
    return total, float(err), n_eval, n


def sobolev_seminorm(f: SmoothMap, beta: float, p: float,
                     samples: int = 200_000,
                     seed: int = 0) -> SeminormEstimate:
    """Gagliardo seminorm [f]_{W^{beta,p}(S^N)} with an error bound: by
    tensor quadrature on S^1 and by stratified Monte Carlo on S^2, S^3."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, not {p!r}")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    samples = _count("samples", samples, 1)
    _count("seed", seed, 0)           # also on S^1, whose rule draws none
    if _sampled_dim(f, "Sobolev") == 1:
        total, err, used, angles = _sobolev_circle_quadrature(f, beta, p)
        name, seed = "tensor-quadrature", None
    else:
        total, err, used = _sobolev_mc(f, beta, p, samples, seed)
        name, angles = "stratified-MC", None
    value = total ** (1.0 / p)
    verr = err / p * max(total, 1e-300) ** (1.0 / p - 1.0)
    return SeminormEstimate(value, verr, name, used, seed, angles)


# ----------------------------------------------------------------------
# Hoelder seminorm
# ----------------------------------------------------------------------

def _holder_ratio(f, X, Y, beta):
    """(ratios of the pairs, rows passed to f.value)."""
    # chords below 1e-5 are cancellation-dominated and would break the
    # lower-bound semantics of the sampled sup
    chord = row_norm(X - Y)
    ok = chord > 1e-5
    out = np.zeros(len(X))
    out[ok] = row_norm(f.value(X[ok]) - f.value(Y[ok])) / chord[ok] ** beta
    return out, 2 * int(ok.sum())


def holder_seminorm(f: SmoothMap, beta: float, samples: int = 20_000,
                    seed: int = 0) -> SeminormEstimate:
    """Sampled sup of |f(x)-f(y)| / |x-y|^beta, hill-climbed from the
    best pairs.  A lower bound of the true seminorm by construction;
    `samples` of the estimate counts the rows passed to f.value, pairs
    and refinement steps together."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    samples = _count("samples", samples, 1)
    N = f.domain_dim
    amb = N + 1
    rng = _rng(seed, 0)

    half = samples // 2
    X1 = _uniform_sphere(rng, half, amb)
    Y1 = _uniform_sphere(rng, half, amb)
    # shell pairs seek the near-diagonal sup relevant for beta near 1
    X2 = _uniform_sphere(rng, samples - half, amb)
    U = rng.standard_normal(X2.shape)
    scale = 2.0 ** -rng.integers(0, 24, size=samples - half)
    psi = scale * rng.random(samples - half) * np.pi
    Y2 = _tilt(X2, U, psi)
    X = np.vstack([X1, X2])
    Y = np.vstack([Y1, Y2])
    ratios, rows = _holder_ratio(f, X, Y, beta)

    # the ten best pairs climb in lockstep, one f.value call per step;
    # pair j draws its 8 candidates from its own stream, in pair order
    top = np.argsort(-ratios)[:10]
    pairs, r = np.stack([X[top], Y[top]], axis=1), ratios[top]
    streams = [_rng(seed, 1, j) for j in range(len(top))]
    for it in range(_REFINE_ITERS):
        cand = np.stack([xy + rng_j.standard_normal((8, 2, amb)) * (
            max(np.linalg.norm(xy[0] - xy[1]), 1e-8) * 0.4 * 0.85 ** it)
            for xy, rng_j in zip(pairs, streams)])
        cand /= row_norm(cand)[..., None]
        rr, n = _holder_ratio(f, cand[:, :, 0].reshape(-1, amb),
                              cand[:, :, 1].reshape(-1, amb), beta)
        rows += n
        rr = rr.reshape(len(top), 8)
        i = rr.argmax(axis=1)
        up = rr[np.arange(len(top)), i] > r
        r[up], pairs[up] = rr[up, i[up]], cand[up, i[up]]
    value = float(r.max())
    spread = float(value - np.median(r))
    return SeminormEstimate(value, spread, "sampled-sup", rows, seed)


# ----------------------------------------------------------------------
# BMO seminorm
# ----------------------------------------------------------------------

def _bmo_cap_values(f: SmoothMap, centers: int, m: int,
                    seed: int) -> np.ndarray:
    """f at the m sampled points of every BMO cap, (caps, m, target
    coordinates), caps in (center, radius) order."""
    N = f.domain_dim
    amb = N + 1
    rng = _rng(seed, 0)
    ctrs = _uniform_sphere(rng, centers, amb)
    # each cap draws its directions and then its angles' uniforms from
    # its own stream, in (center, radius) order
    U = np.empty((centers * len(_BMO_ANGLES), m, amb))
    u = np.empty((len(U), m))
    for c in range(len(U)):
        ci, ri = divmod(c, len(_BMO_ANGLES))
        rng_c = _rng(seed, 1 + ci, ri)
        rng_c.standard_normal((m, amb), out=U[c])
        rng_c.random(out=u[c])
    # the angles in one closed-form transform over all caps; on S^3 one
    # Newton inversion per cap, as its stop depends on its batch
    hi = np.tile(_BMO_ANGLES, centers)[:, None]
    psi = (_inverse_sin_mass(N, 0.0, hi, u) if N < 3 else np.array(
        [_inverse_sin_mass(N, 0.0, h, row) for h, row in zip(hi[:, 0], u)]))
    # then the cap points and f.value once over all caps
    X = np.repeat(ctrs, len(_BMO_ANGLES), axis=0)[:, None, :]
    return f.value(_tilt(X, U, psi).reshape(-1, amb)).reshape(len(U), m, -1)


def bmo_seminorm(f: SmoothMap, centers: int = 64, cap_samples: int = 128,
                 seed: int = 0) -> SeminormEstimate:
    """Mean-oscillation sup over sampled centers and the dyadic radii
    2 * 2^-k, k < 9: max of the double cap average of |f(theta) - f(sigma)|.

    A lower bound of the BMO seminorm (finite grid of caps); the error
    is the Monte Carlo standard error of the maximizing cap.  Raises
    ValueError on `centers` < 1 and `cap_samples` < 2, and on S^N with
    N > 3.
    """
    _sampled_dim(f, "BMO")
    centers = _count("centers", centers, 1)
    m = _count("cap_samples", cap_samples, 2)
    vals = _bmo_cap_values(f, centers, m, seed)

    def cap_statistics(rows, buffers):
        caps = vals[rows]
        sq, tmp = buffers[:, :len(caps)]       # its worker's two buffers
        # |f(x_i) - f(x_j)| per cap; per cap the U-statistic, and the
        # standard error from its row means
        diff = np.sqrt(pair_sq_dist(caps, caps, sq, tmp), out=sq)
        row_means = diff.sum(axis=2) / (m - 1)
        return zip((diff.sum(axis=(1, 2)) / (m * (m - 1))).tolist(),
                   (2.0 * row_means.std(axis=1, ddof=1) / math.sqrt(m)).tolist())

    best, best_se = 0.0, 0.0
    for part in map_scratch(cap_statistics, blocks(len(vals), _BMO_CAPS),
                            (2, min(_BMO_CAPS, len(vals)), m, m)):
        for u_stat, se in part:
            if u_stat > best:
                best, best_se = u_stat, se
    return SeminormEstimate(best, best_se, "sampled-sup", vals.shape[0] * m,
                            seed)


# ----------------------------------------------------------------------
# Poisson extension probe
# ----------------------------------------------------------------------

def poisson_extension_distance(f: SmoothMap, probes: np.ndarray,
                               mesh) -> list:
    """Distance of the harmonic (Poisson) extension from the target.

    F(x) = c int f(theta) (1-|x|^2)/|x-theta|^{N+1} dtheta evaluated by
    surface quadrature with the kernel self-normalized, so constants are
    reproduced exactly.  Returns [(probe, distance), ...].  Raises
    ValueError on a mesh of another sphere than f's domain S^N and on
    probes outside R^{N+1}.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if mesh.dim != f.domain_dim or probes.shape[1] != f.domain_dim + 1:
        raise ValueError(f"probes in R^{probes.shape[1]} and a mesh of "
                         f"S^{mesh.dim} for a map on S^{f.domain_dim}")
    if np.any(row_norm(probes) >= 1.0):
        raise ValueError("probe points must lie inside the open unit ball")
    pts, wts = sphere_quadrature(mesh)
    vals = f.value(pts)
    N = mesh.dim
    out = []
    for x in probes:
        dist = row_norm(x[None, :] - pts)
        kern = wts * (1.0 - float(x @ x)) / dist ** (N + 1)
        F = (kern[:, None] * vals).sum(axis=0) / kern.sum()
        out.append((x, float(distance_to_target(F[None], f.target)[0])))
    return out

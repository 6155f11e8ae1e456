"""Fractional Sobolev, Hoelder and BMO seminorm estimators on S^N.

The Gagliardo seminorm

    [f]_{W^{beta,p}}^p = int int |f(x)-f(y)|^p / |x-y|^{N + beta p} dx dy

uses the extrinsic chordal distance |x-y| throughout.  Near the
diagonal the pair integral is carried by its leading term
A t^p chord(t)^{-(N + beta p)}, with A = int int |Df(x) u|^p du dx over
the unit tangent vectors u, taken from the analytic Jacobian and
integrated in closed form in t (singularity subtraction).  On S^1 the
rest is a single shift integral, by adaptive Gauss-Kronrod panels.  On
S^2 and S^3 the rest is estimated by Monte Carlo in 12 dyadic chord
strata (the integrand is unbounded near the diagonal for beta > 1/2,
where plain sampling has unbounded variance), and the leading term
covers the angles below the last stratum.

All Monte Carlo draws use counter-based Philox streams spawned per
stratum from the master seed, so results are reproducible for a fixed
seed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .geometry.forms import sphere_quadrature
from .geometry.mesh import SPHERE_VOLUMES, build_sphere_mesh
from .maps import SmoothMap, distance_to_target


@dataclass
class SeminormEstimate:
    value: float
    error: float
    method: str
    samples: int
    seed: int | None = None


# ----------------------------------------------------------------------
# sampling helpers
# ----------------------------------------------------------------------

def _rng(seed, *key) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def _uniform_sphere(rng, n: int, dim_ambient: int) -> np.ndarray:
    X = rng.standard_normal((n, dim_ambient))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _orthogonal_directions(rng, X: np.ndarray) -> np.ndarray:
    U = rng.standard_normal(X.shape)
    U -= (U * X).sum(axis=1, keepdims=True) * X
    return U / np.linalg.norm(U, axis=1, keepdims=True)


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


def _sample_angle(rng, n: int, N: int, psi_lo: float, psi_hi: float) -> np.ndarray:
    """Geodesic angles distributed like sin^{N-1} on [psi_lo, psi_hi]:
    _sin_mass inverted at uniform targets."""
    lo, hi = _sin_mass(N, psi_lo), _sin_mass(N, psi_hi)
    target = lo + rng.random(n) * (hi - lo)
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
_MOMENT_ROWS = 128           # x-nodes per product in _jacobian_moment


def _near_diagonal(N: int, beta: float, p: float, t_max: float) -> float:
    """int_0^t_max t^p chord(t)^{-(N + beta p)} sin^{N-1}(t) dt, the
    radial factor of the leading term at the diagonal, by a Gauss-Jacobi
    rule for the weight t^{p(1-beta)-1}; the rest is smooth."""
    expo = N + beta * p
    a = p - expo + (N - 1)
    x, w = roots_jacobi(_JACOBI_NODES, 0.0, a)      # weight (1 + x)^a
    t = 0.5 * t_max * (x + 1.0)
    smooth = (t / (2.0 * np.sin(t / 2.0))) ** expo * (np.sin(t) / t) ** (N - 1)
    return (0.5 * t_max) ** (a + 1.0) * float((w * smooth).sum())


def _jacobian_moment(f, p) -> np.ndarray:
    """A = int_{S^N} int_{S^{N-1}_x} |Df(x) u|^p du dx by two rules.

    x runs over the level-0 mesh rule of S^N, and the tangent directions
    u over the level-1 and then the level-0 mesh rule of S^{N-1}
    (u = +-1 on S^0), mapped by an orthonormal frame at each x.  Every
    rule's weights are scaled to its sphere's volume, so constants
    integrate exactly.  Returns A by the finer and by the coarser rule.
    """
    N = f.domain_dim
    X, wx = sphere_quadrature(build_sphere_mesh(N, 0))
    rules = [(np.array([[1.0], [-1.0]]), np.ones(2))] * 2 if N == 1 else [
        sphere_quadrature(build_sphere_mesh(N - 1, level)) for level in (1, 0)]
    A = np.zeros(2)
    for lo in range(0, len(X), _MOMENT_ROWS):
        x = X[lo:lo + _MOMENT_ROWS]
        # Df on the tangent frame Q[:, :, 1:] of the complete QR of x, and
        # |Df u|^2 = u^T G u with G its Gram matrix
        JT = f.jacobian(x) @ np.linalg.qr(x[:, :, None], "complete")[0][:, :, 1:]
        G = (np.swapaxes(JT, 1, 2) @ JT).reshape(len(x), -1)
        for i, (U, wu) in enumerate(rules):
            uu = (U[:, :, None] * U[:, None, :]).reshape(len(U), -1)
            sq = np.maximum(G @ uu.T, 0.0) ** (0.5 * p)
            A[i] += wx[lo:lo + _MOMENT_ROWS] @ sq @ wu / wu.sum()
    return A * SPHERE_VOLUMES[N] * SPHERE_VOLUMES[N - 1] / wx.sum()


def _sobolev_mc(f, beta, p, samples, seed, stratified=True):
    """[f]^p by Monte Carlo, its error and the rows passed to f.value;
    `stratified=False` is plain Monte Carlo, the tests' reference."""
    N = f.domain_dim
    amb = N + 1
    expo = N + beta * p

    if not stratified:
        rng = _rng(seed, 0)
        X = _uniform_sphere(rng, samples, amb)
        Y = _uniform_sphere(rng, samples, amb)
        chord = np.linalg.norm(X - Y, axis=1)
        g = np.linalg.norm(f.value(X) - f.value(Y), axis=1) ** p / chord ** expo
        vol = SPHERE_VOLUMES[N] ** 2
        total = vol * float(g.mean())
        se = vol * float(g.std(ddof=1)) / np.sqrt(samples)
        return total, se, 2 * samples

    # dyadic chord shells [2^-k-1 D, 2^-k D], k < _STRATA, then the
    # leading term below the last edge psi_min
    psi_edges = [2.0 * np.arcsin(2.0 ** -k) for k in range(_STRATA + 1)]
    n_per = max(64, samples // _STRATA)
    total, var = 0.0, 0.0
    for k in range(_STRATA):
        hi, lo = psi_edges[k], psi_edges[k + 1]
        rng = _rng(seed, k)
        X = _uniform_sphere(rng, n_per, amb)
        U = _orthogonal_directions(rng, X)
        psi = _sample_angle(rng, n_per, N, lo, hi)
        Y = np.cos(psi)[:, None] * X + np.sin(psi)[:, None] * U
        chord = 2.0 * np.sin(psi / 2.0)
        g = np.linalg.norm(f.value(X) - f.value(Y), axis=1) ** p / chord ** expo
        vol = SPHERE_VOLUMES[N] * SPHERE_VOLUMES[N - 1] * float(
            _sin_mass(N, hi) - _sin_mass(N, lo))
        total += vol * float(g.mean())
        var += (vol ** 2) * float(g.var(ddof=1)) / n_per
    # at angle psi along u, |f(y) - f(x)|^p = psi^p |Df(x) u|^p
    # (1 + O(psi^2)): the psi^{p+1} term is odd in u and integrates to 0
    psi_min = psi_edges[-1]
    A = _jacobian_moment(f, p)
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

_THETA = 2048                # periodic trapezoid angles of G(t)
_DYADIC = 15                 # initial far panels [pi 2^-k-1, pi 2^-k]
_T_MIN = np.pi * 2.0 ** -_DYADIC   # near part [0, T_MIN]
_PANEL_RTOL = 1e-9           # target of sum |K15 - G7| over the total
_MAX_PANELS = 128            # far panels, so at most 241 f.value calls


def _sobolev_circle_quadrature(f, beta, p):
    """[f]^p on S^1 by singularity subtraction and adaptive GK panels.

    [f]^p = 2 int_0^pi G(t) chord(t)^{-(1+beta p)} dt with
    G(t) = int |f(theta+t)-f(theta)|^p dtheta, the periodic trapezoid
    rule on _THETA angles.  Near the diagonal G(t) = A t^p + O(t^{p+2}),
    A = int |f'|^p (the t^{p+1} term is a derivative and integrates to
    0), so [0, T_MIN] takes the leading term with A from the analytic
    Jacobian, by a Gauss-Jacobi rule for the weight t^{p(1-beta)-1}.
    [T_MIN, pi] starts from dyadic panels; the panel of largest
    |K15 - G7| is bisected until their sum is below _PANEL_RTOL of the
    total or a tenth of the trapezoid change against every other angle,
    which more panels cannot reduce.  The error adds that sum, the near
    remainder (extrapolated from the lowest panel as t^{p(1-beta)+2}),
    that trapezoid change, and a round-off floor eps/T_MIN for the
    cancellation in f(theta+t) - f(theta).  Returns the total, its error
    and the rows passed to f.value.
    """
    expo = 1.0 + beta * p
    th = 2.0 * np.pi * np.arange(_THETA) / _THETA
    base = np.stack([np.cos(th), np.sin(th)], axis=1)
    tang = np.stack([-base[:, 1], base[:, 0]], axis=1)
    f_base = f.value(base)
    n_eval = _THETA
    speed = np.linalg.norm(np.einsum("nij,nj->ni", f.jacobian(base), tang),
                           axis=1) ** p
    A = 2.0 * np.pi * np.array([speed.mean(), speed[::2].mean()])

    near = 2.0 * _near_diagonal(1, beta, p, _T_MIN)

    def nodes(lo, hi):
        # Kronrod shifts and their weights times 2 chord^{-expo}
        half = 0.5 * (hi - lo)
        t = lo + half * (_GK_X + 1.0)
        return t, 2.0 * half * (2.0 * np.sin(t / 2.0)) ** -expo

    def panel(lo, hi):
        # one f.value call: 15 Kronrod shifts of all _THETA angles; K15
        # on all angles and on every other one, and |K15 - G7|
        nonlocal n_eval
        t, kern = nodes(lo, hi)
        pts = (np.cos(t)[:, None, None] * base
               + np.sin(t)[:, None, None] * tang).reshape(-1, 2)
        diff = f.value(pts).reshape(len(t), _THETA, -1) - f_base
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
    return total, float(err), n_eval


def sobolev_seminorm(f: SmoothMap, beta: float, p: float,
                     samples: int = 200_000,
                     seed: int = 0) -> SeminormEstimate:
    """Gagliardo seminorm [f]_{W^{beta,p}(S^N)} with an error bound: by
    tensor quadrature on S^1 and by stratified Monte Carlo on S^2, S^3."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if f.domain_dim == 1:
        total, err, used = _sobolev_circle_quadrature(f, beta, p)
        name, seed = "tensor-quadrature", None
    else:
        total, err, used = _sobolev_mc(f, beta, p, samples, seed)
        name = "stratified-MC"
    value = total ** (1.0 / p)
    verr = err / p * max(total, 1e-300) ** (1.0 / p - 1.0)
    return SeminormEstimate(value, verr, name, used, seed)


# ----------------------------------------------------------------------
# Hoelder seminorm
# ----------------------------------------------------------------------

def _holder_ratio(f, X, Y, beta):
    """(ratios of the pairs, rows passed to f.value)."""
    # chords below 1e-5 are cancellation-dominated and would break the
    # lower-bound semantics of the sampled sup
    chord = np.linalg.norm(X - Y, axis=1)
    ok = chord > 1e-5
    out = np.zeros(len(X))
    out[ok] = (np.linalg.norm(f.value(X[ok]) - f.value(Y[ok]), axis=1)
               / chord[ok] ** beta)
    return out, 2 * int(ok.sum())


def holder_seminorm(f: SmoothMap, beta: float, samples: int = 20_000,
                    seed: int = 0, refine_iters: int = 60) -> SeminormEstimate:
    """Sampled sup of |f(x)-f(y)| / |x-y|^beta, hill-climbed from the
    best pairs.  A lower bound of the true seminorm by construction;
    `samples` of the estimate counts the rows passed to f.value, pairs
    and refinement steps together."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    N = f.domain_dim
    amb = N + 1
    rng = _rng(seed, 0)

    half = samples // 2
    X1 = _uniform_sphere(rng, half, amb)
    Y1 = _uniform_sphere(rng, half, amb)
    # shell pairs seek the near-diagonal sup relevant for beta near 1
    X2 = _uniform_sphere(rng, samples - half, amb)
    U = _orthogonal_directions(rng, X2)
    scale = 2.0 ** -rng.integers(0, 24, size=samples - half)
    psi = scale * rng.random(samples - half) * np.pi
    Y2 = np.cos(psi)[:, None] * X2 + np.sin(psi)[:, None] * U
    X = np.vstack([X1, X2])
    Y = np.vstack([Y1, Y2])
    ratios, rows = _holder_ratio(f, X, Y, beta)

    top = np.argsort(-ratios)[:10]
    best_pairs = [(X[i].copy(), Y[i].copy(), ratios[i]) for i in top]
    refined = []
    for j, (x, y, r) in enumerate(best_pairs):
        rng_j = _rng(seed, 1, j)
        r_cur, x_cur, y_cur = r, x, y
        for it in range(refine_iters):
            s = max(np.linalg.norm(x_cur - y_cur), 1e-8) * 0.4 * 0.85 ** it
            P = np.repeat(np.vstack([x_cur, y_cur])[None], 8, axis=0)
            noise = rng_j.standard_normal((8, 2, amb)) * s
            cand = P + noise
            cand /= np.linalg.norm(cand, axis=2, keepdims=True)
            rr, n = _holder_ratio(f, cand[:, 0], cand[:, 1], beta)
            rows += n
            i = int(np.argmax(rr))
            if rr[i] > r_cur:
                r_cur, x_cur, y_cur = rr[i], cand[i, 0], cand[i, 1]
        refined.append(r_cur)
    refined.sort(reverse=True)
    value = float(refined[0])
    spread = float(refined[0] - np.median(refined))
    return SeminormEstimate(value, spread, "sampled-sup", rows, seed)


# ----------------------------------------------------------------------
# BMO seminorm
# ----------------------------------------------------------------------

def bmo_seminorm(f: SmoothMap, radii: np.ndarray | None = None,
                 centers: int = 64, cap_samples: int = 128,
                 seed: int = 0) -> SeminormEstimate:
    """Mean-oscillation sup over sampled centers and a dyadic radius
    grid: max of the double cap average of |f(theta) - f(sigma)|.

    A lower bound of the BMO seminorm (finite grid of caps); the error
    is the Monte Carlo standard error of the maximizing cap.
    """
    N = f.domain_dim
    amb = N + 1
    if radii is None:
        radii = 2.0 * 2.0 ** -np.arange(9, dtype=float)
    radii = np.asarray(radii, dtype=float)
    rng = _rng(seed, 0)
    ctrs = _uniform_sphere(rng, centers, amb)
    best, best_se = 0.0, 0.0
    n_eval = 0
    for ci, x in enumerate(ctrs):
        for ri, r in enumerate(radii):
            psi_r = 2.0 * np.arcsin(min(1.0, r / 2.0))
            rng_c = _rng(seed, 1 + ci, ri)
            U = _orthogonal_directions(rng_c, np.broadcast_to(x, (cap_samples, amb)).copy())
            psi = _sample_angle(rng_c, cap_samples, N, 0.0, psi_r)
            pts = np.cos(psi)[:, None] * x + np.sin(psi)[:, None] * U
            vals = f.value(pts)
            n_eval += cap_samples
            diff = np.linalg.norm(vals[:, None, :] - vals[None, :, :], axis=2)
            m = len(vals)
            u_stat = float(diff.sum() / (m * (m - 1)))
            row_means = (diff.sum(axis=1)) / (m - 1)
            se = 2.0 * float(row_means.std(ddof=1)) / np.sqrt(m)
            if u_stat > best:
                best, best_se = u_stat, se
    return SeminormEstimate(best, best_se, "sampled-sup", n_eval, seed)


# ----------------------------------------------------------------------
# Poisson extension probe
# ----------------------------------------------------------------------

def poisson_extension_distance(f: SmoothMap, probes: np.ndarray,
                               mesh) -> list:
    """Distance of the harmonic (Poisson) extension from the target.

    F(x) = c int f(theta) (1-|x|^2)/|x-theta|^{N+1} dtheta evaluated by
    surface quadrature with the kernel self-normalized, so constants are
    reproduced exactly.  Returns [(probe, distance), ...].
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if np.any(np.linalg.norm(probes, axis=1) >= 1.0):
        raise ValueError("probe points must lie inside the open unit ball")
    pts, wts = sphere_quadrature(mesh)
    vals = f.value(pts)
    N = mesh.dim
    out = []
    for x in probes:
        dist = np.linalg.norm(x[None, :] - pts, axis=1)
        kern = wts * (1.0 - float(x @ x)) / dist ** (N + 1)
        F = (kern[:, None] * vals).sum(axis=0) / kern.sum()
        out.append((x, float(distance_to_target(F[None], f.target)[0])))
    return out

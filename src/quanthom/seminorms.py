"""Fractional Sobolev, Hoelder and BMO seminorm estimators on S^N.

The Gagliardo seminorm

    [f]_{W^{beta,p}}^p = int int |f(x)-f(y)|^p / |x-y|^{N + beta p} dx dy

uses the extrinsic chordal distance |x-y| throughout.  On S^1 the
double integral is reduced to a single shift integral: its leading
term at the diagonal is integrated in closed form from the analytic
Jacobian (singularity subtraction), the rest by adaptive Gauss-Kronrod
panels.  On S^2 and S^3 it is estimated by Monte Carlo stratified
dyadically in the chord length (the integrand is unbounded near the
diagonal for beta > 1/2, where plain sampling has unbounded variance);
discarded near-diagonal shells are controlled by a Lipschitz tail bound
computed from the analytic Jacobian.

All Monte Carlo draws use counter-based Philox streams spawned per
stratum from the master seed, so results are reproducible for a fixed
(seed, stratum count).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .geometry.forms import sphere_quadrature
from .geometry.mesh import SPHERE_VOLUMES
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


def _sample_angle(rng, n: int, N: int, psi_lo: float, psi_hi: float) -> np.ndarray:
    """Geodesic angles distributed like sin^{N-1} on [psi_lo, psi_hi]."""
    u = rng.random(n)
    if N == 1:
        return psi_lo + u * (psi_hi - psi_lo)
    if N == 2:
        c = np.cos(psi_lo) + u * (np.cos(psi_hi) - np.cos(psi_lo))
        return np.arccos(np.clip(c, -1.0, 1.0))
    H = lambda a: 0.5 * (a - np.sin(a) * np.cos(a))
    target = H(psi_lo) + u * (H(psi_hi) - H(psi_lo))
    psi = np.full(n, 0.5 * (psi_lo + psi_hi))
    for _ in range(40):
        g = np.sin(psi) ** 2
        step = (H(psi) - target) / np.maximum(g, 1e-300)
        psi = np.clip(psi - step, psi_lo, psi_hi)
    return psi


def _shell_measure(N: int, psi_lo: float, psi_hi: float) -> float:
    """Measure of {y: angle(x,y) in [lo,hi]} on S^N, independent of x."""
    pref = SPHERE_VOLUMES[N - 1]
    if N == 1:
        return pref * (psi_hi - psi_lo)
    if N == 2:
        return pref * (np.cos(psi_lo) - np.cos(psi_hi))
    H = lambda a: 0.5 * (a - np.sin(a) * np.cos(a))
    return pref * (H(psi_hi) - H(psi_lo))


def lipschitz_estimate(f: SmoothMap, n_probes: int = 512, seed: int = 0) -> float:
    """Sampled sup of the tangential operator norm of Df, with margin."""
    rng = _rng(seed, 999)
    X = _uniform_sphere(rng, n_probes, f.domain_dim + 1)
    J = f.jacobian(X)
    tang = J - np.einsum("mij,mj,mk->mik", J, X, X)
    s = np.linalg.svd(tang, compute_uv=False)
    return 1.05 * float(s[:, 0].max())


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

def _tail_bound(N: int, p: float, beta: float, L: float, psi_max: float) -> float:
    """Lipschitz bound of the pair integral over angles below psi_max."""
    if psi_max <= 0.0:
        return 0.0
    x, w = roots_legendre(64)
    psi = 0.5 * psi_max * (x + 1.0)
    ww = 0.5 * psi_max * w
    chord = 2.0 * np.sin(psi / 2.0)
    integrand = chord ** (p * (1 - beta) - N) * np.sin(psi) ** (N - 1)
    return (SPHERE_VOLUMES[N] * SPHERE_VOLUMES[N - 1] * L ** p
            * float((integrand * ww).sum()))


def _sobolev_mc(f, beta, p, samples, seed, stratified=True, max_strata=44):
    N = f.domain_dim
    amb = N + 1
    expo = N + beta * p
    L = lipschitz_estimate(f, seed=seed)

    if not stratified:
        rng = _rng(seed, 0)
        X = _uniform_sphere(rng, samples, amb)
        Y = _uniform_sphere(rng, samples, amb)
        chord = np.linalg.norm(X - Y, axis=1)
        g = np.linalg.norm(f.value(X) - f.value(Y), axis=1) ** p / chord ** expo
        vol = SPHERE_VOLUMES[N] ** 2
        total = vol * float(g.mean())
        se = vol * float(g.std(ddof=1)) / np.sqrt(samples)
        return total, se, 0.0, 2 * samples

    # dyadic chord shells [2^-k-1 D, 2^-k D]; extend until the Lipschitz
    # tail is negligible against the running total
    strata = 12
    used = 0                     # rows passed to f.value over all passes
    while True:
        edges = [2.0 * 2.0 ** (-k) for k in range(strata + 1)]
        psi_edges = [2.0 * np.arcsin(min(1.0, r / 2.0)) for r in edges]
        tail = _tail_bound(N, p, beta, L, psi_edges[-1])
        n_per = max(64, samples // strata)
        total, var = 0.0, 0.0
        for k in range(strata):
            hi, lo = psi_edges[k], psi_edges[k + 1]
            rng = _rng(seed, k)
            X = _uniform_sphere(rng, n_per, amb)
            U = _orthogonal_directions(rng, X)
            psi = _sample_angle(rng, n_per, N, lo, hi)
            Y = np.cos(psi)[:, None] * X + np.sin(psi)[:, None] * U
            chord = 2.0 * np.sin(psi / 2.0)
            g = np.linalg.norm(f.value(X) - f.value(Y), axis=1) ** p / chord ** expo
            vol = SPHERE_VOLUMES[N] * _shell_measure(N, lo, hi)
            total += vol * float(g.mean())
            var += (vol ** 2) * float(g.var(ddof=1)) / n_per
            used += 2 * n_per
        if tail <= 0.01 * total or strata >= max_strata:
            break
        strata = min(max_strata, strata + 8)
    return total, float(np.sqrt(var)), tail, used


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
_JACOBI_NODES = 6            # exact to round-off for the smooth factor
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
    total.  The error adds that sum, the near remainder (extrapolated
    from the lowest panel as t^{p(1-beta)+2}), the trapezoid change
    against every other angle, and a round-off floor eps/T_MIN for the
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

    # near part: A int_0^T_MIN t^a (t / chord(t))^expo dt, a = p - expo
    a = p - expo
    x, w = roots_jacobi(_JACOBI_NODES, 0.0, a)      # weight (1 + x)^a
    t = 0.5 * _T_MIN * (x + 1.0)
    near = 2.0 * (0.5 * _T_MIN) ** (a + 1.0) * float(
        (w * (t / (2.0 * np.sin(t / 2.0))) ** expo).sum())

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
    q = a + 3.0
    lowest = heap[-1][3] - A[0] * float((t ** p * kern) @ _GK_W)
    remainder = abs(lowest) / (2.0 ** q - 1.0)
    heapq.heapify(heap)
    while True:
        total = math.fsum([A[0] * near] + [h[3] for h in heap])
        err = math.fsum(-h[0] for h in heap)
        if err <= _PANEL_RTOL * abs(total) or len(heap) >= _MAX_PANELS:
            break
        _, lo, hi, _, _ = heapq.heappop(heap)
        for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)):
            heapq.heappush(heap, panel(*half))
    coarse = math.fsum([A[1] * near] + [h[4] for h in heap])
    err += (remainder + abs(total - coarse)
            + np.finfo(float).eps / _T_MIN * abs(total))
    return total, float(err), n_eval


def sobolev_seminorm(f: SmoothMap, beta: float, p: float,
                     samples: int = 200_000, seed: int = 0,
                     method: str = "auto") -> SeminormEstimate:
    """Gagliardo seminorm [f]_{W^{beta,p}(S^N)} with an error bound.

    method: "auto" (tensor quadrature on S^1, stratified Monte Carlo
    otherwise), or one of "tensor", "stratified-mc", "plain-mc".
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if method == "auto":
        method = "tensor" if f.domain_dim == 1 else "stratified-mc"
    if method == "tensor":
        if f.domain_dim != 1:
            raise ValueError("tensor quadrature implemented on S^1 only")
        total, err, n_eval = _sobolev_circle_quadrature(f, beta, p)
        value = total ** (1.0 / p)
        verr = err / p * max(total, 1e-300) ** (1.0 / p - 1.0)
        return SeminormEstimate(value, verr, "tensor-quadrature", n_eval, None)
    stratified = method == "stratified-mc"
    total, se, tail, used = _sobolev_mc(f, beta, p, samples, seed,
                                        stratified=stratified)
    if total == 0.0:
        return SeminormEstimate(0.0, 0.0,
                                "stratified-MC" if stratified else "plain-MC",
                                used, seed)
    value = total ** (1.0 / p)
    verr = (se + tail) / p * total ** (1.0 / p - 1.0)
    return SeminormEstimate(value, verr,
                            "stratified-MC" if stratified else "plain-MC",
                            used, seed)


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

"""Fractional Sobolev, Hoelder and BMO seminorm estimators on S^N.

The Gagliardo seminorm

    [f]_{W^{beta,p}}^p = int int |f(x)-f(y)|^p / |x-y|^{N + beta p} dx dy

uses the extrinsic chordal distance |x-y| throughout.  On S^1 the
double integral is reduced to a single shift integral and evaluated by
graded panel quadrature; on S^2 and S^3 it is estimated by Monte Carlo
stratified dyadically in the chord length (the integrand is unbounded
near the diagonal for beta > 1/2, where plain sampling has unbounded
variance).  Discarded near-diagonal shells are controlled by a
Lipschitz tail bound computed from the analytic Jacobian.

All Monte Carlo draws use counter-based Philox streams spawned per
stratum from the master seed, so results are reproducible for a fixed
(seed, stratum count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

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

    def as_dict(self) -> dict:
        return {"value": self.value, "error": self.error,
                "method": self.method, "samples": self.samples,
                "seed": self.seed}


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
        return total, se, 0.0, samples

    # dyadic chord shells [2^-k-1 D, 2^-k D]; extend until the Lipschitz
    # tail is negligible against the running total
    strata = 12
    while True:
        edges = [2.0 * 2.0 ** (-k) for k in range(strata + 1)]
        psi_edges = [2.0 * np.arcsin(min(1.0, r / 2.0)) for r in edges]
        tail = _tail_bound(N, p, beta, L, psi_edges[-1])
        n_per = max(64, samples // strata)
        total, var = 0.0, 0.0
        used = 0
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
            used += n_per
        if tail <= 0.01 * total or strata >= max_strata:
            break
        strata = min(max_strata, strata + 8)
    return total, float(np.sqrt(var)), tail, used


def _sobolev_circle_quadrature(f, beta, p, panels_cap=140, n_gauss=12,
                               n_theta=2048, tol=1e-4):
    """Reduced shift integral on S^1 with dyadically graded panels.

    [f]^p = 2 int_0^pi G(t) chord(t)^{-(1+beta p)} dt with
    G(t) = int |f(theta+t)-f(theta)|^p dtheta; the inner integral uses
    the periodic trapezoid rule, the outer one Gauss panels graded
    toward the chord singularity at t = 0.
    """
    expo = 1.0 + beta * p
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    base = np.stack([np.cos(th), np.sin(th)], axis=1)
    f_base = f.value(base)
    L = lipschitz_estimate(f)

    def shift_integral(ts):
        out = np.empty(len(ts))
        for i, t in enumerate(ts):
            pts = np.stack([np.cos(th + t), np.sin(th + t)], axis=1)
            diff = np.linalg.norm(f.value(pts) - f_base, axis=1)
            out[i] = (diff ** p).mean() * 2.0 * np.pi
        return out

    def run(n_nodes):
        x, w = roots_legendre(n_nodes)
        total = 0.0
        n_eval = 0
        k = 0
        while k < panels_cap:
            hi, lo = np.pi * 2.0 ** (-k), np.pi * 2.0 ** (-k - 1)
            ts = 0.5 * (hi - lo) * (x + 1.0) + lo
            ws = 0.5 * (hi - lo) * w
            vals = shift_integral(ts) * (2.0 * np.sin(ts / 2.0)) ** (-expo)
            total += 2.0 * float((vals * ws).sum())
            n_eval += len(ts) * n_theta
            k += 1
            t_min = np.pi * 2.0 ** (-k)
            tail = (2.0 * 2.0 * np.pi * L ** p
                    * t_min ** (p * (1 - beta)) / (p * (1 - beta)))
            if tail <= tol * max(total, 1e-300):
                break
        return total, tail, n_eval

    coarse, _, _ = run(max(4, n_gauss // 2))
    total, tail, n_eval = run(n_gauss)
    err = abs(total - coarse) + tail
    return total, err, n_eval


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
    # chords below 1e-5 are cancellation-dominated and would break the
    # lower-bound semantics of the sampled sup
    chord = np.linalg.norm(X - Y, axis=1)
    ok = chord > 1e-5
    out = np.zeros(len(X))
    out[ok] = (np.linalg.norm(f.value(X[ok]) - f.value(Y[ok]), axis=1)
               / chord[ok] ** beta)
    return out


def holder_seminorm(f: SmoothMap, beta: float, samples: int = 20_000,
                    seed: int = 0, refine_iters: int = 60) -> SeminormEstimate:
    """Sampled sup of |f(x)-f(y)| / |x-y|^beta, hill-climbed from the
    best pairs.  A lower bound of the true seminorm by construction."""
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
    ratios = _holder_ratio(f, X, Y, beta)

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
            rr = _holder_ratio(f, cand[:, 0], cand[:, 1], beta)
            i = int(np.argmax(rr))
            if rr[i] > r_cur:
                r_cur, x_cur, y_cur = rr[i], cand[i, 0], cand[i, 1]
        refined.append(r_cur)
    refined.sort(reverse=True)
    value = float(refined[0])
    spread = float(refined[0] - np.median(refined))
    return SeminormEstimate(value, spread, "sampled-sup", samples, seed)


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

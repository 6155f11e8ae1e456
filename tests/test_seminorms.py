"""Seminorm estimators against reduced-quadrature oracles and invariances."""

import re
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import IntegrationWarning, quad
from scipy.special import beta as beta_fn
from scipy.special import betainc

from quanthom import seminorms
from quanthom.geometry import SPHERE_VOLUMES
from quanthom.maps import (SmoothMap, compose_with_isometry,
                           make_antipodal, make_circle_power, make_constant,
                           make_hopf, make_oscillation_perturbation,
                           make_sphere_suspension, parse_map_spec)
from quanthom.seminorms import (_REFINE_ITERS, _inverse_sin_mass,
                                _moment_rules, _rng, _sobolev_mc,
                                bmo_seminorm, holder_seminorm,
                                poisson_extension_distance, random_rotation,
                                sobolev_seminorm)

from conftest import cached_mesh
from helpers import plain_sobolev_mc


def circle_power_sobolev_oracle(d: int, beta: float, p: float) -> float:
    """1-D reduction of the Gagliardo double integral on the circle.

    For the winding-d family |f(x)-f(y)| depends only on t = theta_x -
    theta_y, so the double integral reduces to
    2 int_0^{2pi} (2pi - t) |2 sin(dt/2)|^p (2 sin(t/2))^{-(1+beta p)} dt.
    """

    def integrand(t):
        chord = 2.0 * np.sin(t / 2.0)
        num = np.abs(2.0 * np.sin(d * t / 2.0)) ** p
        return (2.0 * np.pi - t) * num / chord ** (1.0 + beta * p)

    val, err = quad(integrand, 0.0, 2.0 * np.pi, points=[0.0, 2.0 * np.pi],
                    limit=200)
    return (2.0 * val) ** (1.0 / p)


def circle_power_kink_oracle(d: int, beta: float, p: float) -> float:
    """The same reduction as 4 pi int_0^pi |2 sin(dt/2)|^p
    chord(t)^{-(1+beta p)} dt, by quad split at the kinks 2 pi j/d.

    Each piece between two breakpoints is halved; a half that ends at the
    diagonal takes the weight t^{p(1-beta)-1}, a half that ends at a kink
    the weight |t - kink|^p, and the smooth rest is written with sinc, so
    no piece loses digits to its singular end.
    """
    expo = 1.0 + beta * p
    kinks = [2.0 * np.pi * j / d for j in range(1, d // 2 + 1)]
    edges = [0.0] + kinks + ([] if kinks[-1:] == [np.pi] else [np.pi])
    ratio = lambda s: d * np.abs(np.sinc(d * s / (2.0 * np.pi)))
    chord = lambda t: 2.0 * np.sin(t / 2.0)
    opts = dict(limit=200, epsabs=0.0, epsrel=1e-13)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        m = 0.5 * (a + b)
        if a == 0.0:
            total += quad(lambda t: ratio(t) ** p
                          / np.sinc(t / (2.0 * np.pi)) ** expo,
                          a, m, weight="alg", wvar=(p - expo, 0.0), **opts)[0]
        else:
            total += quad(lambda t: ratio(t - a) ** p * chord(t) ** -expo,
                          a, m, weight="alg", wvar=(p, 0.0), **opts)[0]
        if b in kinks:
            total += quad(lambda t: ratio(b - t) ** p * chord(t) ** -expo,
                          m, b, weight="alg", wvar=(0.0, p), **opts)[0]
        else:
            total += quad(lambda t: np.abs(2.0 * np.sin(d * t / 2.0)) ** p
                          * chord(t) ** -expo, m, b, **opts)[0]
    return (4.0 * np.pi * total) ** (1.0 / p)


def reduced_circle_integral(f, beta: float, p: float, n_theta: int) -> float:
    """[f] from 2 int_0^pi G(t) chord(t)^{-(1+beta p)} dt for any map of S^1.

    G(t) is the trapezoid sum of |f(theta+t)-f(theta)|^p over n_theta
    angles; quad takes the weight t^{p(1-beta)-1} and the smooth rest
    G(t) t^{-p} (t/chord(t))^{1+beta p}, whose value at t = 0 is the
    trapezoid sum of |f'|^p.
    """
    expo = 1.0 + beta * p
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    base = np.stack([np.cos(th), np.sin(th)], axis=1)
    tang = np.stack([-base[:, 1], base[:, 0]], axis=1)
    f_base = f.value(base)
    speed = np.linalg.norm(np.einsum("nij,nj->ni", f.jacobian(base), tang),
                           axis=1)
    A = 2.0 * np.pi * (speed ** p).mean()

    def smooth(t):
        if t == 0.0:
            return A
        pts = np.stack([np.cos(th + t), np.sin(th + t)], axis=1)
        G = 2.0 * np.pi * (np.linalg.norm(f.value(pts) - f_base, axis=1)
                           ** p).mean()
        return G / t ** p * (t / (2.0 * np.sin(t / 2.0))) ** expo

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val = quad(smooth, 0.0, np.pi, weight="alg", wvar=(p - expo, 0.0),
                   limit=200, epsabs=0.0, epsrel=1e-10)[0]
    return (2.0 * val) ** (1.0 / p)


def isometry_sobolev_oracle(N: int, beta: float) -> float:
    """[f]_{W^{beta,N/beta}} of an isometry of S^N.

    |f(x) - f(y)| = |x - y| reduces the double integral to
    |S^N| |S^{N-1}| int_0^pi chord^{p(1-beta)-N} sin^{N-1} dpsi; quad takes
    the weight psi^{p(1-beta)-1} and the rest, written with sinc.
    """
    p = N / beta
    q = p * (1.0 - beta)
    val = quad(lambda t: np.sinc(t / (2.0 * np.pi)) ** (q - N)
               * np.sinc(t / np.pi) ** (N - 1), 0.0, np.pi, weight="alg",
               wvar=(q - 1.0, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return (SPHERE_VOLUMES[N] * SPHERE_VOLUMES[N - 1] * val) ** (1.0 / p)


def sin_mass(N: int, a):
    """int_0^a sin^{N-1} as 2^{N-1} B(N/2, N/2) I_x(N/2, N/2) with
    x = sin^2(a/2): the substitution x = sin^2(t/2) makes
    sin^{N-1} t dt = 2^{N-1} (x (1-x))^{N/2-1} dx."""
    h = 0.5 * N
    x = np.sin(0.5 * np.asarray(a)) ** 2
    return 2.0 ** (N - 1) * beta_fn(h, h) * betainc(h, h, x)


def counting(f):
    """f with a counter of the rows passed to its value."""
    rows = [0]

    def value(X):
        rows[0] += len(X)
        return f.value(X)

    return SmoothMap(f.domain_dim, f.target, value, f.jet, f.name), rows


# the four (beta, p) pairs of the S^1 honest-error tests: the circle
# acceptance sweep, the two oracle tests above, and the identity case
CIRCLE_EXPONENTS = [(0.9, 10.0 / 9.0), (0.3, 2.0), (0.62, 1.5), (0.5, 2.0)]


def circle_bmo_oracle(d: int, radii) -> float:
    """Direct two-level Gauss quadrature of the arc-pair double average."""
    from scipy.special import roots_legendre
    x, w = roots_legendre(48)
    best = 0.0
    f = make_circle_power(d)
    for r in radii:
        half = 2.0 * np.arcsin(min(1.0, r / 2.0))  # arc half-angle
        t = half * x                                # arc [-half, half]
        ww = w * half
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        vals = f.value(pts)
        diff = np.linalg.norm(vals[:, None, :] - vals[None, :, :], axis=2)
        avg = float((ww[:, None] * ww[None, :] * diff).sum()) / (2 * half) ** 2
        best = max(best, avg)
    return best


class TestSobolev:
    def test_identity_circle_exact_value(self):
        # beta = 1/2, p = 2 makes the integrand identically 1: value 2*pi
        est = sobolev_seminorm(make_circle_power(1), 0.5, 2.0)
        assert est.method == "tensor-quadrature"
        assert est.value == pytest.approx(2.0 * np.pi, rel=3e-4)
        assert abs(est.value - 2.0 * np.pi) <= est.error + 1e-9

    def test_tensor_matches_oracle_other_beta(self):
        for d, beta in ((1, 0.3), (2, 0.62)):
            p = 1.0 / beta
            est = sobolev_seminorm(make_circle_power(d), beta, p)
            oracle = circle_power_sobolev_oracle(d, beta, p)
            assert est.value == pytest.approx(oracle, rel=2e-3)

    def test_circle_sobolev_acceptance_exponents(self):
        # the exponents of the circle acceptance sweep
        beta, p = 0.9, 10.0 / 9.0
        for d in (1, 4, 8):
            est = sobolev_seminorm(make_circle_power(d), beta, p)
            oracle = circle_power_sobolev_oracle(d, beta, p)
            assert est.value == pytest.approx(oracle, rel=1e-6)
            assert abs(est.value - oracle) <= est.error

    @pytest.mark.parametrize("beta, p", CIRCLE_EXPONENTS)
    def test_circle_error_is_honest_over_the_sweep(self, beta, p):
        for d in range(1, 9):
            est = sobolev_seminorm(make_circle_power(d), beta, p)
            ref = circle_power_kink_oracle(d, beta, p)
            assert abs(est.value - ref) <= est.error, (d, est, ref)
            assert est.value == pytest.approx(ref, rel=1e-6)

    def test_circle_error_is_honest_for_a_folding_map(self):
        # the perturbation folds the circle back: f' passes through 0, so
        # |f'|^p is not smooth at p = 10/9 and the trapezoid rule in theta
        # converges slowly; the error must cover that too
        f = parse_map_spec("perturb:eps=0.19,m=12|circle-power:d=1")
        beta, p = 0.9, 10.0 / 9.0
        est = sobolev_seminorm(f, beta, p)
        # the estimator's own 2,048-angle rule, then a finer one
        same_rule = reduced_circle_integral(f, beta, p, 2048)
        assert abs(est.value - same_rule) <= est.error
        assert est.value == pytest.approx(same_rule, rel=1e-6)
        finer = reduced_circle_integral(f, beta, p, 8192)
        assert abs(est.value - finer) <= est.error

    def test_folding_map_row_budget(self):
        # the panels stop at a tenth of the 2,048- vs 1,024-angle change,
        # which more panels cannot reduce (the 128-panel cap made 7.4 M)
        f = parse_map_spec("perturb:eps=0.19,m=12|circle-power:d=1")
        assert sobolev_seminorm(f, 0.9, 10.0 / 9.0).samples <= 1_000_000

    @pytest.mark.parametrize("N, beta", [(2, 0.6), (3, 0.8), (3, 0.9)])
    def test_stratified_mc_matches_isometry_oracle(self, N, beta):
        est = sobolev_seminorm(make_antipodal(N), beta, N / beta,
                               samples=150_000, seed=1)
        oracle = isometry_sobolev_oracle(N, beta)
        assert abs(est.value - oracle) <= 3.0 * est.error

    def test_stratified_mc_is_unbiased_near_the_diagonal(self):
        # at beta = 0.9 about 7% of [f]^p lies below the last stratum;
        # over 12 seeds the mean z-score of a biased estimate drifts off 0
        beta, oracle = 0.9, isometry_sobolev_oracle(3, 0.9)
        z = [(est.value - oracle) / est.error
             for est in (sobolev_seminorm(make_antipodal(3), beta, 3 / beta,
                                          samples=150_000, seed=seed)
                         for seed in range(12))]
        assert abs(np.mean(z)) <= 0.5, z

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("k", [0, 11, 20])
    def test_angle_sampler_inverts_the_shell_mass(self, N, k):
        # shell k of the chord strata, [2 asin 2^-k-1, 2 asin 2^-k]
        lo, hi = 2.0 * np.arcsin(2.0 ** -(k + 1.0)), 2.0 * np.arcsin(2.0 ** -k)
        n = 20_000
        u = _rng(5, k).random(n)
        psi = _inverse_sin_mass(N, lo, hi, u)
        m_lo, m_hi = sin_mass(N, lo), sin_mass(N, hi)
        target = m_lo + u * (m_hi - m_lo)
        assert np.all((lo <= psi) & (psi <= hi))
        assert np.abs(sin_mass(N, psi) / target - 1.0).max() <= 1e-12
        cdf = lambda t: (sin_mass(N, t) - m_lo) / (m_hi - m_lo)
        assert stats.kstest(psi, cdf).pvalue > 0.01

    def test_s3_monte_carlo_row_budget(self):
        # one pass of 12 strata of samples // 12 pairs, two rows a pair
        for d in (2, 3):
            g, rows = counting(parse_map_spec(f"compose:suspension:d={d}|hopf"))
            est = sobolev_seminorm(g, 0.8, 3 / 0.8, samples=150_000, seed=11)
            assert est.samples == rows[0] == 300_000

    def test_samples_count_map_rows(self):
        for f, kw in ((make_circle_power(3), {}),
                      (parse_map_spec("compose:suspension:d=2|hopf"),
                       dict(samples=20_000, seed=11))):
            g, rows = counting(f)
            est = sobolev_seminorm(g, 0.8, f.domain_dim / 0.8, **kw)
            assert est.samples == rows[0] > 0
            assert est.value == sobolev_seminorm(f, 0.8, f.domain_dim / 0.8,
                                                 **kw).value

    def test_circle_sweep_evaluation_budget(self):
        # circle-power:d=1..8 at beta = 9/10 in at most 1.5 M map rows (the
        # fixed 2,048-angle rule made 11.4 M, the dyadic panel sum about 36 M)
        rows = sum(sobolev_seminorm(make_circle_power(d), 0.9, 10.0 / 9.0)
                   .samples for d in range(1, 9))
        assert rows <= 1_500_000

    def test_circle_angle_count_follows_the_jacobian_moment(self):
        # |f'| is constant on circle-power, so the first count resolves
        # it; the folding map keeps the cap and its rows
        for d in (1, 4, 8):
            est = sobolev_seminorm(make_circle_power(d), 0.9, 10.0 / 9.0)
            assert est.angles == 256
        f = parse_map_spec("perturb:eps=0.19,m=12|circle-power:d=1")
        est = sobolev_seminorm(f, 0.9, 10.0 / 9.0)
        assert (est.angles, est.samples) == (2048, 585_728)
        mc = sobolev_seminorm(make_antipodal(2), 0.6, 2 / 0.6, samples=1200)
        assert mc.angles is None

    @pytest.mark.parametrize("spec, beta, p, total, error", [
        ("circle-power:d=1", 0.5, 2.0,
         "0x1.3bd3cc9be5c35p+5", "0x1.921fe8a2f626ep-30"),
        ("suspension:d=2", 0.8, 2.5,
         "0x1.18604dd0a66bcp+9", "0x1.315387b3f65b9p+3"),
        ("compose:suspension:d=2|hopf", 0.8, 3.75,
         "0x1.33f164e8bf0cfp+13", "0x1.552c7f2f47c70p+8"),
    ], ids=["N=1", "N=2", "N=3"])
    def test_stratified_mc_pinned_bitwise(self, spec, beta, p, total, error):
        # the moment's row tasks share the strata's pool and are added in
        # row order; on S^1 the moment's directions are u = +-1
        t, err, rows = _sobolev_mc(parse_map_spec(spec), beta, p, 3000, 3)
        assert (float(t).hex(), float(err).hex(), rows) == (total, error,
                                                            6000)

    def test_moment_rules_built_once_per_dimension(self, monkeypatch):
        # the level-0 S^2 rule and the level-1 and level-0 S^1 rules, once
        builds = []
        build = seminorms.build_sphere_mesh
        monkeypatch.setattr(seminorms, "build_sphere_mesh", lambda *key: (
            builds.append(key) or build(*key)))
        _moment_rules.cache_clear()
        f = make_sphere_suspension(2)
        first = sobolev_seminorm(f, 0.5, 4.0, samples=1200)
        assert builds == [(2, 0), (1, 1), (1, 0)]
        second = sobolev_seminorm(f, 0.5, 4.0, samples=1200)
        assert len(builds) == 3 and second == first
        X, frames, wx, directions = _moment_rules(2)
        for arr in (X, frames, wx, *(a for rule in directions for a in rule)):
            assert not arr.flags.writeable

    def test_stratified_mc_matches_oracle(self):
        # the Monte Carlo on S^1, where production takes the tensor rule
        total, _, _ = _sobolev_mc(make_circle_power(1), 0.5, 2.0,
                                  10 ** 6, 3)
        oracle = circle_power_sobolev_oracle(1, 0.5, 2.0)
        assert abs(total ** 0.5 - oracle) / oracle < 0.01

    def test_constant_is_zero(self):
        est = sobolev_seminorm(make_constant(2), 0.5, 2.0, samples=2000)
        assert est.value == 0.0 and est.error == 0.0

    def test_beta_range(self):
        with pytest.raises(ValueError, match="beta"):
            sobolev_seminorm(make_circle_power(1), 1.2, 2.0)

    @pytest.mark.parametrize("spec", ["suspension:d=2", "circle-power:d=2"])
    @pytest.mark.parametrize("p", [np.nan, np.inf])
    def test_non_finite_p_named_before_sampling(self, spec, p):
        g, rows = counting(parse_map_spec(spec))
        with pytest.raises(ValueError, match=f"p must be finite, not {p!r}"):
            sobolev_seminorm(g, 0.5, p)
        assert rows[0] == 0

    def test_non_integer_samples_named(self):
        with pytest.raises(ValueError,
                           match="samples must be an integer, not 2000.0"):
            sobolev_seminorm(make_sphere_suspension(2), 0.5, 4.0,
                             samples=2000.0)

    def test_rotation_invariance_within_two_se(self):
        f = make_sphere_suspension(2)
        a = sobolev_seminorm(f, 0.6, 2 / 0.6, samples=120_000, seed=11)
        for k in range(3):
            Q = random_rotation(3, seed=20 + k)
            b = sobolev_seminorm(compose_with_isometry(f, Q), 0.6, 2 / 0.6,
                                 samples=120_000, seed=11)
            assert abs(a.value - b.value) <= 2.0 * (a.error + b.error)

    def test_determinism(self):
        f = make_sphere_suspension(2)
        a = sobolev_seminorm(f, 0.55, 2.0, samples=40_000, seed=9)
        b = sobolev_seminorm(f, 0.55, 2.0, samples=40_000, seed=9)
        assert a.value == b.value and a.error == b.error

    def test_monte_carlo_error_scaling(self):
        # standard error shrinks like 1/sqrt(n) within a factor 2 over 4x
        f = make_sphere_suspension(2)
        a = sobolev_seminorm(f, 0.45, 2.0, samples=50_000, seed=5)
        b = sobolev_seminorm(f, 0.45, 2.0, samples=200_000, seed=6)
        ratio = a.error / b.error
        assert 1.0 <= ratio <= 4.0

    def test_stratified_vs_plain_consistency(self):
        # the stratified estimator against plain Monte Carlo; [f] and its
        # error from [f]^2 = total as in sobolev_seminorm
        f = make_sphere_suspension(1)
        a = sobolev_seminorm(f, 0.3, 2.0, samples=200_000, seed=1)
        total, err = plain_sobolev_mc(f, 0.3, 2.0, 200_000, 2)
        b_value, b_error = total ** 0.5, err / (2.0 * total ** 0.5)
        assert a.method == "stratified-MC"
        assert abs(a.value - b_value) <= 3.0 * (a.error + b_error)

    def test_holder_compatibility(self):
        # a Lipschitz family has finite W^{beta', N/beta'} for beta' < 1:
        # estimates stay bounded under sample refinement
        f = make_sphere_suspension(2)
        vals = [sobolev_seminorm(f, 0.7, 2 / 0.7, samples=n, seed=3).value
                for n in (50_000, 200_000)]
        assert vals[1] < 1.5 * vals[0]


class TestHolder:
    def test_constant(self):
        est = holder_seminorm(make_constant(2), 0.5, samples=2000)
        assert est.value == 0.0

    def test_identity_s2_lipschitz(self):
        est = holder_seminorm(make_sphere_suspension(1), 1.0, samples=4000)
        assert est.value == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_circle_power_local_lipschitz(self, d):
        # chord-ratio sup sin(d t/2)/sin(t/2) -> d as pairs coalesce
        est = holder_seminorm(make_circle_power(d), 1.0, samples=20_000,
                              seed=2)
        assert est.value == pytest.approx(d, rel=0.02)
        assert est.value <= d + 1e-8     # lower bound, up to FP noise

    def test_beta_range(self):
        with pytest.raises(ValueError, match="beta"):
            holder_seminorm(make_circle_power(1), 1.5)

    def test_non_integer_samples_named(self):
        with pytest.raises(ValueError,
                           match="samples must be an integer, not 400.0"):
            holder_seminorm(make_circle_power(1), 0.5, samples=400.0)

    def test_samples_count_map_rows(self):
        # pair rows and refinement rows, as the Sobolev estimators count
        f = make_circle_power(3)
        g, rows = counting(f)
        est = holder_seminorm(g, 1.0, samples=20_000)
        assert est.samples == rows[0] > 20_000
        assert est.value == holder_seminorm(f, 1.0, samples=20_000).value

    @pytest.mark.parametrize("spec, beta, samples, seed, value, error, rows", [
        ("suspension:d=2", 0.5, 20_000, 4,
         "0x1.c1384d50c623cp+0", "0x1.4fbe400000000p-33", 43_968),
        ("hopf", 0.8, 2_000, 0,
         "0x1.c0d164c9054b7p+0", "0x1.7e0e000000000p-36", 12_974),
        ("compose:suspension:d=2|hopf", 1.0, 20_000, 3,
         "0x1.fffffffd3dbe9p+1", "0x1.1181b0d000000p-23", 44_044),
    ])
    def test_pinned_bitwise(self, spec, beta, samples, seed, value, error,
                            rows):
        # the ten best pairs climb in lockstep, each from its own stream
        # and by its own step scale, so the values stay these
        est = holder_seminorm(parse_map_spec(spec), beta, samples=samples,
                              seed=seed)
        assert (est.value.hex(), est.error.hex(), est.samples) == (
            value, error, rows)

    def test_one_map_call_per_refinement_step(self):
        f = parse_map_spec("suspension:d=2")
        calls = []
        g = SmoothMap(f.domain_dim, f.target,
                      lambda X: calls.append(1) or f.value(X), f.jet,
                      f.name)
        holder_seminorm(g, 0.5, samples=20_000, seed=4)
        assert len(calls) <= 2 * (1 + _REFINE_ITERS)

    def test_rotation_consistency(self):
        f = make_circle_power(3)
        Q = random_rotation(2, seed=4)
        a = holder_seminorm(f, 1.0, samples=20_000, seed=2)
        b = holder_seminorm(compose_with_isometry(f, Q), 1.0,
                            samples=20_000, seed=2)
        assert abs(a.value - b.value) / a.value < 0.02


class TestBMO:
    def test_constant(self):
        est = bmo_seminorm(make_constant(2), seed=1)
        assert est.value == 0.0

    def test_identity_circle_matches_arc_oracle(self):
        est = bmo_seminorm(make_circle_power(1), centers=32, cap_samples=192,
                           seed=4)
        oracle = circle_bmo_oracle(1, 2.0 * 2.0 ** -np.arange(9))
        assert est.value == pytest.approx(oracle, rel=0.02)

    def test_rotation_invariance(self):
        f = make_sphere_suspension(2)
        a = bmo_seminorm(f, seed=7)
        Q = random_rotation(3, seed=8)
        b = bmo_seminorm(compose_with_isometry(f, Q), seed=7)
        assert abs(a.value - b.value) <= 2.0 * (a.error + b.error)

    def test_perturbed_constant_linear_in_eps(self):
        vals = []
        for eps in (0.05, 0.1):
            f = make_oscillation_perturbation(make_constant(2), eps, 3)
            vals.append(bmo_seminorm(f, seed=5).value)
        assert vals[1] / vals[0] == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("spec, kw, value, error", [
        ("suspension:d=1", dict(seed=1),
         "0x1.56e364c32c336p+0", "0x1.6147d097f6e17p-9"),
        ("perturb:eps=0.02,m=3|const:n=2",
         dict(centers=48, cap_samples=96, seed=5),
         "0x1.c477f9521ee64p-6", "0x1.6ecc7bcdb0e59p-11"),
        # S^1, and S^3, where the Newton stop of each cap's angles
        # depends on that cap's own batch
        ("circle-power:d=3", dict(seed=2),
         "0x1.4816ca0764ef5p+0", "0x1.11d898abf982cp-9"),
        ("hopf", dict(centers=32, cap_samples=96, seed=2),
         "0x1.56da77b7cb6c3p+0", "0x1.925ffc5d5b549p-8"),
    ])
    def test_pinned_bitwise(self, spec, kw, value, error):
        # the pair distances sum their squared coordinates in the order
        # of np.linalg.norm over the last axis, so the values stay these
        est = bmo_seminorm(parse_map_spec(spec), **kw)
        assert type(est.value) is float and type(est.error) is float
        assert (est.value.hex(), est.error.hex()) == (value, error)
        assert est.angles is None

    @pytest.mark.parametrize("kw, message", [
        (dict(cap_samples=1), "cap_samples must be >= 2"),
        (dict(centers=0), "centers must be >= 1"),
        (dict(centers=8.0), "centers must be an integer, not 8.0"),
        (dict(cap_samples=16.5), "cap_samples must be an integer, not 16.5"),
    ], ids=["kw0-cap_samples must be >= 2", "kw1-centers must be >= 1",
            "kw6-centers must be an integer, not 8.0",     # stable ids
            "kw7-cap_samples must be an integer, not 16.5"])
    def test_bad_arguments_named(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            bmo_seminorm(make_sphere_suspension(1), **kw)


class TestPoissonExtension:
    def test_constant_reproduced(self):
        m = cached_mesh(2, 3)
        probes = np.array([[0.3, 0.1, 0.2], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
        out = poisson_extension_distance(make_constant(2), probes, m)
        assert max(d for _, d in out) < 1e-10

    def test_identity_at_center(self):
        m = cached_mesh(2, 3)
        out = poisson_extension_distance(make_sphere_suspension(1),
                                         np.zeros((1, 3)), m)
        assert out[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_probe_outside_ball(self):
        m = cached_mesh(2, 2)
        with pytest.raises(ValueError, match="unit ball"):
            poisson_extension_distance(make_constant(2),
                                       np.array([[1.0, 0.0, 0.0]]), m)

    def test_perturbed_constant_quadratic_law(self):
        # the first-order term cancels against a constant base, so the
        # extension distance scales like eps^2 and tracks BMO^2
        m = cached_mesh(2, 3)
        probes = np.array([[0.3, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.7]])
        dist, bmo = [], []
        for eps in (0.05, 0.1):
            f = make_oscillation_perturbation(make_constant(2), eps, 3)
            dist.append(max(d for _, d in
                            poisson_extension_distance(f, probes, m)))
            bmo.append(bmo_seminorm(f, seed=6).value)
        assert dist[1] / dist[0] == pytest.approx(4.0, rel=0.3)
        r0, r1 = dist[0] / bmo[0] ** 2, dist[1] / bmo[1] ** 2
        assert r1 / r0 == pytest.approx(1.0, abs=0.25)

"""Seminorm estimators against reduced-quadrature oracles and invariances."""

import numpy as np
import pytest
from scipy.integrate import quad

from quanthom.maps import (S2, compose_with_isometry, make_circle_power,
                           make_constant, make_hopf,
                           make_oscillation_perturbation,
                           make_sphere_suspension)
from quanthom.seminorms import (bmo_seminorm, holder_seminorm,
                                poisson_extension_distance, random_rotation,
                                sobolev_seminorm)

from conftest import cached_mesh


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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the S^1 Sobolev seminorm is 1.3-1.7% low at "
        "beta = 9/10, p = 10/9, and its error bar hides it"))
    def test_circle_sobolev_acceptance_exponents(self):
        # the exponents of the circle acceptance sweep
        beta, p = 0.9, 10.0 / 9.0
        for d in (1, 4, 8):
            est = sobolev_seminorm(make_circle_power(d), beta, p)
            oracle = circle_power_sobolev_oracle(d, beta, p)
            assert est.value == pytest.approx(oracle, rel=1e-6)
            assert abs(est.value - oracle) <= est.error

    def test_stratified_mc_matches_oracle(self):
        est = sobolev_seminorm(make_circle_power(1), 0.5, 2.0,
                               samples=10 ** 6, method="stratified-mc", seed=3)
        oracle = circle_power_sobolev_oracle(1, 0.5, 2.0)
        assert abs(est.value - oracle) / oracle < 0.01

    def test_constant_is_zero(self):
        est = sobolev_seminorm(make_constant(2, S2), 0.5, 2.0, samples=2000)
        assert est.value == 0.0 and est.error == 0.0

    def test_beta_range(self):
        with pytest.raises(ValueError, match="beta"):
            sobolev_seminorm(make_circle_power(1), 1.2, 2.0)

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
        f = make_sphere_suspension(1)
        a = sobolev_seminorm(f, 0.3, 2.0, samples=200_000, seed=1,
                             method="stratified-mc")
        b = sobolev_seminorm(f, 0.3, 2.0, samples=200_000, seed=2,
                             method="plain-mc")
        assert abs(a.value - b.value) <= 3.0 * (a.error + b.error)

    def test_holder_compatibility(self):
        # a Lipschitz family has finite W^{beta', N/beta'} for beta' < 1:
        # estimates stay bounded under sample refinement
        f = make_sphere_suspension(2)
        vals = [sobolev_seminorm(f, 0.7, 2 / 0.7, samples=n, seed=3).value
                for n in (50_000, 200_000)]
        assert vals[1] < 1.5 * vals[0]


class TestHolder:
    def test_constant(self):
        est = holder_seminorm(make_constant(2, S2), 0.5, samples=2000)
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

    def test_rotation_consistency(self):
        f = make_circle_power(3)
        Q = random_rotation(2, seed=4)
        a = holder_seminorm(f, 1.0, samples=20_000, seed=2)
        b = holder_seminorm(compose_with_isometry(f, Q), 1.0,
                            samples=20_000, seed=2)
        assert abs(a.value - b.value) / a.value < 0.02


class TestBMO:
    def test_constant(self):
        est = bmo_seminorm(make_constant(2, S2), seed=1)
        assert est.value == 0.0

    def test_identity_circle_matches_arc_oracle(self):
        radii = 2.0 * 2.0 ** -np.arange(6, dtype=float)
        est = bmo_seminorm(make_circle_power(1), radii=radii,
                           centers=32, cap_samples=192, seed=4)
        oracle = circle_bmo_oracle(1, radii)
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
            f = make_oscillation_perturbation(make_constant(2, S2), eps, 3)
            vals.append(bmo_seminorm(f, seed=5).value)
        assert vals[1] / vals[0] == pytest.approx(2.0, rel=0.15)


class TestPoissonExtension:
    def test_constant_reproduced(self):
        m = cached_mesh(2, 3)
        probes = np.array([[0.3, 0.1, 0.2], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
        out = poisson_extension_distance(make_constant(2, S2), probes, m)
        assert max(d for _, d in out) < 1e-10

    def test_identity_at_center(self):
        m = cached_mesh(2, 3)
        out = poisson_extension_distance(make_sphere_suspension(1),
                                         np.zeros((1, 3)), m)
        assert out[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_probe_outside_ball(self):
        m = cached_mesh(2, 2)
        with pytest.raises(ValueError, match="unit ball"):
            poisson_extension_distance(make_constant(2, S2),
                                       np.array([[1.0, 0.0, 0.0]]), m)

    def test_perturbed_constant_quadratic_law(self):
        # the first-order term cancels against a constant base, so the
        # extension distance scales like eps^2 and tracks BMO^2
        m = cached_mesh(2, 3)
        probes = np.array([[0.3, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.7]])
        dist, bmo = [], []
        for eps in (0.05, 0.1):
            f = make_oscillation_perturbation(make_constant(2, S2), eps, 3)
            dist.append(max(d for _, d in
                            poisson_extension_distance(f, probes, m)))
            bmo.append(bmo_seminorm(f, seed=6).value)
        assert dist[1] / dist[0] == pytest.approx(4.0, rel=0.3)
        r0, r1 = dist[0] / bmo[0] ** 2, dist[1] / bmo[1] ** 2
        assert r1 / r0 == pytest.approx(1.0, abs=0.25)

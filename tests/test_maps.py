"""Map families: values, Jacobians, pullbacks, perturbations, spec strings."""

import re

import numpy as np
import pytest

from quanthom.maps import (S1, S2, S2xS2, compose_with_isometry,
                           distance_to_target, jacobian_fd_error,
                           make_antipodal, make_circle_power, make_constant,
                           make_hopf, make_map_composition,
                           make_oscillation_perturbation, make_product_map,
                           make_reflection, make_sphere_suspension,
                           parse_map_spec, product_factor_form,
                           project_to_target, pullback, pullback_form,
                           target_distance_error, volume_form)

ALL_FAMILIES = [
    make_circle_power(0),
    make_circle_power(1),
    make_circle_power(-3),
    make_sphere_suspension(1),
    make_sphere_suspension(2),
    make_hopf(),
    make_antipodal(2),
    make_product_map(make_hopf(), make_constant(3, S2)),
    make_map_composition(make_sphere_suspension(2), make_hopf()),
    make_oscillation_perturbation(make_hopf(), 0.1, 3),
    make_oscillation_perturbation(make_circle_power(2), 0.1, 7),
]


@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
def test_values_on_target(f):
    assert target_distance_error(f, n_probes=1000, seed=0) < 1e-12


@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
def test_jacobian_finite_differences(f):
    assert jacobian_fd_error(f, n_probes=1000, seed=1) < 1e-6


class TestFamilies:
    def test_circle_power_values(self):
        f = make_circle_power(3)
        th = 0.7
        x = np.array([np.cos(th), np.sin(th)])
        y = f(x)
        assert np.allclose(y, [np.cos(3 * th), np.sin(3 * th)], atol=1e-15)

    def test_circle_power_zero_is_constant(self):
        f = make_circle_power(0)
        pts = np.random.default_rng(0).standard_normal((10, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vals = f.value(pts)
        assert np.abs(vals - vals[0]).max() < 1e-15
        assert np.abs(f.jacobian(pts)).max() < 1e-15

    def test_suspension_identity(self):
        f = make_sphere_suspension(1)
        pts = np.random.default_rng(1).standard_normal((20, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.abs(f.value(pts) - pts).max() < 1e-14

    def test_suspension_pointwise_volume_ratio(self):
        # the longitude speed is multiplied by d and the colatitude kept,
        # so f*(vol) = d * vol identically away from the poles
        d = 2
        f = make_sphere_suspension(d)
        om = volume_form(S2)
        fw = pullback_form(f, om)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((200, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        V = rng.standard_normal((200, 2, 3))
        V -= np.einsum("mkd,md->mk", V, X)[:, :, None] * X[:, None, :]
        ratio = fw(X, V) / om(X, V)
        assert np.abs(ratio - d).max() < 1e-10

    def test_hopf_fiber_over_north(self):
        f = make_hopf()
        t = np.linspace(0, 2 * np.pi, 50)
        fiber = np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=1)
        vals = f.value(fiber)
        assert np.abs(vals - np.array([1.0, 0.0, 0.0])).max() < 1e-12

    def test_product_blocks(self):
        f1, f2 = make_hopf(), make_constant(3, S2)
        prod = make_product_map(f1, f2)
        pts = np.random.default_rng(2).standard_normal((5, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        v = prod.value(pts)
        assert np.array_equal(v[:, :3], f1.value(pts))
        assert np.array_equal(v[:, 3:], f2.value(pts))

    def test_target_blocks(self):
        assert S2.blocks == (slice(0, 3),)
        assert S2xS2.blocks == (slice(0, 3), slice(3, 6))
        # the default constant sits at the first basis vector of each factor
        assert make_constant(3, S2xS2).value(np.eye(4)[:1]).tolist() == [
            [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]]
        y = np.array([[2.0, 0.0, 0.0, 0.0, 3.0, 0.0]])
        assert distance_to_target(y, S2xS2)[0] == np.sqrt(5.0)
        assert project_to_target(y, S2xS2).tolist() == [
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]]

    def test_product_domain_mismatch(self):
        with pytest.raises(ValueError, match="domain"):
            make_product_map(make_hopf(), make_constant(2, S2))

    def test_perturbation_eps_zero(self):
        f = make_hopf()
        g = make_oscillation_perturbation(f, 0.0, 5)
        pts = np.random.default_rng(3).standard_normal((10, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.abs(g.value(pts) - f.value(pts)).max() < 1e-14

    def test_perturbation_leaves_neighborhood(self):
        with pytest.raises(ValueError, match="leaves tubular neighborhood"):
            make_oscillation_perturbation(make_hopf(), 0.25, 3)


class TestPullback:
    def test_constant_map_vanishes(self):
        f = make_constant(2, S2)
        om = volume_form(S2)
        x = np.array([0.0, 0.0, 1.0])
        u, v = np.array([1.0, 0, 0]), np.array([0.0, 1, 0])
        assert pullback(f, om, x, u, v) == 0.0

    def test_identity_reproduces_volume(self):
        f = make_sphere_suspension(1)
        om = volume_form(S2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            direct = om(x[None], np.stack([u, v])[None])[0]
            assert pullback(f, om, x, u, v) == pytest.approx(direct, rel=1e-10)

    def test_degree_exceeds_domain(self):
        f = make_circle_power(2)
        om = volume_form(S2)
        with pytest.raises(ValueError, match="degree"):
            pullback(f, om, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_hopf_pullback_matches_finite_differences(self):
        f = make_hopf()
        om = volume_form(S2)
        fw = pullback_form(f, om)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((100, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        V = rng.standard_normal((100, 2, 4))
        V -= np.einsum("mkd,md->mk", V, X)[:, :, None] * X[:, None, :]
        exact = fw(X, V)
        h = 1e-5

        def fd_dir(x, v):
            a = (x + h * v) / np.linalg.norm(x + h * v)
            b = (x - h * v) / np.linalg.norm(x - h * v)
            return (f.value(a[None])[0] - f.value(b[None])[0]) / (2 * h)

        approx = np.empty(100)
        for i in range(100):
            W = np.stack([fd_dir(X[i], V[i, 0]), fd_dir(X[i], V[i, 1])])
            approx[i] = om(f.value(X[i][None]), W[None])[0]
        assert np.abs(exact - approx).max() < 1e-6 * max(1, np.abs(exact).max())

    def test_rotation_equivariance(self):
        # pullback under f∘R equals the pullback composed with R, pointwise
        f = make_hopf()
        om = volume_form(S2)
        from quanthom.seminorms import random_rotation
        Q = random_rotation(4, seed=6)
        fR = compose_with_isometry(f, Q)
        fw, fwR = pullback_form(f, om), pullback_form(fR, om)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        V = rng.standard_normal((50, 2, 4))
        V -= np.einsum("mkd,md->mk", V, X)[:, :, None] * X[:, None, :]
        lhs = fwR(X, V)
        rhs = fw(X @ Q.T, np.einsum("mkd,ed->mke", V, Q))
        assert np.abs(lhs - rhs).max() < 1e-12


class TestTargetForms:
    def test_volume_normalization_s2(self):
        from conftest import cached_mesh
        from quanthom.geometry import de_rham_project
        m = cached_mesh(2, 3)
        c = de_rham_project(volume_form(S2), m)
        assert abs(c.values.sum() - 1.0) < 1e-6

    def test_factor_forms_are_closed(self):
        # project the pullback under a generic product map; must be closed
        from conftest import cached_mesh
        from quanthom.geometry import de_rham_project
        from quanthom.hodge import hodge_operator
        m = cached_mesh(3, 1)
        f = make_product_map(make_hopf(),
                             make_map_composition(make_sphere_suspension(2),
                                                  make_hopf()))
        for i in (0, 1):
            om = product_factor_form(S2xS2, i)
            eta = de_rham_project(pullback_form(f, om), m, order=6)
            op = hodge_operator(m, 2)
            assert op.norm(eta.d()) / op.norm(eta) < 1e-4


class TestSpecStrings:
    @pytest.mark.parametrize("spec,name", [
        ("circle-power:d=3", "circle-power:d=3"),
        ("suspension:d=2", "suspension:d=2"),
        ("hopf", "hopf"),
        ("compose:suspension:d=2|hopf", "compose:suspension:d=2|hopf"),
        ("product:hopf,const", "product:hopf,const"),
        ("perturb:eps=0.1,m=7|hopf", "perturb:eps=0.1,m=7|hopf"),
    ])
    def test_roundtrip(self, spec, name):
        f = parse_map_spec(spec)
        assert f.name == name

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown map spec"):
            parse_map_spec("frobnicate:x=1")

    @pytest.mark.parametrize("spec,message", [
        ("circle-power:d=3,x=1", "unknown key 'x' in map spec 'circle-power:d=3,x=1'"),
        ("hopf:x=1", "unknown key 'x' in map spec 'hopf:x=1'"),
        ("perturb:eps=0.1,m=7,z=2|hopf",
         "unknown key 'z' in map spec 'perturb:eps=0.1,m=7,z=2|hopf'"),
        ("const:n=2,d=1", "unknown key 'd'"),
        ("circle-power:", "missing key 'd' in map spec 'circle-power:'"),
        ("suspension:n=2", "unknown key 'n'"),
        ("perturb:m=7|hopf", "missing key 'eps'"),
        ("circle-power:d=1,d=2", "repeated key 'd'"),
        ("antipodal:n", "parameter 'n' is not key=value"),
        ("compose:circle-power:d=2,y=0|circle-power:d=3", "unknown key 'y'"),
    ])
    def test_bad_keys_named(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_map_spec(spec)

    @pytest.mark.parametrize("spec,name", [
        ("antipodal:n=2", "antipodal"), ("const", "const"), ("hopf:", "hopf"),
        ("perturb:eps=0.05,m=3|const:n=2", "perturb:eps=0.05,m=3|const"),
        ("circle-power:d=-2", "circle-power:d=-2"),
    ])
    def test_optional_keys(self, spec, name):
        assert parse_map_spec(spec).name == name

    def test_composition_checks_domain(self):
        with pytest.raises(ValueError, match="mismatch"):
            make_map_composition(make_circle_power(2), make_hopf())


def test_reflection_distance():
    f = make_reflection(2)
    assert distance_to_target(f.value(np.array([[0.0, 0.0, 1.0]])), f.target)[0] < 1e-15

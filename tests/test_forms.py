"""de Rham projection, exterior derivative, Whitney forms, wedge integrals."""

import numpy as np
import pytest

from quanthom.geometry import (Cochain, FormField, SimplicialSphere,
                               build_sphere_mesh, de_rham_project,
                               exterior_derivative, integrate_wedge,
                               sphere_quadrature, whitney_interpolate,
                               whitney_values_on_frames)
from quanthom.maps import S2 as S2_target
from quanthom.maps import volume_form

from conftest import cached_mesh


def dtheta(points, frames):
    x, y = points[:, 0], points[:, 1]
    v = frames[:, 0, :]
    return (-y * v[:, 0] + x * v[:, 1]) / (x * x + y * y)


def linear_0form(a):
    a = np.asarray(a, dtype=float)
    return FormField(0, lambda p, f: p @ a)


def smooth_exact_1form(points, frames):
    # d of g(x) = x0 x1 + 0.3 x2 (ambient gradient (x1, x0, 0.3))
    v = frames[:, 0, :]
    return points[:, 1] * v[:, 0] + points[:, 0] * v[:, 1] + 0.3 * v[:, 2]


class TestExteriorDerivative:
    def test_constant_zero(self, mesh_s1):
        c = Cochain(mesh_s1, 0, np.ones(mesh_s1.n_simplices(0)))
        assert np.abs(c.d().values).max() == 0

    def test_dd_zero(self, mesh_s2, rng):
        # structurally d(d(.)) is the zero integer matrix; applying the two
        # coboundaries to float data in sequence leaves only roundoff
        prod = mesh_s2.coboundary(1) @ mesh_s2.coboundary(0)
        assert prod.nnz == 0 or abs(prod).max() == 0
        c = Cochain(mesh_s2, 0, rng.standard_normal(mesh_s2.n_simplices(0)))
        assert np.abs(c.d().d().values).max() < 1e-13

    def test_top_degree_errors(self, mesh_s2, rng):
        c = Cochain(mesh_s2, 2, rng.standard_normal(mesh_s2.n_simplices(2)))
        with pytest.raises(ValueError, match="top degree"):
            exterior_derivative(c)

    def test_winding_cochain(self):
        # projection of dtheta/2pi: closed, and the edge sum is the winding
        m = cached_mesh(1, 4)
        c = de_rham_project(FormField(1, lambda p, f: dtheta(p, f) / (2 * np.pi)), m)
        assert abs(c.values.sum() - 1.0) < 1e-14
        # top degree on S^1: d is undefined, closedness is the cycle sum
        ones = np.ones(m.n_simplices(1))
        assert np.abs(m.coboundary(0).T @ ones).max() == 0

    def test_length_mismatch(self, mesh_s2):
        with pytest.raises(ValueError, match="length"):
            Cochain(mesh_s2, 1, np.zeros(3))


class TestDeRhamProjection:
    def test_zero_form(self, mesh_s2):
        z = de_rham_project(FormField(1, lambda p, f: np.zeros(len(p))), mesh_s2)
        assert np.abs(z.values).max() == 0

    def test_octagon_arcs_exact(self):
        m = build_sphere_mesh(1, 0)
        c = de_rham_project(FormField(1, dtheta), m)
        assert np.abs(c.values - 2 * np.pi / 8).max() < 1e-14
        assert abs(c.values.sum() - 2 * np.pi) < 1e-13

    def test_volume_normalization(self):
        m = cached_mesh(2, 4)
        c = de_rham_project(volume_form(S2_target), m)
        assert abs(c.values.sum() - 1.0) < 1e-6

    def test_commutes_with_d(self):
        # projection of an exact form vs d of the projected potential
        m = cached_mesh(2, 3)
        g = FormField(0, lambda p, f: p[:, 0] * p[:, 1] + 0.3 * p[:, 2])
        lhs = de_rham_project(FormField(1, smooth_exact_1form), m, order=6)
        rhs = de_rham_project(g, m).d()
        assert np.abs(lhs.values - rhs.values).max() < 1e-8

    def test_orientation_reversal_flips_sign(self):
        # re-orientation round trip: swap two vertices of one stored top,
        # project the area form again
        m = build_sphere_mesh(2, 1)
        tops = m.simplices[2].copy()
        tops[7, [0, 1]] = tops[7, [1, 0]]
        m2 = SimplicialSphere(2, m.verts.copy(), tops, m.level)
        a = de_rham_project(volume_form(S2_target), m)
        b = de_rham_project(volume_form(S2_target), m2)
        assert b.values[7] == pytest.approx(-a.values[7], rel=1e-12)
        mask = np.ones(len(a.values), dtype=bool)
        mask[7] = False
        assert np.abs(a.values[mask] - b.values[mask]).max() < 1e-15


class TestWhitney:
    def test_zero_cochain(self, mesh_s2):
        z = Cochain.zeros(mesh_s2, 1)
        v = whitney_interpolate(z, np.array([0.0, 0.0, 1.0]),
                                np.array([[1.0, 0.0, 0.0]]))
        assert v == 0.0

    def test_linear_reproduction_at_barycenters(self, mesh_s2):
        a = np.array([0.3, -1.1, 0.7])
        c = de_rham_project(linear_0form(a), mesh_s2)
        bc = mesh_s2.top_points.mean(axis=1)
        vals = whitney_interpolate(c, bc)
        assert np.abs(vals - bc @ a).max() < 1e-13

    def test_constant_form_reproduction(self, mesh_s2):
        # flat projection of a constant-coefficient 1-form is reproduced
        # exactly inside every affine simplex
        w = np.array([0.2, 0.5, -0.3])
        c = de_rham_project(FormField(1, lambda p, f: f[:, 0, :] @ w),
                            mesh_s2, curved=False)
        idx = np.arange(mesh_s2.n_simplices(2))
        bary = np.full((len(idx), 3), 1.0 / 3.0)
        fr = mesh_s2.top_edges[:, :1, :]
        out = whitney_values_on_frames(c, idx, bary, fr)
        assert np.abs(out - fr[:, 0, :] @ w).max() < 1e-13

    def test_point_off_mesh(self, mesh_s2):
        c = Cochain.zeros(mesh_s2, 0)
        with pytest.raises(ValueError, match="point off mesh"):
            whitney_interpolate(c, np.zeros(3))

    def test_l2_convergence_rate(self):
        # first-order Whitney convergence, measured across levels 3,4,5
        errs = []
        for level in (3, 4, 5):
            m = cached_mesh(2, level)
            form = FormField(1, smooth_exact_1form)
            c = de_rham_project(form, m)
            # L2 error via quadrature on top simplices, frames = edges
            from quanthom.geometry.forms import _nodes_and_frames
            from quanthom.geometry.quadrature import simplex_rule
            bary, w = simplex_rule(2, 4)
            idx = np.repeat(np.arange(m.n_simplices(2)), len(w))
            lam = np.tile(bary, (m.n_simplices(2), 1))
            err2 = 0.0
            nodes, frames, _ = _nodes_and_frames(m, 2, 4, curved=True)
            flat_nodes = np.einsum("qj,tjd->tqd", bary, m.top_points)
            for e in range(2):
                fr_flat = np.repeat(m.top_edges[:, e:e + 1, :], len(w), axis=0)
                smooth = smooth_exact_1form(
                    nodes.reshape(-1, 3),
                    frames[:, :, e:e + 1, :].reshape(-1, 1, 3))
                interp = whitney_values_on_frames(c, idx, lam, fr_flat)
                # edge-component mismatch, weighted by areas
                areas = np.repeat(m.top_volumes, len(w))
                err2 += float((areas * np.tile(w, m.n_simplices(2))
                               * (smooth - interp) ** 2).sum())
            errs.append(np.sqrt(err2))
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(rates) >= 0.9


class TestWedge:
    def test_zero_factor(self, mesh_s2):
        z = FormField(1, lambda p, f: np.zeros(len(p)))
        a = FormField(1, lambda p, f: f[:, 0, 0])
        assert integrate_wedge([z, a], mesh_s2) == 0.0

    def test_volume_s3(self):
        m = cached_mesh(3, 2)
        from quanthom.maps import S3 as S3_target
        om = volume_form(S3_target)
        assert integrate_wedge([om], m) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("dim,level", [(1, 2), (2, 1), (3, 0)])
    def test_top_cochain_integrates_to_sum(self, dim, level, rng):
        # a top cochain's value is its Whitney form's integral over the
        # positively oriented top, whatever the stored vertex order
        m = cached_mesh(dim, level)
        v = rng.standard_normal(m.n_simplices(dim))
        assert integrate_wedge([Cochain(m, dim, v)], m) == pytest.approx(
            v.sum(), abs=1e-12)

    def test_antisymmetry(self, mesh_s2):
        a = FormField(1, lambda p, f: f[:, 0, 0] + 0.5 * p[:, 1] * f[:, 0, 2])
        b = FormField(1, lambda p, f: p[:, 2] * f[:, 0, 1] - 0.2 * f[:, 0, 0])
        w1 = integrate_wedge([a, b], mesh_s2)
        w2 = integrate_wedge([b, a], mesh_s2)
        assert w1 == -w2

    def test_degree_mismatch(self, mesh_s2):
        a = FormField(1, lambda p, f: f[:, 0, 0])
        with pytest.raises(ValueError, match="wedge degree != N"):
            integrate_wedge([a], mesh_s2)

    def test_whitney_factor_consistency(self):
        # wedge of an analytic 2-form with the Whitney interpolant of a
        # projected 1-form approximates the analytic pairing
        m = cached_mesh(2, 4)
        a2 = volume_form(S2_target)
        b1 = FormField(1, smooth_exact_1form)
        exact = 0.0  # volume ^ exact 1-form wedge is a 3-form: impossible;
        # instead pair two 1-forms
        c = de_rham_project(b1, m)
        other = FormField(1, lambda p, f: p[:, 2] * f[:, 0, 1] - p[:, 1] * f[:, 0, 2])
        mixed = integrate_wedge([other, c], m)
        analytic = integrate_wedge([other, b1], m)
        assert mixed == pytest.approx(analytic, abs=5e-3)


def test_sphere_quadrature_total_area():
    for dim, level in ((1, 4), (2, 3), (3, 1)):
        m = cached_mesh(dim, level)
        pts, wts = sphere_quadrature(m)
        from quanthom.geometry import SPHERE_VOLUMES
        assert wts.sum() == pytest.approx(SPHERE_VOLUMES[dim], rel=1e-4)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-14

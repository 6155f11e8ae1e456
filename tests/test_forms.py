"""de Rham projection, exterior derivative, Whitney forms, wedge integrals."""

import numpy as np
import pytest

from quanthom.geometry import (Cochain, FormField, SimplicialSphere,
                               build_sphere_mesh, de_rham_project,
                               exterior_derivative, integrate_wedge,
                               sphere_quadrature)
from quanthom.geometry.forms import (WEDGE_DEGREE, _nodes_and_frames,
                                     _whitney_edge_tensor)
from quanthom.geometry.quadrature import simplex_rule
from quanthom.maps import S2 as S2_target
from quanthom.maps import S2xS2, parse_map_spec, pullback_form, volume_form

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

    @pytest.mark.parametrize("spec,degree", [
        ("suspension:d=1", 1), ("suspension:d=-3", -3), ("antipodal:n=2", -1),
        ("perturb:eps=0.1,m=3|suspension:d=2", 2)])
    def test_solid_angles_sum_to_the_degree(self, spec, degree):
        # the images of the triangles of S^2 cover the target `degree`
        # times, so their solid angles sum to it to round-off, where
        # quadrature is off by 1e-6 at level 4 (test_volume_normalization)
        omega = pullback_form(parse_map_spec(spec), volume_form(S2_target))
        c = de_rham_project(omega, cached_mesh(2, 3), "solid_angle")
        assert abs(c.values.sum() - degree) < 1e-13

    def test_solid_angles_of_a_product_factor(self):
        # on S^2 x S^2 the rule reads the images in the factor's coordinates
        f = parse_map_spec("product:hopf|compose:suspension:d=2|hopf")
        m = cached_mesh(3, 1)
        for i, spec in enumerate(("hopf", "compose:suspension:d=2|hopf")):
            factor = de_rham_project(pullback_form(f, volume_form(S2xS2, i)),
                                     m, "solid_angle")
            alone = de_rham_project(pullback_form(parse_map_spec(spec),
                                                  volume_form(S2_target)),
                                    m, "solid_angle")
            assert np.array_equal(factor.values, alone.values)

    def test_commutes_with_d(self):
        # projection of an exact form vs d of the projected potential
        m = cached_mesh(2, 3)
        g = FormField(0, lambda p, f: p[:, 0] * p[:, 1] + 0.3 * p[:, 2])
        lhs = de_rham_project(FormField(1, smooth_exact_1form), m)
        rhs = de_rham_project(g, m).d()
        assert np.abs(lhs.values - rhs.values).max() < 1e-8

    def test_reversed_top_is_reoriented(self):
        # swapping two vertices of one stored top turns it inward; the
        # constructor turns it outward again, as a cyclic rotation of the
        # stored row, and the area form projects as before
        m = build_sphere_mesh(2, 1)
        tops = m.simplices[2].copy()
        tops[7, [0, 1]] = tops[7, [1, 0]]
        m2 = SimplicialSphere(2, m.verts.copy(), tops, m.level)
        assert np.array_equal(m2.simplices[2][7], np.roll(m.simplices[2][7], -1))
        assert np.linalg.det(m2.top_points[7]) > 0
        a = de_rham_project(volume_form(S2_target), m)
        b = de_rham_project(volume_form(S2_target), m2)
        assert b.values[7] == pytest.approx(a.values[7], rel=1e-15)
        mask = np.ones(len(a.values), dtype=bool)
        mask[7] = False
        assert np.abs(a.values[mask] - b.values[mask]).max() < 1e-15


def whitney_on_edges(c):
    """The Whitney form of c at the wedge nodes of every top, on the
    k-subsets of the top's edge vectors: (tops, nodes, subsets)."""
    mesh, k = c.mesh, c.degree
    W = _whitney_edge_tensor(mesh.dim, k, WEDGE_DEGREE)
    coef = c.values[mesh.top_faces[k]] * mesh.top_face_parity[k]
    vals = coef @ W.reshape(len(W), -1)
    return vals.reshape(-1, *W.shape[1:])


class TestWhitney:
    def test_zero_cochain(self, mesh_s2):
        z = Cochain.zeros(mesh_s2, 1)
        assert (whitney_on_edges(z) == 0.0).all()

    def test_linear_reproduction_at_barycenters(self, mesh_s2):
        # at the wedge nodes, the barycenter first among them
        a = np.array([0.3, -1.1, 0.7])
        c = de_rham_project(linear_0form(a), mesh_s2)
        bary, _ = simplex_rule(2, WEDGE_DEGREE)
        assert np.allclose(bary[0], 1.0 / 3.0)
        nodes = np.einsum("qj,tjd->tqd", bary, mesh_s2.top_points)
        vals = whitney_on_edges(c)[:, :, 0]
        assert np.abs(vals - nodes @ a).max() < 1e-13

    def test_constant_form_reproduction(self, mesh_s2):
        # the flat cochain of a constant-coefficient 1-form, each edge
        # vector . w, is reproduced exactly inside every affine simplex
        w = np.array([0.2, 0.5, -0.3])
        ends = mesh_s2.verts[mesh_s2.simplices[1]]
        c = Cochain(mesh_s2, 1, (ends[:, 1] - ends[:, 0]) @ w)
        pts = mesh_s2.top_points
        edges_w = (pts[:, 1:, :] - pts[:, :1, :]) @ w       # (tops, 2)
        out = whitney_on_edges(c)                           # (tops, q, 2)
        assert np.abs(out - edges_w[:, None, :]).max() < 1e-13

    def test_l2_convergence_rate(self):
        # first-order Whitney convergence, measured across levels 3,4,5
        errs = []
        for level in (3, 4, 5):
            m = cached_mesh(2, level)
            form = FormField(1, smooth_exact_1form)
            c = de_rham_project(form, m)
            # L2 error via quadrature on top simplices, frames = edges
            bary, w = simplex_rule(2, WEDGE_DEGREE)
            nodes, frames = _nodes_and_frames(m, bary, slice(None))
            interp = whitney_on_edges(c)
            err2 = 0.0
            for e in range(2):
                smooth = smooth_exact_1form(
                    nodes.reshape(-1, 3),
                    frames[:, :, e:e + 1, :].reshape(-1, 1, 3))
                # edge-component mismatch, weighted by areas
                areas = np.repeat(m.top_volumes, len(w))
                err2 += float((areas * np.tile(w, m.n_simplices(2))
                               * (smooth - interp[:, :, e].ravel()) ** 2).sum())
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


@pytest.mark.parametrize("dim, level", [(2, 2), (3, 1)])
def test_curved_frames_are_dP_of_the_edges(dim, level):
    # each curved frame vector is dP(x) e for P(x) = x/|x| at the flat node
    # x and an edge e of the simplex: it matches central differences of P
    # along e and is tangent to the sphere at P(x)
    def P(x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    m = cached_mesh(dim, level)
    h = 1e-5
    for k in range(1, dim + 1):
        pts = m.verts[m.simplices[k]]                   # (n, k+1, dim+1)
        bary = simplex_rule(k, 5)[0]
        flat = bary @ pts                               # (n, q, dim+1)
        nodes, frames = _nodes_and_frames(m, bary, slice(None))
        assert frames.shape == flat.shape[:2] + (k, dim + 1)
        assert np.array_equal(nodes, P(flat))
        for i in range(k):
            e = (pts[:, i + 1] - pts[:, 0])[:, None, :]
            fd = (P(flat + h * e) - P(flat - h * e)) / (2 * h)
            assert np.abs(frames[:, :, i] - fd).max() < 1e-9
        tangent = np.einsum("nqd,nqkd->nqk", nodes, frames)
        assert np.abs(tangent).max() <= 1e-14

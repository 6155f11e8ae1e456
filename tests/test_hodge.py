"""Mass matrices, codifferential, and the antiderivative contract."""

import gc
import tracemalloc
import weakref
from math import factorial

import numpy as np
import pytest
from scipy import sparse

from quanthom import hodge
from quanthom.geometry import (Cochain, FormField, build_sphere_mesh,
                               de_rham_project)
from quanthom.hodge import (HodgeOperator, _jacobi_cg, codifferential,
                            d_inverse, hodge_operator, mass_matrix)

from conftest import cached_mesh
from helpers import raw_hopf_wedge, whitney_mass_local


def exact_1form(points, frames):
    v = frames[:, 0, :]
    return points[:, 1] * v[:, 0] + points[:, 0] * v[:, 1] + 0.3 * v[:, 2]


class TestMassMatrices:
    def test_local_against_hand_computation(self):
        # Unit right triangle (0,0), (1,0), (0,1): grad(l0) = (-1,-1),
        # grad(l1) = (1,0), grad(l2) = (0,1), area 1/2, and
        # int l_i l_j = (1 + delta_ij)/24.  Expanding
        # W_(ab) = l_a d(l_b) - l_b d(l_a) termwise gives
        #   M[(01),(01)] = 1/12 + 1/12 + 2/12          = 1/3
        #   M[(01),(02)] = 0 + 1/24 + 1/24 + 2/24      = 1/6
        #   M[(01),(12)] = 0 - 1/24 + 2/24 - 1/24      = 0
        #   M[(02),(02)] = 1/12 + 1/12 + 2/12          = 1/3
        #   M[(02),(12)] = 1/24 - 0 + 1/24 - 2/24      = 0
        #   M[(12),(12)] = 1/12 + 0 + 1/12             = 1/6
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        hand = np.array([[1 / 3, 1 / 6, 0.0],
                         [1 / 6, 1 / 3, 0.0],
                         [0.0, 0.0, 1 / 6]])
        assert np.abs(whitney_mass_local(tri, 1) - hand).max() < 1e-14

    def test_local_p1(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        hand = 0.5 * (1.0 + np.eye(3)) / 12.0
        assert np.abs(whitney_mass_local(tri, 0) - hand).max() < 1e-15

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_spd(self, mesh_s2, k):
        M = mass_matrix(mesh_s2, k)
        assert abs(M - M.T).max() < 1e-14
        np.linalg.cholesky(M.toarray())       # raises unless positive definite

    @pytest.mark.parametrize("dim,level,k", [(2, 3, 0), (2, 3, 1), (2, 3, 2),
                                             (3, 1, 1), (3, 1, 2)])
    def test_mass_solve_matches_dense(self, dim, level, k, rng):
        M = mass_matrix(cached_mesh(dim, level), k)
        b = rng.standard_normal(M.shape[0])
        x = _jacobi_cg(M, b, rtol=1e-13)[0]   # d*'s mass solve
        ref = np.linalg.solve(M.toarray(), b)
        assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dim,level,k", [(2, 1, k) for k in range(3)]
                             + [(3, 0, k) for k in range(4)])
    def test_assembly_matches_dense_reference(self, dim, level, k):
        # each top's local block, signed by its face parities, added into
        # the rows and columns of its k-faces
        m = cached_mesh(dim, level)
        n = m.n_simplices(k)
        ref = np.zeros((n, n))
        for t, pts in enumerate(m.top_points):
            faces, par = m.top_faces[k][t], m.top_face_parity[k][t]
            ref[np.ix_(faces, faces)] += (np.outer(par, par)
                                          * whitney_mass_local(pts, k))
        M = mass_matrix(m, k).toarray()
        assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("dim,level", [(2, 3), (3, 1)])
    def test_top_mass_is_inverse_volume(self, dim, level):
        # the one Whitney N-form of a top is 1/vol on it and 0 elsewhere
        m = cached_mesh(dim, level)
        pts = m.top_points
        edges = pts[:, 1:] - pts[:, :1]
        vol = (np.sqrt(np.linalg.det(edges @ np.swapaxes(edges, 1, 2)))
               / factorial(dim))
        M = mass_matrix(m, dim)
        assert np.array_equal(M.indptr, np.arange(len(vol) + 1))
        assert np.array_equal(M.indices, np.arange(len(vol)))
        assert np.abs(M.data * vol - 1.0).max() < 1e-14

    def test_assembly_transient_memory(self):
        # the scatter holds the signed local blocks and their int32 rows
        # and columns (16 bytes per local entry) while the COO to CSR
        # conversion copies them to int32 columns and data (12 bytes per
        # local entry) before it sums the duplicates.  At S^3 level 3,
        # k = 1, there are 1.9 local entries per matrix entry, so the peak
        # is about 28 x 1.9 / 12 = 4.4 times the matrix.
        m = cached_mesh(3, 3)
        mass_matrix(m, 1)                     # coefficient tables cached
        tracemalloc.start()
        try:
            M = mass_matrix(m, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
        assert peak < 5 * result

    @pytest.mark.parametrize("k", range(4))
    def test_mass_matrix_owns_its_entries(self, k):
        # no view into the COO-sized buffers of the conversion
        M = mass_matrix(cached_mesh(3, 1), k)
        assert M.data.base is None and M.indices.base is None
        assert len(M.data) == len(M.indices) == M.nnz

    def test_circle_edge_mass_is_inverse_length(self, mesh_s1):
        M = mass_matrix(mesh_s1, 1).toarray()
        e = mesh_s1.simplices[1]
        lengths = np.linalg.norm(mesh_s1.verts[e[:, 0]] - mesh_s1.verts[e[:, 1]],
                                 axis=1)
        assert np.abs(np.diag(M) - 1.0 / lengths).max() < 1e-13
        assert np.abs(M - np.diag(np.diag(M))).max() < 1e-13


class TestOperatorOwnership:
    def test_repeat_calls_share_operator(self, mesh_s2):
        assert hodge_operator(mesh_s2, 1) is hodge_operator(mesh_s2, 1)

    def test_meshes_get_distinct_operators(self):
        a, b = build_sphere_mesh(2, 1), build_sphere_mesh(2, 1)
        assert hodge_operator(a, 1) is not hodge_operator(b, 1)

    def test_one_operator_per_degree(self):
        m = build_sphere_mesh(2, 1)
        ops = [hodge_operator(m, k) for k in range(3)]
        d_inverse(Cochain(m, 0, np.arange(m.n_simplices(0), dtype=float)).d())
        codifferential(Cochain.zeros(m, 2))
        assert list(m.operators) == [0, 1, 2]
        assert [m.operators[k] for k in range(3)] == ops
        assert [op.k for op in ops] == [0, 1, 2]

    def test_operator_dies_with_its_mesh(self):
        m = build_sphere_mesh(2, 1)
        ref = weakref.ref(hodge_operator(m, 1))
        del m
        gc.collect()
        assert ref() is None

    def test_mesh_freed_without_cycle_collection(self):
        # an operator holds no reference back to its mesh, so dropping
        # the mesh frees it and its operators at once
        m = build_sphere_mesh(2, 1)
        ref = weakref.ref(hodge_operator(m, 1))
        gc.disable()
        try:
            del m
            assert ref() is None
        finally:
            gc.enable()


class TestLeanOperator:
    """What d^{-1} reads in place of M_{k-1}, against the assembled M_{k-1}."""

    MESHES = [(2, 3, 1), (3, 1, 2), (3, 2, 2)]

    @pytest.mark.parametrize("dim,level,k", MESHES)
    def test_gauge_matches_assembled_reference(self, dim, level, k):
        m = cached_mesh(dim, level)
        op = HodgeOperator(m, k)
        Z = op.gauge_basis
        ref = (Z.T @ mass_matrix(m, k - 1) @ Z).tocsr()
        G = op.gauge
        G.sort_indices()
        ref.sort_indices()
        assert np.array_equal(G.indptr, ref.indptr)
        assert np.array_equal(G.indices, ref.indices)
        assert (np.abs(G.data - ref.data).max()
                <= 1e-14 * np.abs(ref.data).max())

    @pytest.mark.parametrize("dim,level,k", MESHES)
    def test_top_local_mass_product(self, dim, level, k, rng):
        m = cached_mesh(dim, level)
        x = rng.standard_normal(m.n_simplices(k - 1))
        ref = mass_matrix(m, k - 1) @ x
        got = hodge._mass_product(m, k - 1, x)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_d_inverse_assembles_degrees_k_and_k_plus_1(self, monkeypatch):
        # degree-2 d^{-1} reads M_2 (curl) and M_3 (closedness), never M_1
        called = []
        mass = hodge.mass_matrix
        monkeypatch.setattr(hodge, "mass_matrix", lambda mesh, k: (
            called.append(k) or mass(mesh, k)))
        m = build_sphere_mesh(3, 1)
        u = np.random.default_rng(5).standard_normal(m.n_simplices(1))
        d_inverse(Cochain(m, 1, u).d())
        assert sorted(called) == [2, 3]

    @pytest.mark.parametrize("k", range(4))
    def test_operator_holds_only_matrices(self, k):
        # no mesh arrays, views or lazily built state: sparse matrices,
        # the degree and the None of a missing M_{k+1}
        op = HodgeOperator(cached_mesh(3, 1), k)
        assert all(sparse.issparse(v) or v is None or type(v) is int
                   for v in vars(op).values()), vars(op)

    def test_norm_of_a_degree_not_held(self):
        m = cached_mesh(3, 0)
        with pytest.raises(ValueError, match="degree 3 in the operator of "
                                             "degree k = 1"):
            hodge_operator(m, 1).norm(Cochain.zeros(m, 3))
        with pytest.raises(ValueError, match=r"degrees k and k\+1"):
            hodge_operator(m, 1).norm(Cochain.zeros(m, 0))


class TestCodifferential:
    def test_zero(self, mesh_s2):
        z = Cochain.zeros(mesh_s2, 1)
        assert np.abs(codifferential(z).values).max() == 0

    def test_degree_zero_errors(self, mesh_s2):
        c = Cochain.zeros(mesh_s2, 0)
        with pytest.raises(ValueError, match="no codifferential"):
            codifferential(c)

    def test_adjoint_identity(self, mesh_s2, rng):
        # <d*c, u>_{M0} = <c, du>_{M1} by construction
        op = HodgeOperator(mesh_s2, 1)
        c = Cochain(mesh_s2, 1, rng.standard_normal(mesh_s2.n_simplices(1)))
        u = Cochain(mesh_s2, 0, rng.standard_normal(mesh_s2.n_simplices(0)))
        lhs = codifferential(c).values @ (mass_matrix(mesh_s2, 0) @ u.values)
        rhs = c.values @ (op.mass_k @ u.d().values)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_laplacian_composition_on_circle(self, mesh_s1, rng):
        # d* d u is the weighted graph Laplacian: M0 (d*du) = D^T M1 D u
        u = rng.standard_normal(mesh_s1.n_simplices(0))
        uc = Cochain(mesh_s1, 0, u)
        dstar = codifferential(uc.d())
        op = HodgeOperator(mesh_s1, 1)
        D = mesh_s1.coboundary(0)
        lhs = mass_matrix(mesh_s1, 0) @ dstar.values
        rhs = D.T @ (op.mass_k @ (D @ u))
        assert np.abs(lhs - rhs).max() < 1e-10


class TestDInverse:
    def test_zero_input(self, mesh_s2):
        z = Cochain.zeros(mesh_s2, 1)
        out, stats = d_inverse(z)
        assert np.abs(out.values).max() == 0
        assert stats == {"iterations": 0, "residual": 0.0,
                         "gauge_iterations": 0, "gauge_residual": 0.0,
                         "closedness": 0.0}

    def test_statistics_belong_to_each_call(self):
        # one shared operator, two inputs: an exactly closed 2-cochain and
        # a projection that is closed only to quadrature accuracy
        from quanthom.maps import S2 as tgt
        from quanthom.maps import make_hopf, pullback_form, volume_form
        m = cached_mesh(3, 1)
        rng = np.random.default_rng(3)
        exact = Cochain(m, 1, rng.standard_normal(m.n_simplices(1))).d()
        hopf = de_rham_project(pullback_form(make_hopf(), volume_form(tgt)), m)
        _, s_exact = d_inverse(exact)
        _, s_hopf = d_inverse(hopf)
        op = hodge_operator(m, 2)
        assert s_hopf["closedness"] == pytest.approx(
            op.norm(hopf.d()) / op.norm(hopf), rel=1e-12)
        assert s_exact["closedness"] < 1e-12 < s_hopf["closedness"]
        assert s_exact["iterations"] != s_hopf["iterations"]
        assert d_inverse(exact)[1] == s_exact

    def test_roundtrip_exactness(self, mesh_s2):
        g = FormField(0, lambda p, f: np.sin(p[:, 0]) * p[:, 1] + 0.2 * p[:, 2] ** 2)
        eta = de_rham_project(g, mesh_s2).d()     # exactly closed
        xi, _ = d_inverse(eta)
        op = hodge_operator(mesh_s2, 1)
        assert op.norm(xi.d() - eta) / op.norm(eta) < 1e-6

    def test_coexactness(self):
        # d*(d^{-1} eta) vanishes to gauge-solve tolerance
        m = cached_mesh(3, 1)
        from quanthom.maps import S2 as tgt
        from quanthom.maps import make_hopf, pullback_form, volume_form
        eta = de_rham_project(pullback_form(make_hopf(), volume_form(tgt)), m)
        xi, _ = d_inverse(eta)
        op2 = hodge_operator(m, 2)
        assert np.abs(codifferential(xi).values).max() < 1e-10
        assert op2.norm(xi.d() - eta) / op2.norm(eta) < 1e-4

    def test_linearity(self, mesh_s2):
        g1 = FormField(0, lambda p, f: p[:, 0] * p[:, 1])
        g2 = FormField(0, lambda p, f: p[:, 2] ** 3)
        e1 = de_rham_project(g1, mesh_s2).d()
        e2 = de_rham_project(g2, mesh_s2).d()
        a, b = 2.5, -1.25
        lhs, _ = d_inverse(a * e1 + b * e2)
        rhs = a * d_inverse(e1)[0] + b * d_inverse(e2)[0]
        op = hodge_operator(mesh_s2, 0)
        denom = max(op.norm(lhs), 1e-30)
        assert op.norm(lhs - rhs) / denom < 1e-6

    def test_determinism(self, mesh_s2):
        g = FormField(0, lambda p, f: p[:, 0] ** 2 * p[:, 1])
        eta = de_rham_project(g, mesh_s2).d()
        a, _ = d_inverse(eta)
        b, _ = d_inverse(eta)
        assert np.array_equal(a.values, b.values)

    def test_not_closed_rejected(self, mesh_s2, rng):
        eta = Cochain(mesh_s2, 1, rng.standard_normal(mesh_s2.n_simplices(1)))
        with pytest.raises(ValueError, match="input not closed"):
            d_inverse(eta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, mesh_s2, bad):
        # refused by name before the closedness gate, whose comparison a
        # NaN defect would pass, and before any CG step
        g = FormField(0, lambda p, f: p[:, 0] ** 2 * p[:, 1])
        eta = de_rham_project(g, mesh_s2).d()
        eta.values[5] = bad
        with pytest.raises(ValueError, match="input not finite: 1 of"):
            d_inverse(eta)

    def test_degree_range(self, mesh_s2, rng):
        c = Cochain(mesh_s2, 2, rng.standard_normal(mesh_s2.n_simplices(2)))
        with pytest.raises(ValueError, match="degree"):
            d_inverse(c)

    def test_curl_matrix_symmetric_semidefinite(self, mesh_s2):
        K = HodgeOperator(mesh_s2, 1).curl.toarray()
        assert np.abs(K - K.T).max() < 1e-14 * np.abs(K).max()
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-12 * eig.max()

    @pytest.mark.parametrize("dim,level", [(2, 2), (3, 1)])
    def test_matches_dense_reference(self, dim, level, rng):
        # the M_{k-1}-coexact least-squares solution of D xi = eta: with
        # Cholesky factors M = L L^T it is L_{k-1}^{-T} y for the
        # minimum-norm least-squares y of (L_k^T D L_{k-1}^{-T}) y = L_k^T eta
        m = cached_mesh(dim, level)
        if dim == 2:                      # exactly closed, random gauge
            u = rng.standard_normal(m.n_simplices(0))
            eta = Cochain(m, 0, u).d()
        else:                             # closed only up to projection
            from quanthom.maps import S2 as tgt
            from quanthom.maps import make_hopf, pullback_form, volume_form
            eta = de_rham_project(pullback_form(make_hopf(), volume_form(tgt)),
                                  m)
        xi = d_inverse(eta)[0].values
        op = hodge_operator(m, eta.degree)
        D = m.coboundary(eta.degree - 1).toarray().astype(float)
        Lk = np.linalg.cholesky(op.mass_k.toarray())
        Md = mass_matrix(m, eta.degree - 1).toarray()
        inv_t = np.linalg.inv(np.linalg.cholesky(Md).T)
        y = np.linalg.lstsq(Lk.T @ D @ inv_t, Lk.T @ eta.values,
                            rcond=1e-10)[0]
        err = xi - inv_t @ y
        assert np.sqrt(err @ Md @ err) <= 1e-8 * np.sqrt(xi @ Md @ xi)
        if dim == 2:
            w = Md.sum(axis=1)
            assert abs(w @ xi) <= 1e-12 * np.sqrt(w.sum() * (xi @ Md @ xi))

    @pytest.mark.parametrize("level,value,steps", [
        (1, "0x1.e5d13bd6b0f58p-1", (35, 15)),
        (2, "0x1.f956f76e64bf5p-1", (78, 40))])
    def test_hopf_bits_pinned(self, level, value, steps):
        # a drift guard for the Hodge layer: these bits and CG step counts
        # read the same with BLAS on one thread and on its default count;
        # the uncorrected degree-5 wedge on xi pins the projection and the
        # solve apart from the corrected estimate
        raw, stats = raw_hopf_wedge(build_sphere_mesh(3, level))
        assert raw.hex() == value
        assert (stats["iterations"], stats["gauge_iterations"]) == steps

    def test_hopf_pullback_residual_decreases(self, monkeypatch):
        from quanthom.maps import S2 as tgt
        from quanthom.maps import make_hopf, pullback_form, volume_form
        # the level-0 projection's closedness defect needs a looser gate
        monkeypatch.setattr(hodge, "CLOSED_TOL", 1e-2)
        fw = pullback_form(make_hopf(), volume_form(tgt))
        res = []
        for level in (0, 1):
            m = cached_mesh(3, level)
            eta = de_rham_project(fw, m)
            xi, _ = d_inverse(eta)
            op = hodge_operator(m, 2)
            res.append(op.norm(xi.d() - eta) / op.norm(eta))
        assert res[1] < res[0]

"""Meshes, boundary operators, quadrature, and the mesh file format."""

import hashlib
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quanthom.geometry import SPHERE_VOLUMES, SimplicialSphere, build_sphere_mesh
from quanthom.geometry.quadrature import rule_info, simplex_rule

from conftest import cached_mesh


def exact_monomial(dim, alphas):
    from math import factorial
    num = 1
    for a in alphas:
        num *= factorial(a)
    return num / factorial(dim + sum(alphas))


def _tet_orbits(p):
    """(barycentric node, weight) of the S31 orbits (a, a, a, 1-3a) and
    the S22 orbit (b, b, 1/2-b, 1/2-b) of p = (a1, w1, a2, w2, b, w3)."""
    a1, w1, a2, w2, b, w3 = p
    out = [([a] * i + [1 - 3 * a] + [a] * (3 - i), w)
           for a, w in ((a1, w1), (a2, w2)) for i in range(4)]
    for i, j in combinations(range(4), 2):
        node = [Fraction(1, 2) - b] * 4
        node[i] = node[j] = b
        out.append((node, w3))
    return out


def _triangle_orbits(p):
    """(barycentric node, weight) of the cyclic shifts of (a, b, 1-a-b)
    for p = (a1, b1, w1, .., a4, b4, w4)."""
    p = list(p)
    out = []
    for a, b, w in zip(p[0::3], p[1::3], p[2::3]):
        g = [a, b, 1 - a - b]
        out += [(g[i:] + g[:i], w) for i in range(3)]
    return out


def _moment_residual(expand, dim, degree, p):
    """Rule over exact integral, minus 1, of every monomial in the last
    `dim` barycentric coordinates up to `degree`; exact for Fractions."""
    nodes = expand(p)
    out = []
    for alphas in product(range(degree + 1), repeat=dim):
        if sum(alphas) <= degree:
            exact = Fraction(prod(map(factorial, alphas)) * factorial(dim),
                             factorial(dim + sum(alphas)))
            out.append(sum(w * prod(x ** a for x, a in zip(node[1:], alphas))
                           for node, w in nodes) / exact - 1)
    return out


class TestQuadrature:
    @pytest.mark.parametrize("degree,dim", [
        (1, 1), (3, 1), (5, 1), (7, 1), (5, 2), (7, 2), (5, 3)])
    def test_monomial_exactness(self, degree, dim):
        # every rule is exact on every monomial up to its degree: Gauss-
        # Legendre on the segment, the symmetric tables above it
        bary, w = simplex_rule(dim, degree)
        assert (w > 0).all()
        assert (bary > 0).all()
        assert abs(w.sum() - 1.0) < 1e-14
        assert rule_info(dim, degree) == {"degree": degree, "nodes": len(w)}
        x = bary[:, 1:]
        vol = 1.0 / factorial(dim)
        for alphas in product(range(degree + 1), repeat=dim):
            if sum(alphas) > degree:
                continue
            approx = vol * (w * np.prod(x ** np.array(alphas), axis=1)).sum()
            assert approx == pytest.approx(exact_monomial(dim, alphas), abs=1e-14)

    @pytest.mark.parametrize("dim,degree,n_nodes,group", [
        (2, 5, 7, list(permutations(range(3)))),
        (3, 5, 14, list(permutations(range(4)))),
        (2, 7, 12, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])])
    def test_symmetric_rule_is_invariant(self, dim, degree, n_nodes, group):
        # S3 on the degree-5 triangle, S4 on the tet, C3 on the degree-7
        # triangle: every image of a node is a node of the same weight
        bary, w = simplex_rule(dim, degree)
        assert bary.shape == (n_nodes, dim + 1) and w.shape == (n_nodes,)
        assert (w > 0).all() and (bary > 0).all()
        for g in group:
            img = bary[:, list(g)]
            dist = np.abs(img[:, None, :] - bary[None, :, :]).max(axis=2)
            match = dist.argmin(axis=1)
            assert dist.min(axis=1).max() < 1e-15
            assert np.abs(w[match] - w).max() < 1e-15

    @pytest.mark.parametrize("dim,degree,expand,seeds", [
        (3, 5, _tet_orbits, [0.31089, 0.11269, 0.09274, 0.07349,
                             0.04550, 0.04255]),
        (2, 7, _triangle_orbits, [0.05523, 0.32150, 0.08776, 0.06238,
                                  0.06752, 0.05303, 0.51584, 0.27772,
                                  0.13499, 0.03432, 0.66095, 0.05755])])
    def test_orbit_parameters_solve_the_moment_equations(self, dim, degree,
                                                         expand, seeds):
        # Gauss-Newton on the relative moment residuals of every monomial
        # up to the degree, from 4-5 digit seeds: residuals in exact
        # rational arithmetic, the Jacobian by complex steps
        p = np.array(seeds)
        for _ in range(6):
            r = [float(v) for v in
                 _moment_residual(expand, dim, degree, map(Fraction, p))]
            J = np.array([np.imag(_moment_residual(expand, dim, degree,
                                                   p + 1e-30j * e)) / 1e-30
                          for e in np.eye(len(p))]).T
            p = p - np.linalg.lstsq(J, r, rcond=None)[0]
        assert max(abs(float(v)) for v in _moment_residual(
            expand, dim, degree, map(Fraction, p))) < 1e-15
        # the rule's nodes and weights are the orbits of that solution
        ref_bary, ref_w = (np.array(a, dtype=float)
                           for a in zip(*expand(p)))
        bary, w = simplex_rule(dim, degree)
        got, ref = np.lexsort(bary.T), np.lexsort(ref_bary.T)
        assert np.abs(bary[got] - ref_bary[ref]).max() <= 1e-15
        assert np.abs(w[got] - ref_w[ref]).max() <= 1e-15

    def test_order_validation(self):
        # even degrees, dimension 4 and pairs with no table entry
        for dim, degree in ((1, 4), (2, 6), (1, 0), (1, -1), (4, 5), (0, 1),
                            (2, 3), (3, 7)):
            with pytest.raises(ValueError, match=(
                    f"no quadrature rule of degree {degree} on the "
                    f"{dim}-simplex: odd degrees on the segment, 5 or 7 on "
                    f"the triangle and 5 on the tetrahedron")):
                simplex_rule(dim, degree)


class TestMeshConstruction:
    def test_octagon_counts(self):
        m = build_sphere_mesh(1, 0)
        assert m.n_simplices(0) == 8
        assert m.n_simplices(1) == 8
        assert m.euler_characteristic() == 0

    def test_icosahedron_counts(self):
        m = build_sphere_mesh(2, 0)
        assert [m.n_simplices(k) for k in range(3)] == [12, 30, 20]
        assert m.euler_characteristic() == 2

    @pytest.mark.parametrize("dim,level,chi", [(1, 3, 0), (2, 2, 2), (3, 1, 0)])
    def test_euler_characteristic(self, dim, level, chi):
        assert cached_mesh(dim, level).euler_characteristic() == chi

    @pytest.mark.parametrize("dim,level", [(1, 2), (2, 2), (3, 0), (3, 1)])
    def test_vertices_on_sphere(self, dim, level):
        m = cached_mesh(dim, level)
        assert np.abs(np.linalg.norm(m.verts, axis=1) - 1.0).max() < 1e-14

    @pytest.mark.parametrize("dim,level", [(1, 2), (2, 2), (3, 1)])
    def test_boundary_of_boundary(self, dim, level):
        m = cached_mesh(dim, level)
        for k in range(dim - 1):
            prod = m.coboundary(k + 1) @ m.coboundary(k)
            assert prod.nnz == 0 or abs(prod).max() == 0

    @pytest.mark.parametrize("dim,level", [(1, 2), (2, 2), (3, 1)])
    def test_fundamental_cycle(self, dim, level):
        # the oriented sum of top cells is a cycle: Stokes holds exactly
        m = cached_mesh(dim, level)
        ones = np.ones(m.n_simplices(dim))
        assert np.abs(m.coboundary(dim - 1).T @ ones).max() == 0

    def test_s3_volume_level1(self):
        # coarse-projection tolerance measured at build time: -12.8%
        m = cached_mesh(3, 1)
        vol = m.signed_volume()
        assert vol > 0
        assert abs(vol - SPHERE_VOLUMES[3]) / SPHERE_VOLUMES[3] < 0.15

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_signed_volume_converges(self, dim):
        exact = SPHERE_VOLUMES[dim]
        lo = abs(cached_mesh(dim, 1).signed_volume() - exact)
        hi = abs(cached_mesh(dim, 2).signed_volume() - exact)
        assert hi < lo / 2.5   # O(h^2) deficit

    @pytest.mark.parametrize("dim,levels", [(1, (1, 2, 3)), (2, (1, 2, 3)),
                                            (3, (1, 2, 3))])
    def test_edge_halving(self, dim, levels):
        # asymptotic halving; the platonic-base transition sits outside
        hs = [cached_mesh(dim, l).max_edge_length() for l in levels]
        for a, b in zip(hs, hs[1:]):
            assert 0.45 <= b / a <= 0.55

    @pytest.mark.parametrize("dim,level,digest", [
        (1, 5, "b41f1935f8e62478e7dca44e0d0010afac39a520d32f4f7410f092e5aaba19f0"),
        (2, 3, "c5971fbd80cba827430dc4139a5367cdd764d08cf44202479328f0a7453df8da"),
        (3, 2, "29708a82adc0db316cc764e56cd00d6389c7dfe7734e65a029489551355dd77d"),
    ])
    def test_mesh_identity_pinned(self, dim, level, digest):
        # vertex coordinates to the last bit and the stored top rows
        text = cached_mesh(dim, level).format_ascii()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_top_face_incidences(self):
        m = cached_mesh(3, 1)
        for k in range(4):
            sub = m.simplices[3][:, list(combinations(range(4), k + 1))]
            stored = m.simplices[k][m.top_faces[k]]
            if k < 3:
                assert np.array_equal(stored, np.sort(sub, axis=2))
            # par * stored row = oriented sub-tuple: the sub-tuple is a
            # permutation of the stored row whose sign is the parity
            perm = (sub[..., :, None] == stored[..., None, :]).astype(float)
            assert (perm.sum(axis=3) == 1).all()
            assert np.array_equal(np.linalg.det(perm).round(),
                                  m.top_face_parity[k])

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension out of range"):
            build_sphere_mesh(4, 0)

    def test_scipy_spatial_imported_by_locate_alone(self):
        # the package and its CLI start without scipy.spatial; point
        # location imports it on first use
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import quanthom, quanthom.cli\n"
            "assert 'scipy.spatial' not in sys.modules\n"
            "from quanthom.geometry import Cochain, build_sphere_mesh, "
            "whitney_interpolate\n"
            "m = build_sphere_mesh(2, 1)\n"
            "c = Cochain(m, 0, m.verts[:, 2].copy())\n"
            "x = m.top_points.mean(axis=1)\n"
            "assert np.abs(whitney_interpolate(c, x) - x[:, 2]).max() < 1e-13\n"
            "assert 'scipy.spatial' in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_locate_roundtrip(self, mesh_s2, rng):
        pts = rng.standard_normal((50, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        idx, bary = mesh_s2.locate(pts)
        assert (bary > -1e-12).all()
        rec = np.einsum("mj,mjd->md", bary, mesh_s2.top_points[idx])
        rec /= np.linalg.norm(rec, axis=1, keepdims=True)
        assert np.abs(rec - pts).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    # 1e-7 from an S^3 level-1 vertex with 24 tops, where the 16 nearest
    # top centroids miss the top holding some of the points
    @example(dim=3, kind="vertex", which=35, t=0.0, offset=-7.0,
             directions=np.linspace(-1.0, 1.0, 64).reshape(16, 4))
    @given(dim=st.sampled_from([1, 2, 3]),
           kind=st.sampled_from(["random", "vertex", "edge"]),
           which=st.integers(0, 10 ** 6), t=st.floats(0.0, 1.0),
           offset=st.floats(-12.0, -5.0),
           directions=arrays(np.float64, (16, 4), elements=st.floats(-1.0, 1.0)))
    def test_locate_any_point(self, dim, kind, which, t, offset, directions):
        # random points, and points within 1e-12..1e-5 of a vertex or of a
        # point on an edge, where up to 28 tops (S^3) meet
        m = cached_mesh(dim, {1: 3, 2: 2, 3: 1}[dim])
        v = directions[:, :dim + 1]
        if kind == "random":
            x = v[np.linalg.norm(v, axis=1) > 1e-3]
        else:
            table = m.simplices[0 if kind == "vertex" else 1]
            p = m.verts[table[which % len(table)]]
            x = (1 - t) * p[0] + t * p[-1] + 10.0 ** offset * v
        if not len(x):
            return
        idx, bary = m.locate(x)
        assert bary.min() >= -1e-10
        assert np.abs(bary.sum(axis=1) - 1.0).max() < 1e-12
        rec = np.einsum("mj,mjd->md", bary, m.top_points[idx])
        rec /= np.linalg.norm(rec, axis=1, keepdims=True)
        assert np.abs(rec - x / np.linalg.norm(x, axis=1, keepdims=True)).max() < 1e-12

    def test_locate_falls_back_to_every_top(self, rng):
        # with every vertex star replaced by top 0, all other points are
        # found by the exhaustive check, in the same tops
        pts = rng.standard_normal((40, 3))
        ref_idx, ref_bary = cached_mesh(2, 2).locate(pts)
        m = build_sphere_mesh(2, 2)
        m.locate(pts[:1])
        tree, stars, dual = m._locator
        m._locator = (tree, np.zeros_like(stars), dual)
        idx, bary = m.locate(pts)
        assert np.array_equal(idx, ref_idx)
        assert np.abs(bary - ref_bary).max() < 1e-15


class TestMeshIO:
    @pytest.mark.parametrize("dim,level", [(1, 1), (2, 1), (3, 0)])
    def test_roundtrip(self, tmp_path, dim, level):
        m = build_sphere_mesh(dim, level)
        path = tmp_path / "mesh.txt"
        m.save(str(path))
        m2 = SimplicialSphere.load(str(path))
        assert m2.dim == m.dim and m2.level == m.level
        assert np.array_equal(m2.verts, m.verts)
        for k in range(dim + 1):
            assert np.array_equal(m2.simplices[k], m.simplices[k])

    def test_header(self, tmp_path):
        m = build_sphere_mesh(2, 0)
        text = m.format_ascii()
        assert text.splitlines()[0] == "DIM 2 LEVEL 0"
        assert "VERTICES 12" in text
        assert "SIMPLICES 20" in text

    def test_negative_orientation_flag(self):
        m = build_sphere_mesh(2, 0)
        text = m.format_ascii()
        flipped = []
        for ln in text.splitlines():
            parts = ln.split()
            if len(parts) == 4 and parts[-1] == "+1":
                flipped.append(" ".join([parts[0], parts[2], parts[1], "-1"]))
            else:
                flipped.append(ln)
        m2 = SimplicialSphere.parse_ascii("\n".join(flipped))
        assert np.array_equal(np.sort(m2.simplices[2], axis=1),
                              np.sort(m.simplices[2], axis=1))
        assert m2.signed_volume() > 0


def _empty(tops):
    return tops[:0]


def _bad_width(tops):
    return tops[:, :2]


def _out_of_range(tops):
    tops[3, 1] = 12
    return tops


def _negative(tops):
    tops[3, 1] = -2
    return tops


def _repeated(tops):
    tops[3, 2] = tops[3, 0]
    return tops


def _through_origin(tops):
    tops[3] = [0, 3, 5]            # vertex 3 is antipodal to vertex 0
    return tops


@pytest.mark.parametrize("corrupt,message", [
    (_empty, "no top simplices"),
    (_bad_width, r"top simplex 0 has shape \(2,\)"),
    (_out_of_range, r"top simplex 3 .* outside \[0, 12\)"),
    (_negative, r"top simplex 3 .* outside \[0, 12\)"),
    (_repeated, "top simplex 3 .* has a repeated vertex"),
    (_through_origin, r"top simplex 3 \[0, 3, 5\] spans a plane through the origin"),
], ids=["empty", "width", "out-of-range", "negative", "repeated", "through-origin"])
def test_bad_tops_rejected(corrupt, message):
    m = build_sphere_mesh(2, 0)
    tops = corrupt(m.simplices[2].copy())
    with pytest.raises(ValueError, match=message):
        SimplicialSphere(2, m.verts, tops, 0)


@pytest.mark.parametrize("edit,message", [
    (lambda lines: lines[:20], "truncated, simplex 5 missing"),
    (lambda lines: lines[:5], "truncated, vertex 3 missing"),
    (lambda lines: lines[:1], "truncated, the VERTICES header missing"),
    (lambda lines: lines[:16] + ["0 11"] + lines[17:],
     "line 17 has 2 fields, expected 4"),
    (lambda lines: lines[:4] + ["0.5 0.5"] + lines[5:],
     "line 5 has 2 fields, expected 3"),
], ids=["truncated-simplices", "truncated-vertices", "header-only",
        "short-simplex", "short-vertex"])
def test_bad_mesh_file_rejected(edit, message):
    lines = build_sphere_mesh(2, 0).format_ascii().splitlines()
    with pytest.raises(ValueError, match="bad mesh file: " + message):
        SimplicialSphere.parse_ascii("\n".join(edit(lines)))


@settings(max_examples=50, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 40), st.integers(1, 4)),
              elements=st.integers(0, 6)))
def test_unique_rows_matches_numpy(rows):
    from quanthom.geometry.mesh import _unique_rows
    uniq, first, inv = _unique_rows(rows)
    ref, ref_first, ref_inv = np.unique(rows, axis=0, return_index=True,
                                        return_inverse=True)
    assert np.array_equal(uniq, ref)
    assert np.array_equal(first, ref_first)
    assert np.array_equal(inv, ref_inv.ravel())


def test_unique_rows_rejects_keys_beyond_int64():
    from quanthom.geometry.mesh import _unique_rows
    rows = np.array([[0, 0, 0, 2 ** 21 - 2]])    # base 2^21 - 1
    with pytest.raises(ValueError, match="4 indices below 2097151"):
        _unique_rows(rows)
    assert len(_unique_rows(rows[:, 1:])[0]) == 1    # (2^21 - 1)^3 < 2^63

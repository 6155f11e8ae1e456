"""Meshes, boundary operators, quadrature, and the mesh file format."""

import hashlib
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quanthom.geometry import SPHERE_VOLUMES, SimplicialSphere, build_sphere_mesh
from quanthom.geometry import mesh as mesh_module
from quanthom.geometry.quadrature import rule_info, simplex_rule
from quanthom.invariants import mapping_degree
from quanthom.maps import make_sphere_suspension

from conftest import cached_mesh
from helpers import max_edge_length, mesh_tables_by_sorting, package_env


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
        (1, 1), (3, 1), (5, 1), (7, 1), (5, 2), (7, 2), (2, 3), (5, 3)])
    def test_monomial_exactness(self, degree, dim):
        # every rule is exact on every monomial up to its degree: Gauss-
        # Legendre on the segment, the symmetric tables above it
        bary, w = simplex_rule(dim, degree)
        assert not bary.flags.writeable and not w.flags.writeable
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
        (2, 7, 12, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
        (3, 2, 4, list(permutations(range(4))))])
    def test_symmetric_rule_is_invariant(self, dim, degree, n_nodes, group):
        # S3 on the degree-5 triangle, S4 on both tet rules, C3 on the
        # degree-7 triangle: every image of a node is a node of the same
        # weight
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
                            (2, 3), (3, 3), (3, 7)):
            with pytest.raises(ValueError, match=(
                    f"no quadrature rule of degree {degree} on the "
                    f"{dim}-simplex: odd degrees on the segment, 5 or 7 on "
                    f"the triangle and 2 or 5 on the tetrahedron")):
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
        vol = m.top_volumes.sum()
        assert vol > 0
        assert abs(vol - SPHERE_VOLUMES[3]) / SPHERE_VOLUMES[3] < 0.15

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_signed_volume_converges(self, dim):
        exact = SPHERE_VOLUMES[dim]
        lo = abs(cached_mesh(dim, 1).top_volumes.sum() - exact)
        hi = abs(cached_mesh(dim, 2).top_volumes.sum() - exact)
        assert hi < lo / 2.5   # O(h^2) deficit

    @pytest.mark.parametrize("dim,levels", [(1, (1, 2, 3)), (2, (1, 2, 3)),
                                            (3, (1, 2, 3))])
    def test_edge_halving(self, dim, levels):
        # asymptotic halving; the platonic-base transition sits outside
        hs = [max_edge_length(cached_mesh(dim, l)) for l in levels]
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

    @pytest.mark.parametrize("dim,level", [(1, 3), (2, 2), (3, 1)])
    def test_tops_outward(self, dim, level):
        assert (np.linalg.det(cached_mesh(dim, level).top_points) > 0).all()

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

    def test_scipy_spatial_never_imported(self):
        # no pipeline needs scipy.spatial, a ~50 ms import: the package,
        # its CLI and a Hopf evaluation start and run without it
        code = (
            "import sys\n"
            "import quanthom, quanthom.cli\n"
            "m = quanthom.build_sphere_mesh(3, 1)\n"
            "assert abs(quanthom.hopf_invariant(quanthom.make_hopf(), m).value"
            " - 1.0) < 0.1\n"
            "assert 'scipy.spatial' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=package_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr


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
        assert (np.linalg.det(m2.top_points) > 0).all()

    def test_inward_tops_are_turned_outward(self):
        # every other top given inward, through the constructor and
        # through a file whose flags all read +1: the mesh stores the
        # built tops and its degree is the built mesh's to the last bit
        m = cached_mesh(2, 3)
        tops = m.simplices[2].copy()
        tops[::2, -2:] = tops[::2, -2:][:, ::-1]
        lines = m.format_ascii().splitlines()
        lines[-len(tops):] = [" ".join(map(str, row)) + " +1" for row in tops]
        f = make_sphere_suspension(2)
        degree = mapping_degree(f, m).value
        for m2 in (SimplicialSphere(2, m.verts, tops, 3),
                   SimplicialSphere.parse_ascii("\n".join(lines))):
            assert np.array_equal(m2.simplices[2], m.simplices[2])
            assert mapping_degree(f, m2).value == degree


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


def _hole(tops):
    return tops[:-1]


def _doubled(tops):
    return np.vstack([tops, tops[:1]])


@pytest.mark.parametrize("corrupt,message", [
    (_empty, "no top simplices"),
    (_bad_width, r"top simplex 0 has shape \(2,\)"),
    (_out_of_range, r"top simplex 3 .* outside \[0, 12\)"),
    (_negative, r"top simplex 3 .* outside \[0, 12\)"),
    (_repeated, "top simplex 3 .* has a repeated vertex"),
    (_through_origin, r"top simplex 3 \[0, 3, 5\] spans a plane through the origin"),
    (_hole, r"1-face 7 \[1, 8\] lies in 1 top simplices, expected 2"),
    (_doubled, r"1-face 1 \[0, 5\] lies in 3 top simplices, expected 2"),
], ids=["empty", "width", "out-of-range", "negative", "repeated", "through-origin",
        "hole", "doubled-top"])
def test_bad_tops_rejected(corrupt, message):
    m = build_sphere_mesh(2, 0)
    tops = corrupt(m.simplices[2].copy())
    with pytest.raises(ValueError, match=message):
        SimplicialSphere(2, m.verts, tops, 0)


def mesh_text(dim: int, verts: np.ndarray, tops: np.ndarray) -> str:
    """A mesh file of level 0 with these vertices and tops, flags +1."""
    return "\n".join([f"DIM {dim} LEVEL 0", f"VERTICES {len(verts)}"]
                     + [" ".join(map(repr, v)) for v in verts.tolist()]
                     + [f"SIMPLICES {len(tops)}"]
                     + [" ".join(map(str, t)) + " +1" for t in tops.tolist()])


@pytest.mark.parametrize("corrupt,faces", [(_hole, "7 [1, 8] lies in 1"),
                                           (_doubled, "1 [0, 5] lies in 3")],
                         ids=["hole", "doubled-top"])
def test_open_tops_rejected_in_a_file(corrupt, faces):
    m = build_sphere_mesh(2, 0)
    text = mesh_text(2, m.verts, corrupt(m.simplices[2].copy()))
    with pytest.raises(ValueError, match=re.escape(
            f"1-face {faces} top simplices, expected 2")):
        SimplicialSphere.parse_ascii(text)


def test_tops_orienting_a_face_alike_rejected():
    # a closed polygon around the origin that doubles back from 100 to 50
    # degrees: vertex 1 ends both of its edges and vertex 3 starts both
    angles = np.radians([0, 100, 200, 50, 300])
    verts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tops = np.array([[0, 1], [1, 3], [3, 2], [2, 4], [4, 0]])
    message = re.escape("0-face 1 [1] gets the same orientation from its "
                        "two top simplices")
    with pytest.raises(ValueError, match=message):
        SimplicialSphere(1, verts, tops, 0)
    with pytest.raises(ValueError, match=message):
        SimplicialSphere.parse_ascii(mesh_text(1, verts, tops))


@pytest.mark.parametrize("edit,message", [
    (lambda lines: lines[:20], "truncated, simplex 5 missing"),
    (lambda lines: lines[:5], "truncated, vertex 3 missing"),
    (lambda lines: lines[:1], "truncated, the VERTICES header missing"),
    (lambda lines: lines[:16] + ["0 11"] + lines[17:],
     "line 17 has 2 fields, expected 4"),
    (lambda lines: lines[:4] + ["0.5 0.5"] + lines[5:],
     "line 5 has 2 fields, expected 3"),
    (lambda lines: lines[:4] + ["0.5 x 0.5"] + lines[5:],
     r"line 5: could not convert string to float: 'x' \(vertex 2\)"),
    (lambda lines: lines[:4] + ["0.5 nan 0.5"] + lines[5:],
     r"line 5 has a non-finite coordinate \(vertex 2\)"),
    (lambda lines: lines[:16] + ["0 x 5 +1"] + lines[17:],
     r"line 17: invalid literal for int\(\) with base 10: 'x' \(simplex 1\)"),
    (lambda lines: lines[:16] + [lines[16].rsplit(" ", 1)[0] + " 0"] + lines[17:],
     r"line 17 has orientation flag 0, expected \+1 or -1"),
    (lambda lines: lines + ["0 1 2 +1"], "line 36 follows the last simplex"),
    (lambda lines: lines[:1] + ["VERTICES -1"] + lines[2:],
     "line 2 is not VERTICES <count >= 0>"),
    (lambda lines: lines[:14] + ["SIMPLEXES 20"] + lines[15:],
     "line 15 is not SIMPLICES <count >= 0>"),
    (lambda lines: ["DIM 4 LEVEL 0"] + lines[1:],
     "line 1 has DIM 4 LEVEL 0, expected DIM 1, 2 or 3 and LEVEL >= 0"),
    (lambda lines: ["DIM 2 LEVEL -3"] + lines[1:],
     "line 1 has DIM 2 LEVEL -3, expected DIM 1, 2 or 3 and LEVEL >= 0"),
], ids=["truncated-simplices", "truncated-vertices", "header-only",
        "short-simplex", "short-vertex", "non-numeric-vertex",
        "non-finite-vertex", "non-numeric-index", "orientation-flag-0",
        "trailing-line", "negative-count", "misnamed-header", "dim-4",
        "negative-level"])
def test_bad_mesh_file_rejected(edit, message):
    lines = build_sphere_mesh(2, 0).format_ascii().splitlines()
    with pytest.raises(ValueError, match="bad mesh file: " + message):
        SimplicialSphere.parse_ascii("\n".join(edit(lines)))


@settings(max_examples=50, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 40), st.integers(1, 4)),
              elements=st.integers(0, 6)))
def test_unique_rows_matches_numpy(rows):
    from quanthom.geometry.mesh import _packed_keys, _unique_keys
    first, inv = _unique_keys(
        _packed_keys(lambda j: rows[:, j], rows.shape[1], int(rows.max()) + 1))
    ref, ref_first, ref_inv = np.unique(rows, axis=0, return_index=True,
                                        return_inverse=True)
    assert np.array_equal(rows[first], ref)
    assert np.array_equal(first, ref_first)
    assert np.array_equal(inv, ref_inv.ravel())


def test_unique_rows_rejects_keys_beyond_int64():
    from quanthom.geometry.mesh import _packed_keys, _unique_keys
    rows = np.array([[0, 0, 0, 2 ** 21 - 2]])

    def keys(width):            # the last `width` columns, base 2^21 - 1
        return _packed_keys(lambda j: rows[:, 4 - width + j], width,
                            2 ** 21 - 1)

    with pytest.raises(ValueError, match="4 indices below 2097151"):
        keys(4)
    assert len(_unique_keys(keys(3))[0]) == 1    # (2^21 - 1)^3 < 2^63


# ----------------------------------------------------------------------
# mesh tables: the sorted-row build against sorting every face
# ----------------------------------------------------------------------

def built_at(cores, build):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_cores", lambda: cores)
        return build()


def assert_tables_match_sorting(m):
    simplices, top_faces, parity, coboundary = mesh_tables_by_sorting(
        m.simplices[m.dim], m.dim)
    for k in range(m.dim + 1):
        for got, want in ((m.simplices[k], simplices[k]),
                          (m.top_faces[k], top_faces[k]),
                          (m.top_face_parity[k], parity[k])):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    for k in range(m.dim):
        for name in ("indptr", "indices", "data"):
            got = getattr(m.coboundary(k), name)
            want = getattr(coboundary[k], name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dim,level", [(1, lvl) for lvl in range(6)]
                         + [(2, lvl) for lvl in range(5)]
                         + [(3, lvl) for lvl in range(4)])
def test_mesh_tables_match_sorting_reference(dim, level):
    for cores in (1, 2):
        assert_tables_match_sorting(
            built_at(cores, lambda: build_sphere_mesh(dim, level)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 1), (3, 0)]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2]))
def test_relabelled_mesh_tables_match_sorting_reference(case, seed, cores):
    # relabelled vertices, shuffled tops, each top's slots shuffled so
    # that every other given top is inward
    dim, level = case
    m = cached_mesh(dim, level)
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(len(m.verts))
    verts = np.empty_like(m.verts)
    verts[relabel] = m.verts
    n_t = m.n_simplices(dim)
    slots = rng.permuted(np.tile(np.arange(dim + 1), (n_t, 1)), axis=1)
    odd = mesh_module.permutation_sign(slots) != np.where(
        np.arange(n_t) % 2, -1, 1)
    slots[odd, :2] = slots[odd, 1::-1]
    tops = np.take_along_axis(relabel[m.simplices[dim]], slots, axis=1)
    tops = tops[rng.permutation(n_t)]
    m2 = built_at(cores, lambda: SimplicialSphere(dim, verts, tops, level))
    assert (np.linalg.det(m2.top_points) > 0).all()
    turned = (m2.simplices[dim] != tops).any(axis=1)
    assert np.array_equal(m2.simplices[dim][turned],
                          tops[turned][:, list(range(dim - 1)) + [dim, dim - 1]])
    assert turned.sum() == n_t // 2
    assert_tables_match_sorting(m2)


def test_unused_vertex_rejected():
    # through the constructor and through a mesh file with one more vertex
    m = build_sphere_mesh(2, 0)
    extra = np.array([[0.6, 0.8, 0.0]])
    with pytest.raises(ValueError, match="vertex 12 is in no top simplex"):
        SimplicialSphere(2, np.vstack([m.verts, extra]), m.simplices[2], 0)
    lines = m.format_ascii().splitlines()
    lines[1] = "VERTICES 13"
    lines.insert(14, "0.6 0.8 0")
    with pytest.raises(ValueError, match="vertex 12 is in no top simplex"):
        SimplicialSphere.parse_ascii("\n".join(lines))


def test_mesh_build_calls_no_lapack(monkeypatch):
    m = cached_mesh(3, 0)
    tops = m.simplices[3].copy()
    tops[::2, -2:] = tops[::2, -2:][:, ::-1]
    lines = m.format_ascii().splitlines()
    lines[-len(tops):] = [" ".join(map(str, row)) + " +1" for row in tops]

    def no_lapack(a):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", no_lapack)
    build_sphere_mesh(3, 2)
    m2 = SimplicialSphere.parse_ascii("\n".join(lines))
    assert np.array_equal(m2.simplices[3], m.simplices[3])


@pytest.mark.parametrize("level", range(4))
def test_orientation_sign_matches_lapack(level):
    pts = cached_mesh(3, level).top_points
    pts[1::2] = pts[1::2][:, [0, 1, 3, 2]]          # every other top inward
    sign = np.sign(mesh_module._orientation(pts))
    assert np.array_equal(sign, np.sign(np.linalg.det(pts)))
    assert np.array_equal(sign, np.where(np.arange(len(pts)) % 2, -1.0, 1.0))


def test_flat_s3_top_rejected():
    m = cached_mesh(3, 0)
    assert np.array_equal(m.verts[4], -m.verts[0])
    tops = m.simplices[3].copy()
    tops[3] = [0, 4, 1, 2]
    with pytest.raises(ValueError, match=r"top simplex 3 \[0, 4, 1, 2\] spans "
                                         "a plane through the origin"):
        SimplicialSphere(3, m.verts, tops, 0)


def kept_bytes(m) -> int:
    """Bytes of the distinct buffers a mesh keeps."""
    arrays = [m.verts, m.top_volumes, m.metric]
    for table in (m.simplices, m.top_faces, m.top_face_parity):
        arrays += table.values()
    for k in range(m.dim):
        c = m.coboundary(k)
        arrays += [c.data, c.indices, c.indptr]
    buffers = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        buffers[id(a)] = a.nbytes
    return sum(buffers.values())


def test_mesh_build_transient_memory():
    # beyond what it keeps, the build holds the given tops, their sorted
    # rows and permutations, one degree's packed face keys, sort order
    # and ranks at a time on each worker, and then the geometry pass's
    # per-block temporaries on each worker
    build_sphere_mesh(3, 2)                 # constant tables cached
    tracemalloc.start()
    try:
        m = build_sphere_mesh(3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * kept_bytes(m)


def test_level_beyond_memory_refused(monkeypatch):
    # 128 * 8^5 tops at 2,232 bytes each: 9.36 GB; nothing is built
    monkeypatch.setattr(mesh_module, "_physical_memory", lambda: 2 * 10 ** 9)

    def no_build(*args):
        raise AssertionError("mesh built before the level was checked")

    monkeypatch.setattr(mesh_module, "_cross_polytope", no_build)
    with pytest.raises(ValueError, match=r"S\^3 level 5 needs an estimated "
                                         r"9.36 GB at its peak, more than the "
                                         r"2 GB of physical memory"):
        build_sphere_mesh(3, 5)
    mesh_module.check_level_fits(3, 4)     # 1.17 GB


def test_huge_level_refused_without_its_full_estimate(monkeypatch):
    # 2^(3 level) is cut at memory's 31 bits: 128 * 2^31 * 2,232 bytes;
    # the full power would have 3 * 10^18 bits
    monkeypatch.setattr(mesh_module, "_physical_memory", lambda: 2 * 10 ** 9)
    with pytest.raises(ValueError, match=r"S\^3 level 1000000000000000000 "
                                         r"needs an estimated 6.14e\+5 GB or "
                                         r"more at its peak"):
        mesh_module.check_level_fits(3, 10 ** 18)

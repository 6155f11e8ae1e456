"""Oriented simplicial meshes of the unit spheres S^1, S^2, S^3.

Base meshes: regular octagon (S^1), icosahedron (S^2), boundary of the
4-dimensional cross-polytope / 16-cell (S^3).  Refinement is uniform
edge-midpoint subdivision followed by radial projection of the new
vertices onto the sphere.  For S^3 the level-0 base is the 16-cell
subdivided once (128 cells): the raw 16-cell's facet centers lie at
radius 1/2, so no midpoint scheme on its 32 level-1 vertices can bring
the flat volume within the documented coarse-mesh tolerance.

Simplices are affine (flat) with vertices on the sphere.  All simplex
tables of degree k < N are stored with vertices in ascending index
order (this fixes their orientation); top simplices are stored in
positively oriented vertex order, where a frame (e_1 .. e_N) of edge
vectors is positive iff det[c; e_1; ...; e_N] > 0 with c the outward
(centroid) direction.  With that convention the fundamental chain is
the sum of all top simplices with coefficient +1 and its boundary
vanishes identically.

Every face of a top simplex carries the parity of its vertex order in
the top (the oriented sub-tuple) against its stored row: the sorting
sign for k < N and +1 for the top itself, so a top cochain's Whitney
form integrates to the sum of its values.

The signed incidence (boundary) matrices are integer matrices and
satisfy boundary-of-boundary = 0 exactly.
"""

from __future__ import annotations

import io
import os
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, product
from math import factorial

import numpy as np
from scipy import sparse

from .minors import det, minors

SPHERE_VOLUMES = {0: 2.0, 1: 2.0 * np.pi, 2: 4.0 * np.pi, 3: 2.0 * np.pi ** 2}

# rows per block of every batched loop over a mesh (map_blocks): the tops
# in the mesh geometry, the simplices of one degree in quadrature and mass
# assembly, the query points in `locate`.  Each helper thread of
# map_blocks allocates from its own malloc arena, which keeps about one
# block's working set; at 1,024 rows the S^3 level-3 Hopf invariant and
# the scaling sweeps peak no higher than serial loops over 4,096 did.
BLOCK = 1024
_LOCATE_TOL = 1e-10      # how far outside its top `locate` accepts a point


def blocks(n: int):
    """Consecutive row slices of at most BLOCK rows covering range(n),
    in ascending order, so block partial sums are added in a fixed order."""
    for lo in range(0, n, BLOCK):
        yield slice(lo, min(lo + BLOCK, n))


def _cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def map_blocks(fn, n: int) -> list:
    """[fn(rows) for rows in blocks(n)], computed on every core.

    Block i runs on worker i mod w, with w = min(cores, blocks): worker 0
    is the calling thread, the others are the threads of a pool made for
    this call and joined before it returns; one core or one block starts
    no thread.  The results come back in block order, so sums over them
    in that order do not depend on w.  fn must be a pure function of its
    rows: it may write its own rows of an output array, and any shared
    cached table must be built before the call.  An exception raised in
    any block propagates from the call.
    """
    slices = list(blocks(n))
    w = min(_cores(), len(slices))
    if w <= 1:
        return [fn(rows) for rows in slices]

    def share(i: int) -> list:
        return [fn(rows) for rows in slices[i::w]]

    with ThreadPoolExecutor(w - 1) as pool:
        helpers = [pool.submit(share, i) for i in range(1, w)]
        shares = [share(0)] + [h.result() for h in helpers]
    return [shares[i % w][i // w] for i in range(len(slices))]


def permutation_sign(rows) -> np.ndarray:
    """Sign of the permutation sorting each row (last axis, distinct entries)."""
    rows = np.asarray(rows)
    inversions = np.zeros(rows.shape[:-1], dtype=np.int64)
    for i, j in combinations(range(rows.shape[-1]), 2):
        inversions += rows[..., i] > rows[..., j]
    return 1 - 2 * (inversions % 2)


def _orient_outward(verts: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Reorder top simplices so every frame is positive against the radius.

    The frame of a top is positive iff det[centroid; edges] > 0, which
    equals det(vertex rows) by row operations.
    """
    tops = tops.copy()
    dets = np.concatenate(map_blocks(lambda rows: det(verts[tops[rows]]),
                                     len(tops)))
    if np.any(dets == 0.0):
        raise ValueError("degenerate top simplex")
    flip = dets < 0
    tops[flip, -2], tops[flip, -1] = tops[flip, -1], tops[flip, -2].copy()
    return tops


def simplex_geometry(pts: np.ndarray):
    """Affine geometry of a batch of N-simplices with vertices pts (t, N+1, d).

    Returns edges (t, N, d) from vertex 0, volumes (t,), barycentric
    differentials (t, N+1, d) -- row j is the gradient of lambda_j
    restricted to the simplex plane -- and their Gram matrices
    (t, N+1, N+1), the metric of the Whitney-form algebra.

    All in closed form from the edge Gram matrix G: its determinant gives
    the volume, its inverse is the adjugate (the (N-1) x (N-1) minors)
    over the determinant, the gradients of lambda_1..lambda_N are
    G^{-1} edges, and the metric is G^{-1} bordered by minus its column
    sums (lambda_0 = 1 - the others) with their total in the corner.
    """
    edges = pts[:, 1:, :] - pts[:, :1, :]
    N = edges.shape[1]
    gram = np.einsum("tid,tjd->tij", edges, edges)
    det_g = det(gram)
    volumes = np.sqrt(np.abs(det_g)) / factorial(N)
    # G is symmetric, so its adjugate is the cofactor matrix; the minor
    # without row i and column j is minors[N-1-i, N-1-j] in combinations
    # order
    sign = (-1.0) ** np.add.outer(np.arange(N), np.arange(N))
    inv = sign * minors(gram, N - 1)[:, ::-1, ::-1] / det_g[:, None, None]
    grads = inv @ edges                            # j=1..N
    barygrad = np.concatenate([-grads.sum(axis=1, keepdims=True), grads],
                              axis=1)
    metric = np.empty((len(pts), N + 1, N + 1))
    metric[:, 1:, 1:] = inv
    metric[:, 0, 1:] = metric[:, 1:, 0] = -inv.sum(axis=1)
    metric[:, 0, 0] = inv.sum(axis=(1, 2))
    return edges, volumes, barygrad, metric


def _unique_rows(rows: np.ndarray):
    """np.unique(rows, axis=0) with each row's first position and the
    inverse map, for non-negative integer rows.

    Each row is packed into one int64 key in base max + 1, first column
    most significant, so one stable argsort of the keys orders the rows
    as a lexicographic sort would.
    """
    width = rows.shape[1]
    base = int(rows.max()) + 1 if rows.size else 1
    if base ** width >= 2 ** 63:
        raise ValueError(f"rows of {width} indices below {base} do not "
                         "pack into an int64 key")
    keys = rows[:, 0].astype(np.int64)
    for j in range(1, width):
        keys = keys * base + rows[:, j]
    order = np.argsort(keys, kind="stable")
    srt = keys[order]
    new = np.r_[True, srt[1:] != srt[:-1]]
    inv = np.empty(len(rows), dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    first = order[new]
    return rows[first], first, inv


def _mesh_tables(tops: np.ndarray, dim: int):
    """Simplex tables, top-face incidences with parities, and coboundaries.

    One unique-rows pass per degree k < dim over the sorted k-faces of the
    tops gives simplices[k] and, as the inverse, top_faces[k][t, a], the
    k-face on local vertex-slot combination a of top t; its parity is the
    sign of that oriented sub-tuple against the stored row (+1 for k = dim).
    Row r of coboundary k is read off the first top holding (k+1)-simplex
    r: dropping vertex i of slot a leaves slot b, with sign
    (-1)^i par[k+1][t, a] par[k][t, b].
    """
    n_t = len(tops)
    combos = {k: list(combinations(range(dim + 1), k + 1)) for k in range(dim + 1)}
    simplices = {dim: tops}
    top_faces = {dim: np.arange(n_t, dtype=np.int64)[:, None]}
    parity = {dim: np.ones((n_t, 1), dtype=np.int8)}
    coboundary = {}
    first = np.arange(n_t)      # first flat (top, slot) of each (k+1)-simplex
    for k in range(dim - 1, -1, -1):
        sub = tops[:, combos[k]]                            # (t, slots, k+1)
        simplices[k], first_k, inv = _unique_rows(
            np.sort(sub, axis=2).reshape(-1, k + 1))
        top_faces[k] = inv.reshape(n_t, len(combos[k]))
        parity[k] = permutation_sign(sub).astype(np.int8)
        t, a = np.divmod(first, len(combos[k + 1]))
        slot = {c: b for b, c in enumerate(combos[k])}
        faces = np.array([[slot[c[:i] + c[i + 1:]] for i in range(k + 2)]
                          for c in combos[k + 1]])[a]       # (n_{k+1}, k+2)
        signs = ((-1) ** np.arange(k + 2) * parity[k + 1][t, a][:, None]
                 * parity[k][t[:, None], faces])
        rows = np.repeat(np.arange(len(first)), k + 2)
        coboundary[k] = sparse.csr_matrix(
            (signs.ravel(), (rows, top_faces[k][t[:, None], faces].ravel())),
            shape=(len(first), len(simplices[k])))
        first = first_k
    return simplices, top_faces, parity, coboundary


# ----------------------------------------------------------------------
# base meshes and refinement
# ----------------------------------------------------------------------

def _circle_mesh(level: int) -> tuple[np.ndarray, np.ndarray]:
    n = 8 * 2 ** level
    ang = 2.0 * np.pi * np.arange(n) / n
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return verts, edges


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    r = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, r, 0], [1, r, 0], [-1, -r, 0], [1, -r, 0],
        [0, -1, r], [0, 1, r], [0, -1, -r], [0, 1, -r],
        [r, 0, -1], [r, 0, 1], [-r, 0, -1], [-r, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    return verts, faces


def _cross_polytope() -> tuple[np.ndarray, np.ndarray]:
    verts = np.vstack([np.eye(4), -np.eye(4)])
    return verts, np.array(list(product((0, 4), (1, 5), (2, 6), (3, 7))))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded exactly as np.linalg.norm(row)
    (np.linalg.norm(axis=1) and einsum sum in other orders)."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _midpoints(verts: np.ndarray, pairs: np.ndarray):
    """Append the projected midpoints of the vertex pairs (..., 2), one per
    distinct edge numbered by first appearance; returns the extended
    vertices and the new vertex number of every pair."""
    edges, first, inv = _unique_rows(np.sort(pairs, axis=-1).reshape(-1, 2))
    order = np.argsort(first)
    mid = verts[edges[order, 0]] + verts[edges[order, 1]]
    mid = mid / _row_norms(mid)[:, None]
    return (np.vstack([verts, mid]),
            len(verts) + np.argsort(order)[inv.reshape(pairs.shape[:-1])])


# local vertices of a subdivided triangle: corners 0-2, then the midpoints
# of the edges 01, 12, 20
_TRI_CHILDREN = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])
# local vertices of a subdivided tet: corners 0-3, then the midpoints of
# the edges 01 02 03 12 13 23 (slots 4-9)
_TET_EDGES = np.array(list(combinations(range(4), 2)))
_TET_CORNERS = np.array([[0, 4, 5, 6], [1, 4, 7, 8], [2, 5, 7, 9], [3, 6, 8, 9]])
# interior octahedron split along diagonal d: (a, f, ring of the other
# four midpoints, opposite midpoints never adjacent), as midpoint slots
_OCTA_SPLIT = np.array([[0, 5, 1, 2, 4, 3], [1, 4, 0, 2, 5, 3],
                        [2, 3, 0, 1, 5, 4]])
_OCTA_CHILDREN = np.array([[0, 1, 2, 3], [0, 1, 3, 4], [0, 1, 4, 5],
                           [0, 1, 5, 2]])


def _subdivide_triangles(verts: np.ndarray, tris: np.ndarray):
    verts, mid = _midpoints(verts, tris[:, [[0, 1], [1, 2], [2, 0]]])
    local = np.hstack([tris, mid])
    return verts, local[:, _TRI_CHILDREN].reshape(-1, 3)


def _subdivide_tets(verts: np.ndarray, tets: np.ndarray):
    verts, mid = _midpoints(verts, tets[:, _TET_EDGES])      # (t, 6)
    corners = np.hstack([tets, mid])[:, _TET_CORNERS]        # (t, 4, 4)
    # interior octahedron: split along its shortest diagonal (the first
    # one on ties, which are common)
    gaps = verts[mid[:, :3]] - verts[mid[:, :2:-1]]          # (t, 3, dim)
    lengths = _row_norms(gaps.reshape(-1, gaps.shape[2])).reshape(-1, 3)
    split = np.take_along_axis(mid, _OCTA_SPLIT[lengths.argmin(axis=1)], axis=1)
    inner = split[:, _OCTA_CHILDREN]                         # (t, 4, 4)
    return verts, np.concatenate([corners, inner], axis=1).reshape(-1, 4)


def _check_tops(tops: np.ndarray, dim: int, n_v: int):
    """Reject top-simplex tables that cannot describe a simplicial complex."""
    if not len(tops):
        raise ValueError("no top simplices")
    if tops.ndim != 2 or tops.shape[1] != dim + 1:
        raise ValueError(f"top simplex 0 has shape {tops.shape[1:]}, "
                         f"expected ({dim + 1},) vertex indices")
    srt = np.sort(tops, axis=1)
    for bad, what in (((srt[:, 0] < 0) | (srt[:, -1] >= n_v),
                       f"a vertex index outside [0, {n_v})"),
                      ((srt[:, 1:] == srt[:, :-1]).any(axis=1), "a repeated vertex")):
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"top simplex {i} {tops[i].tolist()} has {what}")


def _vertex_stars(tops: np.ndarray, n_v: int) -> np.ndarray:
    """Tops around each vertex (n_v, max valence), each row padded by
    repeating its last top."""
    vert = tops.ravel()
    order = np.argsort(vert, kind="stable")
    count = np.bincount(vert, minlength=n_v)
    start = np.cumsum(count) - count
    col = np.minimum(np.arange(count.max()), count[:, None] - 1)
    return (order // tops.shape[1])[start[:, None] + col]


def _deepest_cone(cand: np.ndarray, mu: np.ndarray):
    """For each point, the candidate top whose cone holds it deepest.

    `cand` (m, c) lists candidate tops per point and `mu` (m, c, N+1) the
    point's cone coordinates in each (x = sum mu_j p_j).  Returns the
    chosen tops, the barycentric coordinates of the radial intersection
    and their minimum, the depth (-inf where no candidate cone faces the
    point).
    """
    s = mu.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = mu / s
    depth = np.where(s[:, :, 0] > 0, lam.min(axis=2), -np.inf)
    best = depth.argmax(axis=1)
    rows = np.arange(len(cand))
    return cand[rows, best], lam[rows, best], depth[rows, best]


# ----------------------------------------------------------------------
# mesh
# ----------------------------------------------------------------------

class SimplicialSphere:
    """Oriented simplicial approximation of S^N with its discrete calculus.

    Immutable after construction.  Attributes of interest:

    dim, level          sphere dimension N and refinement level
    verts               (n_v, N+1) unit vectors
    simplices[k]        (n_k, k+1) oriented vertex tables, k = 0..N
    n_simplices(k)      table sizes
    top_faces[k]        (n_N, C(N+1, k+1)) index of the k-face on each
                        combination of local vertex slots of every top
    top_face_parity[k]  sign of that oriented face against its stored row
                        (int8)
    top_volumes, metric (n_N,) volumes and (n_N, N+1, N+1) Gram matrices
                        of the barycentric differentials of the tops
    top_points, top_edges, barygrad
                        vertices, edge vectors from vertex 0 and
                        barycentric differentials of every top, computed
                        on each access (no pipeline reads them whole)
    coboundary(k)       sparse integer matrix taking k-cochain values to
                        (k+1)-cochain values, (dc)(s) = sum of signed
                        values of c on the boundary faces of s
    operators           operators derived from the mesh, cached for its
                        lifetime (see hodge.hodge_operator)
    """

    def __init__(self, dim: int, verts: np.ndarray, tops: np.ndarray,
                 level: int):
        if dim not in (1, 2, 3):
            raise ValueError("dimension out of range")
        self.dim = dim
        self.level = level
        self.verts = np.ascontiguousarray(verts, dtype=float)
        tops = np.ascontiguousarray(tops, dtype=np.int64)
        _check_tops(tops, dim, len(self.verts))
        (self.simplices, self.top_faces, self.top_face_parity,
         self._coboundary) = _mesh_tables(tops, dim)
        self.top_volumes = np.empty(len(tops))
        self.metric = np.empty((len(tops), dim + 1, dim + 1))

        def geometry(rows):
            pts = self.verts[tops[rows]]
            flat = np.flatnonzero(det(pts) == 0.0)
            if not len(flat):
                _, self.top_volumes[rows], _, self.metric[rows] = (
                    simplex_geometry(pts))
            return rows.start + flat

        flat = np.concatenate(map_blocks(geometry, len(tops)))
        if len(flat):
            raise ValueError(f"top simplex {flat[0]} {tops[flat[0]].tolist()} "
                             "spans a plane through the origin")
        self._locator = None
        self.operators: dict = {}
        for arr in (self.verts, *self.simplices.values()):
            arr.flags.writeable = False

    # -- basic queries ---------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k])

    @property
    def top_points(self) -> np.ndarray:
        return self.verts[self.simplices[self.dim]]

    @property
    def top_edges(self) -> np.ndarray:
        pts = self.top_points
        return pts[:, 1:, :] - pts[:, :1, :]

    @property
    def barygrad(self) -> np.ndarray:
        return simplex_geometry(self.top_points)[2]

    def coboundary(self, k: int) -> sparse.csr_matrix:
        return self._coboundary[k]

    def euler_characteristic(self) -> int:
        return int(sum((-1) ** k * self.n_simplices(k) for k in range(self.dim + 1)))

    def max_edge_length(self) -> float:
        e = self.simplices[1]
        d = self.verts[e[:, 0]] - self.verts[e[:, 1]]
        return float(np.linalg.norm(d, axis=1).max())

    def signed_volume(self) -> float:
        """Total volume of the flat top simplices, signed by orientation
        (the sign of det[centroid; edges] = det(vertex rows))."""
        signs = np.sign(det(self.top_points))
        return float((signs * self.top_volumes).sum())

    # -- point location ----------------------------------------------------

    def locate(self, points: np.ndarray):
        """Top simplex hit by the ray through each point, with barycentric
        coordinates of the radial intersection.

        The candidates are the tops around the vertex nearest to each
        point; a point that none of them holds is checked against every
        top.  Among the tops holding a point the one holding it deepest
        (largest smallest coordinate) is returned.  Returns (indices,
        bary) and raises "point off mesh" if some point is zero, not
        finite, or in no top within _LOCATE_TOL.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
            raise ValueError("point off mesh")
        unit = points / norms
        if self._locator is None:
            from scipy.spatial import cKDTree  # ~50 ms import, used only here
            self._locator = (cKDTree(self.verts),
                             _vertex_stars(self.simplices[self.dim], len(self.verts)),
                             np.linalg.inv(np.swapaxes(self.top_points, 1, 2)))
        tree, stars, dual = self._locator
        _, near = tree.query(unit)
        idx = np.empty(len(unit), dtype=np.int64)
        bary = np.empty((len(unit), self.dim + 1))
        depth = np.empty(len(unit))

        def nearest_stars(rows):
            cand = stars[near[rows]]
            mu = np.einsum("mcij,mj->mci", dual[cand], unit[rows])
            idx[rows], bary[rows], depth[rows] = _deepest_cone(cand, mu)

        map_blocks(nearest_stars, len(unit))
        every = np.arange(len(dual))[None]
        for i in np.flatnonzero(depth < -_LOCATE_TOL):
            one = slice(i, i + 1)
            idx[one], bary[one], depth[one] = _deepest_cone(
                every, (dual @ unit[i])[None])
        if (depth < -_LOCATE_TOL).any():
            raise ValueError("point off mesh")
        return idx, bary

    # -- io -----------------------------------------------------------------

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.format_ascii())

    def format_ascii(self) -> str:
        buf = io.StringIO()
        buf.write(f"DIM {self.dim} LEVEL {self.level}\n")
        buf.write(f"VERTICES {self.n_simplices(0)}\n")
        for v in self.verts:
            buf.write(" ".join(f"{x:.17g}" for x in v) + "\n")
        tops = self.simplices[self.dim]
        buf.write(f"SIMPLICES {len(tops)}\n")
        for row in tops:
            buf.write(" ".join(str(int(i)) for i in row) + " +1\n")
        return buf.getvalue()

    @classmethod
    def load(cls, path: str) -> "SimplicialSphere":
        with open(path) as fh:
            return cls.parse_ascii(fh.read())

    @classmethod
    def parse_ascii(cls, text: str) -> "SimplicialSphere":
        lines = [(n, ln.split()) for n, ln in enumerate(text.splitlines(), 1)
                 if ln.strip()]

        def fields(i: int, width: int, what: str) -> list:
            if i >= len(lines):
                raise ValueError(f"bad mesh file: truncated, {what} missing")
            n, parts = lines[i]
            if len(parts) != width:
                raise ValueError(f"bad mesh file: line {n} has {len(parts)} "
                                 f"fields, expected {width} for {what}")
            return parts

        head = fields(0, 4, "the DIM/LEVEL header")
        if head[0] != "DIM" or head[2] != "LEVEL":
            raise ValueError("bad mesh file: header is not DIM <n> LEVEL <l>")
        dim, level = int(head[1]), int(head[3])
        nv = int(fields(1, 2, "the VERTICES header")[1])
        verts = np.array([[float(x) for x in fields(2 + i, dim + 1, f"vertex {i}")]
                          for i in range(nv)])
        ns = int(fields(2 + nv, 2, "the SIMPLICES header")[1])
        tops = []
        for i in range(ns):
            *row, flag = (int(x) for x in fields(3 + nv + i, dim + 2, f"simplex {i}"))
            if flag < 0:
                row[-1], row[-2] = row[-2], row[-1]
            tops.append(row)
        return cls(dim, verts, np.array(tops), level)


def build_sphere_mesh(dim: int, level: int) -> SimplicialSphere:
    """Oriented triangulation of S^dim at the given refinement level.

    S^1 is a regular polygon with 8 * 2^level segments, S^2 the
    icosahedron subdivided `level` times, S^3 the once-subdivided
    16-cell boundary subdivided `level` more times; subdivision
    midpoints are projected back to the unit sphere.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dimension out of range")
    if level < 0:
        raise ValueError("level must be >= 0")
    if dim == 1:
        verts, tops = _circle_mesh(level)
    elif dim == 2:
        verts, tops = _icosahedron()
        for _ in range(level):
            verts, tops = _subdivide_triangles(verts, tops)
    else:
        verts, tops = _cross_polytope()
        for _ in range(level + 1):
            verts, tops = _subdivide_tets(verts, tops)
    norms = np.linalg.norm(verts, axis=1, keepdims=True)
    verts = verts / norms
    tops = _orient_outward(verts, tops)
    return SimplicialSphere(dim, verts, tops, level)

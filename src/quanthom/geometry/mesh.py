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

The signed incidence (boundary) matrices are integer matrices and
satisfy boundary-of-boundary = 0 exactly.
"""

from __future__ import annotations

import io
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .quadrature import simplex_rule

SPHERE_VOLUMES = {1: 2.0 * np.pi, 2: 4.0 * np.pi, 3: 2.0 * np.pi ** 2}


def _parity(seq) -> int:
    """Sign of the permutation sorting `seq` (distinct entries)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[j] < seq[i]:
                seq[i], seq[j] = seq[j], seq[i]
                sign = -sign
    return sign


def _orient_outward(verts: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Reorder top simplices so every frame is positive against the radius."""
    tops = tops.copy()
    pts = verts[tops]                       # (n, N+1 vertices, dim)
    centroid = pts.mean(axis=1)
    frames = pts[:, 1:, :] - pts[:, :1, :]  # (n, N, dim)
    mats = np.concatenate([centroid[:, None, :], frames], axis=1)
    dets = np.linalg.det(mats)
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
    """
    edges = pts[:, 1:, :] - pts[:, :1, :]
    gram = np.einsum("tid,tjd->tij", edges, edges)
    det = np.linalg.det(gram)
    volumes = np.sqrt(np.abs(det)) / _factorial(pts.shape[1] - 1)
    inv = np.linalg.inv(gram)
    grads = np.einsum("tij,tjd->tid", inv, edges)  # j=1..N
    grad0 = -grads.sum(axis=1, keepdims=True)
    barygrad = np.concatenate([grad0, grads], axis=1)
    metric = np.einsum("tid,tjd->tij", barygrad, barygrad)
    return edges, volumes, barygrad, metric


def _derive_lower_tables(tops: np.ndarray, dim: int) -> dict[int, np.ndarray]:
    """All k-simplex tables, k < dim, sorted rows in lexicographic order."""
    tables = {dim: tops}
    for k in range(dim - 1, -1, -1):
        faces = []
        for idx in combinations(range(dim + 1), k + 1):
            faces.append(np.sort(tops[:, idx], axis=1))
        allf = np.vstack(faces)
        tables[k] = np.unique(allf, axis=0)
    return tables


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
    tets = []
    for s0 in (0, 4):
        for s1 in (1, 5):
            for s2 in (2, 6):
                for s3 in (3, 7):
                    tets.append([s0, s1, s2, s3])
    return verts, np.array(tets)


def _midpoint_index(cache: dict, verts: list, a: int, b: int) -> int:
    key = (a, b) if a < b else (b, a)
    if key not in cache:
        m = verts[a] + verts[b]
        m = m / np.linalg.norm(m)
        cache[key] = len(verts)
        verts.append(m)
    return cache[key]


def _subdivide_triangles(verts: np.ndarray, tris: np.ndarray):
    vlist = [v for v in verts]
    cache: dict = {}
    out = []
    for t in tris:
        a, b, c = (int(x) for x in t)
        ab = _midpoint_index(cache, vlist, a, b)
        bc = _midpoint_index(cache, vlist, b, c)
        ca = _midpoint_index(cache, vlist, c, a)
        out += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(vlist), np.array(out)


def _subdivide_tets(verts: np.ndarray, tets: np.ndarray):
    vlist = [v for v in verts]
    cache: dict = {}
    out = []
    for t in tets:
        v0, v1, v2, v3 = (int(x) for x in t)
        m01 = _midpoint_index(cache, vlist, v0, v1)
        m02 = _midpoint_index(cache, vlist, v0, v2)
        m03 = _midpoint_index(cache, vlist, v0, v3)
        m12 = _midpoint_index(cache, vlist, v1, v2)
        m13 = _midpoint_index(cache, vlist, v1, v3)
        m23 = _midpoint_index(cache, vlist, v2, v3)
        out += [
            [v0, m01, m02, m03], [v1, m01, m12, m13],
            [v2, m02, m12, m23], [v3, m03, m13, m23],
        ]
        # interior octahedron: split along its shortest diagonal
        diags = [(m01, m23), (m02, m13), (m03, m12)]
        lengths = [np.linalg.norm(vlist[a] - vlist[b]) for a, b in diags]
        a, f = diags[int(np.argmin(lengths))]
        others = [p for p in (m01, m02, m03, m12, m13, m23) if p not in (a, f)]
        # ring of the remaining four vertices around the diagonal: opposite
        # midpoints (disjoint index pairs) are never adjacent
        b0 = others[0]
        opp = {frozenset(d) for d in diags}
        ring = [b0]
        rest = others[1:]
        while rest:
            for p in rest:
                if frozenset((ring[-1], p)) not in opp:
                    ring.append(p)
                    rest.remove(p)
                    break
        r0, r1, r2, r3 = ring
        out += [[a, f, r0, r1], [a, f, r1, r2], [a, f, r2, r3], [a, f, r3, r0]]
    return np.array(vlist), np.array(out)


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
    coboundary(k)       sparse integer matrix taking k-cochain values to
                        (k+1)-cochain values, (dc)(s) = sum of signed
                        values of c on the boundary faces of s
    quad_order          default quadrature order for projections
    operators           operators derived from the mesh, cached for its
                        lifetime (see hodge.hodge_operator)
    """

    def __init__(self, dim: int, verts: np.ndarray, tops: np.ndarray,
                 level: int, quad_order: int = 4,
                 _tables: dict[int, np.ndarray] | None = None):
        if dim not in (1, 2, 3):
            raise ValueError("dimension out of range")
        self.dim = dim
        self.level = level
        self.quad_order = quad_order
        self.verts = np.ascontiguousarray(verts, dtype=float)
        tops = np.ascontiguousarray(tops, dtype=np.int64)
        if _tables is None:
            tables = _derive_lower_tables(tops, dim)
        else:
            tables = dict(_tables)
            tables[dim] = tops
        self.simplices = {k: np.ascontiguousarray(tables[k], dtype=np.int64)
                          for k in range(dim + 1)}
        self._index = {
            k: {tuple(row): i for i, row in enumerate(np.sort(self.simplices[k], axis=1))}
            for k in range(dim + 1)
        }
        self._coboundary = {k: self._build_coboundary(k) for k in range(dim)}
        self._build_geometry()
        self._build_top_face_tables()
        self._tree = None
        self.operators: dict = {}
        for arr in (self.verts, *self.simplices.values()):
            arr.flags.writeable = False

    # -- construction helpers ------------------------------------------

    def _build_coboundary(self, k: int) -> sparse.csr_matrix:
        high = self.simplices[k + 1]
        rows, cols, vals = [], [], []
        lookup = self._index[k]
        for r, simplex in enumerate(high):
            s = [int(v) for v in simplex]
            for i in range(k + 2):
                face = s[:i] + s[i + 1:]
                sign = (-1) ** i * _parity(face)
                cols.append(lookup[tuple(sorted(face))])
                rows.append(r)
                vals.append(sign)
        return sparse.csr_matrix(
            (np.array(vals, dtype=np.int64), (rows, cols)),
            shape=(len(high), len(self.simplices[k])))

    def _build_geometry(self):
        self.top_points = self.verts[self.simplices[self.dim]]
        (self.top_edges, self.top_volumes, self.barygrad,
         self.metric) = simplex_geometry(self.top_points)

    def _build_top_face_tables(self):
        N = self.dim
        tops = self.simplices[N]
        self.top_faces = {}
        self.top_face_parity = {}
        for k in range(N + 1):
            combos = list(combinations(range(N + 1), k + 1))
            idx = np.empty((len(tops), len(combos)), dtype=np.int64)
            par = np.empty_like(idx)
            lookup = self._index[k]
            for slot, combo in enumerate(combos):
                sub = tops[:, combo]
                for t in range(len(tops)):
                    g = [int(v) for v in sub[t]]
                    idx[t, slot] = lookup[tuple(sorted(g))]
                    par[t, slot] = _parity(g)
            self.top_faces[k] = idx
            self.top_face_parity[k] = par

    # -- basic queries ---------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k])

    def coboundary(self, k: int) -> sparse.csr_matrix:
        return self._coboundary[k]

    def euler_characteristic(self) -> int:
        return int(sum((-1) ** k * self.n_simplices(k) for k in range(self.dim + 1)))

    def max_edge_length(self) -> float:
        e = self.simplices[1]
        d = self.verts[e[:, 0]] - self.verts[e[:, 1]]
        return float(np.linalg.norm(d, axis=1).max())

    def signed_volume(self) -> float:
        """Total volume of the flat top simplices, signed by orientation."""
        centroid = self.top_points.mean(axis=1)
        mats = np.concatenate([centroid[:, None, :], self.top_edges], axis=1)
        signs = np.sign(np.linalg.det(mats))
        return float((signs * self.top_volumes).sum())

    def rule(self, k: int, order: int | None = None):
        return simplex_rule(k, order or self.quad_order)

    # -- point location ----------------------------------------------------

    def locate(self, points: np.ndarray, tol: float = 1e-10):
        """Top simplex hit by the ray through each point, with barycentric
        coordinates of the radial intersection.

        Returns (indices, bary).  Raises if some point cannot be located.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
            raise ValueError("point off mesh")
        unit = points / norms
        if self._tree is None:
            cen = self.top_points.mean(axis=1)
            cen /= np.linalg.norm(cen, axis=1, keepdims=True)
            self._tree = cKDTree(cen)
        k = min(16, self.n_simplices(self.dim))
        _, cand = self._tree.query(unit, k=k)
        cand = np.atleast_2d(cand)
        out_idx = np.full(len(unit), -1, dtype=np.int64)
        out_bary = np.zeros((len(unit), self.dim + 1))
        for i, x in enumerate(unit):
            best, best_min = -1, -np.inf
            for t in cand[i]:
                P = self.top_points[t]  # (N+1, dim) square
                try:
                    mu = np.linalg.solve(P.T, x)
                except np.linalg.LinAlgError:
                    continue
                s = mu.sum()
                if s <= 0:
                    continue
                lam = mu / s
                m = lam.min()
                if m > best_min:
                    best, best_min, best_lam = t, m, lam
            if best < 0 or best_min < -tol:
                raise ValueError("point off mesh")
            out_idx[i] = best
            out_bary[i] = best_lam
        return out_idx, out_bary

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
    def load(cls, path: str, quad_order: int = 4) -> "SimplicialSphere":
        with open(path) as fh:
            return cls.parse_ascii(fh.read(), quad_order=quad_order)

    @classmethod
    def parse_ascii(cls, text: str, quad_order: int = 4) -> "SimplicialSphere":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        head = lines[0].split()
        if head[0] != "DIM" or head[2] != "LEVEL":
            raise ValueError("bad mesh header")
        dim, level = int(head[1]), int(head[3])
        nv = int(lines[1].split()[1])
        verts = np.array([[float(x) for x in lines[2 + i].split()]
                          for i in range(nv)])
        ns = int(lines[2 + nv].split()[1])
        tops = []
        for i in range(ns):
            parts = lines[3 + nv + i].split()
            row = [int(x) for x in parts[:-1]]
            if int(parts[-1]) < 0:
                row[-1], row[-2] = row[-2], row[-1]
            tops.append(row)
        return cls(dim, verts, np.array(tops), level, quad_order=quad_order)


@lru_cache(maxsize=None)
def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def build_sphere_mesh(dim: int, level: int, quad_order: int = 4) -> SimplicialSphere:
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
    return SimplicialSphere(dim, verts, tops, level, quad_order=quad_order)

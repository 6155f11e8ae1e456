"""Oriented simplicial meshes of the unit spheres S^1, S^2, S^3.

Base meshes: regular octagon (S^1), icosahedron (S^2), boundary of the
4-dimensional cross-polytope / 16-cell (S^3).  Refinement is uniform
edge-midpoint subdivision followed by radial projection of the new
vertices onto the sphere.  For S^3 the level-0 base is the 16-cell
subdivided once (128 cells): the raw 16-cell's facet centers lie at
radius 1/2, so no midpoint scheme on its 32 level-1 vertices can bring
the flat volume within the documented coarse-mesh tolerance.

Simplices are affine (flat) with vertices on the sphere, and every
vertex lies in some top.  All simplex tables of degree k < N are stored
with vertices in ascending index order (this fixes their orientation);
top simplices are stored in positively oriented vertex order, where a
frame (e_1 .. e_N) of edge vectors is positive iff det[c; e_1; ...; e_N]
= det(vertex rows) > 0 with c the outward (centroid) direction; the
constructor swaps the last two vertices of every top given with det < 0
and refuses det = 0.  It takes that sign in closed form, with no LAPACK
call.  With that convention the fundamental chain is the sum of all top
simplices with coefficient +1 and its boundary vanishes identically.

Every face of a top simplex carries the parity of its vertex order in
the top (the oriented sub-tuple) against its stored row: the sorting
sign for k < N and +1 for the top itself, so a top cochain's Whitney
form integrates to the sum of its values.

The tables come from each top's vertices sorted once: the faces of a
sorted row are sorted, one unique pass per degree numbers them, and
constant tables over the (N+1)! vertex orders give each top's face and
parity on every slot combination (_mesh_tables).

The signed incidence (boundary) matrices are integer matrices and
satisfy boundary-of-boundary = 0 exactly.
"""

from __future__ import annotations

import io
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from decimal import Decimal
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

import numpy as np
from scipy import sparse

from .minors import det, minors, row_norm, row_sum

SPHERE_VOLUMES = {0: 2.0, 1: 2.0 * np.pi, 2: 4.0 * np.pi, 3: 2.0 * np.pi ** 2}

# rows per block of every batched loop over a mesh (map_blocks): the tops
# in the mesh geometry, the simplices of one degree in quadrature and mass
# assembly.  Each helper thread of map_blocks takes its memory from its
# own malloc arena, which keeps about one block's working set; at 1,024
# rows the S^3 level-3 Hopf invariant and the scaling sweeps peak no
# higher than serial loops over 4,096 did.
BLOCK = 1024


def blocks(n: int, size: int) -> list:
    """Consecutive row slices of at most `size` rows covering range(n),
    in ascending order, so block partial sums are added in a fixed order."""
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def workers(n: int) -> int:
    """Workers that task_pool deals n tasks to: min(cores, n)."""
    return min(_cores(), n)


@contextmanager
def task_pool(n: int):
    """A with-block whose value run(fn, tasks) returns [fn(task) for task
    in tasks], a sequence, computed on w = workers(n) workers.

    Task i runs on worker i mod w: worker 0 is the calling thread, the
    others are the threads of a pool that lives for the block and is
    joined when it ends, so a loop of many calls, such as a CG solve's
    matvecs, starts its threads once; w = 1 starts no thread.  The
    results come back in task order, so sums over them in that order do
    not depend on w.  fn must be a pure function of its task: it may
    write its own rows of an output array, and any shared cached table
    must be built before the call.  An exception raised in any task
    propagates from the call.
    """
    w = workers(n)
    if w <= 1:
        yield lambda fn, tasks: [fn(task) for task in tasks]
        return
    with ThreadPoolExecutor(w - 1) as pool:
        def run(fn, tasks) -> list:
            def share(i: int) -> list:
                return [fn(task) for task in tasks[i::w]]

            helpers = [pool.submit(share, i) for i in range(1, w)]
            shares = [share(0)] + [h.result() for h in helpers]
            return [shares[i % w][i // w] for i in range(len(tasks))]

        yield run


def map_tasks(fn, tasks) -> list:
    """[fn(task) for task in tasks], a sequence, computed on every core:
    one call of a task_pool made for len(tasks) tasks."""
    with task_pool(len(tasks)) as run:
        return run(fn, tasks)


def map_scratch(fn, tasks, shape) -> list:
    """[fn(task, scratch) for task in tasks] by map_tasks, scratch a float
    array of `shape` that one worker's tasks share and no other task does,
    made on the calling thread so that no helper thread's arena keeps it."""
    w = workers(len(tasks))
    scratch = np.empty((w, *shape))
    return map_tasks(lambda i: fn(tasks[i], scratch[i % w]), range(len(tasks)))


def map_blocks(fn, n: int) -> list:
    """[fn(rows) for rows in blocks(n, BLOCK)], computed on every core by
    map_tasks, in block order."""
    return map_tasks(fn, blocks(n, BLOCK))


def permutation_sign(rows) -> np.ndarray:
    """Sign of the permutation sorting each row (last axis, distinct entries)."""
    rows = np.asarray(rows)
    inversions = np.zeros(rows.shape[:-1], dtype=np.int64)
    for i, j in combinations(range(rows.shape[-1]), 2):
        inversions += rows[..., i] > rows[..., j]
    return 1 - 2 * (inversions % 2)


def simplex_geometry(pts: np.ndarray):
    """Affine geometry of a batch of N-simplices with vertices pts (t, N+1, d).

    Returns volumes (t,) and the Gram matrices (t, N+1, N+1) of the
    barycentric differentials, the metric of the Whitney-form algebra.

    Both in closed form from the Gram matrix G of the edges from vertex
    0: its determinant gives the volume; its inverse, the adjugate (the
    (N-1) x (N-1) minors) over the determinant, is the Gram matrix of the
    gradients of lambda_1..lambda_N; and the metric is G^{-1} bordered by
    minus its column sums (lambda_0 = 1 - the others) with their total in
    the corner.
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
    metric = np.empty((len(pts), N + 1, N + 1))
    metric[:, 1:, 1:] = inv
    metric[:, 0, 1:] = metric[:, 1:, 0] = -inv.sum(axis=1)
    metric[:, 0, 0] = inv.sum(axis=(1, 2))
    return volumes, metric


def _packed_keys(column, width: int, base: int) -> np.ndarray:
    """One int64 key per row of `width` indices in [0, base), column(j)
    giving column j of the rows: the row in base `base`, first column
    most significant, so the keys order the rows as a lexicographic sort
    would."""
    if base ** width >= 2 ** 63:
        raise ValueError(f"rows of {width} indices below {base} do not "
                         "pack into an int64 key")
    keys = column(0).astype(np.int64)
    for j in range(1, width):
        keys *= base
        keys += column(j)
    return keys


def _unique_keys(keys: np.ndarray):
    """(first, inverse) of np.unique(keys, return_index=True,
    return_inverse=True) for a 1-d array: the first position of each
    distinct key in ascending key order, and the rank of every key among
    the distinct ones.

    One quicksort argsort; the first position of each run of equal keys
    is the least of its sorted positions (np.minimum.reduceat), so no
    stable sort is needed.
    """
    order = np.argsort(keys)
    run = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(run[1:], run[:-1], out=new[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    rank = np.cumsum(new, out=run)          # the sorted keys are done with
    rank -= 1
    inverse = np.empty_like(rank)
    inverse[order] = rank
    return first, inverse


@lru_cache(maxsize=None)
def _local_tables(dim: int):
    """Constant tables over the (dim+1)! orders of a top's vertex slots.

    Permutation p (itertools.permutations order) is the sorting
    permutation of a top: sorted position i holds the top's slot p[i].
    Returns
      code      (n^n,) p's index from its code sum_i p[i] n^i (n = dim+1)
      sign      (n!,) sign of p
      face[k]   (n!, C(n, k+1)) the sorted-slot combination (the slot
                of its row among the k-faces of the sorted top) on each
                combination of the top's slots
      parity[k] (n!, C(n, k+1)) int8 sign of that oriented sub-tuple
                against its sorted row
      drop[k]   (C(n, k+2), k+2) for each sorted-slot (k+1)-face, the
                slots of its k-faces in ascending row order: without its
                vertex k+1, k, ..., 0, with signs (-1)^(k+1), ..., 1
    all read-only.
    """
    n = dim + 1
    perms = np.array(list(permutations(range(n))))
    code = np.full(n ** n, -1, dtype=np.int64)
    code[perms @ n ** np.arange(n)] = np.arange(len(perms))
    rank = np.argsort(perms, axis=1)            # slot j sits at rank[p, j]
    face, parity, drop = {}, {}, {}
    for k in range(dim):
        combos = list(combinations(range(n), k + 1))
        slot = {c: b for b, c in enumerate(combos)}
        sub = rank[:, combos]                   # (n!, C(n, k+1), k+1)
        face[k] = np.array([[slot[tuple(sorted(c))] for c in row]
                            for row in sub.tolist()])
        parity[k] = permutation_sign(sub).astype(np.int8)
        drop[k] = np.array([[slot[c[:i] + c[i + 1:]] for i in range(k + 1, -1, -1)]
                            for c in combinations(range(n), k + 2)])
    tables = (code, permutation_sign(perms), face, parity, drop)
    for arr in (code, tables[1], *face.values(), *parity.values(),
                *drop.values()):
        arr.flags.writeable = False
    return tables


def _mesh_tables(tops: np.ndarray, srt: np.ndarray, order: np.ndarray):
    """Simplex tables, top-face incidences with parities, and coboundaries.

    tops (t, N+1) are the oriented tops, which hold every vertex; srt
    their sorted rows and order the sorting permutations (srt =
    take_along_axis(tops, order, 1)).  Every k-face of a sorted row is
    sorted, so one unique pass over the packed k-faces of the sorted
    rows per degree 0 < k < N gives simplices[k] and each sorted slot's
    face.  Each top's permutation reads off from _local_tables the
    sorted slot and the parity of every combination a of its own slots:
    top_faces[k][t, a] is the k-face on a, and its parity the sign of
    that oriented sub-tuple against the stored row (+1 for k = N, and for
    k = 0, where simplices[0] is every vertex and top_faces[0] the tops).
    Row r of coboundary k is the boundary of stored (k+1)-simplex r,
    read off any top that holds it: its sorted row less vertex i, with
    sign (-1)^i, times the top's permutation sign for k + 1 = N.  The
    faces come in ascending order, as scipy would sort them.  The unique
    passes run as map_tasks tasks, then each degree's incidences.
    """
    n_t, n = tops.shape
    dim = n - 1
    code, sign, face, parity_of, drop = _local_tables(dim)
    perm = code[order @ n ** np.arange(n)]
    n_v = int(srt[:, -1].max()) + 1
    combos = [np.array(list(combinations(range(n), k + 1))) for k in range(n)]

    def unique(k):
        first, inverse = _unique_keys(_packed_keys(
            lambda j: srt[:, combos[k][:, j]].ravel(), k + 1, n_v))
        t, b = np.divmod(first, len(combos[k]))
        return srt[t[:, None], combos[k][b]], first, inverse

    # per degree: the stored rows, a flat (top, sorted slot) position of
    # each, and the face on every flat position (the vertices for k = 0)
    simplices = {0: np.arange(n_v, dtype=np.int64)[:, None], dim: tops}
    held = {dim: np.arange(n_t)}
    faces = {0: srt.ravel()}
    for k, found in zip(range(1, dim), map_tasks(unique, range(1, dim))):
        simplices[k], held[k], faces[k] = found

    def faces_at(k, t, slots):
        """The k-faces on sorted slots `slots` (a new array, overwritten)
        of tops t."""
        slots += len(combos[k]) * t
        return faces[k][slots]

    def incidences(k):
        """Coboundary k, top_faces[k] and its parities."""
        on_slots = (faces_at(k, np.arange(n_t)[:, None], face[k][perm]) if k
                    else tops)
        t, b = np.divmod(held[k + 1], len(combos[k + 1]))
        cols = faces_at(k, t[:, None], drop[k][b])
        signs = (-1) ** np.arange(k + 1, -1, -1)
        signs = (sign[perm][:, None] * signs if k + 1 == dim
                 else np.tile(signs, len(t)))
        coboundary = sparse.csr_matrix(
            (signs.ravel(), cols.ravel(), np.arange(0, cols.size + 1, k + 2)),
            shape=(len(t), len(simplices[k])))
        return coboundary, on_slots, parity_of[k][perm]

    coboundaries, top_faces, parity = {}, {}, {}
    for k, found in enumerate(map_tasks(incidences, range(dim))):
        coboundaries[k], top_faces[k], parity[k] = found
    top_faces[dim] = np.arange(n_t, dtype=np.int64)[:, None]
    parity[dim] = np.ones((n_t, 1), dtype=np.int8)
    return simplices, top_faces, parity, coboundaries


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
    verts /= row_norm(verts)[:, None]
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
    (minors.row_norm, np.linalg.norm(axis=1) and einsum add in other
    orders); the refinement's midpoints rest on these bits."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _midpoints(verts: np.ndarray, pairs: np.ndarray):
    """Append the projected midpoints of the vertex pairs (..., 2), one per
    distinct edge numbered by first appearance; returns the extended
    vertices and the new vertex number of every pair."""
    rows = np.sort(pairs, axis=-1).reshape(-1, 2)
    first, inv = _unique_keys(_packed_keys(lambda j: rows[:, j], 2, len(verts)))
    order = np.argsort(first)
    edges = rows[first[order]]
    mid = verts[edges[:, 0]] + verts[edges[:, 1]]
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
    """Reject top-simplex tables that cannot describe a simplicial complex
    on all n_v vertices; return the sorting permutation of every top and
    its sorted row."""
    if not len(tops):
        raise ValueError("no top simplices")
    if tops.ndim != 2 or tops.shape[1] != dim + 1:
        raise ValueError(f"top simplex 0 has shape {tops.shape[1:]}, "
                         f"expected ({dim + 1},) vertex indices")
    order = np.argsort(tops, axis=1)
    srt = np.take_along_axis(tops, order, axis=1)
    for bad, what in (((srt[:, 0] < 0) | (srt[:, -1] >= n_v),
                       f"a vertex index outside [0, {n_v})"),
                      ((srt[:, 1:] == srt[:, :-1]).any(axis=1), "a repeated vertex")):
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"top simplex {i} {tops[i].tolist()} has {what}")
    used = np.zeros(n_v, dtype=bool)
    used[tops] = True
    if not used.all():
        raise ValueError(f"vertex {int(used.argmin())} is in no top simplex")
    return order, srt


def _orientation(pts: np.ndarray) -> np.ndarray:
    """det of the vertex rows pts (t, n, n) of a batch of tops, read for
    its sign: in closed form (minors.det) for n <= 3, and for n = 4 by
    Laplace expansion along the first row through the closed-form 3 x 3
    minors of the other rows, as LAPACK on blocks of 4 x 4 matrices is
    slower (and slower still on two threads than on one)."""
    n = pts.shape[-1]
    if n <= 3:
        return det(pts)
    cofactors = minors(pts[:, 1:], n - 1)[:, 0, ::-1]   # without column j
    return row_sum((-1.0) ** np.arange(n) * pts[:, 0] * cofactors)


# ----------------------------------------------------------------------
# mesh
# ----------------------------------------------------------------------

class SimplicialSphere:
    """Oriented simplicial approximation of S^N with its discrete calculus.

    Orients the given tops by their geometry (see the module docstring)
    and is immutable after construction.  Attributes of interest:

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
    top_points          (n_N, N+1, N+1) vertices of every top in stored
                        order, gathered on each access; det > 0 for all
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
        order, srt = _check_tops(tops, dim, len(self.verts))
        tops = tops.copy()
        swap = np.r_[:dim - 1, dim, dim - 1]

        # swap the last two vertices of a block's inward tops, and the slots
        # in their sorting permutations; find its flat ones
        def orient(rows):
            sign = _orientation(self.verts[tops[rows]])
            inward = rows.start + np.flatnonzero(sign < 0.0)
            tops[inward, -2:] = tops[inward, -2:][:, ::-1]
            order[inward] = swap[order[inward]]
            return rows.start + np.flatnonzero(sign == 0.0)

        flat = np.concatenate(map_blocks(orient, len(tops)))
        if len(flat):
            raise ValueError(f"top simplex {flat[0]} {tops[flat[0]].tolist()} "
                             "spans a plane through the origin")
        (self.simplices, self.top_faces, self.top_face_parity,
         self._coboundary) = _mesh_tables(tops, srt, order)
        del order, srt              # not held through the geometry pass
        self.top_volumes = np.empty(len(tops))
        self.metric = np.empty((len(tops), dim + 1, dim + 1))

        def geometry(rows):
            self.top_volumes[rows], self.metric[rows] = (
                simplex_geometry(self.verts[tops[rows]]))

        map_blocks(geometry, len(tops))
        self.operators: dict = {}
        for arr in (self.verts, *self.simplices.values()):
            arr.flags.writeable = False

    # -- basic queries ---------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k])

    @property
    def top_points(self) -> np.ndarray:
        return self.verts[self.simplices[self.dim]]

    def coboundary(self, k: int) -> sparse.csr_matrix:
        return self._coboundary[k]

    def euler_characteristic(self) -> int:
        return int(sum((-1) ** k * self.n_simplices(k) for k in range(self.dim + 1)))

    # -- io -----------------------------------------------------------------

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.format_ascii())

    def format_ascii(self) -> str:
        buf = io.StringIO()
        buf.write(f"DIM {self.dim} LEVEL {self.level}\n")
        buf.write(f"VERTICES {self.n_simplices(0)}\n")
        np.savetxt(buf, self.verts, fmt="%.17g")
        tops = self.simplices[self.dim]
        buf.write(f"SIMPLICES {len(tops)}\n")
        np.savetxt(buf, tops, fmt="%d", newline=" +1\n")
        return buf.getvalue()

    @classmethod
    def load(cls, path: str) -> "SimplicialSphere":
        with open(path) as fh:
            return cls.parse_ascii(fh.read())

    @classmethod
    def parse_ascii(cls, text: str) -> "SimplicialSphere":
        lines = [(n, ln.split()) for n, ln in enumerate(text.splitlines(), 1)
                 if ln.strip()]

        def fields(i: int, what: str, *kinds) -> tuple:
            """(line number, line i's fields converted by `kinds`)."""
            if i >= len(lines):
                raise ValueError(f"bad mesh file: truncated, {what} missing")
            n, parts = lines[i]
            if len(parts) != len(kinds):
                raise ValueError(f"bad mesh file: line {n} has {len(parts)} "
                                 f"fields, expected {len(kinds)} for {what}")
            try:
                return n, [kind(x) for kind, x in zip(kinds, parts)]
            except ValueError as err:
                raise ValueError(f"bad mesh file: line {n}: {err} ({what})") from None

        def count(i: int, key: str) -> int:
            n, (word, value) = fields(i, f"the {key} header", str, int)
            if word != key or value < 0:
                raise ValueError(f"bad mesh file: line {n} is not {key} <count >= 0>")
            return value

        n, (d, dim, lv, level) = fields(0, "the DIM/LEVEL header", str, int, str, int)
        if d != "DIM" or lv != "LEVEL":
            raise ValueError(f"bad mesh file: line {n} is not DIM <n> LEVEL <l>")
        if dim not in (1, 2, 3) or level < 0:
            raise ValueError(f"bad mesh file: line {n} has DIM {dim} LEVEL "
                             f"{level}, expected DIM 1, 2 or 3 and LEVEL >= 0")
        nv = count(1, "VERTICES")
        verts = np.array([fields(2 + i, f"vertex {i}", *[float] * (dim + 1))[1]
                          for i in range(nv)])
        bad = np.flatnonzero(~np.isfinite(verts).all(axis=-1))
        if len(bad):
            raise ValueError(f"bad mesh file: line {lines[2 + bad[0]][0]} has a "
                             f"non-finite coordinate (vertex {bad[0]})")
        ns = count(2 + nv, "SIMPLICES")
        tops = []
        for i in range(ns):
            n, (*row, flag) = fields(3 + nv + i, f"simplex {i}", *[int] * (dim + 2))
            if flag not in (1, -1):
                raise ValueError(f"bad mesh file: line {n} has orientation flag "
                                 f"{flag}, expected +1 or -1")
            tops.append(row)
        if len(lines) > 3 + nv + ns:
            raise ValueError(f"bad mesh file: line {lines[3 + nv + ns][0]} "
                             "follows the last simplex")
        return cls(dim, verts, np.array(tops), level)


# peak bytes per top of the S^3 level-4 Hopf invariant, its mesh and the
# operators built on it: 1.17 GB for 524,288 tops when it was set.  With
# no M_1 in the operator that peak is 857 MB (817 MiB of RSS, 1,634 B per
# top, on a 2-core machine with 8.4 GB), but the figure stays until S^3
# level 5 is shown to fit: at 1,634 B its 6.9 GB estimate would pass that
# machine's check, and level 5 has never been run
_PEAK_BYTES_PER_TOP = 2232
_BASE_TOPS = {1: 8, 2: 20, 3: 128}


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_level_fits(dim: int, level: int):
    """Refuse a level whose estimated peak, its tops times
    _PEAK_BYTES_PER_TOP, exceeds physical memory, before anything is
    allocated."""
    if dim not in (1, 2, 3):
        raise ValueError("dimension out of range")
    if level < 0:
        raise ValueError("level must be >= 0")
    memory = _physical_memory()
    # past memory's bit length 2^(dim level) alone exceeds it: cut there
    bits = min(dim * level, memory.bit_length())
    estimate = _BASE_TOPS[dim] * 2 ** bits * _PEAK_BYTES_PER_TOP
    if estimate > memory:
        raise ValueError(
            f"S^{dim} level {level} needs an estimated "
            f"{Decimal(estimate) / 10 ** 9:.3g} GB"
            f"{' or more' if bits < dim * level else ''} at its peak, more "
            f"than the {memory / 1e9:.3g} GB of physical memory")


def build_sphere_mesh(dim: int, level: int) -> SimplicialSphere:
    """Oriented triangulation of S^dim at the given refinement level.

    S^1 is a regular polygon with 8 * 2^level segments, S^2 the
    icosahedron subdivided `level` times, S^3 the once-subdivided
    16-cell boundary subdivided `level` more times; subdivision
    midpoints are projected back to the unit sphere.  A level whose
    estimated peak exceeds physical memory is refused (check_level_fits).
    """
    check_level_fits(dim, level)
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
    verts = verts / row_norm(verts)[:, None]
    return SimplicialSphere(dim, verts, tops, level)

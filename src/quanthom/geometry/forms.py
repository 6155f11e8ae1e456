"""Smooth forms on the sphere meshed by flat simplices.

Analytic k-forms are pulled back through the radial projection
P(x) = x/|x|, which maps each flat simplex bijectively onto its curved
spherical patch.  Integrating the pullback over the flat complex equals
integrating the form over the sphere, so a de Rham projection is exact
up to quadrature error only, and it commutes with d to the same order.

A k-form evaluator is a vectorized callable

    form(points, frames) -> values

with `points` of shape (m, dim) on the sphere and `frames` of shape
(m, k, dim) holding k tangent vectors per point; 0-forms receive
frames of shape (m, 0, dim).  Wedge products use the shuffle
(determinant) convention, (a ^ b)(u, v) = a(u) b(v) - a(v) b(u).

The wedge integrand needs each factor on every k-subset of the N edge
vectors of a top.  An analytic factor receives the whole N-frame at once
(FormField.on_frame_subsets); a pullback f^*(omega) evaluates f and Df
once per quadrature node, pushes all N frame vectors through Df, and
only selects vectors per subset.  Whitney forms are evaluated through
the same determinant kernel (geometry.minors) on the reference simplex
and at arbitrary points alike.

Curved frames are built per simplex (radial_projection): with r = |x|
and u = x/r at its nodes x, one (nodes x dim) @ (dim x k) product gives
e.u for all k edge vectors e of the simplex, and the frame vectors are
dP_x(e) = (e - (e.u) u)/r.

Projections, wedge integrals and the sphere quadrature run over the
simplices in blocks of a fixed size (mesh.blocks), so the nodes and
frames of the whole mesh are never held at once; block integrals are
added in block order, which keeps every result the same from run to run.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from .cochain import Cochain
from .mesh import blocks, permutation_sign
from .minors import det, minors, whitney_table
from .quadrature import simplex_rule

# quadrature order of projections and wedge integrals unless a caller asks
# for another: exact to degree 5, 14 nodes per tet and 9 per triangle
DEFAULT_ORDER = 4


class FormField:
    """Analytic k-form on the sphere wrapping a vectorized evaluator."""

    def __init__(self, degree: int, evaluator, name: str = ""):
        self.degree = degree
        self._evaluator = evaluator
        self.name = name

    def __call__(self, points: np.ndarray, frames: np.ndarray) -> np.ndarray:
        return self._evaluator(points, frames)

    def on_frame_subsets(self, points: np.ndarray, frames: np.ndarray,
                         subsets) -> np.ndarray:
        """Values (m, len(subsets)) on the sub-frames frames[:, sub] of one
        frame (m, n, dim) per point, one evaluation per subset."""
        return np.stack([self(points, frames[:, list(sub), :])
                         for sub in subsets], axis=-1)

    def __repr__(self):
        return f"FormField(degree={self.degree}, name={self.name!r})"


def radial_projection(points: np.ndarray, edges: np.ndarray):
    """P(x) = x/|x| at the quadrature nodes of a batch of flat simplices
    and its differential applied to their edge vectors.

    `points` (n, q, dim) holds the q nodes of each of n simplices and
    `edges` (n, k, dim) their k edge vectors.  Returns P at the nodes,
    (n, q, dim), and the curved frames (n, q, k, dim),
    dP_x(e) = (e - (e.u) u) / r with r = |x| and u = x/r; the products
    e.u are one (q, dim) @ (dim, k) product per simplex.
    """
    r = np.linalg.norm(points, axis=-1, keepdims=True)
    unit = points / r
    eu = unit @ np.ascontiguousarray(np.swapaxes(edges, 1, 2))  # (n, q, k)
    frames = edges[:, None] - np.einsum("nqk,nqd->nqkd", eu, unit)
    frames /= r[..., None]
    return unit, frames


# ----------------------------------------------------------------------
# quadrature frames on the mesh
# ----------------------------------------------------------------------

def _arc_nodes_frames(pts: np.ndarray, u: np.ndarray):
    """Angle-parametrized quadrature of circle arcs.

    pts is (n_edges, 2, 2); returns nodes (n, q, 2) and frames
    (n, q, 1, 2) for the parametrization phi(u) = phi0 + u*dphi, which
    integrates constant-rate integrands like f*(dtheta) exactly.
    """
    p0, p1 = pts[:, 0, :], pts[:, 1, :]
    phi0 = np.arctan2(p0[:, 1], p0[:, 0])
    dphi = np.arctan2(p0[:, 0] * p1[:, 1] - p0[:, 1] * p1[:, 0],
                      (p0 * p1).sum(axis=1))
    ang = phi0[:, None] + u[None, :] * dphi[:, None]
    nodes = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    tang = np.stack([-np.sin(ang), np.cos(ang)], axis=2) * dphi[:, None, None]
    return nodes, tang[:, :, None, :]


def _nodes_and_frames(mesh, k: int, order: int, curved: bool, rows: slice):
    """Quadrature nodes of the k-simplices `rows` with their edge-vector
    frames.

    Returns (points, frames, weights) with shapes (n_b, n_q, dim),
    (n_b, n_q, k, dim) and (n_q,) for the n_b simplices of the block.
    With `curved` the nodes are radially projected and the simplex's edge
    vectors are pushed through dP at each node (radial_projection); circle
    edges use the angle parametrization instead.
    """
    bary, w = simplex_rule(k, order)
    pts = mesh.verts[mesh.simplices[k][rows]]     # (n_b, k+1, dim)
    if curved and mesh.dim == 1 and k == 1:
        nodes, frames = _arc_nodes_frames(pts, bary[:, 1])
        return nodes, frames, w
    nodes = bary @ pts                            # (n_b, n_q, dim)
    edges = pts[:, 1:, :] - pts[:, :1, :]         # (n_b, k, dim)
    if curved:
        return (*radial_projection(nodes, edges), w)
    return nodes, np.repeat(edges[:, None], len(w), axis=1), w


def de_rham_project(form, mesh, degree: int | None = None,
                    order: int = DEFAULT_ORDER, curved: bool = True) -> Cochain:
    """Cochain of quadrature integrals of `form` over the k-simplices.

    `form` is a k-form evaluator; its integral over each simplex is the
    integral over the curved (radially projected) patch unless
    `curved=False`, which integrates over the flat simplex instead.  The
    simplices are integrated block by block (mesh.blocks).
    """
    k = form.degree if degree is None else degree
    if k > 0 and order < 2:
        raise ValueError("projection quadrature order must be >= 2")
    if k == 0:
        pts = mesh.verts
        vals = form(pts, np.zeros((len(pts), 0, pts.shape[1])))
        return Cochain(mesh, 0, vals)
    integrals = np.empty(mesh.n_simplices(k))
    for rows in blocks(len(integrals)):
        nodes, frames, w = _nodes_and_frames(mesh, k, order, curved, rows)
        n_b, n_q, _, dim = frames.shape
        vals = form(nodes.reshape(-1, dim), frames.reshape(-1, k, dim))
        integrals[rows] = vals.reshape(n_b, n_q) @ w / factorial(k)
    return Cochain(mesh, k, integrals)


def sphere_quadrature(mesh, order: int = DEFAULT_ORDER):
    """Global quadrature for scalar surface integrals over the sphere.

    Returns (points, weights) with points on the unit sphere; weights
    include the curved area element, so weights.sum() approximates the
    sphere volume |S^N|.
    """
    N = mesh.dim
    n_q = len(simplex_rule(N, order)[1])
    points = np.empty((mesh.n_simplices(N), n_q, mesh.verts.shape[1]))
    weights = np.empty((mesh.n_simplices(N), n_q))
    for rows in blocks(len(points)):
        nodes, frames, w = _nodes_and_frames(mesh, N, order, True, rows)
        mats = np.concatenate([nodes[:, :, None, :], frames], axis=2)
        points[rows] = nodes
        weights[rows] = det(mats) * w / factorial(N)  # curved area density
    return points.reshape(-1, points.shape[-1]), weights.reshape(-1)


# ----------------------------------------------------------------------
# Whitney forms
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _edge_subsets(N: int, k: int) -> tuple:
    """Sorted k-subsets of the N edge slots, in a fixed order."""
    return tuple(combinations(range(N), k))


def _whitney_basis(lam: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """Whitney forms of all local k-faces of an N-simplex on k vectors.

    `lam` (..., N+1) holds barycentric coordinates and `dl` (..., N+1, k)
    the barycentric differentials applied to the k vectors; returns
    (..., C(N+1, k+1)) values, slots in lexicographic local vertex order.
    """
    N, k = dl.shape[-2] - 1, dl.shape[-1]
    T = whitney_table(N, k)                       # (N+1, faces, slots)
    terms = lam[..., :, None] * minors(dl, k)[..., None, :, 0]
    flat = terms.reshape(terms.shape[:-2] + (-1,))
    return factorial(k) * (flat @ T.reshape(-1, T.shape[2]))


@lru_cache(maxsize=None)
def _whitney_edge_tensor(N: int, k: int, order: int):
    """Reference tensor W[slot, node, subset]: Whitney forms of the local
    k-faces evaluated on edge-vector subsets at the quadrature nodes.

    Simplex-independent: dlambda_j(e_i) = delta(j, i+1) - delta(j, 0)
    for the edge vectors e_i = p_i - p_0 of any affine simplex.
    """
    bary, _ = simplex_rule(N, order)
    dl = np.eye(N + 1, N, k=-1)
    dl[0] = -1.0
    sub_dl = np.stack([dl[:, list(sub)] for sub in _edge_subsets(N, k)])
    W = _whitney_basis(bary[:, None, :], sub_dl[None]).transpose(2, 0, 1)
    W = np.ascontiguousarray(W)
    W.flags.writeable = False
    return W


def _whitney_coefficients(c: Cochain, tops) -> np.ndarray:
    """Cochain values gathered on the top simplices `tops` (a slice or an
    index array) with orientation parities: (n_tops, slots)."""
    mesh, k = c.mesh, c.degree
    return c.values[mesh.top_faces[k][tops]] * mesh.top_face_parity[k][tops]


def whitney_values_on_frames(c: Cochain, tri_idx: np.ndarray,
                             bary: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Whitney interpolant of `c` at barycentric points of given top
    simplices, evaluated on arbitrary tangent frames (m, k, dim)."""
    mesh = c.mesh
    coef = _whitney_coefficients(c, tri_idx)              # (m, n_slots)
    # dlambda_j(v_i) with the true barycentric gradients of each simplex
    dl = mesh.barygrad[tri_idx] @ np.swapaxes(frames, 1, 2)  # (m, N+1, k)
    return (coef * _whitney_basis(bary, dl)).sum(axis=1)


def whitney_interpolate(c: Cochain, x, vectors=None):
    """Value of the Whitney form of `c` at surface point(s) x.

    For a 0-cochain returns the scalar value; for k >= 1 `vectors`
    supplies the k tangent vectors (shape (k, dim) for a single point or
    (m, k, dim) batched).  Points are located by radial projection into
    the flat complex.
    """
    mesh = c.mesh
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    idx, bary = mesh.locate(pts)
    if c.degree == 0:
        vals = whitney_values_on_frames(c, idx, bary,
                                        np.zeros((len(pts), 0, pts.shape[1])))
    else:
        if vectors is None:
            raise ValueError("tangent vectors required for a k-form value")
        frames = np.asarray(vectors, dtype=float)
        if frames.ndim == 2:
            frames = np.broadcast_to(frames[None], (len(pts),) + frames.shape)
        vals = whitney_values_on_frames(c, idx, bary, frames)
    return float(vals[0]) if single else vals


# ----------------------------------------------------------------------
# wedge integration
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _shuffles(degrees: tuple, N: int) -> tuple:
    """All block-increasing partitions of range(N) with their signs."""
    if sum(degrees) != N:
        raise ValueError("wedge degree != N")
    out = []

    def rec(remaining, blocks):
        if not remaining and len(blocks) == len(degrees):
            perm = [i for b in blocks for i in b]
            out.append((tuple(blocks), int(permutation_sign(perm))))
            return
        j = len(blocks)
        if j == len(degrees):
            return
        for sub in combinations(sorted(remaining), degrees[j]):
            rec(remaining - set(sub), blocks + [sub])

    rec(set(range(N)), [])
    return tuple(out)


def integrate_wedge(factors, mesh, order: int = DEFAULT_ORDER) -> float:
    """Integral over the sphere of the wedge of the given factors.

    Each factor is either an analytic k-form evaluator (pulled back
    through the radial projection) or a Cochain (evaluated as its
    Whitney form on the flat complex).  Degrees must sum to N.  The tops
    are integrated block by block (mesh.blocks) and the block integrals
    added in block order.
    """
    N = mesh.dim
    degrees = tuple(f.degree for f in factors)
    if sum(degrees) != N:
        raise ValueError("wedge degree != N")
    if any(isinstance(f, Cochain) and f.mesh is not mesh for f in factors):
        raise ValueError("cochain belongs to a different mesh")
    _, w = simplex_rule(N, order)
    total = 0.0
    for rows in blocks(mesh.n_simplices(N)):
        total += float((_wedge_integrand(factors, mesh, order, rows) @ w).sum())
    return total / factorial(N)


def _wedge_integrand(factors, mesh, order: int, rows: slice) -> np.ndarray:
    """Wedge of the factors at the quadrature nodes of the tops `rows`,
    on their edge frames: (n_b, n_q)."""
    N = mesh.dim
    dim = mesh.verts.shape[1]
    n_q = len(simplex_rule(N, order)[1])
    if any(not isinstance(f, Cochain) for f in factors):
        # curved nodes and frames of the projection; on S^1 the single
        # factor is analytic here, so the exact arc parametrization is
        # never shared with a flat Whitney factor
        pts_c, frames_c, _ = _nodes_and_frames(mesh, N, order, True, rows)
        pts_c, frames_c = pts_c.reshape(-1, dim), frames_c.reshape(-1, N, dim)

    # factor values per edge subset; an analytic factor sees the whole
    # edge frame at once, so a pullback evaluates f and Df once per node
    values = []
    for f in factors:
        subsets = _edge_subsets(N, f.degree)
        if isinstance(f, Cochain):
            W = _whitney_edge_tensor(N, f.degree, order)   # (slots, q, subs)
            vals = _whitney_coefficients(f, rows) @ W.reshape(len(W), -1)
        else:
            vals = f.on_frame_subsets(pts_c, frames_c, subsets)
        index = {sub: i for i, sub in enumerate(subsets)}
        values.append((vals.reshape(-1, n_q, len(subsets)), index))

    integrand = 0.0
    for parts, sign in _shuffles(tuple(f.degree for f in factors), N):
        term = float(sign)
        for (vals, index), sub in zip(values, parts):
            term = term * vals[:, :, index[sub]]
        integrand = integrand + term
    return integrand

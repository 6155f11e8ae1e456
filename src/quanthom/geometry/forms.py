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
the same determinant kernel (geometry.minors) on the reference simplex.

Curved frames are built per simplex (radial_projection): with r = |x|
and u = x/r at its nodes x, one (nodes x dim) @ (dim x k) product gives
e.u for all k edge vectors e of the simplex, and the frame vectors are
dP_x(e) = (e - (e.u) u)/r.

Each stage owns its simplex rule (quadrature.simplex_rule), named by its
exact degree: PROJECT_DEGREE for projections, WEDGE_DEGREE for the wedge
of a top-degree pullback and the sphere quadrature, CS_WEDGE_DEGREE for
the wedges of the corrected Hopf-type estimate (invariants.hardt_riviere),
whose Chern-Simons term, a product of two affine Whitney forms per top,
that rule integrates exactly.  All three run over the simplices in
blocks of a fixed size on every core (mesh.map_blocks), so the nodes and
frames of the whole mesh are never held at once.  A block's work is a
pure function of its rows, with every cached table built before the
blocks run, and block integrals are added in block order, so every
result is the same bits from run to run and at any core count.  Form
evaluators must therefore be safe to call from several threads at once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from .cochain import Cochain
from .mesh import map_blocks, permutation_sign
from .minors import det, minors, row_norm, row_sum, whitney_table
from .quadrature import simplex_rule

# nodes per segment / triangle / tet: 3 / 7 / 14 at WEDGE_DEGREE,
# 4 / 12 / - at PROJECT_DEGREE (no tet rule: no 3-form is projected) and
# - / - / 4 at CS_WEDGE_DEGREE (only S^3 has terms with L = 1)
WEDGE_DEGREE = 5
CS_WEDGE_DEGREE = 2
PROJECT_DEGREE = 7


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
    r = row_norm(points)[..., None]
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
                      row_sum(p0 * p1))
    ang = phi0[:, None] + u[None, :] * dphi[:, None]
    nodes = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    tang = np.stack([-np.sin(ang), np.cos(ang)], axis=2) * dphi[:, None, None]
    return nodes, tang[:, :, None, :]


def _nodes_and_frames(mesh, bary: np.ndarray, rows: slice):
    """Curved quadrature nodes of the k-simplices `rows` at the barycentric
    points `bary` (n_q, k+1), with their curved edge-vector frames.

    Returns (points, frames) with shapes (n_b, n_q, dim) and
    (n_b, n_q, k, dim) for the n_b simplices of the block.  The nodes are
    radially projected and the simplex's edge vectors are pushed through
    dP at each node (radial_projection); circle edges use the angle
    parametrization instead.
    """
    k = bary.shape[1] - 1
    pts = mesh.verts[mesh.simplices[k][rows]]     # (n_b, k+1, dim)
    if mesh.dim == 1:
        return _arc_nodes_frames(pts, bary[:, 1])
    nodes = bary @ pts                            # (n_b, n_q, dim)
    edges = pts[:, 1:, :] - pts[:, :1, :]         # (n_b, k, dim)
    return radial_projection(nodes, edges)


def de_rham_project(form, mesh) -> Cochain:
    """Cochain of quadrature integrals of `form` over the k-simplices.

    `form` is a k-form evaluator; its integral over each simplex is the
    integral over the curved (radially projected) patch, by the rule of
    degree PROJECT_DEGREE.  The simplices are integrated block by block
    (mesh.map_blocks).
    """
    k = form.degree
    if k == 0:
        pts = mesh.verts
        vals = form(pts, np.zeros((len(pts), 0, pts.shape[1])))
        return Cochain(mesh, 0, vals)
    bary, w = simplex_rule(k, PROJECT_DEGREE)
    integrals = np.empty(mesh.n_simplices(k))

    def integrate(rows):
        nodes, frames = _nodes_and_frames(mesh, bary, rows)
        n_b, n_q, _, dim = frames.shape
        vals = form(nodes.reshape(-1, dim), frames.reshape(-1, k, dim))
        integrals[rows] = vals.reshape(n_b, n_q) @ w / factorial(k)

    map_blocks(integrate, len(integrals))
    return Cochain(mesh, k, integrals)


def sphere_quadrature(mesh):
    """Global quadrature for scalar surface integrals over the sphere.

    Returns (points, weights) with points on the unit sphere; weights
    include the curved area element, so weights.sum() approximates the
    sphere volume |S^N|.
    """
    N = mesh.dim
    bary, w = simplex_rule(N, WEDGE_DEGREE)
    points = np.empty((mesh.n_simplices(N), len(w), mesh.verts.shape[1]))
    weights = np.empty((mesh.n_simplices(N), len(w)))

    def nodes_and_weights(rows):
        nodes, frames = _nodes_and_frames(mesh, bary, rows)
        mats = np.concatenate([nodes[:, :, None, :], frames], axis=2)
        points[rows] = nodes
        weights[rows] = det(mats) * w / factorial(N)  # curved area density

    map_blocks(nodes_and_weights, len(points))
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
def _whitney_edge_tensor(N: int, k: int, degree: int):
    """Reference tensor W[slot, node, subset]: Whitney forms of the local
    k-faces evaluated on edge-vector subsets at the nodes of the wedge
    rule of `degree`.

    Simplex-independent: dlambda_j(e_i) = delta(j, i+1) - delta(j, 0)
    for the edge vectors e_i = p_i - p_0 of any affine simplex.
    """
    bary, _ = simplex_rule(N, degree)
    dl = np.eye(N + 1, N, k=-1)
    dl[0] = -1.0
    sub_dl = np.stack([dl[:, list(sub)] for sub in _edge_subsets(N, k)])
    W = _whitney_basis(bary[:, None, :], sub_dl[None]).transpose(2, 0, 1)
    W = np.ascontiguousarray(W)
    W.flags.writeable = False
    return W


# ----------------------------------------------------------------------
# wedge integration
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _shuffles(degrees: tuple, N: int) -> tuple:
    """All block-increasing partitions of range(N) with their signs, each
    part named by its column in the _edge_subsets(N, k) order."""
    out = []

    def rec(remaining, blocks):
        if len(blocks) == len(degrees):
            perm = [i for b in blocks for i in b]
            cols = tuple(_edge_subsets(N, len(b)).index(b) for b in blocks)
            out.append((cols, int(permutation_sign(perm))))
            return
        for sub in combinations(sorted(remaining), degrees[len(blocks)]):
            rec(remaining - set(sub), blocks + [sub])

    rec(set(range(N)), [])
    return tuple(out)


def integrate_wedge(factors, mesh, degree: int = WEDGE_DEGREE) -> float:
    """Integral over the sphere of the wedge of the given factors.

    Each factor is either an analytic k-form evaluator (pulled back
    through the radial projection) or a Cochain (evaluated as its
    Whitney form on the flat complex).  Degrees must sum to N.  `degree`
    names the calling stage's rule on the tops (WEDGE_DEGREE or
    CS_WEDGE_DEGREE).  On each block of tops (mesh.map_blocks, added in
    block order) the integrand is the signed sum over the shuffles of
    products of the factors' values on their edge subsets.
    """
    N = mesh.dim
    dim = mesh.verts.shape[1]
    degrees = tuple(f.degree for f in factors)
    if sum(degrees) != N:
        raise ValueError("wedge degree != N")
    if any(isinstance(f, Cochain) and f.mesh is not mesh for f in factors):
        raise ValueError("cochain belongs to a different mesh")
    bary, w = simplex_rule(N, degree)
    # the cached tables, built here and only read by the blocks: each
    # factor's edge subsets and, for a cochain, its reference tensor
    tables = [(f, _edge_subsets(N, f.degree),
               _whitney_edge_tensor(N, f.degree, degree)
               if isinstance(f, Cochain) else None) for f in factors]
    shuffles = _shuffles(degrees, N)

    def block_integral(rows):
        if any(W is None for _, _, W in tables):
            # curved nodes and frames of the projection; on S^1 the single
            # factor is analytic here, so the exact arc parametrization is
            # never shared with a flat Whitney factor
            pts, frames = _nodes_and_frames(mesh, bary, rows)
            pts, frames = pts.reshape(-1, dim), frames.reshape(-1, N, dim)
        # factor values per edge subset; an analytic factor sees the whole
        # edge frame at once, so a pullback evaluates f and Df once per node
        values = []
        for f, subsets, W in tables:
            if W is None:
                vals = f.on_frame_subsets(pts, frames, subsets)
            else:      # face values signed by parity, @ W (slots, q, subs)
                k = f.degree
                vals = (f.values[mesh.top_faces[k][rows]]
                        * mesh.top_face_parity[k][rows]) @ W.reshape(len(W), -1)
            values.append(vals.reshape(-1, len(w), len(subsets)))
        integrand = 0.0
        for cols, sign in shuffles:
            term = float(sign)
            for vals, col in zip(values, cols):
                term = term * vals[:, :, col]
            integrand = integrand + term
        return float((integrand @ w).sum())

    total = 0.0
    for part in map_blocks(block_integral, mesh.n_simplices(N)):
        total += part
    return total / factorial(N)

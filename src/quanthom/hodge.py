"""Whitney mass matrices, the codifferential and the antiderivative d^{-1}.

Whitney (Galerkin) mass matrices realize the L^2 pairing of k-forms on
the flat complex; the codifferential is the mass-weighted adjoint of
the coboundary: d* c solves M_{k-1} x = D_{k-1}^T M_k c.

For closed eta of degree 1 <= k <= N-1 on S^N (no harmonic forms),
d^{-1} eta = d* Delta^{-1} eta is the M_{k-1}-coexact least-squares
solution sigma of D_{k-1} sigma = eta (Arnold, Falk & Winther 2006).
It is found on the (k-1)-cochains in two steps:

1. curl solve K sigma = D_{k-1}^T M_k eta with K = D_{k-1}^T M_k D_{k-1},
   semidefinite with the right-hand side in its range, where conjugate
   gradients converge (Kaasschieter 1988);
2. gauge projection sigma <- sigma - Z phi with
   (Z^T M_{k-1} Z) phi = Z^T M_{k-1} sigma, where Z = D_{k-2} (the
   constants for k = 1) spans the kernel of K.

Every solve is Jacobi-preconditioned conjugate gradients; the
Jacobi-scaled mass matrix has an h-independent spectrum (Wathen 1987).

Local mass entries use the exact identities
int_T lambda_a lambda_b = vol(1 + delta_ab)/((N+1)(N+2)) and, by the
Cauchy-Binet formula,
<dl_{a_1}^...^dl_{a_k}, dl_{b_1}^...^dl_{b_k}> = det[<grad l_a, grad l_b>],
a k x k minor of the Gram matrix g of the barycentric differentials.
With W_J = k! sum_m (-1)^m lambda_{j_m} dl_{J - j_m}, every entry of the
local k-form mass matrix is vol k!^2 sum_{I, I'} C[(J, J'), (I, I')] g_{I, I'}
over the C(N+1, k)^2 minors g_{I, I'}, with a constant coefficient table C
per (N, k).  So each mass matrix is one batched minors call
(geometry.minors) and one matrix product.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg

from .geometry.cochain import Cochain
from .geometry.mesh import blocks, map_blocks, simplex_geometry
from .geometry.minors import minors, whitney_table

# relative residual of the d^{-1} curl solve
CURL_TOL = 1e-9


@lru_cache(maxsize=None)
def _mass_coefficients(N: int, k: int) -> np.ndarray:
    """C[(a, b), (I, J)] = sum of (-1)^(m+m') int lambda_{a_m} lambda_{b_m'}
    over the drops a - a_m = I, b - b_m' = J, per unit volume: the mass
    block is vol k!^2 C times the k x k minors of the metric.  Read-only."""
    T = whitney_table(N, k)                                # (N+1, faces, slots)
    lamlam = (1.0 + np.eye(N + 1)) / ((N + 1) * (N + 2))
    C = np.einsum("via,vw,wjb->abij", T, lamlam, T)
    C = C.reshape(T.shape[2] ** 2, T.shape[1] ** 2).copy()
    C.flags.writeable = False
    return C


def _whitney_mass_blocks(g: np.ndarray, vol: np.ndarray,
                         k: int) -> np.ndarray:
    """Local Whitney k-form mass matrices of a batch of simplices.

    `g` (t, N+1, N+1) holds the Gram matrices of the barycentric
    differentials and `vol` (t,) the volumes.  Returns (t, s, s) blocks
    whose slots are the k-faces in lexicographic local vertex order
    (ascending tuples of combinations), before the face-orientation
    signs are applied.
    """
    N = g.shape[1] - 1
    C = _mass_coefficients(N, k)
    s = whitney_table(N, k).shape[2]
    local = minors(g, k).reshape(len(vol), -1) @ C.T
    local *= (factorial(k) ** 2 * vol)[:, None]
    return local.reshape(len(vol), s, s)


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple:
    """(distinct keys ascending, the sum of the values of each key); the
    values of one key are added in their input order."""
    uniq, inv = np.unique(keys, return_inverse=True)
    return uniq, np.bincount(inv, weights=values, minlength=len(uniq))


def mass_matrix(mesh, k: int) -> sparse.csr_matrix:
    """Whitney k-form mass matrix (symmetric positive definite).

    The tops are assembled block by block on every core
    (mesh.map_blocks).  Entries are keyed row * n + column; each block
    sums its entries per key, and the block sums are added in block
    order, so the matrix is the same bits from run to run and at any core
    count.  They are merged over ranges of rows (mesh.map_blocks again),
    so each merge holds the keys of one range at a time.
    """
    faces = mesh.top_faces[k]                          # (t, s)
    par = mesh.top_face_parity[k]
    s = faces.shape[1]
    n = mesh.n_simplices(k)
    _mass_coefficients(mesh.dim, k)                    # cached before the map
    # first key of each range of rows of the merge, and the end
    bounds = n * np.array([rows.start for rows in blocks(n)] + [n])

    def assemble(tops):
        local = _whitney_mass_blocks(mesh.metric[tops], mesh.top_volumes[tops],
                                     k)
        local *= par[tops, :, None] * par[tops, None, :]
        # entries ordered slot pair (a, b) major, simplex minor
        f = faces[tops].T
        key = np.repeat(f, s, axis=0) * n + np.tile(f, (s, 1))
        uniq, summed = _summed(key.ravel(), local.transpose(1, 2, 0).ravel())
        return uniq, summed, np.searchsorted(uniq, bounds).tolist()

    keys, values, cuts = zip(*map_blocks(assemble, len(faces)))

    def merge(rows):
        j = int(np.searchsorted(bounds, rows.start * n))
        uniq, summed = _summed(
            np.concatenate([u[c[j]:c[j + 1]] for u, c in zip(keys, cuts)]),
            np.concatenate([v[c[j]:c[j + 1]] for v, c in zip(values, cuts)]))
        # ascending keys are rows in order with ascending columns: CSR as is
        row, col = np.divmod(uniq, n)
        counts = np.bincount(row - rows.start, minlength=rows.stop - rows.start)
        return counts, col, summed

    counts, columns, data = zip(*map_blocks(merge, n))
    del keys, values                # freed before the final copies
    return sparse.csr_matrix((np.concatenate(data), np.concatenate(columns),
                              np.cumsum(np.concatenate([[0], *counts]))),
                             shape=(n, n))


def whitney_mass_local(vertices: np.ndarray, k: int) -> np.ndarray:
    """Local Whitney k-form mass matrix of one affine simplex.

    Rows/columns are indexed by the k-faces in lexicographic local
    vertex order (ascending tuples of combinations).  Used for testing
    the assembly kernel against hand computations.
    """
    pts = np.asarray(vertices, dtype=float)[None]
    _, vol, _, g = simplex_geometry(pts)
    return _whitney_mass_blocks(g, vol, k)[0]


def _jacobi_cg(A, diag: np.ndarray, b: np.ndarray, rtol: float,
               atol: float = 0.0, maxiter: int = 400) -> tuple:
    """(x, iterations) with A x = b by Jacobi-preconditioned CG.

    A is symmetric positive semidefinite with `diag` its diagonal and b
    in its range.  Stops at ||A x - b|| <= max(rtol ||b||, atol) and
    raises RuntimeError if that is not reached within `maxiter` steps.
    """
    pre = LinearOperator(A.shape, matvec=lambda x: x / diag)
    its = 0

    def count(_):
        nonlocal its
        its += 1

    x, info = cg(A, b, rtol=rtol, atol=atol, maxiter=maxiter, M=pre,
                 callback=count)
    if info != 0:
        res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
        raise RuntimeError(f"conjugate gradient did not converge: relative "
                           f"residual {res:.3e} after {its} iterations")
    return x, its


def _mass_solve(M: sparse.csr_matrix, diag: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """x with M x = b for a Whitney mass matrix M with diagonal `diag`.

    Relative residual 1e-13; the Jacobi-scaled mass spectrum does not
    depend on h (Wathen & Rees 2009), so a few dozen iterations suffice.
    """
    return _jacobi_cg(M, diag, b, rtol=1e-13)[0]


class HodgeOperator:
    """Whitney mass matrices around degree k and the d^{-1} solve into k-1.

    Holds M_{k-1}, M_k, M_{k+1}, and for k >= 1 the coboundary D_{k-1},
    the curl matrix K = D_{k-1}^T M_k D_{k-1}, the gauge basis Z and the
    gauge matrix Z^T M_{k-1} Z.  It keeps no reference to its mesh, so
    the mesh and the operators it caches form no reference cycle and are
    freed as soon as the mesh is dropped.
    """

    def __init__(self, mesh, k: int):
        if not 0 <= k <= mesh.dim:
            raise ValueError("degree out of range")
        self.k = k
        self.mass_k = mass_matrix(mesh, k)
        self.mass_up = mass_matrix(mesh, k + 1) if k < mesh.dim else None
        self.mass_down = mass_matrix(mesh, k - 1) if k > 0 else None
        if k > 0:
            self.coboundary = mesh.coboundary(k - 1)
            D = self.coboundary.astype(float)
            self.curl = (D.T @ self.mass_k @ D).tocsr()
            # Z spans the kernel of K: gradients, or the constants for k = 1
            self.gauge_basis = Z = (
                mesh.coboundary(k - 2).astype(float).tocsr() if k > 1
                else sparse.csr_matrix(np.ones((D.shape[1], 1))))
            self.gauge = (Z.T @ self.mass_down @ Z).tocsr()

    def norm(self, c: Cochain) -> float:
        M = {self.k: self.mass_k, self.k + 1: self.mass_up,
             self.k - 1: self.mass_down}[c.degree]
        return float(np.sqrt(max(c.values @ (M @ c.values), 0.0)))

    def codifferential_values(self, values: np.ndarray) -> np.ndarray:
        M, D = self.mass_down, self.coboundary
        return _mass_solve(M, M.diagonal(), D.T @ (self.mass_k @ values))

    def primitive_values(self, values: np.ndarray) -> tuple:
        """(sigma, stats): the coexact least-squares solution of d sigma = eta.

        The gauge tolerance is 1e-13 ||M_{k-1} sigma||, not relative to
        the gauge right-hand side, which is round-off when the curl
        iterate is already nearly coexact.
        """
        K, Z, G = self.curl, self.gauge_basis, self.gauge
        b = self.coboundary.T @ (self.mass_k @ values)
        maxiter = max(2000, 40 * int(np.sqrt(K.shape[0])))
        sigma, its = _jacobi_cg(K, K.diagonal(), b, CURL_TOL, maxiter=maxiter)
        m_sigma = self.mass_down @ sigma
        scale = np.linalg.norm(m_sigma)
        c = Z.T @ m_sigma
        phi, gauge_its = _jacobi_cg(G, G.diagonal(), c, 0.0,
                                    atol=1e-13 * scale, maxiter=maxiter)
        stats = {"iterations": its,
                 "residual": float(np.linalg.norm(K @ sigma - b)
                                   / np.linalg.norm(b)),
                 "gauge_iterations": gauge_its,
                 "gauge_residual": float(np.linalg.norm(G @ phi - c) / scale)}
        return sigma - Z @ phi, stats


def hodge_operator(mesh, k: int) -> HodgeOperator:
    """HodgeOperator of `mesh` in degree k, built once per degree.

    Meshes are immutable, so the operator is kept in the mesh's own
    `operators` dict and lives exactly as long as the mesh.
    """
    op = mesh.operators.get(k)
    if op is None:
        op = mesh.operators[k] = HodgeOperator(mesh, k)
    return op


def codifferential(c: Cochain) -> Cochain:
    """Adjoint of d: solves M_{k-1} x = D^T M_k c."""
    if c.degree == 0:
        raise ValueError("no codifferential")
    op = hodge_operator(c.mesh, c.degree)
    return Cochain(c.mesh, c.degree - 1, op.codifferential_values(c.values))


def d_inverse(eta: Cochain, closed_tol: float = 1e-6) -> tuple:
    """(xi, stats): the primitive d^{-1} eta = d* Delta^{-1} eta of a
    (numerically) closed cochain and the statistics of its solve.

    Requires 1 <= degree <= N-1 and the closedness defect
    ||d eta|| / ||eta|| below `closed_tol` in mass norm.  xi satisfies
    d(xi) = eta up to curl-solve tolerance plus the input's closedness
    defect and d*(xi) = 0 up to gauge-solve tolerance.  `stats` holds the
    curl and gauge CG `iterations`, `residual`, `gauge_iterations`,
    `gauge_residual` and the input's `closedness` defect; all are zero
    for the zero cochain.
    """
    mesh = eta.mesh
    if not 1 <= eta.degree <= mesh.dim - 1:
        raise ValueError("degree must be between 1 and N-1")
    op = hodge_operator(mesh, eta.degree)
    nrm = op.norm(eta)
    if nrm == 0.0:
        return Cochain.zeros(mesh, eta.degree - 1), {
            "iterations": 0, "residual": 0.0, "gauge_iterations": 0,
            "gauge_residual": 0.0, "closedness": 0.0}
    defect = op.norm(eta.d()) / nrm
    if defect > closed_tol:
        raise ValueError(
            f"input not closed: relative defect {defect:.3e} > {closed_tol:.1e}")
    sigma, stats = op.primitive_values(eta.values)
    return Cochain(mesh, eta.degree - 1, sigma), {**stats, "closedness": defect}

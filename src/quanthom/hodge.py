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

The gauge step needs neither M_{k-1} nor a float copy of Z.  The
Whitney complex is exact, D_0 lambda_a = d lambda_a, so for k = 2 the
gauge matrix D_0^T M_1 D_0 is the P1 stiffness matrix, the sum over the
tops T of vol_T g_T on T's vertices (g the Gram matrix of the
barycentric differentials), built from the metric alone (_gauge); for
k = 1 it is the 1 x 1 matrix [vol S^N], the sum of the top volumes.
The right-hand side M_{k-1} sigma is summed top by top from the local
blocks (_mass_product), so d^{-1} never assembles M_{k-1}.  The operator
of degree k holds matrices only, and its norm reads degrees k and k+1;
the codifferential, the one reader of M_{k-1}, assembles it per call.

Every solve is Jacobi-preconditioned conjugate gradients; the
Jacobi-scaled mass matrix has an h-independent spectrum (Wathen 1987).
The loop is this module's own (_jacobi_cg), in the operation order of
scipy 1.17's `cg`, so it gives scipy's bits and iteration counts while
the module loads scipy.sparse alone, not scipy.sparse.linalg and the
scipy.linalg that comes with it.  The matvec of a large matrix runs on
every core, over contiguous row ranges dealt to one thread pool per
solve; each row is summed as in the unsplit product, so the iterates
are the same bits at any core count.

Local mass entries use the exact identities
int_T lambda_a lambda_b = vol(1 + delta_ab)/((N+1)(N+2)) and, by the
Cauchy-Binet formula,
<dl_{a_1}^...^dl_{a_k}, dl_{b_1}^...^dl_{b_k}> = det[<grad l_a, grad l_b>],
a k x k minor of the Gram matrix g of the barycentric differentials.
With W_J = k! sum_m (-1)^m lambda_{j_m} dl_{J - j_m}, every entry of the
local k-form mass matrix is vol k!^2 sum_{I, I'} C[(J, J'), (I, I')] g_{I, I'}
over the C(N+1, k)^2 minors g_{I, I'}, with a constant coefficient table C
per (N, k).  So each block batch is one batched minors call
(geometry.minors) and one matrix product.  The one Whitney N-form of a
top is 1/vol on it, so M_N = diag(1/vol) needs no kernel at all.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np
from scipy import sparse

from .geometry.cochain import Cochain
from .geometry.mesh import map_blocks, task_pool, workers
from .geometry.minors import minors, whitney_table

# relative residual of the d^{-1} curl solve
CURL_TOL = 1e-9
# relative closedness defect a d^{-1} input may have
CLOSED_TOL = 1e-3
# least rows of a matvec range of a CG solve (_row_ranges): the S^3
# level-3 curl matrix (76,544 rows) splits over the cores, the scaling
# sweeps' matrices and the level-3 gauge matrix (11,008 rows) stay one
_CG_ROWS = 16_384


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


def _signed_blocks(mesh, k: int, tops) -> np.ndarray:
    """The local Whitney k-form mass blocks of `tops`, signed by the
    parities of their faces: the (len(tops), s, s) blocks of M_k."""
    local = _whitney_mass_blocks(mesh.metric[tops], mesh.top_volumes[tops], k)
    par = mesh.top_face_parity[k][tops]
    local *= par[:, :, None] * par[:, None, :]
    return local


def mass_matrix(mesh, k: int) -> sparse.csr_matrix:
    """Whitney k-form mass matrix (symmetric positive definite).

    For k < N the local blocks of the tops, signed by the face parities,
    are computed block by block on every core (mesh.map_blocks) into one
    (t, s, s) array, and one COO to CSR conversion scatters them to the
    rows and columns of the faces and sums the duplicate entries.
    Neither step depends on the cores, so the matrix is the same bits
    from run to run and at any core count.  Its `data` and `indices` own
    exactly its entries.  The one Whitney N-form of a top is 1/vol on it,
    so M_N is diag(1/top_volumes).
    """
    t = len(mesh.top_volumes)
    if k == mesh.dim:                                  # top k-face = top
        diag = np.arange(t + 1, dtype=np.int32)
        M = sparse.csr_matrix((1.0 / mesh.top_volumes, diag[:-1], diag),
                              shape=(t, t))
    else:
        _mass_coefficients(mesh.dim, k)                # cached before the map
        faces = mesh.top_faces[k].astype(np.int32)    # int32 as CSR indices
        s = faces.shape[1]
        local = np.empty((t, s, s))

        def assemble(tops):
            local[tops] = _signed_blocks(mesh, k, tops)

        map_blocks(assemble, t)
        # local[t, a, b] goes to row faces[t, a] and column faces[t, b]
        rows = np.repeat(faces, s, axis=1).ravel()
        cols = np.tile(faces, s).ravel()
        n = mesh.n_simplices(k)
        M = sparse.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))
        del local, rows, cols
    # scipy leaves `data` and `indices` as views, of the conversion's
    # buffers of one entry per local entry; keep copies of the entries
    M.data, M.indices = M.data.copy(), M.indices.copy()
    return M


def _mass_product(mesh, k: int, x: np.ndarray) -> np.ndarray:
    """M_k x without M_k: each top's signed block times x on its faces
    (_signed_blocks, on every core), summed into the faces by one
    np.bincount in top order, so it is the same bits at any core count."""
    _mass_coefficients(mesh.dim, k)                    # cached before the map
    faces = mesh.top_faces[k]
    local_x = np.empty(faces.shape)

    def product(tops):
        local_x[tops] = np.einsum("tab,tb->ta", _signed_blocks(mesh, k, tops),
                                  x[faces[tops]])

    map_blocks(product, len(local_x))
    return np.bincount(faces.ravel(), weights=local_x.ravel(),
                       minlength=mesh.n_simplices(k))


def _gauge(mesh, k: int) -> sparse.csr_matrix:
    """The gauge matrix Z^T M_{k-1} Z of d^{-1} in degree k = 1 or 2,
    from the tops' volumes and metrics (see the module docstring).

    For k = 2 it is the P1 stiffness matrix, sum_T vol_T g_T.  The rows
    of each g_T sum to zero (the lambda_a sum to one), so it is the
    weighted graph Laplacian D_0^T W D_0, with the weight of an edge e
    W_e = -sum_T vol_T g_T[a, b] over the tops T whose slots a < b hold e.
    """
    if k == 1:
        return sparse.csr_matrix([[mesh.top_volumes.sum()]])
    a, b = np.array(list(combinations(range(mesh.dim + 1), 2))).T
    w = np.bincount(mesh.top_faces[1].ravel(),
                    weights=(mesh.top_volumes[:, None]
                             * mesh.metric[:, a, b]).ravel(),
                    minlength=mesh.n_simplices(1))
    D = mesh.coboundary(0)
    return (D.T @ sparse.diags(-w) @ D).tocsr()


def _row_ranges(A: sparse.csr_matrix) -> list:
    """A's rows as contiguous ranges of about equal nonzeros, one per
    worker but none of fewer than about _CG_ROWS rows: [A] itself, or
    CSR matrices on slices of A's `data` and `indices`, each with an
    offset copy of its `indptr` slice."""
    n_ranges = workers(max(1, A.shape[0] // _CG_ROWS))
    if n_ranges == 1:
        return [A]
    cuts = [0, *np.searchsorted(A.indptr, np.arange(1, n_ranges) * A.nnz
                                / n_ranges), A.shape[0]]
    ranges = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        a, b = A.indptr[lo], A.indptr[hi]
        ranges.append(sparse.csr_matrix(
            (A.data[a:b], A.indices[a:b], A.indptr[lo:hi + 1] - a),
            shape=(hi - lo, A.shape[1])))
    return ranges


def _jacobi_cg(A, b: np.ndarray, rtol: float, atol: float = 0.0,
               maxiter: int = 400) -> tuple:
    """(x, iterations) with A x = b by Jacobi-preconditioned CG.

    A is a symmetric positive semidefinite CSR matrix preconditioned by its
    diagonal, and b in its range.  Stops at ||r|| < max(rtol ||b||, atol)
    for the recursive residual r and raises RuntimeError if that is not
    reached within `maxiter` steps.  The loop is conjugate gradients
    (Hestenes & Stiefel 1952) in the operation order of scipy 1.17's
    `cg`, so x and the count are the bits scipy would give.  The matvec
    runs on every core: A's row ranges (_row_ranges) go to one task_pool
    that lives for the whole solve, and each row of A x is summed as in
    A @ x, so x and the iteration count are the same bits at any core
    count.  A matrix below _CG_ROWS rows is one range, multiplied as A
    itself, and starts no thread.
    """
    b_norm = np.linalg.norm(b)
    atol = max(atol, rtol * b_norm)
    if b_norm == 0:
        return b, 0
    ranges, diag = _row_ranges(A), A.diagonal()
    x = np.zeros(len(b))
    r = b.copy()
    with task_pool(len(ranges)) as run:
        for its in range(maxiter):
            if np.linalg.norm(r) < atol:
                return x, its
            z = r / diag
            rho = np.dot(r, z)
            if its:
                p *= rho / rho_prev
                p += z
            else:
                p = z.copy()
            q = A @ p if len(ranges) == 1 else np.concatenate(
                run(lambda part: part @ p, ranges))
            alpha = rho / np.dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
    res = np.linalg.norm(A @ x - b) / b_norm
    raise RuntimeError(f"conjugate gradient did not converge: relative "
                       f"residual {res:.3e} after {maxiter} iterations")


class HodgeOperator:
    """Whitney mass matrices around degree k and the matrices of d^{-1}.

    Holds matrices only: M_k (`mass_k`), M_{k+1} (`mass_up`, None for
    k = N; for k = N-1 it is diag(1/vol)) and, for k >= 1, the integer
    coboundary D_{k-1}.  For 1 <= k <= N-1, where d^{-1} applies, also
    the curl matrix K = D_{k-1}^T M_k D_{k-1} (`curl`), the gauge basis Z
    (`gauge_basis`: the integer D_{k-2}, or a column of ones for k = 1)
    and the gauge matrix Z^T M_{k-1} Z (`gauge`), built from the tops'
    metrics (_gauge).

    It keeps no reference to the mesh, so the mesh and the operators it
    caches form no reference cycle and are freed as soon as the mesh is
    dropped.
    """

    def __init__(self, mesh, k: int):
        if not 0 <= k <= mesh.dim:
            raise ValueError("degree out of range")
        self.k = k
        self.mass_k = mass_matrix(mesh, k)
        self.mass_up = mass_matrix(mesh, k + 1) if k < mesh.dim else None
        if k > 0:
            self.coboundary = mesh.coboundary(k - 1)
        if 1 <= k <= mesh.dim - 1:
            D = self.coboundary.astype(float)
            self.curl = (D.T @ self.mass_k @ D).tocsr()
            # Z spans the kernel of K: gradients, or the constants for k = 1
            self.gauge_basis = (
                mesh.coboundary(k - 2) if k > 1
                else sparse.csr_matrix(np.ones((D.shape[1], 1), np.int8)))
            self.gauge = _gauge(mesh, k)

    def norm(self, c: Cochain) -> float:
        """Mass norm of a cochain of degree k or k+1."""
        if not self.k <= c.degree <= self.k + 1:
            raise ValueError(f"no mass matrix of degree {c.degree} in the "
                             f"operator of degree k = {self.k}, which holds "
                             f"degrees k and k+1")
        M = self.mass_k if c.degree == self.k else self.mass_up
        return float(np.sqrt(max(c.values @ (M @ c.values), 0.0)))


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
    """Adjoint of d: solves M_{k-1} x = D^T M_k c, with M_{k-1} assembled
    for this call, to relative residual 1e-13.  The Jacobi-scaled mass
    spectrum does not depend on h (Wathen & Rees 2009), so a few dozen
    CG steps suffice."""
    if c.degree == 0:
        raise ValueError("no codifferential")
    op = hodge_operator(c.mesh, c.degree)
    M = mass_matrix(c.mesh, c.degree - 1)
    b = op.coboundary.T @ (op.mass_k @ c.values)
    return Cochain(c.mesh, c.degree - 1, _jacobi_cg(M, b, rtol=1e-13)[0])


def _defect(op: HodgeOperator, eta: Cochain, m_eta: np.ndarray):
    """||d eta|| / ||eta|| in mass norm, from m_eta = M_k eta (so
    ||eta||_M = op.norm(eta)); None for a round-off cochain,
    ||eta||_M <= eps sqrt(vol), whose defect is noise over noise."""
    nrm = float(np.sqrt(max(eta.values @ m_eta, 0.0)))
    if nrm <= np.finfo(float).eps * np.sqrt(eta.mesh.top_volumes.sum()):
        return None
    return op.norm(eta.d()) / nrm


def closedness(eta: Cochain) -> float:
    """The relative closedness defect ||d eta|| / ||eta|| in mass norm
    that d_inverse's gate compares with CLOSED_TOL (0 for a round-off
    cochain); eta's degree is 1..N-1."""
    op = hodge_operator(eta.mesh, eta.degree)
    defect = _defect(op, eta, op.mass_k @ eta.values)
    return 0.0 if defect is None else defect


def d_inverse(eta: Cochain) -> tuple:
    """(xi, stats): the primitive d^{-1} eta = d* Delta^{-1} eta of a
    (numerically) closed cochain and the statistics of its solve.

    Requires 1 <= degree <= N-1, finite values and the closedness defect
    ||d eta|| / ||eta|| below CLOSED_TOL in mass norm.  xi satisfies
    d(xi) = eta up to curl-solve tolerance plus the input's closedness
    defect and d*(xi) = 0 up to gauge-solve tolerance.  `stats` holds the
    curl and gauge CG `iterations`, `residual`, `gauge_iterations`,
    `gauge_residual` and the input's `closedness` defect.  A round-off
    cochain, ||eta|| <= eps sqrt(vol) (its defect is noise over noise),
    counts as zero: xi = 0 and all statistics are zero.  The gauge
    tolerance is 1e-13 ||M_{k-1} sigma||, not relative to the gauge
    right-hand side, which is round-off when the curl iterate is already
    nearly coexact.
    """
    mesh, k = eta.mesh, eta.degree
    if not 1 <= k <= mesh.dim - 1:
        raise ValueError("degree must be between 1 and N-1")
    bad = np.count_nonzero(~np.isfinite(eta.values))
    if bad:
        raise ValueError(f"input not finite: {bad} of {len(eta.values)} "
                         f"values are NaN or infinite")
    op = hodge_operator(mesh, k)
    m_eta = op.mass_k @ eta.values
    defect = _defect(op, eta, m_eta)
    if defect is None:
        return Cochain.zeros(mesh, k - 1), {
            "iterations": 0, "residual": 0.0, "gauge_iterations": 0,
            "gauge_residual": 0.0, "closedness": 0.0}
    if defect > CLOSED_TOL:
        raise ValueError(
            f"input not closed: relative defect {defect:.3e} > {CLOSED_TOL:.1e}")
    K, Z, G = op.curl, op.gauge_basis, op.gauge
    b = op.coboundary.T @ m_eta
    maxiter = max(2000, 40 * int(np.sqrt(K.shape[0])))
    sigma, its = _jacobi_cg(K, b, CURL_TOL, maxiter=maxiter)
    m_sigma = _mass_product(mesh, k - 1, sigma)
    scale = np.linalg.norm(m_sigma)
    c = Z.T @ m_sigma
    phi, gauge_its = _jacobi_cg(G, c, 0.0, atol=1e-13 * scale, maxiter=maxiter)
    return Cochain(mesh, k - 1, sigma - Z @ phi), {
        "iterations": its,
        "residual": float(np.linalg.norm(K @ sigma - b) / np.linalg.norm(b)),
        "gauge_iterations": gauge_its,
        "gauge_residual": float(np.linalg.norm(G @ phi - c) / scale),
        "closedness": defect}

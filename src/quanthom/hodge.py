"""Cochain Hodge Laplacian and the antiderivative d^{-1} = d* Delta^{-1}.

Whitney (Galerkin) mass matrices realize the L^2 pairing of k-forms on
the flat complex; the codifferential is the mass-weighted adjoint of
the coboundary,

    d* c  solves  M_{k-1} x = D_{k-1}^T M_k c,

and the weak Hodge Laplacian on k-cochains is

    A = D_k^T M_{k+1} D_k  +  M_k D_{k-1} M_{k-1}^{-1} D_{k-1}^T M_k,

which is symmetric positive definite for 1 <= k <= N-1 on S^N (no
harmonic forms).  d^{-1} eta = d* u with A u = M_k eta solved by
Jacobi-preconditioned conjugate gradients.  The mass solves with
M_{k-1} inside the operator are Jacobi-preconditioned conjugate
gradients as well: the Jacobi-scaled Whitney mass matrix has a spectrum
bounded independently of the mesh size (Wathen 1987), so one iterative
path serves every level without a direct factorization.

Local mass entries use the exact identities
int_T lambda_a lambda_b = vol(1 + delta_ab)/((N+1)(N+2)) and
<dl_{a_1}^...^dl_{a_k}, dl_{b_1}^...^dl_{b_k}> = det[<grad l_a, grad l_b>].
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg

from .geometry.cochain import Cochain
from .geometry.mesh import _factorial, simplex_geometry


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
    slots = list(combinations(range(N + 1), k + 1))
    lamlam = (1.0 + np.eye(N + 1)) / ((N + 1) * (N + 2))
    kfac2 = float(_factorial(k)) ** 2
    blocks = np.empty((len(vol), len(slots), len(slots)))
    for a, Ja in enumerate(slots):
        for b, Jb in enumerate(slots):
            acc = np.zeros(len(vol))
            for m in range(k + 1):
                ra = list(Ja[:m] + Ja[m + 1:])
                for mm in range(k + 1):
                    rb = list(Jb[:mm] + Jb[mm + 1:])
                    det = np.linalg.det(g[:, ra, :][:, :, rb]) if k else 1.0
                    acc += ((-1) ** (m + mm) * lamlam[Ja[m], Jb[mm]]) * det
            blocks[:, a, b] = kfac2 * vol * acc
    return blocks


def mass_matrix(mesh, k: int) -> sparse.csr_matrix:
    """Whitney k-form mass matrix (symmetric positive definite)."""
    faces = mesh.top_faces[k]                          # (t, s)
    par = mesh.top_face_parity[k]
    blocks = _whitney_mass_blocks(mesh.metric, mesh.top_volumes, k)
    signed = blocks * par[:, :, None] * par[:, None, :]
    # entries ordered slot pair (a, b) major, simplex minor, so duplicate
    # entries are summed in a fixed order
    s = faces.shape[1]
    data = signed.transpose(1, 2, 0).ravel()
    rows = np.repeat(faces.T, s, axis=0).ravel()
    cols = np.tile(faces.T, (s, 1)).ravel()
    n = mesh.n_simplices(k)
    M = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    M.sum_duplicates()
    return M


def whitney_mass_local(vertices: np.ndarray, k: int) -> np.ndarray:
    """Local Whitney k-form mass matrix of one affine simplex.

    Rows/columns are indexed by the k-faces in lexicographic local
    vertex order (ascending tuples of combinations).  Used for testing
    the assembly kernel against hand computations.
    """
    pts = np.asarray(vertices, dtype=float)[None]
    _, vol, _, g = simplex_geometry(pts)
    return _whitney_mass_blocks(g, vol, k)[0]


def _mass_solve(M: sparse.csr_matrix, diag: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """x with M x = b for a Whitney mass matrix M with diagonal `diag`.

    Jacobi-preconditioned conjugate gradients to relative residual
    1e-13.  The Jacobi-scaled mass matrix has a spectrum bounded
    independently of h (Wathen 1987; Wathen & Rees 2009), so a few
    dozen iterations suffice on every mesh and no size switch to a
    direct factorization is needed.
    """
    pre = LinearOperator(M.shape, matvec=lambda x: x / diag)
    x, info = cg(M, b, rtol=1e-13, atol=0.0, maxiter=400, M=pre)
    if info != 0:
        raise RuntimeError("mass solve did not converge")
    return x


class HodgeOperator:
    """Hodge Laplacian on k-cochains of a sphere mesh.

    Holds the Whitney mass matrices M_{k-1}, M_k, M_{k+1}, the weak
    Laplacian, and the relative tolerance of its Jacobi-preconditioned
    conjugate-gradient solve.
    """

    def __init__(self, mesh, k: int, tol: float = 1e-9):
        if not 0 <= k <= mesh.dim:
            raise ValueError("degree out of range")
        self.mesh = mesh
        self.k = k
        self.tol = tol
        self.mass_k = mass_matrix(mesh, k)
        self.mass_up = mass_matrix(mesh, k + 1) if k < mesh.dim else None
        self.mass_down = mass_matrix(mesh, k - 1) if k > 0 else None
        self._down_diag = self.mass_down.diagonal() if k > 0 else None
        if k < mesh.dim:
            D = mesh.coboundary(k).astype(float)
            self.stiffness = (D.T @ self.mass_up @ D).tocsr()
        else:
            self.stiffness = None
        self.last_solve: dict = {}

    # -- norms ---------------------------------------------------------------

    def norm(self, c: Cochain) -> float:
        M = {self.k: self.mass_k, self.k + 1: self.mass_up,
             self.k - 1: self.mass_down}[c.degree]
        return float(np.sqrt(max(c.values @ (M @ c.values), 0.0)))

    # -- operators ----------------------------------------------------------

    def codifferential_values(self, values: np.ndarray) -> np.ndarray:
        D = self.mesh.coboundary(self.k - 1)
        return _mass_solve(self.mass_down, self._down_diag,
                           D.T @ (self.mass_k @ values))

    def _weak_apply(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values)
        if self.stiffness is not None:
            out = out + self.stiffness @ values
        if self.k > 0:
            D = self.mesh.coboundary(self.k - 1)
            out = out + self.mass_k @ (D @ _mass_solve(
                self.mass_down, self._down_diag, D.T @ (self.mass_k @ values)))
        return out

    def _jacobi_diagonal(self) -> np.ndarray:
        # diag of M_k D M~^{-1} D^T M_k with lumped M~, taken as row sums
        # of squares of B = M_k D (never forming the dense-ish product)
        diag = np.zeros(self.mass_k.shape[0])
        if self.stiffness is not None:
            diag = diag + self.stiffness.diagonal()
        if self.k > 0:
            D = self.mesh.coboundary(self.k - 1).astype(float)
            B = (self.mass_k @ D).tocsr()
            inv_lump = 1.0 / self._down_diag
            diag = diag + B.multiply(B) @ inv_lump
        return diag

    def solve_laplacian(self, rhs: Cochain) -> Cochain:
        """u with Delta u = rhs, to relative residual `tol` (weak form)."""
        b = self.mass_k @ rhs.values
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            self.last_solve = {"iterations": 0, "residual": 0.0}
            return Cochain.zeros(self.mesh, self.k)
        A = LinearOperator(self.mass_k.shape, matvec=self._weak_apply)
        d = self._jacobi_diagonal()
        M = LinearOperator(self.mass_k.shape, matvec=lambda x: x / d)
        count = {"n": 0}

        def cb(_):
            count["n"] += 1

        maxiter = max(2000, 40 * int(np.sqrt(self.mass_k.shape[0])))
        u, info = cg(A, b, rtol=self.tol, atol=0.0, maxiter=maxiter,
                     M=M, callback=cb)
        res = float(np.linalg.norm(self._weak_apply(u) - b) / bnorm)
        self.last_solve = {"iterations": count["n"], "residual": res}
        if info != 0:
            raise RuntimeError(
                f"conjugate gradient did not converge: relative residual "
                f"{res:.3e} after {count['n']} iterations")
        return Cochain(self.mesh, self.k, u)


def hodge_operator(mesh, k: int, tol: float = 1e-9) -> HodgeOperator:
    """HodgeOperator of `mesh` in degree k, built once per (k, tol).

    Meshes are immutable, so the operator is kept in the mesh's own
    `operators` dict and lives exactly as long as the mesh.
    """
    key = ("hodge", k, tol)
    op = mesh.operators.get(key)
    if op is None:
        op = mesh.operators[key] = HodgeOperator(mesh, k, tol=tol)
    return op


def codifferential(c: Cochain, tol: float = 1e-9) -> Cochain:
    """Adjoint of d: solves M_{k-1} x = D^T M_k c."""
    if c.degree == 0:
        raise ValueError("no codifferential")
    op = hodge_operator(c.mesh, c.degree, tol=tol)
    return Cochain(c.mesh, c.degree - 1, op.codifferential_values(c.values))


def d_inverse(eta: Cochain, tol: float = 1e-9,
              closed_tol: float = 1e-6) -> Cochain:
    """Primitive of a (numerically) closed cochain: d^{-1} = d* Delta^{-1}.

    Requires 1 <= degree <= N-1 so that the Laplacian is invertible and
    the closedness defect ||d eta|| / ||eta|| below `closed_tol` in mass
    norm.  The result xi satisfies d(xi) = eta and d*(xi) = 0 up to
    solver tolerance plus the input's closedness defect; solve
    statistics are stored on the owning HodgeOperator.
    """
    mesh = eta.mesh
    if not 1 <= eta.degree <= mesh.dim - 1:
        raise ValueError("degree must be between 1 and N-1")
    op = hodge_operator(mesh, eta.degree, tol=tol)
    nrm = op.norm(eta)
    if nrm == 0.0:
        op.last_solve = {"iterations": 0, "residual": 0.0, "closedness": 0.0}
        return Cochain.zeros(mesh, eta.degree - 1)
    defect = op.norm(eta.d()) / nrm
    if defect > closed_tol:
        raise ValueError(
            f"input not closed: relative defect {defect:.3e} > {closed_tol:.1e}")
    u = op.solve_laplacian(eta)
    op.last_solve["closedness"] = defect
    return Cochain(mesh, eta.degree - 1, op.codifferential_values(u.values))

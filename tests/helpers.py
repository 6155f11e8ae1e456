"""Checks that only the tests use: hand-checkable mass blocks,
barycentric gradients, the sort-based mesh tables, plain Monte Carlo, the
cap-by-cap BMO statistics, map accuracy probes, mesh edge lengths,
report loading, the uncorrected Hopf wedge, the quadrature rule of the
Hopf term composed from its primitives and scans of the package's syntax
trees."""

import ast
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy import sparse

from quanthom.geometry import de_rham_project, integrate_wedge
from quanthom.geometry.forms import CS_WEDGE_DEGREE, WEDGE_DEGREE
from quanthom.geometry.mesh import (SPHERE_VOLUMES, permutation_sign,
                                    simplex_geometry)
from quanthom.hodge import _whitney_mass_blocks, d_inverse
from quanthom.maps import (S2, SmoothMap, distance_to_target, make_hopf,
                           pullback_form, volume_form)
from quanthom.seminorms import _rng, _uniform_sphere

SRC = Path(__file__).resolve().parents[1] / "src" / "quanthom"


def whitney_mass_local(vertices: np.ndarray, k: int) -> np.ndarray:
    """Local Whitney k-form mass matrix of one affine simplex.

    Rows/columns are indexed by the k-faces in lexicographic local
    vertex order (ascending tuples of combinations), for checking the
    assembly kernel against hand computations.
    """
    pts = np.asarray(vertices, dtype=float)[None]
    vol, g = simplex_geometry(pts)
    return _whitney_mass_blocks(g, vol, k)[0]


def barycentric_gradients(pts: np.ndarray) -> np.ndarray:
    """Gradients (t, N+1, d) of the barycentric coordinates of a batch of
    affine N-simplices with vertices pts (t, N+1, d), restricted to the
    simplex plane: row j is the gradient of lambda_j."""
    edges = pts[:, 1:] - pts[:, :1]
    grads = np.linalg.inv(edges @ np.swapaxes(edges, 1, 2)) @ edges
    return np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1)


def mesh_tables_by_sorting(tops: np.ndarray, dim: int):
    """(simplices, top_faces, parities, coboundaries) of the oriented tops
    by sorting every face of every top: the reference of
    geometry.mesh._mesh_tables.

    One np.unique pass per degree k < dim over the sorted k-faces of the
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
        simplices[k], first_k, inv = np.unique(
            np.sort(sub, axis=2).reshape(-1, k + 1), axis=0,
            return_index=True, return_inverse=True)
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


def plain_sobolev_mc(f: SmoothMap, beta: float, p: float, samples: int,
                     seed: int) -> tuple:
    """(total, standard error): [f]^p by plain Monte Carlo over pairs of
    independent uniform points, the reference of the stratified
    estimator seminorms._sobolev_mc."""
    N = f.domain_dim
    rng = _rng(seed, 0)
    X = _uniform_sphere(rng, samples, N + 1)
    Y = _uniform_sphere(rng, samples, N + 1)
    chord = np.linalg.norm(X - Y, axis=1)
    g = (np.linalg.norm(f.value(X) - f.value(Y), axis=1) ** p
         / chord ** (N + beta * p))
    vol = SPHERE_VOLUMES[N] ** 2
    return vol * float(g.mean()), vol * float(g.std(ddof=1)) / np.sqrt(samples)


def bmo_cap_by_cap(vals: np.ndarray) -> tuple:
    """(best U-statistic, its standard error) over the caps of `vals`
    (caps, m, target coordinates), one cap at a time in two reused (m, m)
    buffers, the reference of the batched statistics of
    seminorms.bmo_seminorm."""
    m = vals.shape[1]
    best, best_se = 0.0, 0.0
    # |f(x_i) - f(x_j)| per cap, its squared target coordinates summed in
    # the order of a norm over the last axis
    sq, d = np.empty((2, m, m))
    for cap in vals:
        for j, col in enumerate(cap.T):
            np.subtract(col[:, None], col[None, :], out=d)
            if j:
                np.add(sq, np.multiply(d, d, out=d), out=sq)
            else:
                np.multiply(d, d, out=sq)
        diff = np.sqrt(sq, out=sq)
        u_stat = float(diff.sum() / (m * (m - 1)))
        row_means = (diff.sum(axis=1)) / (m - 1)
        se = 2.0 * float(row_means.std(ddof=1)) / math.sqrt(m)
        if u_stat > best:
            best, best_se = u_stat, se
    return best, best_se


def jacobian_fd_error(f: SmoothMap, n_probes: int = 1000, seed: int = 0) -> float:
    """Worst relative error of Df against central finite differences.

    Probes random points and random tangent directions; differences are
    taken along renormalized chords so all evaluations stay on the
    domain sphere.
    """
    step = 1e-5                     # central-difference step along the chords
    rng = np.random.default_rng(seed)
    n = f.domain_dim + 1
    X = rng.standard_normal((n_probes, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    V = rng.standard_normal((n_probes, n))
    V -= (V * X).sum(axis=1, keepdims=True) * X
    V /= np.linalg.norm(V, axis=1, keepdims=True)

    def at(t):
        P = X + t * V
        return f.value(P / np.linalg.norm(P, axis=1, keepdims=True))

    fd = (at(step) - at(-step)) / (2 * step)
    an = np.einsum("mij,mj->mi", f.jacobian(X), V)
    num = np.linalg.norm(fd - an, axis=1)
    den = np.maximum(np.linalg.norm(an, axis=1), 1.0)
    return float((num / den).max())


def target_distance_error(f: SmoothMap, n_probes: int = 1000, seed: int = 0) -> float:
    """Max distance of sampled values from the target manifold."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_probes, f.domain_dim + 1))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return float(distance_to_target(f.value(X), f.target).max())


def max_edge_length(mesh) -> float:
    """Longest chord between the two vertices of an edge of `mesh`."""
    e = mesh.simplices[1]
    d = mesh.verts[e[:, 0]] - mesh.verts[e[:, 1]]
    return float(np.linalg.norm(d, axis=1).max())


def load_report(path: str) -> dict:
    """A JSON report written by harness.emit_report, as plain data."""
    with open(path) as fh:
        return json.load(fh)


def raw_hopf_wedge(mesh) -> tuple:
    """(H_A, stats): the uncorrected Hopf wedge int f*omega ^ W(xi) of the
    Hopf map on the degree-5 tet rule, with xi = d^{-1} of the projected
    f*omega and the statistics of that solve.  The projection and the
    solve are those of hardt_riviere's quadrature rule, so H_A pins their
    bits."""
    fstar = pullback_form(make_hopf(), volume_form(S2))
    xi, stats = d_inverse(de_rham_project(fstar, mesh))
    return integrate_wedge([fstar, xi], mesh, WEDGE_DEGREE), stats


def quadrature_hopf(f: SmoothMap, mesh) -> tuple:
    """(H*, H_A, CS): hardt_riviere's quadrature rule for the Hopf term of
    f, composed from the primitives (de_rham_project by quadrature,
    d_inverse and the two wedges of degree CS_WEDGE_DEGREE), so it gives
    that rule's bits at levels where the public value takes solid angles."""
    fstar = pullback_form(f, volume_form(S2))
    xi, _ = d_inverse(de_rham_project(fstar, mesh))
    raw = integrate_wedge([fstar, xi], mesh, CS_WEDGE_DEGREE)
    cs = integrate_wedge([xi.d(), xi], mesh, CS_WEDGE_DEGREE)
    return 2.0 * raw - cs, raw, cs


def node_lines(path: Path, match) -> list:
    """Sorted lines of the syntax-tree nodes of `path` that match(node)."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted({node.lineno for node in ast.walk(tree) if match(node)})


def package_hits(match, skip=()) -> list:
    """`file:line` of every syntax-tree node of the package's sources that
    match(node), leaving out the files `skip` (paths under src/quanthom)."""
    return [f"{path.relative_to(SRC.parent)}:{line}"
            for path in sorted(SRC.rglob("*.py"))
            if path.relative_to(SRC).as_posix() not in skip
            for line in node_lines(path, match)]

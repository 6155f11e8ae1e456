"""Quadrature rules on reference simplices.

Two pairs get symmetric rules: the tetrahedron at degree 5, 14 nodes in
two S31 orbits (a,a,a,1-3a) and one S22 orbit (b,b,1/2-b,1/2-b) (Keast,
CMAME 1986; Walkington 2000), and the triangle at degree 7, 12 nodes in
four orbits of the cyclic shifts of (a,b,1-a-b) (Gatermann, Computing
1988).  Every other pair gets a conical-product Gauss rule (Stroud): the
reference k-simplex {x_i >= 0, sum x_i <= 1} is mapped to the unit cube
by the Duffy substitution

    x_1 = t_1,  x_2 = t_2 (1 - t_1),  ...,  x_k = t_k prod_{j<k} (1 - t_j),

whose Jacobian factors (1-t_1)^{k-1} (1-t_2)^{k-2} ... are absorbed
exactly by Gauss-Jacobi weights.  Either way a rule of `order` q is exact
to total degree 2 floor((q+2)/2) - 1; its nodes are strictly interior, in
barycentric coordinates (n_pts, k+1), and its positive weights sum to 1
(the reference simplex has volume 1/k!, handled by callers).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np
from scipy.special import roots_jacobi

# (dim, degree) -> (group, orbits): the nodes are the images of each
# orbit's generator under the group; the tests solve for the parameters
_SYMMETRIC = {
    (3, 5): (permutations, [((a, a, a, 1 - 3 * a), w) for a, w in (
        (0.3108859192633006, 0.11268792571801585),
        (0.09273525031089122, 0.07349304311636196))] + [
        ((b, b, 0.5 - b, 0.5 - b), 0.042546020777081466)
        for b in (0.04550370412564965,)]),
    (2, 7): (lambda g: (g[i:] + g[:i] for i in range(3)), [
        ((a, b, 1 - a - b), w) for a, b, w in (
            (0.05522545665692661, 0.3215024938519818, 0.08776281742889211),
            (0.06238226509440212, 0.06751786707391609, 0.053034056314872506),
            (0.5158423343535917, 0.2777161669763918, 0.13498637401960556),
            (0.03432430294509715, 0.6609491961867356, 0.057550085569963175))]),
}


def _gauss_jacobi_01(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes/weights on [0,1] for the weight (1-t)^alpha."""
    # roots_jacobi integrates (1-x)^a (1+x)^b on [-1,1]
    x, w = roots_jacobi(n, alpha, 0.0)
    t = 0.5 * (x + 1.0)
    # dx = 2 dt and (1-x)^alpha = (2(1-t))^alpha
    w = w / 2.0 ** (alpha + 1)
    return t, w


def rule_info(dim: int, order: int) -> dict:
    """Exact degree and node count of `simplex_rule(dim, order)`."""
    return {"degree": 2 * ((order + 2) // 2) - 1,
            "nodes": len(simplex_rule(dim, order)[1])}


@lru_cache(maxsize=None)
def simplex_rule(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule on the reference `dim`-simplex: symmetric for
    (dim, order) = (3, 4|5) and (2, 6|7), else the conical product.

    Parameters
    ----------
    dim : simplex dimension k (0, 1, 2 or 3)
    order : >= 1; the rule is exact to degree 2 floor((order+2)/2) - 1

    Returns
    -------
    bary : (n_pts, k+1) barycentric coordinates, strictly positive
    weights : (n_pts,) positive weights summing to 1
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if dim == 0:
        return np.ones((1, 1)), np.ones(1)
    if dim not in (1, 2, 3):
        raise ValueError("dimension out of range")

    n = (order + 2) // 2  # n-point Gauss is exact to degree 2n-1
    if (dim, 2 * n - 1) in _SYMMETRIC:
        group, orbits = _SYMMETRIC[dim, 2 * n - 1]
        nodes = [(p, w) for g, w in orbits for p in sorted(set(group(g)))]
        return tuple(np.array(a) for a in zip(*nodes))
    axes = [_gauss_jacobi_01(n, dim - 1 - i) for i in range(dim)]

    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    ts = [g.ravel() for g in grids]
    weights = np.ones_like(ts[0])
    for wg in wgrids:
        weights = weights * wg.ravel()

    # Duffy map back to simplex coordinates
    coords = []
    rest = np.ones_like(ts[0])
    for t in ts:
        coords.append(t * rest)
        rest = rest * (1.0 - t)
    x = np.stack(coords, axis=1)
    bary = np.concatenate([1.0 - x.sum(axis=1, keepdims=True), x], axis=1)

    # Jacobi weights absorb the Duffy Jacobian; normalize to the volume
    # of the reference simplex and then to 1.
    weights = weights / weights.sum()
    return bary, weights

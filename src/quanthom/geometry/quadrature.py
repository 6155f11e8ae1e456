"""Quadrature rules on reference simplices, keyed by their exact degree.

The segment gets n-point Gauss-Legendre, exact to degree 2n - 1.  The
triangle and the tetrahedron get symmetric rules from a table: on the
triangle Radon's 7-node rule of degree 5, the centroid and two orbits
(a,a,1-2a) in closed form (Radon 1948; Stroud T2:5-1), and Gatermann's
12-node rule of degree 7, four orbits of the cyclic shifts of
(a,b,1-a-b) (Computing 1988); on the tetrahedron the 14-node rule of
degree 5, two S31 orbits (a,a,a,1-3a) and one S22 orbit
(b,b,1/2-b,1/2-b) (Keast, CMAME 1986; Walkington 2000).  Nodes are
strictly interior, in barycentric coordinates (n_pts, k+1), and the
positive weights sum to 1 (the reference simplex has volume 1/k!,
handled by callers).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import sqrt

import numpy as np
from scipy.special import roots_jacobi

# (dim, degree) -> (group, orbits): the nodes are the images of each
# orbit's generator under the group; the tests solve for the parameters
# of the degree-7 triangle and the tetrahedron
_SYMMETRIC = {
    (3, 5): (permutations, [((a, a, a, 1 - 3 * a), w) for a, w in (
        (0.3108859192633006, 0.11268792571801585),
        (0.09273525031089122, 0.07349304311636196))] + [
        ((b, b, 0.5 - b, 0.5 - b), 0.042546020777081466)
        for b in (0.04550370412564965,)]),
    (2, 5): (permutations, [((1 / 3, 1 / 3, 1 / 3), 9 / 40)] + [
        ((a, a, 1 - 2 * a), (155 + s) / 1200)
        for s in (-sqrt(15.0), sqrt(15.0)) for a in ((6 + s) / 21,)]),
    (2, 7): (lambda g: (g[i:] + g[:i] for i in range(3)), [
        ((a, b, 1 - a - b), w) for a, b, w in (
            (0.05522545665692661, 0.3215024938519818, 0.08776281742889211),
            (0.06238226509440212, 0.06751786707391609, 0.053034056314872506),
            (0.5158423343535917, 0.2777161669763918, 0.13498637401960556),
            (0.03432430294509715, 0.6609491961867356, 0.057550085569963175))]),
}


def rule_info(dim: int, degree: int) -> dict:
    """Exact degree and node count of `simplex_rule(dim, degree)`."""
    return {"degree": degree, "nodes": len(simplex_rule(dim, degree)[1])}


@lru_cache(maxsize=None)
def simplex_rule(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the reference `dim`-simplex exact to total degree `degree`.

    Any odd degree on the segment; degree 5 or 7 on the triangle and 5 on
    the tetrahedron.  Any other pair raises ValueError.

    Returns
    -------
    bary : (n_pts, k+1) barycentric coordinates, strictly positive
    weights : (n_pts,) positive weights summing to 1
    """
    if dim == 1 and degree >= 1 and degree % 2:
        # n-point Gauss is exact to degree 2n-1
        x, w = roots_jacobi((degree + 1) // 2, 0.0, 0.0)
        t = 0.5 * (x + 1.0)
        return np.stack([1.0 - t, t], axis=1), w / w.sum()
    if (dim, degree) not in _SYMMETRIC:
        raise ValueError(
            f"no quadrature rule of degree {degree} on the {dim}-simplex: "
            f"odd degrees on the segment, 5 or 7 on the triangle and 5 on "
            f"the tetrahedron")
    group, orbits = _SYMMETRIC[dim, degree]
    nodes = [(p, w) for g, w in orbits for p in sorted(set(group(g)))]
    return tuple(np.array(a) for a in zip(*nodes))

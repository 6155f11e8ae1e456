"""Batched determinants and minors, and the Whitney face table.

Every quantity of the lowest-order Whitney calculus is a small
determinant: mass entries are k x k minors of the Gram matrix of the
barycentric differentials, the Whitney basis on a frame is a signed sum
of k x k minors of dlambda(frame), and a pulled-back volume form is
det[f(x); Df v_1; ...; Df v_k].  `det` evaluates 1 x 1, 2 x 2 and 3 x 3
determinants in closed form (cofactor expansion), which is several times
faster than LU on large batches of tiny matrices, and falls back to
np.linalg.det only for larger ones; `det_rows` does the same from a list
of row arrays, so rows picked out of a larger array need no copy.

The short-axis reductions `row_sum`, `row_norm` and `cross3` work the
same way, one column at a time: numpy's reduce over a last axis of a few
entries costs several times the column additions with the same bits.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np


def det(a: np.ndarray) -> np.ndarray:
    """Determinants over the last two axes of `a` (..., n, n); 1 for n = 0."""
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return np.ones(a.shape[:-2])
    return det_rows([a[..., i, :] for i in range(n)])


def det_rows(rows) -> np.ndarray:
    """Determinants of the matrices whose i-th row is rows[i] (..., n),
    with n = len(rows) >= 1.  The rows may be views, e.g. of chosen
    vectors of a frame, so no matrix is gathered for n <= 3."""
    n = len(rows)
    if n == 1:
        return rows[0][..., 0].copy()
    if n == 2:
        r0, r1 = rows
        return r0[..., 0] * r1[..., 1] - r0[..., 1] * r1[..., 0]
    if n == 3:
        r0, r1, r2 = rows
        return (r0[..., 0] * (r1[..., 1] * r2[..., 2] - r1[..., 2] * r2[..., 1])
                - r0[..., 1] * (r1[..., 0] * r2[..., 2] - r1[..., 2] * r2[..., 0])
                + r0[..., 2] * (r1[..., 0] * r2[..., 1] - r1[..., 1] * r2[..., 0]))
    return np.linalg.det(np.stack(rows, axis=-2))


def row_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1) for a last axis of 1-7 entries, bit for bit, as
    column additions 0.0 + x_0 + x_1 + ... from the left.

    numpy's reduce starts from 0.0 too (so a row of -0.0 sums to +0.0)
    and adds left to right below 8 entries; from 8 entries on it sums a
    contiguous row pairwise, in 8 partial sums, so the bits differ."""
    out = x[..., 0] + 0.0
    for k in range(1, x.shape[-1]):
        out += x[..., k]
    return out


def row_norm(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) for a last axis of 1-7 entries, bit
    for bit: the square root of row_sum(x * x), as numpy takes it."""
    return np.sqrt(row_sum(x * x))


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross(a, b) of 3-vectors over the last axis, with its products
    and differences, without its broadcasting set-up."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0], axis=-1)


def minors(a: np.ndarray, k: int) -> np.ndarray:
    """All k x k minors of `a` (..., n, m) as (..., C(n, k), C(m, k)).

    Row and column subsets run over itertools.combinations order.
    """
    rows = np.array(list(combinations(range(a.shape[-2]), k)), dtype=np.intp)
    cols = np.array(list(combinations(range(a.shape[-1]), k)), dtype=np.intp)
    return det(a[..., rows[:, None, :, None], cols[None, :, None, :]])


@lru_cache(maxsize=None)
def whitney_table(N: int, k: int) -> np.ndarray:
    """Face table T (N+1, C(N+1, k), C(N+1, k+1)) of the Whitney k-forms.

    The Whitney form of the local face J = (j_0 < ... < j_k) of an
    N-simplex is W_J = k! sum_m (-1)^m lambda_{j_m} dlambda_{J - j_m}, so
    W_J(v_1..v_k) = k! sum_{j, I} T[j, I, J] lambda_j det[dlambda_I(v)],
    with T[j, I, J] = (-1)^m if j = j_m and I = J - j_m, else 0.  Subsets
    are numbered in itertools.combinations order.  Read-only.
    """
    faces = {I: i for i, I in enumerate(combinations(range(N + 1), k))}
    slots = list(combinations(range(N + 1), k + 1))
    T = np.zeros((N + 1, len(faces), len(slots)))
    for a, J in enumerate(slots):
        for m, j in enumerate(J):
            T[j, faces[J[:m] + J[m + 1:]], a] = (-1) ** m
    T.flags.writeable = False
    return T

"""The closed-form determinant kernel and its two Whitney consumers."""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quanthom.geometry.forms import _whitney_basis
from quanthom.geometry.mesh import simplex_geometry
from quanthom.geometry.minors import det, minors
from quanthom.geometry.quadrature import simplex_rule
from quanthom.hodge import _whitney_mass_blocks
from quanthom.invariants import hopf_invariant
from quanthom.maps import make_hopf

from conftest import cached_mesh

# magnitudes in [1e-6, 1e3] or 0, so no product underflows
entries = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@st.composite
def square_batches(draw):
    n = draw(st.integers(0, 3))
    batch = draw(st.integers(1, 8))
    return draw(arrays(np.float64, (batch, n, n), elements=entries))


@settings(max_examples=300, deadline=None)
@given(square_batches())
def test_closed_form_det_matches_lu(a):
    # error relative to the Hadamard bound prod ||row|| >= |det|, the
    # scale at which the cofactor expansion rounds.  The reference is
    # exact: LU with partial pivoting can grow entries far past that
    # scale (rows of 1e-6 next to a row of 1 become rows of 1), so its
    # own rounding is no reference at this tolerance
    scale = np.prod(np.linalg.norm(a, axis=2), axis=1)
    assert np.all(np.abs(det(a) - _exact_det(a)) <= 1e-13 * scale)


def _exact_det(a):
    """Leibniz determinants in rational arithmetic, rounded once."""
    n = a.shape[-1]
    out = []
    for m in a:
        q = [[Fraction(float(x)) for x in row] for row in m]
        out.append(float(sum(_sign(p) * prod((q[i][p[i]] for i in range(n)),
                                             start=Fraction(1))
                             for p in permutations(range(n)))))
    return np.array(out)


def _sign(p):
    return (-1) ** sum(p[i] > p[j] for i in range(len(p))
                       for j in range(i + 1, len(p)))


def test_det_above_three_uses_lu(rng):
    a = rng.standard_normal((5, 4, 4))
    assert np.allclose(det(a), np.linalg.det(a), rtol=1e-13, atol=0)


@pytest.mark.parametrize("n,m,k", [(4, 4, 0), (4, 4, 1), (4, 4, 2), (4, 4, 3),
                                   (4, 2, 2), (3, 4, 2)])
def test_minors_against_submatrices(rng, n, m, k):
    a = rng.standard_normal((3, n, m))
    got = minors(a, k)
    for i, rows in enumerate(combinations(range(n), k)):
        for j, cols in enumerate(combinations(range(m), k)):
            ref = np.linalg.det(a[:, list(rows)][:, :, list(cols)]) if k else 1.0
            assert np.allclose(got[:, i, j], ref, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("N,k", [(N, k) for N in (1, 2, 3) for k in range(N + 1)])
def test_mass_blocks_match_quadrature_of_basis(rng, N, k):
    # M[a, b] = int_T <W_a, W_b>, and <alpha, beta> = sum over increasing
    # k-subsets I of an orthonormal tangent frame of alpha(e_I) beta(e_I)
    # (Cauchy-Binet); W is degree 1 in lambda, so the degree-5 rule is exact
    pts = rng.standard_normal((4, N + 1, N + 1))
    _, vol, grads, g = simplex_geometry(pts)
    q, _ = np.linalg.qr(np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2))
    frames = np.swapaxes(q, 1, 2)                        # (t, N, N+1)
    bary, w = simplex_rule(N, 5)
    ref = 0.0
    for sub in combinations(range(N), k):
        dl = grads @ np.swapaxes(frames[:, list(sub)], 1, 2)   # (t, N+1, k)
        W = _whitney_basis(bary[None], dl[:, None])            # (t, q, s)
        ref = ref + np.einsum("q,tqa,tqb->tab", w, W, W)
    ref *= vol[:, None, None]
    blocks = _whitney_mass_blocks(g, vol, k)
    assert np.abs(blocks - ref).max() <= 1e-13 * np.abs(ref).max()


def test_whitney_basis_zero_forms_are_barycentric(rng):
    lam = rng.random((6, 4))
    assert np.array_equal(_whitney_basis(lam, np.zeros((6, 4, 0))), lam)


def test_whitney_basis_top_form_is_volume(rng):
    # k = N: the single face has W = N! dlambda_1 ^ .. ^ dlambda_N, which
    # on the simplex's own edge vectors is N! (the edges' dual basis)
    for N in (1, 2, 3):
        pts = rng.standard_normal((1, N + 1, N + 1))
        _, _, grads, _ = simplex_geometry(pts)
        edges = pts[:, 1:] - pts[:, :1]
        dl = grads @ np.swapaxes(edges, 1, 2)
        lam = rng.random((1, N + 1))
        val = _whitney_basis(lam / lam.sum(), dl)
        assert val.shape == (1, 1)
        assert abs(val[0, 0] - factorial(N)) < 1e-12 * factorial(N)


@pytest.mark.parametrize("level,value", [(1, float.fromhex("0x1.e5d13bd6b0f58p-1")),
                                         (2, float.fromhex("0x1.f956f76e64bf3p-1"))])
def test_hopf_pinned(level, value):
    # values with the 14-node tet and 12-node triangle rules; the pin is
    # 1e-12, not bitwise, so a reordered sum may move the last digits
    r = hopf_invariant(make_hopf(), cached_mesh(3, level))
    assert abs(r.value - value) < 1e-12


@pytest.mark.parametrize("level,conical,bound", [
    (1, float.fromhex("0x1.e5d0ea3e4dbe0p-1"), 5e-6),
    (2, float.fromhex("0x1.f956f5ecf0f60p-1"), 1e-7),
    (3, float.fromhex("0x1.fe59dfe8e9ef5p-1"), 2e-9)])
def test_hopf_moves_little_from_the_conical_rules(level, conical, bound):
    # `conical`: the value with the 27-node tet and 16-node triangle
    # conical products of the same degrees (5 and 7); the symmetric rules
    # move it by a quadrature term that falls about 60-fold per level,
    # far below the O(h^2) discretization error
    r = hopf_invariant(make_hopf(), cached_mesh(3, level))
    assert abs(r.value - conical) < bound

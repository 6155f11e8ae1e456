"""Kernels of the linking oracle: fiber frame, traced fibers, the Gauss
integral, input checks, and the reflection law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quanthom.invariants import hopf_invariant
from quanthom.linking import (_quaternion_frame, gauss_linking_integral,
                              gauss_linking_oracle, preimage_link)
from quanthom.maps import (compose_with_isometry, make_constant, make_hopf,
                           make_oscillation_perturbation)

from conftest import cached_mesh

E1 = np.array([1.0, 0.0, 0.0])


def circle(n, center, u, v):
    t = 2 * np.pi * np.arange(n) / n
    return center + np.cos(t)[:, None] * u + np.sin(t)[:, None] * v


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, 4, elements=st.floats(-1.0, 1.0))
       .filter(lambda x: np.linalg.norm(x) > 1e-3))
def test_quaternion_frame_orthonormal_tangent_positive(x):
    x = x / np.linalg.norm(x)
    B = _quaternion_frame(x[None])[0]
    assert np.allclose(B.T @ B, np.eye(3), atol=1e-14)
    assert np.allclose(x @ B, 0.0, atol=1e-14)
    assert abs(np.linalg.det(np.column_stack([x, B])) - 1.0) < 1e-13


def test_gauss_integral_linked_circles_second_order():
    # round unit circles in the xy- and xz-planes, the second through the
    # center of the first against its normal: linking number -1
    e = np.eye(3)
    errs = []
    for n in (32, 64, 128):
        val = gauss_linking_integral(circle(n, 0 * e[0], e[0], e[1]),
                                     circle(n, e[0], e[0], e[2]))
        assert abs(val + 1.0) < 1e-2
        errs.append(abs(val + 1.0))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 1.8) & (orders < 2.2)), orders


def test_gauss_integral_matches_direct_midpoint_sum(rng):
    # the blocked matmul numerator against the per-pair formula
    c1 = rng.standard_normal((700, 3))
    c2 = rng.standard_normal((300, 3)) + 4.0
    x, y = [0.5 * (c + np.roll(c, -1, axis=0)) for c in (c1, c2)]
    dx, dy = [np.roll(c, -1, axis=0) - c for c in (c1, c2)]
    diff = x[:, None] - y[None]
    num = np.einsum("ijk,ijk->ij", diff, np.cross(dx[:, None], dy[None]))
    ref = (num / np.linalg.norm(diff, axis=2) ** 3).sum() / (4 * np.pi)
    assert abs(gauss_linking_integral(c1, c2) - ref) <= 1e-12 * max(abs(ref), 1)


@pytest.mark.parametrize("n1, n2", [(700, 300), (256, 40), (100, 513),
                                    (513, 1000)])
def test_gauss_integral_buffers_bitwise(n1, n2):
    # the preallocated block buffers against the allocating expression,
    # with full blocks, one block, and a partial last block
    rng = np.random.default_rng(n1 * n2)
    c1 = rng.standard_normal((n1, 3))
    c2 = rng.standard_normal((n2, 3)) + 0.5
    dx, dy = [np.roll(c, -1, axis=0) - c for c in (c1, c2)]
    x, y = c1 + 0.5 * dx, c2 + 0.5 * dy
    xdx, ydy = np.cross(x, dx), np.cross(y, dy)
    total = 0.0
    for i in range(0, n1, 256):
        rows = slice(i, i + 256)
        num = xdx[rows] @ dy.T + dx[rows] @ ydy.T
        d2 = sum((x[rows, k, None] - y[None, :, k]) ** 2 for k in range(3))
        total += float((num / (d2 * np.sqrt(d2))).sum())
    assert gauss_linking_integral(c1, c2) == total / (4.0 * np.pi)


def test_gauss_integral_far_circles_unlinked():
    e = np.eye(3)
    u, v = np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0])
    val = gauss_linking_integral(circle(64, 0 * e[0], e[0], e[1]),
                                 circle(64, np.array([6.0, 2.0, 1.0]), u, v))
    assert abs(val) < 1e-4


@pytest.mark.parametrize("f", [make_hopf(),
                               make_oscillation_perturbation(make_hopf(),
                                                             0.19, 5)],
                         ids=["hopf", "osc(0.19,5)∘hopf"])
def test_traced_fiber_on_preimage_and_evenly_spaced(f):
    p = np.array([0.6, 0.0, 0.8])
    step = 2 * np.pi / 400
    curves = preimage_link(f, p, step, seed=3)
    assert curves
    for c in curves:
        assert np.all(np.linalg.norm(f.value(c.points) - p, axis=1) <= 1e-10)
        gaps = np.linalg.norm(np.roll(c.points, -1, axis=0) - c.points, axis=1)
        assert np.all((gaps >= 0.25 * step) & (gaps <= 1.5 * step))
        assert c.min_transverse_sv > 1e-3


@pytest.mark.parametrize("kwargs,match", [
    (dict(p=np.array([2.0, 0.0, 0.0]), q=np.array([-2.0, 0.0, 0.0])), "p"),
    (dict(p=E1, q=np.array([0.0, 1.0])), "q"),
    (dict(p=E1, q=np.array([np.nan, 0.0, 0.0])), "q"),
    (dict(p=E1, q=E1.copy()), "p and q"),
    (dict(p=E1, q=-E1, step=-0.01), "step"),
    (dict(p=E1, q=-E1, step=np.inf), "step"),
    (dict(p=E1, q=-E1, step=0.0), "step"),
    (dict(p=E1, q=-E1, reg_tol=-1e-3), "reg_tol"),
], ids=["off-sphere", "short", "nan", "equal", "negative-step", "inf-step",
        "zero-step", "negative-reg_tol"])
def test_oracle_rejects_bad_input(kwargs, match):
    with pytest.raises(ValueError, match=match):
        gauss_linking_oracle(make_hopf(), **kwargs)


def test_oracle_reports_how_it_got_its_answer():
    res = gauss_linking_oracle(make_hopf(), E1, -E1)
    assert res.n_components == (1, 1)
    assert [len(s) for s in res.points] == [1, 1]
    assert all(1900 <= n <= 2100 for s in res.points for n in s)
    assert 1e-3 < res.min_transverse_sv <= 2.0 + 1e-12
    empty = gauss_linking_oracle(make_constant(3), np.array([0.0, 0, 1]),
                                 np.array([0.0, 1, 0]))
    assert empty.points == ((), ()) and empty.min_transverse_sv is None


def test_reflection_flips_sign():
    f = compose_with_isometry(make_hopf(), np.diag([-1.0, 1.0, 1.0, 1.0]))
    link = gauss_linking_oracle(f, E1, -E1)
    assert link.n_components == (1, 1)
    assert abs(link.value + 1.0) < 1e-3
    assert abs(hopf_invariant(f, cached_mesh(3, 1)).value + 1.0) < 0.1

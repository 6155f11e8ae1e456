"""Kernels of the linking oracle: fiber frame, traced fibers, the Gauss
integral, input checks, pinned values, and the reflection law."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quanthom import linking
from quanthom.invariants import hopf_invariant
from quanthom.linking import (_cycles, _quaternion_frame,
                              gauss_linking_integral, gauss_linking_oracle,
                              preimage_link)
from quanthom.maps import (compose_with_isometry, make_constant, make_hopf,
                           make_oscillation_perturbation, parse_map_spec)

from conftest import cached_mesh

E1 = np.array([1.0, 0.0, 0.0])
SQUARE = "compose:suspension:d=2|hopf"


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
    for i in range(0, n1, linking._GAUSS_ROWS):
        rows = slice(i, i + linking._GAUSS_ROWS)
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


def test_cycles_of_successor_map_in_first_met_order():
    # 3 -> 2 runs into the cycle (0 1 2) and lies on no cycle
    assert _cycles(np.array([1, 2, 0, 2, 5, 4, 6])) == [[0, 1, 2], [4, 5],
                                                        [6]]
    assert _cycles(np.array([], dtype=int)) == []


@pytest.mark.parametrize("gap", [0.3, 0.45])
def test_close_starts_trace_one_loop(monkeypatch, gap):
    # two starts `gap` output steps apart on a Hopf fiber 401.5 steps
    # long: were neither dropped, the trace from each could pass the other
    # and their cycle go round the fiber twice
    f, step = make_hopf(), 2 * np.pi / 401.5
    x = np.array([0.6, 0.0, 0.8, 0.0])
    p = f.value(x[None])[0]
    v = linking._fiber_geometry(f, x[None], p[None])[2][0]
    y = np.cos(gap * step) * x + np.sin(gap * step) * v
    planted = SimpleNamespace(standard_normal=lambda shape: np.stack([x, y]))
    monkeypatch.setattr(linking, "_STARTS", 2)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: planted)
    curves = preimage_link(f, p, step)
    assert len(curves) == 1
    assert 390 <= len(curves[0].points) <= 410


def test_stacked_values_trace_as_single_calls():
    # value j of a stack is sought from seed + j, as one call per value
    f = parse_map_spec(SQUARE)
    P = np.array([E1, -E1, [0.0, 0.6, 0.8]])
    step = 2 * np.pi / 400
    stacked = preimage_link(f, P, step, seed=5)
    assert [c.value for c in stacked] == sorted(c.value for c in stacked)
    for j, p in enumerate(P):
        one = preimage_link(f, p, step, seed=5 + j)
        assert len(one) == 2 and all(c.value == 0 for c in one)
        assert ([len(c.points) for c in stacked if c.value == j]
                == [len(c.points) for c in one])


def test_close_components_stay_apart():
    # the two fibers of each value lie about 2.5 output steps apart, past
    # the 1.5-step arrival radius of the tracer
    e = 0.008
    p = np.array([np.sin(e), 0.0, np.cos(e)])
    res = gauss_linking_oracle(parse_map_spec(SQUARE), p, -p,
                               step=2 * np.pi / 2000)
    assert res.n_components == (2, 2)
    assert abs(res.value - 4.0) < 4e-3


@pytest.mark.parametrize("spec, pin", [("hopf", "0x1.00000e020d7ecp+0"),
                                       (SQUARE, "0x1.000012bb112b1p+2")])
def test_oracle_pinned(spec, pin):
    res = gauss_linking_oracle(parse_map_spec(spec), E1, -E1,
                               step=2 * np.pi / 2000, seed=0)
    assert abs(res.value - float.fromhex(pin)) < 1e-8
    assert all(1900 <= n <= 2100 for side in res.points for n in side)


def test_oracle_fiber_geometry_budget(monkeypatch):
    # the starts of both values advance together, one batched Newton call
    # per coarse step
    calls = []
    fiber_geometry = linking._fiber_geometry
    monkeypatch.setattr(linking, "_fiber_geometry",
                        lambda *a: calls.append(1) or fiber_geometry(*a))
    res = gauss_linking_oracle(parse_map_spec(SQUARE), E1, -E1)
    assert res.n_components == (2, 2)
    assert len(calls) <= 300


@pytest.mark.parametrize("kwargs,match", [
    (dict(p=np.array([2.0, 0.0, 0.0]), q=np.array([-2.0, 0.0, 0.0])), "p"),
    (dict(p=E1, q=np.array([0.0, 1.0])), "q"),
    (dict(p=E1, q=np.array([np.nan, 0.0, 0.0])), "q"),
    (dict(p=E1, q=E1.copy()), "p and q"),
    (dict(p=E1, q=-E1, step=-0.01), "step"),
    (dict(p=E1, q=-E1, step=np.inf), "step"),
    (dict(p=E1, q=-E1, step=0.0), "step"),
], ids=["off-sphere", "short", "nan", "equal", "negative-step", "inf-step",
        "zero-step"])
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

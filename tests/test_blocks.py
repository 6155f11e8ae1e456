"""Blocked quadrature and assembly do not depend on the block size or
on the number of cores.

Every loop over the simplices of a mesh runs over the row slices of
geometry.mesh.blocks, through geometry.mesh.map_blocks.  A block size of
7 leaves uneven blocks with a partial last one on every mesh used here;
it must give the one-block result up to round-off, and the default size
the same bits every run.  One and two workers must give the same bits.
"""

import sys
import threading

import numpy as np
import pytest

from quanthom.geometry import (FormField, build_sphere_mesh, de_rham_project,
                               integrate_wedge, sphere_quadrature)
from quanthom.geometry import mesh as mesh_module
from quanthom.hodge import d_inverse, mass_matrix
from quanthom.invariants import hopf_invariant
from quanthom.maps import S2, make_hopf, pullback_form, volume_form

from conftest import cached_mesh

ODD = 7
ONE = 10 ** 9


def at_block(monkeypatch, size, compute):
    monkeypatch.setattr(mesh_module, "BLOCK", size)
    return compute()


def at_workers(monkeypatch, cores, compute):
    monkeypatch.setattr(mesh_module, "_cores", lambda: cores)
    return compute()


def assert_uneven(n):
    assert n > ODD and n % ODD, "block size must leave a partial last block"


def assert_close(a, b):
    assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def one_form(points, frames):
    v = frames[:, 0, :]
    return points[:, 0] * v[:, 1] - 0.4 * points[:, 2] * v[:, 0]


@pytest.mark.parametrize("form", [FormField(1, one_form), volume_form(S2)],
                         ids=["1-form", "2-form"])
def test_projection_block_equivalence(monkeypatch, form):
    m = cached_mesh(2, 3)
    assert_uneven(m.n_simplices(form.degree))
    odd = at_block(monkeypatch, ODD, lambda: de_rham_project(form, m))
    one = at_block(monkeypatch, ONE, lambda: de_rham_project(form, m))
    assert_close(odd.values, one.values)


def test_sphere_quadrature_block_equivalence(monkeypatch):
    m = cached_mesh(2, 3)
    assert_uneven(m.n_simplices(2))
    odd = at_block(monkeypatch, ODD, lambda: sphere_quadrature(m))
    one = at_block(monkeypatch, ONE, lambda: sphere_quadrature(m))
    for a, b in zip(odd, one):
        assert a.shape == b.shape
        assert_close(a, b)


def test_hopf_wedge_block_equivalence(monkeypatch):
    m = cached_mesh(3, 1)
    assert_uneven(m.n_simplices(3))
    fstar = pullback_form(make_hopf(), volume_form(S2))
    xi, _ = d_inverse(de_rham_project(fstar, m), closed_tol=1e-3)
    odd = at_block(monkeypatch, ODD, lambda: integrate_wedge([fstar, xi], m))
    one = at_block(monkeypatch, ONE, lambda: integrate_wedge([fstar, xi], m))
    assert odd == pytest.approx(one, rel=1e-13, abs=0)


@pytest.mark.parametrize("dim,level", [(2, 3), (3, 1)])
def test_mass_matrix_block_equivalence(monkeypatch, dim, level):
    m = cached_mesh(dim, level)
    assert_uneven(m.n_simplices(dim))
    for k in range(dim + 1):
        odd = at_block(monkeypatch, ODD, lambda: mass_matrix(m, k))
        one = at_block(monkeypatch, ONE, lambda: mass_matrix(m, k))
        assert odd.has_canonical_format and one.has_canonical_format
        assert np.array_equal(odd.indptr, one.indptr)
        assert np.array_equal(odd.indices, one.indices)
        assert_close(odd.data, one.data)


def test_default_block_size_is_bitwise_reproducible():
    # S^2 level 5 and S^3 level 2 have several default-size blocks
    m2, m3 = cached_mesh(2, 5), cached_mesh(3, 2)
    assert min(m2.n_simplices(2), m3.n_simplices(3)) > mesh_module.BLOCK
    runs = []
    for _ in range(2):
        runs.append((de_rham_project(FormField(1, one_form), m2).values,
                     *sphere_quadrature(m2),
                     *(mass_matrix(m3, k).data for k in range(4)),
                     np.array([hopf_invariant(make_hopf(), m3).value])))
    for a, b in zip(*runs):
        assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# map_blocks: the same bits on one core and on two
# ----------------------------------------------------------------------

def one_and_two_workers(monkeypatch, compute):
    """compute() on one worker and on two, with blocks small enough that
    both workers get several."""
    monkeypatch.setattr(mesh_module, "BLOCK", 64)
    return (at_workers(monkeypatch, 1, compute),
            at_workers(monkeypatch, 2, compute))


def test_projection_workers_bitwise(monkeypatch):
    m = cached_mesh(2, 3)
    for form in (FormField(1, one_form), volume_form(S2)):
        one, two = one_and_two_workers(
            monkeypatch, lambda: de_rham_project(form, m).values)
        assert one.tobytes() == two.tobytes()


def test_sphere_quadrature_workers_bitwise(monkeypatch):
    m = cached_mesh(2, 3)
    one, two = one_and_two_workers(monkeypatch, lambda: sphere_quadrature(m))
    for a, b in zip(one, two):
        assert a.tobytes() == b.tobytes()


def test_hopf_wedge_workers_bitwise(monkeypatch):
    m = cached_mesh(3, 1)
    fstar = pullback_form(make_hopf(), volume_form(S2))
    xi, _ = d_inverse(de_rham_project(fstar, m), closed_tol=1e-3)
    one, two = one_and_two_workers(
        monkeypatch, lambda: integrate_wedge([fstar, xi], m))
    assert one.hex() == two.hex()


@pytest.mark.parametrize("dim,level", [(2, 3), (3, 1)])
def test_mass_matrix_workers_bitwise(monkeypatch, dim, level):
    m = cached_mesh(dim, level)
    for k in range(dim + 1):
        one, two = one_and_two_workers(monkeypatch, lambda: mass_matrix(m, k))
        for a, b in ((one.indptr, two.indptr), (one.indices, two.indices),
                     (one.data, two.data)):
            assert a.tobytes() == b.tobytes()


def test_hopf_level_2_workers_bitwise(monkeypatch):
    # a fresh mesh per run, so the mesh geometry and the operators it
    # caches are built under each worker count too
    one = at_workers(monkeypatch, 1, lambda: hopf_invariant(
        make_hopf(), build_sphere_mesh(3, 2)).value)
    two = at_workers(monkeypatch, 2, lambda: hopf_invariant(
        make_hopf(), build_sphere_mesh(3, 2)).value)
    assert one.hex() == two.hex()


def test_map_blocks_returns_block_order(monkeypatch):
    monkeypatch.setattr(mesh_module, "BLOCK", ODD)
    n = 5 * ODD + 3
    got = at_workers(monkeypatch, 2, lambda: mesh_module.map_blocks(
        lambda rows: (rows.start, rows.stop), n))
    assert got == [(lo, min(lo + ODD, n)) for lo in range(0, n, ODD)]


def test_map_blocks_helper_exception_propagates(monkeypatch):
    monkeypatch.setattr(mesh_module, "BLOCK", ODD)
    caller = threading.get_ident()

    def fn(rows):
        if threading.get_ident() != caller:
            raise ArithmeticError(f"block at {rows.start}")
        return rows.start

    # block 1 goes to the helper, whose first block raises
    with pytest.raises(ArithmeticError, match=f"block at {ODD}"):
        at_workers(monkeypatch, 2, lambda: mesh_module.map_blocks(fn, 4 * ODD))


def test_map_blocks_leaves_no_thread(monkeypatch):
    m = cached_mesh(3, 1)
    before = threading.active_count()
    at_workers(monkeypatch, 2, lambda: mass_matrix(m, 1))
    assert threading.active_count() == before


def test_on_demand_top_arrays_match_former_storage():
    m = cached_mesh(3, 1)
    pts = m.verts[m.simplices[3]]
    edges = pts[:, 1:] - pts[:, :1]
    grads = np.linalg.inv(edges @ np.swapaxes(edges, 1, 2)) @ edges
    barygrad = np.concatenate([-grads.sum(axis=1, keepdims=True), grads],
                              axis=1)
    assert np.array_equal(m.top_points, pts)
    assert np.array_equal(m.top_edges, edges)
    assert np.abs(m.barygrad - barygrad).max() <= 1e-13 * np.abs(barygrad).max()
    metric = np.einsum("tid,tjd->tij", barygrad, barygrad)
    assert np.abs(m.metric - metric).max() <= 1e-13 * np.abs(metric).max()
    assert m.top_face_parity[1].dtype == np.int8


def test_map_blocks_stress_more_workers_than_cores(monkeypatch):
    # four workers on small blocks with a short switch interval: every
    # block writes its own rows of one shared array, and a lost or
    # misplaced write would change the result
    monkeypatch.setattr(mesh_module, "BLOCK", ODD)
    n = 97 * ODD + 3
    out = np.zeros(n)

    def fill(rows):
        out[rows] = np.arange(rows.start, rows.stop) ** 2

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        at_workers(monkeypatch, 4, lambda: mesh_module.map_blocks(fill, n))
        quad = at_workers(monkeypatch, 4, lambda: sphere_quadrature(
            cached_mesh(2, 3)))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, np.arange(n) ** 2.0)
    ref = at_workers(monkeypatch, 1, lambda: sphere_quadrature(cached_mesh(2, 3)))
    for a, b in zip(quad, ref):
        assert a.tobytes() == b.tobytes()

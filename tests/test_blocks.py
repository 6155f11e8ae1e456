"""Blocked quadrature and assembly do not depend on the block size.

Every loop over the simplices of a mesh runs over the row slices of
geometry.mesh.blocks.  A block size of 7 leaves uneven blocks with a
partial last one on every mesh used here; it must give the one-block
result up to round-off, and the default size the same bits every run.
"""

import numpy as np
import pytest

from quanthom.geometry import (FormField, de_rham_project, integrate_wedge,
                               sphere_quadrature)
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

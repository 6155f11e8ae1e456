"""Blocked quadrature and assembly do not depend on the block size or
on the number of cores.

Every loop over the simplices of a mesh runs over the row slices of
geometry.mesh.blocks, through geometry.mesh.map_blocks.  A block size of
7 leaves uneven blocks with a partial last one on every mesh used here;
it must give the one-block result up to round-off, and the default size
the same bits every run.  One and two workers must give the same bits,
as must the Sobolev strata, the Gauss row blocks and the BMO cap tasks,
which run through geometry.mesh.map_tasks (the last two with per-worker
scratch from geometry.mesh.map_scratch), and the CG solves, whose
matvec row ranges run in one geometry.mesh.task_pool per solve.
"""

import ast
import sys
import threading
import time

import numpy as np
import pytest

from quanthom.geometry import (FormField, build_sphere_mesh, de_rham_project,
                               integrate_wedge, sphere_quadrature)
from quanthom.geometry import mesh as mesh_module
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg

from quanthom.hodge import (_CG_ROWS, _jacobi_cg, _row_ranges, d_inverse,
                            hodge_operator, mass_matrix)
from quanthom.invariants import hopf_invariant
from quanthom.linking import _GAUSS_ROWS, gauss_linking_integral
from quanthom.maps import (S2, make_hopf, parse_map_spec, pullback_form,
                           volume_form)
from quanthom.seminorms import (_BMO_CAPS, _bmo_cap_values, bmo_seminorm,
                                sobolev_seminorm)

from conftest import cached_mesh
from helpers import (barycentric_gradients, bmo_cap_by_cap, node_lines,
                     package_hits)

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
    xi, _ = d_inverse(de_rham_project(fstar, m))
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
    xi, _ = d_inverse(de_rham_project(fstar, m))
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
    barygrad = barycentric_gradients(pts)
    assert np.array_equal(m.top_points, pts)
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


# ----------------------------------------------------------------------
# map_tasks: the seminorm and linking loops, the same bits on one core
# and on two
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["suspension:d=2", "hopf"])
def test_sobolev_strata_workers_bitwise(monkeypatch, spec):
    f = parse_map_spec(spec)
    one, two = [at_workers(monkeypatch, w, lambda: sobolev_seminorm(
        f, 0.8, 3.0, samples=6_000, seed=5)) for w in (1, 2)]
    assert (one.value.hex(), one.error.hex()) == (two.value.hex(),
                                                  two.error.hex())


@pytest.mark.parametrize("spec", ["circle-power:d=2", "suspension:d=2",
                                  "hopf"])
def test_bmo_workers_bitwise(monkeypatch, spec):
    f = parse_map_spec(spec)
    one, two = [at_workers(monkeypatch, w, lambda: bmo_seminorm(
        f, centers=9, cap_samples=40, seed=6)) for w in (1, 2)]
    assert (one.value.hex(), one.error.hex()) == (two.value.hex(),
                                                  two.error.hex())


@pytest.mark.parametrize("spec", ["circle-power:d=2", "suspension:d=2",
                                  "hopf"], ids=["N=1", "N=2", "N=3"])
@pytest.mark.parametrize("m", [2, 128])
def test_bmo_matches_cap_by_cap_reference(monkeypatch, spec, m):
    # 9 and 27 caps: one partial task, and three full tasks and a partial
    f = parse_map_spec(spec)
    for centers in (1, 3):
        assert (centers * 9) % _BMO_CAPS
        for seed in (0, 6, 13):
            ref = bmo_cap_by_cap(_bmo_cap_values(f, centers, m, seed))
            for w in (1, 2):
                est = at_workers(monkeypatch, w, lambda: bmo_seminorm(
                    f, centers=centers, cap_samples=m, seed=seed))
                assert (est.value.hex(), est.error.hex(), est.samples) == (
                    ref[0].hex(), ref[1].hex(), centers * 9 * m)


def spd_grid_matrix(side: int) -> sparse.csr_matrix:
    """The 5-point Laplacian of a side x side grid plus a small shift,
    with random positive weights: symmetric positive definite."""
    rng = np.random.default_rng(4)
    n = side * side
    ij = np.arange(n).reshape(side, side)
    rows = np.concatenate([ij[:, :-1].ravel(), ij[:-1, :].ravel()])
    cols = np.concatenate([ij[:, 1:].ravel(), ij[1:, :].ravel()])
    w = rng.uniform(0.5, 2.0, len(rows))
    E = sparse.csr_matrix((w, (rows, cols)), shape=(n, n))
    E = E + E.T
    return (sparse.diags(np.asarray(E.sum(axis=1)).ravel() + 1e-2) - E).tocsr()


def test_jacobi_cg_row_ranges_match_unsplit_cg(monkeypatch):
    # the own loop against scipy's cg with the same Jacobi preconditioner,
    # at one and two row ranges: the curl form (rtol), the gauge form
    # (atol only), b = 0 (no step) and steps that run out (the message)
    A = spd_grid_matrix(190)
    assert A.shape[0] >= 2 * _CG_ROWS
    diag = A.diagonal()
    for w, n_ranges in ((1, 1), (2, 2)):
        ranges = at_workers(monkeypatch, w, lambda: _row_ranges(A))
        assert len(ranges) == n_ranges
        assert all(np.shares_memory(r.data, A.data)
                   and np.shares_memory(r.indices, A.indices) for r in ranges)
    rhs = np.random.default_rng(5).standard_normal(A.shape[0])
    for b, rtol, atol, maxiter in ((rhs, 1e-9, 0.0, 2000),
                                   (rhs, 0.0, 1e-7, 2000),
                                   (0.0 * rhs, 1e-9, 0.0, 2000),
                                   (rhs, 1e-9, 0.0, 20)):
        its = 0

        def count(_):
            nonlocal its
            its += 1

        ref, info = cg(A, b, rtol=rtol, atol=atol, maxiter=maxiter,
                       callback=count,
                       M=LinearOperator(A.shape, matvec=lambda x: x / diag))
        def solve():
            return _jacobi_cg(A, b, rtol, atol=atol, maxiter=maxiter)

        for w in (1, 2):
            if info == 0:
                x, n = at_workers(monkeypatch, w, solve)
                assert x.tobytes() == ref.tobytes() and n == its
            else:
                assert info == its == maxiter
                res = np.linalg.norm(A @ ref - b) / np.linalg.norm(b)
                with pytest.raises(RuntimeError) as err:
                    at_workers(monkeypatch, w, solve)
                assert str(err.value) == (
                    f"conjugate gradient did not converge: relative "
                    f"residual {res:.3e} after {its} iterations")
    assert its == maxiter            # the last input did run out of steps


def test_cg_below_row_constant_is_one_range(monkeypatch):
    A = spd_grid_matrix(127)
    assert A.shape[0] < _CG_ROWS
    assert len(at_workers(monkeypatch, 2, lambda: _row_ranges(A))) == 1


def test_gauss_integral_workers_bitwise(monkeypatch):
    # three row blocks, the last partial: two workers take two and one
    rng = np.random.default_rng(3)
    c1 = rng.standard_normal((2 * _GAUSS_ROWS + 17, 3))
    c2 = rng.standard_normal((301, 3)) + 0.5
    one, two = [at_workers(monkeypatch, w, lambda: gauss_linking_integral(
        c1, c2)) for w in (1, 2)]
    assert one.hex() == two.hex()


def test_map_tasks_returns_task_order(monkeypatch):
    tasks = [f"task {i}" for i in range(7)]
    got = at_workers(monkeypatch, 2, lambda: mesh_module.map_tasks(
        lambda t: (t, threading.get_ident()), tasks))
    assert [t for t, _ in got] == tasks
    # dealt round-robin: the even tasks on the caller, the odd on a helper
    caller = threading.get_ident()
    assert [ident == caller for _, ident in got] == [
        i % 2 == 0 for i in range(7)]


def test_map_tasks_helper_exception_propagates(monkeypatch):
    caller = threading.get_ident()

    def fn(task):
        if threading.get_ident() != caller:
            raise ArithmeticError(f"task {task}")
        return task

    with pytest.raises(ArithmeticError, match="task 1"):
        at_workers(monkeypatch, 2, lambda: mesh_module.map_tasks(fn, range(5)))


def test_map_tasks_leaves_no_thread(monkeypatch):
    before = threading.active_count()
    f = parse_map_spec("suspension:d=2")
    at_workers(monkeypatch, 2, lambda: sobolev_seminorm(f, 0.5, 4.0,
                                                        samples=2_000))
    at_workers(monkeypatch, 2, lambda: mesh_module.map_tasks(abs, [-1, 2, -3]))
    assert threading.active_count() == before


def test_map_scratch_deals_one_array_per_worker(monkeypatch):
    # seven tasks on two workers: each task fills its scratch with its own
    # number and finds it unchanged after a pause, so no two tasks that
    # run at once share an array
    made = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape):
            made.append((np.empty(shape), threading.get_ident()))
            return made[-1][0]

    monkeypatch.setattr(mesh_module, "np", RecordingNumpy())

    def fn(task, scratch):
        scratch.fill(task)
        time.sleep(0.01)
        assert (scratch == task).all()
        return task, scratch.shape, scratch.__array_interface__["data"][0], \
            threading.get_ident()

    got = at_workers(monkeypatch, 2, lambda: mesh_module.map_scratch(
        fn, list(range(7)), (3, 5)))
    assert [g[:2] for g in got] == [(i, (3, 5)) for i in range(7)]
    # one array of both workers' scratch, made on the calling thread
    (whole, thread), = made
    assert whole.shape == (2, 3, 5) and thread == threading.get_ident()
    starts = {whole[i].__array_interface__["data"][0] for i in range(2)}
    per_thread = {}
    for _, _, start, ident in got:
        per_thread.setdefault(ident, set()).add(start)
    assert len(per_thread) == 2
    assert sorted(per_thread.values(), key=min) == [{s} for s in sorted(starts)]


def test_task_pool_runs_many_calls_on_one_pool(monkeypatch):
    with at_workers(monkeypatch, 2, lambda: mesh_module.task_pool(3)) as run:
        first = run(lambda t: (t, threading.get_ident()), [0, 1, 2])
        second = run(lambda t: (t, threading.get_ident()), [3, 4, 5])
    assert [t for t, _ in first + second] == list(range(6))
    # the same helper thread serves both calls
    assert first[1][1] == second[1][1] != threading.get_ident()


def level_3_hopf_eta():
    m = cached_mesh(3, 3)
    return de_rham_project(pullback_form(make_hopf(), volume_form(S2)), m)


def test_pools_leave_no_thread(monkeypatch):
    eta = level_3_hopf_eta()
    before = threading.active_count()
    at_workers(monkeypatch, 2, lambda: mesh_module.map_tasks(abs, [-1, 2, -3]))
    assert threading.active_count() == before
    with at_workers(monkeypatch, 2, lambda: mesh_module.task_pool(2)) as run:
        run(abs, [-1, 2])
        assert threading.active_count() == before + 1
    assert threading.active_count() == before
    # the level-3 curl matrix splits over two workers
    assert len(at_workers(monkeypatch, 2, lambda: _row_ranges(
        hodge_operator(eta.mesh, 2).curl))) == 2
    at_workers(monkeypatch, 2, lambda: d_inverse(eta))
    assert threading.active_count() == before


def test_one_core_makes_no_pool(monkeypatch):
    eta = level_3_hopf_eta()
    hodge_operator(eta.mesh, 2)                  # assembled on every core

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made on one core")

    monkeypatch.setattr(mesh_module, "ThreadPoolExecutor", no_pool)
    at_workers(monkeypatch, 1, lambda: mesh_module.map_tasks(abs, [-1, 2]))
    with at_workers(monkeypatch, 1, lambda: mesh_module.task_pool(5)) as run:
        assert run(abs, [-1, 2, -3]) == [1, 2, 3]
    xi, stats = at_workers(monkeypatch, 1, lambda: d_inverse(eta))
    assert stats["iterations"] > 0
    at_workers(monkeypatch, 1, lambda: bmo_seminorm(
        parse_map_spec("hopf"), centers=3, cap_samples=16))


# ----------------------------------------------------------------------
# one place for thread pools: geometry/mesh.py
# ----------------------------------------------------------------------

THREAD_NAMES = {"ThreadPoolExecutor", "threading", "concurrent"}


def names_threads(node) -> bool:
    """Whether `node` imports or names ThreadPoolExecutor, threading or
    concurrent."""
    if isinstance(node, ast.Import):
        names = {a.name.split(".")[0] for a in node.names}
    elif isinstance(node, ast.ImportFrom):
        names = {(node.module or "").split(".")[0], *(a.name for a in node.names)}
    elif isinstance(node, ast.Name):
        names = {node.id}
    elif isinstance(node, ast.Attribute):
        names = {node.attr}
    else:
        return False
    return bool(names & THREAD_NAMES)


def test_threads_only_in_geometry_mesh():
    # every pool of the package is made by map_tasks or task_pool
    found = package_hits(names_threads, skip={"geometry/mesh.py"})
    assert not found, f"threads outside geometry/mesh.py at {', '.join(found)}"


def test_thread_check_finds_a_use(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "import threading\n"
                     "from concurrent.futures import wait\n"
                     "from concurrent import futures as f\n"
                     "pool = f.ThreadPoolExecutor(2)\n"
                     "x = np.threading\n")
    assert node_lines(probe, names_threads) == [2, 3, 4, 5, 6]


# ----------------------------------------------------------------------
# one place that knows which worker runs which task: geometry/mesh.py
# ----------------------------------------------------------------------

def names_workers(node) -> bool:
    """Whether `node` calls or imports geometry.mesh.workers."""
    if isinstance(node, ast.Call):
        func = node.func
        return (func.id if isinstance(func, ast.Name) else
                getattr(func, "attr", None)) == "workers"
    return isinstance(node, ast.ImportFrom) and any(
        a.name == "workers" for a in node.names)


def test_workers_only_in_geometry_mesh_and_the_cg():
    # per-worker scratch comes from map_scratch; hodge sizes its CG row
    # ranges by the worker count
    found = package_hits(names_workers,
                         skip={"geometry/mesh.py", "hodge.py"})
    assert not found, f"workers() outside geometry/mesh.py and hodge.py " \
                      f"at {', '.join(found)}"


def test_workers_check_finds_a_use(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from quanthom.geometry.mesh import map_tasks, workers\n"
                     "from quanthom.geometry import mesh\n"
                     "w = workers(3)\n"
                     "v = mesh.workers(4)\n"
                     "workers_left = max(w, v)\n")
    assert node_lines(probe, names_workers) == [1, 3, 4]

"""Map families: values, Jacobians, pullbacks, perturbations, spec strings."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quanthom.maps import (MAP_FAMILIES, S2, S2xS2, MapSpecError, SmoothMap,
                           compose_with_isometry,
                           distance_to_target, make_antipodal,
                           make_circle_power, make_constant, make_hopf,
                           make_map_composition, make_oscillation_perturbation,
                           make_product_map, make_reflection,
                           make_sphere_suspension, parse_map_spec,
                           project_to_target, pullback, pullback_form,
                           volume_form)
from quanthom.seminorms import random_rotation

from helpers import jacobian_fd_error, target_distance_error

README = Path(__file__).resolve().parents[1] / "README.md"

# a test id is the map's name; the explicit ids are the names these maps
# had before every name became a spec, kept so the ids stay stable
ALL_FAMILIES = [
    make_circle_power(0),
    make_circle_power(1),
    make_circle_power(-3),
    make_sphere_suspension(1),
    make_sphere_suspension(2),
    make_hopf(),
    pytest.param(make_antipodal(2), id="antipodal"),
    pytest.param(make_product_map(make_hopf(), make_constant(3)),
                 id="product:hopf,const"),
    make_map_composition(make_sphere_suspension(2), make_hopf()),
    # more chain rules Dg(f(x)) Df(x), one of them nested
    parse_map_spec("compose:suspension:d=3|hopf"),
    pytest.param(parse_map_spec("compose:hopf|antipodal:n=3"),
                 id="compose:hopf|antipodal"),
    parse_map_spec("compose:circle-power:d=2|circle-power:d=-3"),
    pytest.param(parse_map_spec("compose:antipodal:n=2|suspension:d=2"),
                 id="compose:antipodal|suspension:d=2"),
    pytest.param(parse_map_spec(
        "compose:suspension:d=2|compose:hopf|antipodal:n=3"),
        id="compose:suspension:d=2|compose:hopf|antipodal"),
    make_oscillation_perturbation(make_hopf(), 0.1, 3),
    make_oscillation_perturbation(make_circle_power(2), 0.1, 7),
    make_reflection(3, 2),
    parse_map_spec("compose:reflect:n=2,axis=1|const:n=3"),
]


@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
def test_values_on_target(f):
    assert target_distance_error(f, n_probes=1000, seed=0) < 1e-12


@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
def test_jacobian_finite_differences(f):
    assert jacobian_fd_error(f, n_probes=1000, seed=1) < 1e-6


class TestFamilies:
    def test_circle_power_values(self):
        f = make_circle_power(3)
        th = 0.7
        x = np.array([np.cos(th), np.sin(th)])
        y = f(x)
        assert np.allclose(y, [np.cos(3 * th), np.sin(3 * th)], atol=1e-15)

    def test_circle_power_zero_is_constant(self):
        f = make_circle_power(0)
        pts = np.random.default_rng(0).standard_normal((10, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vals = f.value(pts)
        assert np.abs(vals - vals[0]).max() < 1e-15
        assert np.abs(f.jacobian(pts)).max() < 1e-15

    def test_suspension_identity(self):
        f = make_sphere_suspension(1)
        pts = np.random.default_rng(1).standard_normal((20, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.abs(f.value(pts) - pts).max() < 1e-14

    @pytest.mark.parametrize("d", [-2, 1, 3])
    def test_suspension_jet_at_the_poles(self, d):
        # rho = 0 at both poles, with either sign of zero: the limit of
        # the Jacobian along theta = 0, diag(1, d, 1), and no NaN; the
        # other rows of the batch are the same bits as without the poles
        f = make_sphere_suspension(d)
        poles = np.array([[0.0, 0.0, 1.0], [-0.0, 0.0, -1.0],
                          [0.0, -0.0, 1.0]])
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((8, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        val, J = f.jet(np.concatenate([poles, pts]))
        assert np.array_equal(J[:3], np.broadcast_to(np.diag([1.0, d, 1.0]),
                                                     (3, 3, 3)))
        assert np.array_equal(val[:3], poles * [0.0, 0.0, 1.0])
        ref_val, ref_J = f.jet(pts)
        assert np.array_equal(val[3:], ref_val) and np.array_equal(J[3:], ref_J)
        # the limit along the meridian theta = 0
        eps = 1e-9
        near = np.array([[eps, 0.0, np.sqrt(1 - eps * eps)]])
        assert np.abs(f.jacobian(near)[0] - J[0]).max() < 1e-8

    def test_composition_jet_finite_over_the_pole(self):
        # the Hopf image of (-sqrt 1/2, 0, 0, sqrt 1/2) is the north pole
        f = parse_map_spec("compose:suspension:d=2|hopf")
        x = np.array([[-np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)]])
        val, J = f.jet(x)
        assert np.abs(val - [0.0, 0.0, 1.0]).max() < 1e-15
        assert np.isfinite(J).all()
        _, Jh = make_hopf().jet(x)
        assert np.array_equal(J[0], np.diag([1.0, 2.0, 1.0]) @ Jh[0])

    def test_suspension_pointwise_volume_ratio(self):
        # the longitude speed is multiplied by d and the colatitude kept,
        # so f*(vol) = d * vol identically away from the poles
        d = 2
        f = make_sphere_suspension(d)
        om = volume_form(S2)
        fw = pullback_form(f, om)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((200, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        V = rng.standard_normal((200, 2, 3))
        V -= np.einsum("mkd,md->mk", V, X)[:, :, None] * X[:, None, :]
        ratio = fw(X, V) / om(X, V)
        assert np.abs(ratio - d).max() < 1e-10

    def test_hopf_fiber_over_north(self):
        f = make_hopf()
        t = np.linspace(0, 2 * np.pi, 50)
        fiber = np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=1)
        vals = f.value(fiber)
        assert np.abs(vals - np.array([1.0, 0.0, 0.0])).max() < 1e-12

    def test_product_blocks(self):
        f1, f2 = make_hopf(), make_constant(3)
        prod = make_product_map(f1, f2)
        pts = np.random.default_rng(2).standard_normal((5, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        v = prod.value(pts)
        assert np.array_equal(v[:, :3], f1.value(pts))
        assert np.array_equal(v[:, 3:], f2.value(pts))

    def test_target_blocks(self):
        assert S2.blocks == (slice(0, 3),)
        assert S2xS2.blocks == (slice(0, 3), slice(3, 6))
        # the constant sits at the first basis vector of each factor
        const = make_product_map(make_constant(3), make_constant(3))
        assert const.target == S2xS2
        assert const.value(np.eye(4)[:1]).tolist() == [
            [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]]
        y = np.array([[2.0, 0.0, 0.0, 0.0, 3.0, 0.0]])
        assert distance_to_target(y, S2xS2)[0] == np.sqrt(5.0)
        assert project_to_target(y, S2xS2).tolist() == [
            [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]]

    def test_product_domain_mismatch(self):
        with pytest.raises(ValueError, match="domain"):
            make_product_map(make_hopf(), make_constant(2))

    def test_perturbation_eps_zero(self):
        f = make_hopf()
        g = make_oscillation_perturbation(f, 0.0, 5)
        pts = np.random.default_rng(3).standard_normal((10, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.abs(g.value(pts) - f.value(pts)).max() < 1e-14

    def test_perturbation_leaves_neighborhood(self):
        with pytest.raises(ValueError, match="leaves tubular neighborhood"):
            make_oscillation_perturbation(make_hopf(), 0.25, 3)

    @pytest.mark.parametrize("eps", ["-0.9", "nan"])
    def test_perturbation_eps_outside_neighborhood_named(self, eps):
        # a negative eps past the neighborhood read degree 0.0589, not 1
        with pytest.raises(ValueError, match=re.escape(
                f"perturbation eps={eps} leaves tubular neighborhood")):
            parse_map_spec(f"perturb:eps={eps},m=3|suspension:d=1")


class TestPullback:
    def test_constant_map_vanishes(self):
        f = make_constant(2)
        om = volume_form(S2)
        x = np.array([0.0, 0.0, 1.0])
        u, v = np.array([1.0, 0, 0]), np.array([0.0, 1, 0])
        assert pullback(f, om, x, u, v) == 0.0

    def test_identity_reproduces_volume(self):
        f = make_sphere_suspension(1)
        om = volume_form(S2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            direct = om(x[None], np.stack([u, v])[None])[0]
            assert pullback(f, om, x, u, v) == pytest.approx(direct, rel=1e-10)

    def test_degree_exceeds_domain(self):
        f = make_circle_power(2)
        om = volume_form(S2)
        with pytest.raises(ValueError, match="degree"):
            pullback(f, om, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_hopf_pullback_matches_finite_differences(self):
        f = make_hopf()
        om = volume_form(S2)
        fw = pullback_form(f, om)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((100, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        V = rng.standard_normal((100, 2, 4))
        V -= np.einsum("mkd,md->mk", V, X)[:, :, None] * X[:, None, :]
        exact = fw(X, V)
        h = 1e-5

        def fd_dir(x, v):
            a = (x + h * v) / np.linalg.norm(x + h * v)
            b = (x - h * v) / np.linalg.norm(x - h * v)
            return (f.value(a[None])[0] - f.value(b[None])[0]) / (2 * h)

        approx = np.empty(100)
        for i in range(100):
            W = np.stack([fd_dir(X[i], V[i, 0]), fd_dir(X[i], V[i, 1])])
            approx[i] = om(f.value(X[i][None]), W[None])[0]
        assert np.abs(exact - approx).max() < 1e-6 * max(1, np.abs(exact).max())

    def test_rotation_equivariance(self):
        # pullback under f∘R equals the pullback composed with R, pointwise
        f = make_hopf()
        om = volume_form(S2)
        from quanthom.seminorms import random_rotation
        Q = random_rotation(4, seed=6)
        fR = compose_with_isometry(f, Q)
        fw, fwR = pullback_form(f, om), pullback_form(fR, om)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        V = rng.standard_normal((50, 2, 4))
        V -= np.einsum("mkd,md->mk", V, X)[:, :, None] * X[:, None, :]
        lhs = fwR(X, V)
        rhs = fw(X @ Q.T, np.einsum("mkd,ed->mke", V, Q))
        assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("f, omega", [
    (make_hopf(), volume_form(S2)),
    (parse_map_spec("compose:suspension:d=2|hopf"), volume_form(S2)),
    pytest.param(make_product_map(
        make_hopf(), parse_map_spec("compose:suspension:d=2|hopf")),
        volume_form(S2xS2, 1),
        id="product:hopf,compose:suspension:d=2|hopf-omega_2"),
], ids=lambda x: getattr(x, "name", None))
def test_frame_subsets_match_pointwise_pullback(f, omega):
    # one push of the whole 3-frame per point, then the 2-subsets, equals
    # the pullback evaluated point by point on each subset
    rng = np.random.default_rng(8)
    X = rng.standard_normal((25, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    V = rng.standard_normal((25, 3, 4))
    V -= np.einsum("mkd,md->mk", V, X)[:, :, None] * X[:, None, :]
    subsets = [(0, 1), (0, 2), (1, 2)]
    batched = pullback_form(f, omega).on_frame_subsets(X, V, subsets)
    pointwise = np.array([[pullback(f, omega, x, *v[list(sub)])
                           for sub in subsets] for x, v in zip(X, V)])
    assert batched.shape == (25, 3)
    assert np.abs(batched).max() > 0.1
    np.testing.assert_allclose(batched, pointwise, rtol=1e-13, atol=1e-14)


def test_pullback_evaluates_the_inner_map_once_per_batch():
    # the pullback takes one jet of the composition per node batch, and
    # the composition's jet computes its inner value once, inside the
    # inner jet; a value call and a jet call each count as one
    hopf, calls = make_hopf(), []

    def value(X):
        calls.append(len(X))
        return hopf.value(X)

    def jet(X):
        calls.append(len(X))
        return hopf.jet(X)

    inner = SmoothMap(3, S2, value, jet, "hopf")
    form = pullback_form(make_map_composition(make_sphere_suspension(2),
                                              inner), volume_form(S2))
    rng = np.random.default_rng(8)
    X = rng.standard_normal((25, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    V = rng.standard_normal((25, 3, 4))
    form(X, V[:, :2])
    assert calls == [25]
    form.on_frame_subsets(X, V, [(0, 1), (0, 2), (1, 2)])
    assert calls == [25, 25]


class TestTargetForms:
    def test_volume_normalization_s2(self):
        from conftest import cached_mesh
        from quanthom.geometry import de_rham_project
        m = cached_mesh(2, 3)
        c = de_rham_project(volume_form(S2), m)
        assert abs(c.values.sum() - 1.0) < 1e-6

    def test_factor_forms_are_closed(self):
        # project the pullback under a generic product map; must be closed
        from conftest import cached_mesh
        from quanthom.geometry import de_rham_project
        from quanthom.hodge import hodge_operator
        m = cached_mesh(3, 1)
        f = make_product_map(make_hopf(),
                             make_map_composition(make_sphere_suspension(2),
                                                  make_hopf()))
        for i in (0, 1):
            om = volume_form(S2xS2, i)
            eta = de_rham_project(pullback_form(f, om), m)
            op = hodge_operator(m, 2)
            assert op.norm(eta.d()) / op.norm(eta) < 1e-4


class TestSpecStrings:
    @pytest.mark.parametrize("spec,name", [
        ("circle-power:d=3", "circle-power:d=3"),
        ("suspension:d=2", "suspension:d=2"),
        ("hopf", "hopf"),
        ("compose:suspension:d=2|hopf", "compose:suspension:d=2|hopf"),
        ("product:hopf|const", "product:hopf|const:n=3"),
        ("perturb:eps=0.1,m=7|hopf", "perturb:eps=0.1,m=7|hopf"),
    ])
    def test_roundtrip(self, spec, name):
        f = parse_map_spec(spec)
        assert f.name == name

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown map spec"):
            parse_map_spec("frobnicate:x=1")

    @pytest.mark.parametrize("spec,message", [
        ("circle-power:d=3,x=1", "unknown key 'x' in map spec 'circle-power:d=3,x=1'"),
        ("hopf:x=1", "unknown key 'x' in map spec 'hopf:x=1'"),
        ("perturb:eps=0.1,m=7,z=2|hopf",
         "unknown key 'z' in map spec 'perturb:eps=0.1,m=7,z=2|hopf'"),
        ("const:n=2,d=1", "unknown key 'd'"),
        ("circle-power:", "missing key 'd' in map spec 'circle-power:'"),
        ("suspension:n=2", "unknown key 'n'"),
        ("perturb:m=7|hopf", "missing key 'eps'"),
        ("circle-power:d=1,d=2", "repeated key 'd'"),
        ("antipodal:n", "parameter 'n' is not key=value"),
        ("compose:circle-power:d=2,y=0|circle-power:d=3", "unknown key 'y'"),
        ("antipodal:n=-1", "key 'n' in map spec 'antipodal:n=-1' must be an "
                           "integer >= 1, not '-1'"),
        ("const:n=-2", "key 'n' in map spec 'const:n=-2' must be an "
                       "integer >= 1"),
        ("reflect:n=0", "key 'n' in map spec 'reflect:n=0' must be an "
                        "integer >= 1"),
        ("compose:hopf|const:n=0", "key 'n' in map spec "
                                   "'compose:hopf|const:n=0'"),
        ("circle-power:d=x", "key 'd' in map spec 'circle-power:d=x' must "
                             "be an integer, not 'x'"),
        ("circle-power:d=1.5", "key 'd' in map spec 'circle-power:d=1.5' "
                               "must be an integer"),
        ("perturb:eps=small|hopf", "key 'eps' in map spec "
                                   "'perturb:eps=small|hopf' must be a number"),
    ])
    def test_bad_keys_named(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_map_spec(spec)

    @pytest.mark.parametrize("spec,name", [
        ("antipodal:n=2", "antipodal:n=2"), ("const", "const:n=3"),
        ("hopf:", "hopf"),
        ("perturb:eps=0.05,m=3|const:n=2", "perturb:eps=0.05,m=3|const:n=2"),
        ("circle-power:d=-2", "circle-power:d=-2"),
    ])
    def test_optional_keys(self, spec, name):
        assert parse_map_spec(spec).name == name

    def test_composition_checks_domain(self):
        with pytest.raises(ValueError, match="mismatch"):
            make_map_composition(make_circle_power(2), make_hopf())

    @pytest.mark.parametrize("spec,message", [
        ("compose:hopf|suspension:d=1",
         "composition domain mismatch: outer 'hopf' is defined on S^3 in R^4, "
         "inner 'suspension:d=1' maps into S2 in R^3"),
        ("product:hopf|suspension:d=1",
         "product factors must share the domain: 'hopf' is defined on S^3, "
         "'suspension:d=1' on S^2"),
        ("product:hopf|product:hopf|hopf",
         "product factors must map into spheres: 'hopf' maps into S2, "
         "'product:hopf|hopf' into S2xS2")],
        ids=["compose-domain", "product-domain", "product-non-sphere"])
    def test_sub_maps_that_do_not_fit_are_spec_errors(self, spec, message):
        # a spec fault, refused when a config loads, naming both sub-maps
        with pytest.raises(MapSpecError, match=re.escape(message)):
            parse_map_spec(spec)

    @pytest.mark.parametrize("spec,name,domain", [
        ("const:n=2", "const:n=2", 2),
        ("antipodal:n=3", "antipodal:n=3", 3),
        ("product:perturb:eps=0.1,m=7|hopf|const",
         "product:perturb:eps=0.1,m=7|hopf|const:n=3", 3),
        ("compose:perturb:eps=0.1,m=3|suspension:d=2|hopf",
         "compose:perturb:eps=0.1,m=3|suspension:d=2|hopf", 3),
    ])
    def test_names_keep_domain_and_nesting(self, spec, name, domain):
        f = parse_map_spec(spec)
        assert f.name == name
        assert parse_map_spec(f.name).domain_dim == domain

    def test_compose_takes_a_nested_outer_map(self):
        # the outer map is perturb(suspension:d=2), the inner one hopf
        f = parse_map_spec("compose:perturb:eps=0.1,m=3|suspension:d=2|hopf")
        outer = make_oscillation_perturbation(make_sphere_suspension(2), 0.1, 3)
        X = np.random.default_rng(10).standard_normal((20, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        assert np.array_equal(f.value(X), outer.value(make_hopf().value(X)))

    def test_comma_between_sub_maps_named(self):
        with pytest.raises(ValueError, match="'hopf,const'"):
            parse_map_spec("product:hopf,const")

    @pytest.mark.parametrize("spec,message", [
        ("compose:hopf", "missing sub-map of 'compose'"),
        ("hopf|hopf", "extra sub-map 'hopf'"),
        ("reflect:n=2,axis=3", "reflection axis 3 is not a coordinate of S^2"),
    ])
    def test_sub_map_count_and_axis_checked(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_map_spec(spec)

    def test_readme_examples_round_trip(self):
        # every example of the README's "Map-spec examples" paragraph is a
        # canonical name, and together they cover every family
        text = README.read_text()
        para = text[text.index("Map-spec examples"):].split("\n\n")[0]
        examples = re.findall(r"`([^`]+)`", para)
        assert {s.partition(":")[0] for s in examples} == set(MAP_FAMILIES)
        for spec in examples:
            assert parse_map_spec(spec).name == spec


# every head the generated trees use, which is every family of the table
TREE_HEADS = {1: "circle-power", 2: "suspension", 3: "hopf"}


@st.composite
def map_trees(draw, N: int, depth: int, sphere: bool = False):
    """A map out of S^N nested at most `depth` deep, into a sphere if
    `sphere` (a product or composition needs sphere-valued factors)."""
    heads = [TREE_HEADS[N], "const", "antipodal", "reflect"]
    if depth > 0:
        heads += ["compose", "perturb"] + ([] if sphere else ["product"])
    head = draw(st.sampled_from(heads))
    if head == "circle-power":
        return make_circle_power(draw(st.integers(-3, 3)))
    if head == "suspension":
        return make_sphere_suspension(draw(st.integers(-3, 3)))
    if head == "hopf":
        return make_hopf()
    if head == "const":
        return make_constant(N)
    if head == "antipodal":
        return make_antipodal(N)
    if head == "reflect":
        return make_reflection(N, draw(st.integers(0, N)))
    if head == "perturb":
        return make_oscillation_perturbation(
            draw(map_trees(N, depth - 1, sphere)),
            draw(st.floats(-0.19, 0.19)), draw(st.integers(0, 9)))
    if head == "product":
        return make_product_map(draw(map_trees(N, depth - 1, True)),
                                draw(map_trees(N, depth - 1, True)))
    inner = draw(map_trees(N, depth - 1, True))
    return make_map_composition(
        draw(map_trees(inner.target.dim, depth - 1, sphere)), inner)


def test_trees_use_every_family():
    heads = set(TREE_HEADS.values()) | {"const", "antipodal", "reflect",
                                        "compose", "perturb", "product"}
    assert heads == set(MAP_FAMILIES)


@settings(max_examples=150, deadline=None)
@given(f=st.integers(1, 3).flatmap(lambda N: map_trees(N, 3)),
       seed=st.integers(0, 2 ** 16))
def test_names_round_trip(f, seed):
    # parse(f.name) is f: the same name, and bitwise the same values and
    # Jacobians at random points
    back = parse_map_spec(f.name)
    assert back.name == f.name
    X = np.random.default_rng(seed).standard_normal((16, f.domain_dim + 1))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    assert back.value(X).tobytes() == f.value(X).tobytes()
    assert back.jacobian(X).tobytes() == f.jacobian(X).tobytes()


@settings(max_examples=150, deadline=None)
@given(f=st.integers(1, 3).flatmap(lambda N: map_trees(N, 3)),
       seed=st.integers(0, 2 ** 16))
def test_jet_is_value_and_jacobian(f, seed):
    # one pass gives bitwise what the two calls give, also under a
    # rotation of the domain
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((16, f.domain_dim + 1))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    for g in (f, compose_with_isometry(f, random_rotation(f.domain_dim + 1,
                                                          seed))):
        y, J = g.jet(X)
        assert y.tobytes() == g.value(X).tobytes()
        assert J.tobytes() == g.jacobian(X).tobytes()
        assert (y.shape, J.shape) == ((16, g.target.ambient),
                                      (16, g.target.ambient, f.domain_dim + 1))


def test_reflection_distance():
    f = make_reflection(2)
    assert distance_to_target(f.value(np.array([[0.0, 0.0, 1.0]])), f.target)[0] < 1e-15

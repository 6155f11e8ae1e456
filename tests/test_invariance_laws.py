"""The invariance laws of the rational invariants as hypothesis properties.

Every evaluation runs at a cheap level (S^3 level 1, S^2 levels 2-4) and
takes 0.01-0.1 s, so each law draws a few examples with the deadline off.
Tolerances come from the level-difference error of the same pipeline.
"""

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quanthom.invariants import hopf_invariant, mapping_degree
from quanthom.maps import (compose_with_isometry, make_antipodal, make_hopf,
                           make_map_composition,
                           make_oscillation_perturbation, make_reflection,
                           make_sphere_suspension, parse_map_spec)
from quanthom.seminorms import random_rotation

from conftest import cached_mesh

REFLECTION = np.diag([-1.0, 1.0, 1.0, 1.0])
degrees = st.integers(-3, 3)
small_eps = st.floats(-0.15, 0.15)


@st.composite
def s2_trees(draw, depth: int, perturb: bool = True):
    """(g, deg g) for a map S^2 -> S^2 nested at most `depth` deep from
    suspension, antipodal, reflect, compose and, if `perturb`, perturb."""
    heads = ["suspension", "antipodal", "reflect"]
    if depth > 0:
        heads += ["compose"] + (["perturb"] if perturb else [])
    head = draw(st.sampled_from(heads))
    if head == "suspension":
        d = draw(st.integers(-2, 2))
        return make_sphere_suspension(d), d
    if head == "antipodal":
        return make_antipodal(2), -1
    if head == "reflect":
        return make_reflection(2, draw(st.integers(0, 2))), -1
    if head == "perturb":
        f, d = draw(s2_trees(depth - 1))
        return make_oscillation_perturbation(
            f, draw(small_eps), draw(st.integers(1, 3))), d
    g, dg = draw(s2_trees(depth - 1, perturb))
    f, df = draw(s2_trees(depth - 1, perturb))
    return make_map_composition(g, f), dg * df


@lru_cache(maxsize=None)
def hopf_level1_and_gap() -> tuple:
    """H(hopf) at S^3 level 1 and |H_2 - H_1| (0.038), the level-1 error
    bar of the Hopf pipeline."""
    h1 = hopf_invariant(make_hopf(), cached_mesh(3, 1)).value
    h2 = hopf_invariant(make_hopf(), cached_mesh(3, 2)).value
    return h1, abs(h2 - h1)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_hopf_rotation_invariant(seed):
    # measured deviations are at most 0.006
    h1, gap = hopf_level1_and_gap()
    f = compose_with_isometry(make_hopf(), random_rotation(4, seed=seed))
    assert abs(hopf_invariant(f, cached_mesh(3, 1)).value - h1) < gap


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_hopf_reflection_flips_sign(seed):
    h1, gap = hopf_level1_and_gap()
    Q = random_rotation(4, seed=seed) @ REFLECTION
    f = compose_with_isometry(make_hopf(), Q)
    assert abs(hopf_invariant(f, cached_mesh(3, 1)).value + h1) < gap


@settings(max_examples=12, deadline=None)
@given(dg=degrees, df=degrees)
def test_degree_multiplies_under_composition(dg, df):
    # the S^2 level-3 error is about 6e-9 |dg df|, the level-2/level-3
    # difference about 60 times that
    f = make_map_composition(make_sphere_suspension(dg),
                             make_sphere_suspension(df))
    v2, v3 = (mapping_degree(f, cached_mesh(2, level)).value
              for level in (2, 3))
    assert abs(v3 - dg * df) <= max(abs(v3 - v2), 1e-12)


@settings(max_examples=7, deadline=None)
@given(d=degrees)
def test_hopf_scales_by_degree_squared(d):
    # the suspension multiplies the pulled-back area form by d pointwise,
    # so the law holds at every level to round-off (measured 4e-16)
    h1, _ = hopf_level1_and_gap()
    g = make_map_composition(make_sphere_suspension(d), make_hopf())
    value = hopf_invariant(g, cached_mesh(3, 1)).value
    assert abs(value - d * d * h1) <= 1e-12 * max(d * d, 1) * h1


@settings(max_examples=20, deadline=None)
@given(g=s2_trees(2), f=s2_trees(2))
def test_degree_multiplies_over_map_trees(g, f):
    # a perturbed or folded tree converges unevenly, so the error bar is
    # the larger of the last two level differences; over 300 random trees
    # the level-4 error was at most 0.18 of it
    (g, dg), (f, df) = g, f
    h = make_map_composition(g, f)
    v2, v3, v4 = (mapping_degree(h, cached_mesh(2, level)).value
                  for level in (2, 3, 4))
    assert abs(v4 - dg * df) <= max(abs(v4 - v3), abs(v3 - v2), 1e-12)


@settings(max_examples=8, deadline=None)
# a degree-0 g whose pulled-back area form vanishes pointwise but not
# bitwise: ||eta|| = 4.6e-33, so the closedness gate must not divide
# round-off by round-off
@example(g=(parse_map_spec(
    "compose:compose:suspension:d=1|antipodal:n=2|suspension:d=0"), 0),
    eps=0.0, m=1)
@given(g=s2_trees(3, perturb=False), eps=small_eps, m=st.integers(1, 2))
def test_hopf_scales_by_degree_squared_over_map_trees(g, eps, m):
    # g multiplies the area form by deg g pointwise, so the law holds at
    # every level to round-off.  The perturbation enters through h: one
    # inside g fails the 1e-3 closedness gate at cheap levels (over a
    # suspension the relative defect is still 3.6e-2 at S^3 level 3),
    # while m <= 2 keeps h's own level-1 defect at most 4.1e-4
    (g, dg), h = g, make_oscillation_perturbation(make_hopf(), eps, m)
    mesh = cached_mesh(3, 1)
    hh = hopf_invariant(h, mesh).value
    value = hopf_invariant(make_map_composition(g, h), mesh).value
    assert abs(value - dg * dg * hh) <= 1e-12 * max(dg * dg, 1) * abs(hh)

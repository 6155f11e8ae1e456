"""The invariance laws of the rational invariants as hypothesis properties.

Every evaluation runs at a cheap level (S^3 level 1, S^2 levels 2-3) and
takes 0.01-0.1 s, so each law draws a few examples with the deadline off.
Tolerances come from the level-difference error of the same pipeline.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quanthom.invariants import hopf_invariant, mapping_degree
from quanthom.maps import (compose_with_isometry, make_hopf,
                           make_map_composition, make_sphere_suspension)
from quanthom.seminorms import random_rotation

from conftest import cached_mesh

REFLECTION = np.diag([-1.0, 1.0, 1.0, 1.0])
degrees = st.integers(-3, 3)


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

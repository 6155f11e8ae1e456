import numpy as np
import pytest

from quanthom.geometry import build_sphere_mesh

_cache = {}


def cached_mesh(dim, level):
    key = (dim, level)
    if key not in _cache:
        _cache[key] = build_sphere_mesh(dim, level)
    return _cache[key]


@pytest.fixture
def mesh_s1():
    return cached_mesh(1, 5)


@pytest.fixture
def mesh_s2():
    return cached_mesh(2, 3)


@pytest.fixture
def mesh_s3():
    return cached_mesh(3, 1)


@pytest.fixture
def rng():
    return np.random.default_rng(42)

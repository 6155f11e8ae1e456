"""The short-axis reductions of geometry.minors have numpy's bits, and the
package takes its row norms only through them."""

import ast

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quanthom.geometry.minors import cross3, row_norm, row_sum

from helpers import node_lines, package_hits

# magnitudes over 16 decades, 1e-8 to 1e8, with both signed zeros
entries = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-1.0, 1.0, allow_nan=False), st.integers(-8, 8)))


@st.composite
def blocks(draw, last=st.integers(1, 7), count=1):
    """`count` arrays of one shape, 1-3 leading axes and a last axis of
    `last` entries: C-contiguous, or views taking every second entry of
    some axes of a larger array."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    shape.append(draw(last))
    steps = draw(st.lists(st.sampled_from([1, 2]), min_size=len(shape),
                          max_size=len(shape)))
    view = tuple(slice(None, None, s) for s in steps)
    return [draw(arrays(np.float64, [n * s for n, s in zip(shape, steps)],
                        elements=entries))[view] for _ in range(count)]


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_row_sum_and_row_norm_are_numpys(xs):
    (x,) = xs
    assert same_bits(row_sum(x), x.sum(axis=-1))
    assert same_bits(row_norm(x), np.linalg.norm(x, axis=-1))


@settings(max_examples=200, deadline=None)
@given(blocks(last=st.just(3), count=2))
def test_cross3_is_numpys(ab):
    a, b = ab
    assert same_bits(cross3(a, b), np.cross(a, b))


def test_row_sum_of_negative_zeros_is_positive_zero():
    # numpy's reduce starts from +0.0
    for width in (1, 5):
        x = np.full((3, width), -0.0)
        assert same_bits(row_sum(x), np.zeros(3))
        assert same_bits(row_sum(x), x.sum(axis=-1))


def is_axis_norm(node) -> bool:
    """Whether `node` is a np.linalg.norm(...) call that passes an axis,
    by keyword or as the third positional argument."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "norm"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "linalg"
            and (len(node.args) >= 3
                 or any(k.arg == "axis" for k in node.keywords)))


def test_no_axis_norm_in_the_package():
    # row norms go through minors.row_norm: numpy's reduce over a short
    # last axis costs several times its column additions
    found = package_hits(is_axis_norm)
    assert not found, f"np.linalg.norm(..., axis=...) at {', '.join(found)}"


def test_axis_norm_check_finds_a_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "a = np.linalg.norm(x)\n"
                     "b = np.linalg.norm(x, axis=1, keepdims=True)\n"
                     "c = np.linalg.norm(x, None, -1)\n")
    assert node_lines(probe, is_axis_norm) == [3, 4]

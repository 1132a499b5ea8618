"""The row kernels form each result in place in an array they allocate.

Each kernel is pinned bit for bit against its expression form in
``oracles`` (the formula as one NumPy expression, a temporary per
operation) on 1-D rows, stacked (rows, n) blocks, 0-d inputs where the
kernel takes them, and signed zeros; and no kernel writes into its
inputs, whether they are read-only or writeable views of a section's
rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import TWO_PI, cosine_trajectory, random_section
from oracles import (
    eval_expr,
    grad_12_expr,
    grad_34_expr,
    increments_expr,
    jacobian_bands_expr,
    level_equation_expr,
    level_series_expr,
    self_bands_expr,
    stencil_parts_expr,
)

from chms.del_solver import SolverConfig, _increments, _level_equation, advance_row, section_parts
from chms.geometry_checks import level_series
from chms.grid import GridSpec
from chms.lagrangian import (
    eval_from_parts,
    grad_12,
    grad_34,
    jacobian_bands,
    self_bands,
    stencil_parts,
)


def _same(got, want) -> bool:
    """Same type, shape and bits (NaN payloads and signed zeros too)."""
    if type(got) is not type(want):
        return False
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _all_same(got, want) -> bool:
    return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))


# Parts of rectangles: tiny and huge a (a > 0 on any admissible row),
# either sign of b and c, signed zeros among them.
_a = st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 1e-8, 1.0, 1e300])
_signed = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])
_spacing = st.floats(1e-3, 10.0)
#: 0-d, one row of n, or a (rows, n) block.
_shapes = st.sampled_from([(), (1,), (5,), (2, 3), (3, 4)])


@st.composite
def _batch(draw, shapes=_shapes):
    shape = draw(shapes)
    size = math.prod(shape)
    a, b, c = (
        np.array(draw(st.lists(s, min_size=size, max_size=size))).reshape(shape)
        for s in (_a, _signed, _signed)
    )
    return a, b, c


@given(_batch(), _spacing, _spacing)
def test_first_partials_and_value_match_their_expression_forms(parts, h, k):
    with np.errstate(all="ignore"):  # huge and tiny parts overflow some terms
        assert _all_same(grad_12(*parts, h, k), grad_12_expr(*parts, h, k))
        assert _all_same(grad_34(*parts, h, k), grad_34_expr(*parts, h, k))
        assert _same(eval_from_parts(*parts), eval_expr(*parts))


@given(_batch(st.sampled_from([(1,), (2,), (5,), (2, 3), (3, 4)])), _spacing, _spacing)
def test_jacobian_bands_match_their_expression_form(parts, h, k):
    with np.errstate(all="ignore"):
        assert _all_same(jacobian_bands(*parts, h, k), jacobian_bands_expr(*parts, h, k))


@given(
    _batch(st.sampled_from([(1,), (2,), (5,), (2, 3), (3, 4)])), st.data(), _spacing, _spacing
)
def test_self_bands_match_their_expression_form(parts, data, h, k):
    # a_lo, the part a of the rectangle row below, is drawn like a.
    shape = parts[0].shape
    size = math.prod(shape)
    a_lo = np.array(data.draw(st.lists(_a, min_size=size, max_size=size))).reshape(shape)
    with np.errstate(all="ignore"):
        assert _all_same(self_bands(*parts, a_lo, h, k), self_bands_expr(*parts, a_lo, h, k))


def test_kernels_of_python_floats_and_complex_parts_match_their_expression_forms(rng):
    # Python floats, as the density examples pass them; complex parts, as
    # check's complex-step derivative of the gradient passes them.
    for parts in ((1.0, 0.7, 0.0), (2.0, -0.0, 1.0), (1e-300, 1e300, -1e300)):
        with np.errstate(all="ignore"):
            assert _all_same(grad_12(*parts, 0.3, 0.2), grad_12_expr(*parts, 0.3, 0.2))
            assert _all_same(grad_34(*parts, 0.3, 0.2), grad_34_expr(*parts, 0.3, 0.2))
            assert _same(eval_from_parts(*parts), eval_expr(*parts))
    a = rng.uniform(0.5, 2.0, (3, 8)) + 1j * 1e-100 * rng.standard_normal((3, 8))
    b, c = rng.standard_normal((2, 3, 8)) + 1j * 1e-100 * rng.standard_normal((2, 3, 8))
    assert _all_same(grad_12(a, b, c, 0.3, 0.2), grad_12_expr(a, b, c, 0.3, 0.2))
    assert _all_same(grad_34(a, b, c, 0.3, 0.2), grad_34_expr(a, b, c, 0.3, 0.2))


_label = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])


@given(st.data(), _shapes, _spacing, _spacing)
def test_stencil_parts_match_their_expression_form(data, shape, h, k):
    size = math.prod(shape)
    y1, y3, y4 = (
        np.array(data.draw(st.lists(_label, min_size=size, max_size=size))).reshape(shape)
        for _ in range(3)
    )
    gap = np.array(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=size, max_size=size)))
    y2 = y1 + gap.reshape(shape)
    got = stencil_parts(y1, y2, y3, y4, h, k)
    assert _all_same(got, stencil_parts_expr(y1, y2, y3, y4, h, k))


@pytest.mark.parametrize("shape", [(4, 3), (4, 9), (4, 2, 9)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_level_equation_matches_its_expression_form(rng, shape, dtype):
    top, bot = rng.standard_normal((2,) + shape) * np.exp(rng.uniform(-30.0, 30.0, (2,) + shape))
    if dtype is complex:
        top = top + 1j * rng.standard_normal(shape)
        bot = bot + 1j * rng.standard_normal(shape)
    top[0, ..., 0], top[1, ..., -1], bot[2, ..., -1], bot[3, ..., 0] = 0.0, -0.0, -0.0, 0.0
    for t, b in ((top, bot), (tuple(top[:2]), tuple(bot[2:]))):  # stacked, or grad halves
        assert _all_same(_level_equation(t, b), level_equation_expr(t, b))


@pytest.mark.parametrize("n_space, rows", [(3, 1), (16, 4), (64, 7)])
def test_increments_match_their_expression_form(rng, n_space, rows):
    g = GridSpec.from_circle(n_space, 2, TWO_PI, 0.25)
    d = 0.3 * g.h * rng.uniform(-1.0, 1.0, (rows, n_space))
    d[:, 0] = -0.0
    y = np.arange(n_space) * g.h + d
    assert _same(_increments(y, g, "row"), increments_expr(y, g))
    assert _same(_increments(y[0], g, "row"), increments_expr(y[0], g))


@pytest.mark.parametrize("n_space, n_steps", [(16, 10), (64, 40)])
def test_level_series_matches_its_expression_form(rng, n_space, n_steps):
    for s in (
        cosine_trajectory(n_space=n_space, n_steps=n_steps).section,
        random_section(GridSpec.from_circle(n_space, n_steps, TWO_PI, 0.25), rng),
    ):
        got, want = level_series(s), level_series_expr(s)
        assert _all_same(tuple(map(np.array, got)), tuple(map(np.array, want)))


# ---------------------------------------------------------------------------
# No kernel writes into its inputs.


def _kernel_calls(s):
    """(name, call) pairs: each kernel on inputs taken from the section s,
    as views of arrays that the caller holds."""
    g, cfg = s.grid, SolverConfig()
    h, k = g.h, g.k
    y = s.rows_y()  # one array; every label row below is a view of it
    lift = np.concatenate((y[:, 1:], y[:, :1] + g.domain_length), axis=1)
    a, b, c = section_parts(s)
    top, bot = grad_12(a[1:], b[1:], c[1:], h, k), grad_34(a[:-1], b[:-1], c[:-1], h, k)
    return y, lift, (a, b, c), top, bot, [
        ("stencil_parts", lambda: stencil_parts(y[:-1], lift[:-1], lift[1:], y[1:], h, k)),
        ("stencil_parts row", lambda: stencil_parts(y[2], lift[2], lift[3], y[3], h, k)),
        ("grad_12", lambda: grad_12(a[1:], b[1:], c[1:], h, k)),
        ("grad_34", lambda: grad_34(a[2], b[2], c[2], h, k)),
        ("eval_from_parts", lambda: eval_from_parts(a[1:3], b[1:3], c[1:3])),
        ("eval_from_parts 0-d", lambda: eval_from_parts(a[1, 2, ...], b[1, 2, ...], c[1, 2, ...])),
        ("jacobian_bands", lambda: jacobian_bands(a[1:], b[1:], c[1:], h, k)),
        ("self_bands", lambda: self_bands(a[1:], b[1:], c[1:], a[:-1], h, k)),
        ("_level_equation", lambda: _level_equation(top, bot)),
        ("_level_equation stacked", lambda: _level_equation(np.stack(top), np.stack(bot))),
        ("_increments", lambda: _increments(y[1:4], g, "row")),
        ("advance_row", lambda: advance_row(y[1], y[2], g, cfg)),
        ("advance_row three rows", lambda: advance_row(y[1:3], y[3], g, cfg)),
        ("level_series", lambda: level_series(s)),
    ]


def _snapshot(arrays):
    return [np.array(x, copy=True) for x in arrays]


def test_no_kernel_writes_into_views_of_a_sections_rows():
    s = cosine_trajectory(n_space=16, n_steps=6).section
    disp = s.displacement.copy()
    y, lift, parts, top, bot, calls = _kernel_calls(s)
    held = [y, lift, *parts, *top, *bot]
    before = _snapshot(held)
    for name, call in calls:
        call()
        assert all(_same(x, x0) for x, x0 in zip(held, before)), name
    assert _same(s.displacement, disp)


def test_every_kernel_runs_on_read_only_inputs():
    # A write into a read-only input raises ValueError.
    s = cosine_trajectory(n_space=16, n_steps=6).section
    y, lift, parts, top, bot, calls = _kernel_calls(s)
    held = [y, lift, *parts, *top, *bot]
    before = _snapshot(held)
    for x in held:
        x.flags.writeable = False
    for name, call in calls:
        call()
    assert all(_same(x, x0) for x, x0 in zip(held, before))

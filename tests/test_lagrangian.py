import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    EPS,
    TWO_PI,
    fd_gradient,
    fd_hessian,
    random_section,
    random_stencil,
    smooth_eta_derivs,
    stencil_fn,
)
from oracles import hess_full_from_parts, rect_grad, rect_hess, rect_value

from chms.del_solver import section_parts
from chms.errors import NonMonotone
from chms.grid import GridSpec
from chms.lagrangian import (
    _shift,
    eval_from_parts,
    grad_12,
    grad_34,
    grad_from_parts,
    jacobian_bands,
    self_bands,
)


def test_eval_examples():
    assert rect_value((0, 1, 1, 0), 1, 1) == 0.0
    assert rect_value((0, 1, 2, 1), 1, 1) == pytest.approx(0.5, abs=1e-15)
    assert rect_value((0, 0.5, 1.0, 0.3), 1, 1) == pytest.approx(0.0625, abs=1e-15)


def test_eval_rejects_flat_bottom_edge():
    with pytest.raises(NonMonotone):
        rect_value((0.0, 0.0, 1.0, 0.5), 1, 1)
    # Below the 1e-8*h cutoff; the message names the point and the bound.
    with pytest.raises(NonMonotone, match=r"at i=0 \(increment 5e-09 <= 1e-08\)"):
        rect_value((0.0, 5e-9, 1.0, 0.5), 1, 1)
    # A non-finite bottom edge is rejected too: a NaN difference fails
    # every comparison, so the cutoff test must not be a negated <=.
    inf, nan = math.inf, math.nan
    for y1, y2 in ((nan, 1.0), (0.0, nan), (inf, inf), (-inf, -inf), (inf, 1.0), (0.0, -inf)):
        with pytest.raises(NonMonotone), np.errstate(invalid="ignore"):
            rect_value((y1, y2, 1.0, 0.5), 1, 1)


def test_grad_example():
    g = rect_grad((0, 0.5, 1.0, 0.3), 1, 1)
    assert g[3] == pytest.approx(-0.25, abs=1e-15)


def test_grad_components_sum_to_zero(rng):
    for _ in range(300):
        h, k = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        g = rect_grad(random_stencil(rng, h, k), h, k)
        assert abs(np.sum(g)) <= 8.0 * EPS * max(np.sum(np.abs(g)), 1.0)


def test_grad_matches_finite_differences(rng):
    for _ in range(200):
        h, k = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        y = random_stencil(rng, h, k)
        g = rect_grad(y, h, k)
        fd = fd_gradient(stencil_fn(h, k), y)
        assert np.max(np.abs(fd - g)) <= 1e-7 * max(1.0, np.max(np.abs(g)))


def test_hess_symmetric_and_row_sums(rng):
    for _ in range(300):
        m = rect_hess(random_stencil(rng), 1.0, 1.0)
        assert np.array_equal(m, m.T)
        scale = np.max(np.abs(m))
        assert np.max(np.abs(m @ np.ones(4))) <= 16.0 * EPS * max(scale, 1.0)


def test_hess_matches_finite_differences(rng):
    for _ in range(100):
        h, k = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        y = random_stencil(rng, h, k)
        m = rect_hess(y, h, k)
        fd = fd_hessian(stencil_fn(h, k), y)
        assert np.max(np.abs(fd - m)) <= 1e-5 * max(1.0, np.max(np.abs(m)))


def test_translation_invariance(rng):
    for _ in range(200):
        y = random_stencil(rng)
        c = rng.uniform(-2.0, 2.0)
        base = rect_value(y, 1.0, 1.0)
        assert abs(rect_value(y + c, 1.0, 1.0) - base) <= 1e-13 * max(1.0, abs(base))


def test_density_examples():
    """The density is the rectangle Lagrangian on (eta_x, eta_t, eta_tx)."""
    assert eval_from_parts(1.0, 0.0, 0.0) == 0.0
    assert eval_from_parts(1.0, 0.7, 0.0) == pytest.approx(0.245, abs=1e-15)
    assert eval_from_parts(2.0, 1.0, 1.0) == pytest.approx(1.25, abs=1e-15)


def test_discrete_lagrangian_consistent_with_density():
    """Forward-difference sampling converges to the density at first order."""
    alpha, x, t = 0.3, 1.3, 0.7
    d = smooth_eta_derivs(x, t, alpha)
    target = eval_from_parts(d["eta_x"], d["eta_t"], d["eta_tx"])

    def sampled_error(h, k):
        def eta(xx, tt):
            return xx + alpha * math.sin(xx - tt)

        y = (eta(x, t), eta(x + h, t), eta(x + h, t + k), eta(x, t + k))
        return abs(rect_value(y, h, k) - target)

    e1 = sampled_error(0.02, 0.02)
    e2 = sampled_error(0.01, 0.01)
    assert e1 / e2 >= 2.0**0.8


def test_jacobian_bands_of_stacked_rows_match_each_row(rng):
    a = rng.uniform(0.5, 2.0, size=(3, 9))
    b, c = rng.standard_normal((2, 3, 9))
    stacked = jacobian_bands(a, b, c, 0.7, 0.4)
    for m in range(3):
        for band, row in zip(stacked, jacobian_bands(a[m], b[m], c[m], 0.7, 0.4)):
            assert np.array_equal(band[m], row)


def _dense(lower, diag, upper) -> np.ndarray:
    """The cyclic tridiagonal matrix of the bands, n >= 3."""
    n = len(diag)
    i = np.arange(n)
    out = np.zeros((n, n))
    out[i, i], out[i, (i + 1) % n], out[i, (i - 1) % n] = diag, upper, lower
    return out


def _level_couplings(hess_lo, hess_hi) -> np.ndarray:
    """dR/dy of a level's residual R with respect to the rows below, at and
    above the level, dense (3, n, n), from the full Hessians (n, 4, 4) of
    the rectangle rows below and above it.  Rectangle i has vertex 1 at
    point i of its bottom row, 2 at i + 1, 3 at i + 1 of its top row and
    4 at i; the residual at a point sums the gradient of each rectangle
    touching it at that point's vertex."""
    n = len(hess_lo)
    out = np.zeros((3, n, n))
    for i in range(n):
        points = (i, (i + 1) % n, (i + 1) % n, i)
        # The level is the top row of the rectangles below it and the
        # bottom row of those above it.
        for hess, vertices, offset in ((hess_lo, (2, 3), 0), (hess_hi, (0, 1), 1)):
            for l in vertices:
                for m in range(4):
                    out[offset + m // 2, points[l], points[m]] += hess[i, m, l]
    return out


def _level_parts(rng, n: int):
    """(a, b, c) of the two rectangle rows about level 1 of a random
    admissible section of three rows, h and k."""
    g = GridSpec.from_circle(n, 3, TWO_PI, 0.25)
    return section_parts(random_section(g, rng, amp=0.4)), g.h, g.k


@pytest.mark.parametrize("n", [3, 16, 263])
def test_self_bands_are_the_level_hessian_and_symmetric(rng, n):
    (a, b, c), h, k = _level_parts(rng, n)
    hess = hess_full_from_parts(a, b, c, h, k)
    want = _level_couplings(*hess)[1]
    got = _dense(*self_bands(a[1], b[1], c[1], a[0], h, k))
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(hess))


@pytest.mark.parametrize("n", [3, 16, 263])
def test_coupling_to_the_previous_row_is_the_previous_level_bands_transposed(rng, n):
    # The second variation of the discrete action is symmetric, so
    # dR_j/dy_{j-1} = (dR_{j-1}/dy_j)^T: the Newton bands of level j - 1.
    (a, b, c), h, k = _level_parts(rng, n)
    hess = hess_full_from_parts(a, b, c, h, k)
    below, _, above = _level_couplings(*hess)
    scale = np.max(np.abs(hess))
    previous, own = (_dense(*jacobian_bands(a[r], b[r], c[r], h, k)) for r in (0, 1))
    assert np.max(np.abs(below - previous.T)) <= 1e-14 * scale
    assert np.max(np.abs(above - own)) <= 1e-14 * scale


@pytest.mark.parametrize("shape", [(7,), (3, 7), (3, 2, 7)])
def test_shift_is_a_roll_with_the_seam_lift(rng, shape):
    f = rng.standard_normal(shape)
    f[..., 0] = f[..., -1] = -0.0  # without a lift the seam keeps its sign
    for step in (1, -1):
        for lift in (0.0, 2.0 * math.pi):
            expected = np.roll(f, -step, axis=-1)
            if lift:
                expected[..., -1 if step == 1 else 0] += step * lift
            out = _shift(f, step, lift)
            assert np.array_equal(out, expected)
            assert np.array_equal(np.signbit(out), np.signbit(expected))


def _same_bits(x, y) -> bool:
    return np.array_equal(x, y, equal_nan=True) and np.array_equal(np.signbit(x), np.signbit(y))


# Parts of rectangles: tiny and huge a (a > 0 on any admissible row),
# either sign of b and c, signed zeros among them.
_signed = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])
_parts = st.lists(
    st.tuples(st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 1e-8, 1.0, 1e300]), _signed, _signed),
    min_size=1,
    max_size=8,
)


@given(_parts, st.floats(1e-3, 10.0), st.floats(1e-3, 10.0))
def test_each_half_is_the_matching_gradient_components_bitwise(parts, h, k):
    a, b, c = np.array(parts).T
    with np.errstate(all="ignore"):  # huge and tiny parts overflow some terms
        whole = grad_from_parts(a, b, c, h, k)
        halves = grad_12(a, b, c, h, k) + grad_34(a, b, c, h, k)
        # The gradient's closed form as written out in full.
        la_h = 0.5 * (b * b - (c / a) ** 2) / h
        lb_k = a * b / k
        w = (c / a) / (h * k)
        closed = (-la_h - lb_k + w, la_h - w, w, lb_k - w)
    for got, half, want in zip(whole, halves, closed):
        assert _same_bits(got, want)
        assert _same_bits(half, want)

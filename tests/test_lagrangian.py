import math

import numpy as np
import pytest

from conftest import EPS, fd_gradient, fd_hessian, random_stencil, smooth_eta_derivs, stencil_fn
from oracles import rect_grad, rect_hess, rect_value

from chms.errors import NonMonotone
from chms.lagrangian import continuous_density, jacobian_bands


def test_eval_examples():
    assert rect_value((0, 1, 1, 0), 1, 1) == 0.0
    assert rect_value((0, 1, 2, 1), 1, 1) == pytest.approx(0.5, abs=1e-15)
    assert rect_value((0, 0.5, 1.0, 0.3), 1, 1) == pytest.approx(0.0625, abs=1e-15)


def test_eval_rejects_flat_bottom_edge():
    with pytest.raises(NonMonotone):
        rect_value((0.0, 0.0, 1.0, 0.5), 1, 1)
    with pytest.raises(NonMonotone):
        rect_value((0.0, 5e-9, 1.0, 0.5), 1, 1)  # below the 1e-8*h cutoff


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
    assert continuous_density(1.0, 0.0, 0.0) == 0.0
    assert continuous_density(1.0, 0.7, 0.0) == pytest.approx(0.245, abs=1e-15)
    assert continuous_density(2.0, 1.0, 1.0) == pytest.approx(1.25, abs=1e-15)
    with pytest.raises(NonMonotone):
        continuous_density(0.0, 1.0, 1.0)
    with pytest.raises(NonMonotone):
        continuous_density(-1.0, 1.0, 1.0)


def test_discrete_lagrangian_consistent_with_density():
    """Forward-difference sampling converges to the density at first order."""
    alpha, x, t = 0.3, 1.3, 0.7
    d = smooth_eta_derivs(x, t, alpha)
    target = continuous_density(d["eta_x"], d["eta_t"], d["eta_tx"])

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

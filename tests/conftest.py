"""Shared fixtures and finite-difference oracle helpers."""

import math
import time

import numpy as np
import pytest

from oracles import rect_value

from chms.del_solver import Section, SolverConfig, evolve, initialize
from chms.geometry_checks import TangentSection
from chms.grid import GridSpec

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_stencil(rng, h=1.0, k=1.0) -> np.ndarray:
    """Corner values (y1, y2, y3, y4) of an admissible rectangle with the
    bottom edge bounded away from zero."""
    y1 = rng.uniform(-1.0, 1.0)
    y2 = y1 + h * rng.uniform(0.3, 2.5)
    y3 = y2 + rng.uniform(-1.0, 1.0)
    y4 = y1 + rng.uniform(-1.0, 1.0)
    return np.array([y1, y2, y3, y4])


def random_section(grid: GridSpec, rng, amp=0.15) -> Section:
    """Identity plus bounded random displacement; always monotone."""
    d = amp * grid.h * rng.uniform(-1.0, 1.0, size=(grid.n_time, grid.n_space))
    return Section(grid, d)


def constant_tangent(grid: GridSpec, c: float) -> TangentSection:
    return TangentSection(grid, np.full((grid.n_time, grid.n_space), float(c)))


def cosine_u0(amp: float, lam: float):
    return lambda x: amp * np.cos(TWO_PI * x / lam)


def cosine_trajectory(n_space=64, n_steps=100, cfl=0.25, amp=0.1, cfg=None):
    g = GridSpec.from_circle(n_space, 2, TWO_PI, cfl)
    res = evolve(initialize(cosine_u0(amp, TWO_PI), g), n_steps, cfg or SolverConfig())
    assert res.ok, res.failure
    return res


class TimedRun:
    def __init__(self, result, elapsed):
        self.result = result
        self.section = result.section
        self.elapsed = elapsed


@pytest.fixture(scope="session")
def cosine_run_64():
    """The shared reference trajectory: cosine amplitude 0.1, n=64,
    cfl 0.25, 100 steps."""
    t0 = time.perf_counter()
    res = cosine_trajectory()
    return TimedRun(res, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Finite-difference oracles.  Steps follow the usual balance between
# truncation and rounding: cbrt(eps) for first derivatives (central),
# eps**(1/4) for second.


def fd_gradient(f, x, scale=1.0):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for m in range(x.size):
        step = EPS ** (1.0 / 3.0) * max(1.0, abs(x[m])) * scale
        xp = x.copy()
        xp[m] += step
        xm = x.copy()
        xm[m] -= step
        out[m] = (f(xp) - f(xm)) / (2.0 * step)
    return out


def fd_hessian(f, x, scale=1.0):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    steps = [EPS**0.25 * max(1.0, abs(x[m])) * scale for m in range(n)]
    f0 = f(x)
    for m in range(n):
        for l in range(m, n):
            sm, sl = steps[m], steps[l]
            if m == l:
                xp = x.copy()
                xp[m] += sm
                xm = x.copy()
                xm[m] -= sm
                val = (f(xp) - 2.0 * f0 + f(xm)) / (sm * sm)
            else:
                xpp = x.copy()
                xpp[m] += sm
                xpp[l] += sl
                xpm = x.copy()
                xpm[m] += sm
                xpm[l] -= sl
                xmp = x.copy()
                xmp[m] -= sm
                xmp[l] += sl
                xmm = x.copy()
                xmm[m] -= sm
                xmm[l] -= sl
                val = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * sm * sl)
            out[m, l] = val
            out[l, m] = val
    return out


def stencil_fn(h, k):
    """The rectangle Lagrangian as a function of the 4-vector of corner values."""

    def f(y):
        return rect_value(y, h, k)

    return f


def smooth_eta(x, t, alpha=0.3):
    """Analytic monotone field on the 2*pi circle with known derivatives."""
    return x + alpha * np.sin(x - t)


def smooth_eta_derivs(x, t, alpha=0.3):
    s, c = np.sin(x - t), np.cos(x - t)
    return {
        "eta": x + alpha * s,
        "eta_x": 1.0 + alpha * c,
        "eta_t": -alpha * c,
        "eta_xx": -alpha * s,
        "eta_tx": alpha * s,
        "eta_tt": -alpha * s,
        "eta_txx": alpha * c,
    }

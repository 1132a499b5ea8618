"""Shared fixtures and finite-difference oracle helpers."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from oracles import rect_value

from chms import del_solver, geometry_checks
from chms.del_solver import Section, SolverConfig, evolve, initialize
from chms.grid import GridSpec

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def scalar_sweep(monkeypatch):
    """Every cyclic solve takes the scalar sweep, as where NumPy's OpenBLAS
    exports no dgtsv."""
    monkeypatch.setattr(del_solver, "_DGTSV", None)


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


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc traces while fn(*args) runs, above
    what was traced when it started (NumPy reports its arrays to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def rough_section(rng) -> Section:
    """A valid section far rougher than any trajectory: displacements
    uniform in +-0.45 h on 60 levels of 4096 points (cfl 0.25)."""
    g = GridSpec.from_circle(4096, 60, TWO_PI, 0.25)
    return Section(g, 0.45 * g.h * rng.uniform(-1.0, 1.0, (60, 4096)))


def off_partial(partial: str, vertex: int, rel: float):
    """geometry_checks._linear_terms with one second partial off: the term
    that L_aa adds to the gradient of vertex 2 (through dL/da / h), or L_ba
    to vertex 4 (through dL/db / k), is scaled by 1 + rel, and vertex 1
    balances it."""
    real = geometry_checks._linear_terms

    def wrong(a, b, c, h, k, vlo, vhi):
        terms = real(a, b, c, h, k, vlo, vhi)
        da = (np.roll(vlo, -1, axis=-1) - vlo) / h
        extra = rel * da * (c * c / a**3 / h if partial == "aa" else b / k)
        terms[0] -= extra
        terms[vertex] += extra
        return terms

    return wrong


def constant_tangent(grid: GridSpec, c: float) -> np.ndarray:
    return np.full((grid.n_time, grid.n_space), float(c))


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
        "eta_txx": alpha * c,
    }

"""Layer micro-benchmarks: per-call time of single kernels on fixed inputs.

The row kernels run on rows of a cosine:0.1 trajectory (two marched
steps past the start) at every n_space in ROW_SIZES, which traces the
scaling curve of one row's work.  The structure-check kernels (tangent
march, boundary sums, bridges phase field) run on a 20-step cosine:0.1
trajectory at n_space 256 only: that is full_diagnostics' size, and the
tangent march rejects the trajectory as off shell from n_space 512 on.
Measuring them here also gives those layers a time on every workload,
including the march workloads whose runs never call them.
"""

from __future__ import annotations

import statistics

import numpy as np

ROW_SIZES = (64, 256, 1024, 4096)
ROW_KERNELS = ("solve_cyclic_tridiagonal", "jacobian_bands", "del_residual_row", "advance_row")
CHECK_SIZE = 256
CHECK_KERNELS = (
    "solve_first_variation",
    "noether_boundary_terms",
    "mff_boundary_terms",
    "phase_field",
)


def metric_names() -> list[str]:
    names = [f"micro.{k}.n{n}.per_call_us" for k in ROW_KERNELS for n in ROW_SIZES]
    return names + [f"micro.{k}.n{CHECK_SIZE}.per_call_us" for k in CHECK_KERNELS]


def _trajectory(n: int, steps: int):
    from chms.config import RunConfig
    from chms.del_solver import evolve, initialize

    cfg = RunConfig(n_space=n, n_steps=steps, ic="cosine:0.1")
    return evolve(initialize(cfg.u0(), cfg.grid()), steps, cfg.solver()).section, cfg.solver()


def _row_calls(n: int) -> dict:
    from chms.del_solver import advance_row, del_residual_row, solve_cyclic_tridiagonal
    from chms.lagrangian import jacobian_bands, stencil_parts

    s, solver = _trajectory(n, 2)
    g = s.grid
    ym1, y0, yp1 = s.row_y(1), s.row_y(2), s.row_y(3)
    # (a, b, c) over the rectangle row between levels 2 and 3.
    nxt_lo, nxt_hi = np.roll(y0, -1), np.roll(yp1, -1)
    nxt_lo[-1] += g.domain_length
    nxt_hi[-1] += g.domain_length
    a, b, c = stencil_parts(y0, nxt_lo, nxt_hi, yp1, g.h, g.k)
    lower, diag, upper = jacobian_bands(a, b, c, g.h, g.k)
    rhs = np.cos(np.arange(n))
    return {
        "solve_cyclic_tridiagonal": lambda: solve_cyclic_tridiagonal(lower, diag, upper, rhs),
        "jacobian_bands": lambda: jacobian_bands(a, b, c, g.h, g.k),
        "del_residual_row": lambda: del_residual_row(s, 2),
        "advance_row": lambda: advance_row(ym1, y0, g, solver),
    }


def _check_calls(n: int) -> dict:
    from chms import bridges, geometry_checks as gc
    from chms.grid import classify_region

    s, solver = _trajectory(n, 20)
    rng = np.random.default_rng(0)
    v0, w0 = rng.standard_normal((2, 2, n))
    v = gc.solve_first_variation(s, v0, solver)
    w = gc.solve_first_variation(s, w0, solver)
    region = classify_region(0, s.grid.n_time - 1, s.grid)
    xi = gc.SymmetryGenerator(1.0)
    return {
        "solve_first_variation": lambda: gc.solve_first_variation(s, v0, solver),
        "noether_boundary_terms": lambda: gc.noether_boundary_terms(s, xi, region),
        "mff_boundary_terms": lambda: gc.mff_boundary_terms(s, v, w, region),
        "phase_field": lambda: bridges.phase_field(s),
    }


def _per_call_s(fn, budget_s: float, clock) -> float:
    """Median per-call time over at least five batches of ~5 ms or more."""
    t = clock()
    fn()
    batch = max(1, int(0.005 / max(clock() - t, 1e-7)))
    samples = []
    end = clock() + budget_s
    while len(samples) < 5 or clock() < end:
        t = clock()
        for _ in range(batch):
            fn()
        samples.append((clock() - t) / batch)
    return statistics.median(samples)


def micro_metrics(budget_s: float, speed) -> dict[str, float]:
    """Every name of metric_names() in reference-host microseconds per call.

    Each kernel is timed on the probe-free clock of `speed` (a
    speed.SpeedTracker) and scaled by its own probes.
    """
    each = budget_s / len(metric_names())
    calls = {f"micro.{name}.n{n}.per_call_us": fn for n in ROW_SIZES for name, fn in _row_calls(n).items()}
    calls.update(
        {f"micro.{name}.n{CHECK_SIZE}.per_call_us": fn for name, fn in _check_calls(CHECK_SIZE).items()}
    )
    out = {}
    for metric, fn in calls.items():
        per_call, wall, reference = speed.timed(lambda: _per_call_s(fn, each, speed.clock))
        out[metric] = 1e6 * per_call * reference / wall
    return out

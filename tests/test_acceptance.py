"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else.  Theorem-based checks use
the structure results themselves as oracles (boundary sums vanish on
solutions); derivative checks use central finite differences.
"""

import math
import time

import numpy as np

from conftest import (
    EPS,
    TWO_PI,
    constant_tangent,
    cosine_trajectory,
    cosine_u0,
    fd_gradient,
    fd_hessian,
    random_section,
    random_stencil,
    stencil_fn,
)
from oracles import label, rect_grad, rect_hess, rect_omega, row_action, uniform_translation

from chms import bridges
from chms import geometry_checks as gc
from chms.del_solver import Section, del_residual_row, evolve, initialize
from chms.grid import GridSpec, classify_region


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_variational_gradient_oracle(rng):
    t0 = time.perf_counter()
    worst_grad, worst_hess = 0.0, 0.0
    for _ in range(1000):
        h, k = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        y = random_stencil(rng, h, k)
        f = stencil_fn(h, k)
        g = rect_grad(y, h, k)
        worst_grad = max(
            worst_grad,
            np.max(np.abs(fd_gradient(f, y) - g)) / max(1.0, np.max(np.abs(g))),
        )
        m = rect_hess(y, h, k)
        worst_hess = max(
            worst_hess,
            np.max(np.abs(fd_hessian(f, y) - m)) / max(1.0, np.max(np.abs(m))),
        )

    worst_res = 0.0
    grid = GridSpec(8, 5, 1.0, 0.5, 8.0)
    step = EPS ** (1.0 / 3.0)
    for _ in range(50):
        sec = random_section(grid, rng)
        for _ in range(3):
            i = int(rng.integers(0, grid.n_space))
            j = int(rng.integers(1, grid.n_time - 1))

            def patch(value):
                d = sec.displacement.copy()
                d[j, i] = value - i * grid.h
                patched = Section(grid, d)
                return row_action(patched, j - 1) + row_action(patched, j)

            base = label(sec, i, j)
            fd = (patch(base + step) - patch(base - step)) / (2 * step)
            res = del_residual_row(sec, j)[i]
            worst_res = max(worst_res, abs(fd - res) / max(1.0, abs(res)))
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-7 and worst_hess <= 1e-5 and worst_res <= 1e-7 and elapsed < 5.0
    _report(
        1,
        ok,
        f"grad {worst_grad:.2e}<=1e-7, hess {worst_hess:.2e}<=1e-5, "
        f"residual {worst_res:.2e}<=1e-7, {elapsed:.2f}s<5s",
    )


def test_criterion_2_exact_solution_residuals(rng):
    t0 = time.perf_counter()
    grid = GridSpec(16, 12, 1.0, 0.5, 16.0)
    worst = 0.0
    for sec in (Section.identity(grid), uniform_translation(grid, 0.3)):
        for j in range(1, grid.n_time - 1):
            worst = max(worst, float(np.max(np.abs(del_residual_row(sec, j)))))
        region = classify_region(0, grid.n_time - 1, grid)
        v = constant_tangent(grid, 1.0)
        w = gc.solve_first_variation(sec, rng.standard_normal((2, grid.n_space)))
        worst = max(worst, abs(gc.mff_boundary_terms(sec, v, w, region).sum()))
        xi = gc.SymmetryGenerator(1.0)
        worst = max(worst, abs(gc.noether_boundary_terms(sec, xi, region).sum()))
        z = bridges.phase_field(sec)
        ham = bridges.hamilton_residuals(z, grid)
        cons = bridges.conservation_residual(z, grid)
        el = bridges.continuous_el_residual(z, grid)
        worst = max(worst, float(np.max(np.abs(ham))), float(np.max(np.abs(cons))),
                    float(np.max(np.abs(el))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, ok, f"max |residual| {worst:.2e} <= 1e-12, {elapsed:.2f}s<1s")


def test_criterion_3_closure_identities(rng):
    worst_omega, worst_momentum = 0.0, 0.0
    for _ in range(1000):
        h, k = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        y = random_stencil(rng, h, k)
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)
        terms = rect_omega(y, h, k, v, w)
        scale = np.sum(np.abs(terms))
        if scale > 0:
            worst_omega = max(worst_omega, abs(np.sum(terms)) / scale)
        jterms = rng.uniform(-2.0, 2.0) * rect_grad(y, h, k)
        jscale = np.sum(np.abs(jterms))
        if jscale > 0:
            worst_momentum = max(worst_momentum, abs(np.sum(jterms)) / jscale)
    ok = worst_omega <= 1e-12 and worst_momentum <= 1e-12
    _report(3, ok, f"sum(omega) {worst_omega:.2e}, sum(momentum) {worst_momentum:.2e} <= 1e-12")


def test_criterion_4_discrete_momentum_conservation(cosine_run_64):
    t0 = time.perf_counter()
    s = cosine_run_64.section
    momenta, _ = gc.level_series(s)
    p0 = momenta[0]
    drift = max(abs(p - p0) for p in momenta)
    # The cosine start has zero mean velocity, so |P0| is itself roundoff
    # (~1e-12); drift is measured against the momentum term magnitude.
    drift_scale = max(abs(p0), gc.total_momentum_scale(s, 0))
    xi = gc.SymmetryGenerator(1.0)
    worst_window = 0.0
    for j_lo, j_hi in [(0, 101), (0, 50), (50, 101), (10, 90)]:
        region = classify_region(j_lo, j_hi, s.grid)
        terms = gc.noether_boundary_terms(s, xi, region)
        worst_window = max(worst_window, abs(terms.sum()) / np.abs(terms).sum())
    elapsed = cosine_run_64.elapsed + (time.perf_counter() - t0)
    ok = drift <= 1e-9 * drift_scale and worst_window <= 1e-9 and elapsed < 10.0
    _report(
        4,
        ok,
        f"drift {drift:.2e} <= 1e-9*{drift_scale:.2e}, window sums {worst_window:.2e}<=1e-9, "
        f"{elapsed:.2f}s<10s",
    )


def test_criterion_5_discrete_mff(cosine_run_64, rng):
    t0 = time.perf_counter()
    s = cosine_run_64.section
    v = gc.solve_first_variation(s, rng.standard_normal((2, s.grid.n_space)))
    w = gc.solve_first_variation(s, rng.standard_normal((2, s.grid.n_space)))
    worst = 0.0
    sums = []
    for j_lo, j_hi in [(0, 101), (0, 50), (50, 101)]:
        region = classify_region(j_lo, j_hi, s.grid)
        terms = gc.mff_boundary_terms(s, v, w, region)
        sums.append(abs(terms.sum()))
        worst = max(worst, abs(terms.sum()) / np.abs(terms).sum())
    perturbed = Section(
        s.grid, s.displacement + 1e-3 * s.grid.h * rng.standard_normal(s.displacement.shape)
    )
    region = classify_region(0, 101, s.grid)
    off = abs(gc.mff_boundary_terms(perturbed, v, w, region).sum())
    control = off >= 1e3 * max(sums[0], 1e-300)
    elapsed = cosine_run_64.elapsed + (time.perf_counter() - t0)
    ok = worst <= 1e-8 and control and elapsed < 10.0
    _report(
        5,
        ok,
        f"window sums {worst:.2e}<=1e-8, off-shell {off:.2e} >= 1e3*{sums[0]:.2e}, "
        f"{elapsed:.2f}s<10s",
    )


def test_criterion_6_tangent_linear_consistency(rng):
    n, steps, eps = 32, 20, 1e-6
    g = GridSpec.from_circle(n, 2, TWO_PI, 0.25)
    s0 = initialize(cosine_u0(0.1, TWO_PI), g)
    v0 = rng.standard_normal((2, n))
    base = evolve(s0, steps).section
    plus = evolve(Section(s0.grid, s0.displacement + eps * v0), steps).section
    minus = evolve(Section(s0.grid, s0.displacement - eps * v0), steps).section
    quotient = (plus.displacement - minus.displacement) / (2 * eps)
    v = gc.solve_first_variation(base, v0)
    err = np.max(np.abs(v - quotient)) / np.max(np.abs(quotient))
    ok = err <= 1e-4
    _report(6, ok, f"tangent vs eps-difference rel err {err:.2e} <= 1e-4")


def test_criterion_7_convergence(rng):
    t0 = time.perf_counter()
    base_steps = 16
    runs = {}
    for factor, n in [(1, 32), (2, 64), (4, 128)]:
        res = cosine_trajectory(n_space=n, n_steps=base_steps * factor)
        runs[factor] = res.section
    errors = []
    for fa, fb in [(1, 2), (2, 4)]:
        fine = runs[fb].row_y(fb * base_steps)[:: fb // fa]
        coarse = runs[fa].row_y(fa * base_steps)
        errors.append(float(np.max(np.abs(fine - coarse))))
    order_solution = math.log2(errors[0] / errors[1])

    cons_norms, el_norms = [], []
    for factor in (1, 2, 4):
        sec = runs[factor]
        z = bridges.phase_field(sec)
        cons = bridges.conservation_residual(z, sec.grid)
        el = bridges.continuous_el_residual(z, sec.grid)
        cons_norms.append(float(np.max(np.abs(cons))))
        el_norms.append(float(np.max(np.abs(el))))
    cons_orders = [math.log2(a / b) for a, b in zip(cons_norms, cons_norms[1:])]
    el_orders = [math.log2(a / b) for a, b in zip(el_norms, el_norms[1:])]
    elapsed = time.perf_counter() - t0
    ok = (
        order_solution >= 0.8
        and all(o >= 0.8 for o in cons_orders)
        and all(o >= 0.8 for o in el_orders)
        and elapsed < 60.0
    )
    _report(
        7,
        ok,
        f"solution order {order_solution:.2f}, conservation orders "
        f"{['%.2f' % o for o in cons_orders]}, field-equation orders "
        f"{['%.2f' % o for o in el_orders]} all >= 0.8, {elapsed:.1f}s<60s",
    )


def test_criterion_8_legendre_hamiltonian_identities(rng):
    worst = 0.0
    for _ in range(1000):
        vals = rng.uniform(-2.0, 2.0, size=6)
        eta_x, eta_t, eta_tx = rng.uniform(0.3, 3.0), vals[1], vals[3]
        z = bridges.legendre(vals[0], eta_x, eta_t, vals[2], eta_tx, vals[5])
        # The phase-space polynomial against H = L - px*eta_x - pt*eta_t
        # - ptx*eta_tx, with L the density written out.
        dens = 0.5 * (eta_x * eta_t**2 + eta_tx**2 / eta_x)
        pairings = (z[3] * eta_x, z[4] * eta_t, z[5] * eta_tx)
        ham = dens - pairings[0] - pairings[1] - pairings[2]
        scale = max(abs(dens), *(abs(p) for p in pairings), 1.0)
        worst = max(worst, abs(bridges.hamiltonian_phase(z) - ham) / scale)
    e = np.eye(6)
    entries_exact = (
        bridges.omega_pair(e[0], e[3])[0] == -1.0
        and bridges.omega_pair(e[0], e[4])[1] == -1.0
    )
    skew_exact = True
    for _ in range(200):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        w1, w0 = bridges.omega_pair(u, v)
        s1, s0 = bridges.omega_pair(v, u)
        skew_exact = skew_exact and w1 == -s1 and w0 == -s0
    ok = worst <= 8.0 * EPS and entries_exact and skew_exact
    _report(
        8,
        ok,
        f"Hamiltonian identity {worst:.2e} <= 8 ulp, matrix entries exact: "
        f"{entries_exact}, skew exact: {skew_exact}",
    )

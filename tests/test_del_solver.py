import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TWO_PI, cosine_trajectory, cosine_u0, random_section
from oracles import cyclic_solve, del_residual, del_residual_expanded, label, uniform_translation

from chms.del_solver import (
    Section,
    SolverConfig,
    _row_parts,
    advance_row,
    del_residual_row,
    evolve,
    initialize,
    residual_scale_row,
    solve_cyclic_tridiagonal,
)
from chms.errors import BadInitialData, NonMonotone, OutOfRange, SingularJacobian
from chms.geometry_checks import level_series
from chms.grid import GridSpec
from chms.lagrangian import jacobian_bands


def o1_grid(n_space=16, n_time=6):
    """Order-one spacings keep exact-solution floors at machine precision."""
    return GridSpec(n_space, n_time, 1.0, 0.5, float(n_space))


def max_residual(s):
    return max(np.max(np.abs(del_residual_row(s, j))) for j in range(1, s.grid.n_time - 1))


def action_sum(s, j_lo, j_hi):
    """Discrete action over the rectangle rows j_lo .. j_hi - 1."""
    return sum(level_series(s)[1][j_lo:j_hi])


def test_rest_and_uniform_residuals_vanish():
    g = o1_grid()
    for s in (Section.identity(g), uniform_translation(g, 0.3)):
        assert max_residual(s) <= 1e-13


def test_affine_sections_are_exact():
    g = o1_grid()
    for c, b in [(0.4, 0.0), (-0.2, 1.5), (0.0, -0.7)]:
        assert max_residual(uniform_translation(g, c, offset=b)) <= 1e-12


def test_row_residual_matches_pointwise(rng):
    g = o1_grid(n_space=9, n_time=5)
    s = random_section(g, rng)
    for j in range(1, g.n_time - 1):
        row = del_residual_row(s, j)
        for i in range(g.n_space):
            assert row[i] == pytest.approx(del_residual(s, (i, j)), rel=1e-12, abs=1e-12)


def test_residual_is_action_gradient(rng):
    g = o1_grid(n_space=8, n_time=5)
    for _ in range(20):
        s = random_section(g, rng)
        i = int(rng.integers(0, g.n_space))
        j = int(rng.integers(1, g.n_time - 1))
        step_size = np.finfo(float).eps ** (1.0 / 3.0)

        def patch_action(value):
            d = s.displacement.copy()
            d[j, i] = value - i * g.h
            return action_sum(Section(g, d), j - 1, j + 1)

        base = label(s, i, j)
        fd = (patch_action(base + step_size) - patch_action(base - step_size)) / (2 * step_size)
        res = del_residual_row(s, j)[i]
        assert abs(fd - res) <= 1e-7 * max(1.0, abs(res))


def test_expanded_form_matches_gradient(rng):
    g = o1_grid(n_space=8, n_time=5)
    for _ in range(20):
        s = random_section(g, rng)
        for i, j in [(0, 1), (3, 2), (7, 3)]:
            raw = del_residual_row(s, j)[i]
            expanded = del_residual_expanded(s, (i, j))
            assert expanded == pytest.approx(raw, rel=1e-10, abs=1e-12)


def test_residual_requires_interior_point():
    g = o1_grid()
    s = Section.identity(g)
    for row_fn in (del_residual_row, residual_scale_row):
        with pytest.raises(OutOfRange):
            row_fn(s, 0)
        with pytest.raises(OutOfRange):
            row_fn(s, g.n_time - 1)


def test_action_examples():
    g = o1_grid(n_space=10, n_time=4)
    assert action_sum(Section.identity(g), 0, 3) == 0.0
    c = 0.4
    s = uniform_translation(g, c)
    n_rects = 3 * g.n_space
    # every stencil has slope 1, velocity c, zero mixed difference
    assert action_sum(s, 0, 3) == pytest.approx(n_rects * c * c / 2.0, rel=1e-12)


def test_action_uniform_unit_spacings():
    g = GridSpec(10, 4, 1.0, 1.0, 10.0)
    c = 0.4
    s = uniform_translation(g, c)
    assert action_sum(s, 0, 3) == pytest.approx(3 * g.n_space * c * c / 2.0, rel=1e-12)


def test_initialize_examples():
    h = TWO_PI / 64
    g = GridSpec.from_circle(64, 2, TWO_PI, 0.01 / h)  # k = 0.01
    assert g.k == pytest.approx(0.01)
    rest = initialize(lambda x: np.zeros_like(x), g)
    assert np.allclose(rest.displacement, 0.0)
    uni = initialize(lambda x: np.full_like(x, 0.25), g)
    assert np.allclose(uni.displacement[1], g.k * 0.25)
    cos = initialize(cosine_u0(0.1, TWO_PI), g)
    inc = np.diff(np.append(cos.row_y(1), cos.row_y(1)[0] + TWO_PI))
    assert inc.min() > g.h - g.k * 0.1 * g.h - 1e-12


def test_initial_kick_reproduces_velocity():
    n = 32
    g = GridSpec.from_circle(n, 2, TWO_PI, 0.25)
    u0 = lambda x: 0.1 * np.cos(x)
    s = initialize(u0, g)
    # exact up to reconstructing x + d from the stored displacement
    velocity = (s.row_y(1) - s.row_y(0)) / g.k
    assert np.max(np.abs(velocity - u0(np.arange(n) * g.h))) <= 1e-13


def test_initialize_rejects_violent_kick():
    g = GridSpec.from_circle(16, 2, TWO_PI, 4.0)  # huge timestep
    with pytest.raises(BadInitialData):
        initialize(cosine_u0(2.0, TWO_PI), g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_initialize_rejects_non_finite_velocity(bad):
    g = GridSpec.from_circle(16, 2, TWO_PI, 0.25)

    def u0(x):
        v = np.zeros_like(x)
        v[5] = bad
        return v

    with pytest.raises(BadInitialData, match="not finite"):
        initialize(u0, g)


def test_step_rest_converges_at_initial_guess():
    g = o1_grid(n_space=12, n_time=2)
    s = Section.identity(g)
    new_row, stats = advance_row(s.row_y(0), s.row_y(1), g, SolverConfig())
    assert stats.iterations == 0
    assert np.allclose(new_row, s.row_y(1), atol=1e-14)


def test_step_uniform_converges_at_initial_guess():
    g = o1_grid(n_space=12, n_time=2)
    c = 0.3
    s = uniform_translation(g, c)
    new_row, stats = advance_row(s.row_y(0), s.row_y(1), g, SolverConfig())
    assert stats.iterations == 0
    assert np.allclose(new_row, s.xs() + 2 * c * g.k, atol=1e-12)


def test_evolve_zero_steps_returns_input():
    g = o1_grid(n_space=12, n_time=2)
    s = uniform_translation(g, 0.2)
    out = evolve(s, 0)
    assert out.ok and out.section.grid.n_time == 2
    assert np.array_equal(out.section.displacement, s.displacement)


def test_evolve_uniform_exact_over_many_steps():
    g = GridSpec(16, 2, 1.0, 0.5, 16.0)
    c = 0.3
    res = evolve(uniform_translation(g, c), 50)
    assert res.ok
    s = res.section
    t = g.k * np.arange(s.grid.n_time)
    assert np.max(np.abs(s.displacement - c * t[:, None])) <= 1e-11
    assert max(st.residual_norm for st in res.steps) <= 1e-12
    assert all(st.iterations == 0 for st in res.steps)


def test_newton_iteration_bound_on_reference_run(cosine_run_64):
    stats = cosine_run_64.result.steps
    assert len(stats) == 100
    assert max(st.iterations for st in stats) <= 8
    # accepted residuals sit at the attainable floating-point floor
    assert max(st.residual_norm for st in stats) <= 1e-9


def test_jacobian_matches_finite_differences(rng):
    g = o1_grid(n_space=8, n_time=3)
    s = random_section(g, rng)
    ym1, y0, yp1 = s.row_y(0), s.row_y(1), s.row_y(2)
    n, h, k = g.n_space, g.h, g.k

    def residual(next_row):
        d = s.displacement.copy()
        d[2] = next_row - s.xs()
        return del_residual_row(Section(g, d), 1)

    e = yp1 - y0
    lower, diag, upper = jacobian_bands(
        (np.roll(y0, -1) + np.where(np.arange(n) == n - 1, g.domain_length, 0) - y0) / h,
        e / k,
        (np.roll(e, -1) - e) / (h * k),
        h,
        k,
    )
    dense = np.zeros((n, n))
    idx = np.arange(n)
    dense[idx, idx] = diag
    dense[idx, (idx + 1) % n] = upper
    dense[idx, (idx - 1) % n] = lower
    fd = np.zeros((n, n))
    eps_fd = 1e-6
    for m in range(n):
        up, down = yp1.copy(), yp1.copy()
        up[m] += eps_fd
        down[m] -= eps_fd
        fd[:, m] = (residual(up) - residual(down)) / (2 * eps_fd)
    assert np.max(np.abs(fd - dense)) <= 1e-6 * max(1.0, np.max(np.abs(dense)))


def dense_cyclic(lower, diag, upper):
    n = diag.size
    dense = np.zeros((n, n))
    idx = np.arange(n)
    dense[idx, idx] = diag
    dense[idx, (idx + 1) % n] = upper
    dense[idx, (idx - 1) % n] = lower
    return dense


def test_cyclic_tridiagonal_solver(rng):
    for n in (5, 16, 300):
        lower = rng.uniform(-1.0, 1.0, n)
        upper = rng.uniform(-1.0, 1.0, n)
        diag = 4.0 + rng.uniform(0.0, 1.0, n)  # diagonally dominant
        rhs = rng.standard_normal(n)
        x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
        dense = dense_cyclic(lower, diag, upper)
        assert np.max(np.abs(dense @ x - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_cyclic_tridiagonal_rejects_fewer_than_three_unknowns():
    # For n < 3 the corner entries fall on the band.
    with pytest.raises(ValueError):
        solve_cyclic_tridiagonal(np.ones(2), np.full(2, 4.0), np.ones(2), np.ones(2))


def test_cyclic_tridiagonal_singular():
    n = 12
    with pytest.raises(SingularJacobian):
        solve_cyclic_tridiagonal(np.zeros(n), np.zeros(n), np.zeros(n), np.ones(n))


@pytest.mark.parametrize(
    "n, bad", [(5, np.nan), (5, np.inf), (5, -np.inf), (12, np.nan), (12, np.inf), (12, -np.inf)]
)
@pytest.mark.parametrize("row", [0, 3])
def test_cyclic_tridiagonal_non_finite_diagonal(n, bad, row):
    diag = np.full(n, 4.0)
    diag[row] = bad
    with pytest.raises(SingularJacobian):
        solve_cyclic_tridiagonal(np.ones(n), diag, np.ones(n), np.ones(n))


def test_cyclic_tridiagonal_zero_pivot_after_first_row():
    # Row 0 of the Sherman-Morrison-shifted band has pivot 2 * 2 = 4, so
    # row 1 eliminates to 0.25 - 1 * (1 / 4) = 0 exactly.
    n = 12
    diag = np.full(n, 4.0)
    diag[0] = 2.0
    diag[1] = 0.25
    with pytest.raises(SingularJacobian, match="zero pivot at row 1"):
        solve_cyclic_tridiagonal(np.ones(n), diag, np.ones(n), np.ones(n))


@pytest.mark.parametrize("n", [3, 5, 7, 8, 9, 64, 300])
def test_cyclic_solve_matches_scalar_oracle_bitwise(n):
    s = cosine_trajectory(n_space=n, n_steps=6).section
    rng = np.random.default_rng(n)
    for j in range(1, s.grid.n_time - 1):
        a, b, c = _row_parts(s.row_y(j), s.row_y(j + 1), s.grid)
        lower, diag, upper = jacobian_bands(a, b, c, s.grid.h, s.grid.k)
        for rhs in (-del_residual_row(s, j), rng.standard_normal(n)):
            x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
            assert np.array_equal(x, cyclic_solve(lower, diag, upper, rhs))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 40), data=st.data())
def test_cyclic_solve_matches_dense_on_dominant_bands(n, data):
    # Covers the smallest circles (n = 3..7) as well as larger ones: the
    # corner entries lie outside the band for every n >= 3.
    unit = st.floats(-1.0, 1.0)
    lower = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    upper = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    margin = np.array(data.draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n)))
    sign = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    rhs = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    diag = sign * (np.abs(lower) + np.abs(upper) + margin)
    x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    dense = dense_cyclic(lower, diag, upper)
    reference = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))
    assert np.max(np.abs(dense @ x - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_wave_breaking_reported():
    g = GridSpec.from_circle(32, 2, TWO_PI, 0.25)
    res = evolve(initialize(cosine_u0(3.0, TWO_PI), g), 100)
    assert not res.ok
    assert res.failure.error in ("NonMonotone", "MaxItersExceeded")
    assert res.section.grid.n_time < 102  # partial trajectory returned
    assert len(res.steps) == res.section.grid.n_time - 2


def test_backward_marching_is_first_order_not_exact():
    """Marching the reflected rows backwards reproduces the earlier row
    only up to the forward-difference asymmetry (third order per step
    locally), except on affine solutions where it is exact."""
    g = GridSpec(16, 2, 1.0, 0.5, 16.0)
    s = uniform_translation(g, 0.3)
    res = evolve(s, 4)
    tr = res.section
    back, _ = advance_row(tr.row_y(3), tr.row_y(2), g, SolverConfig())
    assert np.max(np.abs(back - tr.row_y(1))) <= 1e-11

    g2 = GridSpec.from_circle(32, 2, TWO_PI, 0.25)
    res2 = evolve(initialize(cosine_u0(0.1, TWO_PI), g2), 16)
    tr2 = res2.section
    j = 8
    back2, _ = advance_row(tr2.row_y(j + 1), tr2.row_y(j), g2, SolverConfig())
    misfit = np.max(np.abs(back2 - tr2.row_y(j - 1)))
    increment = np.max(np.abs(tr2.row_y(j + 1) - tr2.row_y(j)))
    assert misfit <= 1e-2 * increment
    assert misfit > 1e-12  # the scheme is not time-reflection symmetric


def test_evolve_continuation_matches_single_run():
    g = GridSpec.from_circle(16, 2, TWO_PI, 0.25)
    s0 = initialize(cosine_u0(0.1, TWO_PI), g)
    whole = evolve(s0, 12).section
    first = evolve(s0, 5).section
    resumed = evolve(first, 7).section
    assert resumed.grid.n_time == whole.grid.n_time
    assert np.max(np.abs(resumed.displacement - whole.displacement)) <= 1e-12


def test_minimum_circle_runs():
    g = GridSpec.from_circle(3, 2, TWO_PI, 0.25)
    res = evolve(initialize(cosine_u0(0.05, TWO_PI), g), 10)
    assert res.ok
    worst = max(
        abs(del_residual(res.section, (i, j)))
        for j in range(1, res.section.grid.n_time - 1)
        for i in range(3)
    )
    assert worst <= 1e-9


def test_section_rejects_non_monotone_rows():
    g = o1_grid(n_space=8, n_time=2)
    d = np.zeros((2, 8))
    d[1, 3] = -1.5  # pulls y below its left neighbour
    with pytest.raises(NonMonotone):
        Section(g, d)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.5)

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TWO_PI, cosine_trajectory, cosine_u0, random_section, traced_peak
from oracles import (
    collision_time,
    cyclic_solve,
    del_residual,
    del_residual_expanded,
    green,
    label,
    multipeakon,
    multipeakon_labels,
    newton_step,
    peakon,
    peakon_labels,
    section_parts_two_shift,
    thomas,
    uniform_translation,
)

from chms import del_solver, lagrangian
from chms.config import RunConfig, parse_initial_condition
from chms.del_solver import (
    Section,
    SolverConfig,
    _increments,
    _solve_cyclic_scalar,
    advance_row,
    del_residual_row,
    evolve,
    initialize,
    residual_scale_row,
    section_parts,
    solve_cyclic_tridiagonal,
)
from chms.errors import BadInitialData, MaxItersExceeded, NonMonotone, OutOfRange, SingularJacobian
from chms.geometry_checks import level_series
from chms.grid import GridSpec
from chms.lagrangian import DELTA_MIN_FACTOR, _require_increments, jacobian_bands


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


@pytest.mark.parametrize("n_space, n_time", [(3, 2), (16, 9), (64, 40)])
def test_section_parts_matches_the_two_shift_form_bit_for_bit(rng, n_space, n_time):
    s = random_section(GridSpec.from_circle(n_space, n_time, TWO_PI, 0.25), rng)
    n_rows = n_time - 1
    ranges = [(0, None), (0, n_rows)] + [(j, j + 1) for j in range(n_rows)]
    ranges += [tuple(sorted(rng.choice(n_rows + 1, 2, replace=False).tolist())) for _ in range(5)]
    for lo, hi in ranges:
        got, ref = section_parts(s, lo, hi), section_parts_two_shift(s, lo, hi)
        for part, want in zip(got, ref):
            assert part.shape == want.shape and part.tobytes() == want.tobytes()


def test_section_parts_takes_rectangle_row_ranges_and_names_the_first_outside():
    s = cosine_trajectory(n_space=16, n_steps=4).section  # rectangle rows 0 .. 4
    whole = section_parts(s)
    assert [p.shape for p in whole] == [(5, 16)] * 3
    for lo, hi in ((0, 5), (2, 4), (4, 5)):
        for part, ref in zip(section_parts(s, lo, hi), whole):
            assert np.array_equal(part, ref[lo:hi])
    for (lo, hi), bad in (((-1, 2), -1), ((3, 6), 5), ((5, 6), 5), ((6, 9), 6)):
        with pytest.raises(OutOfRange, match=rf"^rectangle row {bad} needs rows {bad} and {bad + 1}$"):
            section_parts(s, lo, hi)
    for lo, hi in ((3, 3), (3, 1)):  # no rectangle row at all
        with pytest.raises(OutOfRange, match=rf"^rectangle rows {lo} \.\. {hi - 1} are an empty range$"):
            section_parts(s, lo, hi)


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


def test_initialize_rejects_a_scalar_velocity():
    # Every initial-condition sampler returns one value per position.
    g = GridSpec.from_circle(16, 2, TWO_PI, 0.25)
    with pytest.raises(ValueError, match="one value each"):
        initialize(lambda x: 0.25, g)


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
    assert stats.iterations == 0 and stats.stop_reason == "tolerance"
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
    with pytest.raises(ValueError, match="n_steps must be nonnegative"):
        evolve(s, -1)


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
    "n, bad",
    [(n, bad) for n in (5, 12, 1000, 1031) for bad in (np.nan, np.inf, -np.inf)],
)
# Non-finite bands never reach dgtsv, which solves an infinite diagonal
# to a silent 0.  "corner" puts the bad value in upper[-1], the border
# row's first entry, against lower[0] = 0, the border column's first
# entry.
@pytest.mark.parametrize("row", [0, 3, "corner"])
def test_cyclic_tridiagonal_non_finite_diagonal(n, bad, row):
    lower, diag, upper = np.ones(n), np.full(n, 4.0), np.ones(n)
    if row == "corner":
        lower[0], upper[-1] = 0.0, bad
    else:
        diag[row] = bad
    with np.errstate(all="raise"), pytest.raises(SingularJacobian):
        solve_cyclic_tridiagonal(lower, diag, upper, np.ones(n))


def row_1_system(n=12):
    """A regular cyclic system whose row 1 eliminates to a zero pivot in
    natural order: row 0 has pivot 4, so row 1 gives 0.25 - 1 * (1 / 4)."""
    diag = np.full(n, 4.0)
    diag[1] = 0.25
    return np.ones(n), diag, np.ones(n)


def test_cyclic_tridiagonal_zero_pivot_after_first_row(scalar_sweep):
    # The scalar sweep, unpivoted, names row 1.
    with pytest.raises(SingularJacobian, match="zero pivot at row 1"):
        solve_cyclic_tridiagonal(*row_1_system(), np.ones(12))


@pytest.mark.skipif(del_solver._DGTSV is None, reason="NumPy's OpenBLAS exports no dgtsv")
def test_lapack_solves_the_row_1_system_to_rounding_level():
    # The system is regular, and dgtsv's row interchanges solve it.
    bands, rhs = row_1_system(), np.ones(12)
    x = solve_cyclic_tridiagonal(*bands, rhs)
    assert backward_error(*bands, x, rhs) <= 2 * EPS


def spy_on_the_scalar_sweep(monkeypatch):
    """The systems that reach the scalar sweep, as a list that later
    solves fill with (bands, rhs)."""
    calls, real = [], del_solver._solve_cyclic_scalar

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(del_solver, "_solve_cyclic_scalar", spy)
    return calls


def test_a_singular_leading_block_reaches_the_scalar_sweep(monkeypatch):
    # Finite bands whose row 5 is zero: dgtsv returns INFO > 0, and the
    # scalar sweep names the row where natural order fails.
    n = 12
    lower, diag, upper = np.ones(n), np.full(n, 4.0), np.ones(n)
    lower[5] = diag[5] = upper[5] = 0.0
    calls = spy_on_the_scalar_sweep(monkeypatch)
    with pytest.raises(SingularJacobian, match="^zero pivot at row 5$") as err:
        solve_cyclic_tridiagonal(lower, diag, upper, np.ones(n))
    assert err.value.row == 5 and len(calls) == 1


def test_a_zero_schur_pivot_reaches_the_scalar_sweep(monkeypatch):
    # The circulant (1, -2, 1) at n = 3: dgtsv solves its regular leading
    # block, and the Schur pivot -2 - 1 * (-1) - 1 * (-1) is exactly 0.
    calls = spy_on_the_scalar_sweep(monkeypatch)
    with pytest.raises(SingularJacobian, match="^zero pivot at row 2$") as err:
        solve_cyclic_tridiagonal(np.ones(3), np.full(3, -2.0), np.ones(3), np.ones(3))
    assert err.value.row == 2 and len(calls) == 1


def test_cyclic_tridiagonal_zero_pivot_at_row_0():
    # Row 0 names itself like every other row.
    n = 12
    with pytest.raises(SingularJacobian, match="zero pivot at row 0$"):
        solve_cyclic_tridiagonal(np.ones(n), np.zeros(n), np.ones(n), np.ones(n))


@pytest.mark.parametrize("n", [3, 5])
def test_cyclic_tridiagonal_singular_circulant(n):
    # The circulant (1, -2, 1) has rows that sum to 0, and its leading
    # (n-1)x(n-1) block is regular: at these sizes the Schur pivot comes
    # out exactly 0 (at others rounding leaves it nonzero).
    with pytest.raises(SingularJacobian, match=f"zero pivot at row {n - 1}$"):
        solve_cyclic_tridiagonal(np.ones(n), np.full(n, -2.0), np.ones(n), np.arange(n, dtype=float))


@pytest.mark.parametrize("n", [3, 5, 7, 8, 9, 64, 255])
def test_cyclic_solve_matches_scalar_oracle_bitwise(n, scalar_sweep):
    s = cosine_trajectory(n_space=n, n_steps=6).section
    rng = np.random.default_rng(n)
    for j in range(1, s.grid.n_time - 1):
        a, b, c = (p[0] for p in section_parts(s, j, j + 1))
        lower, diag, upper = jacobian_bands(a, b, c, s.grid.h, s.grid.k)
        for rhs in (-del_residual_row(s, j), rng.standard_normal(n)):
            x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
            assert np.array_equal(x, cyclic_solve(lower, diag, upper, rhs))


@pytest.mark.parametrize("n", [255, 256, 1024, 1031, 4096, 4099])
def test_stacked_solve_matches_each_rhs_bitwise(n):
    # One dgtsv call for a stack of right-hand sides: each row comes out
    # as its own solve gives it.
    s = cosine_trajectory(n_space=n, n_steps=2).section
    lower, diag, upper = jacobian_bands(*(p[0] for p in section_parts(s, 2, 3)), s.grid.h, s.grid.k)
    for m in (1, 2, 3):
        rhs = np.random.default_rng(n + m).standard_normal((m, n))
        x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
        assert x.shape == (m, n)
        for xi, r in zip(x, rhs):
            assert np.array_equal(xi, solve_cyclic_tridiagonal(lower, diag, upper, r))


EPS = np.finfo(float).eps

#: Near-singular draws: each row's diagonal exceeds the sum of its
#: off-diagonals by a margin down to 1e-8 of them, so the condition number
#: reaches about 1e9 and only the backward error stays at rounding level.
TIGHT = st.one_of(st.just(1.0), st.floats(1e-8, 1e-1))


def backward_error(lower, diag, upper, x, rhs):
    """Normwise ||A x - rhs|| / (||A|| ||x||) in the max norm."""
    ax = diag * x + lower * np.roll(x, 1) + upper * np.roll(x, -1)
    norm_a = np.max(np.abs(lower) + np.abs(diag) + np.abs(upper))
    return np.max(np.abs(ax - rhs)) / (norm_a * np.max(np.abs(x)))


def dominant_bands(rng, n, tight=1.0):
    lower = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(-1.0, 1.0, n)
    margin = tight * rng.uniform(0.5, 4.0, n)
    sign = rng.choice([-1.0, 1.0], n)
    return lower, sign * (np.abs(lower) + np.abs(upper) + margin), upper


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 40), tight=TIGHT, data=st.data())
def test_cyclic_solve_matches_dense_on_dominant_bands(n, tight, data):
    # Covers the smallest circles (n = 3..7) as well as larger ones: the
    # corner entries lie outside the band for every n >= 3.
    unit = st.floats(-1.0, 1.0)
    lower = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    upper = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    margin = np.array(data.draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n)))
    sign = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    rhs = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    diag = sign * (np.abs(lower) + np.abs(upper) + tight * margin)
    x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    if np.any(rhs):
        assert backward_error(lower, diag, upper, x, rhs) <= 8 * EPS
    if tight == 1.0:
        dense = dense_cyclic(lower, diag, upper)
        reference = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(x - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))
        assert np.max(np.abs(dense @ x - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("t", [0.03125, 1e-3, 1e-6])
def test_cyclic_solve_takes_no_shift_that_would_cancel(t):
    # A dominant A whose last diagonal entry, shifted by a Sherman-Morrison
    # correction with gamma = -diag[0], would cancel to about -2t: a band
    # made near singular by a shift that the bordered solve does not take.
    lower, upper = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0])
    diag = -np.array([1.0 + t, t, 1.0 + t])
    rhs = np.array([0.0, 0.0, 1.0])
    x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    assert backward_error(lower, diag, upper, x, rhs) <= 2 * EPS
    assert np.array_equal(x, cyclic_solve(lower, diag, upper, rhs))


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_newton_bands_solve_to_rounding_level(n):
    # The Newton systems of a cosine:0.1 run need no refinement: one solve
    # meets two roundings of backward error, for the level's own residual
    # and for a random right-hand side.
    s = cosine_trajectory(n_space=n, n_steps=6).section
    rng = np.random.default_rng(n)
    for j in range(1, s.grid.n_time - 1):
        a, b, c = (p[0] for p in section_parts(s, j, j + 1))
        lower, diag, upper = jacobian_bands(a, b, c, s.grid.h, s.grid.k)
        for rhs in (-del_residual_row(s, j), rng.standard_normal(n)):
            x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
            assert backward_error(lower, diag, upper, x, rhs) <= 2 * EPS


def long_row_bands(kind, n):
    """Newton bands of a cosine trajectory's row, or random dominant bands."""
    if kind == "dominant":
        return dominant_bands(np.random.default_rng(n), n)
    s = cosine_trajectory(n_space=n, n_steps=2).section
    a, b, c = (p[0] for p in section_parts(s, 2, 3))
    return jacobian_bands(a, b, c, s.grid.h, s.grid.k)


@pytest.mark.parametrize("kind", ["cosine", "dominant"])
@pytest.mark.parametrize("n", [255, 256, 300, 511, 512, 1000, 1024, 1031])
def test_long_row_solve_matches_dense(kind, n):
    # Even and odd lengths, and the prime 1031: the pivoted solve stays
    # within four times the scalar sweep's backward error.
    lower, diag, upper = long_row_bands(kind, n)
    dense = dense_cyclic(lower, diag, upper)
    for rhs in np.random.default_rng(n + 1).standard_normal((2, n)):
        x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
        reference = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))
        scalar = _solve_cyclic_scalar(lower, diag, upper, rhs[None])[0]
        # Backward errors below one rounding are noise: the ratio of two
        # of them has read 3.75 at 5e-18.
        floor = max(backward_error(lower, diag, upper, scalar, rhs), EPS)
        assert backward_error(lower, diag, upper, x, rhs) <= 4 * floor


@pytest.mark.parametrize("kind", ["cosine", "dominant"])
@pytest.mark.parametrize("n", [4096, 4099])
def test_twice_partitioned_solve_backward_error(kind, n):
    # The backward error of the longest rows is held, not their agreement
    # with the scalar sweep: at n = 4096 the cosine bands' conditioning
    # alone parts the two by about 1e-12.
    lower, diag, upper = long_row_bands(kind, n)
    for rhs in np.random.default_rng(n + 1).standard_normal((2, n)):
        x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
        scalar = _solve_cyclic_scalar(lower, diag, upper, rhs[None])[0]
        error = backward_error(lower, diag, upper, x, rhs)
        assert error <= 4 * max(backward_error(lower, diag, upper, scalar, rhs), EPS)
        assert error <= 8 * EPS


def on_both_paths(monkeypatch, solve):
    """What solve() returns, or the (type, message, row) of what it
    raises, on the LAPACK path and on the scalar sweep."""

    def outcome():
        try:
            return solve()
        except (SingularJacobian, ValueError) as exc:
            return type(exc), str(exc), getattr(exc, "row", None)

    lapack = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(del_solver, "_DGTSV", None)
        return lapack, outcome()


def normwise_backward_error(lower, diag, upper, x, rhs):
    """||A x - rhs|| / (||A|| ||x|| + ||rhs||) in the max norm."""
    ax = diag * x + lower * np.roll(x, 1) + upper * np.roll(x, -1)
    norm_a = np.max(np.abs(lower) + np.abs(diag) + np.abs(upper))
    return np.max(np.abs(ax - rhs)) / (norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs)))


@pytest.fixture(scope="module")
def evolve_jacobian():
    """The bands of the first Newton solve of a 4096-point evolve, whose
    diagonal dominates its row by a factor of only about 1 + 1e-6."""
    captured = []

    def capture(lower, diag, upper, rhs):
        captured.append((lower, diag, upper))
        return solve_cyclic_tridiagonal(lower, diag, upper, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(del_solver, "solve_cyclic_tridiagonal", capture)
        cosine_trajectory(n_space=4096, n_steps=1)
    return captured[0]


@pytest.mark.parametrize("n", [3, 5, 64, 255, 256, 1031, 4096])
def test_lapack_and_scalar_paths_agree(n, evolve_jacobian, monkeypatch):
    # The same systems on both paths: random dominant bands and a cosine
    # row's Newton bands of n points, and at 4096 points a Newton
    # Jacobian that evolve solved, for stacks of 1 to 3 right-hand sides:
    # each solution meets a normwise backward error of 4e-15 on both.
    rng = np.random.default_rng(n)
    systems = [dominant_bands(rng, n), long_row_bands("cosine", n)]
    systems += [evolve_jacobian] if n == 4096 else []
    for bands in systems:
        for m in (1, 2, 3):
            rhs = rng.standard_normal((m, n))
            for x in on_both_paths(monkeypatch, lambda: solve_cyclic_tridiagonal(*bands, rhs)):
                assert x.shape == (m, n)
                for xi, r in zip(x, rhs):
                    assert normwise_backward_error(*bands, xi, r) <= 4e-15


def singular_systems(n: int):
    """(name, bands) of cyclic systems of n points that neither path can
    solve: a zero diagonal entry of a diagonal matrix, a zero row, a NaN
    or an infinite diagonal entry, and an infinite corner entry."""
    for row in (0, 1, n // 2, n - 1):
        diag = np.ones(n)
        diag[row] = 0.0
        yield f"zero diagonal {row}", (np.zeros(n), diag, np.zeros(n))
        bands = np.ones(n), np.full(n, 4.0), np.ones(n)
        for band in bands:
            band[row] = 0.0
        yield f"zero row {row}", bands
        for bad in (np.nan, np.inf, -np.inf):
            lower, diag, upper = np.ones(n), np.full(n, 4.0), np.ones(n)
            diag[row] = bad
            yield f"diagonal {row} = {bad}", (lower, diag, upper)
    lower, upper = np.ones(n), np.ones(n)
    lower[0], upper[-1] = 0.0, np.inf
    yield "corner", (lower, np.full(n, 4.0), upper)


@pytest.mark.parametrize("n", [3, 5, 64, 256, 1031])
def test_lapack_and_scalar_paths_raise_the_same_errors(n, monkeypatch):
    # Zero pivots of singular systems, non-finite bands and bad shapes:
    # the same exception, message and row on both paths.
    cases = list(singular_systems(n))
    cases += [("short rhs", (np.ones(n), np.full(n, 4.0), np.ones(n), np.ones(n - 1)))]
    cases += [("short lower", (np.ones(n - 1), np.full(n, 4.0), np.ones(n), np.ones(n)))]
    for name, args in cases:
        args = args if len(args) == 4 else (*args, np.ones((2, n)))
        lapack, scalar = on_both_paths(monkeypatch, lambda: solve_cyclic_tridiagonal(*args))
        assert isinstance(lapack, tuple) and lapack == scalar, name


@settings(max_examples=25, deadline=None)
@given(
    n=st.one_of(st.integers(256, 1100), st.integers(4096, 4700)),
    tight=TIGHT,
    seed=st.integers(0, 2**32 - 1),
)
def test_long_row_solve_backward_error_on_dominant_bands(n, tight, seed):
    rng = np.random.default_rng(seed)
    lower, diag, upper = dominant_bands(rng, n, tight)
    rhs = rng.uniform(-10.0, 10.0, n)
    x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    scalar = _solve_cyclic_scalar(lower, diag, upper, rhs[None])[0]
    error = backward_error(lower, diag, upper, x, rhs)
    assert error <= 4 * max(backward_error(lower, diag, upper, scalar, rhs), EPS)
    assert error <= 8 * EPS
    if tight == 1.0:
        assert np.max(np.abs(x - scalar)) <= 1e-12 * np.max(np.abs(scalar))


def test_long_row_non_finite_multiplier_before_a_pad_row():
    # An infinite upper entry at row 70 sends the row to the scalar
    # sweep, which reports the pivot of row 71 that it spoils.
    n = 1031
    upper = np.ones(n)
    upper[70] = np.inf
    with np.errstate(all="raise"), pytest.raises(SingularJacobian, match="zero pivot at row 71$"):
        solve_cyclic_tridiagonal(np.ones(n), np.full(n, 4.0), upper, np.ones(n))
    with pytest.raises(SingularJacobian, match="zero pivot at row 71$"):
        _solve_cyclic_scalar(np.ones(n), np.full(n, 4.0), upper, np.ones((1, n)))


@pytest.mark.parametrize("n", [1000, 1031, 4096, 4099])
def test_long_row_non_finite_corner_is_named_as_one(n):
    # Either corner entry, upper[-1] against lower[0] = 0 or lower[0]
    # against upper[-1] = 0, is named as one, before any elimination.
    for corner in (0, -1):
        lower, upper = np.ones(n), np.ones(n)
        lower[0], upper[-1] = (np.inf, 0.0) if corner == 0 else (0.0, np.inf)
        with np.errstate(all="raise"), pytest.raises(SingularJacobian) as info:
            solve_cyclic_tridiagonal(lower, np.full(n, 4.0), upper, np.ones(n))
        assert str(info.value) == "non-finite corner entry"
        assert info.value.row is None


@pytest.mark.parametrize("n", [1000, 1031, 4099])
def test_long_row_zero_pivot_at_any_row(n):
    # A diagonal matrix with one zero entry: wherever it falls, dgtsv
    # fails (INFO > 0) and the scalar sweep reports it by its row.
    for row in range(40):
        diag = np.ones(n)
        diag[row] = 0.0
        with np.errstate(all="raise"), pytest.raises(SingularJacobian) as info:
            solve_cyclic_tridiagonal(np.zeros(n), diag, np.zeros(n), np.ones(n))
        assert str(info.value) == f"zero pivot at row {row}"
        assert info.value.row == row


def test_long_row_zero_pivot_after_first_segment_row(monkeypatch, scalar_sweep):
    # Row 1 has diagonal 2 and row 2 0.5, so that eliminating row 1 first
    # leaves row 2 the pivot 0.5 - 1 * (1 / 2) = 0 exactly.  The matrix is
    # well conditioned, and natural order, which eliminates row 0 first,
    # solves it to rounding level.
    calls = spy_on_the_scalar_sweep(monkeypatch)
    n = 1031
    lower, diag, upper = np.ones(n), np.full(n, 4.0), np.ones(n)
    diag[1] = 2.0
    diag[2] = 0.5
    rhs = np.ones(n)
    with np.errstate(all="raise"):
        x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    assert backward_error(lower, diag, upper, x, rhs) <= 8 * EPS
    assert len(calls) == 1


@pytest.mark.parametrize("n", [8, 600])
@pytest.mark.parametrize(
    "bad",
    ["short_rhs", "short_lower", "long_upper", "rhs_2d", "rhs_3d", "rhs_empty", "diag_2d"],
)
def test_cyclic_tridiagonal_rejects_mismatched_bands(n, bad):
    # Short and long rows check the shapes before any elimination.  An
    # rhs is one row (n,) or a stack (m, n) of m >= 1 rows.
    bands = {"lower": np.ones(n), "diag": np.full(n, 4.0), "upper": np.ones(n), "rhs": np.ones(n)}
    name, value = {
        "short_rhs": ("rhs", np.ones(5)),
        "short_lower": ("lower", np.ones(n - 2)),
        "long_upper": ("upper", np.ones(n + 4)),
        "rhs_2d": ("rhs", np.ones((2, n - 1))),
        "rhs_3d": ("rhs", np.ones((2, 1, n))),
        "rhs_empty": ("rhs", np.ones((0, n))),
        "diag_2d": ("diag", np.full((1, n), 4.0)),
    }[bad]
    bands[name] = value
    with pytest.raises(ValueError, match="1-D of one length; got shapes"):
        solve_cyclic_tridiagonal(**bands)


def test_wave_breaking_reported():
    g = GridSpec.from_circle(32, 2, TWO_PI, 0.25)
    res = evolve(initialize(cosine_u0(3.0, TWO_PI), g), 100)
    assert not res.ok
    assert res.failure.error == "NonMonotone"
    # The first Newton update that folds the row names the point and the
    # bound at once, without shortening the step.
    assert res.failure.message.startswith("wave breaking: the Newton update")
    assert f"<= {DELTA_MIN_FACTOR * g.h:g})" in res.failure.message
    assert res.section.grid.n_time < 102  # partial trajectory returned
    assert len(res.steps) == res.section.grid.n_time - 2


def test_corner_scheme_breaks_a_global_solution():
    """A property of the corner scheme, not of the equation: for
    u0 = 0.5 + 0.2 cos x, m0 = u0 - u0'' = 0.5 + 0.4 cos x >= 0.1, so the
    exact solution exists for all time (McKean; Constantin-Escher), yet
    the lattice's Q = m(eta) eta_x^2, which the equation keeps at m0 along
    each particle, drifts until a row folds as if the wave broke (at
    step 3507, t = 344, here).  The data is the CLI's cosine:0.2,0.5."""
    g = GridSpec.from_circle(32, 2, TWO_PI, 0.5)
    res = evolve(initialize(parse_initial_condition("cosine:0.2,0.5", TWO_PI), g), 4000)
    assert not res.ok
    assert res.failure.error == "NonMonotone"
    assert res.failure.step < 4000


def test_advance_row_rejects_a_non_monotone_current_row():
    g = GridSpec.from_circle(16, 2, TWO_PI, 0.25)
    s = initialize(cosine_u0(0.1, TWO_PI), g)
    y0 = s.row_y(1)
    y0[[5, 6]] = y0[[6, 5]]
    with pytest.raises(NonMonotone, match=r"current row y0 is not strictly monotone at i=5 "):
        advance_row(s.row_y(0), y0, g, SolverConfig())


def test_advance_row_names_the_current_row_when_both_rows_fold():
    # y0 is checked before ym1, so a step whose two rows both fold names y0.
    g = GridSpec.from_circle(16, 2, TWO_PI, 0.25)
    s = initialize(cosine_u0(0.1, TWO_PI), g)
    ym1, y0 = s.row_y(0), s.row_y(1)
    ym1[[4, 5]] = ym1[[5, 4]]
    y0[[9, 10]] = y0[[10, 9]]
    with pytest.raises(NonMonotone, match=r"^the current row y0 is not strictly monotone at i=9 "):
        advance_row(ym1, y0, g, SolverConfig())


def test_advance_row_names_a_non_monotone_previous_row():
    g = GridSpec.from_circle(16, 2, TWO_PI, 0.25)
    s = initialize(cosine_u0(0.1, TWO_PI), g)
    ym1 = s.row_y(0)
    ym1[[4, 5]] = ym1[[5, 4]]
    message = (
        r"^the previous row ym1 is not strictly monotone at i=4 "
        rf"\(increment -0.392699 <= {DELTA_MIN_FACTOR * g.h:g}\)$"
    )
    with pytest.raises(NonMonotone, match=message):
        advance_row(ym1, s.row_y(1), g, SolverConfig())


# A bad label at point `pos` of a 1-D row of 16 points, and the point and
# increment the monotonicity rule names: a NaN spoils the increments on
# both sides of it and the first is named, +inf leaves -inf after it.
BAD_LABELS = [
    (np.nan, 0, 0, "nan"),
    (np.nan, 6, 5, "nan"),
    (np.nan, 15, 14, "nan"),
    (np.inf, 0, 0, "-inf"),
    (np.inf, 6, 6, "-inf"),
    (np.inf, 15, 15, "-inf"),
]


@pytest.mark.parametrize("bad, pos, at, inc", BAD_LABELS)
def test_non_finite_labels_fail_the_rule_at_the_same_point(bad, pos, at, inc, monkeypatch):
    # The rule is one comparison with the row's smallest increment, which
    # a NaN propagates to; the message names the point np.argmin finds.
    g = GridSpec.from_circle(16, 2, TWO_PI, 0.25)
    s = evolve(initialize(cosine_u0(0.1, TWO_PI), g), 1).section
    tail = rf"is not strictly monotone at i={at} \(increment {inc} <= {DELTA_MIN_FACTOR * g.h:g}\)$"
    y0 = s.row_y(2)
    y0[pos] = bad
    with pytest.raises(NonMonotone, match="^the current row y0 " + tail):
        advance_row(s.row_y(1), y0, s.grid, SolverConfig())
    # The same label in the first Newton update of the next row.
    real = del_solver.solve_cyclic_tridiagonal

    def spoiled(*args):
        update = real(*args)
        update[pos] = bad
        return update

    monkeypatch.setattr(del_solver, "solve_cyclic_tridiagonal", spoiled)
    with pytest.raises(NonMonotone, match="^wave breaking: the Newton update of the next row " + tail):
        advance_row(s.row_y(1), s.row_y(2), s.grid, SolverConfig())


@pytest.mark.parametrize("at", [0, 2000, 4095])
def test_non_finite_increments_fail_the_stacked_rule_at_the_same_row_and_point(at):
    # Stacked rows take the same single comparison: the Section check
    # names the row, counted from row 0 past its first block, and the
    # point.  A Section's labels are finite, so its -inf comes from an
    # overflowing difference; the rule's stacked helper takes a NaN too.
    g = GridSpec.from_circle(4096, 30, TWO_PI, 0.25)
    bound = f"<= {DELTA_MIN_FACTOR * g.h:g}\\)$"
    d = np.zeros((30, 4096))
    d[20, at], d[20, (at + 1) % 4096] = 1e308, -1e308
    with np.errstate(over="ignore"), pytest.raises(
        NonMonotone, match=rf"^row 20 is not strictly monotone at i={at} \(increment -inf " + bound
    ):
        Section(g, d)
    rows = Section.identity(g).rows_y()[16:24]
    rows[4, at] = np.nan
    with pytest.raises(
        NonMonotone, match=rf"^row 20 is not strictly monotone at i={max(at - 1, 0)} \(increment nan " + bound
    ):
        _increments(rows, g, "row", 16)


def test_the_rule_fails_an_increment_at_the_bound_and_passes_infinity():
    h = 0.5
    bound = DELTA_MIN_FACTOR * h
    for shape in ((5,), (3, 5)):
        inc = np.ones(shape)
        inc[..., 2] = np.inf
        assert _require_increments(inc, h, "row") is inc
        inc.reshape(-1, 5)[-1, 3] = bound  # point 3 of the last row
        name = "row 2" if len(shape) == 2 else "row"
        with pytest.raises(NonMonotone, match=rf"^{name} is not strictly monotone at i=3 \(increment 5e-09 <= 5e-09\)$"):
            _require_increments(inc, h, "row")


def test_advance_row_raises_when_newton_runs_out_of_iterations():
    # The first step of `chms run --ic cosine:0.5 --n-space 64 --max-iters 1`.
    g = GridSpec.from_circle(64, 2, TWO_PI, 0.25)
    s = initialize(cosine_u0(0.5, TWO_PI), g)
    message = r"^residual 1.99878e-06 above tolerance 8.31243e-10 after 1 Newton iterations$"
    with pytest.raises(MaxItersExceeded, match=message):
        advance_row(s.row_y(0), s.row_y(1), g, SolverConfig(max_iters=1))


@pytest.mark.parametrize("tol", [1e-12, 1e-17])
@pytest.mark.parametrize("n", [16, 64, 257, 512, 1031])
def test_advance_row_matches_the_four_term_newton_step_bitwise(n, tol):
    # advance_row forms only the vertex terms a level reads: 3 and 4 of
    # the bottom rectangles once per step, 1 and 2 of the top ones once
    # per iteration.  Its row and StepStats equal those of the step that
    # forms all four of both rows (oracles.newton_step), bit for bit:
    # from the two-row and the three-row start, every step at the
    # tolerance (1e-12) or every step at the floating-point floor (1e-17,
    # below the floor of each row here), and from a rough current row
    # that takes several updates.
    s = cosine_trajectory(n_space=n, n_steps=3, amp=0.3).section
    g, cfg = s.grid, SolverConfig(tol_residual=tol)
    rows = s.rows_y()
    rough = rows[3] + 0.05 * g.h * np.random.default_rng(n).uniform(-1.0, 1.0, n)
    stats = []
    for y0 in (rows[3], rough):
        for prev in (rows[2], rows[1:3]):
            got_row, got = advance_row(prev, y0, g, cfg)
            want_row, want = newton_step(prev, y0, g, cfg)
            assert np.array_equal(got_row, want_row)
            assert got == want
            stats.append(got)
    assert {st.stop_reason for st in stats} == {"fp_floor" if tol == 1e-17 else "tolerance"}
    assert max(st.iterations for st in stats) >= 2


def test_evolve_takes_one_newton_update_per_step():
    # Newton iterates on the row increment: one update meets the
    # tolerance, where an iterate on labels stalled at the rounding of
    # its updates and spent a second solve to detect it.
    g = GridSpec.from_circle(256, 2, TWO_PI, 0.25)
    res = evolve(initialize(cosine_u0(0.1, TWO_PI), g), 20)
    assert res.ok
    assert [(st.iterations, st.stop_reason) for st in res.steps] == [(1, "tolerance")] * 20


def test_advance_row_checks_the_current_row_and_each_update_once(monkeypatch):
    # Neither start, the linear guess 2*y0 - ym1 nor the quadratic one
    # from ym2 too, is checked: an accepted step with k Newton updates
    # applies the one monotonicity rule to y0, then to ym1 (in the bottom
    # rectangles' parts), then once to each update.  The calls are
    # counted by the name each passes, wherever the rule is reached from.
    calls = []
    real = lagrangian._require_increments

    def counting(inc, h, what, *rest):
        calls.append(what)
        return real(inc, h, what, *rest)

    monkeypatch.setattr(del_solver, "_require_increments", counting)
    monkeypatch.setattr(lagrangian, "_require_increments", counting)
    for n_space, amp in ((16, 0.1), (64, 0.5)):
        g = GridSpec.from_circle(n_space, 2, TWO_PI, 0.25)
        s = evolve(initialize(cosine_u0(amp, TWO_PI), g), 1).section
        for prev, y0 in ((s.row_y(0), s.row_y(1)), (s.rows_y()[:2], s.row_y(2))):
            calls.clear()
            _, stats = advance_row(prev, y0, s.grid, SolverConfig())
            assert stats.iterations >= 1
            assert calls == ["the current row y0", "the previous row ym1"] + [
                "wave breaking: the Newton update of the next row"
            ] * stats.iterations


def test_evolve_starts_newton_from_the_last_three_rows():
    # The README run example.  Step 1 has only the two initial rows, and
    # Newton's linear start (off by O(k^2)) takes two updates; every
    # later step starts from the quadratic extrapolation of the section's
    # last three rows (off by O(k^3)) and takes one.
    cfg = RunConfig(n_space=64, n_steps=100, ic="cosine:0.1")
    res = evolve(initialize(cfg.u0(), cfg.grid()), cfg.n_steps, cfg.solver())
    assert res.ok
    assert [st.iterations for st in res.steps] == [2] + [1] * 99
    assert {st.stop_reason for st in res.steps} == {"tolerance"}


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


def test_the_scheme_converges_to_the_periodic_peakon_at_first_order():
    # The periodic peakon of speed c = 0.5 from initialize's first-order
    # kick, at cfl 0.25, to the level nearest t = 1: the max label error
    # against the exact labels halves with h (2.61e-3, 1.29e-3 and 6.54e-4
    # at n = 64, 128 and 256).  From n = 32 the first order reads 0.89.
    c, errors = 0.5, []
    for n in (64, 128, 256):
        g = GridSpec.from_circle(n, 2, TWO_PI, 0.25)
        j = round(1.0 / g.k)
        res = evolve(initialize(peakon(c), g), j - 1)
        assert res.ok, res.failure
        s = res.section
        errors.append(np.abs(s.row_y(j) - peakon_labels(s.xs(), j * g.k, c)).max())
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 0.9), (errors, orders)


def test_the_scheme_converges_to_overtaking_peakons_at_first_order():
    # Two peakons, p = (2, 0.5) at q = (pi/4, 3pi/4) (lattice points when
    # 8 divides n), the faster one behind, to the level nearest t = 2,
    # through their overtaking collision: the max label error against the
    # exact labels of multipeakon_labels halves with h (4.86e-2, 2.52e-2
    # and 1.27e-2 at n = 64, 128 and 256; orders 0.95 and 0.99).
    p, q, errors = (2.0, 0.5), (np.pi / 4, 3 * np.pi / 4), []
    for n in (64, 128, 256):
        g = GridSpec.from_circle(n, 2, TWO_PI, 0.25)
        j = round(2.0 / g.k)
        res = evolve(initialize(multipeakon(p, q), g), j - 1)
        assert res.ok, res.failure
        s = res.section
        errors.append(np.abs(s.row_y(j) - multipeakon_labels(s.xs(), j * g.k, p, q)).max())
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 0.9), (errors, orders)


def test_peakon_antipeakon_breaks_before_the_exact_collision_time():
    # The pair p = (1, -1) at pi -+ pi/8 (lattice points when 16 divides
    # n) collides at T* = collision_time(pi/8) = 2.5666.  The scheme must
    # break between the initial peaks, before T*, and the gap T* - t_abort
    # must shrink at first order (0.161, 0.088, 0.051 and 0.026 at
    # n = 64 ... 512; ratios 1.84, 1.72 and 1.93).
    # The quadrature meets RK4 on the reduced system, 2.73505 at s0 = 0.5.
    assert abs(collision_time(0.5) - 2.73505) < 1e-4
    s0 = np.pi / 8
    t_star = collision_time(s0)

    def u0(x):
        return green(x - (np.pi - s0)) - green(x - (np.pi + s0))

    gaps = []
    for n in (64, 128, 256, 512):
        g = GridSpec.from_circle(n, 2, TWO_PI, 0.25)
        res = evolve(initialize(u0, g), int(t_star / g.k) + 1)
        assert not res.ok and res.failure.error == "NonMonotone", res.failure
        at = int(re.search(r"at i=(\d+) ", res.failure.message).group(1))
        assert 7 * n // 16 < at < 9 * n // 16
        gaps.append(t_star - (res.section.grid.n_time - 1) * g.k)
    assert gaps[-1] > 0.0
    assert all(a >= 1.6 * b for a, b in zip(gaps, gaps[1:])), gaps


def test_evolve_continuation_matches_single_run():
    g = GridSpec.from_circle(16, 2, TWO_PI, 0.25)
    s0 = initialize(cosine_u0(0.1, TWO_PI), g)
    whole = evolve(s0, 12).section
    first = evolve(s0, 5).section
    resumed = evolve(first, 7).section
    assert resumed.grid.n_time == whole.grid.n_time
    # The Newton start is read from the section's last rows, so resuming
    # changes no bit.
    assert np.array_equal(resumed.displacement, whole.displacement)


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
    for bad in (np.nan, np.inf, -np.inf):
        d = np.zeros((2, 8))
        d[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            Section(g, d)
    with pytest.raises(ValueError, match=r"displacement shape \(2, 9\) does not match grid \(2, 8\)"):
        Section(g, np.zeros((2, 9)))


def test_section_names_a_folded_row_past_the_first_block():
    # The check runs over blocks of rows; the row it names is counted
    # from row 0 of the section, not from the start of its block.
    g = GridSpec.from_circle(4096, 30, TWO_PI, 0.25)
    assert del_solver._row_blocks(30, 4096)[0][1] <= 20 < 30
    d = np.zeros((30, 4096))
    d[20, 100] = -2.0 * g.h  # y[20, 100] = 98 h, below y[20, 99] = 99 h
    with pytest.raises(NonMonotone, match=r"^row 20 is not strictly monotone at i=99 "):
        Section(g, d)


def test_section_check_holds_no_temporary_of_the_section_size(rng):
    # The Section keeps one copy of the displacement; its checks add
    # only a block of rows at a time.
    g = GridSpec.from_circle(4096, 201, TWO_PI, 0.25)
    d = 0.15 * g.h * rng.uniform(-1.0, 1.0, size=(201, 4096))
    assert traced_peak(Section, g, d) < 1.5 * d.nbytes


def test_evolve_hands_its_row_buffer_to_the_section():
    # The trajectory is held once: the Section keeps evolve's row buffer
    # instead of a copy of it.
    g = GridSpec.from_circle(4096, 2, TWO_PI, 0.25)
    s0 = initialize(cosine_u0(0.1, TWO_PI), g)
    res = []
    peak = traced_peak(lambda: res.append(evolve(s0, 200)))
    assert res[0].ok
    assert peak < 1.5 * res[0].section.displacement.nbytes


def test_section_copies_a_displacement_the_caller_can_write():
    g = o1_grid(n_space=8, n_time=2)
    d = np.zeros((2, 8))
    view = d[:]
    view.flags.writeable = False  # read-only, but d still writes it
    for arr in (d, view):
        s = Section(g, arr)
        assert not np.shares_memory(s.displacement, d)
    d[1, 3] = 0.1
    assert s.displacement[1, 3] == 0.0
    frozen = np.zeros((2, 8))
    frozen.flags.writeable = False
    assert Section(g, frozen).displacement is frozen


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)

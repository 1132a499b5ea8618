import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import EPS, TWO_PI, constant_tangent, cosine_trajectory, cosine_u0, random_stencil
from oracles import (
    first_variation_residual,
    first_variation_residual_row,
    mff_terms,
    noether_terms,
    rect_grad,
    rect_omega,
    row_action,
    row_momentum,
    uniform_translation,
)

from chms import del_solver, geometry_checks
from chms.del_solver import Section, _level_equation, evolve, initialize
from chms.errors import NotOnShell
from chms.geometry_checks import (
    SymmetryGenerator,
    TangentSection,
    level_series,
    mff_boundary_terms,
    noether_boundary_terms,
    solve_first_variation,
    total_momentum_scale,
)
from chms.grid import GridSpec, classify_region


@pytest.fixture(scope="module")
def short_cosine():
    return cosine_trajectory(n_space=16, n_steps=5, amp=0.1).section


def theta(y, v):
    """Boundary one-forms dL/dy_l * v_l of a unit rectangle, l = 1..4."""
    return rect_grad(y, 1.0, 1.0) * v


def test_theta_examples():
    y = (0, 0.5, 1.0, 0.3)
    assert theta(y, np.zeros(4))[1] == 0.0
    assert theta(y, np.array([0.0, 0.0, 0.0, 1.0]))[3] == pytest.approx(-0.25, abs=1e-15)
    assert abs(np.sum(theta(y, np.ones(4)))) <= 1e-14


def test_omega_antisymmetry_exact(rng):
    for _ in range(100):
        y = random_stencil(rng)
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)
        assert np.array_equal(rect_omega(y, 1.0, 1.0, v, w), -rect_omega(y, 1.0, 1.0, w, v))
        assert np.all(rect_omega(y, 1.0, 1.0, v, v) == 0.0)


def test_omega_closure_identity(rng):
    for _ in range(300):
        y = random_stencil(rng)
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)
        terms = rect_omega(y, 1.0, 1.0, v, w)
        assert abs(np.sum(terms)) <= 1e-12 * max(np.sum(np.abs(terms)), 1e-300)


def test_omega_matches_directional_derivative(rng):
    """omega equals the antisymmetrized directional derivative of theta."""
    step = EPS ** (1.0 / 3.0)
    for _ in range(50):
        y = random_stencil(rng)
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)
        d_v = (theta(y + step * v, w) - theta(y - step * v, w)) / (2 * step)
        d_w = (theta(y + step * w, v) - theta(y - step * w, v)) / (2 * step)
        val = rect_omega(y, 1.0, 1.0, v, w)
        assert np.all(np.abs((d_v - d_w) - val) <= 1e-6 * np.maximum(1.0, np.abs(val)))


def test_momentum_map_examples(rng):
    """Momentum maps for fiber translation: xi * dL/dy_l."""
    assert 2.0 * rect_grad((0, 0.5, 1.0, 0.3), 1.0, 1.0)[3] == pytest.approx(-0.5, abs=1e-15)
    for _ in range(200):
        y = random_stencil(rng)
        terms = rng.uniform(-3.0, 3.0) * rect_grad(y, 1.0, 1.0)
        assert abs(np.sum(terms)) <= 1e-12 * max(np.sum(np.abs(terms)), 1e-300)


def test_constant_tangents_solve_linearized_equations(short_cosine):
    s = short_cosine
    const = constant_tangent(s.grid, 1.7)
    for j in range(1, s.grid.n_time - 1):
        row = first_variation_residual_row(s, const, j)
        assert np.max(np.abs(row)) <= 1e-10
    assert abs(first_variation_residual(s, const, (3, 2))) <= 1e-10


def test_first_variation_row_matches_pointwise(short_cosine, rng):
    s = short_cosine
    t = TangentSection(s.grid, rng.standard_normal((s.grid.n_time, s.grid.n_space)))
    for j in (1, 3):
        row = first_variation_residual_row(s, t, j)
        for i in range(s.grid.n_space):
            assert row[i] == pytest.approx(
                first_variation_residual(s, t, (i, j)), rel=1e-10, abs=1e-9
            )


def test_solve_first_variation_propagates_constants(short_cosine):
    s = short_cosine
    v = solve_first_variation(s, np.full((2, s.grid.n_space), 0.8))
    assert np.max(np.abs(v.values - 0.8)) <= 1e-10


def test_solve_first_variation_rejects_off_shell(short_cosine, rng):
    bad = Section(
        short_cosine.grid,
        short_cosine.displacement
        + 0.05 * short_cosine.grid.h * rng.standard_normal(short_cosine.displacement.shape),
    )
    with pytest.raises(NotOnShell):
        solve_first_variation(bad, np.zeros((2, short_cosine.grid.n_space)))


def test_off_shell_gate_names_first_bad_level():
    s = cosine_trajectory(n_space=16, n_steps=10, amp=0.1).section
    d = s.displacement.copy()
    d[6] += 0.05 * s.grid.h * np.cos(np.arange(16))
    # Row 6 enters the equations at levels 5, 6 and 7; the gate reports
    # the first of them.
    with pytest.raises(NotOnShell, match="at level 5 "):
        solve_first_variation(Section(s.grid, d), np.ones((2, 16)))


def test_tangent_march_builds_each_rectangle_row_once(short_cosine, monkeypatch, rng):
    calls = {"stencil_parts": 0, "jacobian_bands": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(del_solver, "stencil_parts")
    counting(geometry_checks, "jacobian_bands")
    n_space, n_time = short_cosine.grid.n_space, short_cosine.grid.n_time
    for v0 in (np.ones((2, n_space)), rng.standard_normal((2, 2, n_space))):
        calls.update(stencil_parts=0, jacobian_bands=0)
        solve_first_variation(short_cosine, v0)
        assert calls == {"stencil_parts": n_time - 1, "jacobian_bands": n_time - 2}


def test_stacked_march_matches_each_tangent_alone(rng):
    s = cosine_trajectory(n_space=32, n_steps=20, amp=0.1).section
    v0 = rng.standard_normal((3, 2, 32))
    stacked = solve_first_variation(s, v0)
    assert isinstance(stacked, tuple) and len(stacked) == 3
    for t, alone in zip(stacked, (solve_first_variation(s, v) for v in v0)):
        assert isinstance(alone, TangentSection)
        assert np.array_equal(t.values, alone.values)
    with pytest.raises(ValueError):
        solve_first_variation(s, np.zeros((3, 32)))


def test_level_equation_of_stacked_rows_matches_each_row(rng):
    top, bot = rng.standard_normal((2, 4, 3, 17))
    res, scale = _level_equation(top, bot)
    assert res.shape == (3, 17) and scale.shape == (3,)
    for m in range(3):
        res_m, scale_m = _level_equation(top[:, m], bot[:, m])
        assert np.array_equal(res[m], res_m) and scale[m] == scale_m


def test_time_translation_quotient_is_near_tangent():
    """The forward-difference quotient of a solution approximates a
    tangent solution to first order in the row increment (it is not one
    exactly: the linearization is evaluated at the base solution)."""
    s = cosine_trajectory(n_space=32, n_steps=20, amp=0.1).section
    d = s.displacement
    v0 = np.stack([d[1] - d[0], d[2] - d[1]])
    v = solve_first_variation(s, v0)
    quotient = d[1:] - d[:-1]
    err = np.max(np.abs(v.values[:-1] - quotient)) / np.max(np.abs(quotient))
    assert err <= 1e-4


def test_tangent_linear_matches_nonlinear_difference():
    n, steps, eps = 16, 10, 1e-6
    g = GridSpec.from_circle(n, 2, TWO_PI, 0.25)
    s0 = initialize(cosine_u0(0.1, TWO_PI), g)
    rng = np.random.default_rng(5)
    v0 = rng.standard_normal((2, n))
    base = evolve(s0, steps).section
    plus = evolve(Section(s0.grid, s0.displacement + eps * v0), steps).section
    minus = evolve(Section(s0.grid, s0.displacement - eps * v0), steps).section
    quotient = (plus.displacement - minus.displacement) / (2 * eps)
    v = solve_first_variation(base, v0)
    assert np.max(np.abs(v.values - quotient)) <= 1e-4 * np.max(np.abs(quotient))


def test_mff_exact_zero_cases(short_cosine, rng):
    s = short_cosine
    region = classify_region(0, s.grid.n_time - 1, s.grid)
    t = TangentSection(s.grid, rng.standard_normal((s.grid.n_time, s.grid.n_space)))
    assert mff_boundary_terms(s, t, t, region).sum() == 0.0
    c1 = constant_tangent(s.grid, 1.0)
    c2 = constant_tangent(s.grid, -2.5)
    assert mff_boundary_terms(s, c1, c2, region).sum() == 0.0


def test_mff_vanishes_on_shell(rng):
    s = cosine_trajectory(n_space=16, n_steps=4, amp=0.1).section
    region = classify_region(0, s.grid.n_time - 1, s.grid)
    v = constant_tangent(s.grid, 1.0)
    w = solve_first_variation(s, rng.standard_normal((2, 16)))
    terms = mff_boundary_terms(s, v, w, region)
    assert abs(terms.sum()) <= 1e-9 * np.abs(terms).sum()
    w2 = solve_first_variation(s, rng.standard_normal((2, 16)))
    terms2 = mff_boundary_terms(s, w2, w, region)
    assert abs(terms2.sum()) <= 1e-9 * np.abs(terms2).sum()


def test_mff_nonzero_off_shell(rng):
    s = cosine_trajectory(n_space=16, n_steps=4, amp=0.1).section
    region = classify_region(0, s.grid.n_time - 1, s.grid)
    v = solve_first_variation(s, rng.standard_normal((2, 16)))
    w = solve_first_variation(s, rng.standard_normal((2, 16)))
    on_shell = abs(mff_boundary_terms(s, v, w, region).sum())
    perturbed = Section(
        s.grid, s.displacement + 0.03 * s.grid.h * rng.standard_normal(s.displacement.shape)
    )
    off_shell = abs(mff_boundary_terms(perturbed, v, w, region).sum())
    assert off_shell >= 1e3 * max(on_shell, 1e-300)


def test_noether_examples(short_cosine):
    g = GridSpec(12, 6, 1.0, 0.5, 12.0)
    region = classify_region(0, 5, g)
    rest = Section.identity(g)
    assert noether_boundary_terms(rest, SymmetryGenerator(2.0), region).sum() == 0.0
    window = classify_region(0, 5, short_cosine.grid)
    assert noether_boundary_terms(short_cosine, SymmetryGenerator(0.0), window).sum() == 0.0
    xi = SymmetryGenerator(1.0)
    terms = noether_boundary_terms(
        short_cosine, xi, classify_region(0, short_cosine.grid.n_time - 1, short_cosine.grid)
    )
    assert abs(terms.sum()) <= 1e-9 * np.abs(terms).sum()


def test_noether_nonzero_off_shell(short_cosine, rng):
    s = short_cosine
    region = classify_region(0, s.grid.n_time - 1, s.grid)
    perturbed = Section(
        s.grid, s.displacement + 0.03 * s.grid.h * rng.standard_normal(s.displacement.shape)
    )
    terms = noether_boundary_terms(perturbed, SymmetryGenerator(1.0), region)
    assert abs(terms.sum()) > 1e-6 * np.abs(terms).sum()


@settings(max_examples=60, deadline=None)
@given(
    n_space=st.integers(3, 32),
    n_time=st.integers(2, 8),
    cfl=st.floats(0.1, 2.0),
    amp=st.floats(0.0, 0.45),
    xi=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_row_boundary_sums_match_scalar_oracle(n_space, n_time, cfl, amp, xi, seed, data):
    """Row-kernel boundary sums equal the point-by-point Stencil sums on
    random monotone sections and random windows."""
    g = GridSpec.from_circle(n_space, n_time, TWO_PI, cfl)
    rng = np.random.default_rng(seed)
    s = Section(g, amp * g.h * rng.uniform(-1.0, 1.0, size=(n_time, n_space)))
    v = TangentSection(g, rng.standard_normal((n_time, n_space)))
    w = TangentSection(g, rng.standard_normal((n_time, n_space)))
    j_lo = data.draw(st.integers(0, n_time - 2))
    region = classify_region(j_lo, data.draw(st.integers(j_lo + 1, n_time - 1)), g)
    gen = SymmetryGenerator(xi)
    for new, old in (
        (noether_boundary_terms(s, gen, region), noether_terms(s, gen, region)),
        (mff_boundary_terms(s, v, w, region), mff_terms(s, v, w, region)),
    ):
        assert new.size == old.size == 4 * n_space
        scale = np.sum(np.abs(old))
        assert abs(np.sum(new) - np.sum(old)) <= 1e-12 * scale
        assert abs(np.sum(np.abs(new)) - scale) <= 1e-12 * scale


def test_total_momentum_uniform_value_and_conservation():
    g = GridSpec(16, 8, 1.0, 1.0, 16.0)
    c = 0.3
    s = uniform_translation(g, c)
    values, _ = level_series(s)
    # each rectangle contributes dL/dy3 + dL/dy4 = a*b/k = c
    assert values[0] == pytest.approx(16 * c, rel=1e-13)
    assert max(abs(v - values[0]) for v in values) <= 1e-13
    assert total_momentum_scale(s, 0) >= abs(values[0])


def test_total_momentum_telescopes_noether(short_cosine):
    """The boundary momentum sum over [j_lo, j_hi] equals the difference
    of the per-level momenta at the window's rectangle rows."""
    s = short_cosine
    xi = SymmetryGenerator(1.0)
    momenta, _ = level_series(s)
    for j_lo, j_hi in [(0, 3), (1, 5), (2, 6)]:
        region = classify_region(j_lo, j_hi, s.grid)
        sum_ = noether_boundary_terms(s, xi, region).sum()
        tele = momenta[j_hi - 1] - momenta[j_lo]
        assert sum_ == pytest.approx(tele, rel=1e-9, abs=1e-12)


def test_level_series_matches_row_oracle(short_cosine):
    s = uniform_translation(GridSpec(16, 8, 1.0, 0.5, 16.0), 0.3)
    for sec in (s, short_cosine):
        momenta, actions = level_series(sec)
        rows = range(sec.grid.n_time - 1)
        assert momenta == [row_momentum(sec, j) for j in rows]
        assert actions == [row_action(sec, j) for j in rows]


def test_total_momentum_drift_small(short_cosine):
    s = short_cosine
    values, _ = level_series(s)
    drift = max(abs(v - values[0]) for v in values)
    assert drift <= 1e-9 * max(abs(values[0]), total_momentum_scale(s, 0))

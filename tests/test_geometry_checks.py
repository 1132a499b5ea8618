import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    EPS,
    TWO_PI,
    constant_tangent,
    cosine_trajectory,
    cosine_u0,
    random_section,
    random_stencil,
    traced_peak,
)
import oracles
from oracles import (
    first_variation_march,
    first_variation_residual,
    first_variation_residual_row,
    hess_full_from_parts,
    mff_terms,
    noether_terms,
    omega_from_hess,
    rect_grad,
    rect_omega,
    row_action,
    row_momentum,
    uniform_translation,
)

from chms import del_solver, geometry_checks
from chms.del_solver import (
    Section,
    SolverConfig,
    _level_equation,
    _row_blocks,
    evolve,
    initialize,
    section_parts,
)
from chms.errors import EmptyRegion, NotOnShell, OutOfRange, SingularJacobian
from chms.geometry_checks import (
    SymmetryGenerator,
    _linear_terms,
    _tangent_rects,
    level_series,
    mff_boundary_terms,
    noether_boundary_terms,
    solve_first_variation,
    total_momentum_scale,
    two_forms,
)
from chms.grid import GridSpec, classify_region


@lru_cache(maxsize=None)
def cosine_section(n_space: int, n_steps: int) -> Section:
    return cosine_trajectory(n_space=n_space, n_steps=n_steps, amp=0.1).section


@pytest.fixture(scope="module")
def short_cosine():
    return cosine_section(16, 5)


#: (n_space, n_steps, tol_residual) of the march's sections: the smallest
#: circle, a short row, 257 points over three blocks of levels (the block
#: seams are crossed), and 512 points under a tolerance whose on-shell
#: gate accepts that section.
MARCH_CASES = [(3, 10, 1e-12), (16, 40, 1e-12), (257, 300, 1e-12), (512, 12, 1e-10)]


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
    t = rng.standard_normal((s.grid.n_time, s.grid.n_space))
    for j in (1, 3):
        row = first_variation_residual_row(s, t, j)
        for i in range(s.grid.n_space):
            assert row[i] == pytest.approx(
                first_variation_residual(s, t, (i, j)), rel=1e-10, abs=1e-9
            )


def test_solve_first_variation_propagates_constants(short_cosine):
    s = short_cosine
    v = solve_first_variation(s, np.full((2, s.grid.n_space), 0.8))
    assert np.max(np.abs(v - 0.8)) <= 1e-10


@pytest.mark.parametrize("n_space", [64, 256])
def test_constant_tangents_pass_the_solve_residual_check(n_space):
    # A constant tangent's linear terms vanish, so its solve's rounding is
    # bounded by the size of the solve (the bands' row sums times the
    # solution), in the march and in its oracle.
    s = cosine_section(n_space, 20)
    v0 = np.full((2, n_space), 0.8)
    v = solve_first_variation(s, v0)
    assert np.max(np.abs(v - 0.8)) <= 1e-11
    assert np.array_equal(v, first_variation_march(s, v0))


def _scale_level_solve(monkeypatch, level: int, factor: float):
    """Multiply the tangent solve of `level` by factor, in every march.
    Each block of levels solves its levels in order, one call each."""
    real_block, real_solve = geometry_checks._march_block, geometry_checks._solve_bordered
    next_level = []

    def march_block(phi, vals, j_lo, j_hi, tol):
        next_level[:] = [j_lo]
        return real_block(phi, vals, j_lo, j_hi, tol)

    def solve(*args):
        next_level[0] += 1
        return real_solve(*args) * (factor if next_level[0] - 1 == level else 1.0)

    monkeypatch.setattr(geometry_checks, "_march_block", march_block)
    monkeypatch.setattr(geometry_checks, "_solve_bordered", solve)


@pytest.mark.parametrize("n_space, constant", [(16, True), (64, True), (64, False), (256, False)])
def test_a_perturbed_tangent_solve_fails_the_residual_check(monkeypatch, n_space, constant, rng):
    # Every solve scaled by 1 + 1e-9 is caught by the residual check.
    real_bordered, real_solve = geometry_checks._solve_bordered, oracles.solve_cyclic_tridiagonal
    monkeypatch.setattr(geometry_checks, "_solve_bordered", lambda *args: real_bordered(*args) * (1.0 + 1e-9))
    monkeypatch.setattr(
        oracles, "solve_cyclic_tridiagonal", lambda *args: real_solve(*args) * (1.0 + 1e-9)
    )
    s = cosine_section(n_space, 20)
    v0 = np.full((2, n_space), 0.8) if constant else rng.standard_normal((2, n_space))
    for march in (solve_first_variation, first_variation_march):
        with pytest.raises(SingularJacobian, match="^tangent row solve at level 1 left residual"):
            march(s, v0)


def test_solve_first_variation_rejects_a_non_finite_initial_row():
    # A non-finite v0 is refused rather than marched into a NaN field.
    s = cosine_section(16, 10)
    for bad in (math.nan, math.inf, -math.inf):
        v0 = np.ones((2, 16))
        v0[0, 3] = bad
        with pytest.raises(ValueError, match="v0 must be finite"):
            solve_first_variation(s, v0)
        with pytest.raises(ValueError, match="v0 must be finite"):
            solve_first_variation(s, np.stack([np.ones((2, 16)), v0]))


def test_a_nan_tangent_solve_fails_the_residual_check(monkeypatch):
    # The post-solve check bounds the residual with not <=, so a NaN
    # residual (from a NaN solve) raises, naming its level.
    _scale_level_solve(monkeypatch, 3, math.nan)
    with pytest.raises(SingularJacobian, match=r"^tangent row solve at level 3 left residual nan$"):
        solve_first_variation(cosine_section(16, 10), np.ones((2, 16)))


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


def test_tangent_march_builds_each_rectangle_row_once(monkeypatch, rng):
    grads = ("grad_from_parts", "grad_12", "grad_34")
    kernels = ("_linear_terms", "_tangent_parts", "_vertex_terms", "_put_rows", "_shift")
    names = ("stencil_parts", "jacobian_bands", "self_bands", "solve_cyclic_tridiagonal")
    names += kernels + grads
    calls = dict.fromkeys(names, 0)
    vertex_terms = []  # the number of vertex terms of each _vertex_terms call

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = real(*args, **kwargs)
            if name == "_vertex_terms":
                vertex_terms.append(len(result))
            return result

        monkeypatch.setattr(module, name, wrapper)

    counting(del_solver, "stencil_parts")
    counting(del_solver, "solve_cyclic_tridiagonal")
    for name in ("jacobian_bands", "self_bands") + kernels + grads:
        counting(geometry_checks, name)
    # One block of levels, ten (the march crosses nine block seams), and
    # a 512-point row.
    for (n_space, n_steps, tol), n_blocks in zip([(16, 5, 1e-12)] + MARCH_CASES[2:], (1, 10, 1)):
        s = cosine_section(n_space, n_steps)
        n_time = s.grid.n_time
        blocks = len(_row_blocks(n_time - 2, 4 * n_space))
        assert blocks == n_blocks
        for v0 in (rng.standard_normal((2, n_space)), rng.standard_normal((2, 2, n_space))):
            calls.update(dict.fromkeys(names, 0))
            vertex_terms.clear()
            solve_first_variation(s, v0, SolverConfig(tol_residual=tol))
            # One parts pass, one Newton band set (with the row below the
            # block's first level, whose transpose couples that level to
            # its previous row) and one self-coupling band set per block
            # of levels; no public solve at any length (each level takes
            # one private bordered solve for its stack of tangents),
            # whatever the stack size.  Each level forms its right-hand
            # side from the band products of its two rows, held with a
            # periodic halo that each new row is written into once, so no
            # row is shifted per level: each block shifts the previous
            # level's two off-diagonal bands once, and its check shifts the
            # block's tangent rows once for their difference variables.
            # The check takes the four vertex terms of all of the block's
            # rectangle rows in one call, and the stacked _linear_terms is
            # never formed.  The on-shell gate takes the vertex-1,2 terms
            # of the block's top rectangle rows and the 3,4 terms of its
            # bottom ones, and never the four-term gradient.
            assert calls == {
                "stencil_parts": blocks,
                "jacobian_bands": blocks,
                "self_bands": blocks,
                "solve_cyclic_tridiagonal": 0,
                "_linear_terms": 0,
                "_tangent_parts": blocks,
                "_vertex_terms": blocks,
                "_put_rows": blocks + (n_time - 2),
                "_shift": 4 * blocks,
                "grad_from_parts": 0,
                "grad_12": blocks,
                "grad_34": blocks,
            }
            assert vertex_terms == [4] * blocks


@pytest.mark.parametrize("n_space, n_steps, tol", MARCH_CASES)
@pytest.mark.parametrize("m", [None, 3])
def test_march_matches_the_per_level_march_bitwise(n_space, n_steps, tol, m, rng):
    s = cosine_section(n_space, n_steps)
    v0 = rng.standard_normal((2, n_space) if m is None else (m, 2, n_space))
    cfg = SolverConfig(tol_residual=tol)
    got = solve_first_variation(s, v0, cfg)
    assert got.shape == v0.shape[:-2] + (s.grid.n_time, n_space)
    assert np.array_equal(got, first_variation_march(s, v0, cfg))


def _zero_pivot(monkeypatch, level: int, row: int):
    """Make the system of `level` singular, with a zero pivot at `row` in
    natural order, on a section of one block of levels: its row `row` is
    zeroed in the stacked bands the march builds (levels 0, 1, 2, ...:
    level 0's couple level 1 to row 0)."""
    real = geometry_checks.jacobian_bands

    def wrapper(a, b, c, h, k):
        lower, diag, upper = real(a, b, c, h, k)
        diag[level, row] = lower[level, row] = upper[level, row] = 0.0
        return lower, diag, upper

    monkeypatch.setattr(geometry_checks, "jacobian_bands", wrapper)


def test_singular_tangent_level_is_named(monkeypatch):
    s = cosine_section(16, 10)
    _zero_pivot(monkeypatch, 4, 7)
    with pytest.raises(SingularJacobian, match=r"^tangent row solve at level 4: zero pivot at row 7$") as err:
        solve_first_variation(s, np.ones((2, 2, 16)))
    assert err.value.row == 7


@pytest.mark.parametrize(
    "singular, moved_row, error, message",
    [
        (4, 7, SingularJacobian, "at level 4: zero pivot at row 7"),
        (7, 6, NotOnShell, "at level 5 "),
    ],
)
def test_tangent_march_fails_at_the_first_failing_level(
    monkeypatch, singular, moved_row, error, message
):
    s = cosine_section(16, 10)
    d = s.displacement.copy()
    d[moved_row] += 0.05 * s.grid.h * np.cos(np.arange(16))
    # Moving row r puts levels r - 1 .. r + 1 off shell; the singular
    # level is raised where the march reaches it, before or after them.
    _zero_pivot(monkeypatch, singular, 7)
    with pytest.raises(error, match=message):
        solve_first_variation(Section(s.grid, d), np.ones((2, 16)))


@pytest.mark.parametrize("later", ["off shell", "singular"])
def test_a_failed_check_precedes_a_later_failing_level(monkeypatch, later):
    # The block's rows are checked at once after its levels are solved;
    # a check that fails at level 2 is still raised before level 5's gate
    # or level 4's singular solve, with the message it has alone.
    s = cosine_section(16, 10)
    v0 = np.ones((2, 16))
    _scale_level_solve(monkeypatch, 2, 1.0 + 1e-9)
    with pytest.raises(SingularJacobian) as alone:
        solve_first_variation(s, v0)
    message = str(alone.value)
    assert message.startswith("tangent row solve at level 2 left residual ")
    if later == "off shell":
        d = s.displacement.copy()
        d[6] += 0.05 * s.grid.h * np.cos(np.arange(16))  # levels 5 .. 7
        s = Section(s.grid, d)
        with pytest.raises(NotOnShell, match="at level 5 "):
            first_variation_march(s, v0)
    else:
        _zero_pivot(monkeypatch, 4, 7)
    with pytest.raises(SingularJacobian) as err:
        solve_first_variation(s, v0)
    assert str(err.value) == message and err.value.row is None


def test_tangent_pair_of_a_full_diagnostics_run_stays_below_2_5_mib(rng):
    # A 256 x 200 cosine:0.1 section and a (2, 2, 256) stack: the march
    # holds one block of 32 levels at a time (3.66 MiB when it held 128
    # levels and each level formed its own temporaries).
    s = cosine_section(256, 200)
    v0 = rng.standard_normal((2, 2, 256))
    assert traced_peak(solve_first_variation, s, v0) < 2.5 * 2**20


def test_tangent_march_holds_one_block_of_factors(rng):
    long = cosine_section(256, 640)
    n_short = 34  # one whole block of 32 levels
    assert _row_blocks(n_short - 2, 4 * 256) == [(0, 32)]
    assert len(_row_blocks(long.grid.n_time - 2, 4 * 256)) == 20
    short = Section(replace(long.grid, n_time=n_short), long.displacement[:n_short])
    v0 = rng.standard_normal((2, 256))
    grown = (long.grid.n_time - n_short) * 256 * 8  # the returned array's growth
    factor = 3 * 32 * 255 * 8  # three band-sized arrays of one block
    peaks = [traced_peak(solve_first_variation, sec, v0) for sec in (short, long)]
    assert peaks[1] - peaks[0] <= grown + factor


def test_linear_terms_match_the_hessian_contraction(rng):
    s = cosine_trajectory(n_space=32, n_steps=6, amp=0.1).section
    h, k = s.grid.h, s.grid.k
    a, b, c = section_parts(s)
    for j in (0, 3, s.grid.n_time - 2):
        parts = a[j], b[j], c[j]
        hess = hess_full_from_parts(*parts, h, k)
        vlo, vhi = rng.standard_normal((2, 3, 32))  # three stacked tangents
        ref = np.einsum("nkl,k...n->l...n", hess, _tangent_rects(vlo, vhi))
        got = _linear_terms(*parts, h, k, vlo, vhi)
        assert got.shape == ref.shape == (4, 3, 32)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    const = np.full(32, 0.7)
    assert np.all(_linear_terms(*parts, h, k, const, const) == 0.0)


def test_two_forms_match_the_hessian_contraction(rng):
    s = cosine_trajectory(n_space=32, n_steps=6, amp=0.1).section
    h, k = s.grid.h, s.grid.k
    a, b, c = geometry_checks.section_parts(s)  # every rectangle row, stacked
    v, w = rng.standard_normal((2, 2) + a.shape)  # (bottom, top) row pairs
    ref = omega_from_hess(
        hess_full_from_parts(a, b, c, h, k), _tangent_rects(*v), _tangent_rects(*w)
    )
    got = two_forms(a, b, c, h, k, v, w)
    assert got.shape == ref.shape == (4,) + a.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_two_forms_exact_antisymmetry_and_zeros(short_cosine, rng):
    h, k = short_cosine.grid.h, short_cosine.grid.k
    parts = geometry_checks.section_parts(short_cosine)
    v, w = rng.standard_normal((2, 2) + parts[0].shape)
    assert np.array_equal(two_forms(*parts, h, k, v, w), -two_forms(*parts, h, k, w, v))
    assert np.all(two_forms(*parts, h, k, v, v) == 0.0)
    c1, c2 = np.full_like(v, 1.3), np.full_like(v, -0.4)
    assert np.all(two_forms(*parts, h, k, c1, c2) == 0.0)


def test_stacked_march_matches_each_tangent_alone(rng):
    s = cosine_trajectory(n_space=32, n_steps=20, amp=0.1).section
    v0 = rng.standard_normal((3, 2, 32))
    stacked = solve_first_variation(s, v0)
    assert stacked.shape == (3, s.grid.n_time, 32)
    for t, alone in zip(stacked, (solve_first_variation(s, v) for v in v0)):
        assert alone.shape == (s.grid.n_time, 32)
        assert np.array_equal(t, alone)
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
    err = np.max(np.abs(v[:-1] - quotient)) / np.max(np.abs(quotient))
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
    assert np.max(np.abs(v - quotient)) <= 1e-4 * np.max(np.abs(quotient))


def test_mff_exact_zero_cases(short_cosine, rng):
    s = short_cosine
    region = classify_region(0, s.grid.n_time - 1, s.grid)
    t = rng.standard_normal((s.grid.n_time, s.grid.n_space))
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


@pytest.mark.parametrize(
    "window, error", [((3, 3), EmptyRegion), ((0, 99), OutOfRange)], ids=["empty", "out_of_range"]
)
def test_boundary_sums_reject_bad_windows(short_cosine, window, error):
    v = np.zeros((short_cosine.grid.n_time, short_cosine.grid.n_space))
    with pytest.raises(error):
        noether_boundary_terms(short_cosine, SymmetryGenerator(1.0), window)
    with pytest.raises(error):
        mff_boundary_terms(short_cosine, v, v, window)


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
    v = rng.standard_normal((n_time, n_space))
    w = rng.standard_normal((n_time, n_space))
    j_lo = data.draw(st.integers(0, n_time - 2))
    window = (j_lo, data.draw(st.integers(j_lo + 1, n_time - 1)))
    gen = SymmetryGenerator(xi)
    for new, old in (
        (noether_boundary_terms(s, gen, window), noether_terms(s, gen, window)),
        (mff_boundary_terms(s, v, w, window), mff_terms(s, v, w, window)),
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
    # Rectangle rows run 0 .. n_time - 2.
    with pytest.raises(OutOfRange, match="rectangle row 7 needs rows 7 and 8"):
        total_momentum_scale(s, g.n_time - 1)


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


@pytest.mark.parametrize("n_space, n_time", [(4096, 21), (3, 25000)])
def test_level_series_is_exact_across_row_blocks(rng, n_space, n_time):
    s = random_section(GridSpec.from_circle(n_space, n_time, TWO_PI, 0.25), rng)
    blocks = del_solver._row_blocks(n_time - 1, n_space)
    sizes = [hi - lo for lo, hi in blocks]
    assert len(blocks) > 2 and sizes[-1] < sizes[0]  # several blocks, the last one ragged
    momenta, actions = level_series(s)
    rows = range(n_time - 1)
    assert momenta == [row_momentum(s, j) for j in rows]
    assert actions == [row_action(s, j) for j in rows]


def test_level_series_holds_less_than_one_section_array(rng):
    s = random_section(GridSpec.from_circle(4096, 201, TWO_PI, 0.25), rng)
    assert traced_peak(level_series, s) < s.displacement.nbytes


def test_total_momentum_drift_small(short_cosine):
    s = short_cosine
    values, _ = level_series(s)
    drift = max(abs(v - values[0]) for v in values)
    assert drift <= 1e-9 * max(abs(values[0]), total_momentum_scale(s, 0))


def _dispersion_symbol(n: int, cfl: float, speed: float, mode: int):
    """Coefficients (alpha, beta, gamma) of the three-level symbol
    alpha z**2 + beta z + gamma of the tangent-linear equations about
    uniform translation (a = 1, b = speed, c = 0), for the Fourier row
    phi = exp(i * mode * x); then the largest of their scales (the sum
    of the vertex terms' magnitudes, as _level_equation gives it) and
    the time step k.

    The tangent V_j = z**j phi makes level j's residual z**(j-1) times
    the symbol times phi: _linear_terms and _level_equation take complex
    rows, and each coefficient is the level equation of one of the three
    rows alone, projected on phi.
    """
    g = GridSpec.from_circle(n, 2, TWO_PI, cfl)
    phi = np.exp(1j * mode * g.h * np.arange(n))
    zero, none = np.zeros(n, complex), np.zeros((4, n), complex)

    def lin(vlo, vhi):
        return _linear_terms(1.0, speed, 0.0, g.h, g.k, vlo, vhi)

    coeffs, scales = [], []
    for top, bot in (
        (lin(zero, phi), none),  # alpha: the row above the level
        (lin(phi, zero), lin(zero, phi)),  # beta: the level's own row
        (none, lin(phi, zero)),  # gamma: the row below it
    ):
        res, scale = _level_equation(top, bot)
        coeffs.append(np.vdot(phi, res) / n)
        scales.append(scale)
    return (*coeffs, max(scales), g.k)


def test_linear_dispersion_about_uniform_translation():
    # Linearized about uniform translation the scheme is a three-level
    # recurrence with constant coefficients, and its symbol is an exact
    # oracle for every Fourier mode: the relabeling mode z = 1, and one
    # neutral root whose phase is the continuous CH dispersion in label
    # coordinates, omega = 2 U kappa / (1 + kappa**2), at second order.
    for n in (8, 32):
        for cfl in (0.1, 0.25, 1.0, 4.0, 20.0):
            for speed in (0.1, 0.5, 1.0, 5.0):
                for mode in range(1, n // 2 + 1):
                    alpha, beta, gamma, scale, _ = _dispersion_symbol(n, cfl, speed, mode)
                    assert abs(alpha + beta + gamma) <= 8 * EPS * scale
                    # With the root z = 1 the other is gamma / alpha (the
                    # product of the roots): no difference of nearly equal
                    # numbers, where the discriminant cancels at the double
                    # root and leaves only half the digits.
                    assert abs(abs(gamma / alpha) - 1.0) <= 16 * EPS
    for speed in (0.3, 1.0, 3.0):
        for cfl in (0.25, 1.0):
            for mode in (1, 2):
                omega = 2.0 * speed * mode / (1.0 + mode * mode)
                errors = []
                for n in (64, 128, 256):
                    alpha, _, gamma, _, k = _dispersion_symbol(n, cfl, speed, mode)
                    errors.append(abs(-np.angle(gamma / alpha) / k - omega) / omega)
                orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
                assert np.all(orders >= 1.9), (speed, cfl, mode, errors)

import dataclasses
import math

import numpy as np
import pytest

from conftest import EPS, TWO_PI, cosine_trajectory, smooth_eta_derivs
from oracles import uniform_translation

from chms.bridges import (
    B0,
    B1,
    Jet3Sample,
    conservation_residual,
    continuous_el_residual,
    grad_hamiltonian_phase,
    hamilton_residuals,
    hamiltonian,
    hamiltonian_phase,
    legendre,
    omega_pair,
    phase_field,
    rank_by_elimination,
    section_to_jets,
)
from chms.del_solver import Section
from chms.errors import NonMonotone, OutOfRange
from chms.grid import GridSpec
from chms.lagrangian import continuous_density


def random_jet(rng) -> Jet3Sample:
    v = rng.uniform(-2.0, 2.0, size=6)
    return Jet3Sample(v[0], rng.uniform(0.3, 3.0), v[1], v[2], v[3], v[4], v[5])


def o1_grid(n_space=16, n_time=12):
    return GridSpec(n_space, n_time, 1.0, 0.5, float(n_space))


def test_legendre_examples():
    rest = legendre(Jet3Sample(2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert dataclasses.astuple(rest) == pytest.approx((2.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    c = 0.4
    uni = legendre(Jet3Sample(1.0, 1.0, c, 0.0, 0.0, 0.0, 0.0))
    assert (uni.px, uni.pt, uni.ptx) == pytest.approx((c * c / 2.0, c, 0.0))
    mixed = legendre(Jet3Sample(0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0))
    assert (mixed.px, mixed.pt, mixed.ptx) == pytest.approx((-0.125, 0.0, 0.5))
    with pytest.raises(NonMonotone):
        legendre(Jet3Sample(0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_hamiltonian_examples(rng):
    assert hamiltonian(Jet3Sample(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)) == 0.0
    c = 0.4
    assert hamiltonian(Jet3Sample(0.0, 1.0, c, 0.0, 0.0, 0.0, 0.0)) == pytest.approx(-c * c)
    for _ in range(1000):
        j = random_jet(rng)
        z = legendre(j)
        dens = continuous_density(j.eta_x, j.eta_t, j.eta_tx)
        lhs = hamiltonian(j) + z.px * j.eta_x + z.pt * j.eta_t + z.ptx * j.eta_tx
        scale = max(
            abs(dens), abs(z.px * j.eta_x), abs(z.pt * j.eta_t), abs(z.ptx * j.eta_tx), 1.0
        )
        assert abs(lhs - dens) <= 8.0 * EPS * scale


def test_hamiltonian_phase_consistent_with_jet_form(rng):
    for _ in range(300):
        j = random_jet(rng)
        z = np.array(dataclasses.astuple(legendre(j)))
        assert hamiltonian_phase(z) == pytest.approx(hamiltonian(j), rel=1e-12, abs=1e-13)


def test_grad_hamiltonian_matches_closed_form(rng):
    for _ in range(200):
        z = rng.uniform(-2.0, 2.0, size=6)
        g = grad_hamiltonian_phase(z)
        eta_x, eta_t, px, pt, ptx = z[1], z[2], z[3], z[4], z[5]
        exact = np.array(
            [
                0.0,
                0.5 * (eta_t**2 - ptx**2) - px,
                eta_x * eta_t - pt,
                -eta_x,
                -eta_t,
                -eta_x * ptx,
            ]
        )
        assert np.max(np.abs(g - exact)) <= 1e-13 * max(1.0, np.max(np.abs(exact)))


def test_legendre_px_ptx_match_density_partials(rng):
    step = EPS ** (1.0 / 3.0)
    for _ in range(200):
        j = random_jet(rng)
        z = legendre(j)
        fd_px = (
            continuous_density(j.eta_x + step, j.eta_t, j.eta_tx)
            - continuous_density(j.eta_x - step, j.eta_t, j.eta_tx)
        ) / (2 * step)
        fd_ptx = (
            continuous_density(j.eta_x, j.eta_t, j.eta_tx + step)
            - continuous_density(j.eta_x, j.eta_t, j.eta_tx - step)
        ) / (2 * step)
        assert abs(fd_px - z.px) <= 1e-7 * max(1.0, abs(z.px))
        assert abs(fd_ptx - z.ptx) <= 1e-7 * max(1.0, abs(z.ptx))


def test_legendre_pt_correction_matches_nested_differencing():
    """pt carries the spatial total derivative of eta_tx/eta_x; check it
    against central differencing of the analytic ratio field."""
    h = 1e-4
    x, t = 1.1, 0.6
    d0 = smooth_eta_derivs(x, t)
    z = legendre(Jet3Sample(**d0))

    def ratio(xx):
        d = smooth_eta_derivs(xx, t)
        return d["eta_tx"] / d["eta_x"]

    fd = (ratio(x + h) - ratio(x - h)) / (2 * h)
    pt_fd = d0["eta_x"] * d0["eta_t"] - fd
    assert z.pt == pytest.approx(pt_fd, abs=1e-7)


def test_omega_pair_matrix_entries_and_skew(rng):
    e = np.eye(6)
    assert omega_pair(e[0], e[3]) == (-1.0, 0.0)
    assert omega_pair(e[0], e[4]) == (0.0, -1.0)
    for _ in range(200):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        w1, w0 = omega_pair(u, v)
        s1, s0 = omega_pair(v, u)
        assert w1 == -s1 and w0 == -s0
        assert omega_pair(u, u) == (0.0, 0.0)
        # identical to the matrix pairing v^T B u
        assert w1 == pytest.approx(v @ B1 @ u, rel=1e-13, abs=1e-14)
        assert w0 == pytest.approx(v @ B0 @ u, rel=1e-13, abs=1e-14)


def test_presymplectic_pair_structure():
    for m, nonzeros, rank in ((B1, 4, 4), (B0, 2, 2)):
        assert np.array_equal(m, -m.T)
        assert np.array_equal(np.sort(np.abs(m[m != 0.0])), np.ones(nonzeros))
        assert rank_by_elimination(m) == rank
        assert not m.flags.writeable


def test_residual_fields_vanish_on_exact_solutions():
    g = o1_grid()
    for s in (Section.identity(g), uniform_translation(g, 0.3)):
        z, levels = phase_field(s)
        ham, _ = hamilton_residuals(z, g, levels)
        cons, _ = conservation_residual(z, g, levels)
        el, _ = continuous_el_residual(s)
        assert np.max(np.abs(ham)) <= 1e-12
        assert np.max(np.abs(cons)) <= 1e-12
        assert np.max(np.abs(el)) <= 1e-12


def test_jet_fields_match_analytic_derivatives():
    n, rows = 128, 9
    g = GridSpec.from_circle(n, rows, TWO_PI, 0.25)
    x = np.arange(n) * g.h
    t = np.arange(rows) * g.k
    eta = x[None, :] + 0.3 * np.sin(x[None, :] - t[:, None])
    s = Section(g, eta - x[None, :])
    jets, levels = section_to_jets(s)
    mid = len(levels) // 2
    d = smooth_eta_derivs(x, t[levels[mid]])
    for name, tol in [("eta_x", 1e-3), ("eta_t", 1e-3), ("eta_tx", 1e-3), ("eta_txx", 5e-3)]:
        assert np.max(np.abs(jets[name][mid] - d[name])) <= tol


def test_residual_fields_shrink_on_numerical_solutions():
    norms = {}
    for n, steps in [(16, 8), (32, 16)]:
        s = cosine_trajectory(n_space=n, n_steps=steps, amp=0.1).section
        z, levels = phase_field(s)
        ham, _ = hamilton_residuals(z, s.grid, levels)
        cons, _ = conservation_residual(z, s.grid, levels)
        el, _ = continuous_el_residual(s)
        norms[n] = (
            np.max(np.abs(ham)),
            np.max(np.abs(cons)),
            np.max(np.abs(el)),
        )
    for a, b in zip(norms[16], norms[32]):
        assert math.log2(a / b) >= 0.8


def test_hamilton_residual_component_structure():
    """The first residual component reproduces the field-equation
    residual (with opposite sign); the rest are momentum identities that
    vanish at second order even on non-solution fields."""
    measured = {}
    for n, rows in [(64, 13), (128, 25)]:
        g = GridSpec.from_circle(n, rows, TWO_PI, 0.25)
        x = np.arange(n) * g.h
        t = np.arange(rows) * g.k
        eta = x[None, :] + 0.3 * np.sin(x[None, :] - t[:, None])
        s = Section(g, eta - x[None, :])
        z, levels = phase_field(s)
        ham, ham_levels = hamilton_residuals(z, g, levels)
        el, el_levels = continuous_el_residual(s)
        assert ham_levels == el_levels
        measured[n] = (
            float(np.max(np.abs(ham[..., 0] + el))),
            float(np.max(np.abs(ham[..., 1:]))),
            float(np.max(np.abs(ham[..., 0]))),
        )
    agree, ident, comp0 = measured[128]
    assert comp0 >= 0.5  # the analytic field is not a solution
    assert agree <= 1e-3 and ident <= 1e-3
    assert measured[64][0] / agree >= 3.0  # second-order shrinkage
    assert measured[64][1] / ident >= 3.0


def test_hamilton_residual_levels_and_errors():
    g = o1_grid(n_time=4)
    s = Section.identity(g)
    z, levels = phase_field(s)
    assert levels == [1, 2]
    with pytest.raises(OutOfRange):
        hamilton_residuals(z[:2], g)
    with pytest.raises(OutOfRange):
        conservation_residual(z, g, levels)  # needs 5 levels of Z

import math

import numpy as np
import pytest

from conftest import EPS, TWO_PI, cosine_trajectory, smooth_eta_derivs, traced_peak
from oracles import continuous_el_residual as el_oracle, uniform_translation

from chms import bridges
from chms.bridges import (
    B0,
    B1,
    _blocks,
    conservation_residual,
    continuous_el_residual,
    grad_hamiltonian_phase,
    hamilton_residuals,
    hamiltonian_phase,
    legendre,
    omega_pair,
    phase_field,
    residual_maxima,
    section_to_jets,
)
from chms.del_solver import Section
from chms.errors import NonMonotone, OutOfRange
from chms.grid import GridSpec
from chms.lagrangian import eval_from_parts


def random_jet(rng) -> tuple:
    """(eta, eta_x, eta_t, eta_xx, eta_tx, eta_txx) with eta_x > 0."""
    v = rng.uniform(-2.0, 2.0, size=6)
    return v[0], rng.uniform(0.3, 3.0), v[1], v[2], v[3], v[5]


def o1_grid(n_space=16, n_time=12):
    return GridSpec(n_space, n_time, 1.0, 0.5, float(n_space))


def test_legendre_examples():
    rest = legendre(2.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert rest.shape == (6,)
    assert list(rest) == pytest.approx([2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    c = 0.4
    uni = legendre(1.0, 1.0, c, 0.0, 0.0, 0.0)
    assert list(uni[3:]) == pytest.approx([c * c / 2.0, c, 0.0])
    mixed = legendre(0.0, 2.0, 0.0, 0.0, 1.0, 0.0)
    assert list(mixed[3:]) == pytest.approx([-0.125, 0.0, 0.5])
    for bad in (-1.0, math.nan):
        with pytest.raises(NonMonotone):
            legendre(0.0, bad, 0.0, 0.0, 0.0, 0.0)


def jet_form(j: tuple):
    """H = L - px*eta_x - pt*eta_t - ptx*eta_tx from the density, and the
    largest magnitude among L and the three pairings."""
    z = legendre(*j)
    _, eta_x, eta_t, _, eta_tx, _ = j
    dens = eval_from_parts(eta_x, eta_t, eta_tx)
    pairings = [z[..., 3] * eta_x, z[..., 4] * eta_t, z[..., 5] * eta_tx]
    ham = dens - pairings[0] - pairings[1] - pairings[2]
    return ham, np.max(np.abs([dens, *pairings]), axis=0)


def test_hamiltonian_examples(rng):
    assert hamiltonian_phase(legendre(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)) == 0.0
    c = 0.4
    assert hamiltonian_phase(legendre(0.0, 1.0, c, 0.0, 0.0, 0.0)) == pytest.approx(-c * c)
    for _ in range(1000):
        j = random_jet(rng)
        ham, scale = jet_form(j)
        assert abs(hamiltonian_phase(legendre(*j)) - ham) <= 8.0 * EPS * max(scale, 1.0)


def test_hamiltonian_phase_consistent_with_jet_form(rng):
    """On a batch of jets, legendre gives one Z row per jet, each the
    scalar jet's Z, and the polynomial matches the jet form."""
    v = rng.uniform(-2.0, 2.0, size=(6, 300))
    batch = (v[0], rng.uniform(0.3, 3.0, size=300), *v[[1, 2, 3, 5]])
    z = legendre(*batch)
    assert z.shape == (300, 6)
    for m in range(0, 300, 37):
        assert np.array_equal(z[m], legendre(*(a[m] for a in batch)))
    ham, _ = jet_form(batch)
    assert hamiltonian_phase(z) == pytest.approx(ham, rel=1e-12, abs=1e-13)


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
        z = legendre(*j)
        _, eta_x, eta_t, _, eta_tx, _ = j
        fd_px = (
            eval_from_parts(eta_x + step, eta_t, eta_tx)
            - eval_from_parts(eta_x - step, eta_t, eta_tx)
        ) / (2 * step)
        fd_ptx = (
            eval_from_parts(eta_x, eta_t, eta_tx + step)
            - eval_from_parts(eta_x, eta_t, eta_tx - step)
        ) / (2 * step)
        px, ptx = z[3], z[5]
        assert abs(fd_px - px) <= 1e-7 * max(1.0, abs(px))
        assert abs(fd_ptx - ptx) <= 1e-7 * max(1.0, abs(ptx))


def test_legendre_pt_correction_matches_nested_differencing():
    """pt carries the spatial total derivative of eta_tx/eta_x; check it
    against central differencing of the analytic ratio field."""
    h = 1e-4
    x, t = 1.1, 0.6
    d0 = smooth_eta_derivs(x, t)
    z = legendre(**d0)

    def ratio(xx):
        d = smooth_eta_derivs(xx, t)
        return d["eta_tx"] / d["eta_x"]

    fd = (ratio(x + h) - ratio(x - h)) / (2 * h)
    pt_fd = d0["eta_x"] * d0["eta_t"] - fd
    assert z[4] == pytest.approx(pt_fd, abs=1e-7)


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
        assert np.linalg.matrix_rank(m) == rank
        assert not m.flags.writeable


def test_residual_fields_vanish_on_exact_solutions():
    g = o1_grid()
    for s in (Section.identity(g), uniform_translation(g, 0.3)):
        z = phase_field(s)
        ham = hamilton_residuals(z, g)
        cons = conservation_residual(z, g)
        el = continuous_el_residual(z, g)
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
    jets = dict(zip(["eta", "eta_x", "eta_t", "eta_xx", "eta_tx", "eta_txx"], section_to_jets(s)))
    assert all(a.shape == (rows - 2, n) for a in jets.values())
    tols = {"eta": 1e-14, "eta_x": 1e-3, "eta_t": 1e-3, "eta_xx": 1e-3, "eta_tx": 1e-3, "eta_txx": 5e-3}
    for level in range(rows - 2):
        d = smooth_eta_derivs(x, t[1 + level])  # the jets start at level 1
        for name, tol in tols.items():
            # Every point is compared, the seam points i = 0 and n - 1,
            # where the lift enters eta_x, eta_xx and eta_txx, included.
            assert np.max(np.abs(jets[name][level] - d[name])) <= tol, (name, level)


def test_residual_fields_shrink_on_numerical_solutions():
    norms = {}
    for n, steps in [(16, 8), (32, 16)]:
        s = cosine_trajectory(n_space=n, n_steps=steps, amp=0.1).section
        z = phase_field(s)
        ham = hamilton_residuals(z, s.grid)
        cons = conservation_residual(z, s.grid)
        el = continuous_el_residual(z, s.grid)
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
        z = phase_field(s)
        ham = hamilton_residuals(z, g)
        el = continuous_el_residual(z, g)
        assert ham.shape[:-1] == el.shape
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


def test_continuous_el_residual_of_the_phase_field_matches_the_jet_oracle():
    g = GridSpec.from_circle(32, 9, TWO_PI, 0.25)
    x = np.arange(32) * g.h
    t = np.arange(9) * g.k
    wave = Section(g, 0.3 * np.sin(x[None, :] - t[:, None]))
    for s in (wave, cosine_trajectory(n_space=16, n_steps=8, amp=0.1).section):
        z = phase_field(s)
        el = continuous_el_residual(z, s.grid)
        assert np.array_equal(el, el_oracle(s))
    assert continuous_el_residual(z[:2], s.grid).shape == (0, s.grid.n_space)


def test_hamilton_residual_levels_and_empty_fields():
    # The phase field covers levels 1 .. n_time - 2; the Hamilton and
    # field-equation residuals drop one level of it at each end, the
    # conservation residual two.  A field too short for a level has none.
    n, n_time = 16, 9
    s = Section.identity(o1_grid(n_space=n, n_time=n_time))
    z = phase_field(s)
    assert z.shape == (n_time - 2, n, 6)
    assert hamilton_residuals(z, s.grid).shape == (n_time - 4, n, 6)
    assert continuous_el_residual(z, s.grid).shape == (n_time - 4, n)
    assert conservation_residual(z, s.grid).shape == (n_time - 6, n)
    assert phase_field(Section.identity(o1_grid(n_space=n, n_time=2))).shape == (0, n, 6)
    g = o1_grid(n_space=n, n_time=6)
    z = phase_field(Section.identity(g))
    assert z.shape == (4, n, 6)
    assert hamilton_residuals(z[:2], g).shape == (0, n, 6)
    assert conservation_residual(z, g).shape == (0, n)  # 5 levels of Z give one


def test_phase_field_takes_row_ranges_and_names_a_bad_one():
    # A row range inside the section is a slice of the whole field, bit for
    # bit; one that is empty or reaches past rows 0 .. n_time - 1 is
    # refused, not read through Python slicing as the last rows or all.
    s = cosine_trajectory(n_space=16, n_steps=8).section  # rows 0 .. 9
    whole = phase_field(s)
    for lo, hi in ((0, 10), (2, 7), (4, 6)):
        assert np.array_equal(phase_field(s, lo, hi), whole[lo : max(hi - 2, lo)])
    for lo, hi in ((-3, None), (0, 15), (4, 4), (5, 2)):
        last = 9 if hi is None else hi - 1
        with pytest.raises(OutOfRange, match=rf"^rows {lo} \.\. {last} are not a range of rows 0 \.\. 9$"):
            phase_field(s, lo, hi)


def sine_wave(n_space: int, n_time: int) -> Section:
    """The analytic (non-solution) wave eta = x + 0.3 sin(x - t) at cfl 0.25."""
    g = GridSpec.from_circle(n_space, n_time, TWO_PI, 0.25)
    x = np.arange(n_space) * g.h
    t = np.arange(n_time) * g.k
    return Section(g, 0.3 * np.sin(x[None, :] - t[:, None]))


def whole_field_maxima(s: Section) -> list:
    """(key, max |field|) of the three residual fields of the whole-section
    Z-field, None for a field with no level, in the summary's key order."""
    z = phase_field(s)
    fields = {
        "conservation_residual_max": conservation_residual(z, s.grid),
        "hamilton_residuals_max": hamilton_residuals(z, s.grid),
        "continuous_el_residual_max": continuous_el_residual(z, s.grid),
    }
    return [(key, float(np.max(np.abs(f))) if f.size else None) for key, f in fields.items()]


@pytest.mark.parametrize("n_time", [2, 3, 5, 6, 7, 8, 12, 13, 19, 20, 40, 803])
@pytest.mark.parametrize("n_space", [3, 16, 256, 6000])
def test_blocks_tile_the_conservation_levels(n_time, n_space):
    blocks = _blocks(n_time, n_space)
    assert blocks[0][0] == 0 and blocks[-1][1] == n_time
    if n_time < 7:
        assert blocks == [(0, n_time)]
        return
    # Each block's conservation levels lo + 3 .. hi - 4 follow the last
    # block's without a gap or a repeat, and cover 3 .. n_time - 4.
    levels = [j for lo, hi in blocks for j in range(lo + 3, hi - 3)]
    assert levels == list(range(3, n_time - 3))
    for (lo, hi), (nxt, _) in zip(blocks, blocks[1:]):
        assert hi - nxt == 6 and nxt - lo >= 6  # no row in more than two blocks
    step = max(6, bridges._BLOCK_VALUES // (6 * n_space))
    assert all(hi - lo <= step + 6 for lo, hi in blocks)


def test_residual_maxima_match_the_whole_fields_bitwise(monkeypatch):
    marched = cosine_trajectory(n_space=256, n_steps=60).section
    assert len(_blocks(marched.grid.n_time, 256)) == 3
    wave = sine_wave(256, 100)
    assert len(_blocks(100, 256)) == 5
    short = [cosine_trajectory(n_space=16, n_steps=m).section for m in range(13)]
    for s in (marched, wave, *short):
        assert list(residual_maxima(s).items()) == whole_field_maxima(s)
    # The same sections with the shortest blocks (12 rows, 6 of them shared):
    # every short run of 13 rows or more crosses seams.
    monkeypatch.setattr(bridges, "_BLOCK_VALUES", 1)
    assert len(_blocks(14, 16)) == 2
    for s in (marched, wave, *short):
        assert list(residual_maxima(s).items()) == whole_field_maxima(s)
    fields = residual_maxima(short[4])
    assert fields["conservation_residual_max"] is None  # 6 rows: no conservation level
    assert None not in (fields["hamilton_residuals_max"], fields["continuous_el_residual_max"])
    assert set(residual_maxima(short[1]).values()) == {None}


def test_residual_maxima_propagate_nan(monkeypatch):
    # A NaN in the first block's fields is the summary's maximum, as np.max
    # over the whole field gives it, though the later blocks are finite.
    real = bridges.phase_field

    def nan_at_level_5(sec, lo=0, hi=None):
        z = real(sec, lo, hi)
        if lo <= 4 < hi - 2:
            z[4 - lo, 7, 3] = np.nan
        return z

    monkeypatch.setattr(bridges, "phase_field", nan_at_level_5)
    maxima = residual_maxima(sine_wave(256, 100))
    assert all(math.isnan(m) for m in maxima.values())


def test_residual_maxima_memory_is_bounded():
    # The pass holds one block's arrays: its peak does not grow with the
    # number of levels (the whole-section fields took 11.9 MiB at 200
    # levels and 120.9 MiB at 2000).
    peaks = [traced_peak(residual_maxima, sine_wave(256, n_time)) for n_time in (400, 2000)]
    assert max(peaks) <= 1.1 * min(peaks)
    assert max(peaks) < 2 * 2**20

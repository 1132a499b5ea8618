"""Continuous-side diagnostics: momenta, Hamiltonian, pre-symplectic
pairings, and finite-difference residual fields on gridded solutions.

The field equations are equivalent to a first-order Hamiltonian system
B1 Z_x + B0 Z_t = grad H(Z) on the phase space R^6 with coordinates
Z = (eta, eta_x, eta_t, px, pt, ptx) and two constant skew-symmetric
matrices.  Along smooth solutions the pairing fields satisfy the
conservation law d/dx w1(Z_t, Z_x) + d/dt w0(Z_t, Z_x) = 0; evaluated on
resolved numerical trajectories its residual shrinks under refinement.

All finite differences are second-order central with periodic spatial
wraparound; fields derived in time exist only on interior levels, so
each operation's docstring states the time levels it covers.  A field
too short to have an interior level has zero levels.  residual_maxima
reduces the three residual fields to their largest magnitudes in one
pass over blocks of rows, so its memory stays bounded whatever the
section's length.
"""

from __future__ import annotations

import numpy as np

from .errors import NonMonotone, OutOfRange
from .grid import GridSpec
from .del_solver import _BLOCK_VALUES, Section
from .lagrangian import _shift


def _skew(*pairs) -> np.ndarray:
    """Read-only 6x6 matrix with 1 at each (m, n) of pairs and -1 at (n, m)."""
    b = np.zeros((6, 6))
    for m, n in pairs:
        b[m, n], b[n, m] = 1.0, -1.0
    b.flags.writeable = False
    return b


B1 = _skew((0, 3), (2, 5))
B0 = _skew((0, 4))


def legendre(eta, eta_x, eta_t, eta_xx, eta_tx, eta_txx) -> np.ndarray:
    """The phase point Z = (eta, eta_x, eta_t, px, pt, ptx) of a jet, with
    the momenta conjugate to (eta, eta_x, eta_t):

        px  = (eta_t**2 - (eta_tx/eta_x)**2) / 2
        pt  = eta_x*eta_t - (eta_txx*eta_x - eta_tx*eta_xx) / eta_x**2
        ptx = eta_tx / eta_x

    The pt formula carries the spatial total derivative of ptx.  Jets of
    equal-shape arrays give shape + (6,); eta_x must be positive.
    """
    if not np.all(np.asarray(eta_x) > 0.0):  # NaN fails too
        raise NonMonotone("eta_x must be positive")
    ptx = eta_tx / eta_x
    px = 0.5 * (eta_t * eta_t - ptx * ptx)
    pt = eta_x * eta_t - (eta_txx * eta_x - eta_tx * eta_xx) / (eta_x * eta_x)
    return np.stack([eta, eta_x, eta_t, px, pt, ptx], axis=-1)


def hamiltonian_phase(z: np.ndarray) -> np.ndarray:
    """H as a function on phase space (last axis holds the 6 components).

    H is defined as L - px*eta_x - pt*eta_t - ptx*eta_tx with L the
    density (lagrangian.eval_from_parts on eta_x, eta_t, eta_tx).
    Eliminating eta_tx = eta_x * ptx gives the polynomial
    H = eta_x*(eta_t**2 - ptx**2)/2 - px*eta_x - pt*eta_t.
    """
    z = np.asarray(z, dtype=float)
    etax, etat = z[..., 1], z[..., 2]
    px, pt, ptx = z[..., 3], z[..., 4], z[..., 5]
    return 0.5 * etax * (etat * etat - ptx * ptx) - px * etax - pt * etat


def grad_hamiltonian_phase(z: np.ndarray) -> np.ndarray:
    """Gradient of the phase-space Hamiltonian (last axis holds the 6
    components), in closed form from the polynomial of hamiltonian_phase."""
    z = np.asarray(z, dtype=float)
    etax, etat = z[..., 1], z[..., 2]
    px, pt, ptx = z[..., 3], z[..., 4], z[..., 5]
    return np.stack(
        [
            np.zeros_like(etax),
            0.5 * (etat * etat - ptx * ptx) - px,
            etax * etat - pt,
            -etax,
            -etat,
            -etax * ptx,
        ],
        axis=-1,
    )


def omega_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """(w1(u, v), w0(u, v)) for 6-vectors, w_nu(u, v) = v^T B_nu u.

    Written as paired products so skew-symmetry is exact in floating
    point; identical to the matrix pairing.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w1 = (v[..., 0] * u[..., 3] - v[..., 3] * u[..., 0]) + (
        v[..., 2] * u[..., 5] - v[..., 5] * u[..., 2]
    )
    w0 = v[..., 0] * u[..., 4] - v[..., 4] * u[..., 0]
    return w1, w0


# ---------------------------------------------------------------------------
# Finite-difference fields from discrete trajectories.


def _dx(f: np.ndarray, h: float, lift: float = 0.0) -> np.ndarray:
    """Central x-derivative with periodic wraparound along the last axis;
    `lift` is the identity lift of eta (0 for periodic fields)."""
    return (_shift(f, 1, lift) - _shift(f, -1, lift)) / (2.0 * h)


def _dt(f: np.ndarray, k: float) -> np.ndarray:
    """Central t-derivative; drops the first and last time level."""
    return (f[2:] - f[:-2]) / (2.0 * k)


def _jets(y: np.ndarray, g: GridSpec) -> tuple[np.ndarray, ...]:
    """Central-difference jet fields (eta, eta_x, eta_t, eta_xx, eta_tx,
    eta_txx) of the label rows y, shape (r, n_space), on their interior
    rows 1 .. r - 2: six arrays of shape (max(r - 2, 0), n_space)."""
    h, k, lam = g.h, g.k, g.domain_length
    up, down = _shift(y, 1, lam), _shift(y, -1, lam)
    eta_t = _dt(y, k)
    eta_x = (up[1:-1] - down[1:-1]) / (2.0 * h)
    eta_xx = (up - 2.0 * y + down) / (h * h)
    return y[1:-1].copy(), eta_x, eta_t, eta_xx[1:-1], _dx(eta_t, h), _dt(eta_xx, k)


def section_to_jets(s: Section) -> tuple[np.ndarray, ...]:
    """Central-difference jet fields (eta, eta_x, eta_t, eta_xx, eta_tx,
    eta_txx) on the interior time levels 1 .. n_time - 2: six arrays of
    shape (n_time - 2, n_space)."""
    return _jets(s.rows_y(), s.grid)


def phase_field(s: Section, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Z-field of the rows lo .. hi - 1 of s (by default all of them) over
    their interior levels lo + 1 .. hi - 2, shape (hi - lo - 2, n_space,
    6): the closed-form momenta of the finite-difference jets, no
    interpolation.  Any row range is the same slice of the whole
    section's field, bit for bit; a range that is empty or reaches past
    rows 0 .. n_time - 1 raises OutOfRange naming it."""
    hi = s.grid.n_time if hi is None else hi
    if not 0 <= lo < hi <= s.grid.n_time:
        raise OutOfRange(f"rows {lo} .. {hi - 1} are not a range of rows 0 .. {s.grid.n_time - 1}")
    return legendre(*_jets(s.xs() + s.displacement[lo:hi], s.grid))


def _phase_dx(z: np.ndarray, g: GridSpec):
    """(z, z_x) of a Z-field; eta carries the identity lift, the momenta
    are periodic."""
    z = np.asarray(z, dtype=float)
    zx = np.empty_like(z)
    for m in range(6):
        zx[..., m] = _dx(z[..., m], g.h, g.domain_length if m == 0 else 0.0)
    return z, zx


def _hamilton(z: np.ndarray, zx: np.ndarray, g: GridSpec) -> np.ndarray:
    """hamilton_residuals from (z, z_x).  Each row of B1 and B0 holds at
    most one entry, +-1, so the matrix products are exact."""
    return zx[1:-1] @ B1.T + _dt(z, g.k) @ B0.T - grad_hamiltonian_phase(z[1:-1])


def _conservation(z: np.ndarray, zx: np.ndarray, g: GridSpec) -> np.ndarray:
    """conservation_residual from (z, z_x)."""
    s1, s0 = omega_pair(_dt(z, g.k), zx[1:-1])
    return _dx(s1, g.h)[1:-1] + _dt(s0, g.k)


def _continuous_el(z: np.ndarray, zx: np.ndarray, g: GridSpec) -> np.ndarray:
    """continuous_el_residual from (z, z_x)."""
    return -zx[1:-1, :, 3] - _dt(z[..., 1] * z[..., 2], g.k) + _dt(zx[..., 5], g.k)


def hamilton_residuals(z: np.ndarray, g: GridSpec) -> np.ndarray:
    """Componentwise residual of B1 Z_x + B0 Z_t - grad H(Z).

    Four components are pointwise identities of the momenta (they vanish
    to discretization order); the first component reproduces the field
    equation residual.  It covers the levels of z without the first and
    the last: shape (max(len(z) - 2, 0), n_space, 6).
    """
    return _hamilton(*_phase_dx(z, g), g)


def conservation_residual(z: np.ndarray, g: GridSpec) -> np.ndarray:
    """r = d/dx w1(Z_t, Z_x) + d/dt w0(Z_t, Z_x); near zero on resolved
    solutions.  It covers the levels of z without two at each end: shape
    (max(len(z) - 4, 0), n_space)."""
    return _conservation(*_phase_dx(z, g), g)


def continuous_el_residual(z: np.ndarray, g: GridSpec) -> np.ndarray:
    """Finite-difference residual of the continuous field equation

        ((eta_tx/eta_x)**2 - eta_t**2)_x / 2 - (eta_x eta_t)_t
            + (eta_tx/eta_x)_xt

    evaluated with nested central differences on the Z-field, in which
    ptx = eta_tx/eta_x and the flux term is -px.  It covers the levels
    of z without the first and the last: shape (max(len(z) - 2, 0),
    n_space).
    """
    return _continuous_el(*_phase_dx(z, g), g)


# ---------------------------------------------------------------------------
# The largest magnitude of each residual field, in one blocked pass.


def _blocks(n_time: int, n_space: int) -> list[tuple[int, int]]:
    """(lo, hi) of the blocks of rows lo .. hi - 1 that residual_maxima
    walks.  A conservation level reads three rows on each side of it (Z
    two levels away, each Z level its two neighbouring rows), so
    consecutive blocks share 6 rows and their conservation levels
    lo + 3 .. hi - 4 tile 3 .. n_time - 4 exactly.  Each block adds
    about del_solver._BLOCK_VALUES values of Z (6 per point) to the
    last, and at least the 6 rows it shares, so no row is built more
    than twice; a section too short for a conservation level is one
    block."""
    step = max(6, _BLOCK_VALUES // (6 * n_space))
    return [(lo, min(lo + step + 6, n_time)) for lo in range(0, max(n_time - 6, 1), step)]


def residual_maxima(s: Section) -> dict:
    """The largest magnitude of each residual field of the section's
    Z-field (conservation, Hamilton, field equation, in that order), None
    for a field that has no level (a run too short for it).

    The rows go in blocks (_blocks): each block's Z-field and its
    x-derivative are built once and all three fields are evaluated on
    them, so the pass holds one block's arrays whatever the section's
    length.  Every entry of a field is computed from its own
    neighbourhood of rows alone (B1 and B0 hold at most one nonzero per
    row), so each block maximum is bit for bit the whole field's maximum
    over the block's levels.  Hamilton and field-equation levels beside
    a seam are evaluated twice, which a maximum cannot see; np.maximum
    folds the blocks' maxima, so a NaN propagates as np.max over the
    whole field would.
    """
    g = s.grid
    fields = {
        "conservation_residual_max": _conservation,
        "hamilton_residuals_max": _hamilton,
        "continuous_el_residual_max": _continuous_el,
    }
    maxima = dict.fromkeys(fields)
    for lo, hi in _blocks(g.n_time, g.n_space):
        z, zx = _phase_dx(phase_field(s, lo, hi), g)
        for key, field in fields.items():
            f = field(z, zx, g)
            if f.size:
                m = np.abs(f).max()
                maxima[key] = m if maxima[key] is None else np.maximum(maxima[key], m)
    return {key: None if m is None else float(m) for key, m in maxima.items()}

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
each operation returns the time levels it covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonMonotone, OutOfRange
from .grid import GridSpec
from .del_solver import Section
from .lagrangian import continuous_density


def _b1_matrix() -> np.ndarray:
    m = np.zeros((6, 6))
    m[0, 3] = 1.0
    m[2, 5] = 1.0
    m[3, 0] = -1.0
    m[5, 2] = -1.0
    m.flags.writeable = False
    return m


def _b0_matrix() -> np.ndarray:
    m = np.zeros((6, 6))
    m[0, 4] = 1.0
    m[4, 0] = -1.0
    m.flags.writeable = False
    return m


B1 = _b1_matrix()
B0 = _b0_matrix()


@dataclass(frozen=True)
class Jet3Sample:
    """Point values of eta and the partial derivatives the momenta need."""

    eta: float
    eta_x: float
    eta_t: float
    eta_xx: float
    eta_tx: float
    eta_tt: float
    eta_txx: float


@dataclass(frozen=True)
class PhasePoint:
    """Phase-space vector Z = (eta, eta_x, eta_t, px, pt, ptx)."""

    eta: float
    eta_x: float
    eta_t: float
    px: float
    pt: float
    ptx: float


def _require_positive_slope(eta_x) -> None:
    if np.any(np.asarray(eta_x) <= 0.0):
        raise NonMonotone("eta_x must be positive")


def legendre(j: Jet3Sample) -> PhasePoint:
    """Momenta conjugate to (eta, eta_x, eta_t):

        px  = (eta_t**2 - (eta_tx/eta_x)**2) / 2
        pt  = eta_x*eta_t - (eta_txx*eta_x - eta_tx*eta_xx) / eta_x**2
        ptx = eta_tx / eta_x

    The pt formula carries the spatial total derivative of ptx.
    """
    _require_positive_slope(j.eta_x)
    ptx = j.eta_tx / j.eta_x
    px = 0.5 * (j.eta_t * j.eta_t - ptx * ptx)
    pt = j.eta_x * j.eta_t - (j.eta_txx * j.eta_x - j.eta_tx * j.eta_xx) / (j.eta_x * j.eta_x)
    return PhasePoint(j.eta, j.eta_x, j.eta_t, px, pt, ptx)


def hamiltonian(j: Jet3Sample) -> float:
    """H = L - px*eta_x - pt*eta_t - ptx*eta_tx with L the density."""
    z = legendre(j)
    dens = continuous_density(j.eta_x, j.eta_t, j.eta_tx)
    return dens - z.px * j.eta_x - z.pt * j.eta_t - z.ptx * j.eta_tx


def hamiltonian_phase(z: np.ndarray) -> np.ndarray:
    """H as a function on phase space (last axis holds the 6 components).

    Eliminating eta_tx = eta_x * ptx from the defining identity gives the
    polynomial H = eta_x*(eta_t**2 - ptx**2)/2 - px*eta_x - pt*eta_t.
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


def omega_pair(u, v) -> tuple[float, float]:
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
    if w1.ndim == 0:
        return float(w1), float(w0)
    return w1, w0


def rank_by_elimination(m: np.ndarray, tol: float = 1e-12) -> int:
    """Rank by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=float)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        piv = rank + int(np.argmax(np.abs(a[rank:, col])))
        if np.abs(a[piv, col]) <= tol:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank + 1 :] -= np.outer(a[rank + 1 :, col] / a[rank, col], a[rank])
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Finite-difference fields from discrete trajectories.


def _dx(f: np.ndarray, h: float, lift: float = 0.0) -> np.ndarray:
    """Central x-derivative with periodic wraparound along the last axis;
    the seam neighbours gain/lose `lift` (the identity lift of eta)."""
    fp = np.roll(f, -1, axis=-1)
    fp[..., -1] += lift
    fm = np.roll(f, 1, axis=-1)
    fm[..., 0] -= lift
    return (fp - fm) / (2.0 * h)


def _dxx(f: np.ndarray, h: float, lift: float = 0.0) -> np.ndarray:
    fp = np.roll(f, -1, axis=-1)
    fp[..., -1] += lift
    fm = np.roll(f, 1, axis=-1)
    fm[..., 0] -= lift
    return (fp - 2.0 * f + fm) / (h * h)


def _dt(f: np.ndarray, k: float) -> np.ndarray:
    """Central t-derivative; drops the first and last time level."""
    return (f[2:] - f[:-2]) / (2.0 * k)


def section_to_jets(s: Section):
    """Central-difference jet fields on the interior time levels.

    Returns (jets, levels) where jets maps component names to arrays of
    shape (len(levels), n_space) and levels = [1, .., n_time - 2].
    """
    g = s.grid
    if g.n_time < 3:
        raise OutOfRange("need at least 3 time levels for jet fields")
    y = s.rows_y()
    h, k, lam = g.h, g.k, g.domain_length
    eta_t = _dt(y, k)
    eta_tt = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (k * k)
    eta_xx_all = _dxx(y, h, lam)
    jets = {
        "eta": y[1:-1].copy(),
        "eta_x": _dx(y, h, lam)[1:-1],
        "eta_t": eta_t,
        "eta_xx": eta_xx_all[1:-1],
        "eta_tx": _dx(eta_t, h),
        "eta_tt": eta_tt,
        "eta_txx": _dt(eta_xx_all, k),
    }
    _require_positive_slope(jets["eta_x"])
    return jets, list(range(1, g.n_time - 1))


def phase_field(s: Section):
    """Z-field sampled from the trajectory: shape (levels, n_space, 6).

    Momenta come from the closed forms applied to the finite-difference
    jets; no interpolation.
    """
    jets, levels = section_to_jets(s)
    p = legendre(Jet3Sample(**jets))
    return np.stack([p.eta, p.eta_x, p.eta_t, p.px, p.pt, p.ptx], axis=-1), levels


def hamilton_residuals(z: np.ndarray, g: GridSpec, levels=None):
    """Componentwise residual of B1 Z_x + B0 Z_t - grad H(Z).

    Four components are pointwise identities of the momenta (they vanish
    to discretization order); the first component reproduces the field
    equation residual.  Returns (res, levels) on the interior levels of
    the supplied Z-field.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[0] < 3:
        raise OutOfRange("need at least 3 time levels of Z for time derivatives")
    zx = np.empty_like(z)
    for m in range(6):
        lift = g.domain_length if m == 0 else 0.0
        zx[..., m] = _dx(z[..., m], g.h, lift)
    zt = _dt(z, g.k)
    zin = z[1:-1]
    res = (
        np.einsum("mn,...n->...m", B1, zx[1:-1])
        + np.einsum("mn,...n->...m", B0, zt)
        - grad_hamiltonian_phase(zin)
    )
    if levels is None:
        levels = list(range(z.shape[0]))
    return res, list(levels)[1:-1]


def conservation_residual(z: np.ndarray, g: GridSpec, levels=None):
    """r = d/dx w1(Z_t, Z_x) + d/dt w0(Z_t, Z_x); near zero on resolved
    solutions.  Returns (r, levels) two levels inside the supplied field."""
    z = np.asarray(z, dtype=float)
    if z.shape[0] < 5:
        raise OutOfRange("need at least 5 time levels of Z")
    zx = np.empty_like(z)
    for m in range(6):
        lift = g.domain_length if m == 0 else 0.0
        zx[..., m] = _dx(z[..., m], g.h, lift)
    zt = _dt(z, g.k)
    s1, s0 = omega_pair(zt, zx[1:-1])
    r = _dx(s1, g.h)[1:-1] + _dt(s0, g.k)
    if levels is None:
        levels = list(range(z.shape[0]))
    return r, list(levels)[2:-2]


def continuous_el_residual(s: Section):
    """Finite-difference residual of the continuous field equation

        ((eta_tx/eta_x)**2 - eta_t**2)_x / 2 - (eta_x eta_t)_t
            + (eta_tx/eta_x)_xt

    evaluated with nested central differences.  Returns (res, levels).
    """
    g = s.grid
    if g.n_time < 5:
        raise OutOfRange("need at least 5 time levels")
    jets, levels = section_to_jets(s)
    ratio = jets["eta_tx"] / jets["eta_x"]
    flux = 0.5 * (ratio**2 - jets["eta_t"] ** 2)
    momentum = jets["eta_x"] * jets["eta_t"]
    res = _dx(flux, g.h)[1:-1] - _dt(momentum, g.k) + _dt(_dx(ratio, g.h), g.k)
    return res, levels[1:-1]

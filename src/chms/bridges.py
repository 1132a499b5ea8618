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


def _momenta(eta_x, eta_t, eta_xx, eta_tx, eta_txx) -> tuple:
    """(px, pt, ptx) of a jet, the momenta of legendre."""
    ptx = eta_tx / eta_x
    px = 0.5 * (eta_t * eta_t - ptx * ptx)
    pt = eta_x * eta_t - (eta_txx * eta_x - eta_tx * eta_xx) / (eta_x * eta_x)
    return px, pt, ptx


def _require_positive(eta_x) -> None:
    if not np.all(np.asarray(eta_x) > 0.0):  # NaN fails too
        raise NonMonotone("eta_x must be positive")


def legendre(eta, eta_x, eta_t, eta_xx, eta_tx, eta_txx) -> np.ndarray:
    """The phase point Z = (eta, eta_x, eta_t, px, pt, ptx) of a jet, with
    the momenta conjugate to (eta, eta_x, eta_t):

        px  = (eta_t**2 - (eta_tx/eta_x)**2) / 2
        pt  = eta_x*eta_t - (eta_txx*eta_x - eta_tx*eta_xx) / eta_x**2
        ptx = eta_tx / eta_x

    The pt formula carries the spatial total derivative of ptx.  Jets of
    equal-shape arrays give shape + (6,); eta_x must be positive.
    """
    _require_positive(eta_x)
    return np.stack([eta, eta_x, eta_t, *_momenta(eta_x, eta_t, eta_xx, eta_tx, eta_txx)], axis=-1)


def _components(z) -> tuple:
    """The six components of a Z-field whose last axis holds them, as
    views."""
    return tuple(np.moveaxis(np.asarray(z, dtype=float), -1, 0))


def hamiltonian_phase(z: np.ndarray) -> np.ndarray:
    """H as a function on phase space (last axis holds the 6 components).

    H is defined as L - px*eta_x - pt*eta_t - ptx*eta_tx with L the
    density (lagrangian.eval_from_parts on eta_x, eta_t, eta_tx).
    Eliminating eta_tx = eta_x * ptx gives the polynomial
    H = eta_x*(eta_t**2 - ptx**2)/2 - px*eta_x - pt*eta_t.
    """
    _, etax, etat, px, pt, ptx = _components(z)
    return 0.5 * etax * (etat * etat - ptx * ptx) - px * etax - pt * etat


def _omega(u, v) -> tuple:
    """omega_pair on the six components of u and of v (sequences; their
    second entries are not read)."""
    w1 = (v[0] * u[3] - v[3] * u[0]) + (v[2] * u[5] - v[5] * u[2])
    w0 = v[0] * u[4] - v[4] * u[0]
    return w1, w0


def omega_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """(w1(u, v), w0(u, v)) for 6-vectors, w_nu(u, v) = v^T B_nu u.

    Written as paired products so skew-symmetry is exact in floating
    point; identical to the matrix pairing.
    """
    return _omega(_components(u), _components(v))


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


def _phase_rows(s: Section, lo: int, hi: int) -> tuple:
    """(Z, eta_tx) of the rows lo .. hi - 1 of s over their interior
    levels: the six components of Z, each of shape (hi - lo - 2,
    n_space), and eta_tx.  eta_x and eta_tx are _dx of the components
    eta and eta_t, bit for bit, taken once by the jets."""
    eta, eta_x, eta_t, eta_xx, eta_tx, eta_txx = _jets(s.xs() + s.displacement[lo:hi], s.grid)
    _require_positive(eta_x)
    return (eta, eta_x, eta_t, *_momenta(eta_x, eta_t, eta_xx, eta_tx, eta_txx)), eta_tx


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
    return np.stack(_phase_rows(s, lo, hi)[0], axis=-1)


# The three residual fields, each one kernel over the six components of
# Z (eta, eta_x, eta_t, px, pt, ptx), held as separate arrays, and their
# derivatives: zx on every level of Z, zt on its levels without the
# first and the last, None where no field reads one (the derivatives of
# eta_x).


def _derivatives(z: tuple, g: GridSpec, eta_x, eta_tx) -> tuple:
    """(zx, zt) of the components z, with eta_x and eta_tx as the
    x-derivatives of eta and eta_t."""
    zx = (eta_x, None, eta_tx, *(_dx(f, g.h) for f in z[3:]))
    zt = tuple(None if m == 1 else _dt(f, g.k) for m, f in enumerate(z))
    return zx, zt


def _field_derivatives(z: np.ndarray, g: GridSpec) -> tuple:
    """(z, zx, zt) of a Z-field whose last axis holds the components."""
    z = _components(z)
    return (z, *_derivatives(z, g, _dx(z[0], g.h, g.domain_length), _dx(z[2], g.h)))


def _hamilton(z: tuple, zx: tuple, zt: tuple):
    """The six components of hamilton_residuals in turn.  Row m of B1
    and of B0 holds at most one entry, +-1, so component m of
    B1 Z_x + B0 Z_t is that entry's component of Z_x or Z_t, or their
    sum, and minus grad H, from the polynomial of hamiltonian_phase, is
    written out after it: each component is the matrix form's, bit for
    bit on finite data.
    """
    eta_x, eta_t, px, pt, ptx = (f[1:-1] for f in z[1:])
    yield zx[3][1:-1] + zt[4]
    yield px - 0.5 * (eta_t * eta_t - ptx * ptx)
    yield zx[5][1:-1] - (eta_x * eta_t - pt)
    yield eta_x - zx[0][1:-1]
    yield eta_t - zt[0]
    yield eta_x * ptx - zx[2][1:-1]


def _conservation(zx: tuple, zt: tuple, g: GridSpec) -> np.ndarray:
    """conservation_residual from the derivatives of the components."""
    s1, s0 = _omega(zt, [None if f is None else f[1:-1] for f in zx])
    return _dx(s1, g.h)[1:-1] + _dt(s0, g.k)


def _continuous_el(z: tuple, zx: tuple, g: GridSpec) -> np.ndarray:
    """continuous_el_residual from the components and their
    x-derivatives."""
    return -zx[3][1:-1] - _dt(z[1] * z[2], g.k) + _dt(zx[5], g.k)


def hamilton_residuals(z: np.ndarray, g: GridSpec) -> np.ndarray:
    """Componentwise residual of B1 Z_x + B0 Z_t - grad H(Z).

    Four components are pointwise identities of the momenta (they vanish
    to discretization order); the first component reproduces the field
    equation residual.  It covers the levels of z without the first and
    the last: shape (max(len(z) - 2, 0), n_space, 6).
    """
    return np.stack(tuple(_hamilton(*_field_derivatives(z, g))), axis=-1)


def conservation_residual(z: np.ndarray, g: GridSpec) -> np.ndarray:
    """r = d/dx w1(Z_t, Z_x) + d/dt w0(Z_t, Z_x); near zero on resolved
    solutions.  It covers the levels of z without two at each end: shape
    (max(len(z) - 4, 0), n_space)."""
    _, zx, zt = _field_derivatives(z, g)
    return _conservation(zx, zt, g)


def continuous_el_residual(z: np.ndarray, g: GridSpec) -> np.ndarray:
    """Finite-difference residual of the continuous field equation

        ((eta_tx/eta_x)**2 - eta_t**2)_x / 2 - (eta_x eta_t)_t
            + (eta_tx/eta_x)_xt

    evaluated with nested central differences on the Z-field, in which
    ptx = eta_tx/eta_x and the flux term is -px.  It covers the levels
    of z without the first and the last: shape (max(len(z) - 2, 0),
    n_space).
    """
    z, zx, _ = _field_derivatives(z, g)
    return _continuous_el(z, zx, g)


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

    The rows go in blocks (_blocks): each block's jets are built once
    (_phase_rows) and all three fields are evaluated on its six Z
    components, with eta_x and eta_tx as the x-derivatives of eta and
    eta_t and no other derivative formed twice.  Every entry of a field
    is computed from its own neighbourhood of rows alone, so each block
    maximum is bit for bit the whole field's maximum over the block's
    levels.  Hamilton and field-equation levels beside a seam are
    evaluated twice, which a maximum cannot see.  np.maximum folds the
    maxima of the blocks and of the Hamilton components, so a NaN
    propagates as np.max over the whole field would.
    """
    g = s.grid
    maxima = dict.fromkeys(("conservation_residual_max", "hamilton_residuals_max", "continuous_el_residual_max"))

    def fold(key, f):
        if f.size:
            m = np.abs(f, out=f).max()
            maxima[key] = m if maxima[key] is None else np.maximum(maxima[key], m)

    for lo, hi in _blocks(g.n_time, g.n_space):
        z, eta_tx = _phase_rows(s, lo, hi)
        zx, zt = _derivatives(z, g, z[1], eta_tx)
        fold("conservation_residual_max", _conservation(zx, zt, g))
        for f in _hamilton(z, zx, zt):
            fold("hamilton_residuals_max", f)
        fold("continuous_el_residual_max", _continuous_el(z, zx, g))
    return {key: None if m is None else float(m) for key, m in maxima.items()}

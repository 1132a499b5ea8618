"""Discrete Lagrangian on one rectangle and its exact derivatives.

Everything is written in the difference variables of a rectangle with
corner values (y1, y2, y3, y4) and spacings (h, k):

    a = (y2 - y1) / h              discrete eta_x  (bottom edge)
    b = (y4 - y1) / k              discrete eta_t  (left edge)
    c = (y3 - y2 - y4 + y1) / (h k)   discrete eta_tx

in which the rectangle Lagrangian is L = (a*b**2 + c**2/a) / 2, the same
expression as the continuous density evaluated on (a, b, c).  The closed
form first and second partials below were derived by hand once and are
pinned against finite differences in the test suite.

The kernels take arrays with one entry per rectangle (any shape; the
row solver passes rectangle rows), so each quantity has one vectorized
path.
"""

from __future__ import annotations

import numpy as np

from .errors import NonMonotone

#: Stencils with y2 - y1 <= DELTA_MIN_FACTOR * h are rejected: the
#: Lagrangian is singular at eta_x = 0 (wave breaking), and failing
#: loudly beats returning huge finite values.
DELTA_MIN_FACTOR = 1e-8


def continuous_density(etax: float, etat: float, etatx: float) -> float:
    """Continuous Lagrangian density (etax*etat**2 + etatx**2/etax) / 2.

    Only the three derivatives the density actually depends on appear.
    Scalars or arrays of samples.
    """
    if np.any(etax <= 0.0):
        raise NonMonotone(f"etax must be positive (min found {np.min(etax):g})")
    return 0.5 * (etax * etat * etat + etatx * etatx / etax)


# ---------------------------------------------------------------------------
# Vectorized kernels over arrays of rectangles (one entry per rectangle).


def stencil_parts(y1, y2, y3, y4, h: float, k: float):
    """(a, b, c) arrays for a batch of rectangles; rejects non-monotone
    bottom edges.

    c is grouped as the difference of the two vertical edges so that the
    large label values cancel pairwise before the small mixed difference
    is formed (the edges are differences of nearby labels and therefore
    exact in floating point).
    """
    y1, y2, y3, y4 = (np.asarray(y, dtype=float) for y in (y1, y2, y3, y4))
    dy = y2 - y1
    if np.any(dy <= DELTA_MIN_FACTOR * h):
        raise NonMonotone(
            f"y2 - y1 must exceed {DELTA_MIN_FACTOR * h:g} (min found {np.min(dy):g})"
        )
    return dy / h, (y4 - y1) / k, ((y3 - y2) - (y4 - y1)) / (h * k)


def grad_from_parts(a, b, c, h: float, k: float):
    """(g1, g2, g3, g4) arrays for a batch of rectangles: dL/dy_l.

    L depends only on differences of the corner values, so the four
    components sum to zero up to roundoff.
    """
    la_h = 0.5 * (b * b - (c / a) ** 2) / h
    lb_k = a * b / k
    w = (c / a) / (h * k)
    g1 = -la_h - lb_k + w
    g2 = la_h - w
    g3 = w
    g4 = lb_k - w
    return g1, g2, g3, g4


def eval_from_parts(a, b, c):
    """Rectangle Lagrangian for a batch of rectangles."""
    return 0.5 * (a * b * b + c * c / a)


def jacobian_bands(a, b, c, h: float, k: float):
    """Cyclic tridiagonal bands coupling a residual row to the next row.

    The residual at point i reaches the unknown row through H13 and H14
    of its up-right rectangle and H23, H24 of its up-left one:

        H13 = E,  H23 = -E,  H24 = E + b/(hk),  H14 = -a/k**2 - E - b/(hk)

    with the corner entry E = 1/(a h**2 k**2) + c/(a**2 h**2 k).
    Returns (lower, diag, upper) indexed by the residual point; stacked
    rows (space along the last axis) give the bands of every row.
    """
    corner = 1.0 / (a * h * h * k * k) + c / (a * a * h * h * k)
    bh = b / (h * k)
    upper = corner
    lower = np.roll(corner + bh, 1, axis=-1)
    diag = -a / (k * k) - corner - bh - np.roll(corner, 1, axis=-1)
    return lower, diag, upper


def hess_full_from_parts(a, b, c, h: float, k: float) -> np.ndarray:
    """Full Hessian batch d2L/dy_k dy_l, shape a.shape + (4, 4).

    Exactly symmetric; each row sums to zero up to roundoff (the
    differentiated translation invariance).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    laa = c * c / a**3
    lac = -c / (a * a)
    lbb = a
    lcc = 1.0 / a
    da = np.array([-1.0 / h, 1.0 / h, 0.0, 0.0])
    db = np.array([-1.0 / k, 0.0, 0.0, 1.0 / k])
    q = 1.0 / (h * k)
    dc = np.array([q, -q, q, -q])
    out = (
        laa[..., None, None] * np.outer(da, da)
        + lbb[..., None, None] * np.outer(db, db)
        + lcc[..., None, None] * np.outer(dc, dc)
        + b[..., None, None] * (np.outer(da, db) + np.outer(db, da))
        + lac[..., None, None] * (np.outer(da, dc) + np.outer(dc, da))
    )
    return out

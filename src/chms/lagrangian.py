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

Scalar operations work on :class:`Stencil`; the ``*_parts`` functions are
vectorized kernels over arrays of rectangles used by the row solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonMonotone

#: Stencils with y2 - y1 <= DELTA_MIN_FACTOR * h are rejected: the
#: Lagrangian is singular at eta_x = 0 (wave breaking), and failing
#: loudly beats returning huge finite values.
DELTA_MIN_FACTOR = 1e-8


@dataclass(frozen=True)
class Stencil:
    """One rectangle's four corner values plus the lattice spacings."""

    y1: float
    y2: float
    y3: float
    y4: float
    h: float
    k: float


@dataclass(frozen=True)
class GradL:
    """Partial derivatives of the rectangle Lagrangian, dL/dy_l.

    Because L depends only on differences of the corner values, the four
    components sum to zero (up to roundoff).
    """

    g1: float
    g2: float
    g3: float
    g4: float

    def component(self, l: int) -> float:
        return (self.g1, self.g2, self.g3, self.g4)[l - 1]

    def as_array(self) -> np.ndarray:
        return np.array([self.g1, self.g2, self.g3, self.g4])


@dataclass(frozen=True, eq=False)
class HessL:
    """Symmetric 4x4 matrix of second partials d2L/dy_k dy_l.

    Rows sum to zero (differentiated translation invariance).
    """

    matrix: np.ndarray

    def entry(self, k: int, l: int) -> float:
        return float(self.matrix[k - 1, l - 1])


def _parts_checked(y1, y2, y3, y4, h, k):
    """Difference variables (a, b, c); rejects non-monotone bottom edges.

    c is grouped as the difference of the two vertical edges so that the
    large label values cancel pairwise before the small mixed difference
    is formed (the edges are differences of nearby labels and therefore
    exact in floating point).
    """
    dy = y2 - y1
    if np.any(dy <= DELTA_MIN_FACTOR * h):
        raise NonMonotone(
            f"y2 - y1 must exceed {DELTA_MIN_FACTOR * h:g} (min found {np.min(dy):g})"
        )
    return dy / h, (y4 - y1) / k, ((y3 - y2) - (y4 - y1)) / (h * k)


def eval_L(s: Stencil) -> float:
    """Rectangle Lagrangian (a*b**2 + c**2/a) / 2."""
    a, b, c = _parts_checked(s.y1, s.y2, s.y3, s.y4, s.h, s.k)
    return 0.5 * (a * b * b + c * c / a)


def grad_L(s: Stencil) -> GradL:
    """Exact first partials of the rectangle Lagrangian."""
    a, b, c = _parts_checked(s.y1, s.y2, s.y3, s.y4, s.h, s.k)
    g1, g2, g3, g4 = _grad_from_parts(a, b, c, s.h, s.k)
    return GradL(float(g1), float(g2), float(g3), float(g4))


def hess_L(s: Stencil) -> HessL:
    """Exact second partials, assembled from one triangle so the matrix
    is symmetric by construction."""
    a, b, c = _parts_checked(s.y1, s.y2, s.y3, s.y4, s.h, s.k)
    laa = c * c / a**3
    lab = b
    lac = -c / (a * a)
    lbb = a
    lcc = 1.0 / a
    da = (-1.0 / s.h, 1.0 / s.h, 0.0, 0.0)
    db = (-1.0 / s.k, 0.0, 0.0, 1.0 / s.k)
    q = 1.0 / (s.h * s.k)
    dc = (q, -q, q, -q)
    m = np.empty((4, 4))
    for r in range(4):
        for col in range(r, 4):
            v = (
                laa * da[r] * da[col]
                + lbb * db[r] * db[col]
                + lcc * dc[r] * dc[col]
                + lab * (da[r] * db[col] + db[r] * da[col])
                + lac * (da[r] * dc[col] + dc[r] * da[col])
            )
            m[r, col] = v
            m[col, r] = v
    return HessL(m)


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
    """(a, b, c) arrays for a batch of rectangles; checks monotonicity."""
    return _parts_checked(
        np.asarray(y1, dtype=float),
        np.asarray(y2, dtype=float),
        np.asarray(y3, dtype=float),
        np.asarray(y4, dtype=float),
        h,
        k,
    )


def _grad_from_parts(a, b, c, h: float, k: float):
    la_h = 0.5 * (b * b - (c / a) ** 2) / h
    lb_k = a * b / k
    w = (c / a) / (h * k)
    g1 = -la_h - lb_k + w
    g2 = la_h - w
    g3 = w
    g4 = lb_k - w
    return g1, g2, g3, g4


def grad_from_parts(a, b, c, h: float, k: float):
    """(g1, g2, g3, g4) arrays for a batch of rectangles."""
    return _grad_from_parts(a, b, c, h, k)


def eval_from_parts(a, b, c):
    """Rectangle Lagrangian for a batch of rectangles."""
    return 0.5 * (a * b * b + c * c / a)


def jacobian_bands(a, b, c, h: float, k: float):
    """Cyclic tridiagonal bands coupling a residual row to the next row.

    The residual at point i reaches the unknown row through H13 and H14
    of its up-right rectangle and H23, H24 of its up-left one:

        H13 = E,  H23 = -E,  H24 = E + b/(hk),  H14 = -a/k**2 - E - b/(hk)

    with the corner entry E = 1/(a h**2 k**2) + c/(a**2 h**2 k).
    Returns (lower, diag, upper) indexed by the residual point.
    """
    corner = 1.0 / (a * h * h * k * k) + c / (a * a * h * h * k)
    bh = b / (h * k)
    upper = corner
    lower = np.roll(corner + bh, 1)
    diag = -a / (k * k) - corner - bh - np.roll(corner, 1)
    return lower, diag, upper


def hess_full_from_parts(a, b, c, h: float, k: float) -> np.ndarray:
    """Full Hessian batch, shape a.shape + (4, 4)."""
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

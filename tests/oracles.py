"""Scalar oracles that the tests compare the package against.

They keep their own per-point bookkeeping on the periodic lattice: the
rectangles touching a point, a window's interior and boundary points,
the pointwise residuals (among them the ten-term expanded form), the
boundary-sum terms point by point, and the per-row momentum and action.  None of it shares assembly code
with the row kernels of ``chms``; the value on one rectangle comes from
a one-element call of the batch kernels in ``chms.lagrangian``.  The one
exception is ``first_variation_residual_row``: it applies the tangent
march's own row assembly to a given tangent field, so that the tests can
hold that assembly against the pointwise form.  The
two-sweep cyclic solve is the reference that the package's one-sweep
solver must reproduce bit for bit.
"""

import numpy as np

from chms.del_solver import Section, _level_equation
from chms.errors import OutOfRange, SingularJacobian
from chms.geometry_checks import _linear_terms, _row_hess, omega_from_hess
from chms.lagrangian import eval_from_parts, grad_from_parts, hess_full_from_parts, stencil_parts

# ---------------------------------------------------------------------------
# One rectangle: corner values y = (y1, y2, y3, y4) and spacings (h, k).


def rect_parts(y, h, k):
    return stencil_parts(*np.reshape(np.asarray(y, dtype=float), (4, 1)), h, k)


def rect_value(y, h, k) -> float:
    """Rectangle Lagrangian."""
    return float(eval_from_parts(*rect_parts(y, h, k))[0])


def rect_grad(y, h, k) -> np.ndarray:
    """(dL/dy1, dL/dy2, dL/dy3, dL/dy4)."""
    return np.concatenate(grad_from_parts(*rect_parts(y, h, k), h, k))


def rect_hess(y, h, k) -> np.ndarray:
    """4x4 matrix of second partials d2L/dy_k dy_l."""
    return hess_full_from_parts(*rect_parts(y, h, k), h, k)[0]


def rect_omega(y, h, k, v, w) -> np.ndarray:
    """The four two-forms (omega_1, ..., omega_4) from ``omega_from_hess``."""
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    return omega_from_hess(rect_hess(y, h, k)[None], v[:, None], w[:, None])[:, 0]


def omega_l(y, h, k, v, w, l: int) -> float:
    """l-th rectangle two-form, sum_k d2L/dy_k dy_l * (v_k w_l - v_l w_k),
    summed term by term."""
    m = rect_hess(y, h, k)
    vl, wl = v[l - 1], w[l - 1]
    return float(sum(m[kk, l - 1] * (v[kk] * wl - vl * w[kk]) for kk in range(4)))


# ---------------------------------------------------------------------------
# Lattice bookkeeping.  Rectangle (i, j) has first vertex (i, j) and
# vertices 1 -> (i, j), 2 -> (i+1, j), 3 -> (i+1, j+1), 4 -> (i, j+1);
# its i is stored modulo n_space.

VERTEX_OFFSETS = ((0, 0), (1, 0), (1, 1), (0, 1))


def vertex(rect, l: int) -> tuple[int, int]:
    """Lattice point of vertex l in {1, 2, 3, 4} (spatial part unwrapped)."""
    di, dj = VERTEX_OFFSETS[l - 1]
    return rect[0] + di, rect[1] + dj


def rectangles_touching(p, g):
    """(rectangle, vertex index) pairs of the rectangles having p as a vertex.

    A point with both time neighbours present is touched by four
    rectangles, one per vertex index; points on the first or last time
    level are touched by two.
    """
    i, j = p
    if not 0 <= j <= g.n_time - 1:
        raise OutOfRange(f"time index {j} outside [0, {g.n_time - 1}]")
    candidates = (((i, j), 1), ((i - 1, j), 2), ((i - 1, j - 1), 3), ((i, j - 1), 4))
    return [((ri % g.n_space, rj), l) for (ri, rj), l in candidates if 0 <= rj <= g.n_time - 2]


def interior_points(r):
    return [(i, j) for j in range(r.j_lo + 1, r.j_hi) for i in range(r.grid.n_space)]


def boundary_points(r):
    return [(i, j) for j in (r.j_lo, r.j_hi) for i in range(r.grid.n_space)]


def contains_rect(r, rect) -> bool:
    return r.j_lo <= rect[1] <= r.j_hi - 1


# ---------------------------------------------------------------------------
# Values at single lattice points.


def label(s, i: int, j: int) -> float:
    """Label value y(i, j) with the periodic lift applied to the spatial index."""
    wraps, im = divmod(i, s.grid.n_space)
    return wraps * s.grid.domain_length + im * s.grid.h + s.displacement[j, im]


def corners(s, rect) -> np.ndarray:
    return np.array([label(s, *vertex(rect, l)) for l in (1, 2, 3, 4)])


def uniform_translation(g, c: float, offset: float = 0.0):
    """The exact solution y = x + offset + c*t."""
    t = g.k * np.arange(g.n_time)
    return Section(g, offset + c * t[:, None] + np.zeros((1, g.n_space)))


def _row_kernel_parts(s, j: int):
    """(a, b, c) over the rectangle row j, from corner rows built label by label."""
    n = s.grid.n_space
    rows = [np.array([label(s, *vertex((i, j), l)) for i in range(n)]) for l in (1, 2, 3, 4)]
    return stencil_parts(*rows, s.grid.h, s.grid.k)


def row_momentum(s, j: int) -> float:
    """Sum of dL/dy3 + dL/dy4 over the rectangle row j."""
    _, _, g3, g4 = grad_from_parts(*_row_kernel_parts(s, j), s.grid.h, s.grid.k)
    return float(np.sum(g3 + g4))


def row_action(s, j: int) -> float:
    """Sum of the rectangle Lagrangian over the rectangle row j."""
    return float(np.sum(eval_from_parts(*_row_kernel_parts(s, j))))


def tangent_corners(t, rect) -> np.ndarray:
    """Tangent values at the four vertices (tangents are periodic, no lift)."""
    n = t.grid.n_space
    return np.array([t.values[jj, ii % n] for ii, jj in (vertex(rect, l) for l in (1, 2, 3, 4))])


def _require_interior(g, p):
    if not 1 <= p[1] <= g.n_time - 2:
        raise OutOfRange(f"point {p} is not interior in time")


def del_residual(s, p) -> float:
    """Sum of dL/dy_l over the four rectangles touching the interior point p:
    the derivative of the action sum with respect to y at p."""
    _require_interior(s.grid, p)
    h, k = s.grid.h, s.grid.k
    touching = rectangles_touching(p, s.grid)
    return sum(rect_grad(corners(s, rect), h, k)[l - 1] for rect, l in touching)


def del_residual_expanded(s, p) -> float:
    """Ten-term expanded form of the interior equations at p."""
    _require_interior(s.grid, p)
    i, j = p
    h, k = s.grid.h, s.grid.k

    def dk(ii, jj):
        return label(s, ii, jj + 1) - label(s, ii, jj)

    def dh(ii, jj):
        return label(s, ii + 1, jj) - label(s, ii, jj)

    hk2 = h * k * k
    return (
        (dk(i + 1, j) - dk(i, j)) ** 2 / (2.0 * hk2 * dh(i, j) ** 2)
        - (dk(i, j) - dk(i - 1, j)) ** 2 / (2.0 * hk2 * dh(i - 1, j) ** 2)
        - dk(i, j) ** 2 / (2.0 * hk2)
        + dk(i - 1, j) ** 2 / (2.0 * hk2)
        + (dk(i + 1, j) - dk(i, j)) / (hk2 * dh(i, j))
        - (dk(i, j) - dk(i - 1, j)) / (hk2 * dh(i - 1, j))
        - (dk(i + 1, j - 1) - dk(i, j - 1)) / (hk2 * dh(i, j - 1))
        + (dk(i, j - 1) - dk(i - 1, j - 1)) / (hk2 * dh(i - 1, j - 1))
        - dh(i, j) * dk(i, j) / hk2
        + dh(i, j - 1) * dk(i, j - 1) / hk2
    )


def first_variation_residual(phi, t, p) -> float:
    """Linearized-equation residual of a tangent field at the interior point p."""
    _require_interior(phi.grid, p)
    h, k = phi.grid.h, phi.grid.k
    total = 0.0
    for rect, l in rectangles_touching(p, phi.grid):
        m = rect_hess(corners(phi, rect), h, k)
        tv = tangent_corners(t, rect)
        total += float(sum(m[kk, l - 1] * tv[kk] for kk in range(4)))
    return total


def first_variation_residual_row(phi, t, j: int) -> np.ndarray:
    """The tangent march's row assembly applied to a given tangent field:
    the linearized-equation residual at every point of the level j."""
    top = _linear_terms(_row_hess(phi, j), t.row(j), t.row(j + 1))
    bot = _linear_terms(_row_hess(phi, j - 1), t.row(j - 1), t.row(j))
    return _level_equation(top, bot)[0]


# ---------------------------------------------------------------------------
# Boundary sums: one term per boundary point and touching member rectangle.


def boundary_terms(phi, region, term):
    out = []
    for p in boundary_points(region):
        for rect, l in rectangles_touching(p, phi.grid):
            if contains_rect(region, rect):
                out.append(term(rect, l))
    return np.array(out)


def noether_terms(phi, xi, region):
    """Momentum maps dL/dy_l * xi."""
    h, k = phi.grid.h, phi.grid.k
    return boundary_terms(
        phi, region, lambda rect, l: rect_grad(corners(phi, rect), h, k)[l - 1] * xi.xi
    )


def mff_terms(phi, v, w, region):
    h, k = phi.grid.h, phi.grid.k

    def term(rect, l):
        return omega_l(
            corners(phi, rect), h, k, tangent_corners(v, rect), tangent_corners(w, rect), l
        )

    return boundary_terms(phi, region, term)


# ---------------------------------------------------------------------------
# Cyclic tridiagonal solve: Sherman-Morrison around two separate
# elimination sweeps on numpy scalars, one per right-hand side.


def thomas(lower, diag, upper, rhs):
    n = diag.size
    cp = np.empty(n)
    dp = np.empty(n)
    piv = diag[0]
    if piv == 0.0 or not np.isfinite(piv):
        raise SingularJacobian("zero pivot in tridiagonal elimination")
    cp[0] = upper[0] / piv
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i] * cp[i - 1]
        if piv == 0.0 or not np.isfinite(piv):
            raise SingularJacobian(f"zero pivot at row {i}")
        cp[i] = upper[i] / piv
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / piv
    x = np.empty(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def cyclic_solve(lower, diag, upper, rhs):
    """Banded path only (n >= 8), same conventions as the package solver."""
    n = diag.size
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= lower[0] * upper[-1] / gamma
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = upper[-1]
    y = thomas(lower, d, upper, rhs)
    z = thomas(lower, d, upper, u)
    denom = 1.0 + z[0] + (lower[0] / gamma) * z[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise SingularJacobian("singular Sherman-Morrison correction")
    factor = (y[0] + (lower[0] / gamma) * y[-1]) / denom
    return y - factor * z

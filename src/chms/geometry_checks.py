"""Discrete structure diagnostics: boundary one/two-forms, tangent-linear
solutions, momentum maps, and the conservation boundary sums.

Two theorems drive the checks.  For any two tangent-linear (first
variation) solutions V, W along a solution of the field equations, the
boundary sum of the rectangle two-forms vanishes; and for the fiber
translation symmetry the boundary sum of the momentum maps vanishes,
which telescopes into a per-level conserved total momentum.  Both sums
are generically nonzero off shell, so the diagnostics distinguish
solutions from non-solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotOnShell, SingularJacobian
from .grid import classify_region
from .del_solver import (
    ON_SHELL_FACTOR,
    Section,
    SolverConfig,
    _level_equation,
    _row_blocks,
    section_parts,
    solve_cyclic_tridiagonal,
)
from .lagrangian import _shift, eval_from_parts, grad_from_parts, jacobian_bands


@dataclass(frozen=True)
class SymmetryGenerator:
    """Fiber translation generator: the constant vertical field xi."""

    xi: float


def _tangent_rects(vlo: np.ndarray, vhi: np.ndarray) -> np.ndarray:
    """Tangent rectangles of a rectangle row, shape (4,) + vlo.shape:
    vertex l's values in row l - 1 (tangents are periodic, no lift).
    Stacked tangent rows carry space along the last axis."""
    return np.stack([vlo, _shift(vlo, 1), _shift(vhi, 1), vhi])


# ---------------------------------------------------------------------------
# Tangent-linear (first variation) marching.


def _tangent_parts(vlo: np.ndarray, vhi: np.ndarray, h: float, k: float):
    """(da, db, dc): a tangent's difference variables over a rectangle
    row, from its rows vlo (bottom) and vhi (top), grouped as
    stencil_parts groups (a, b, c) (tangents are periodic, no lift)."""
    v2, v3 = _shift(vlo, 1), _shift(vhi, 1)
    return (v2 - vlo) / h, (vhi - vlo) / k, ((v3 - v2) - (vhi - vlo)) / (h * k)


def _linear_terms(a, b, c, h: float, k: float, vlo: np.ndarray, vhi: np.ndarray) -> np.ndarray:
    """(4,) + vlo.shape: sum_k d2L/dy_k dy_l * V_k over a rectangle row
    with parts (a, b, c), for each vertex l, with the tangent rows vlo
    (bottom) and vhi (top), one per tangent of a stack.

    The Hessian is applied as the linearized gradient: the tangent's
    difference variables (da, db, dc) give dL_p = sum_q L_pq dq for
    p, q in (a, b, c), with L_aa = c^2/a^3, L_ab = b, L_ac = -c/a^2,
    L_bb = a, L_bc = 0 and L_cc = 1/a, and the vertex terms follow the
    gradient's.  No per-rectangle 4x4 Hessian is formed.
    """
    da, db, dc = _tangent_parts(vlo, vhi, h, k)
    ca2 = c / (a * a)
    la_h = ((c * ca2 / a) * da + b * db - ca2 * dc) / h
    lb_k = (b * da + a * db) / k
    w = (dc / a - ca2 * da) / (h * k)
    return np.stack([-la_h - lb_k + w, la_h - w, w, lb_k - w])


def two_forms(a, b, c, h: float, k: float, v, w) -> np.ndarray:
    """Rectangle two-forms over a rectangle row with parts (a, b, c), for
    the tangents v and w, each a (bottom, top) pair of rows:

        omega_l(v, w) = sum_k d2L/dy_k dy_l * (v_k w_l - v_l w_k)
                      = w_l (Hv)_l - v_l (Hw)_l,

    since the Hessian H is symmetric; Hv and Hw come from _linear_terms.
    Shape (4,) + the rows' shape.  omega(v, v) and constant pairs are
    exactly 0.0, and omega(v, w) = -omega(w, v) bit for bit.
    """
    hv, hw = _linear_terms(a, b, c, h, k, *v), _linear_terms(a, b, c, h, k, *w)
    return _tangent_rects(*w) * hv - _tangent_rects(*v) * hw


def solve_first_variation(
    phi: Section, v0: np.ndarray, cfg: SolverConfig | None = None
) -> np.ndarray:
    """March the tangent-linear equations forward along a solution.

    v0 holds the two initial rows of one tangent, shape (2, n_space), and
    gives its field V[j, i], shape (n_time, n_space); a stack of m
    tangents, shape (m, 2, n_space), gives shape (m, n_time, n_space).
    Tangents are periodic in i (no identity lift).  Each new tangent row
    solves the same cyclic tridiagonal system as the Newton step at the
    converged rows, so constants and any other tangent-linear solution
    are propagated to linear-solve accuracy.  Each level is first checked
    on shell; the first level that is not raises NotOnShell.  The tangents
    of a stack share one elimination per level (solve_cyclic_tridiagonal
    on the stack of their right-hand sides), and each has its own residual
    bound; every step is that of its own solve, so each tangent comes out
    bit for bit as marching it alone would give it.
    """
    cfg = cfg or SolverConfig()
    g = phi.grid
    n, levels = g.n_space, g.n_time
    v0 = np.asarray(v0, dtype=float)
    if v0.ndim not in (2, 3) or v0.shape[-2:] != (2, n):
        raise ValueError("v0 must hold two tangent rows, or a stack of such pairs")
    stack = v0.reshape(-1, 2, n)
    vals = np.empty((len(stack), levels, n))  # tangent, level, space
    vals[:, :2] = stack
    h, k, tol = g.h, g.k, cfg.tol_residual
    zeros = np.zeros_like(vals[:, 0])
    # One pass gives every rectangle's parts.  Rectangle row j is the top
    # row at level j and the bottom row at level j + 1, so its gradient,
    # bands and linear terms (level j's check, level j + 1's bottom) are
    # built once, for every tangent.
    a, b, c = section_parts(phi)
    grad_lo = grad_from_parts(a[0], b[0], c[0], h, k)
    bot = _linear_terms(a[0], b[0], c[0], h, k, vals[:, 0], vals[:, 1])
    for j in range(1, levels - 1):
        parts = a[j], b[j], c[j]
        grad_hi = grad_from_parts(*parts, h, k)
        res, scale = _level_equation(grad_hi, grad_lo)
        norm, bound = float(np.max(np.abs(res))), ON_SHELL_FACTOR * tol * max(1.0, scale)
        if norm > bound:
            raise NotOnShell(
                f"residual {norm:g} at level {j} exceeds {bound:g}; "
                "the base section does not solve the field equations"
            )
        rhs, _ = _level_equation(_linear_terms(*parts, h, k, vals[:, j], zeros), bot)
        vals[:, j + 1] = solve_cyclic_tridiagonal(*jacobian_bands(*parts, h, k), -rhs)
        top = _linear_terms(*parts, h, k, vals[:, j], vals[:, j + 1])
        res, scale = _level_equation(top, bot)
        norm = np.max(np.abs(res), axis=-1)
        bad = norm > tol * np.maximum(1.0, scale)
        if np.any(bad):
            raise SingularJacobian(
                f"tangent row solve at level {j} left residual {norm[np.argmax(bad)]:g}"
            )
        grad_lo, bot = grad_hi, top
    return vals.reshape(v0.shape[:-2] + (levels, n))


# ---------------------------------------------------------------------------
# Boundary sums over a full-circle window (j_lo, j_hi), checked by
# grid.classify_region.  Its sides cancel by periodicity, so its boundary
# is rows j_lo and j_hi.


def _window_terms(phi: Section, window, vertex_terms) -> np.ndarray:
    """The 4 * n_space summands of a boundary sum over the window
    (j_lo, j_hi), flat: vertices 1, 2 of rectangle row j_lo, then 3, 4 of
    rectangle row j_hi - 1, from vertex_terms(parts, j), the four vertex
    terms of rectangle row j with parts (a, b, c), each (1, n_space)."""
    j_lo, j_hi = classify_region(*window, phi.grid)
    lo = vertex_terms(section_parts(phi, j_lo, j_lo + 1), j_lo)
    hi = vertex_terms(section_parts(phi, j_hi - 1, j_hi), j_hi - 1)
    return np.concatenate([*lo[:2], *hi[2:]]).ravel()


def mff_boundary_terms(phi: Section, v: np.ndarray, w: np.ndarray, window) -> np.ndarray:
    """Individual summands of the two-form boundary sum over the window
    (j_lo, j_hi), for two tangent fields of shape (n_time, n_space)."""
    h, k = phi.grid.h, phi.grid.k
    # Each tangent's rows j and j + 1 enter stacked as one rectangle row.
    return _window_terms(
        phi, window, lambda p, j: two_forms(*p, h, k, v[j : j + 2, None], w[j : j + 2, None])
    )


def noether_boundary_terms(phi: Section, xi: SymmetryGenerator, window) -> np.ndarray:
    """Individual summands of the momentum-map boundary sum over the
    window (j_lo, j_hi)."""
    h, k = phi.grid.h, phi.grid.k
    return xi.xi * _window_terms(phi, window, lambda p, _: grad_from_parts(*p, h, k))


def level_series(phi: Section) -> tuple[list[float], list[float]]:
    """Per rectangle row j = 0 .. n_time - 2: the total momentum, the sum
    of (dL/dy3 + dL/dy4) with unit fiber translation, and the action,
    the sum of L.

    The momentum boundary sum over any window telescopes into differences
    of the total momentum, so its drift across levels is the conservation
    violation.  One blocked pass gives both sums: the parts of a block of
    rectangle rows (del_solver._row_blocks) are built at once and summed
    along space, which gives each row's sums bit for bit as that row
    alone would, and holds no more than one block's temporaries.
    """
    g = phi.grid
    momenta, actions = [], []
    for lo, hi in _row_blocks(g.n_time - 1, g.n_space):
        parts = section_parts(phi, lo, hi)
        _, _, g3, g4 = grad_from_parts(*parts, g.h, g.k)
        momenta += np.sum(g3 + g4, axis=-1).tolist()
        actions += np.sum(eval_from_parts(*parts), axis=-1).tolist()
    return momenta, actions


def total_momentum_scale(phi: Section, j: int) -> float:
    """Sum of |dL/dy3| + |dL/dy4| over the rectangle row j: the natural
    magnitude against which momentum drift is measured."""
    _, _, g3, g4 = grad_from_parts(*section_parts(phi, j, j + 1), phi.grid.h, phi.grid.k)
    return float(np.sum(np.abs(g3) + np.abs(g4)))

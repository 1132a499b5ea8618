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
    _level_solver,
    _row_blocks,
    section_parts,
    solve_cyclic_tridiagonal,  # noqa: F401  (a binding that perfbench's tracer test checks)
)
from .lagrangian import _shift, eval_from_parts, grad_12, grad_34, grad_from_parts, jacobian_bands


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


def _tangent_parts(vlo: np.ndarray, h: float, k: float):
    """parts(vhi): (da, db, dc), a tangent's difference variables over a
    rectangle row with rows vlo (bottom) and vhi (top), grouped as stencil_parts
    groups (a, b, c) (periodic, no lift); vlo's shift and da serve every vhi."""
    v2 = _shift(vlo, 1)
    da = (v2 - vlo) / h

    def parts(vhi: np.ndarray):
        dv = vhi - vlo
        return da, dv / k, ((_shift(vhi, 1) - v2) - dv) / (h * k)

    return parts


def _coefficients(a, b, c):
    """(a, b, c/a^2, c (c/a^2)/a): what the linear terms read of (a, b, c)."""
    ca2 = c / (a * a)
    return a, b, ca2, c * ca2 / a


def _vertex_terms(coef, h: float, k: float, da, db, dc, upper_only: bool = False):
    """Vertex terms 1-4 (1, 2 if upper_only) from _coefficients and (da, db, dc)."""
    a, b, ca2, cca = coef
    la_h = (cca * da + b * db - ca2 * dc) / h
    lb_k = (b * da + a * db) / k
    w = (dc / a - ca2 * da) / (h * k)
    upper = (-la_h - lb_k + w, la_h - w)
    return upper if upper_only else upper + (w, lb_k - w)


def _linear_terms(a, b, c, h: float, k: float, vlo: np.ndarray, vhi: np.ndarray) -> np.ndarray:
    """(4,) + vlo.shape: sum_k d2L/dy_k dy_l * V_k over a rectangle row
    with parts (a, b, c), for each vertex l, with the tangent rows vlo
    (bottom) and vhi (top), one per tangent of a stack.

    The Hessian is applied as the linearized gradient: the tangent's
    difference variables (da, db, dc) give dL_p = sum_q L_pq dq for
    p, q in (a, b, c), with L_aa = c^2/a^3, L_ab = b, L_ac = -c/a^2,
    L_bb = a, L_bc = 0 and L_cc = 1/a, and the vertex terms follow the
    gradient's (_vertex_terms).  No per-rectangle 4x4 Hessian is formed.
    """
    return np.stack(_vertex_terms(_coefficients(a, b, c), h, k, *_tangent_parts(vlo, h, k)(vhi)))


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
    are propagated to linear-solve accuracy.

    The levels go in blocks (del_solver._row_blocks), and the march holds
    one block's arrays at a time: the block's parts, gradients, on-shell
    residuals and bands come from one stacked pass, and its systems are
    factored at once (del_solver._level_solver: the scalar sweep below
    _PARTITION_MIN_N points, the partition method from there on), so each
    level only substitutes its tangents' right-hand sides.  Levels are read
    in order, each first checked on shell: the first level that is not
    raises NotOnShell, and a level whose system cannot be eliminated
    raises SingularJacobian naming it (and, as .row, the pivot's row),
    each only when the march reaches that level.  Each solved row is
    checked: its level residual must stay within tol_residual times the
    largest of 1, the residual's own scale and the solve's size (the
    level's largest absolute row sum of the bands times the row's largest
    magnitude), else SingularJacobian; a NaN residual fails the check.
    A v0 of the wrong shape, or not finite, raises ValueError.  The
    tangents of a stack share each level's factor, and each has its own
    residual bound; each tangent comes out bit for bit as marching it
    alone, one solve per level, gives it.
    """
    cfg = cfg or SolverConfig()
    n, levels = phi.grid.n_space, phi.grid.n_time
    v0 = np.asarray(v0, dtype=float)
    if v0.ndim not in (2, 3) or v0.shape[-2:] != (2, n):
        raise ValueError("v0 must hold two tangent rows, or a stack of such pairs")
    # min and max propagate NaN, so they test finiteness with no mask.
    if not (np.isfinite(v0.min()) and np.isfinite(v0.max())):
        raise ValueError("v0 must be finite")
    stack = v0.reshape(-1, 2, n)
    vals = np.empty((len(stack), levels, n))  # tangent, level, space
    vals[:, :2] = stack
    bot = None
    for lo, hi in _row_blocks(levels - 2, n):
        bot = _march_block(phi, vals, lo + 1, hi + 1, bot, cfg.tol_residual)
    return vals.reshape(v0.shape[:-2] + (levels, n))


def _march_block(phi: Section, vals: np.ndarray, j_lo: int, j_hi: int, bot, tol: float):
    """March the levels j_lo .. j_hi - 1 into vals, given the bottom
    vertex terms bot of level j_lo (None at level 1); returns those of
    level j_hi.  The on-shell gate's vertex terms and residual field go
    once their norms and scales are taken, and c once the bands and the
    linear terms' coefficients are formed, all before the factor."""
    h, k = phi.grid.h, phi.grid.k
    # Rectangle row j is the top row at level j and the bottom row at
    # level j + 1, so its linear terms (level j's check, level j + 1's
    # bottom) are built once, for every tangent.
    a, b, c = section_parts(phi, j_lo - 1, j_hi)
    # Level j reads vertices 1, 2 of rectangle row j and 3, 4 of row j - 1.
    res, scales = _level_equation(
        grad_12(a[1:], b[1:], c[1:], h, k), grad_34(a[:-1], b[:-1], c[:-1], h, k)
    )
    norms = np.abs(res).max(axis=-1)
    del res
    bands = jacobian_bands(a[1:], b[1:], c[1:], h, k)
    coef = _coefficients(a, b, c)
    del c
    # Each level's largest absolute row sum: a solve's rounding scales with
    # it times the solution, which the linear terms miss where they cancel
    # (a constant tangent has none).
    sizes = sum(np.abs(band) for band in bands).max(axis=-1)
    solve = _level_solver(*bands)
    if bot is None:
        bot = _vertex_terms([x[0] for x in coef], h, k, *_tangent_parts(vals[:, 0], h, k)(vals[:, 1]))
    zeros = np.zeros_like(vals[:, 0])
    for t, j in enumerate(range(j_lo, j_hi)):
        norm, bound = float(norms[t]), ON_SHELL_FACTOR * tol * max(1.0, scales[t])
        if norm > bound:
            raise NotOnShell(
                f"residual {norm:g} at level {j} exceeds {bound:g}; "
                "the base section does not solve the field equations"
            )
        # The right-hand side: the level residual at vals[:, j + 1] = 0.
        coef_t, parts = [x[t + 1] for x in coef], _tangent_parts(vals[:, j], h, k)
        t1, t2 = _vertex_terms(coef_t, h, k, *parts(zeros), True)
        rhs = t1 + _shift(t2, -1)
        rhs += _shift(bot[-2], -1) + bot[-1]
        try:
            vals[:, j + 1] = solve(t, -rhs)
        except SingularJacobian as exc:
            raise SingularJacobian(f"tangent row solve at level {j}: {exc}", exc.row) from exc
        top = _vertex_terms(coef_t, h, k, *parts(vals[:, j + 1]))
        res, scale = _level_equation(top, bot)
        norm = np.abs(res).max(axis=-1)
        size = sizes[t] * np.abs(vals[:, j + 1]).max(axis=-1)
        # A NaN residual fails too: the bound is written as not <=.
        bad = ~(norm <= tol * np.maximum(1.0, np.maximum(scale, size)))
        if bad.any():
            raise SingularJacobian(
                f"tangent row solve at level {j} left residual {norm[np.argmax(bad)]:g}"
            )
        bot = top
    return bot


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
    alone would, and holds no more than one block's temporaries.  The
    momentum density g3 + g4 is formed in place in g3's array, and both
    are dropped before the action is formed.
    """
    g = phi.grid
    momenta, actions = [], []
    for lo, hi in _row_blocks(g.n_time - 1, g.n_space):
        parts = section_parts(phi, lo, hi)
        g3, g4 = grad_34(*parts, g.h, g.k)
        g3 += g4
        momenta += np.sum(g3, axis=-1).tolist()
        del g3, g4
        actions += np.sum(eval_from_parts(*parts), axis=-1).tolist()
    return momenta, actions


def total_momentum_scale(phi: Section, j: int) -> float:
    """Sum of |dL/dy3| + |dL/dy4| over the rectangle row j: the natural
    magnitude against which momentum drift is measured."""
    g3, g4 = grad_34(*section_parts(phi, j, j + 1), phi.grid.h, phi.grid.k)
    return float(np.sum(np.abs(g3) + np.abs(g4)))

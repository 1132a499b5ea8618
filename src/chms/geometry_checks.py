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
from .lagrangian import (
    _shift,
    eval_from_parts,
    grad_12,
    grad_34,
    grad_from_parts,
    jacobian_bands,
    self_bands,
)


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
    """(da, db, dc), a tangent's difference variables over a rectangle row
    with rows vlo (bottom) and vhi (top), grouped as stencil_parts groups
    (a, b, c) (periodic, no lift)."""
    v2, dv = _shift(vlo, 1), vhi - vlo
    return (v2 - vlo) / h, dv / k, ((_shift(vhi, 1) - v2) - dv) / (h * k)


def _vertex_terms(a, b, c, h: float, k: float, da, db, dc):
    """Vertex terms 1-4 of the linearized gradient over a rectangle row with
    parts (a, b, c), from the tangent's (da, db, dc) (_linear_terms)."""
    ca2 = c / (a * a)
    la_h = (c * ca2 / a * da + b * db - ca2 * dc) / h
    lb_k = (b * da + a * db) / k
    w = (dc / a - ca2 * da) / (h * k)
    return -la_h - lb_k + w, la_h - w, w, lb_k - w


def _linear_terms(a, b, c, h: float, k: float, vlo: np.ndarray, vhi: np.ndarray) -> np.ndarray:
    """(4,) + vlo.shape: sum_k d2L/dy_k dy_l * V_k over a rectangle row
    with parts (a, b, c), for each vertex l, with the tangent rows vlo
    (bottom) and vhi (top), one per tangent of a stack.

    The Hessian is applied as the linearized gradient: the tangent's
    difference variables (da, db, dc) give dL_p = sum_q L_pq dq for
    p, q in (a, b, c), with L_aa = c^2/a^3, L_ab = b, L_ac = -c/a^2,
    L_bb = a, L_bc = 0 and L_cc = 1/a, so that

        la_h = (c (c/a^2)/a da + b db - c/a^2 dc) / h,  lb_k = (b da + a db) / k,
        w = (dc/a - c/a^2 da) / (h k),

    and the vertex terms follow the gradient's: (-la_h - lb_k + w,
    la_h - w, w, lb_k - w) (_vertex_terms).  No per-rectangle 4x4
    Hessian is formed.
    """
    return np.stack(_vertex_terms(a, b, c, h, k, *_tangent_parts(vlo, vhi, h, k)))


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

    The tangent-linear equation at level j is the linearized level
    equation A_j v[j + 1] = -(B_j v[j] + C_j v[j - 1]): A_j is the Newton
    Jacobian of rectangle row j (jacobian_bands), B_j the level's
    self-coupling bands (self_bands) and, since the discrete action's
    second variation is symmetric, C_j is A_{j - 1} transposed.  The
    levels go in blocks (del_solver._row_blocks, sized for four rows of
    values per level: 32 levels at 256 points), and the march holds one
    block's arrays at a time: the block's parts, on-shell residuals and
    bands come from one stacked pass, and its systems are factored at
    once (del_solver._level_solver: the scalar sweep below
    _PARTITION_MIN_N points, the partition method from there on), so each
    level only forms its right-hand side from two band products and
    substitutes.  Levels are read in order, each first checked on shell:
    the first level that is not raises NotOnShell, and a level whose
    system cannot be eliminated raises SingularJacobian naming it (and,
    as .row, the pivot's row), each only when the march reaches that
    level.  Then the block's solved rows are checked at once against the
    level equation in its vertex-term form (the linearized gradient,
    which shares no band with the march): each level's residual must
    stay within tol_residual times the largest of 1, the residual's own
    scale and the solve's size (the level's largest absolute row sum of
    the bands times the row's largest magnitude), else SingularJacobian;
    a NaN residual fails the check.  What fails first in level order is
    raised.  A v0 of the wrong shape, or not finite, raises ValueError.
    The tangents of a stack share each level's factor, and each has its
    own residual bound; each tangent comes out bit for bit as marching it
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
    for lo, hi in _row_blocks(levels - 2, 4 * n):
        _march_block(phi, vals, lo + 1, hi + 1, cfg.tol_residual)
    return vals.reshape(v0.shape[:-2] + (levels, n))


def _put_rows(out: np.ndarray, v: np.ndarray):
    """Write the rows v (..., n) into out (..., n + 2) with a one-point
    periodic halo: v[..., -1] first and v[..., 0] last."""
    out[..., 1:-1] = v
    out[..., 0] = v[..., -1]
    out[..., -1] = v[..., 0]


def _march_block(phi: Section, vals: np.ndarray, j_lo: int, j_hi: int, tol: float):
    """March the levels j_lo .. j_hi - 1 into vals (_solve_levels), then
    check the rows solved (_check_levels); the first failure in level
    order is raised.  Level j reads rectangle rows j - 1 and j, so the
    block's rows j_lo - 1 .. j_hi - 1 are built once, for every tangent."""
    parts = section_parts(phi, j_lo - 1, j_hi)
    j_end, failure, sizes = _solve_levels(phi.grid, parts, vals, j_lo, j_hi, tol)
    _check_levels(parts, sizes, vals, j_lo, j_end, phi.grid.h, phi.grid.k, tol)
    if failure is not None:
        raise failure


def _solve_levels(g, parts, vals: np.ndarray, j_lo: int, j_hi: int, tol: float):
    """Solve the levels j_lo .. j_hi - 1 into vals in order, from the parts
    of rectangle rows j_lo - 1 .. j_hi - 1, until one fails.  Returns
    (j_end, failure, sizes): the first level not solved (j_hi when all
    were), its NotOnShell, SingularJacobian or FloatingPointError (else
    None), and each level's largest absolute row sum of its bands.  The
    on-shell gate's vertex terms and residual field go once their norms
    and scales are taken, and the bands and the factor on return."""
    h, k, n = g.h, g.k, g.n_space
    a, b, c = parts
    res, scales = _level_equation(
        grad_12(a[1:], b[1:], c[1:], h, k), grad_34(a[:-1], b[:-1], c[:-1], h, k)
    )
    norms = np.abs(res).max(axis=-1)
    del res
    lower, diag, upper = jacobian_bands(a, b, c, h, k)
    # Level j's couplings to its rows j - 1 and j, laid out (band, level,
    # row, 1, space): A_{j - 1} transposed (lower'[i] = upper[i - 1],
    # upper'[i] = lower[i + 1]) and self_bands, so that one product takes
    # both rows of every tangent.
    couplings = np.empty((3, j_hi - j_lo, 2, 1, n))
    couplings[:, :, 0, 0] = _shift(upper[:-1], -1), diag[:-1], _shift(lower[:-1], 1)
    couplings[:, :, 1, 0] = self_bands(a[1:], b[1:], c[1:], a[:-1], h, k)
    bands = lower[1:], diag[1:], upper[1:]
    del lower, diag, upper
    # Each level's largest absolute row sum: a solve's rounding scales with
    # it times the solution, which the linear terms miss where they cancel
    # (a constant tangent has none).
    sizes = sum(np.abs(band) for band in bands).max(axis=-1)
    solve = _level_solver(*bands)
    # The block's tangent rows j_lo - 1 .. j_hi with a periodic halo, so
    # that rows[t : t + 2] are rows j - 1 and j of level j = j_lo + t.
    rows = np.empty((j_hi - j_lo + 2, len(vals), n + 2))
    _put_rows(rows[:2], vals[:, j_lo - 1 : j_lo + 1].swapaxes(0, 1))
    for t, j in enumerate(range(j_lo, j_hi)):
        norm, bound = float(norms[t]), ON_SHELL_FACTOR * tol * max(1.0, scales[t])
        if norm > bound:
            return j, NotOnShell(
                f"residual {norm:g} at level {j} exceeds {bound:g}; "
                "the base section does not solve the field equations"
            ), sizes
        # The right-hand side -(A_{j-1}^T v[j - 1] + B_j v[j]), each
        # product (lower v[i - 1] + diag v[i]) + upper v[i + 1].
        lo, di, up = couplings[:, t]
        pair = rows[t : t + 2]
        try:
            terms = lo * pair[..., :-2]
            terms += di * pair[..., 1:-1]
            terms += up * pair[..., 2:]
            rhs = np.add(terms[1], terms[0], out=terms[1])
            new = solve(t, np.negative(rhs, out=rhs))
        except SingularJacobian as exc:
            return j, SingularJacobian(f"tangent row solve at level {j}: {exc}", exc.row), sizes
        except FloatingPointError as exc:
            return j, exc, sizes
        vals[:, j + 1] = new
        _put_rows(rows[t + 2], new)
    return j_hi, None, sizes


def _check_levels(parts, sizes, vals: np.ndarray, j_lo: int, j_hi: int, h: float, k: float, tol):
    """Check the tangent rows solved at levels j_lo .. j_hi - 1 at once,
    from the vertex terms of rectangle rows j_lo - 1 .. j_hi - 1 (parts
    holds the block's (a, b, c) from row j_lo - 1 on, sizes its levels'
    largest absolute row sums).  Each level's residual must stay
    within tol times the largest of 1, the residual's own scale and the
    solve's size (sizes times the row's largest magnitude); the first
    level that does not, a NaN residual too, raises SingularJacobian."""
    if j_hi == j_lo:
        return
    rows = vals[:, j_lo - 1 : j_hi + 1]
    terms = _vertex_terms(
        *(x[: j_hi - j_lo + 1] for x in parts), h, k, *_tangent_parts(rows[:, :-1], rows[:, 1:], h, k)
    )
    res, scale = _level_equation([x[:, 1:] for x in terms[:2]], [x[:, :-1] for x in terms[2:]])
    norm = np.abs(res).max(axis=-1)  # tangent, level
    size = sizes[: j_hi - j_lo] * np.abs(rows[:, 2:]).max(axis=-1)
    # A NaN residual fails too: the bound is written as not <=.
    bad = ~(norm <= tol * np.maximum(1.0, np.maximum(scale, size)))
    if bad.any():
        t = int(np.argmax(bad.any(axis=0)))
        first = norm[np.argmax(bad[:, t]), t]  # the first tangent that fails there
        raise SingularJacobian(f"tangent row solve at level {j_lo + t} left residual {first:g}")


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

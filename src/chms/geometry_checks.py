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

from .errors import NotOnShell, OutOfRange, SingularJacobian
from .grid import GridSpec, Region
from .del_solver import (
    Section,
    SolverConfig,
    _level_equation,
    _row_parts,
    solve_cyclic_tridiagonal,
)
from .lagrangian import eval_from_parts, grad_from_parts, hess_full_from_parts, jacobian_bands

#: The tangent march accepts a base level whose residual is within this
#: multiple of the Newton tolerance of its scale.
ON_SHELL_FACTOR = 100.0


@dataclass(frozen=True, eq=False)
class TangentSection:
    """Tangent field V[i, j] along a section: genuinely periodic in i
    (no identity lift), one value per lattice point of the base grid."""

    grid: GridSpec
    values: np.ndarray  # shape (n_time, n_space)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_time, self.grid.n_space):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.n_time}, {self.grid.n_space})"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def row(self, j: int) -> np.ndarray:
        return self.values[j]


@dataclass(frozen=True)
class SymmetryGenerator:
    """Fiber translation generator: the constant vertical field xi."""

    xi: float


def _tangent_rects(vlo: np.ndarray, vhi: np.ndarray) -> np.ndarray:
    """Tangent rectangles of a rectangle row, shape (4,) + vlo.shape:
    vertex l's values in row l - 1 (tangents are periodic, no lift).
    Stacked tangent rows carry space along the last axis."""
    return np.stack([vlo, np.roll(vlo, -1, axis=-1), np.roll(vhi, -1, axis=-1), vhi])


def omega_from_hess(hess: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rectangle two-forms for a batch of rectangles:

        omega_l(v, w) = sum_k d2L/dy_k dy_l * (v_k w_l - v_l w_k),

    antisymmetric in (v, w); the four forms sum to zero over l.  hess has
    shape batch + (4, 4); the tangent rectangles v, w carry the vertex
    index first, shape (4,) + batch; the result is (4,) + batch.  The
    antisymmetric products are formed first, so omega(v, v) and constant
    pairs are exactly 0.0.
    """
    anti = v[:, None] * w[None, :] - v[None, :] * w[:, None]  # [k, l] = v_k w_l - v_l w_k
    return np.einsum("...kl,kl...->l...", hess, anti)


# ---------------------------------------------------------------------------
# Tangent-linear (first variation) marching.


def _linear_terms(hess: np.ndarray, vlo: np.ndarray, vhi: np.ndarray) -> np.ndarray:
    """(4,) + vlo.shape: sum_k d2L/dy_k dy_l * V_k over a rectangle row,
    for each vertex l, with the tangent rows vlo (bottom) and vhi (top),
    one per tangent of a stack."""
    return np.einsum("nkl,k...n->l...n", hess, _tangent_rects(vlo, vhi))


def solve_first_variation(
    phi: Section, v0: np.ndarray, cfg: SolverConfig | None = None
) -> TangentSection | tuple[TangentSection, ...]:
    """March the tangent-linear equations forward along a solution.

    v0 holds the two initial rows of one tangent, shape (2, n_space), and
    gives a TangentSection; a stack of m tangents, shape (m, 2, n_space),
    gives a tuple of m.  Each new tangent row solves the same cyclic
    tridiagonal system as the Newton step at the converged rows, so
    constants and any other tangent-linear solution are propagated to
    linear-solve accuracy.  Each level is first checked on shell; the
    first level that is not raises NotOnShell.  Every tangent of a stack
    has its own solve and its own residual bound, so it comes out as
    marching it alone would give it.
    """
    cfg = cfg or SolverConfig()
    g = phi.grid
    n, levels = g.n_space, g.n_time
    v0 = np.asarray(v0, dtype=float)
    if v0.ndim not in (2, 3) or v0.shape[-2:] != (2, n):
        raise ValueError("v0 must hold two tangent rows, or a stack of such pairs")
    stack = v0.reshape(-1, 2, n)
    vals = np.empty((levels, len(stack), n))  # level, tangent, space
    vals[:2] = stack.transpose(1, 0, 2)
    h, k, tol = g.h, g.k, cfg.tol_residual
    zeros = np.zeros_like(vals[0])
    # Rectangle row j is the top row at level j and the bottom row at
    # level j + 1, so its parts, gradient, Hessian and bands are built
    # once, for every tangent.
    parts = _rect_row_parts(phi, 0)
    grad_lo, hess_lo = grad_from_parts(*parts, h, k), hess_full_from_parts(*parts, h, k)
    for j in range(1, levels - 1):
        parts = _rect_row_parts(phi, j)
        grad_hi = grad_from_parts(*parts, h, k)
        res, scale = _level_equation(grad_hi, grad_lo)
        norm, bound = float(np.max(np.abs(res))), ON_SHELL_FACTOR * tol * max(1.0, scale)
        if norm > bound:
            raise NotOnShell(
                f"residual {norm:g} at level {j} exceeds {bound:g}; "
                "the base section does not solve the field equations"
            )
        hess_hi = hess_full_from_parts(*parts, h, k)
        bot = _linear_terms(hess_lo, vals[j - 1], vals[j])
        rhs, _ = _level_equation(_linear_terms(hess_hi, vals[j], zeros), bot)
        bands = jacobian_bands(*parts, h, k)
        vals[j + 1] = [solve_cyclic_tridiagonal(*bands, -r) for r in rhs]
        res, scale = _level_equation(_linear_terms(hess_hi, vals[j], vals[j + 1]), bot)
        norm = np.max(np.abs(res), axis=-1)
        bad = norm > tol * np.maximum(1.0, scale)
        if np.any(bad):
            raise SingularJacobian(
                f"tangent row solve at level {j} left residual {norm[np.argmax(bad)]:g}"
            )
        grad_lo, hess_lo = grad_hi, hess_hi
    tangents = tuple(TangentSection(g, vals[:, m]) for m in range(len(stack)))
    return tangents if v0.ndim == 3 else tangents[0]


# ---------------------------------------------------------------------------
# Boundary sums.  A full-circle window's boundary is its first and last
# rows, so the sums take vertices 1, 2 of rectangle row j_lo and vertices
# 3, 4 of rectangle row j_hi - 1: 4 * n_space terms per window.


def section_parts(phi: Section):
    """(a, b, c) over every rectangle of the section, shape (n_time - 1, n_space)."""
    y = phi.rows_y()
    return _row_parts(y[:-1], y[1:], phi.grid)


def _rect_row_parts(phi: Section, j: int):
    if not 0 <= j <= phi.grid.n_time - 2:
        raise OutOfRange(f"rectangle row {j} needs rows {j} and {j + 1}")
    return _row_parts(phi.row_y(j), phi.row_y(j + 1), phi.grid)


def _row_grad(phi: Section, j: int):
    """(g1, g2, g3, g4) over the rectangle row j."""
    return grad_from_parts(*_rect_row_parts(phi, j), phi.grid.h, phi.grid.k)


def _row_hess(phi: Section, j: int) -> np.ndarray:
    """(n_space, 4, 4) Hessians over the rectangle row j."""
    return hess_full_from_parts(*_rect_row_parts(phi, j), phi.grid.h, phi.grid.k)


def _row_omega(phi: Section, v: TangentSection, w: TangentSection, j: int) -> np.ndarray:
    """(4, n_space) two-forms omega_l over the rectangle row j."""
    return omega_from_hess(
        _row_hess(phi, j),
        _tangent_rects(v.row(j), v.row(j + 1)),
        _tangent_rects(w.row(j), w.row(j + 1)),
    )


def mff_boundary_terms(
    phi: Section, v: TangentSection, w: TangentSection, r: Region
) -> np.ndarray:
    """Individual summands of the two-form boundary sum over the region."""
    lo = _row_omega(phi, v, w, r.j_lo)[:2]
    hi = _row_omega(phi, v, w, r.j_hi - 1)[2:]
    return np.concatenate([lo, hi]).ravel()


def noether_boundary_terms(
    phi: Section, xi: SymmetryGenerator, r: Region
) -> np.ndarray:
    """Individual summands of the momentum-map boundary sum."""
    g1, g2, _, _ = _row_grad(phi, r.j_lo)
    _, _, g3, g4 = _row_grad(phi, r.j_hi - 1)
    return xi.xi * np.concatenate([g1, g2, g3, g4])


def level_series(phi: Section) -> tuple[list[float], list[float]]:
    """Per rectangle row j = 0 .. n_time - 2: the total momentum, the sum
    of (dL/dy3 + dL/dy4) with unit fiber translation, and the action,
    the sum of L.

    The momentum boundary sum over any window telescopes into differences
    of the total momentum, so its drift across levels is the conservation
    violation.  One rectangle row's parts are built at a time and give
    both sums.
    """
    g = phi.grid
    momenta, actions = [], []
    for j in range(g.n_time - 1):
        parts = _rect_row_parts(phi, j)
        _, _, g3, g4 = grad_from_parts(*parts, g.h, g.k)
        momenta.append(float(np.sum(g3 + g4)))
        actions.append(float(np.sum(eval_from_parts(*parts))))
    return momenta, actions


def total_momentum_scale(phi: Section, j: int) -> float:
    """Sum of |dL/dy3| + |dL/dy4| over the rectangle row j: the natural
    magnitude against which momentum drift is measured."""
    _, _, g3, g4 = _row_grad(phi, j)
    return float(np.sum(np.abs(g3) + np.abs(g4)))

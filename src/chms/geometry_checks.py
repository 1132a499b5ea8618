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
from .lagrangian import grad_from_parts, hess_full_from_parts, jacobian_bands

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
    """Tangent rectangles of a rectangle row, shape (4, n_space): vertex
    l's values in row l - 1 (tangents are periodic, no lift)."""
    return np.stack([vlo, np.roll(vlo, -1), np.roll(vhi, -1), vhi])


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
    """(4, n_space): sum_k d2L/dy_k dy_l * V_k over a rectangle row, for
    each vertex l, with the tangent rows vlo (bottom) and vhi (top)."""
    return np.einsum("nkl,kn->ln", hess, _tangent_rects(vlo, vhi))


def first_variation_residual_row(phi: Section, t: TangentSection, j: int) -> np.ndarray:
    """Linearized-equation residual of a tangent field at every point of
    the interior level j."""
    top = _linear_terms(_row_hess(phi, j), t.row(j), t.row(j + 1))
    bot = _linear_terms(_row_hess(phi, j - 1), t.row(j - 1), t.row(j))
    return _level_equation(top, bot)[0]


def solve_first_variation(
    phi: Section, v0: np.ndarray, cfg: SolverConfig | None = None
) -> TangentSection:
    """March the tangent-linear equations forward along a solution.

    v0 holds the two initial tangent rows (shape (2, n_space)).  Each new
    tangent row solves the same cyclic tridiagonal system as the Newton
    step at the converged rows, so constants and any other tangent-linear
    solution are propagated to linear-solve accuracy.  Each level is
    first checked on shell; the first level that is not raises NotOnShell.
    """
    cfg = cfg or SolverConfig()
    g = phi.grid
    n, levels = g.n_space, g.n_time
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (2, n):
        raise ValueError("v0 must hold two tangent rows")
    vals = np.empty((levels, n))
    vals[:2] = v0
    h, k, tol = g.h, g.k, cfg.tol_residual
    zeros = np.zeros(n)
    # Rectangle row j is the top row at level j and the bottom row at
    # level j + 1, so its parts, gradient, Hessian and bands are built once.
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
        vals[j + 1] = solve_cyclic_tridiagonal(*jacobian_bands(*parts, h, k), -rhs)
        res, scale = _level_equation(_linear_terms(hess_hi, vals[j], vals[j + 1]), bot)
        norm = float(np.max(np.abs(res)))
        if norm > tol * max(1.0, scale):
            raise SingularJacobian(f"tangent row solve at level {j} left residual {norm:g}")
        grad_lo, hess_lo = grad_hi, hess_hi
    return TangentSection(g, vals)


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


def mff_boundary_sum(
    phi: Section, v: TangentSection, w: TangentSection, r: Region
) -> float:
    """Two-form boundary sum; vanishes when phi is a solution and v, w
    are tangent-linear solutions over the region."""
    return float(np.sum(mff_boundary_terms(phi, v, w, r)))


def noether_boundary_terms(
    phi: Section, xi: SymmetryGenerator, r: Region
) -> np.ndarray:
    """Individual summands of the momentum-map boundary sum."""
    g1, g2, _, _ = _row_grad(phi, r.j_lo)
    _, _, g3, g4 = _row_grad(phi, r.j_hi - 1)
    return xi.xi * np.concatenate([g1, g2, g3, g4])


def noether_boundary_sum(phi: Section, xi: SymmetryGenerator, r: Region) -> float:
    """Momentum-map boundary sum; vanishes on solutions (discrete momentum
    conservation for fiber translations)."""
    return float(np.sum(noether_boundary_terms(phi, xi, r)))


def total_momentum(phi: Section, j: int) -> float:
    """Per-level conserved quantity: sum over the rectangle row j of
    (dL/dy3 + dL/dy4) with unit fiber translation.

    The boundary momentum sum over any window telescopes into differences
    of this quantity, so its drift across steps is the conservation
    violation.
    """
    _, _, g3, g4 = _row_grad(phi, j)
    return float(np.sum(g3 + g4))


def total_momentum_scale(phi: Section, j: int) -> float:
    """Sum of |dL/dy3| + |dL/dy4| over the rectangle row j: the natural
    magnitude against which momentum drift is measured."""
    _, _, g3, g4 = _row_grad(phi, j)
    return float(np.sum(np.abs(g3) + np.abs(g4)))

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
from .grid import GridSpec, Rect, Region, rectangles_touching
from .del_solver import (
    Section,
    SolverConfig,
    _row_parts,
    del_residual_row,
    residual_scale_row,
    solve_cyclic_tridiagonal,
)
from .lagrangian import (
    Stencil,
    grad_L,
    grad_from_parts,
    hess_L,
    hess_full_from_parts,
    jacobian_bands,
)


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

    def value(self, i: int, j: int) -> float:
        return float(self.values[j, i % self.grid.n_space])

    def row(self, j: int) -> np.ndarray:
        return self.values[j]

    @classmethod
    def constant(cls, grid: GridSpec, c: float) -> "TangentSection":
        return cls(grid, np.full((grid.n_time, grid.n_space), float(c)))


@dataclass(frozen=True)
class SymmetryGenerator:
    """Fiber translation generator: the constant vertical field xi."""

    xi: float


def theta_l(s: Stencil, v, l: int) -> float:
    """l-th boundary one-form paired with a tangent rectangle: dL/dy_l * v_l."""
    return grad_L(s).component(l) * v[l - 1]


def omega_l(s: Stencil, v, w, l: int) -> float:
    """l-th rectangle two-form on two tangent rectangles.

    sum_k d2L/dy_k dy_l * (v_k w_l - v_l w_k);  antisymmetric in (v, w),
    and the four forms sum to zero over l.
    """
    m = hess_L(s).matrix
    vl = v[l - 1]
    wl = w[l - 1]
    return float(sum(m[k, l - 1] * (v[k] * wl - vl * w[k]) for k in range(4)))


def momentum_map_l(s: Stencil, xi: SymmetryGenerator, l: int) -> float:
    """l-th momentum map for fiber translation: dL/dy_l * xi."""
    return grad_L(s).component(l) * xi.xi


def _tangent_rect(t: TangentSection, rect: Rect) -> tuple[float, float, float, float]:
    return tuple(t.value(*rect.vertex(l)) for l in (1, 2, 3, 4))


def _tangent_rects(vlo: np.ndarray, vhi: np.ndarray) -> np.ndarray:
    """Tangent rectangles of a rectangle row, shape (4, n_space): vertex
    l's values in row l - 1 (tangents are periodic, no lift)."""
    return np.stack([vlo, np.roll(vlo, -1), np.roll(vhi, -1), vhi])


def omega_from_hess(hess: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rectangle two-forms omega_l for a batch of rectangles.

    hess has shape batch + (4, 4); the tangent rectangles v, w carry the
    vertex index first, shape (4,) + batch; the result is (4,) + batch.
    The vectorized form of :func:`omega_l`: the same antisymmetric
    products, so omega(v, v) and constant pairs are exactly 0.0.
    """
    anti = v[:, None] * w[None, :] - v[None, :] * w[:, None]  # [k, l] = v_k w_l - v_l w_k
    return np.einsum("...kl,kl...->l...", hess, anti)


# ---------------------------------------------------------------------------
# Tangent-linear (first variation) marching.


def _linear_row_terms(phi: Section, vm1, v0, vp1, j: int):
    """Per-point contributions of the linearized equations at level j.

    Mirrors the residual assembly: full Hessians of the rectangle rows
    (j, j+1) and (j-1, j) contracted with the tangent rectangles.
    """
    g = phi.grid
    h, k = g.h, g.k

    def contributions(lo_row, hi_row, vlo, vhi):
        a, b, c = _row_parts(lo_row, hi_row, g)
        hess = hess_full_from_parts(a, b, c, h, k)
        return np.einsum("nkl,kn->ln", hess, _tangent_rects(vlo, vhi))

    top = contributions(phi.row_y(j), phi.row_y(j + 1), v0, vp1)
    bot = contributions(phi.row_y(j - 1), phi.row_y(j), vm1, v0)
    return top[0], np.roll(top[1], 1), np.roll(bot[2], 1), bot[3]


def first_variation_residual(phi: Section, t: TangentSection, p: tuple[int, int]) -> float:
    """Linearized-equation residual of a tangent field at interior point p."""
    i, j = p
    if not 1 <= j <= phi.grid.n_time - 2:
        raise OutOfRange(f"point {p} is not interior in time")
    total = 0.0
    for rect, l in rectangles_touching((i, j), phi.grid):
        m = hess_L(phi.stencil(rect)).matrix
        tv = _tangent_rect(t, rect)
        total += float(sum(m[k, l - 1] * tv[k] for k in range(4)))
    return total


def first_variation_residual_row(phi: Section, t: TangentSection, j: int) -> np.ndarray:
    t1, t2, t3, t4 = _linear_row_terms(phi, t.row(j - 1), t.row(j), t.row(j + 1), j)
    return t1 + t2 + t3 + t4


def solve_first_variation(
    phi: Section,
    v0: np.ndarray,
    cfg: SolverConfig | None = None,
    on_shell_factor: float = 100.0,
) -> TangentSection:
    """March the tangent-linear equations forward along a solution.

    v0 holds the two initial tangent rows (shape (2, n_space)).  Each new
    tangent row solves the same cyclic tridiagonal system as the Newton
    step at the converged rows, so constants and any other tangent-linear
    solution are propagated to linear-solve accuracy.
    """
    cfg = cfg or SolverConfig()
    g = phi.grid
    n, levels = g.n_space, g.n_time
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (2, n):
        raise ValueError("v0 must hold two tangent rows")
    for j in range(1, levels - 1):
        norm = float(np.max(np.abs(del_residual_row(phi, j))))
        bound = on_shell_factor * cfg.tol_residual * max(1.0, residual_scale_row(phi, j))
        if norm > bound:
            raise NotOnShell(
                f"residual {norm:g} at level {j} exceeds {bound:g}; "
                "the base section does not solve the field equations"
            )
    vals = np.empty((levels, n))
    vals[:2] = v0
    h, k = g.h, g.k
    for j in range(1, levels - 1):
        t1, t2, t3, t4 = _linear_row_terms(
            phi, vals[j - 1], vals[j], np.zeros(n), j
        )
        rhs = -(t1 + t2 + t3 + t4)
        a_t, b_t, c_t = _row_parts(phi.row_y(j), phi.row_y(j + 1), g)
        lower, diag, upper = jacobian_bands(a_t, b_t, c_t, h, k)
        vals[j + 1] = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
        t1, t2, t3, t4 = _linear_row_terms(phi, vals[j - 1], vals[j], vals[j + 1], j)
        res = float(np.max(np.abs(t1 + t2 + t3 + t4)))
        scale = max(1.0, float(np.max(np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4))))
        if res > cfg.tol_residual * scale:
            raise SingularJacobian(
                f"tangent row solve at level {j} left residual {res:g}"
            )
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


def _row_omega(phi: Section, v: TangentSection, w: TangentSection, j: int) -> np.ndarray:
    """(4, n_space) two-forms omega_l over the rectangle row j."""
    hess = hess_full_from_parts(*_rect_row_parts(phi, j), phi.grid.h, phi.grid.k)
    return omega_from_hess(
        hess,
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

"""Implicit marching scheme for the discrete field equations.

The residual at an interior lattice point is the derivative of the
action sum with respect to that point's value: four terms, one per
touching rectangle.  Advancing one time level means forcing the residual
to vanish on a whole row at once, which couples the unknowns cyclically;
the Newton Jacobian of the row map is cyclic tridiagonal because the
residual at (i, j) involves only y[i-1], y[i], y[i+1] of the unknown
row j+1.  The solve uses the analytic Jacobian with Sherman-Morrison
corrected tridiagonal elimination (dense fallback for tiny circles) and
backtracking that rejects candidate rows violating monotonicity, so a
breakdown of the particle map is reported as wave breaking instead of
being silently regularized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadInitialData,
    MaxItersExceeded,
    NonMonotone,
    OutOfRange,
    SingularJacobian,
)
from .grid import GridSpec, Rect, Region, rectangles_touching
from .lagrangian import (
    DELTA_MIN_FACTOR,
    Stencil,
    eval_from_parts,
    grad_L,
    grad_from_parts,
    jacobian_bands,
    stencil_parts,
)

@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration controls for the implicit row solve."""

    tol_residual: float = 1e-12
    max_iters: int = 50
    damping: float = 0.5
    max_backtracks: int = 30

    def __post_init__(self):
        if not (math.isfinite(self.tol_residual) and self.tol_residual > 0.0):
            raise ValueError("tol_residual must be positive and finite")
        if self.max_iters <= 0 or self.max_backtracks <= 0:
            raise ValueError("solver controls must be positive")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class Section:
    """Discrete particle-label field y[i, j] = x_i + d[i, j].

    The displacement d is periodic in i; the stored field is the
    identity lift, so y wraps as y[i + n, j] = y[i, j] + domain_length.
    Rows must be strictly monotone: y[i+1, j] - y[i, j] > delta_min.
    Immutable after construction.
    """

    grid: GridSpec
    displacement: np.ndarray  # shape (n_time, n_space)

    def __post_init__(self):
        d = np.array(self.displacement, dtype=float)
        if d.shape != (self.grid.n_time, self.grid.n_space):
            raise ValueError(
                f"displacement shape {d.shape} does not match grid "
                f"({self.grid.n_time}, {self.grid.n_space})"
            )
        d.flags.writeable = False
        object.__setattr__(self, "displacement", d)
        rows = self.rows_y()
        inc = np.empty_like(rows)
        inc[:, :-1] = rows[:, 1:] - rows[:, :-1]
        inc[:, -1] = rows[:, 0] + self.grid.domain_length - rows[:, -1]
        if np.any(inc <= self.delta_min):
            j, i = np.unravel_index(np.argmin(inc), inc.shape)
            raise NonMonotone(
                f"row {j} is not strictly monotone at i={i} "
                f"(increment {inc[j, i]:g} <= {self.delta_min:g})"
            )

    @property
    def delta_min(self) -> float:
        return DELTA_MIN_FACTOR * self.grid.h

    def xs(self) -> np.ndarray:
        return np.arange(self.grid.n_space) * self.grid.h

    def rows_y(self) -> np.ndarray:
        """All rows as absolute label values, shape (n_time, n_space)."""
        return self.xs()[None, :] + self.displacement

    def row_y(self, j: int) -> np.ndarray:
        return self.xs() + self.displacement[j]

    def y(self, i: int, j: int) -> float:
        """Label value with the periodic lift applied to the spatial index."""
        n = self.grid.n_space
        wraps, im = divmod(i, n)
        return wraps * self.grid.domain_length + im * self.grid.h + self.displacement[j, im]

    def stencil(self, rect: Rect) -> Stencil:
        v = [self.y(*rect.vertex(l)) for l in (1, 2, 3, 4)]
        return Stencil(v[0], v[1], v[2], v[3], self.grid.h, self.grid.k)

    @classmethod
    def identity(cls, grid: GridSpec) -> "Section":
        return cls(grid, np.zeros((grid.n_time, grid.n_space)))

    @classmethod
    def uniform_translation(cls, grid: GridSpec, c: float, offset: float = 0.0) -> "Section":
        t = grid.k * np.arange(grid.n_time)
        d = offset + c * t[:, None] + np.zeros((1, grid.n_space))
        return cls(grid, d)

    @classmethod
    def from_rows(cls, grid: GridSpec, rows_y: np.ndarray) -> "Section":
        return cls(grid, np.asarray(rows_y, dtype=float) - np.arange(grid.n_space) * grid.h)


@dataclass(frozen=True)
class StepStats:
    step: int
    iterations: int
    residual_norm: float
    backtracks: int


@dataclass(frozen=True)
class StepFailure:
    step: int
    error: str
    message: str


@dataclass(frozen=True, eq=False)
class EvolveResult:
    section: Section
    steps: list[StepStats] = field(default_factory=list)
    failure: StepFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _wrap_next(row: np.ndarray, lift: float) -> np.ndarray:
    """row[..., i+1] with periodic wraparound along the last axis; the
    seam entry gains `lift`."""
    out = np.roll(row, -1, axis=-1)
    out[..., -1] += lift
    return out


def _row_parts(lo: np.ndarray, hi: np.ndarray, g: GridSpec):
    """(a, b, c) arrays over the rectangle row with bottom `lo`, top `hi`.

    Stacked rows (any leading shape, space along the last axis) give the
    parts of every rectangle row at once.
    """
    lam = g.domain_length
    return stencil_parts(lo, _wrap_next(lo, lam), _wrap_next(hi, lam), hi, g.h, g.k)


def _residual_terms(ym1, y0, yp1, g: GridSpec):
    """Four per-point term arrays of the interior residual at the row of y0.

    Terms: dL/dy1 on the rectangle up-right of each point, dL/dy2 up-left,
    dL/dy3 down-left, dL/dy4 down-right.
    """
    a_t, b_t, c_t = _row_parts(y0, yp1, g)
    g1, g2, _, _ = grad_from_parts(a_t, b_t, c_t, g.h, g.k)
    a_b, b_b, c_b = _row_parts(ym1, y0, g)
    _, _, g3, g4 = grad_from_parts(a_b, b_b, c_b, g.h, g.k)
    return g1, np.roll(g2, 1), np.roll(g3, 1), g4


def del_residual_row(s: Section, j: int) -> np.ndarray:
    """Interior residual at every point of time level j (vectorized)."""
    if not 1 <= j <= s.grid.n_time - 2:
        raise OutOfRange(f"time level {j} has no two time neighbours")
    t1, t2, t3, t4 = _residual_terms(s.row_y(j - 1), s.row_y(j), s.row_y(j + 1), s.grid)
    return t1 + t2 + t3 + t4


def residual_scale_row(s: Section, j: int) -> float:
    """Natural magnitude of the residual terms on row j (for tolerances)."""
    t1, t2, t3, t4 = _residual_terms(s.row_y(j - 1), s.row_y(j), s.row_y(j + 1), s.grid)
    return float(np.max(np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4)))


def del_residual(s: Section, p: tuple[int, int]) -> float:
    """Sum of dL/dy_l over the four rectangles touching the interior point p.

    This is the derivative of the action sum with respect to y at p
    (residual = +gradient of the action).
    """
    i, j = p
    if not 1 <= j <= s.grid.n_time - 2:
        raise OutOfRange(f"point {p} is not interior in time")
    total = 0.0
    for rect, l in rectangles_touching((i, j), s.grid):
        total += grad_L(s.stencil(rect)).component(l)
    return total


def del_residual_expanded(s: Section, p: tuple[int, int]) -> float:
    """Ten-term expanded form of the interior equations.

    Kept as an independent cross-check of :func:`del_residual`; the two
    agree to rounding.
    """
    i, j = p
    if not 1 <= j <= s.grid.n_time - 2:
        raise OutOfRange(f"point {p} is not interior in time")
    h, k = s.grid.h, s.grid.k
    y = s.y

    def dk(ii, jj):
        return y(ii, jj + 1) - y(ii, jj)

    def dh(ii, jj):
        return y(ii + 1, jj) - y(ii, jj)

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


def row_action(s: Section, j: int) -> float:
    """Sum of the rectangle Lagrangian over the rectangle row j."""
    a, b, c = _row_parts(s.row_y(j), s.row_y(j + 1), s.grid)
    return float(np.sum(eval_from_parts(a, b, c)))


def action_sum(s: Section, r: Region) -> float:
    """Discrete action: rectangle Lagrangian summed over the region."""
    return sum(row_action(s, j) for j in range(r.j_lo, r.j_hi))


# ---------------------------------------------------------------------------
# Cyclic tridiagonal linear algebra.


def _thomas(lower, diag, upper, rhs):
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


def solve_cyclic_tridiagonal(lower, diag, upper, rhs):
    """Solve A x = rhs for A cyclic tridiagonal.

    A[i, i] = diag[i], A[i, (i+1) % n] = upper[i], A[i, (i-1) % n] = lower[i].
    Sherman-Morrison correction of plain tridiagonal elimination; for
    n < 8 the corner entries overlap the band, so a dense solve is used.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if n < 8:
        idx = np.arange(n)
        dense = np.zeros((n, n))
        dense[idx, idx] = diag
        dense[idx, (idx + 1) % n] = upper
        dense[idx, (idx - 1) % n] = lower
        try:
            x = np.linalg.solve(dense, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(x)):
            raise SingularJacobian("non-finite solution from dense solve")
        return x
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= lower[0] * upper[-1] / gamma
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = upper[-1]
    y = _thomas(lower, d, upper, rhs)
    z = _thomas(lower, d, upper, u)
    denom = 1.0 + z[0] + (lower[0] / gamma) * z[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise SingularJacobian("singular Sherman-Morrison correction")
    factor = (y[0] + (lower[0] / gamma) * y[-1]) / denom
    return y - factor * z


# ---------------------------------------------------------------------------
# Newton row solve and marching.


def _monotone(row: np.ndarray, lam: float, delta_min: float) -> bool:
    inc = _wrap_next(row, lam) - row
    return bool(np.all(inc > delta_min))


def advance_row(
    ym1: np.ndarray, y0: np.ndarray, g: GridSpec, cfg: SolverConfig
) -> tuple[np.ndarray, StepStats]:
    """Solve the interior equations on the row of y0 for the next row.

    ym1 and y0 are the two known rows (absolute label values).  The
    initial guess is the linear extrapolation 2*y0 - ym1; candidate
    iterates that violate monotonicity are damped, and exhausting the
    backtracks is reported as wave breaking.
    """
    h, k, lam = g.h, g.k, g.domain_length
    delta_min = DELTA_MIN_FACTOR * h
    n = y0.size

    # Bottom-rectangle terms are fixed during the solve.
    a_b, b_b, c_b = _row_parts(ym1, y0, g)
    _, _, g3, g4 = grad_from_parts(a_b, b_b, c_b, h, k)
    known = np.roll(g3, 1) + g4

    a_t = (_wrap_next(y0, lam) - y0) / h  # bottom edge of the top rectangles

    def residual(yp1):
        e = yp1 - y0
        b_t = e / k
        c_t = (np.roll(e, -1) - e) / (h * k)
        g1, g2, _, _ = grad_from_parts(a_t, b_t, c_t, h, k)
        return g1 + np.roll(g2, 1) + known, (g1, g2)

    guess = 2.0 * y0 - ym1
    if not _monotone(guess, lam, delta_min):
        guess = y0.copy()
    yp1 = guess
    backtracks = 0
    scale = 1.0
    prev_norm = np.inf
    floor = 0.0
    for it in range(cfg.max_iters + 1):
        f, (g1, g2) = residual(yp1)
        norm = float(np.max(np.abs(f)))
        if it == 0:
            scale = max(
                1.0,
                float(
                    np.max(
                        np.abs(g1)
                        + np.abs(np.roll(g2, 1))
                        + np.abs(np.roll(g3, 1))
                        + np.abs(g4)
                    )
                ),
            )
        if norm <= cfg.tol_residual * scale:
            return yp1, StepStats(0, it, norm, backtracks)
        # Stagnation at the attainable floating-point floor of the
        # residual evaluation also counts as converged.
        if it > 0 and norm <= floor and norm >= 0.25 * prev_norm:
            return yp1, StepStats(0, it, norm, backtracks)
        if it == cfg.max_iters:
            break
        e = yp1 - y0
        b_t = e / k
        c_t = (np.roll(e, -1) - e) / (h * k)
        lower, diag, upper = jacobian_bands(a_t, b_t, c_t, h, k)
        jnorm = float(np.max(np.abs(lower) + np.abs(diag) + np.abs(upper)))
        floor = 16.0 * np.finfo(float).eps * jnorm * max(1.0, float(np.max(np.abs(yp1))))
        prev_norm = norm
        delta = solve_cyclic_tridiagonal(lower, diag, upper, -f)
        alpha = 1.0
        cand = yp1 + delta
        tries = 0
        while not _monotone(cand, lam, delta_min):
            tries += 1
            if tries > cfg.max_backtracks:
                raise NonMonotone(
                    "no damped Newton step keeps the row monotone "
                    "(numerical wave breaking)"
                )
            alpha *= cfg.damping
            cand = yp1 + alpha * delta
        backtracks += tries
        yp1 = cand
    raise MaxItersExceeded(
        f"residual {norm:g} above tolerance {cfg.tol_residual * scale:g} "
        f"after {cfg.max_iters} Newton iterations"
    )


def step(s: Section, cfg: SolverConfig | None = None) -> tuple[np.ndarray, StepStats]:
    """Advance from the last two rows of a section; returns the new row."""
    cfg = cfg or SolverConfig()
    j = s.grid.n_time - 1
    return advance_row(s.row_y(j - 1), s.row_y(j), s.grid, cfg)


def evolve(s0: Section, n_steps: int, cfg: SolverConfig | None = None) -> EvolveResult:
    """March n_steps levels from the final two rows of s0.

    Aborts cleanly on any step error, returning the partial trajectory
    together with a failure report.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    cfg = cfg or SolverConfig()
    g = s0.grid
    xs = s0.xs()
    disp = np.empty((g.n_time + n_steps, g.n_space))
    disp[: g.n_time] = s0.displacement
    rows_done = g.n_time
    stats: list[StepStats] = []
    failure = None
    for m in range(1, n_steps + 1):
        ym1 = xs + disp[rows_done - 2]
        y0 = xs + disp[rows_done - 1]
        try:
            yp1, st = advance_row(ym1, y0, g, cfg)
        except (NonMonotone, MaxItersExceeded, SingularJacobian) as exc:
            failure = StepFailure(step=m, error=type(exc).__name__, message=str(exc))
            break
        disp[rows_done] = yp1 - xs
        rows_done += 1
        stats.append(StepStats(m, st.iterations, st.residual_norm, st.backtracks))
    out = Section(g.with_time_levels(rows_done), disp[:rows_done])
    return EvolveResult(out, stats, failure)


def initialize(u0, g: GridSpec) -> Section:
    """Two starting rows: identity labels, then a first-order velocity kick.

    Row 0 is y[i] = x_i; row 1 is x_i + k*u0(x_i).  This startup caps the
    overall accuracy of the marching scheme at first order.
    """
    xs = np.arange(g.n_space) * g.h
    v = np.asarray(u0(xs), dtype=float)
    if v.ndim == 0:
        v = np.full(g.n_space, float(v))
    if v.shape != xs.shape:
        raise ValueError("u0 must map the sample positions to one value each")
    d = np.zeros((2, g.n_space))
    d[1] = g.k * v
    try:
        return Section(g.with_time_levels(2), d)
    except NonMonotone as exc:
        raise BadInitialData(
            f"velocity kick destroys monotonicity of row 1: {exc}"
        ) from exc

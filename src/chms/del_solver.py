"""Implicit marching scheme for the discrete field equations.

The residual at an interior lattice point is the derivative of the
action sum with respect to that point's value: four terms, one per
touching rectangle.  Advancing one time level means forcing the residual
to vanish on a whole row at once, which couples the unknowns cyclically;
the Newton Jacobian of the row map is cyclic tridiagonal because the
residual at (i, j) involves only y[i-1], y[i], y[i+1] of the unknown
row j+1.  The solve uses the analytic Jacobian with Sherman-Morrison
corrected tridiagonal elimination and backtracking that rejects
candidate rows violating monotonicity, so a breakdown of the particle
map is reported as wave breaking instead of being silently regularized.
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
from .grid import GridSpec
from .lagrangian import (
    DELTA_MIN_FACTOR,
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


def _wrap_next(row: np.ndarray, lift: float) -> np.ndarray:
    """row[..., i+1] with periodic wraparound along the last axis; the
    seam entry gains `lift`."""
    out = np.roll(row, -1, axis=-1)
    out[..., -1] += lift
    return out


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
        inc = _wrap_next(rows, self.grid.domain_length) - rows
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

    @classmethod
    def identity(cls, grid: GridSpec) -> "Section":
        return cls(grid, np.zeros((grid.n_time, grid.n_space)))


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


def _row_parts(lo: np.ndarray, hi: np.ndarray, g: GridSpec):
    """(a, b, c) arrays over the rectangle row with bottom `lo`, top `hi`.

    Stacked rows (any leading shape, space along the last axis) give the
    parts of every rectangle row at once.
    """
    lam = g.domain_length
    return stencil_parts(lo, _wrap_next(lo, lam), _wrap_next(hi, lam), hi, g.h, g.k)


def _level_equation(top, bot):
    """Residual at a time level, and its scale, from the vertex terms of
    the rectangle rows above (top) and below (bot), indexed by vertex.

    Each point sums vertex 1 of the rectangle up-right of it, 2 up-left,
    3 down-left and 4 down-right; the scale is the largest sum of the
    four terms' magnitudes.  Gradients give the field equations,
    Hessian-tangent products their linearization.  Stacked rows (space
    along the last axis) give each row's residual and scale.
    """
    t1, t2, t3, t4 = top[0], np.roll(top[1], 1, axis=-1), np.roll(bot[2], 1, axis=-1), bot[3]
    res = (t1 + t2) + (t3 + t4)
    return res, np.max(np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4), axis=-1)


def _section_equation(s: Section, j: int):
    """Residual and scale of the field equations at time level j of s."""
    if not 1 <= j <= s.grid.n_time - 2:
        raise OutOfRange(f"time level {j} has no two time neighbours")
    g = s.grid
    top = grad_from_parts(*_row_parts(s.row_y(j), s.row_y(j + 1), g), g.h, g.k)
    bot = grad_from_parts(*_row_parts(s.row_y(j - 1), s.row_y(j), g), g.h, g.k)
    return _level_equation(top, bot)


def del_residual_row(s: Section, j: int) -> np.ndarray:
    """Interior residual at every point of time level j (vectorized)."""
    return _section_equation(s, j)[0]


def residual_scale_row(s: Section, j: int) -> float:
    """Natural magnitude of the residual terms on row j (for tolerances)."""
    return float(_section_equation(s, j)[1])


# ---------------------------------------------------------------------------
# Cyclic tridiagonal linear algebra.


def _thomas(lower, diag, upper, rhs, u):
    """Tridiagonal elimination of two right-hand sides with shared pivots.

    One forward and one back sweep over Python floats (scalar arithmetic
    on floats is several times cheaper than indexing numpy arrays); the
    operation order is that of textbook elimination applied to each
    right-hand side on its own, so each solution is bit-identical to it.
    """
    lower, diag, upper, rhs, u = (v.tolist() for v in (lower, diag, upper, rhs, u))
    isfinite = math.isfinite
    piv = diag[0]
    if piv == 0.0 or not isfinite(piv):
        raise SingularJacobian("zero pivot in tridiagonal elimination")
    c = upper[0] / piv
    pr = rhs[0] / piv
    pu = u[0] / piv
    cp = [c]
    dr = [pr]
    du = [pu]
    for lo, di, up, ri, ui in zip(lower[1:], diag[1:], upper[1:], rhs[1:], u[1:]):
        piv = di - lo * c
        if piv == 0.0 or not isfinite(piv):
            raise SingularJacobian(f"zero pivot at row {len(cp)}")
        c = up / piv
        pr = (ri - lo * pr) / piv
        pu = (ui - lo * pu) / piv
        cp.append(c)
        dr.append(pr)
        du.append(pu)
    xr = [pr]
    xu = [pu]
    for c, qr, qu in zip(cp[-2::-1], dr[-2::-1], du[-2::-1]):
        pr = qr - c * pr
        pu = qu - c * pu
        xr.append(pr)
        xu.append(pu)
    return np.array(xr[::-1]), np.array(xu[::-1])


def solve_cyclic_tridiagonal(lower, diag, upper, rhs):
    """Solve A x = rhs for A cyclic tridiagonal.

    A[i, i] = diag[i], A[i, (i+1) % n] = upper[i], A[i, (i-1) % n] = lower[i].
    Sherman-Morrison correction of plain tridiagonal elimination: for
    n >= 3 (GridSpec's minimum) the corner entries A[0, n-1] and A[n-1, 0]
    lie outside the band, so the correction is exact for every circle.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if n < 3:
        raise ValueError("a cyclic tridiagonal system needs n >= 3")
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= lower[0] * upper[-1] / gamma
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = upper[-1]
    y, z = _thomas(lower, d, upper, rhs, u)
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
    # Bottom-rectangle terms are fixed during the solve.
    bot = grad_from_parts(*_row_parts(ym1, y0, g), h, k)
    a_t = (_wrap_next(y0, lam) - y0) / h  # bottom edge of the top rectangles

    guess = 2.0 * y0 - ym1
    if not _monotone(guess, lam, delta_min):
        guess = y0.copy()
    yp1 = guess
    backtracks = 0
    scale = 1.0
    prev_norm = np.inf
    floor = 0.0
    for it in range(cfg.max_iters + 1):
        # The iterate's top rectangles give both the residual and the bands.
        e = yp1 - y0
        b_t = e / k
        c_t = (np.roll(e, -1) - e) / (h * k)
        f, f_scale = _level_equation(grad_from_parts(a_t, b_t, c_t, h, k), bot)
        norm = float(np.max(np.abs(f)))
        if it == 0:
            scale = max(1.0, float(f_scale))
        if norm <= cfg.tol_residual * scale:
            return yp1, StepStats(0, it, norm, backtracks)
        # Stagnation at the attainable floating-point floor of the
        # residual evaluation also counts as converged.
        if it > 0 and norm <= floor and norm >= 0.25 * prev_norm:
            return yp1, StepStats(0, it, norm, backtracks)
        if it == cfg.max_iters:
            break
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


def evolve(s0: Section, n_steps: int, cfg: SolverConfig | None = None) -> EvolveResult:
    """March n_steps levels from the final two rows of s0.

    Aborts cleanly on any step error, returning the partial trajectory
    together with a failure report; under np.errstate(over="raise") and
    the like, a floating-point overflow in a step is such an error.
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
        except (NonMonotone, MaxItersExceeded, SingularJacobian, FloatingPointError) as exc:
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
    with np.errstate(over="ignore"):  # an overflowing kick is reported below
        d[1] = g.k * v
    if not np.all(np.isfinite(d[1])):
        i = int(np.argmin(np.isfinite(d[1])))
        raise BadInitialData(
            f"velocity kick k*u0(x) is not finite at x = {xs[i]:g} (u0 = {v[i]:g})"
        )
    try:
        return Section(g.with_time_levels(2), d)
    except NonMonotone as exc:
        raise BadInitialData(
            f"velocity kick destroys monotonicity of row 1: {exc}"
        ) from exc

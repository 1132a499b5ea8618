"""Implicit marching scheme for the discrete field equations.

The residual at an interior lattice point is the derivative of the
action sum with respect to that point's value: four terms, one per
touching rectangle.  Advancing one time level means forcing the residual
to vanish on a whole row at once, which couples the unknowns cyclically;
the Newton Jacobian of the row map is cyclic tridiagonal because the
residual at (i, j) involves only y[i-1], y[i], y[i+1] of the unknown
row j+1.  Newton iterates on the row increment y[:, j+1] - y[:, j],
whose updates round to its own magnitude rather than to that of the
labels, and starts from the quadratic extrapolation of the last three
rows.  The solve uses the analytic Jacobian with bordered elimination:
the leading tridiagonal block, then a 1x1 Schur complement for the last
unknown.  A Newton update that leaves the row
non-monotone is reported at once as wave breaking, naming the point;
it is never shortened or silently regularized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    _require_increments,
    _shift,
    grad_from_parts,
    jacobian_bands,
    stencil_parts,
)

@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration controls for the implicit row solve."""

    tol_residual: float = 1e-12
    max_iters: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.tol_residual) and self.tol_residual > 0.0):
            raise ValueError("tol_residual must be positive and finite")
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")


# The solver's fixed tolerances, all relative to the Newton tolerance or
# to the floating-point floor of the residual evaluation.
#: The tangent march accepts a base level whose residual is within this
#: multiple of the Newton tolerance of its scale.
ON_SHELL_FACTOR = 100.0
#: The attainable floor of a row residual, in ulps of the row values
#: times the Jacobian norm.
FP_FLOOR_ULPS = 16.0
#: Newton has stagnated at that floor when an update shrinks the
#: residual by less than this ratio.
STAGNATION_RATIO = 0.25


def _increments(rows: np.ndarray, g: GridSpec, what: str, first_row: int = 0) -> np.ndarray:
    """Label increments y[..., i+1] - y[..., i] of one row or stacked rows,
    held to the one monotonicity rule (lagrangian._require_increments):
    a row that breaks it raises NonMonotone naming `what` (and the row of
    a stack, counted from `first_row`)."""
    return _require_increments(_shift(rows, 1, g.domain_length) - rows, g.h, what, first_row)


#: Passes over a whole section (the Section check, the level series)
#: take blocks of rows of about this many values, so their temporaries
#: stay bounded whatever the section's size.
_BLOCK_VALUES = 2**15


def _row_blocks(n_rows: int, n_space: int) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive blocks of rows lo .. hi - 1 that cover
    n_rows rows of n_space values, each block _BLOCK_VALUES values or one
    row; the last block may be shorter."""
    step = max(1, _BLOCK_VALUES // n_space)
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _frozen(a) -> bool:
    """True for an ndarray that neither it nor any array it views lets
    anyone write."""
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        a = a.base
    return a is None


@dataclass(frozen=True, eq=False)
class Section:
    """Discrete particle-label field y[i, j] = x_i + d[i, j].

    The displacement d is periodic in i; the stored field is the
    identity lift, so y wraps as y[i + n, j] = y[i, j] + domain_length.
    d must be finite, and rows strictly monotone:
    y[i+1, j] - y[i, j] > DELTA_MIN_FACTOR * h.  Both are checked
    without a temporary of the section's size: the monotonicity rule runs
    over blocks of rows (_row_blocks), and the first block that breaks it
    raises NonMonotone naming the row and the point.
    Immutable after construction: a read-only float array that views no
    writeable one (evolve hands over its row buffer so) is kept as it
    is, and any other displacement is copied.
    """

    grid: GridSpec
    displacement: np.ndarray  # shape (n_time, n_space)

    def __post_init__(self):
        d = self.displacement
        d = np.asarray(d, dtype=float) if _frozen(d) else np.array(d, dtype=float)
        if d.shape != (self.grid.n_time, self.grid.n_space):
            raise ValueError(
                f"displacement shape {d.shape} does not match grid "
                f"({self.grid.n_time}, {self.grid.n_space})"
            )
        # min and max propagate NaN, so they test finiteness with no mask.
        if not (np.isfinite(d.min()) and np.isfinite(d.max())):
            raise ValueError("displacement must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "displacement", d)
        xs = self.xs()
        for lo, hi in _row_blocks(*d.shape):
            _increments(xs + d[lo:hi], self.grid, "row", lo)

    def xs(self) -> np.ndarray:
        return np.arange(self.grid.n_space) * self.grid.h

    def rows_y(self) -> np.ndarray:
        """All rows as absolute label values, shape (n_time, n_space)."""
        return self.xs()[None, :] + self.displacement

    def row_y(self, j) -> np.ndarray:
        """Row j as absolute label values, shape (n_space,); an array of
        level indices gives those rows at once, shape (len(j), n_space)."""
        return self.xs() + self.displacement[j]

    @classmethod
    def identity(cls, grid: GridSpec) -> "Section":
        return cls(grid, np.zeros((grid.n_time, grid.n_space)))


#: Why Newton accepted a row: the residual met the tolerance, or it
#: stagnated at the floating-point floor of its own evaluation.
STOP_REASONS = ("tolerance", "fp_floor")


@dataclass(frozen=True)
class StepStats:
    """One accepted Newton row solve.  The step number is the record's
    1-based position in EvolveResult.steps."""

    iterations: int
    residual_norm: float
    #: Always 0: a Newton update is never shortened.  Kept while the
    #: benchmark harness sums it and diagnostics.json writes it per step.
    backtracks: int
    stop_reason: str  # one of STOP_REASONS
    #: residual_norm over the step's scale, max(1, row scale): the
    #: quantity the Newton tolerance bounds.
    relative_residual: float


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


def _row_parts(lo: np.ndarray, hi: np.ndarray, g: GridSpec, what: str = "the bottom row"):
    """(a, b, c) arrays over the rectangle row with bottom `lo`, top `hi`;
    a non-monotone `lo` raises NonMonotone naming it `what`.

    Stacked rows (any leading shape, space along the last axis) give the
    parts of every rectangle row at once.
    """
    lam = g.domain_length
    return stencil_parts(lo, _shift(lo, 1, lam), _shift(hi, 1, lam), hi, g.h, g.k, what)


def section_parts(s: Section, lo: int = 0, hi: int | None = None):
    """(a, b, c) over the rectangle rows lo .. hi - 1 of s (row j spans
    rows j and j + 1), by default all of them, shape (hi - lo, n_space):
    the one section-to-parts accessor.  A first or last rectangle row
    outside 0 .. n_time - 2 raises OutOfRange naming it."""
    n_rows = s.grid.n_time - 1
    hi = n_rows if hi is None else hi
    for j in (lo, hi - 1):
        if not 0 <= j < n_rows:
            raise OutOfRange(f"rectangle row {j} needs rows {j} and {j + 1}")
    y = s.xs() + s.displacement[lo : hi + 1]
    return _row_parts(y[:-1], y[1:], s.grid)


def _level_equation(top, bot):
    """Residual at a time level, and its scale, from the vertex terms of
    the rectangle rows above (top) and below (bot), indexed by vertex.

    Each point sums vertex 1 of the rectangle up-right of it, 2 up-left,
    3 down-left and 4 down-right; the scale is the largest sum of the
    four terms' magnitudes.  Gradients give the field equations,
    Hessian-tangent products their linearization.  Stacked rows (space
    along the last axis) give each row's residual and scale.  advance_row
    forms the same sum with the bottom terms t3 + t4 held over its solve.
    """
    t1, t2, t3, t4 = top[0], _shift(top[1], -1), _shift(bot[2], -1), bot[3]
    res = (t1 + t2) + (t3 + t4)
    return res, np.max(np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4), axis=-1)


def _section_equation(s: Section, j: int):
    """Residual and scale of the field equations at time level j of s."""
    if not 1 <= j <= s.grid.n_time - 2:
        raise OutOfRange(f"time level {j} has no two time neighbours")
    bot, top = np.stack(grad_from_parts(*section_parts(s, j - 1, j + 1), s.grid.h, s.grid.k), 1)
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
    """Tridiagonal elimination of the right-hand sides rhs (a list of
    rows) and u with shared pivots; returns the solutions for rhs (a
    list) and for u.

    Sweeps over lists of Python floats (scalar arithmetic on floats is
    several times cheaper than indexing numpy arrays).  The pivot sweep
    eliminates rhs[0] and u along with the pivots, so one right-hand
    side costs no more than it did alone; each further rhs reuses the
    multipliers and forms each pivot again with the same operations.
    The operation order is that of textbook elimination applied to each
    right-hand side on its own, so each solution is bit-identical to it.
    lower[0] and upper[-1] lie outside the band and do not enter it; rows
    of rhs may run past the band, and only their first len(diag) entries
    enter.
    """
    isfinite = math.isfinite
    piv = diag[0]
    if piv == 0.0 or not isfinite(piv):
        raise SingularJacobian("zero pivot at row 0", 0)
    r0 = rhs[0]
    c = upper[0] / piv
    pr = r0[0] / piv
    pu = u[0] / piv
    cp = [c]
    dr = [pr]
    du = [pu]
    for lo, di, up, ri, ui in zip(lower[1:], diag[1:], upper[1:], r0[1:], u[1:]):
        piv = di - lo * c
        if piv == 0.0 or not isfinite(piv):
            raise SingularJacobian(f"zero pivot at row {len(cp)}", len(cp))
        c = up / piv
        pr = (ri - lo * pr) / piv
        pu = (ui - lo * pu) / piv
        cp.append(c)
        dr.append(pr)
        du.append(pu)
    xr = [pr]
    xu = [pu]
    back = cp[-2::-1]
    for c, qr, qu in zip(back, dr[-2::-1], du[-2::-1]):
        pr = qr - c * pr
        pu = qu - c * pu
        xr.append(pr)
        xu.append(pu)
    xs = [xr[::-1]]
    if len(rhs) > 1:
        # Each further rhs divides by the pivots the sweep formed.
        piv = [diag[0]] + [di - lo * c for lo, di, c in zip(lower[1:], diag[1:], cp)]
        xs += [_substitute(lower, piv, back, r) for r in rhs[1:]]
    return xs, xu[::-1]


def _substitute(lower, piv, back, r):
    """Forward and back substitution of the right-hand side r (a list)
    through an elimination's pivots piv and multipliers back (in reverse
    order, the last row's left out), with the sub-diagonal lower; returns
    the solution as a list.

    Each step is _thomas's for its first right-hand side, with the same
    float operations in the same order, so the solution is bit-identical
    to eliminating r along with the pivots.  Only the first len(piv)
    entries of r and lower enter.
    """
    p = r[0] / piv[0]
    d = [p]
    for lo, pv, ri in zip(lower[1:], piv[1:], r[1:]):
        p = (ri - lo * p) / pv
        d.append(p)
    x = [p]
    for c, q in zip(back, d[-2::-1]):
        p = q - c * p
        x.append(p)
    return x[::-1]


def _border_solve(rows, ys, z, schur: float, lower_last: float, upper_last: float) -> np.ndarray:
    """The bordered solutions, shape (m, n), from each right-hand side
    row r (a list of n) and its leading block's solution y: the last
    unknown over the 1x1 Schur pivot, then x[:n-1] = y - z * x[n-1],
    with z the leading block's solution for the border column."""
    x = np.empty((len(rows), len(z) + 1))
    for i, (r, y) in enumerate(zip(rows, ys)):
        last = (r[-1] - upper_last * y[0] - lower_last * y[-1]) / schur
        x[i] = y + [last]
        x[i, :-1] -= z * last
    return x


def _solve_cyclic_scalar(lower, diag, upper, rhs):
    """Bordered elimination of a cyclic tridiagonal system (n >= 3) for
    the right-hand sides rhs, shape (m, n); returns shape (m, n).

    _thomas eliminates rows 0 .. n-2 in natural order, unshifted, for
    every rhs and for the border column A[:n-1, n-1]; x[n-1] then takes
    the 1x1 Schur complement diag[-1] - upper[-1] * z[0] - lower[-1] * z[-1]
    as its pivot, which stays dominant where A is diagonally dominant.
    """
    lower, diag, upper, rows = (v.tolist() for v in (lower, diag, upper, rhs))
    # Named here, before it would surface as a non-finite Schur pivot: a
    # separator system's corners are formed by the partitioned solve.
    if not (math.isfinite(lower[0]) and math.isfinite(upper[-1])):
        raise SingularJacobian("non-finite corner entry")
    border = [lower[0]] + [0.0] * (len(diag) - 3) + [upper[-2]]
    ys, z = _thomas(lower[:-1], diag[:-1], upper[:-1], rows, border)
    schur = diag[-1] - upper[-1] * z[0] - lower[-1] * z[-1]
    if schur == 0.0 or not math.isfinite(schur):
        raise SingularJacobian(f"zero pivot at row {len(diag) - 1}", len(diag) - 1)
    return _border_solve(rows, ys, np.array(z, dtype=float), schur, lower[-1], upper[-1])


def _factor_cyclic(lower, diag, upper):
    """Bordered elimination of L cyclic tridiagonal systems at once, bands
    stacked (L, n), n >= 3, with no right-hand side.

    Returns (piv, cp, z, schur, errors): the pivots of rows 0 .. n-2
    (L, n-1), the multipliers of rows 0 .. n-3 (L, n-2), the leading
    block's solution z for the border column (L, n-1), the 1x1 Schur pivot
    (L,), and per system None or the message _solve_cyclic_scalar raises
    for it (a non-finite corner entry, else its first zero or non-finite
    pivot).  One NumPy step per column runs across the L systems, with the
    float operations of _thomas and _solve_cyclic_scalar in their order,
    so each entry is bit-identical to eliminating its system alone.
    Floating-point errors are ignored: a failed system's later entries
    are garbage, and only its message is read.
    """
    n_sys, n = diag.shape
    piv = np.empty((n_sys, n - 1))
    cp = np.empty((n_sys, n - 2))
    z = np.zeros((n_sys, n - 1))  # the border column A[:n-1, n-1], eliminated in place
    z[:, 0] = lower[:, 0]
    z[:, -1] = upper[:, -2]
    tmp = np.empty(n_sys)
    with np.errstate(all="ignore"):
        piv[:, 0] = diag[:, 0]
        np.divide(upper[:, 0], piv[:, 0], out=cp[:, 0])
        np.divide(z[:, 0], piv[:, 0], out=z[:, 0])
        for i in range(1, n - 1):
            li, pi, zi = lower[:, i], piv[:, i], z[:, i]
            np.multiply(li, cp[:, i - 1], out=tmp)
            np.subtract(diag[:, i], tmp, out=pi)
            if i < n - 2:
                np.divide(upper[:, i], pi, out=cp[:, i])
            np.multiply(li, z[:, i - 1], out=tmp)
            np.subtract(zi, tmp, out=zi)
            np.divide(zi, pi, out=zi)
        for i in range(n - 3, -1, -1):
            np.multiply(cp[:, i], z[:, i + 1], out=tmp)
            np.subtract(z[:, i], tmp, out=z[:, i])
        schur = diag[:, -1] - upper[:, -1] * z[:, 0] - lower[:, -1] * z[:, -1]
    pivots = np.column_stack((piv, schur))  # the pivots of rows 0 .. n-1
    bad = ~np.isfinite(pivots) | (pivots == 0.0)
    corner_bad = ~(np.isfinite(lower[:, 0]) & np.isfinite(upper[:, -1]))
    errors = [None] * n_sys
    for t in np.flatnonzero(corner_bad | bad.any(axis=1)):
        errors[t] = "non-finite corner entry" if corner_bad[t] else f"zero pivot at row {np.argmax(bad[t])}"
    return piv, cp, z, schur, errors


# Rows of at least this many unknowns take the partitioned solve, and so do
# its separator systems.  Shorter rows keep the scalar sweep, bit-identical
# to textbook elimination, where the partitioned solve gains least
# (CHANGES.md has the timings that set this size and the block length).
_PARTITION_MIN_N = 512


def _blocks(v, p: int, b: int, n_long: int, pad: float) -> np.ndarray:
    """v laid out as (p, b) along its last axis: row m holds block m, its
    separator first.

    The first n_long blocks hold b points and the rest b - 1, so the
    short blocks end in one pad entry (a decoupled identity row when
    pad is 1 on the diagonal and 0 elsewhere)."""
    lead = v.shape[:-1]
    if n_long == p:
        return v.reshape(*lead, p, b)
    out = np.empty((*lead, p, b))
    out[..., :n_long, :] = v[..., : n_long * b].reshape(*lead, n_long, b)
    out[..., n_long:, :-1] = v[..., n_long * b :].reshape(*lead, p - n_long, b - 1)
    out[..., n_long:, -1] = pad
    return out


def _solve_partitioned(lower, diag, upper, rhs):
    """Partition method (H. H. Wang, ACM TOMS 7, 1981) for long rows, for
    the right-hand sides rhs, shape (m, n); returns shape (m, n).

    One separator opens every block of 8 points (the first n % 8 blocks
    take a ninth).  The segments between separators are eliminated all at
    once, one NumPy step per column across every segment, in Gaussian
    order within each, with m + 2 right-hand sides: each rhs and the
    couplings to the left and right separators.  The separators' cyclic
    Schur-complement system (n // 8 unknowns) takes the same two-path rule
    (_elimination), and the segments back-substitute.  Every step is
    elementwise, so each rhs comes out bit for bit as it would alone.
    Runs with floating-point errors ignored: a zero or non-finite pivot
    raises SingularJacobian naming its row here, a separator's after one
    "separator system: " prefix at any depth.
    """
    n = diag.size
    m = len(rhs)
    p = n // 8
    q, r = divmod(n, p)
    b = q + (r > 0)  # block length, separator included
    n_long = r or p
    w = b - 1  # segment columns
    lo, di, up, rr = (
        _blocks(v, p, b, n_long, pad)
        for v, pad in ((lower, 0.0), (diag, 1.0), (upper, 0.0), (rhs, 0.0))
    )
    piv = np.empty((w, p))
    c = np.empty((w, p))
    # x[j] holds column j of every segment's solution for the right-hand
    # sides: the m of rhs, then the left and the right coupling (rows
    # m and m + 1).
    x = np.zeros((w, m + 2, p))
    x[:, :m] = rr[..., 1:].transpose(2, 0, 1)
    x[0, m] = lo[:, 1]
    tmp, tmp2, tmp3 = np.empty(p), np.empty((m + 1, p)), np.empty((m + 2, p))
    with np.errstate(all="ignore"):
        piv[0] = di[:, 1]
        np.divide(up[:, 1], piv[0], out=c[0])
        np.divide(x[0, : m + 1], piv[0], out=x[0, : m + 1])
        for j in range(1, w):
            lj, pj, xj = lo[:, j + 1], piv[j], x[j, : m + 1]
            np.multiply(lj, c[j - 1], out=tmp)
            np.subtract(di[:, j + 1], tmp, out=pj)
            np.divide(up[:, j + 1], pj, out=c[j])
            np.multiply(lj, x[j - 1, : m + 1], out=tmp2)
            np.subtract(xj, tmp2, out=xj)
            np.divide(xj, pj, out=xj)
        bad = ~np.isfinite(piv) | (piv == 0.0)
        if bad.any():
            # A pad row's pivot fails only after a non-finite multiplier
            # in the row before it; it then names the next separator.
            j, blk = np.unravel_index(np.argmax(bad), bad.shape)
            row = int(blk * b - max(0, blk - n_long) + j + 1) % n
            raise SingularJacobian(f"zero pivot at row {row}", row)
        # The right coupling enters at each segment's last real row, where
        # its eliminated value is that row's multiplier; a pad row after
        # it keeps the value 0 and decouples.
        x[w - 1, m + 1, :n_long] = c[w - 1, :n_long]
        x[w - 2, m + 1, n_long:] = c[w - 2, n_long:]
        for j in range(w - 2, -1, -1):
            np.multiply(c[j], x[j + 1], out=tmp3)
            np.subtract(x[j], tmp3, out=x[j])
        first = x[0]
        last = _shift(np.concatenate((x[w - 1, :, :n_long], x[w - 2, :, n_long:]), axis=1), -1)
        sl, sd, su, sr = lo[:, 0], di[:, 0], up[:, 0], rr[..., 0]
        try:
            xs = _elimination(p)(
                -sl * last[m],
                sd - sl * last[m + 1] - su * first[m],
                -su * first[m + 1],
                sr - sl * last[:m] - su * first[:m],
            )
        except SingularJacobian as exc:  # separator k opens block k
            row = exc.row if exc.row is None else exc.row * b - max(0, exc.row - n_long)
            what = str(exc).removeprefix("separator system: ") if row is None else f"zero pivot at row {row}"
            raise SingularJacobian(f"separator system: {what}", row) from exc
        xi = x[:, :m] - x[:, m : m + 1] * xs - x[:, m + 1 : m + 2] * _shift(xs, 1)
    out = np.empty((m, n))
    head = out[:, : n_long * b].reshape(m, n_long, b)
    tail = out[:, n_long * b :].reshape(m, p - n_long, w)
    head[..., 0] = xs[:, :n_long]
    head[..., 1:] = xi[..., :n_long].transpose(1, 2, 0)
    tail[..., 0] = xs[:, n_long:]
    tail[..., 1:] = xi[: w - 1, :, n_long:].transpose(1, 2, 0)
    return out


def solve_cyclic_tridiagonal(lower, diag, upper, rhs):
    """Solve A x = rhs for A cyclic tridiagonal, one right-hand side of
    shape (n,) or a stack of shape (m, n) with A eliminated once.

    A[i, i] = diag[i], A[i, (i+1) % n] = upper[i], A[i, (i-1) % n] = lower[i].
    Bordered elimination in natural order (_solve_cyclic_scalar): for
    n >= 3 (GridSpec's minimum) the corner entries A[0, n-1] and A[n-1, 0]
    lie outside the band, and enter only the border column and row.  From
    n = _PARTITION_MIN_N on, the partition method eliminates the segments
    between separators (one per 8 points) in vectorized steps, and their
    cyclic system takes the same rule.  Nothing is shifted, so
    nothing is refined: on a diagonally dominant A every pivot stays
    dominant and one solve leaves a backward error at rounding level.
    Each rhs of a stack comes out bit for bit as its own solve gives it.
    Newton solves one rhs per call.  The tangent march solves its stack
    here, one call per level, only from n = _PARTITION_MIN_N on; on
    shorter rows it factors a whole block of levels at once and
    substitutes per level (_level_solver), with the same float operations
    as this solve.  Bands that are not 1-D of one length n >= 3,
    or an rhs not (n,) or (m, n) with m >= 1, raise ValueError; a zero or
    non-finite pivot, or a non-finite corner entry, raises SingularJacobian.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    bands_ok = diag.ndim == 1 and lower.shape == diag.shape == upper.shape
    if not (bands_ok and rhs.shape[-1:] == diag.shape and rhs.ndim <= 2 and rhs.size):
        raise ValueError(
            "rhs must be (n,) or (m, n), and lower, diag and upper 1-D of one length; "
            f"got shapes {lower.shape}, {diag.shape}, {upper.shape}, {rhs.shape}"
        )
    n = diag.size
    if n < 3:
        raise ValueError("a cyclic tridiagonal system needs n >= 3")
    # Named here for every n: the partitioned solve would carry a corner
    # into a separator system or a pivot and name that instead.
    if not (math.isfinite(lower[0]) and math.isfinite(upper[-1])):
        raise SingularJacobian("non-finite corner entry")
    return _elimination(n)(lower, diag, upper, rhs.reshape(-1, n)).reshape(rhs.shape)


def _elimination(n: int):
    """The solve of one cyclic system of n unknowns: the partition method
    from _PARTITION_MIN_N unknowns on, else the scalar bordered sweep."""
    return _solve_partitioned if n >= _PARTITION_MIN_N else _solve_cyclic_scalar


def _level_solver(lower, diag, upper):
    """solve(t, rhs): the solution of the t-th of L cyclic tridiagonal
    systems, bands stacked (L, n), for the right-hand sides rhs (m, n),
    bit for bit as solve_cyclic_tridiagonal gives it.

    Where that solve takes the scalar sweep (_elimination), the L systems
    are factored here at once (_factor_cyclic) and each solve only
    substitutes (_substitute, _border_solve); longer rows call
    solve_cyclic_tridiagonal at each solve.  A system whose elimination
    fails raises its SingularJacobian only when it is solved.
    """
    if _elimination(diag.shape[-1]) is _solve_partitioned:
        return lambda t, rhs: solve_cyclic_tridiagonal(lower[t], diag[t], upper[t], rhs)
    piv, cp, z, schur, errors = _factor_cyclic(lower, diag, upper)

    def solve(t, rhs):
        if errors[t] is not None:
            raise SingularJacobian(errors[t])
        lo, rows = lower[t].tolist(), rhs.tolist()
        p, back = piv[t].tolist(), cp[t, ::-1].tolist()
        ys = [_substitute(lo, p, back, r) for r in rows]
        return _border_solve(rows, ys, z[t], float(schur[t]), lo[-1], float(upper[t, -1]))

    return solve


# ---------------------------------------------------------------------------
# Newton row solve and marching.


def advance_row(
    prev: np.ndarray, y0: np.ndarray, g: GridSpec, cfg: SolverConfig
) -> tuple[np.ndarray, StepStats]:
    """Solve the interior equations on the row of y0 for the next row.

    y0 is the current row and prev the row ym1 before it, or the stack
    (ym2, ym1) of the two rows before it (absolute label values); the
    third row travels in that stack, so the signature, and any wrapper
    of it, stays that of the two-row solve.  A non-monotone ym1 or y0
    raises NonMonotone naming it, the point, the increment and the
    bound.  The Newton unknown is the row increment e = y^{j+1} - y^j,
    not the row: the top rectangles' b and c are differences of e, and
    an update to e is rounded to e's magnitude rather than to that of
    the labels (about 2*pi), so the residual meets the tolerance where
    an iterate on labels stalls above it.  Newton starts from the
    extrapolated increment: given ym2 the quadratic
    e = (y0 - ym1) + ((y0 - ym1) - (ym1 - ym2)), which misses the
    solution by O(k^3), and given ym1 alone the linear e = y0 - ym1 (the
    guess 2*y0 - ym1), which misses by O(k^2).  The start is unchecked,
    and ym2 enters nothing else: the top rectangles take their bottom
    edge a from y0, so no guess makes the residual singular.  The next
    row y0 + e is held to the monotonicity rule after every update, and
    a non-monotone one raises NonMonotone at once: wave breaking.
    """
    ym2, ym1 = prev if np.ndim(prev) == 2 else (None, prev)
    h, k = g.h, g.k
    a_t = _increments(y0, g, "the current row y0") / h  # bottom edge of the top rectangles
    # The bottom rectangles' vertex terms (3 of the rectangle down-left
    # of each point, 4 of the one down-right) are fixed during the solve;
    # each residual is _level_equation's, (t1 + t2) + (t3 + t4), bit for bit.
    bot = grad_from_parts(*_row_parts(ym1, y0, g, "the previous row ym1"), h, k)
    t3, t4 = _shift(bot[2], -1), bot[3]
    t34 = t3 + t4

    e = y0 - ym1
    if ym2 is not None:
        e = e + (e - (ym1 - ym2))
    yp1 = y0 + e
    scale = 1.0
    for it in range(cfg.max_iters + 1):
        # The iterate's top rectangles give both the residual and the bands.
        b_t = e / k
        c_t = (_shift(e, 1) - e) / (h * k)
        top = grad_from_parts(a_t, b_t, c_t, h, k)
        t1, t2 = top[0], _shift(top[1], -1)
        f = (t1 + t2) + t34
        norm = float(np.max(np.abs(f)))
        if it == 0:
            scale = max(1.0, float(np.max(np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4))))
        if norm <= cfg.tol_residual * scale:
            return yp1, StepStats(it, norm, 0, "tolerance", norm / scale)
        # Stagnation at the attainable floating-point floor of the
        # residual evaluation also counts as converged.  The floor is that
        # of the previous iterate: its Jacobian norm times ulps of its row.
        if it > 0 and norm >= STAGNATION_RATIO * prev_norm:
            jnorm = float(np.max(np.abs(lower) + np.abs(diag) + np.abs(upper)))
            floor = FP_FLOOR_ULPS * np.finfo(float).eps * jnorm * max(
                1.0, float(np.max(np.abs(y_prev)))
            )
            if norm <= floor:
                return yp1, StepStats(it, norm, 0, "fp_floor", norm / scale)
        if it == cfg.max_iters:
            break
        lower, diag, upper = jacobian_bands(a_t, b_t, c_t, h, k)
        prev_norm, y_prev = norm, yp1
        e = e + solve_cyclic_tridiagonal(lower, diag, upper, -f)
        yp1 = y0 + e
        _increments(yp1, g, "wave breaking: the Newton update of the next row")
    raise MaxItersExceeded(
        f"residual {norm:g} above tolerance {cfg.tol_residual * scale:g} "
        f"after {cfg.max_iters} Newton iterations"
    )


def evolve(s0: Section, n_steps: int, cfg: SolverConfig | None = None) -> EvolveResult:
    """March n_steps levels from the final rows of s0.

    Each step solves for the next row from the section's last two rows,
    and Newton starts from the quadratic extrapolation of its last three
    wherever the section has them (advance_row); only the first step from
    a two-row section starts from the linear one.  The start is read from
    the rows themselves, so a run resumed from a section of three rows or
    more gives the same rows, bit for bit, as the unbroken run.
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
        # The two rows before y0 where the section has them, else one.
        prev = disp[rows_done - 3 : rows_done - 1] if rows_done >= 3 else disp[rows_done - 2]
        y0 = xs + disp[rows_done - 1]
        try:
            yp1, st = advance_row(xs + prev, y0, g, cfg)
        except (NonMonotone, MaxItersExceeded, SingularJacobian, FloatingPointError) as exc:
            failure = StepFailure(step=m, error=type(exc).__name__, message=str(exc))
            break
        disp[rows_done] = yp1 - xs
        rows_done += 1
        stats.append(st)
    if rows_done < len(disp):  # a failed run keeps only the rows it reached
        disp = disp[:rows_done].copy()
    disp.flags.writeable = False  # handed over to the Section without a copy
    out = Section(replace(g, n_time=rows_done), disp)
    return EvolveResult(out, stats, failure)


def initialize(u0, g: GridSpec) -> Section:
    """Two starting rows: identity labels, then a first-order velocity kick.

    Row 0 is y[i] = x_i; row 1 is x_i + k*u0(x_i).  The scheme is first
    order with any startup: its corner-anchored rectangle Lagrangian is a
    first-order quadrature of the action, and a second-order spectral
    startup gave the same self-convergence orders (0.92-0.98).  A kick
    that is not finite, breaks monotonicity, or gives the first rectangle
    row a non-finite Lagrangian gradient raises BadInitialData.
    """
    xs = np.arange(g.n_space) * g.h
    v = np.asarray(u0(xs), dtype=float)
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
        s = Section(replace(g, n_time=2), d)
    except NonMonotone as exc:
        raise BadInitialData(
            f"velocity kick destroys monotonicity of row 1: {exc}"
        ) from exc
    with np.errstate(all="ignore"):  # an overflowing gradient is reported below
        grad = np.array(grad_from_parts(*section_parts(s), g.h, g.k))
    if not np.all(np.isfinite(grad)):
        raise BadInitialData("the first rectangle row's Lagrangian gradient is not finite")
    return s

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
    grad_12,
    grad_34,
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
    a stack, counted from `first_row`).  The increments are formed in
    place in the shifted copy of rows."""
    inc = _shift(rows, 1, g.domain_length)
    inc -= rows
    return _require_increments(inc, g.h, what, first_row)


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


def section_parts(s: Section, lo: int = 0, hi: int | None = None):
    """(a, b, c) over the rectangle rows lo .. hi - 1 of s (row j spans
    rows j and j + 1), by default all of them, shape (hi - lo, n_space):
    the one section-to-parts accessor.  An empty range raises OutOfRange
    naming it, and a first or last rectangle row outside 0 .. n_time - 2
    raises OutOfRange naming that row.  The rows are shifted once, and
    the bottom and top rows of the rectangles are slices of them."""
    g = s.grid
    n_rows = g.n_time - 1
    hi = n_rows if hi is None else hi
    if hi <= lo:
        raise OutOfRange(f"rectangle rows {lo} .. {hi - 1} are an empty range")
    for j in (lo, hi - 1):
        if not 0 <= j < n_rows:
            raise OutOfRange(f"rectangle row {j} needs rows {j} and {j + 1}")
    y = s.xs() + s.displacement[lo : hi + 1]
    shifted = _shift(y, 1, g.domain_length)
    return stencil_parts(y[:-1], shifted[:-1], shifted[1:], y[1:], g.h, g.k)


def _level_equation(top, bot):
    """Residual at a time level, and its scale, from the vertex terms of
    the rectangle rows above (top: vertices 1 and 2, as grad_12 gives
    them, or first, as grad_from_parts does) and below (bot: 3 and 4, as
    grad_34 gives them, or last, as grad_from_parts does).

    Each point sums vertex 1 of the rectangle up-right of it, 2 up-left,
    3 down-left and 4 down-right; the scale is the largest sum of the
    four terms' magnitudes.  Gradients give the field equations,
    Hessian-tangent products their linearization.  Stacked rows (space
    along the last axis) give each row's residual and scale.  advance_row
    forms the same sum with the bottom terms t3 + t4 held over its solve.
    The residual is formed in place in the shifted copies of t2 and t3,
    so no input is written.
    """
    t1, t2, t3, t4 = top[0], _shift(top[1], -1), _shift(bot[-2], -1), bot[-1]
    scale = _magnitude(t1, t2, t3, t4).max(axis=-1)
    res = np.add(t1, t2, out=t2)
    res += np.add(t3, t4, out=t3)
    return res, scale


def _magnitude(t1, t2, t3, t4) -> np.ndarray:
    """|t1| + |t2| + |t3| + |t4|, added in this order in place in the
    array of |t1|, with one more array for the other magnitudes."""
    out, mag = np.abs(t1), np.abs(t2)
    out += mag
    out += np.abs(t3, out=mag)
    out += np.abs(t4, out=mag)
    return out


def _section_equation(s: Section, j: int):
    """Residual and scale of the field equations at time level j of s."""
    if not 1 <= j <= s.grid.n_time - 2:
        raise OutOfRange(f"time level {j} has no two time neighbours")
    h, k = s.grid.h, s.grid.k
    (a_bot, a_top), (b_bot, b_top), (c_bot, c_top) = section_parts(s, j - 1, j + 1)
    return _level_equation(grad_12(a_top, b_top, c_top, h, k), grad_34(a_bot, b_bot, c_bot, h, k))


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
    A zero or non-finite pivot (a non-finite corner makes the Schur pivot
    so) raises SingularJacobian naming its row: the one such report.
    """
    lower, diag, upper, rows = (v.tolist() for v in (lower, diag, upper, rhs))
    border = [lower[0]] + [0.0] * (len(diag) - 3) + [upper[-2]]
    ys, z = _thomas(lower[:-1], diag[:-1], upper[:-1], rows, border)
    schur = diag[-1] - upper[-1] * z[0] - lower[-1] * z[-1]
    if schur == 0.0 or not math.isfinite(schur):
        raise SingularJacobian(f"zero pivot at row {len(diag) - 1}", len(diag) - 1)
    return _border_solve(rows, ys, np.array(z, dtype=float), schur, lower[-1], upper[-1])


def _sweep(lo, di, up, x):
    """Unpivoted elimination of tridiagonal systems of w rows at once,
    stacked along the trailing axes: the bands are (w, ...), row j of
    every system in row j, and the right-hand sides x (w, R, ...) are
    solved in place.  Returns the pivots (w, ...) and the multipliers
    (w - 1, ...).

    One NumPy step per column runs across the systems, with the float
    operations of _thomas in its order, so each solution is bit-identical
    to eliminating its system alone.  lo[0] and up[-1] lie outside the
    band and do not enter.  Floating-point errors are ignored: a failed
    system's entries are garbage, and the caller reads its pivots.
    """
    piv, c = np.empty(di.shape), np.empty((len(di) - 1, *di.shape[1:]))
    tmp, tmp_x = np.empty(di.shape[1:]), np.empty(x.shape[1:])
    with np.errstate(all="ignore"):
        piv[0] = di[0]
        p_prev, x_prev = piv[0], np.divide(x[0], piv[0], out=x[0])
        # zip takes each column's views once: slicing them per step costs time.
        for lj, dj, uj, cj, pj, xj in zip(lo[1:], di[1:], up, c, piv[1:], x[1:]):
            np.divide(uj, p_prev, out=cj)
            np.subtract(dj, np.multiply(lj, cj, out=tmp), out=pj)
            np.subtract(xj, np.multiply(lj, x_prev, out=tmp_x), out=xj)
            p_prev, x_prev = pj, np.divide(xj, pj, out=xj)
        for cj, xj in zip(c[::-1], x[-2::-1]):
            x_prev = np.subtract(xj, np.multiply(cj, x_prev, out=tmp_x), out=xj)
    return piv, c


def _substitute_columns(lo, piv, c, x):
    """Solve x (w, R, ...) in place through the pivots and multipliers
    _sweep returned for the sub-diagonal lo, with _sweep's float
    operations in its order, floating-point errors ignored."""
    tmp = np.empty(x.shape[1:])
    with np.errstate(all="ignore"):
        x_prev = np.divide(x[0], piv[0], out=x[0])
        for lj, pj, xj in zip(lo[1:], piv[1:], x[1:]):
            np.subtract(xj, np.multiply(lj, x_prev, out=tmp), out=xj)
            x_prev = np.divide(xj, pj, out=xj)
        for cj, xj in zip(c[::-1], x[-2::-1]):
            x_prev = np.subtract(xj, np.multiply(cj, x_prev, out=tmp), out=xj)


# Rows of at least this many unknowns take the partitioned solve, and so
# do the systems of its separators; shorter rows keep the scalar sweep,
# bit-identical to textbook elimination.  One solve of a cosine row's
# bands, one rhs, in us, scalar / partitioned: n = 128: 58 / 93, 192:
# 87 / 97, 224: 97 / 98, 256: 106 / 94, 512: 206 / 114; a tangent pair's
# substitution into a block's factor at 256 points: 97 / 64 (CHANGES.md
# has the hardware).
_PARTITION_MIN_N = 256


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


def _segments(lower, diag, upper, rhs):
    """The partition method's segment sweep for one cyclic system (n,)
    or a stack (L, n), and rhs (m, n) or (m, L, n): one separator opens
    every block of 8 points (the first n % 8 blocks take a ninth), and the
    segments between them are eliminated at once (_sweep) for each rhs and
    the couplings to the left and right separators.  Returns the blocked
    bands and rhs (_blocks), the solutions x (w, m + 2, ..., p) (column j
    of every segment in x[j], the couplings in rows m and m + 1), the
    pivots and multipliers, and n_long.  The right coupling sits at each
    segment's last real row; a pad row after it stays 0 and decouples.
    """
    n, m = diag.shape[-1], len(rhs)
    p = n // 8
    q, r = divmod(n, p)
    b = q + (r > 0)  # block length, separator included
    n_long = r or p
    lo, di, up, rr = (
        _blocks(v, p, b, n_long, pad)
        for v, pad in ((lower, 0.0), (diag, 1.0), (upper, 0.0), (rhs, 0.0))
    )
    x = np.zeros((b - 1, m + 2, *diag.shape[:-1], p))
    x[:, :m] = _columns(rr)
    x[0, m] = lo[..., 1]
    x[-1, m + 1, ..., :n_long] = up[..., :n_long, -1]
    x[-2, m + 1, ..., n_long:] = up[..., n_long:, -2]
    return (lo, di, up, rr), x, _sweep(_columns(lo), _columns(di), _columns(up), x), n_long


def _columns(v):
    """The segment rows of blocked v (at most two leading axes), column
    first: (w, ..., p)."""
    return v.T[1:].swapaxes(1, -1)


def _ends(x, n_long: int):
    """The segments' first unknowns and their last, shifted so that entry
    k belongs to the segment before separator k (a short block's last
    real row is its second to last), from x (w, ..., p)."""
    return x[0], _shift(np.concatenate((x[-1, ..., :n_long], x[-2, ..., n_long:]), axis=-1), -1)


def _separator_bands(lo, di, up, first, last):
    """The bands of the separators' cyclic Schur-complement system, from
    the blocked bands and the couplings' _ends (their last two rows)."""
    sl, su = lo[..., 0], up[..., 0]
    return -sl * last[-2], di[..., 0] - sl * last[-1] - su * first[-2], -su * first[-1]


def _separator_rhs(lo, up, rr, first, last):
    """The separators' right-hand sides, from the blocked bands and rhs
    and the _ends of the segments' solutions for rhs."""
    return rr[..., 0] - lo[..., 0] * last - up[..., 0] * first


def _back_fill(xr, couplings, xs, n_long: int) -> np.ndarray:
    """The solutions (m, n), from the segments' xr (w, m, p) and the
    couplings' (w, 2, p) solutions and the separators' xs (m, p)."""
    w, m, p = xr.shape
    xi = xr - couplings[:, :1] * xs - couplings[:, 1:] * _shift(xs, 1)
    out = np.empty((m, p * w + n_long))
    head = out[:, : n_long * (w + 1)].reshape(m, n_long, w + 1)
    tail = out[:, n_long * (w + 1) :].reshape(m, p - n_long, w)
    head[..., 0] = xs[:, :n_long]
    head[..., 1:] = xi[..., :n_long].transpose(1, 2, 0)
    tail[..., 0] = xs[:, n_long:]
    tail[..., 1:] = xi[: w - 1, :, n_long:].transpose(1, 2, 0)
    return out


def _solve_partitioned(lower, diag, upper, rhs):
    """Partition method (H. H. Wang, ACM TOMS 7, 1981) for long rows, for
    the right-hand sides rhs, shape (m, n); returns shape (m, n).

    The segments are eliminated for each rhs and the two couplings
    (_segments), the separators' cyclic Schur-complement system (n // 8
    unknowns) takes the same two-path rule (_elimination), and the
    segments back-substitute.  Every step is elementwise, so each rhs
    comes out bit for bit as it would alone.  Runs with floating-point
    errors ignored.  A segment pivot that fails, or a separators' system
    that raises, sends the whole row to the scalar sweep, under the
    caller's floating-point settings: unpivoted elimination in this order
    can fail where natural order does not.
    """
    m = len(rhs)
    (lo, di, up, rr), x, (piv, _), n_long = _segments(lower, diag, upper, rhs)
    if not (np.isfinite(piv).all() and piv.all()):
        return _solve_cyclic_scalar(lower, diag, upper, rhs)
    try:
        with np.errstate(all="ignore"):
            first, last = _ends(x, n_long)
            xs = _elimination(x.shape[-1])(
                *_separator_bands(lo, di, up, first, last),
                _separator_rhs(lo, up, rr, first[:m], last[:m]),
            )
            return _back_fill(x[:, :m], x[:, m:], xs, n_long)
    except SingularJacobian:
        return _solve_cyclic_scalar(lower, diag, upper, rhs)


def solve_cyclic_tridiagonal(lower, diag, upper, rhs):
    """Solve A x = rhs for A cyclic tridiagonal, one right-hand side of
    shape (n,) or a stack of shape (m, n) with A eliminated once.

    A[i, i] = diag[i], A[i, (i+1) % n] = upper[i], A[i, (i-1) % n] = lower[i].
    Bordered elimination in natural order by the scalar sweep
    (_solve_cyclic_scalar): for n >= 3 (GridSpec's minimum) the corner
    entries A[0, n-1] and A[n-1, 0] lie outside the band, and enter only
    the border column and row.  From n = _PARTITION_MIN_N on, the column
    sweep (_sweep) eliminates the segments between separators (one per 8
    points) of the partition method, and their cyclic system takes the
    same rule.  Nothing is shifted, so nothing is refined: on a
    diagonally dominant A every pivot stays dominant and one solve leaves
    a backward error at rounding level.  Each rhs of a stack comes out bit
    for bit as its own solve gives it.  Newton solves one rhs per call;
    the tangent march factors a block of levels at once instead, by the
    same path, and substitutes per level (_level_solver).
    Bands that are not 1-D of one length n >= 3, or an rhs not (n,) or
    (m, n) with m >= 1, raise ValueError; a non-finite corner entry, or a
    zero or non-finite pivot of the scalar sweep, which takes what the
    partition method cannot eliminate, raises SingularJacobian.
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
    # Named here, for every n and before any elimination: the scalar sweep
    # would report a non-finite corner only as a non-finite Schur pivot.
    if not (math.isfinite(lower[0]) and math.isfinite(upper[-1])):
        raise SingularJacobian("non-finite corner entry")
    return _elimination(n)(lower, diag, upper, rhs.reshape(-1, n)).reshape(rhs.shape)


def _elimination(n: int):
    """The solve of one cyclic system of n unknowns: the partition method
    from _PARTITION_MIN_N unknowns on, else the scalar bordered sweep; a
    block of such systems is factored by the same path (_level_solver)."""
    return _solve_partitioned if n >= _PARTITION_MIN_N else _solve_cyclic_scalar


def _level_solver(lower, diag, upper):
    """solve(t, rhs): the solution of the t-th of L cyclic tridiagonal
    systems, bands stacked (L, n), for the right-hand sides rhs (m, n),
    bit for bit as solve_cyclic_tridiagonal gives it.

    The L systems are factored here at once, by the path that solve takes
    (_elimination), and each solve only substitutes.  The scalar factor
    eliminates their leading blocks (_sweep) with the border column
    A[:n-1, n-1] as right-hand side (a solve: _substitute, _border_solve);
    the partitioned one eliminates the L * p segments for the couplings
    alone (_segments) and factors the separators' L systems with
    _level_solver (a solve: _substitute_columns, the separators' solve,
    _back_fill).  A system whose pivots or separators' solve fail calls
    solve_cyclic_tridiagonal, which raises its error or takes its
    fallback.
    """
    if _elimination(diag.shape[-1]) is _solve_partitioned:
        (lo, di, up, _), x, (piv, c), n_long = _segments(lower, diag, upper, np.empty((0, *diag.shape)))
        with np.errstate(all="ignore"):
            inner = _level_solver(*_separator_bands(lo, di, up, *_ends(x, n_long)))
        # Pivots only: a non-finite corner makes a separators' system fail.
        failed = ~(np.isfinite(piv).all(axis=(0, 2)) & piv.all(axis=(0, 2)))

        def solve(t, rhs):
            if not failed[t]:
                rr = _blocks(rhs, *lo.shape[1:], n_long, 0.0)
                xr = _columns(rr).copy()
                _substitute_columns(_columns(lo[t]), piv[:, t], c[:, t], xr)
                try:
                    with np.errstate(all="ignore"):
                        first, last = _ends(xr, n_long)
                        xs = inner(t, _separator_rhs(lo[t], up[t], rr, first, last))
                        return _back_fill(xr, x[:, :, t], xs, n_long)
                except SingularJacobian:
                    pass
            return solve_cyclic_tridiagonal(lower[t], diag[t], upper[t], rhs)

        return solve
    lo, di, up = lower.T, diag.T, upper.T  # (n, L): row i of every system in row i
    z = np.zeros((len(di) - 1, len(diag)))  # the border column A[:n-1, n-1]
    z[0], z[-1] = lo[0], up[-2]
    piv, cp = _sweep(lo[:-1], di[:-1], up[:-1], z[:, None])
    with np.errstate(all="ignore"):
        schur = di[-1] - up[-1] * z[0] - lo[-1] * z[-1]
    pivots = np.vstack((piv, schur))  # the pivots of rows 0 .. n-1
    failed = ~(np.isfinite(pivots).all(axis=0) & pivots.all(axis=0))

    def solve(t, rhs):
        if failed[t]:
            return solve_cyclic_tridiagonal(lower[t], diag[t], upper[t], rhs)
        lo_t, rows = lower[t].tolist(), rhs.tolist()
        p, back = piv[:, t].tolist(), cp[::-1, t].tolist()
        ys = [_substitute(lo_t, p, back, r) for r in rows]
        return _border_solve(rows, ys, z[:, t], float(schur[t]), lo_t[-1], float(upper[t, -1]))

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
    # ym1 and y0 are shifted once each: y0's shift gives the bottom edge
    # of the top rectangles and, with ym1's, the parts of the bottom ones.
    ym1_up, y0_up = _shift(ym1, 1, g.domain_length), _shift(y0, 1, g.domain_length)
    a_t = _require_increments(y0_up - y0, h, "the current row y0")
    a_t /= h
    # The bottom rectangles' vertex terms (3 of the rectangle down-left
    # of each point, 4 of the one down-right) are fixed during the solve;
    # each residual is _level_equation's, (t1 + t2) + (t3 + t4), bit for bit.
    g3, t4 = grad_34(*stencil_parts(ym1, ym1_up, y0_up, y0, h, k, "the previous row ym1"), h, k)
    t3 = _shift(g3, -1)
    t34 = t3 + t4

    e = y0 - ym1
    if ym2 is not None:
        d = ym1 - ym2
        e += np.subtract(e, d, out=d)
    yp1 = y0 + e
    # The top rectangles' b and c and the residual's magnitude are formed
    # in place at every iteration; e is updated in place, so the views
    # that form c are taken once.
    b_t, c_t, mag = np.empty_like(e), np.empty_like(e), np.empty_like(e)
    e_tail, e_head, e_first, e_seam = e[1:], e[:-1], e[:1], e[-1:]
    c_head, c_seam = c_t[:-1], c_t[-1:]
    scale = 1.0
    for it in range(cfg.max_iters + 1):
        # The iterate's top rectangles give both the residual (their
        # vertex terms 1 and 2) and the bands: b = e / k and
        # c = (shift(e) - e) / (h k), with shift(e)[i] = e[i + 1].
        np.divide(e, k, out=b_t)
        np.subtract(e_tail, e_head, out=c_head)
        np.subtract(e_first, e_seam, out=c_seam)
        c_t /= h * k
        t1, t2 = grad_12(a_t, b_t, c_t, h, k)
        t2 = _shift(t2, -1)
        if it == 0:
            scale = max(1.0, float(_magnitude(t1, t2, t3, t4).max()))
        f = np.add(t1, t2, out=t2)
        f += t34
        norm = float(np.abs(f, out=mag).max())
        if norm <= cfg.tol_residual * scale:
            return yp1, StepStats(it, norm, 0, "tolerance", norm / scale)
        # Stagnation at the attainable floating-point floor of the
        # residual evaluation also counts as converged.  The floor is that
        # of the previous iterate: its Jacobian norm times ulps of its row.
        if it > 0 and norm >= STAGNATION_RATIO * prev_norm:
            jnorm = float((np.abs(lower) + np.abs(diag) + np.abs(upper)).max())
            floor = FP_FLOOR_ULPS * np.finfo(float).eps * jnorm * max(1.0, float(np.abs(y_prev).max()))
            if norm <= floor:
                return yp1, StepStats(it, norm, 0, "fp_floor", norm / scale)
        if it == cfg.max_iters:
            break
        lower, diag, upper = jacobian_bands(a_t, b_t, c_t, h, k)
        prev_norm, y_prev = norm, yp1
        e += solve_cyclic_tridiagonal(lower, diag, upper, np.negative(f, out=f))
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

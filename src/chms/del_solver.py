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
the leading tridiagonal block (LAPACK's dgtsv), then a 1x1 Schur
complement for the last unknown.  A Newton update that leaves the row
non-monotone is reported at once as wave breaking, naming the point;
it is never shortened or silently regularized.
"""

from __future__ import annotations

import ctypes
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


def _border_solve(rhs, y, z, schur: float, lower_last: float, upper_last: float) -> np.ndarray:
    """The bordered solutions, shape (m, n), from the right-hand sides rhs
    (m, n) and the leading block's solutions y (m, n - 1): the last
    unknown over the 1x1 Schur pivot, then x[:n-1] = y - z * x[n-1],
    with z the leading block's solution for the border column."""
    x = np.empty(rhs.shape)
    last = x[:, -1]
    np.subtract(rhs[:, -1], upper_last * y[:, 0], out=last)
    last -= lower_last * y[:, -1]
    last /= schur
    head = np.multiply.outer(last, z, out=x[:, :-1])
    np.subtract(y, head, out=head)
    return x


def _solve_cyclic_scalar(lower, diag, upper, rhs):
    """Bordered elimination of a cyclic tridiagonal system (n >= 3) for
    the right-hand sides rhs, shape (m, n), in natural order with no
    pivoting; returns shape (m, n).

    _thomas eliminates rows 0 .. n-2 for every rhs and for the border
    column A[:n-1, n-1]; x[n-1] then takes the 1x1 Schur complement
    diag[-1] - upper[-1] * z[0] - lower[-1] * z[-1] as its pivot.  A
    non-finite corner entry A[0, n-1] or A[n-1, 0] is named before any
    elimination, and a zero or non-finite pivot raises SingularJacobian
    naming its row: the one such report.
    """
    lower, diag, upper, rows = (v.tolist() for v in (lower, diag, upper, rhs))
    # Named here: the sweep would report it only as a non-finite Schur pivot.
    if not (math.isfinite(lower[0]) and math.isfinite(upper[-1])):
        raise SingularJacobian("non-finite corner entry")
    border = [lower[0]] + [0.0] * (len(diag) - 3) + [upper[-2]]
    ys, z = _thomas(lower[:-1], diag[:-1], upper[:-1], rows, border)
    schur = diag[-1] - upper[-1] * z[0] - lower[-1] * z[-1]
    if schur == 0.0 or not math.isfinite(schur):
        raise SingularJacobian(f"zero pivot at row {len(diag) - 1}", len(diag) - 1)
    return _border_solve(rhs, np.array(ys), np.array(z), schur, lower[-1], upper[-1])


def _lapack_dgtsv():
    """LAPACK's dgtsv (ILP64: integers are int64) from the OpenBLAS that
    NumPy's own extension module links, or None where it exports none."""
    try:
        dgtsv = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_dgtsv_64_
    except (OSError, AttributeError):
        return None
    int_p = ctypes.POINTER(ctypes.c_int64)
    dgtsv.argtypes = [int_p, int_p] + [ctypes.c_void_p] * 4 + [int_p, int_p]
    dgtsv.restype = None
    return dgtsv


#: dgtsv(N, NRHS, DL, D, DU, B, LDB, INFO), or None: then every cyclic
#: solve takes the scalar sweep.
_DGTSV = _lapack_dgtsv()


def _solve_bordered(lower, diag, upper, rhs):
    """Bordered solve of a cyclic tridiagonal system (n >= 3) for the
    right-hand sides rhs, shape (m, n); returns shape (m, n).

    One dgtsv call (Gaussian elimination with partial pivoting) solves the
    leading (n-1) block for every rhs and for the border column
    A[:n-1, n-1] at once, as the n - 1 rows of the columns of one C-order
    (m + 1, n - 1) array; x[n-1] then takes the 1x1 Schur complement as
    its pivot (_border_solve).  Bands that are not all finite (dgtsv
    solves an infinite diagonal to a silent 0), a singular leading block
    (INFO > 0) and a zero or non-finite Schur pivot go to the scalar sweep
    (_solve_cyclic_scalar), which raises SingularJacobian naming the row
    where its elimination fails, or solves the system; so does every solve
    where NumPy's OpenBLAS exports no dgtsv.
    """
    n, m = diag.size, len(rhs)
    work = np.empty(3 * n + (m + 1) * (n - 1))
    work[:n], work[n : 2 * n], work[2 * n : 3 * n] = lower, diag, upper
    bands = work[: 3 * n]
    # min and max propagate NaN, so they test finiteness with no mask.
    if _DGTSV is None or not (math.isfinite(bands.min()) and math.isfinite(bands.max())):
        return _solve_cyclic_scalar(lower, diag, upper, rhs)
    b = work[3 * n :].reshape(m + 1, n - 1)
    b[:m] = rhs[:, :-1]
    b[m] = 0.0
    b[m, 0], b[m, -1] = lower[0], upper[-2]
    # The leading block's bands are lower[1:n-1], diag[:n-1] and
    # upper[:n-2], overwritten in the copy.
    at = work.ctypes.data
    size, cols, info = ctypes.c_int64(n - 1), ctypes.c_int64(m + 1), ctypes.c_int64()
    ref = ctypes.byref
    _DGTSV(ref(size), ref(cols), at + 8, at + 8 * n, at + 16 * n, at + 24 * n, ref(size), ref(info))
    y, z = b[:m], b[m]
    schur = float(diag[-1] - upper[-1] * z[0] - lower[-1] * z[-1])
    if info.value or schur == 0.0 or not math.isfinite(schur):
        return _solve_cyclic_scalar(lower, diag, upper, rhs)
    return _border_solve(rhs, y, z, schur, lower[-1], upper[-1])


def solve_cyclic_tridiagonal(lower, diag, upper, rhs):
    """Solve A x = rhs for A cyclic tridiagonal, one right-hand side of
    shape (n,) or a stack of shape (m, n) with A eliminated once.

    A[i, i] = diag[i], A[i, (i+1) % n] = upper[i], A[i, (i-1) % n] = lower[i].
    Bordered elimination (_solve_bordered): for n >= 3 (GridSpec's
    minimum) the corner entries A[0, n-1] and A[n-1, 0] lie outside the
    band and enter only the border column and row.  LAPACK's dgtsv solves
    the leading (n-1) block for every rhs and the border column in one
    call, with partial pivoting, so one solve leaves a backward error at
    rounding level, and x[n-1] takes the 1x1 Schur complement; each rhs of
    a stack comes out bit for bit as its own solve gives it.  Nothing is
    shifted, so nothing is refined.  Newton solves one rhs per call, and
    the tangent march solves each level's tangents in one
    _solve_bordered call.
    Bands that are not 1-D of one length n >= 3, or an rhs not (n,) or
    (m, n) with m >= 1, raise ValueError.  Non-finite bands and systems
    that dgtsv or the Schur pivot cannot solve take the scalar sweep in
    natural order (_solve_cyclic_scalar), which names a non-finite corner
    entry or the row of a zero or non-finite pivot in a SingularJacobian.
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
    return _solve_bordered(lower, diag, upper, rhs.reshape(-1, n)).reshape(rhs.shape)


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

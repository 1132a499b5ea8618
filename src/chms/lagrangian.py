"""Discrete Lagrangian on one rectangle and its exact derivatives.

Everything is written in the difference variables of a rectangle with
corner values (y1, y2, y3, y4) and spacings (h, k):

    a = (y2 - y1) / h              discrete eta_x  (bottom edge)
    b = (y4 - y1) / k              discrete eta_t  (left edge)
    c = (y3 - y2 - y4 + y1) / (h k)   discrete eta_tx

in which the rectangle Lagrangian is L = (a*b**2 + c**2/a) / 2, the same
expression as the continuous density evaluated on (a, b, c).  The closed
form first partials and the second partials in the Newton Jacobian
bands and a level's self-coupling bands below were derived by hand once
and are pinned against finite differences and the full Hessian in the
test suite.  The structure checks apply the second partials as the
linearized gradient (geometry_checks._linear_terms), so no 4x4 Hessian
is formed.

The kernels take arrays with one entry per rectangle (any shape; the
row solver passes rectangle rows), so each quantity has one vectorized
path.  Each docstring states its formula.  Each kernel forms a result
in one array it allocates and updates it in place (x -= y), with the
formula's float operations in its order, so the result is bit for bit
the formula's; it writes only arrays it allocates, never an input.  On
long rows the fewer temporaries make a call up to about 20 % faster at
4096 points; on short rows per-call overhead dominates either way.
"""

from __future__ import annotations

import numpy as np

from .errors import NonMonotone

#: Stencils with y2 - y1 <= DELTA_MIN_FACTOR * h are rejected: the
#: Lagrangian is singular at eta_x = 0 (wave breaking), and failing
#: loudly beats returning huge finite values.
DELTA_MIN_FACTOR = 1e-8


# ---------------------------------------------------------------------------
# Vectorized kernels over arrays of rectangles (one entry per rectangle).


def _shift(f, step: int, lift: float = 0.0):
    """f[..., i + step] for step = +1 or -1, periodic along the last axis;
    the entry that wraps across the seam moves by step * lift, the
    identity lift of label rows (y[i + n] = y[i] + domain_length), and is
    copied as it is, signed zeros too, when lift is 0.  Two slices are
    concatenated: on short rows a general roll costs more in argument
    handling than in data movement."""
    if step == 1:
        seam = f[..., :1]
        return np.concatenate((f[..., 1:], seam + lift if lift else seam), axis=-1)
    seam = f[..., -1:]
    return np.concatenate((seam - lift if lift else seam, f[..., :-1]), axis=-1)


def _require_increments(inc, h: float, what: str, first_row: int = 0):
    """The one monotonicity rule: every label increment in `inc` must
    exceed DELTA_MIN_FACTOR * h, and a NaN fails.  Otherwise NonMonotone
    names the row (`what`, then the row index for stacked rows, space
    along the last axis, counted from `first_row`), the point, the
    increment and the bound."""
    bound = DELTA_MIN_FACTOR * h
    # min propagates NaN, so one comparison decides the rule.
    if not inc.min() > bound:
        inc = np.atleast_1d(inc)
        at = np.unravel_index(np.argmin(inc), inc.shape)
        name = f"{what} {first_row + at[0]}" if inc.ndim == 2 else what
        raise NonMonotone(
            f"{name} is not strictly monotone at i={at[-1]} "
            f"(increment {inc[at]:g} <= {bound:g})"
        )
    return inc


def stencil_parts(y1, y2, y3, y4, h: float, k: float, what: str = "the bottom row"):
    """(a, b, c) arrays for a batch of rectangles,

        a = (y2 - y1) / h,  b = (y4 - y1) / k,  c = ((y3 - y2) - (y4 - y1)) / (h k);

    non-monotone bottom edges y2 - y1 raise NonMonotone through
    _require_increments, which names the row `what`.

    c is grouped as the difference of the two vertical edges so that the
    large label values cancel pairwise before the small mixed difference
    is formed (the edges are differences of nearby labels and therefore
    exact in floating point).  Each part is formed in place in its own
    array.
    """
    y1, y2, y3, y4 = (np.asarray(y, dtype=float) for y in (y1, y2, y3, y4))
    a = _require_increments(y2 - y1, h, what)
    a /= h
    b = y4 - y1
    c = y3 - y2
    c -= b
    c /= h * k
    b /= k
    return a, b, c


def grad_12(a, b, c, h: float, k: float):
    """(g1, g2) = dL/dy1, dL/dy2 for a batch of rectangles: the terms that
    a time level reads from the rectangle row above it (vertex 1 of the
    rectangle up-right of a point, 2 of the one up-left),

        g1 = -la_h - lb_k + w,  g2 = la_h - w,  with
        la_h = 0.5 (b b - (c/a)**2) / h,  lb_k = a b / k,  w = (c/a) / (h k).

    Each is formed in place in its own array, as are c/a, lb_k and w;
    a, b and c are of one shape and dtype."""
    ca = c / a
    w = ca / (h * k)
    ca **= 2
    g2 = b * b
    g2 -= ca
    g2 *= 0.5
    g2 /= h  # la_h
    lb_k = a * b
    lb_k /= k
    g1 = -g2
    g1 -= lb_k
    g1 += w
    g2 -= w
    return g1, g2


def grad_34(a, b, c, h: float, k: float):
    """(g3, g4) = dL/dy3, dL/dy4 for a batch of rectangles: the terms that
    a time level reads from the rectangle row below it (3 of the rectangle
    down-left of a point, 4 of the one down-right), and that the total
    momentum sums,

        g3 = w = c / a / (h k),  g4 = a b / k - w,

    each formed in place in its own array.  a, b and c are of one shape
    and dtype."""
    w = c / a
    w /= h * k
    g4 = a * b
    g4 /= k
    g4 -= w
    return w, g4


def grad_from_parts(a, b, c, h: float, k: float):
    """(g1, g2, g3, g4) arrays for a batch of rectangles: dL/dy_l, the
    two halves grad_12 and grad_34 in turn.

    L depends only on differences of the corner values, so the four
    components sum to zero up to roundoff.
    """
    return grad_12(a, b, c, h, k) + grad_34(a, b, c, h, k)


def eval_from_parts(a, b, c):
    """Rectangle Lagrangian 0.5 (a b b + c c / a) for a batch of
    rectangles, formed in place in one array (c c / a takes a second);
    on (eta_x, eta_t, eta_tx) samples it is the continuous density."""
    lag = a * b
    lag *= b
    cc_a = c * c
    cc_a /= a
    lag += cc_a
    lag *= 0.5
    return lag


def jacobian_bands(a, b, c, h: float, k: float):
    """Cyclic tridiagonal bands coupling a residual row to the next row.

    The residual at point i reaches the unknown row through H13 and H14
    of its up-right rectangle and H23, H24 of its up-left one:

        H13 = E,  H23 = -E,  H24 = E + b/(hk),  H14 = -a/k**2 - E - b/(hk)

    with the corner entry E = 1/(a h**2 k**2) + c/(a**2 h**2 k).
    Returns (lower, diag, upper) indexed by the residual point:

        upper = E,  lower = shift(E + b/(hk)),
        diag = -a/(k k) - E - b/(hk) - shift(E),

    with shift(f)[i] = f[i - 1] (periodic) and products formed left to
    right, as 1.0 / (a * h * h * k * k).  Each band is formed in place in
    its own array (b/(hk) takes one more), the shifted terms through two
    slices.  Stacked rows (space along the last axis) give the bands of
    every row; a, b and c are of one shape, with at least one axis.
    """
    upper = a * h
    for f in (h, k, k):
        upper *= f
    np.divide(1.0, upper, out=upper)
    lower = a * a
    for f in (h, h, k):
        lower *= f
    np.divide(c, lower, out=lower)
    upper += lower  # E
    bh = b / (h * k)
    # The shifted terms: lower[i] = E[i - 1] + bh[i - 1], diag[i] -= E[i - 1].
    e_head, e_seam = upper[..., :-1], upper[..., -1:]
    np.add(e_head, bh[..., :-1], out=lower[..., 1:])
    np.add(e_seam, bh[..., -1:], out=lower[..., :1])
    diag = -a
    diag /= k * k
    diag -= upper
    diag -= bh
    d_tail = diag[..., 1:]
    d_tail -= e_head
    d_first = diag[..., :1]
    d_first -= e_seam
    return lower, diag, upper


def self_bands(a, b, c, a_lo, h: float, k: float):
    """Cyclic tridiagonal bands coupling a level's residual to its own row,
    from the parts (a, b, c) of the rectangle row above the level and the
    part a_lo of the row below.

    The residual at point i reaches its own row through H11, H12 of its
    up-right rectangle, H21, H22 of its up-left one, H44, H43 of its
    down-right one and H33, H34 of its down-left one, with

        H12 = -(c/a + 1/k)**2 / a / (h h) - b/(hk)   (the row above),
        H34 = -1/(a_lo h h k k)                      (the row below),

    and, as L depends only on differences of the corners and its Hessian
    is symmetric, H11 = -H12 + a/k**2 + b/(hk), H22 = -H12 - b/(hk),
    H33 = -H34 and H44 = a_lo/k**2 - H34.  Returns the symmetric bands
    (lower, diag, upper) indexed by the residual point:

        upper = H12 + H34 = -(((c/a + 1/k)**2 / a / (h h) + 1/(a_lo h h k k)) + b/(hk)),
        lower = shift(upper),
        diag = (a + a_lo)/(k k) - upper - lower + b/(hk) - shift(b/(hk)),

    with shift(f)[i] = f[i - 1] (periodic).  Each band is formed in place
    in its own array (b/(hk) and 1/(a_lo h h k k) take one more each).
    Stacked rows (space along the last axis) give the bands of every
    level; the four parts are of one shape, with at least one axis.
    """
    upper = c / a
    upper += 1.0 / k
    upper *= upper
    upper /= a
    upper /= h * h
    below = a_lo * (h * h * k * k)
    np.divide(1.0, below, out=below)
    upper += below
    bh = b / (h * k)
    upper += bh
    np.negative(upper, out=upper)
    lower = _shift(upper, -1)
    diag = a + a_lo
    diag /= k * k
    diag -= upper
    diag -= lower
    diag += bh
    d_tail = diag[..., 1:]
    d_tail -= bh[..., :-1]
    d_first = diag[..., :1]
    d_first -= bh[..., -1:]
    return lower, diag, upper

"""Scalar oracles that the tests compare the package against.

They keep their own per-point bookkeeping on the periodic lattice: the
rectangles touching a point, a window's interior and boundary points,
the pointwise residuals (among them the ten-term expanded form), the
boundary-sum terms point by point, the per-row momentum and action, and
the continuous field-equation residual from a section's jets.  None of
it shares assembly code with the row kernels of ``chms``; the value and
gradient on one rectangle come from a one-element call of the batch
kernels in ``chms.lagrangian``.  The second partials are the oracle's
own: ``hess_full_from_parts`` assembles the full 4x4 Hessian from the
partials L_pq of (a, b, c), and ``omega_from_hess`` contracts it into
the rectangle two-forms, where the package applies the linearized
gradient (``geometry_checks._linear_terms``) and never forms a Hessian.
``first_variation_residual_row`` assembles the linearized residual row
by row, as the tangent march does, but with those full Hessians, so that
the tests can hold the row assembly against the pointwise form.  The
two-sweep cyclic solve is the reference that the package's one-sweep
solver must reproduce bit for bit, and ``first_variation_march`` marches
the tangents level by level, one public cyclic solve per level, each
right-hand side from the expression forms of the level's self-coupling
bands and of the previous level's Newton bands, transposed
(``band_product_expr``, ``transposed_bands``), as the reference that the
package's blocked march must reproduce bit for bit.
``newton_step`` is the Newton row solve written with the four-term
gradient of both rectangle rows and the level equation, the reference
that ``advance_row``, which forms only the vertex terms each level
reads, must reproduce bit for bit.
The row kernels form each result in place in an array they allocate;
their expression forms (``stencil_parts_expr``, ``grad_12_expr``,
``grad_34_expr``, ``eval_expr``, ``jacobian_bands_expr``,
``self_bands_expr``, ``level_equation_expr``, ``increments_expr`` and
``level_series_expr``) are the formulas written as one NumPy expression each, with a
temporary per operation, which the kernels must reproduce bit for bit;
the oracle marches and level equations use them in place of the kernels.
``section_parts_two_shift`` forms the parts of a range of rectangle rows
from its bottom and top rows shifted apart, the reference that
``section_parts``, which shifts the rows once, must reproduce bit for bit.
``identity_ratios`` measures the four kernel identities, which hold for
any admissible data, on every rectangle and jet of a section against
``IDENTITY_BOUNDS``: the two-forms and the momentum-map terms of each
rectangle sum to zero, the linearized gradient is the complex-step
derivative of the gradient, and the phase-space Hamiltonian is the
Legendre transform of the density.
``multipeakon`` and ``multipeakon_labels`` are the exact nonlinear
solutions: the N-peakon profile, built on the periodic Green's function
``green``, and its particles' labels, from RK4 on the peaks, the weights
and the labels together; ``peakon`` and ``peakon_labels`` are their
N = 1 case.  ``collision_time`` is the exact time at which a symmetric
peakon-antipeakon pair collides (the wave breaks), by quadrature of the
reduced Hamiltonian system with no time march.
"""

import numpy as np

from chms import bridges, geometry_checks
from chms.bridges import section_to_jets
from chms.del_solver import (
    FP_FLOOR_ULPS,
    ON_SHELL_FACTOR,
    STAGNATION_RATIO,
    Section,
    SolverConfig,
    StepStats,
    section_parts,
    solve_cyclic_tridiagonal,
)
from chms.errors import MaxItersExceeded, NotOnShell, OutOfRange, SingularJacobian
from chms.geometry_checks import _linear_terms
from chms.lagrangian import _shift, eval_from_parts, grad_from_parts, stencil_parts

# ---------------------------------------------------------------------------
# Expression forms of the row kernels: one NumPy expression per formula,
# with the operations in the kernels' order.


def stencil_parts_expr(y1, y2, y3, y4, h: float, k: float):
    """(a, b, c) of lagrangian.stencil_parts, with no monotonicity check."""
    left = y4 - y1
    return (y2 - y1) / h, left / k, ((y3 - y2) - left) / (h * k)


def grad_12_expr(a, b, c, h: float, k: float):
    ca = c / a
    lb_k = a * b / k
    w = ca / (h * k)
    la_h = 0.5 * (b * b - ca**2) / h
    return -la_h - lb_k + w, la_h - w


def grad_34_expr(a, b, c, h: float, k: float):
    w = c / a / (h * k)
    return w, a * b / k - w


def grad_expr(a, b, c, h: float, k: float):
    """(g1, g2, g3, g4): the four-term gradient."""
    return grad_12_expr(a, b, c, h, k) + grad_34_expr(a, b, c, h, k)


def eval_expr(a, b, c):
    return 0.5 * (a * b * b + c * c / a)


def jacobian_bands_expr(a, b, c, h: float, k: float):
    corner = 1.0 / (a * h * h * k * k) + c / (a * a * h * h * k)
    bh = b / (h * k)
    lower = np.roll(corner + bh, 1, axis=-1)
    diag = -a / (k * k) - corner - bh - np.roll(corner, 1, axis=-1)
    return lower, diag, corner


def self_bands_expr(a, b, c, a_lo, h: float, k: float):
    """(lower, diag, upper) of lagrangian.self_bands."""
    bh = b / (h * k)
    upper = -(((c / a + 1.0 / k) ** 2 / a / (h * h) + 1.0 / (a_lo * (h * h * k * k))) + bh)
    lower = np.roll(upper, 1, axis=-1)
    return lower, (a + a_lo) / (k * k) - upper - lower + bh - np.roll(bh, 1, axis=-1), upper


def transposed_bands(lower, diag, upper):
    """The bands of the transposed cyclic tridiagonal matrix."""
    return np.roll(upper, 1, axis=-1), diag, np.roll(lower, -1, axis=-1)


def band_product_expr(lower, diag, upper, v):
    """The cyclic tridiagonal product A v, as the tangent march forms it."""
    return lower * np.roll(v, 1, axis=-1) + diag * v + upper * np.roll(v, -1, axis=-1)


def level_equation_expr(top, bot):
    """Residual and scale of del_solver._level_equation."""
    t1, t2, t3, t4 = top[0], np.roll(top[1], 1, axis=-1), np.roll(bot[-2], 1, axis=-1), bot[-1]
    return (t1 + t2) + (t3 + t4), (np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4)).max(axis=-1)


def increments_expr(rows, g):
    """y[..., i + 1] - y[..., i] of label rows, with the identity lift."""
    nxt = np.roll(rows, -1, axis=-1)
    nxt[..., -1] = rows[..., 0] + g.domain_length
    return nxt - rows


def section_parts_two_shift(phi, lo: int = 0, hi: int | None = None):
    """(a, b, c) of section_parts over rectangle rows lo .. hi - 1, from
    the bottom rows and the top rows, each shifted on its own."""
    g = phi.grid
    hi = g.n_time - 1 if hi is None else hi
    y = phi.xs() + phi.displacement[lo : hi + 1]
    bot, top = y[:-1], y[1:]
    lam = g.domain_length
    return stencil_parts(bot, _shift(bot, 1, lam), _shift(top, 1, lam), top, g.h, g.k)


def level_series_expr(phi):
    """(momenta, actions) of geometry_checks.level_series, from the parts
    of all rectangle rows at once."""
    a, b, c = section_parts(phi)
    g3, g4 = grad_34_expr(a, b, c, phi.grid.h, phi.grid.k)
    return np.sum(g3 + g4, axis=-1).tolist(), np.sum(eval_expr(a, b, c), axis=-1).tolist()


# ---------------------------------------------------------------------------
# Second partials: the full Hessian and its two-form contraction.


def hess_full_from_parts(a, b, c, h: float, k: float) -> np.ndarray:
    """Full Hessian batch d2L/dy_k dy_l, shape a.shape + (4, 4).

    Exactly symmetric; each row sums to zero up to roundoff (the
    differentiated translation invariance).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    laa = c * c / a**3
    lac = -c / (a * a)
    lbb = a
    lcc = 1.0 / a
    da = np.array([-1.0 / h, 1.0 / h, 0.0, 0.0])
    db = np.array([-1.0 / k, 0.0, 0.0, 1.0 / k])
    q = 1.0 / (h * k)
    dc = np.array([q, -q, q, -q])
    return (
        laa[..., None, None] * np.outer(da, da)
        + lbb[..., None, None] * np.outer(db, db)
        + lcc[..., None, None] * np.outer(dc, dc)
        + b[..., None, None] * (np.outer(da, db) + np.outer(db, da))
        + lac[..., None, None] * (np.outer(da, dc) + np.outer(dc, da))
    )


def omega_from_hess(hess: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rectangle two-forms for a batch of rectangles:

        omega_l(v, w) = sum_k d2L/dy_k dy_l * (v_k w_l - v_l w_k).

    hess has shape batch + (4, 4); the tangent rectangles v, w carry the
    vertex index first, shape (4,) + batch; the result is (4,) + batch.
    """
    anti = v[:, None] * w[None, :] - v[None, :] * w[:, None]  # [k, l] = v_k w_l - v_l w_k
    return np.einsum("...kl,kl...->l...", hess, anti)


# ---------------------------------------------------------------------------
# Kernel identities.  They hold for any admissible data, so they test the
# package kernels' algebra on whatever section they are given; each is a
# worst ratio against its bound.

#: The bound of each identity: rounding level for the sums, 8 ulp for the
#: two forms of H, which agree exactly in real arithmetic.
IDENTITY_BOUNDS = {
    "omega_closure_identity": 1e-12,
    "momentum_closure_identity": 1e-12,
    "linearized_gradient_identity": 1e-12,
    "legendre_hamiltonian_identity": 8.0 * np.finfo(float).eps,
}


def worst_ratio(dev: np.ndarray, terms: np.ndarray) -> float:
    """Worst |dev| / sum_l |t_l| over a batch of rectangles, the terms t
    (vertex terms or products) indexed first; a rectangle whose terms are
    all zero passes."""
    scale = np.sum(np.abs(terms), axis=0)
    dev = np.abs(dev)
    return float(np.max(np.divide(dev, scale, out=np.zeros_like(dev), where=scale > 0.0)))


def linearized_gradient_ratio(a, b, c, h: float, k: float, v) -> float:
    """The linearized gradient (geometry_checks._linear_terms) along the
    tangent rows v = (bottom, top) against the complex-step derivative of
    the gradient, Im grad(a + i tau da, ...) / tau with the tangent's parts
    (da, db, dc): exact to rounding, with no step-size trade-off.

    The worst ratio over the rectangles with parts (a, b, c) of the worst
    vertex's deviation to the sum of the magnitudes of the products that
    _linear_terms adds, where its rounding arises: the vertex terms
    themselves cancel on rough sections.
    """
    tau = 1e-100
    da, db, dc = dparts = geometry_checks._tangent_parts(v[0], v[1], h, k)
    shifted = [p + 1j * tau * dp for p, dp in zip((a, b, c), dparts)]
    ref = np.stack(grad_from_parts(*shifted, h, k)).imag / tau
    err = np.max(np.abs(geometry_checks._linear_terms(a, b, c, h, k, *v) - ref), axis=0)
    ca2 = c / (a * a)
    products = [(c * ca2 / a) * da / h, b * db / h, ca2 * dc / h, b * da / k, a * db / k]
    products += [dc / a / (h * k), ca2 * da / (h * k)]
    return worst_ratio(err, np.stack(products))


def legendre_hamiltonian_ratio(eta, eta_x, eta_t, eta_xx, eta_tx, eta_txx) -> float:
    """The phase-space polynomial (bridges.hamiltonian_phase) at the
    phase point of each jet (bridges.legendre) against the defining
    identity H = L - px*eta_x - pt*eta_t - ptx*eta_tx on the same jet,
    relative to the largest of |L|, the pairings and 1."""
    z = bridges.legendre(eta, eta_x, eta_t, eta_xx, eta_tx, eta_txx)
    dens = eval_from_parts(eta_x, eta_t, eta_tx)
    pairings = [z[..., 3] * eta_x, z[..., 4] * eta_t, z[..., 5] * eta_tx]
    ham = dens - pairings[0] - pairings[1] - pairings[2]
    scale = np.maximum(np.max(np.abs([dens, *pairings]), axis=0), 1.0)
    return float(np.max(np.abs(bridges.hamiltonian_phase(z) - ham) / scale))


def identity_ratios(s: Section, rng, draws: int = 1) -> dict:
    """The four identity ratios, keyed as IDENTITY_BOUNDS, with `draws`
    stacked pairs of tangent rows per rectangle and one symmetry generator
    per rectangle drawn from rng:

    - the four two-forms (geometry_checks.two_forms) of each rectangle
      of s sum to zero;
    - its four momentum-map terms xi * dL/dy_l sum to zero (translation
      invariance);
    - linearized_gradient_ratio on every rectangle of s;
    - legendre_hamiltonian_ratio on every jet of s's interior levels.
    """
    h, k = s.grid.h, s.grid.k
    a, b, c = section_parts(s)
    v, w = rng.standard_normal((2, 2, draws) + a.shape)  # (bottom, top) row pairs
    omega = geometry_checks.two_forms(a, b, c, h, k, v, w)
    momentum = rng.uniform(-2.0, 2.0, a.shape) * np.stack(grad_from_parts(a, b, c, h, k))
    return {
        "omega_closure_identity": worst_ratio(omega.sum(axis=0), omega),
        "momentum_closure_identity": worst_ratio(momentum.sum(axis=0), momentum),
        "linearized_gradient_identity": linearized_gradient_ratio(a, b, c, h, k, v),
        "legendre_hamiltonian_identity": legendre_hamiltonian_ratio(*section_to_jets(s)),
    }


# ---------------------------------------------------------------------------
# One rectangle: corner values y = (y1, y2, y3, y4) and spacings (h, k).


def rect_parts(y, h, k):
    return stencil_parts(*np.reshape(np.asarray(y, dtype=float), (4, 1)), h, k)


def rect_value(y, h, k) -> float:
    """Rectangle Lagrangian."""
    return float(eval_from_parts(*rect_parts(y, h, k))[0])


def rect_grad(y, h, k) -> np.ndarray:
    """(dL/dy1, dL/dy2, dL/dy3, dL/dy4)."""
    return np.concatenate(grad_from_parts(*rect_parts(y, h, k), h, k))


def rect_hess(y, h, k) -> np.ndarray:
    """4x4 matrix of second partials d2L/dy_k dy_l."""
    return hess_full_from_parts(*rect_parts(y, h, k), h, k)[0]


def rect_omega(y, h, k, v, w) -> np.ndarray:
    """The four two-forms (omega_1, ..., omega_4) from ``omega_from_hess``."""
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    return omega_from_hess(rect_hess(y, h, k)[None], v[:, None], w[:, None])[:, 0]


def omega_l(y, h, k, v, w, l: int) -> float:
    """l-th rectangle two-form, sum_k d2L/dy_k dy_l * (v_k w_l - v_l w_k),
    summed term by term."""
    m = rect_hess(y, h, k)
    vl, wl = v[l - 1], w[l - 1]
    return float(sum(m[kk, l - 1] * (v[kk] * wl - vl * w[kk]) for kk in range(4)))


# ---------------------------------------------------------------------------
# Lattice bookkeeping.  Rectangle (i, j) has first vertex (i, j) and
# vertices 1 -> (i, j), 2 -> (i+1, j), 3 -> (i+1, j+1), 4 -> (i, j+1);
# its i is stored modulo n_space.

VERTEX_OFFSETS = ((0, 0), (1, 0), (1, 1), (0, 1))


def vertex(rect, l: int) -> tuple[int, int]:
    """Lattice point of vertex l in {1, 2, 3, 4} (spatial part unwrapped)."""
    di, dj = VERTEX_OFFSETS[l - 1]
    return rect[0] + di, rect[1] + dj


def rectangles_touching(p, g):
    """(rectangle, vertex index) pairs of the rectangles having p as a vertex.

    A point with both time neighbours present is touched by four
    rectangles, one per vertex index; points on the first or last time
    level are touched by two.
    """
    i, j = p
    if not 0 <= j <= g.n_time - 1:
        raise OutOfRange(f"time index {j} outside [0, {g.n_time - 1}]")
    candidates = (((i, j), 1), ((i - 1, j), 2), ((i - 1, j - 1), 3), ((i, j - 1), 4))
    return [((ri % g.n_space, rj), l) for (ri, rj), l in candidates if 0 <= rj <= g.n_time - 2]


def interior_points(window, g):
    j_lo, j_hi = window
    return [(i, j) for j in range(j_lo + 1, j_hi) for i in range(g.n_space)]


def boundary_points(window, g):
    return [(i, j) for j in window for i in range(g.n_space)]


def contains_rect(window, rect) -> bool:
    j_lo, j_hi = window
    return j_lo <= rect[1] <= j_hi - 1


# ---------------------------------------------------------------------------
# Values at single lattice points.


def label(s, i: int, j: int) -> float:
    """Label value y(i, j) with the periodic lift applied to the spatial index."""
    wraps, im = divmod(i, s.grid.n_space)
    return wraps * s.grid.domain_length + im * s.grid.h + s.displacement[j, im]


def corners(s, rect) -> np.ndarray:
    return np.array([label(s, *vertex(rect, l)) for l in (1, 2, 3, 4)])


def uniform_translation(g, c: float, offset: float = 0.0):
    """The exact solution y = x + offset + c*t."""
    t = g.k * np.arange(g.n_time)
    return Section(g, offset + c * t[:, None] + np.zeros((1, g.n_space)))


def _row_kernel_parts(s, j: int):
    """(a, b, c) over the rectangle row j, from corner rows built label by label."""
    n = s.grid.n_space
    rows = [np.array([label(s, *vertex((i, j), l)) for i in range(n)]) for l in (1, 2, 3, 4)]
    return stencil_parts(*rows, s.grid.h, s.grid.k)


def row_momentum(s, j: int) -> float:
    """Sum of dL/dy3 + dL/dy4 over the rectangle row j."""
    _, _, g3, g4 = grad_from_parts(*_row_kernel_parts(s, j), s.grid.h, s.grid.k)
    return float(np.sum(g3 + g4))


def row_action(s, j: int) -> float:
    """Sum of the rectangle Lagrangian over the rectangle row j."""
    return float(np.sum(eval_from_parts(*_row_kernel_parts(s, j))))


def tangent_corners(t, rect) -> np.ndarray:
    """Tangent values at the four vertices (tangents are periodic, no lift)."""
    n = t.shape[-1]
    return np.array([t[jj, ii % n] for ii, jj in (vertex(rect, l) for l in (1, 2, 3, 4))])


def _require_interior(g, p):
    if not 1 <= p[1] <= g.n_time - 2:
        raise OutOfRange(f"point {p} is not interior in time")


def del_residual(s, p) -> float:
    """Sum of dL/dy_l over the four rectangles touching the interior point p:
    the derivative of the action sum with respect to y at p."""
    _require_interior(s.grid, p)
    h, k = s.grid.h, s.grid.k
    touching = rectangles_touching(p, s.grid)
    return sum(rect_grad(corners(s, rect), h, k)[l - 1] for rect, l in touching)


def del_residual_expanded(s, p) -> float:
    """Ten-term expanded form of the interior equations at p."""
    _require_interior(s.grid, p)
    i, j = p
    h, k = s.grid.h, s.grid.k

    def dk(ii, jj):
        return label(s, ii, jj + 1) - label(s, ii, jj)

    def dh(ii, jj):
        return label(s, ii + 1, jj) - label(s, ii, jj)

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


def first_variation_residual(phi, t, p) -> float:
    """Linearized-equation residual of a tangent field at the interior point p."""
    _require_interior(phi.grid, p)
    h, k = phi.grid.h, phi.grid.k
    total = 0.0
    for rect, l in rectangles_touching(p, phi.grid):
        m = rect_hess(corners(phi, rect), h, k)
        tv = tangent_corners(t, rect)
        total += float(sum(m[kk, l - 1] * tv[kk] for kk in range(4)))
    return total


def first_variation_residual_row(phi, t, j: int) -> np.ndarray:
    """The linearized-equation residual at every point of the level j for
    a given tangent field, from each rectangle's full Hessian."""
    h, k = phi.grid.h, phi.grid.k
    a, b, c = section_parts(phi)

    def terms(r):
        hess = hess_full_from_parts(a[r], b[r], c[r], h, k)
        rects = np.stack([t[r], np.roll(t[r], -1), np.roll(t[r + 1], -1), t[r + 1]])
        return np.einsum("nkl,kn->ln", hess, rects)

    return level_equation_expr(terms(j), terms(j - 1))[0]


# ---------------------------------------------------------------------------
# Boundary sums: one term per boundary point and touching member rectangle.


def boundary_terms(phi, window, term):
    out = []
    for p in boundary_points(window, phi.grid):
        for rect, l in rectangles_touching(p, phi.grid):
            if contains_rect(window, rect):
                out.append(term(rect, l))
    return np.array(out)


def noether_terms(phi, xi, window):
    """Momentum maps dL/dy_l * xi."""
    h, k = phi.grid.h, phi.grid.k
    return boundary_terms(
        phi, window, lambda rect, l: rect_grad(corners(phi, rect), h, k)[l - 1] * xi.xi
    )


def mff_terms(phi, v, w, window):
    h, k = phi.grid.h, phi.grid.k

    def term(rect, l):
        return omega_l(
            corners(phi, rect), h, k, tangent_corners(v, rect), tangent_corners(w, rect), l
        )

    return boundary_terms(phi, window, term)


# ---------------------------------------------------------------------------
# Cyclic tridiagonal solve: bordered elimination, with two separate
# elimination sweeps on numpy scalars, one per right-hand side.


def thomas(lower, diag, upper, rhs):
    n = diag.size
    cp = np.empty(n)
    dp = np.empty(n)
    piv = diag[0]
    if piv == 0.0 or not np.isfinite(piv):
        raise SingularJacobian("zero pivot at row 0")
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


def cyclic_solve(lower, diag, upper, rhs):
    """Scalar path (n < 256) of the package solver: eliminate rows and
    columns 0 .. n-2 for rhs and for the border column A[:n-1, n-1],
    then solve for x[n-1] with the 1x1 Schur complement."""
    n = diag.size
    border = np.zeros(n - 1)
    border[0] = lower[0]
    border[-1] = upper[n - 2]
    y = thomas(lower[:-1], diag[:-1], upper[:-1], rhs[:-1])
    z = thomas(lower[:-1], diag[:-1], upper[:-1], border)
    schur = diag[-1] - upper[-1] * z[0] - lower[-1] * z[-1]
    if schur == 0.0 or not np.isfinite(schur):
        raise SingularJacobian(f"zero pivot at row {n - 1}")
    last = (rhs[-1] - upper[-1] * y[0] - lower[-1] * y[-1]) / schur
    return np.append(y - z * last, last)


# ---------------------------------------------------------------------------
# Tangent march, one level at a time: each level's gradients, on-shell
# check and bands on their own, and each level's stack of right-hand
# sides through one call of the public cyclic solve.


def first_variation_march(phi, v0, cfg=None):
    """Tangents of shape (m, n_time, n_space), or (n_time, n_space) for one
    pair of initial rows v0 (2, n_space), with the package's level
    equations, gate and residual check; each level eliminates its own
    bands.  Level j's right-hand side is -(B_j v[j] + A_{j-1}^T v[j - 1])
    from the expression forms of its self-coupling bands and of the
    previous level's Newton bands, and its solve is checked against the
    linear terms of both of its rectangle rows."""
    cfg = cfg or SolverConfig()
    g = phi.grid
    n, levels = g.n_space, g.n_time
    v0 = np.asarray(v0, dtype=float)
    stack = v0.reshape(-1, 2, n)
    vals = np.empty((len(stack), levels, n))
    vals[:, :2] = stack
    h, k, tol = g.h, g.k, cfg.tol_residual
    a, b, c = section_parts(phi)
    grad_lo = grad_expr(a[0], b[0], c[0], h, k)
    bot = _linear_terms(a[0], b[0], c[0], h, k, vals[:, 0], vals[:, 1])
    bands_lo = jacobian_bands_expr(a[0], b[0], c[0], h, k)
    for j in range(1, levels - 1):
        parts = a[j], b[j], c[j]
        grad_hi = grad_expr(*parts, h, k)
        res, scale = level_equation_expr(grad_hi, grad_lo)
        norm, bound = float(np.max(np.abs(res))), ON_SHELL_FACTOR * tol * max(1.0, scale)
        if norm > bound:
            raise NotOnShell(f"residual {norm:g} at level {j} exceeds {bound:g}")
        own = self_bands_expr(*parts, a[j - 1], h, k)
        rhs = band_product_expr(*own, vals[:, j])
        rhs = rhs + band_product_expr(*transposed_bands(*bands_lo), vals[:, j - 1])
        bands = jacobian_bands_expr(*parts, h, k)
        vals[:, j + 1] = solve_cyclic_tridiagonal(*bands, -rhs)
        top = _linear_terms(*parts, h, k, vals[:, j], vals[:, j + 1])
        res, scale = level_equation_expr(top, bot)
        norm = np.max(np.abs(res), axis=-1)
        size = np.max(sum(np.abs(band) for band in bands)) * np.max(np.abs(vals[:, j + 1]), axis=-1)
        if not np.all(norm <= tol * np.maximum(1.0, np.maximum(scale, size))):
            raise SingularJacobian(f"tangent row solve at level {j} left residual {norm.max():g}")
        grad_lo, bot, bands_lo = grad_hi, top, bands
    return vals.reshape(v0.shape[:-2] + (levels, n))


# ---------------------------------------------------------------------------
# Newton row solve with the four-term gradient of both rectangle rows.


def newton_step(prev, y0, g, cfg):
    """(next row, StepStats) as advance_row gives them for the current row
    y0 and the row ym1 before it, or the stack (ym2, ym1), on rows that
    stay monotone: Newton on the row increment from the linear or the
    quadratic start.  Each iterate's residual and scale are
    the level equation's over the four-term gradient of the top
    rectangles and of the bottom ones, all four vertex terms of each
    (the expression forms)."""
    ym2, ym1 = prev if np.ndim(prev) == 2 else (None, prev)
    h, k = g.h, g.k

    def nxt(y):  # y[i + 1], with the identity lift across the seam
        out = np.roll(y, -1)
        out[-1] = y[0] + g.domain_length
        return out

    bot = grad_expr(*stencil_parts_expr(ym1, nxt(ym1), nxt(y0), y0, h, k), h, k)
    a_t = (nxt(y0) - y0) / h
    e = y0 - ym1
    if ym2 is not None:
        e = e + (e - (ym1 - ym2))
    yp1 = y0 + e
    for it in range(cfg.max_iters + 1):
        b_t = e / k
        c_t = (np.roll(e, -1) - e) / (h * k)
        f, level_scale = level_equation_expr(grad_expr(a_t, b_t, c_t, h, k), bot)
        norm = float(np.max(np.abs(f)))
        if it == 0:
            scale = max(1.0, float(level_scale))
        if norm <= cfg.tol_residual * scale:
            return yp1, StepStats(it, norm, 0, "tolerance", norm / scale)
        if it > 0 and norm >= STAGNATION_RATIO * prev_norm:
            jnorm = float(np.max(np.abs(lower) + np.abs(diag) + np.abs(upper)))
            floor = FP_FLOOR_ULPS * np.finfo(float).eps * jnorm * max(1.0, float(np.max(np.abs(y_prev))))
            if norm <= floor:
                return yp1, StepStats(it, norm, 0, "fp_floor", norm / scale)
        if it == cfg.max_iters:
            raise MaxItersExceeded(f"residual {norm:g} after {cfg.max_iters} Newton iterations")
        lower, diag, upper = jacobian_bands_expr(a_t, b_t, c_t, h, k)
        prev_norm, y_prev = norm, yp1
        e = e + solve_cyclic_tridiagonal(lower, diag, upper, -f)
        yp1 = y0 + e


# ---------------------------------------------------------------------------
# Continuous field equation from a section's jets.


def continuous_el_residual(s):
    """Nested central differences of the continuous field equation

        ((eta_tx/eta_x)**2 - eta_t**2)_x / 2 - (eta_x eta_t)_t
            + (eta_tx/eta_x)_xt

    on the jets of the section, over levels 2 .. n_time - 3."""
    if s.grid.n_time < 5:
        raise OutOfRange("need at least 5 time levels")
    h, k = s.grid.h, s.grid.k
    _, eta_x, eta_t, _, eta_tx, _ = section_to_jets(s)

    def dx(f):
        return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * h)

    def dt(f):
        return (f[2:] - f[:-2]) / (2.0 * k)

    ratio = eta_tx / eta_x
    flux = 0.5 * (ratio**2 - eta_t**2)
    momentum = eta_x * eta_t
    res = dx(flux)[1:-1] - dt(momentum) + dt(dx(ratio))
    return res


# ---------------------------------------------------------------------------
# N-peakons: exact nonlinear solutions and their particles' labels.


def green(x):
    """G(x) = cosh((x mod 2 pi) - pi) / (2 sinh pi), the periodic Green's
    function of 1 - d^2/dx^2 on the circle of length 2 pi: the N-peakon
    profile with weights p_i at peaks q_i is u = sum_i p_i G(x - q_i)."""
    return np.cosh(np.mod(x, 2.0 * np.pi) - np.pi) / (2.0 * np.sinh(np.pi))


def green_dx(x):
    """G'(x) = sinh((x mod 2 pi) - pi) / (2 sinh pi), read as 0 at the
    kink x = 0 mod 2 pi (the mean of its one-sided values)."""
    r = np.mod(x, 2.0 * np.pi)
    return np.where(r == 0.0, 0.0, np.sinh(r - np.pi) / (2.0 * np.sinh(np.pi)))


def multipeakon(p, q):
    """The N-peakon profile u(x) = sum_i p_i G(x - q_i) with weights p at
    peaks q: the initial data of an exact weak solution of the
    Camassa-Holm equation on the circle of length 2 pi."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return lambda x: (p * green(np.asarray(x, dtype=float)[..., None] - q)).sum(axis=-1)


def multipeakon_labels(xs, t: float, p, q, n_steps: int = 2000) -> np.ndarray:
    """Exact labels eta(X, t) of the N-peakon's particles started at
    X = xs, with weights p at peaks q at t = 0, by n_steps steps of
    classical RK4 on the peaks, the weights and the labels together:

        q_i' = u(q_i),  p_i' = -p_i sum_j p_j G'(q_i - q_j),  eta' = u(eta),

    with u = sum_j p_j G(x - q_j) and G'(0) read as 0.  A peak is a
    particle, so no particle crosses one, and a particle started on a
    peak stays on it (its stages are the peak's)."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    eta = np.asarray(xs, dtype=float)
    dt = t / n_steps

    def f(q, p, eta):
        def u(x):
            return (p * green(x[..., None] - q)).sum(axis=-1)

        return u(q), -p * (p * green_dx(q[:, None] - q)).sum(axis=-1), u(eta)

    for _ in range(n_steps):
        y = (q, p, eta)
        k1 = f(*y)
        k2 = f(*(v + 0.5 * dt * k for v, k in zip(y, k1)))
        k3 = f(*(v + 0.5 * dt * k for v, k in zip(y, k2)))
        k4 = f(*(v + dt * k for v, k in zip(y, k3)))
        q, p, eta = (
            v + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
    return eta


def peakon(c: float):
    """The periodic peakon of speed c, phi(xi) = c cosh(xi - pi) / cosh(pi)
    on [0, 2 pi) with its peak, phi = c, at xi = 0: the N = 1 profile with
    p = 2 c tanh(pi) at q = 0."""
    return multipeakon([2.0 * c * np.tanh(np.pi)], [0.0])


def peakon_labels(xs, t: float, c: float, n_steps: int = 2000) -> np.ndarray:
    """Exact labels eta(X, t) of the peakon's particles started at X = xs:
    the N = 1 case of multipeakon_labels."""
    return multipeakon_labels(xs, t, [2.0 * c * np.tanh(np.pi)], [0.0], n_steps)


# ---------------------------------------------------------------------------
# Peakon-antipeakon collision: the exact breaking time.


def collision_time(s0: float) -> float:
    """T* at which the peakon-antipeakon pair p = (1, -1) at q = pi -+ s0
    collides at pi, the exact breaking time of u0 = G(x - q1) - G(x - q2).

    The peaks follow Hamilton's equations for H = sum_ij p_i p_j
    G(q_i - q_j) / 2.  By symmetry p = (P, -P) and q = pi -+ s, so
    H = P^2 (G(0) - G(2 s)) = G(0) - G(2 s0) is conserved, and the
    half-gap obeys s' = -P (G(0) - G(2 s)) = -sqrt(H (G(0) - G(2 s))).
    Hence

        T* = integral over 0 < s < s0 of ds / sqrt(H (G(0) - G(2 s))).

    G(0) - G(2 s) ~ s at s = 0, so after s = sigma^2 the integrand
    2 sigma / sqrt(H (G(0) - G(2 sigma^2))) is smooth, and 40-point
    Gauss-Legendre on 0 < sigma < sqrt(s0) meets it to about 1e-12
    (T* = 2.7351182 at s0 = 0.5, 2.5666273 at s0 = pi / 8)."""
    g0 = green(0.0)
    energy = g0 - green(2.0 * s0)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    half = 0.5 * np.sqrt(s0)
    sigma = half * (nodes + 1.0)
    integrand = 2.0 * sigma / np.sqrt(energy * (g0 - green(2.0 * sigma * sigma)))
    return float(half * np.sum(weights * integrand))

"""Periodic spacetime lattice and its full-circle time windows.

The base space is a spatial circle of ``n_space`` points crossed with
``n_time`` time levels.  Spatial indices wrap modulo ``n_space``, so the
boundary of a full-circle time window consists of its first and last
rows only; all conservation diagnostics reduce to sums over those rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import EmptyRegion, OutOfRange
from .lagrangian import DELTA_MIN_FACTOR

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice on a circle of circumference ``domain_length``.

    ``h`` is the spatial spacing, ``k`` the timestep.  ``n_space * h``
    must reproduce the circumference to a few ulps.
    """

    n_space: int
    n_time: int
    h: float
    k: float
    domain_length: float

    def __post_init__(self):
        if self.n_space < 3:
            raise ValueError("n_space must be at least 3")
        if self.n_time < 2:
            raise ValueError("n_time must be at least 2")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.h, self.k, self.domain_length)):
            raise ValueError("h, k and domain_length must be positive and finite")
        # The row kernels divide by h*k, and the Jacobian's corner entry
        # 1/(a h^2 k^2) must be finite and nonzero from the nominal slope
        # a = 1 down to the smallest slope the kernels accept.
        hk, hhkk = self.h * self.k, self.h * self.h * self.k * self.k
        smallest = DELTA_MIN_FACTOR * hhkk
        if not (
            sys.float_info.min <= hk <= sys.float_info.max
            and hhkk < math.inf
            and smallest > 0.0
            and 1.0 / smallest < math.inf
        ):
            raise ValueError(
                f"h = {self.h!r} and k = {self.k!r} are out of range: h*k must be a "
                "normal float and 1/(a h^2 k^2) finite and nonzero"
            )
        if abs(self.n_space * self.h - self.domain_length) > 4.0 * _EPS * self.domain_length:
            raise ValueError(
                f"n_space * h = {self.n_space * self.h!r} does not match "
                f"domain_length = {self.domain_length!r}"
            )

    @classmethod
    def from_circle(cls, n_space: int, n_time: int, domain_length: float, cfl: float) -> "GridSpec":
        """Build a grid with h = domain_length / n_space and k = cfl * h."""
        h = domain_length / n_space
        return cls(n_space, n_time, h, cfl * h, domain_length)


def classify_region(j_lo: int, j_hi: int, g: GridSpec) -> tuple[int, int]:
    """The time window [j_lo, j_hi] over the full circle as the pair
    (j_lo, j_hi); EmptyRegion unless j_lo < j_hi, OutOfRange unless both
    rows exist.  Its member rectangles are the rectangle rows j_lo ..
    j_hi - 1; the rectangle with first vertex (i, j) has vertices
    1 -> (i, j), 2 -> (i+1, j), 3 -> (i+1, j+1), 4 -> (i, j+1).
    """
    if j_hi <= j_lo:
        raise EmptyRegion(f"time window [{j_lo}, {j_hi}] is empty")
    if j_lo < 0 or j_hi > g.n_time - 1:
        raise OutOfRange(f"time window [{j_lo}, {j_hi}] outside [0, {g.n_time - 1}]")
    return j_lo, j_hi

"""The kernel identities of oracles.identity_ratios on computed sections.

They hold for any admissible data, so they test the kernels' algebra on
whatever section they are given: the check command's CI trajectory
(cosine:0.1, n=16, 10 steps), the same trajectory pushed off shell by
the check command's bump, and a valid section far rougher than any
trajectory all pass them, while a wrong second partial in the
linearized gradient or a wrong momentum in the Legendre map fails them.
The bounds are oracles.IDENTITY_BOUNDS.
"""

import numpy as np
import pytest

from conftest import cosine_trajectory, off_partial, rough_section
from oracles import IDENTITY_BOUNDS, identity_ratios

from chms import bridges, geometry_checks
from chms.del_solver import Section


def _trajectory() -> Section:
    return cosine_trajectory(n_space=16, n_steps=10).section


def _off_shell() -> Section:
    s = _trajectory()
    bump = 0.03 * s.grid.h * np.random.default_rng(3).standard_normal(s.displacement.shape)
    return Section(s.grid, s.displacement + bump)


SECTIONS = {
    "trajectory": _trajectory,
    "off_shell": _off_shell,
    "rough": lambda: rough_section(np.random.default_rng(1)),
}


def _failed(s: Section) -> list[str]:
    """The identities whose worst ratio on s exceeds its bound (NaN fails).

    Each rectangle takes enough tangent draws for about 10^4 in all: an
    L_aa error of 1e-9 shows only where a tangent's da outweighs its other
    difference variables, which one draw on the 16-point trajectory's
    176 rectangles may miss."""
    draws = -(-10_000 // s.displacement.size)
    ratios = identity_ratios(s, np.random.default_rng(5), draws)
    return [name for name, value in ratios.items() if not value <= IDENTITY_BOUNDS[name]]


@pytest.mark.parametrize("section", SECTIONS)
def test_identities_hold_on_any_section(section):
    assert _failed(SECTIONS[section]()) == []


@pytest.mark.parametrize("section", ["trajectory", "off_shell"])
@pytest.mark.parametrize(
    "partial, vertex, rel, failed",
    [
        # L_aa enters the bottom-edge terms only and keeps the Hessian
        # symmetric: the closure misses it, the complex-step line does not.
        ("aa", 1, 0.01, ["linearized_gradient_identity"]),
        ("aa", 1, 1e-9, ["linearized_gradient_identity"]),
        # L_ba alone makes the Hessian asymmetric, so the two-forms no
        # longer close either.
        ("ba", 3, 0.01, ["omega_closure_identity", "linearized_gradient_identity"]),
    ],
    ids=["L_aa", "L_aa_1e-9", "L_ba"],
)
def test_identities_fail_on_a_wrong_second_partial(monkeypatch, section, partial, vertex, rel, failed):
    s = SECTIONS[section]()
    monkeypatch.setattr(geometry_checks, "_linear_terms", off_partial(partial, vertex, rel))
    assert _failed(s) == failed


@pytest.mark.parametrize("section", ["trajectory", "rough"])
def test_legendre_identity_fails_on_a_wrong_momentum(monkeypatch, section):
    """The Legendre identity compares two independent forms of H, so a
    ptx momentum off by 1 % fails it; the rectangle identities do not
    read the Legendre map."""
    s = SECTIONS[section]()
    real = bridges.legendre

    def wrong_ptx(*jet):
        z = real(*jet)
        z[..., 5] *= 1.01
        return z

    monkeypatch.setattr(bridges, "legendre", wrong_ptx)
    assert _failed(s) == ["legendre_hamiltonian_identity"]

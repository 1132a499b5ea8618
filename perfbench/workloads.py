"""The benchmark's workloads: `chms run` argument lists built from a seed.

The seed drives two things only: the program's own `--seed` (the tangent
RNG of the mff diagnostics) and which amplitude of a narrow band around
the nominal cosine amplitude the run uses.  The band is discrete so that
the final row of every amplitude has a recorded reference
(`reference.npz`), and narrow (+-0.5 %) so that the Newton work, and with
it the run time, moves by well under the metric bounds between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Relative offsets of the amplitude band around the nominal amplitude.
AMPLITUDE_OFFSETS = (-0.005, -0.0025, 0.0, 0.0025, 0.005)


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_amplitude: float
    n_space: int
    n_steps: int
    diagnostics: str
    save_every: int | None  # None keeps the program's default (every level)

    def amplitudes(self) -> list[str]:
        """Every amplitude a seed can draw, as the exact `--ic` text."""
        return [format(self.nominal_amplitude * (1.0 + off), ".6g") for off in AMPLITUDE_OFFSETS]

    def amplitude(self, seed: int) -> str:
        return random.Random(seed).choice(self.amplitudes())

    def argv(self, seed: int, out_dir: str) -> list[str]:
        return self.argv_at(self.amplitude(seed), seed, out_dir)

    def argv_at(self, amplitude: str, seed: int, out_dir: str) -> list[str]:
        args = [
            "run",
            "--ic", f"cosine:{amplitude}",
            "--n-space", str(self.n_space),
            "--n-steps", str(self.n_steps),
            "--diagnostics", self.diagnostics,
            "--seed", str(seed),
            "--out-dir", out_dir,
        ]
        if self.save_every is not None:
            args += ["--save-every", str(self.save_every)]
        return args

    @property
    def wants_windows(self) -> bool:
        return self.diagnostics == "all"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fine_march",
            nominal_amplitude=0.1,
            n_space=4096,
            n_steps=200,
            diagnostics="none",
            save_every=200,
        ),
        Workload(
            name="coarse_march",
            nominal_amplitude=0.02,
            n_space=64,
            n_steps=2000,
            diagnostics="none",
            save_every=None,
        ),
        Workload(
            name="full_diagnostics",
            nominal_amplitude=0.1,
            n_space=256,
            n_steps=200,
            diagnostics="all",
            save_every=None,
        ),
    )
}

"""Run configuration: flat key=value files plus CLI flag overrides."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .del_solver import SolverConfig
from .grid import GridSpec

VALID_DIAGNOSTICS = ("noether", "mff", "bridges")


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("parameters must be finite")
    return v


def parse_initial_condition(spec: str, domain_length: float):
    """Initial-velocity sampler from a spec string.

    Supported: ``rest``, ``uniform:c``, ``cosine:amplitude``,
    ``gaussian_bump:amplitude,width`` (bump centred on the circle, using
    circular distance so the profile is periodic).
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    try:
        if name == "rest":
            if rest:
                raise ValueError("rest takes no parameters")
            return lambda x: np.zeros_like(np.asarray(x, dtype=float))
        if name == "uniform":
            c = _finite(rest)
            return lambda x: np.full_like(np.asarray(x, dtype=float), c)
        if name == "cosine":
            a = _finite(rest)
            w = 2.0 * math.pi / domain_length
            return lambda x: a * np.cos(w * np.asarray(x, dtype=float))
        if name == "gaussian_bump":
            amp_s, _, width_s = rest.partition(",")
            a = _finite(amp_s)
            width = _finite(width_s)
            if width <= 0.0:
                raise ValueError("width must be positive")
            centre = 0.5 * domain_length

            def bump(x):
                x = np.asarray(x, dtype=float)
                d = np.abs((x - centre) % domain_length)
                d = np.minimum(d, domain_length - d)
                # A tiny width overflows d / width; exp(-inf) = 0 is the limit.
                with np.errstate(over="ignore"):
                    return a * np.exp(-0.5 * (d / width) ** 2)

            return bump
    except ValueError as exc:
        raise ConfigError(f"initial_condition: cannot parse {spec!r}: {exc}") from exc
    raise ConfigError(
        f"initial_condition: unknown kind {name!r} "
        "(expected rest, uniform, cosine or gaussian_bump)"
    )


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one simulation run."""

    n_space: int = 64
    n_steps: int = 100
    domain_length: float = 2.0 * math.pi
    cfl: float = 0.25
    ic: str = "rest"
    out_dir: str = "chms-out"
    save_every: int = 1
    seed: int = 20240
    diagnostics: tuple[str, ...] = ("noether",)
    tol_residual: float = SolverConfig.tol_residual
    max_iters: int = SolverConfig.max_iters
    inject_off_shell: bool = False

    def __post_init__(self):
        if self.n_space < 3:
            raise ConfigError("n_space: must be at least 3")
        if self.n_steps < 0:
            raise ConfigError("n_steps: must be nonnegative")
        # The march holds n_steps + 2 rows of n_space floats at once.
        if (self.n_steps + 2) * self.n_space * 8 > sys.maxsize:
            raise ConfigError(
                f"n_space, n_steps: a trajectory of ({self.n_steps} + 2) x {self.n_space} "
                "floats is too large to address"
            )
        if not (math.isfinite(self.domain_length) and self.domain_length > 0.0):
            raise ConfigError("domain_length: must be positive and finite")
        if not (math.isfinite(self.cfl) and self.cfl > 0.0):
            raise ConfigError("cfl: must be positive and finite")
        if self.save_every < 1:
            raise ConfigError("save_every: must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        for d in self.diagnostics:
            if d not in VALID_DIAGNOSTICS:
                raise ConfigError(
                    f"diagnostics: unknown toggle {d!r} (valid: {', '.join(VALID_DIAGNOSTICS)})"
                )
        try:
            self.solver()
        except ValueError as exc:
            raise ConfigError(f"solver: {exc}") from exc
        try:
            self.grid()
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        parse_initial_condition(self.ic, self.domain_length)

    def grid(self) -> GridSpec:
        """The two-row lattice a run starts from; k is derived as cfl * h
        so refinement studies keep the anisotropy fixed."""
        return GridSpec.from_circle(self.n_space, 2, self.domain_length, self.cfl)

    def solver(self) -> SolverConfig:
        return SolverConfig(self.tol_residual, self.max_iters)

    def u0(self):
        return parse_initial_condition(self.ic, self.domain_length)

    def as_dict(self) -> dict:
        g = self.grid()
        return {
            "n_space": self.n_space,
            "n_steps": self.n_steps,
            "domain_length": self.domain_length,
            "cfl": self.cfl,
            "h": g.h,
            "k": g.k,
            "initial_condition": self.ic,
            "out_dir": self.out_dir,
            "save_every": self.save_every,
            "seed": self.seed,
            "diagnostics": list(self.diagnostics),
            "solver": {"tol_residual": self.tol_residual, "max_iters": self.max_iters},
            "inject_off_shell": self.inject_off_shell,
        }


#: Each setting's default; its type is the type of the setting's value.
DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys rejected."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, val)
    return values


def parse_diagnostics(val: str) -> tuple[str, ...]:
    val = val.strip().lower()
    if val == "all":
        return VALID_DIAGNOSTICS
    if val in ("none", ""):
        return ()
    return tuple(part.strip() for part in val.split(",") if part.strip())


def _parse_bool(val: str) -> bool:
    if val.lower() in ("1", "true", "yes"):
        return True
    if val.lower() in ("0", "false", "no"):
        return False
    raise ValueError("expected a boolean")


_PARSERS = {int: int, float: float, bool: _parse_bool, tuple: parse_diagnostics, str: str}


def _coerce(key: str, val: str):
    """The value of setting `key` from its text (in a file or a flag),
    parsed by the type of the setting's default."""
    try:
        return _PARSERS[type(DEFAULTS[key])](val)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {val!r}: {exc}") from exc


def build_run_config(file_values: dict | None, overrides: dict) -> RunConfig:
    """Merge configuration sources; explicit CLI flags win over the file."""
    merged = dict(file_values or {})
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**merged)

"""Command-line driver: simulation runs, refinement studies, structure checks.

Exit codes: 0 success, 2 configuration error, 3 solver abort (wave
breaking or non-convergence), 4 check-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import bridges, geometry_checks as gc
from .config import DEFAULTS, RunConfig, _coerce, build_run_config, parse_config_file
from .del_solver import STOP_REASONS, EvolveResult, Section, _row_blocks, evolve, initialize
from .errors import BadInitialData, ChmsError, ConfigError
from .lagrangian import eval_from_parts, grad_from_parts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


# ---------------------------------------------------------------------------
# Deterministic serialization: the CSV writes floats with 17 significant
# digits, the JSON reports in the standard library's shortest round-trip
# form; both read back bit-exactly and identical configs give identical
# bytes.


def format_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        return json.dumps(repr(float(v)))  # "nan", not "np.float64(nan)"
    return format(float(v), ".17g")


def _write_text(path: Path, chunks) -> None:
    """Write the strings of `chunks` to path in order, each as it comes,
    so a file built chunk by chunk is never held whole.  An OSError from
    open, write or close is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"out_dir: cannot write {str(path)!r}: {exc}") from exc


def dump_json(obj, path: Path) -> None:
    """Write obj as two-space-indented JSON and a final newline, streamed
    chunk by chunk from the standard library's encoder."""
    _write_text(path, itertools.chain(json.JSONEncoder(indent=2).iterencode(obj), ["\n"]))


#: The writer forms its labels and velocities over blocks of saved levels
#: this many times smaller than _row_blocks' (about 4096 values): a block
#: is held as arrays and again as Python floats, which cost about four
#: times their array.
_CSV_BLOCK_DIVISOR = 8


def write_trajectory_csv(path: Path, s: Section, save_every: int) -> None:
    """Header t,i,x,eta,u; one row per saved (level, spatial index).

    u is the forward-difference particle velocity; the final level uses
    the backward difference since no later row exists.  The file is
    streamed: the header, then each saved level's text, formatted and
    written one level at a time.  The labels and velocities of a block
    of saved levels (_CSV_BLOCK_DIVISOR) are formed at once, one NumPy
    call per quantity.  Each level is formatted by one printf template
    ("%.17g" writes a finite float as format_float does); a level with a
    non-finite value takes the per-value path, which quotes it.
    """
    g = s.grid
    n, last = g.n_space, g.n_time - 1
    ix = [f",{i},{format_float(i * g.h)}," for i in range(n)]
    template = "".join(f"%s{x}%.17g,%.17g\n" for x in ix)
    levels = np.append(np.arange(0, last, save_every), last)

    def chunks():
        yield "t,i,x,eta,u\n"
        for lo, hi in _row_blocks(len(levels), _CSV_BLOCK_DIVISOR * n):
            js = levels[lo:hi]
            eta = s.row_y(js)
            # The next level of each, the one before of the final level,
            # whose difference is taken the other way round (negating it
            # would write an equal pair's +0 as -0).
            near = s.row_y(np.where(js < last, js + 1, js - 1))
            u = near - eta
            if js[-1] == last:
                u[-1] = eta[-1] - near[-1]
            u /= g.k
            finite = np.isfinite(eta).all(axis=1) & np.isfinite(u).all(axis=1)
            for j, ok, e_j, u_j in zip(js.tolist(), finite.tolist(), eta.tolist(), u.tolist()):
                t = format_float(j * g.k)
                if ok:
                    vals = [t] * (3 * n)
                    vals[1::3], vals[2::3] = e_j, u_j
                    yield template % tuple(vals)
                else:
                    rows = zip(ix, e_j, u_j)
                    yield "".join(f"{t}{x}{format_float(e)},{format_float(v)}\n" for x, e, v in rows)

    _write_text(path, chunks())


# ---------------------------------------------------------------------------
# Shared run machinery.


def diagnostic_windows(n_rows: int) -> list[tuple[int, int]]:
    """Whole run, then its first and second half when it spans at least
    two rectangle rows; n_rows >= 2 (GridSpec's minimum)."""
    j_hi = n_rows - 1
    mid = j_hi // 2
    windows = [(0, j_hi)]
    if mid > 0:
        windows += [(0, mid), (mid, j_hi)]
    return windows


def _drift(momenta: list[float]) -> tuple[float, float]:
    """Initial total momentum and its largest departure over the levels."""
    p0 = momenta[0]
    return p0, max(abs(p - p0) for p in momenta)


def _step_records(result: EvolveResult, momenta, actions) -> list[dict]:
    records = []
    for m, st in enumerate(result.steps, 1):
        records.append(
            {
                "step": m,
                "newton_iterations": st.iterations,
                "residual_inf_norm": st.residual_norm,
                "relative_residual": st.relative_residual,
                "backtracks": st.backtracks,
                "stop_reason": st.stop_reason,
                "total_momentum": momenta[m],
                "action_increment": actions[m],
            }
        )
    return records


def _tangent_pair(s: Section, cfg: RunConfig, rng) -> np.ndarray:
    """Two tangent-linear solutions from random initial rows, marched
    together: shape (2, n_time, n_space)."""
    return gc.solve_first_variation(s, rng.standard_normal((2, 2, s.grid.n_space)), cfg.solver())


def _window_records(s: Section, noether: bool, tangents) -> list[dict]:
    """Per-window boundary sums and absolute sums; the two-form sums need
    a pair of tangent solutions (None skips them)."""
    records = []
    xi = gc.SymmetryGenerator(1.0)
    for window in diagnostic_windows(s.grid.n_time):
        rec: dict = {"j_lo": window[0], "j_hi": window[1]}
        sums = {}
        if noether:
            sums["noether"] = gc.noether_boundary_terms(s, xi, window)
        if tangents is not None:
            sums["mff"] = gc.mff_boundary_terms(s, *tangents, window)
        for name, terms in sums.items():
            rec[f"{name}_boundary_sum"] = float(np.sum(terms))
            rec[f"{name}_abs_sum"] = float(np.sum(np.abs(terms)))
        records.append(rec)
    return records


def _execute(cfg: RunConfig) -> EvolveResult:
    s0 = initialize(cfg.u0(), cfg.grid())
    return evolve(s0, cfg.n_steps, cfg.solver())


def _out_dir(cfg: RunConfig) -> Path:
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir: cannot create {cfg.out_dir!r}: {exc}") from exc
    return out_dir


def run_command(cfg: RunConfig) -> int:
    out_dir = _out_dir(cfg)
    rng = np.random.default_rng(cfg.seed)
    result = _execute(cfg)
    s = result.section
    momenta, actions = gc.level_series(s)
    p0, drift = _drift(momenta)
    report: dict = {
        "config": cfg.as_dict(),
        "steps": _step_records(result, momenta, actions),
        "windows": [],
        "summary": {
            "status": "ok" if result.ok else "aborted",
            "n_rows": s.grid.n_time,
            "final_time": (s.grid.n_time - 1) * s.grid.k,
            "momentum_initial": p0,
            "momentum_drift_max": drift,
            "max_newton_iterations": max((st.iterations for st in result.steps), default=0),
            "max_residual_inf_norm": max((st.residual_norm for st in result.steps), default=0.0),
            "max_relative_residual": max(
                (st.relative_residual for st in result.steps), default=0.0
            ),
            "stop_reasons": {
                reason: sum(st.stop_reason == reason for st in result.steps)
                for reason in STOP_REASONS
            },
            "failure": None,
        },
    }
    summary = report["summary"]
    abort = None
    if not result.ok:
        summary["failure"] = dataclasses.asdict(result.failure)
        abort = f"solver abort at step {result.failure.step}: {result.failure.message}"
    else:
        # A failing structure check leaves a completed march: the trajectory
        # and the failure report are still written before exiting 3.
        try:
            if s.grid.n_time >= 3 and ({"noether", "mff"} & set(cfg.diagnostics)):
                tangents = _tangent_pair(s, cfg, rng) if "mff" in cfg.diagnostics else None
                report["windows"] = _window_records(s, "noether" in cfg.diagnostics, tangents)
            if "bridges" in cfg.diagnostics:
                summary["bridges"] = bridges.residual_maxima(s)
        except (ChmsError, FloatingPointError) as exc:
            summary["status"] = "aborted"
            summary["failure"] = {
                "stage": "diagnostics",
                "error": type(exc).__name__,
                "message": str(exc),
            }
            abort = f"solver abort: diagnostics: {exc}"
    write_trajectory_csv(out_dir / "trajectory.csv", s, cfg.save_every)
    dump_json(report, out_dir / "diagnostics.json")
    if abort is not None:
        print(abort, file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# Refinement study.


def parse_levels(text: str) -> list[int]:
    try:
        levels = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"levels: {exc}") from exc
    if len(levels) < 3:
        raise ConfigError("levels: need at least 3 refinement factors")
    if any(f < 1 for f in levels):
        raise ConfigError("levels: factors must be positive integers")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels: factors must be strictly increasing")
    if any(b % a for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels: each factor must divide the next")
    return levels


_EXACT_ERROR = 1e-10  # successive differences below this are roundoff


def _orders(values, factors) -> list:
    """Order estimates log(v_a / v_b) / log(f_b / f_a) of successive values
    at successive refinement factors: "exact" when both values are below
    roundoff, None when either is missing or only one of them is zero."""
    out = []
    for va, vb, fa, fb in zip(values, values[1:], factors, factors[1:]):
        if va is None or vb is None:
            out.append(None)
        elif va < _EXACT_ERROR and vb < _EXACT_ERROR:
            out.append("exact")
        elif va == 0.0 or vb == 0.0:
            out.append(None)
        else:
            out.append(math.log(va / vb) / math.log(fb / fa))
    return out


def converge_command(cfg: RunConfig, levels: list[int]) -> int:
    """Run the same physical problem at each refinement of the base grid
    and compare solutions at the shared final physical time."""
    out_dir = _out_dir(cfg)
    rows = []
    finals = []  # (factor, row at the shared final time)
    status = "ok"
    failure = None
    # Every refined level is validated before the first one runs.
    level_cfgs = [
        dataclasses.replace(cfg, n_space=cfg.n_space * f, n_steps=cfg.n_steps * f) for f in levels
    ]
    for f, level_cfg in zip(levels, level_cfgs):
        result = _execute(level_cfg)
        if not result.ok:
            status = "aborted"
            failure = {"factor": f, **dataclasses.asdict(result.failure)}
            break
        s = result.section
        finals.append((f, s.row_y(f * cfg.n_steps)))
        rows.append(
            {
                "factor": f,
                "n_space": level_cfg.n_space,
                "n_steps": level_cfg.n_steps,
                "h": s.grid.h,
                "k": s.grid.k,
                "bridges": bridges.residual_maxima(s),
            }
        )
    # Compare restrictions at the shared physical time n_steps * k_base
    # (the final rows of different levels sit at different times).
    errors = [
        float(np.max(np.abs(fine[:: fb // fa] - coarse)))
        for (fa, coarse), (fb, fine) in zip(finals, finals[1:])
    ]
    orders = _orders(errors, levels)
    factors = [r["factor"] for r in rows]
    bridges_orders = {
        key: _orders([r["bridges"][key] for r in rows], factors)
        for key in ("conservation_residual_max", "continuous_el_residual_max")
    }
    report = {
        "config": cfg.as_dict(),
        "levels": rows,
        "errors": errors,
        "orders": orders,
        "bridges_orders": bridges_orders,
        "status": status,
        "failure": failure,
    }
    dump_json(report, out_dir / "convergence.json")
    # Classic layout: each line carries the error against the previous
    # coarser level and the order estimated from successive errors.
    print(f"{'factor':>6} {'n_space':>8} {'n_steps':>8} {'error_vs_prev':>14} {'order':>8}")
    errs = ["-"] + [format(e, ".6e") for e in errors]
    for row, err, o in zip(rows, errs, ["-", "-"] + orders):
        order = "-" if o is None else o if isinstance(o, str) else format(o, ".3f")
        print(f"{row['factor']:>6} {row['n_space']:>8} {row['n_steps']:>8} {err:>14} {order:>8}")
    if status != "ok":
        print(f"study aborted at factor {failure['factor']}: {failure['message']}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# Check suite.


def _worst_ratio(dev: np.ndarray, terms: np.ndarray) -> float:
    """Worst |dev| / sum_l |t_l| over a batch of rectangles, the terms t
    with the vertex index first; a rectangle whose terms are all zero
    passes."""
    scale = np.sum(np.abs(terms), axis=0)
    dev = np.abs(dev)
    return float(np.max(np.divide(dev, scale, out=np.zeros_like(dev), where=scale > 0.0)))


def _boundary_ratio(total: float, scale: float) -> float:
    if scale > 0.0:
        return abs(total) / scale
    return 0.0 if total == 0.0 else math.inf


#: The pass bound of each check: the identities hold to rounding or
#: exactly, the theorem checks to the Newton tolerance's precision.
CHECK_BOUNDS = {
    "omega_closure_identity": 1e-12,
    "momentum_closure_identity": 1e-12,
    "linearized_gradient_identity": 1e-12,
    "legendre_hamiltonian_identity": 8.0 * sys.float_info.epsilon,
    "noether_boundary_sum_on_shell": 1e-9,
    "mff_boundary_sum_on_shell": 1e-8,
    "total_momentum_drift": 1e-9,
}


def _check(name: str, value: float) -> dict:
    threshold = CHECK_BOUNDS[name]
    status = "PASS" if value <= threshold else "FAIL"
    return {"name": name, "status": status, "value": value, "threshold": threshold}


def check_suite(cfg: RunConfig) -> tuple[list[dict], int]:
    """Identity and theorem checks on a fresh short trajectory.

    Identity checks hold for any admissible data; the boundary-sum
    checks hold only on solutions, so an injected off-shell perturbation
    makes them fail while the identities keep passing.
    """
    rng = np.random.default_rng(cfg.seed)
    result = _execute(cfg)
    if not result.ok:
        failure = result.failure
        raise ChmsError(f"trajectory aborted at step {failure.step}: {failure.message}")
    s = result.section
    # Tangent solutions are always computed along the true solution; the
    # checks below run on the optionally perturbed trajectory.
    tangents = _tangent_pair(s, cfg, rng)
    target = s
    if cfg.inject_off_shell:
        bump = 0.03 * s.grid.h * rng.standard_normal(s.displacement.shape)
        target = Section(s.grid, s.displacement + bump)
    checks: list[dict] = []

    # Identities on every rectangle of the trajectory, with random
    # tangent rows and symmetry generators.
    h, k = target.grid.h, target.grid.k
    a, b, c = gc.section_parts(target)
    v, w = rng.standard_normal((2, 2) + a.shape)  # (bottom, top) row pairs
    omega = gc.two_forms(a, b, c, h, k, v, w)
    checks.append(_check("omega_closure_identity", _worst_ratio(omega.sum(axis=0), omega)))
    momentum = rng.uniform(-2.0, 2.0, a.shape) * np.stack(grad_from_parts(a, b, c, h, k))
    checks.append(_check("momentum_closure_identity", _worst_ratio(momentum.sum(axis=0), momentum)))
    # The linearized gradient against the complex-step derivative of the
    # gradient along the same tangent rows, Im grad(a + i tau da, ...) / tau
    # with the tangent's parts (da, db, dc): exact to rounding, with no
    # step-size trade-off.
    tau = 1e-100
    dparts = gc._tangent_parts(*v, h, k)
    shifted = [p + 1j * tau * dp for p, dp in zip((a, b, c), dparts)]
    ref = np.stack(grad_from_parts(*shifted, h, k)).imag / tau
    err = np.max(np.abs(gc._linear_terms(a, b, c, h, k, *v) - ref), axis=0)
    checks.append(_check("linearized_gradient_identity", _worst_ratio(err, ref)))

    vals = rng.uniform(-2.0, 2.0, size=(5, 1000))
    eta_x, eta_t, eta_tx = rng.uniform(0.3, 3.0, size=1000), vals[1], vals[3]
    # The phase-space polynomial against the defining identity
    # H = L - px*eta_x - pt*eta_t - ptx*eta_tx on the same jets.
    z = bridges.legendre(vals[0], eta_x, eta_t, vals[2], eta_tx, vals[4])
    dens = eval_from_parts(eta_x, eta_t, eta_tx)
    pairings = [z[:, 3] * eta_x, z[:, 4] * eta_t, z[:, 5] * eta_tx]
    ham = dens - pairings[0] - pairings[1] - pairings[2]
    scale = np.maximum(np.max(np.abs([dens, *pairings]), axis=0), 1.0)
    worst_ham = float(np.max(np.abs(bridges.hamiltonian_phase(z) - ham) / scale))
    checks.append(_check("legendre_hamiltonian_identity", worst_ham))

    windows = _window_records(target, noether=True, tangents=tangents)
    for name in ("noether", "mff"):
        worst = max(_boundary_ratio(w[f"{name}_boundary_sum"], w[f"{name}_abs_sum"]) for w in windows)
        checks.append(_check(f"{name}_boundary_sum_on_shell", worst))

    p0, drift = _drift(gc.level_series(target)[0])
    drift_scale = max(abs(p0), gc.total_momentum_scale(target, 0), 1e-300)
    checks.append(_check("total_momentum_drift", drift / drift_scale))

    for key, val in bridges.residual_maxima(target).items():
        if val is not None:
            checks.append({"name": key, "status": "INFO", "value": val, "threshold": None})

    failed = any(c["status"] == "FAIL" for c in checks)
    return checks, (EXIT_CHECK if failed else EXIT_OK)


def check_command(cfg: RunConfig) -> int:
    # Two levels have no interior level, so the theorem checks would pass
    # on closure identities alone.
    if cfg.n_steps < 1:
        raise ConfigError("n_steps: check needs at least 1 step (an interior level)")
    checks, code = check_suite(cfg)
    # Created only now, so a trajectory that aborts leaves no directory.
    out_dir = _out_dir(cfg)
    dump_json({"config": cfg.as_dict(), "checks": checks}, out_dir / "check.json")
    for c in checks:
        thr = "-" if c["threshold"] is None else format(c["threshold"], ".3e")
        print(f"{c['status']}: {c['name']} value={format(c['value'], '.3e')} threshold={thr}")
    return code


# ---------------------------------------------------------------------------
# Argument parsing.


_FLAG_HELP = {
    "ic": "rest | uniform:c | cosine:a | gaussian_bump:a,w",
    "diagnostics": "comma list of noether,mff,bridges (or all/none)",
}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """--config, and a flag for each run setting (--n-space sets n_space)
    whose value parses as the setting's config-file value does;
    inject_off_shell is the check command's switch."""
    p.add_argument("--config", help="flat key=value configuration file")
    for name in DEFAULTS:
        if name != "inject_off_shell":
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, type=partial(_coerce, name), help=_FLAG_HELP.get(name))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """Raises a parse error as a ConfigError (one stderr line in main).

    argparse reads a token such as -inf or -1e+16 as an option, so a
    float flag followed by a token that parses as a float is joined to it
    (--cfl -inf becomes --cfl=-inf) and the value reaches validation.
    argparse also drops the value of --ic=--, leaving [] in its place; it
    is kept, as a config file keeps "ic = --".
    """

    def error(self, message):
        raise ConfigError(message)

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        float_flags = {
            o for a in self._actions if isinstance(DEFAULTS.get(a.dest), float) for o in a.option_strings
        }
        joined = []
        for tok in args:
            if joined and joined[-1] in float_flags and tok.startswith("-") and _is_float(tok):
                joined[-1] = f"{joined[-1]}={tok}"
            else:
                joined.append(tok)
        return super().parse_known_args(joined, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chms",
        description="Variational time integrator and conservation diagnostics "
        "for the shallow-water particle-label field on a circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a simulation and write trajectory + diagnostics")
    _add_run_flags(run_p)
    conv_p = sub.add_parser("converge", help="refinement study at fixed cfl")
    _add_run_flags(conv_p)
    conv_p.add_argument("--levels", default="1,2,4", help="comma list of refinement factors")
    check_p = sub.add_parser("check", help="run the structure-check suite")
    _add_run_flags(check_p)
    check_p.add_argument(
        "--inject-off-shell",
        action="store_true",
        default=None,  # absent: a config file's value stands
        dest="inject_off_shell",
        help="perturb the trajectory so the theorem checks must fail",
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    return build_run_config(file_values, {name: getattr(args, name, None) for name in DEFAULTS})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        # A floating-point overflow or invalid operation (inputs at the
        # edge of the float range) raises instead of warning and leaving
        # inf or nan in the outputs.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "run":
                return run_command(cfg)
            if args.command == "converge":
                return converge_command(cfg, parse_levels(args.levels))
            return check_command(cfg)
    except SystemExit as exc:  # --help has printed its text
        return int(exc.code) if exc.code else EXIT_OK
    except (ConfigError, BadInitialData) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # A run larger than the memory at hand is a configuration error.
        print(f"config error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    except (ChmsError, FloatingPointError) as exc:
        # Anything else the package raises, including a diagnostics
        # failure after a completed march (NotOnShell), is a solver abort.
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""Command-line driver: simulation runs, refinement studies, structure checks.

Exit codes: 0 success, 2 configuration error, 3 solver abort (wave
breaking or non-convergence), 4 check-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import bridges, geometry_checks as gc
from .config import RunConfig, build_run_config, parse_config_file, parse_diagnostics
from .del_solver import EvolveResult, Section, evolve, initialize
from .errors import BadInitialData, ChmsError, ConfigError, OutOfRange
from .grid import classify_region
from .lagrangian import grad_from_parts, hess_full_from_parts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


# ---------------------------------------------------------------------------
# Deterministic serialization: floats carry 17 significant digits so the
# files round-trip bit-exactly and identical configs give identical bytes.


def format_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        return json.dumps(repr(v))
    return format(float(v), ".17g")


def _json_value(v, indent: int) -> str:
    pad = "  " * (indent + 1)
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = ",\n".join(
            f"{pad}{json.dumps(str(key))}: {_json_value(val, indent + 1)}"
            for key, val in v.items()
        )
        return "{\n" + items + "\n" + "  " * indent + "}"
    if isinstance(v, (list, tuple)):
        if not len(v):
            return "[]"
        items = ",\n".join(f"{pad}{_json_value(x, indent + 1)}" for x in v)
        return "[\n" + items + "\n" + "  " * indent + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, numbers.Integral):
        return str(int(v))
    return json.dumps(str(v))


def dump_json(obj, path: Path) -> None:
    path.write_text(_json_value(obj, 0) + "\n", encoding="utf-8")


def write_trajectory_csv(path: Path, s: Section, save_every: int) -> None:
    """Header t,i,x,eta,u; one row per saved (level, spatial index).

    u is the forward-difference particle velocity; the final level uses
    the backward difference since no later row exists.
    """
    g = s.grid
    last = g.n_time - 1
    levels = sorted(set(range(0, g.n_time, save_every)) | {last})
    lines = ["t,i,x,eta,u"]
    for j in levels:
        eta = s.row_y(j)
        if j < last:
            u = (s.row_y(j + 1) - eta) / g.k
        else:
            u = (eta - s.row_y(j - 1)) / g.k
        t = format_float(j * g.k)
        for i in range(g.n_space):
            lines.append(
                f"{t},{i},{format_float(i * g.h)},{format_float(eta[i])},{format_float(u[i])}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Shared run machinery.


def diagnostic_windows(n_rows: int) -> list[tuple[int, int]]:
    """Whole run, first half, second half (deduplicated, in that order)."""
    j_hi = n_rows - 1
    if j_hi < 1:
        return []
    mid = j_hi // 2
    windows = [(0, j_hi)]
    if 0 < mid < j_hi:
        windows += [(0, mid), (mid, j_hi)]
    out = []
    for w in windows:
        if w not in out:
            out.append(w)
    return out


def _drift(momenta: list[float]) -> tuple[float, float]:
    """Initial total momentum and its largest departure over the levels."""
    p0 = momenta[0]
    return p0, max(abs(p - p0) for p in momenta)


def _step_records(result: EvolveResult, momenta, actions) -> list[dict]:
    records = []
    for st in result.steps:
        records.append(
            {
                "step": st.step,
                "newton_iterations": st.iterations,
                "residual_inf_norm": st.residual_norm,
                "backtracks": st.backtracks,
                "total_momentum": momenta[st.step],
                "action_increment": actions[st.step],
            }
        )
    return records


def _tangent_pair(s: Section, cfg: RunConfig, rng) -> tuple[gc.TangentSection, ...]:
    """Two tangent-linear solutions from random initial rows, marched together."""
    return gc.solve_first_variation(s, rng.standard_normal((2, 2, s.grid.n_space)), cfg.solver())


def _window_records(s: Section, noether: bool, tangents) -> list[dict]:
    """Per-window boundary sums and absolute sums; the two-form sums need
    a pair of tangent solutions (None skips them)."""
    records = []
    xi = gc.SymmetryGenerator(1.0)
    for j_lo, j_hi in diagnostic_windows(s.grid.n_time):
        region = classify_region(j_lo, j_hi, s.grid)
        rec: dict = {"j_lo": j_lo, "j_hi": j_hi}
        sums = {}
        if noether:
            sums["noether"] = gc.noether_boundary_terms(s, xi, region)
        if tangents is not None:
            sums["mff"] = gc.mff_boundary_terms(s, *tangents, region)
        for name, terms in sums.items():
            rec[f"{name}_boundary_sum"] = float(np.sum(terms))
            rec[f"{name}_abs_sum"] = float(np.sum(np.abs(terms)))
        records.append(rec)
    return records


def _bridges_summary(s: Section) -> dict | None:
    try:
        z, levels = bridges.phase_field(s)
        cons, _ = bridges.conservation_residual(z, s.grid, levels)
        ham, _ = bridges.hamilton_residuals(z, s.grid, levels)
        el, _ = bridges.continuous_el_residual(s)
    except OutOfRange:
        return None
    return {
        "conservation_residual_max": float(np.max(np.abs(cons))),
        "hamilton_residuals_max": float(np.max(np.abs(ham))),
        "continuous_el_residual_max": float(np.max(np.abs(el))),
    }


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
            "failure": None,
        },
    }
    summary = report["summary"]
    abort = None
    if not result.ok:
        summary["failure"] = {
            "step": result.failure.step,
            "error": result.failure.error,
            "message": result.failure.message,
        }
        abort = f"solver abort at step {result.failure.step}: {result.failure.message}"
    else:
        # A failing structure check leaves a completed march: the trajectory
        # and the failure report are still written before exiting 3.
        try:
            if s.grid.n_time >= 3 and ({"noether", "mff"} & set(cfg.diagnostics)):
                tangents = _tangent_pair(s, cfg, rng) if "mff" in cfg.diagnostics else None
                report["windows"] = _window_records(s, "noether" in cfg.diagnostics, tangents)
            if "bridges" in cfg.diagnostics:
                summary["bridges"] = _bridges_summary(s)
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
    sections = []
    status = "ok"
    failure = None
    for f in levels:
        level_cfg = dataclasses.replace(cfg, n_space=cfg.n_space * f, n_steps=cfg.n_steps * f)
        result = _execute(level_cfg)
        if not result.ok:
            status = "aborted"
            failure = {
                "factor": f,
                "step": result.failure.step,
                "error": result.failure.error,
                "message": result.failure.message,
            }
            break
        s = result.section
        sections.append((f, s))
        rows.append(
            {
                "factor": f,
                "n_space": level_cfg.n_space,
                "n_steps": level_cfg.n_steps,
                "h": s.grid.h,
                "k": s.grid.k,
                "bridges": _bridges_summary(s),
            }
        )
    # Compare restrictions at the shared physical time n_steps * k_base
    # (the final rows of different levels sit at different times).
    errors = []
    for (fa, sa), (fb, sb) in zip(sections, sections[1:]):
        ratio = fb // fa
        fine = sb.row_y(fb * cfg.n_steps)[::ratio]
        coarse = sa.row_y(fa * cfg.n_steps)
        errors.append(float(np.max(np.abs(fine - coarse))))
    orders = _orders(errors, levels)
    factors = [r["factor"] for r in rows]
    bridges_orders = {
        key: _orders([r["bridges"][key] if r["bridges"] else None for r in rows], factors)
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
    for idx, row in enumerate(rows):
        err = format(errors[idx - 1], ".6e") if 1 <= idx <= len(errors) else "-"
        if 2 <= idx <= len(orders) + 1:
            o = orders[idx - 2]
            order = "-" if o is None else o if isinstance(o, str) else format(o, ".3f")
        else:
            order = "-"
        print(f"{row['factor']:>6} {row['n_space']:>8} {row['n_steps']:>8} {err:>14} {order:>8}")
    if status != "ok":
        print(f"study aborted at factor {failure['factor']}: {failure['message']}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# Check suite.


def _closure_ratio(terms: np.ndarray) -> float:
    """Worst |sum_l t_l| / sum_l |t_l| over a batch (vertex index first);
    a rectangle whose terms are all zero passes."""
    scale = np.sum(np.abs(terms), axis=0)
    total = np.abs(np.sum(terms, axis=0))
    return float(np.max(np.divide(total, scale, out=np.zeros_like(total), where=scale > 0.0)))


def _boundary_ratio(total: float, scale: float) -> float:
    if scale > 0.0:
        return abs(total) / scale
    return 0.0 if total == 0.0 else math.inf


def _check(name: str, value: float, threshold: float) -> dict:
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
        raise ChmsError(f"trajectory aborted: {result.failure.message}")
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
    # tangent rectangles and symmetry generators.
    h, k = target.grid.h, target.grid.k
    a, b, c = gc.section_parts(target)
    hess = hess_full_from_parts(a, b, c, h, k)
    batch = (4,) + a.shape
    omega = gc.omega_from_hess(hess, rng.standard_normal(batch), rng.standard_normal(batch))
    checks.append(_check("omega_closure_identity", _closure_ratio(omega), 1e-12))
    momentum = rng.uniform(-2.0, 2.0, a.shape) * np.stack(grad_from_parts(a, b, c, h, k))
    checks.append(_check("momentum_closure_identity", _closure_ratio(momentum), 1e-12))
    row_sums = np.max(np.abs(hess.sum(axis=-1)), axis=-1) / np.maximum(
        np.max(np.abs(hess), axis=(-2, -1)), 1e-300
    )
    checks.append(_check("hessian_row_sum_zero", float(np.max(row_sums)), 1e-12))

    vals = rng.uniform(-2.0, 2.0, size=(6, 1000))
    jet = bridges.Jet3Sample(
        eta=vals[0],
        eta_x=rng.uniform(0.3, 3.0, size=1000),
        eta_t=vals[1],
        eta_xx=vals[2],
        eta_tx=vals[3],
        eta_tt=vals[4],
        eta_txx=vals[5],
    )
    z = bridges.legendre(jet)
    dens = 0.5 * (jet.eta_x * jet.eta_t**2 + jet.eta_tx**2 / jet.eta_x)
    lhs = bridges.hamiltonian(jet) + z.px * jet.eta_x + z.pt * jet.eta_t + z.ptx * jet.eta_tx
    scale = np.maximum(np.max(np.abs([dens, z.px * jet.eta_x, z.pt * jet.eta_t]), axis=0), 1.0)
    worst_ham = float(np.max(np.abs(lhs - dens) / scale))
    checks.append(_check("legendre_hamiltonian_identity", worst_ham, 8.0 * sys.float_info.epsilon))

    u, v = np.moveaxis(rng.standard_normal((200, 2, 6)), 1, 0)
    (w1, w0), (s1, s0) = bridges.omega_pair(u, v), bridges.omega_pair(v, u)
    worst_skew = float(max(np.max(np.abs(w1 + s1)), np.max(np.abs(w0 + s0))))
    checks.append(_check("omega_pair_skew_exact", worst_skew, 0.0))
    entry_err = max(
        abs(bridges.omega_pair([1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0])[0] + 1.0),
        abs(bridges.omega_pair([1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0])[1] + 1.0),
    )
    checks.append(_check("presymplectic_matrix_entries", entry_err, 0.0))
    rank_err = abs(bridges.rank_by_elimination(bridges.B1) - 4) + abs(
        bridges.rank_by_elimination(bridges.B0) - 2
    )
    checks.append(_check("presymplectic_rank_degeneracy", float(rank_err), 0.0))

    windows = _window_records(target, noether=True, tangents=tangents)
    for name, threshold in (("noether", 1e-9), ("mff", 1e-8)):
        worst = max(_boundary_ratio(w[f"{name}_boundary_sum"], w[f"{name}_abs_sum"]) for w in windows)
        checks.append(_check(f"{name}_boundary_sum_on_shell", worst, threshold))

    p0, drift = _drift(gc.level_series(target)[0])
    drift_scale = max(abs(p0), gc.total_momentum_scale(target, 0), 1e-300)
    checks.append(_check("total_momentum_drift", drift / drift_scale, 1e-9))

    info = _bridges_summary(target)
    if info is not None:
        for key, val in info.items():
            checks.append({"name": key, "status": "INFO", "value": val, "threshold": None})

    failed = any(c["status"] == "FAIL" for c in checks)
    return checks, (EXIT_CHECK if failed else EXIT_OK)


def check_command(cfg: RunConfig) -> int:
    out_dir = _out_dir(cfg)
    checks, code = check_suite(cfg)
    dump_json({"config": cfg.as_dict(), "checks": checks}, out_dir / "check.json")
    for c in checks:
        thr = "-" if c["threshold"] is None else format(c["threshold"], ".3e")
        print(f"{c['status']}: {c['name']} value={format(c['value'], '.3e')} threshold={thr}")
    return code


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--n-space", type=int, dest="n_space")
    p.add_argument("--n-steps", type=int, dest="n_steps")
    p.add_argument("--cfl", type=float)
    p.add_argument("--domain-length", type=float, dest="domain_length")
    p.add_argument("--ic", help="rest | uniform:c | cosine:a | gaussian_bump:a,w")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--save-every", type=int, dest="save_every")
    p.add_argument("--seed", type=int)
    p.add_argument("--diagnostics", help="comma list of noether,mff,bridges (or all/none)")
    p.add_argument("--tol-residual", type=float, dest="tol_residual")
    p.add_argument("--max-iters", type=int, dest="max_iters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        dest="inject_off_shell",
        help="perturb the trajectory so the theorem checks must fail",
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {
        "n_space": args.n_space,
        "n_steps": args.n_steps,
        "cfl": args.cfl,
        "domain_length": args.domain_length,
        "ic": args.ic,
        "out_dir": args.out_dir,
        "save_every": args.save_every,
        "seed": args.seed,
        "tol_residual": args.tol_residual,
        "max_iters": args.max_iters,
    }
    if args.diagnostics is not None:
        overrides["diagnostics"] = parse_diagnostics(args.diagnostics)
    if getattr(args, "inject_off_shell", False):
        overrides["inject_off_shell"] = True
    return build_run_config(file_values, overrides)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
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
    except (ConfigError, BadInitialData) as exc:
        print(f"config error: {exc}", file=sys.stderr)
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

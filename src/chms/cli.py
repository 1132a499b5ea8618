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
import random
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import bridges, geometry_checks as gc
from .config import DEFAULTS, RunConfig, _coerce, build_run_config, parse_config_file
from .del_solver import STOP_REASONS, EvolveResult, Section, _increments, _row_blocks, evolve, initialize
from .errors import BadInitialData, ChmsError, ConfigError

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
#: this many times smaller than _row_blocks' (about 2048 values): a block
#: is held as arrays and again as a text buffer of about 140 bytes a line.
_CSV_BLOCK_DIVISOR = 16


# The trajectory CSV's text: each float as "%.17g" writes it, byte for
# byte, formed in NumPy a block of values at a time.
#
# A finite |v| in [1e-4, 1e17) is written in fixed notation: its 17
# significant digits D = round(|v| 10^(16 - X)), rounded half to even,
# with X = floor(log10 |v|) after rounding, the point after digit X
# (after "0." and -X - 1 zeros for X < 0) and trailing zeros dropped.  D
# is exact in plain doubles: 10^(16 - X) is exact for X >= -4, and
# Dekker's product gives |v| 10^(16 - X) as hi + lo with no rounding.
# Every other value (|v| < 1e-4, zeros included, |v| >= 1e17, non-finite
# values) takes format_float one at a time.
#
# A comma and the text of one value are laid out as 11 uint32 words of
# ASCII bytes in memory order, NUL where a position is unused; the NULs
# are dropped once a block's lines are laid out.  Words 0-1 hold the
# comma, the sign and "0." and -X - 1 zeros for X < 0, right-aligned, then
# D's leading digit; words 2-5 the other 16 digits where they fall in the
# integer part, word 6 the point, and words 7-10 the same 16 digits where
# they fall in the fraction.  Words 0-1, without the leading digit, and
# the keep-masks of words 2-10 come from one table row per (sign, X,
# trailing zeros of D).


def _words(b) -> np.ndarray:
    """Bytes (..., 4 m) as m uint32 words each, in memory order."""
    return np.ascontiguousarray(b, dtype=np.uint8).view(np.uint32)


def _records(words: np.ndarray) -> np.ndarray:
    """Words (..., m) with a contiguous last axis as one void record each."""
    return words.view(np.dtype((np.void, 4 * words.shape[-1])))[..., 0]


_FIELD_WORDS = 11


@cache
def _layout_tables():
    """The layout's lookup tables, built on the first write: built at
    import, their temporaries and NumPy's first use of the operations
    raised a run's peak memory by about 0.5 MiB.

    - the four ASCII digits of each group 0000 .. 9999 as one word;
    - word 1 with only its last byte, a leading digit, for each digit;
    - the trailing zero digits of each group, 4 for 0000;
    - words 0-1, without the leading digit, and the keep-masks of words
      2-10 at (sign * 21 + X + 4) * 17 + trailing zeros of D.
    """
    g = np.arange(10_000, dtype=np.int16)
    zero = ord("0")
    digits = _words(zero + np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1))[:, 0]
    leads = _words([[0, 0, 0, zero + d] for d in range(10)])[:, 0]
    group_tz = sum((g % 10**q == 0).astype(np.int8) for q in range(1, 5))
    pos = np.arange(16)  # positions of the 16 digits after the leading one
    x = np.arange(-4, 17)[:, None, None]
    tz = np.arange(17)[None, :, None]
    fraction = (pos >= np.maximum(x, 0)) & (pos < 16 - tz)
    point = np.where(fraction.any(axis=-1, keepdims=True) & (x >= 0), [[[ord("."), 0, 0, 0]]], 0)
    masks = np.concatenate([255 * np.broadcast_to(pos < x, fraction.shape), point, 255 * fraction], axis=-1)
    prefixes = b"".join(
        f",{'-' * neg}{'0.' + '0' * (-e - 1) if e < 0 else ''}".encode().rjust(7, b"\0") + b"\0"
        for neg in (0, 1)
        for e in range(-4, 17)
    )
    prefixes = np.frombuffer(prefixes, np.uint8).reshape(2, 21, 1, 8)
    table = np.concatenate(
        [np.broadcast_to(prefixes, (2, 21, 17, 8)), np.broadcast_to(masks, (2, 21, 17, 36))], axis=-1
    )
    return digits, leads, group_tz, _words(table).reshape(-1, _FIELD_WORDS)


def _split(a):
    """(hi, lo) with hi + lo = a, each of at most 26 significant bits
    (Veltkamp's split)."""
    hi = 134217729.0 * a
    hi -= hi - a
    return hi, a - hi


_POW10 = np.array([float(10**p) for p in range(21)])  # exact in binary64 up to 10^22
_POW10_HI, _POW10_LO = _split(_POW10)


def _two_product(a, p):
    """(hi, lo) with hi + lo = a 10^p exactly (Dekker's product)."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI.take(p), _POW10_LO.take(p)
    hi = a * _POW10.take(p)
    lo = a_hi * b_hi
    lo -= hi
    lo += a_hi * b_lo
    lo += a_lo * b_hi
    a_lo *= b_lo
    lo += a_lo
    return hi, lo


def _digits(a: np.ndarray):
    """(X, leading digit, the other 16 digits as four groups of four)
    of each a in [1e-4, 1e17): its 17 significant digits D, rounded half
    to even, and X the exponent of D's leading digit."""
    x = np.log10(a)
    np.floor(x, out=x)
    x = np.clip(x, -4, 16).astype(np.intp)
    # log10 may miss X by one near a power of ten: an exact product
    # outside [1e16, 1e17) moves X to the side it lies on.
    while True:
        hi, lo = _two_product(a, 16 - x)
        edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
        h, l = hi[edge], lo[edge]
        step = ((h > 1e17) | ((h == 1e17) & (l >= 0.0))).astype(np.intp)
        step -= (h < 1e16) | ((h == 1e16) & (l < 0.0))
        if not step.any():
            break
        x[edge] += step
    # hi is an even integer (hi >= 2^53), so rounding lo half to even
    # rounds hi + lo half to even; D = 10^17 carries to 10^16, X + 1.
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    carry = np.flatnonzero(d == 10**17)
    d[carry] = 10**16
    x[carry] += 1
    upper = d // 10**8
    lower = d - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    groups = []
    for half in (upper, lower):
        first = half // 10**4
        groups += [first, half - first * 10**4]
    return x, lead, groups


def _value_words(values: np.ndarray) -> np.ndarray:
    """"," + format_float(v) for each value v, as _FIELD_WORDS NUL-padded
    words each, shape values.shape + (_FIELD_WORDS,)."""
    digit_words, lead_words, group_tz, table = _layout_tables()
    v = values.ravel()
    a = np.abs(v)
    outside = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))
    a[outside] = 1.0
    x, lead, groups = _digits(a)
    # Trailing zeros of the 16 digits after the leading one.
    tz = group_tz.take(groups[3])
    at = np.flatnonzero(groups[3] == 0)
    for g in groups[2::-1]:
        tz[at] += group_tz.take(g[at])
        at = at[g[at] == 0]
    rec = table.take((np.signbit(v) * 21 + x + 4) * 17 + tz, axis=0)
    rec[:, 1] |= lead_words.take(lead)
    for w, g in enumerate(groups):
        digits = digit_words.take(g)
        rec[:, 2 + w] &= digits
        rec[:, 7 + w] &= digits
    if outside.size:
        texts = [("," + format_float(r)).encode().ljust(4 * _FIELD_WORDS, b"\0") for r in v[outside].tolist()]
        rec.view(np.uint8)[outside] = np.frombuffer(b"".join(texts), np.uint8).reshape(-1, 4 * _FIELD_WORDS)
    return rec.reshape(values.shape + (_FIELD_WORDS,))


def _text_words(texts: list[str]) -> np.ndarray:
    """The texts as rows of uint32 words, NUL-padded to the longest."""
    width = -(-max(map(len, texts)) // 4) * 4
    padded = b"".join(t.encode().ljust(width, b"\0") for t in texts)
    return _words(np.frombuffer(padded, np.uint8).reshape(len(texts), width))


_NEWLINE = _words(np.array([10, 0, 0, 0]))[0]


def _block_text(t: np.ndarray, ix: np.ndarray, eta: np.ndarray, u: np.ndarray) -> str:
    """The CSV lines of a block of levels: the words of each level's t
    (_text_words), of each point's ",i,x", then eta and u, shape
    (levels, points), each after a comma.  Each line's fields are word
    columns of one buffer, and its NULs are dropped in one pass."""
    cols = np.cumsum([0, t.shape[1], ix.shape[1], _FIELD_WORDS, _FIELD_WORDS, 1])
    text = bytearray(4 * eta.size * cols[-1])
    lines = np.frombuffer(text, np.uint32).reshape(eta.shape + (cols[-1],))
    t_f, ix_f, eta_f, u_f = (_records(lines[..., a:b]) for a, b in zip(cols[:-2], cols[1:-1]))
    t_f[...] = _records(t)[:, None]
    ix_f[...] = _records(ix)
    eta_f[...] = _records(_value_words(eta))
    u_f[...] = _records(_value_words(u))
    lines[..., -1] = _NEWLINE
    del lines, t_f, ix_f, eta_f, u_f
    text = text.translate(None, b"\0")  # the buffer goes before the text is decoded
    return text.decode("ascii")


def write_trajectory_csv(path: Path, s: Section, save_every: int) -> None:
    """Header t,i,x,eta,u; one row per saved (level, spatial index).

    u is the forward-difference particle velocity; the final level uses
    the backward difference since no later row exists.  The file is
    streamed: the header, then the text of each block of saved levels
    (_CSV_BLOCK_DIVISOR), formed and written one block at a time.  A
    block's labels and velocities are formed at once, one NumPy call per
    quantity, and so is their "%.17g" text (_block_text); the
    values outside fixed notation, non-finite ones among them, take
    format_float one at a time, which quotes them.
    """
    g = s.grid
    n, last = g.n_space, g.n_time - 1
    ix = _text_words([f",{i},{format_float(i * g.h)}" for i in range(n)])
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
            t = _text_words([format_float(j * g.k) for j in js.tolist()])
            yield _block_text(t, ix, eta, u)

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
    return [
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
        for m, st in enumerate(result.steps, 1)
    ]


def _normals(rng: random.Random, shape) -> np.ndarray:
    """Standard normals of the given shape from rng's next bytes, in NumPy: uniforms from each
    little-endian uint64's top 53 bits, first half with second by Box-Muller, in place."""
    half = (math.prod(shape) + 1) // 2
    u = (np.frombuffer(rng.randbytes(16 * half), "<u8") >> 11) * 2.0**-53
    r, theta = u[:half], u[half:]
    np.log1p(np.negative(r, out=r), out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * math.pi
    sin = np.sin(theta)
    sin *= r
    r *= np.cos(theta, out=theta)
    theta[...] = sin
    return u[: math.prod(shape)].reshape(shape)


def _tangent_pair(s: Section, cfg: RunConfig, rng: random.Random) -> np.ndarray:
    """Two tangent-linear solutions from the next (2, 2, n_space) normals
    of rng as initial rows, marched together: shape (2, n_time, n_space)."""
    return gc.solve_first_variation(s, _normals(rng, (2, 2, s.grid.n_space)), cfg.solver())


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
                tangents = _tangent_pair(s, cfg, random.Random(cfg.seed)) if "mff" in cfg.diagnostics else None
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


def _boundary_ratio(total: float, scale: float) -> float:
    if scale > 0.0:
        return abs(total) / scale
    return 0.0 if total == 0.0 else math.inf


#: The pass bound of each check: the theorems hold to the Newton
#: tolerance's precision.
CHECK_BOUNDS = {
    "noether_boundary_sum_on_shell": 1e-9,
    "mff_boundary_sum_on_shell": 1e-8,
    "total_momentum_drift": 1e-9,
}


def _check(name: str, value: float) -> dict:
    threshold = CHECK_BOUNDS[name]
    status = "PASS" if value <= threshold else "FAIL"
    return {"name": name, "status": status, "value": value, "threshold": threshold}


def check_suite(cfg: RunConfig) -> tuple[list[dict], int]:
    """The discrete theorems on a fresh short trajectory: the Noether and
    multisymplectic-form boundary sums and the total momentum drift,
    followed by the bridges residual maxima as INFO lines.

    The theorems hold only on solutions, so an injected off-shell
    perturbation makes all three lines fail.  The kernel identities,
    which hold for any admissible data, are tested in the test suite.
    """
    result = _execute(cfg)
    if not result.ok:
        failure = result.failure
        raise ChmsError(f"trajectory aborted at step {failure.step}: {failure.message}")
    s = result.section
    # Tangent solutions are always computed along the true solution; the
    # checks below run on the optionally perturbed trajectory.
    rng = random.Random(cfg.seed)
    tangents = _tangent_pair(s, cfg, rng)
    target = s
    if cfg.inject_off_shell:
        # Row j's bump is 0.03 min(h, m_j) z, m_j its smallest label increment: |z| <=
        # sqrt(-2 ln 2^-53) < 8.6, so an increment moves by at most 0.52 m_j and stays positive.
        bump = _normals(rng, s.displacement.shape)
        for lo, hi in _row_blocks(*bump.shape):
            m = _increments(s.xs() + s.displacement[lo:hi], s.grid, "row", lo).min(axis=1)
            bump[lo:hi] *= 0.03 * np.minimum(s.grid.h, m)[:, None]
        bump += s.displacement
        target = Section(s.grid, bump)

    checks: list[dict] = []
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

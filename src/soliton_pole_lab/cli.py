"""Command-line front end for the two-soliton pole laboratory.

Subcommands
-----------
eval         evaluate u at one complex point and time
poles        exact pole snapshot in the fundamental strip (exact mode)
track        track pole curves over a time window
asympt       asymptotic family match report at both horizons
verify       full verification battery (exit 1 when any check fails)
blowup       construct a blowup scenario and fit the sup-norm rate
interaction  closed forms, measurements, and maxima over a ratio sweep

Conventions
-----------
Wavenumbers given as integers or exact rationals "p/q" enable exact
mode and the polynomial pole oracle; decimals run approximate mode, and
subcommands that need the oracle refuse decimal wavenumbers with a
usage error rather than guess commensurability from floating noise.

Output is deterministic for a fixed argv + seed: JSON floats are pinned
to 17 significant digits with a fixed key order (non-finite floats
serialize as null), CSV is RFC-4180 with a mandatory header row.  An
optional flat key=value file supplies defaults via --config; explicit
flags override it.  Exit codes: 0 success, 1 verification or
computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import exppoly
from .asymptotics import match_horizons
from .blowup import blowup_profile, build_scenario, fit_blowup_rate
from .exppoly import oracle_poles
from .interaction import SWEEP_HEADER, sweep_rows
from .kernel import ConvergenceError, PoleError, PoleMarker, SolitonConfig, eval_u
from .suite import run_battery
from .tracker import PoleCurve, curve_to_csv_rows, track_curve, track_ensemble

__all__ = ["run", "main"]

SCHEMA = "soliton-pole-lab/1"

# |t - t_star| ladder for the blowup subcommand: a hair over two
# decades so the fit's recomputed spans stay above the two-decade
# validation even after rounding against a large t_star.
_BLOWUP_DELTAS = (1e-2, 3e-3, 1e-3, 3e-4, 8e-5)

_MIN_DPS = 30


class _UsageError(Exception):
    """Bad invocation (missing/inconsistent arguments): exit code 2."""


# ---------------------------------------------------------------------------
# Deterministic serialization.
# ---------------------------------------------------------------------------


def _f(v: float) -> str:
    """Pinned float formatting: 17 significant digits."""
    return "%.17g" % v


def _json(obj) -> str:
    """Minimal deterministic JSON: insertion-ordered keys, floats via
    _f, non-finite floats as null (JSON has no NaN/Infinity)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _f(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, complex):
        return _json([obj.real, obj.imag])
    if isinstance(obj, dict):
        inner = ",".join(f"{_json(str(k))}:{_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_f(v) if isinstance(v, float) else str(v) for v in row]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Argument parsing and the config file.
# ---------------------------------------------------------------------------

_CONFIG_COERCE: dict[str, Callable[[str], object]] = {
    "k1": str,
    "k2": str,
    "variant": str,
    "x1": float,
    "x2": float,
    "x": str,
    "t": float,
    "t0": float,
    "t1": float,
    "alpha": float,
    "ratios": str,
    "seed": int,
    "precision": int,
    "format": str,
    "out": str,
}


def _read_config(path: str) -> dict[str, object]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    entries: dict[str, object] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_COERCE:
            raise _UsageError(f"{path}:{ln}: unknown key {key!r}")
        try:
            entries[key] = _CONFIG_COERCE[key](value)
        except ValueError as exc:
            raise _UsageError(f"{path}:{ln}: bad value for {key}: {exc}")
    return entries


def _merge_config(args: argparse.Namespace) -> None:
    """Fill argument slots still at None from the --config file.  Keys
    that do not apply to the chosen subcommand are ignored."""
    if args.config is None:
        return
    for key, value in _read_config(args.config).items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _parse_k(text: str, flag: str):
    """Exact mode for integers and 'p/q'; floats for anything else."""
    s = text.strip()
    stripped = s[1:] if s.startswith(("+", "-")) else s
    if stripped.isdigit():
        return int(s)
    if "/" in s:
        num, _, den = s.partition("/")
        if num.strip().lstrip("+-").isdigit() and den.strip().isdigit():
            return s
        raise _UsageError(f"{flag}: malformed rational {text!r}")
    try:
        return float(s)
    except ValueError:
        raise _UsageError(f"{flag}: expected a number or 'p/q', got {text!r}")


def _parse_complex(text: str, flag: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise _UsageError(f"{flag}: expected 're' or 're,im', got {text!r}")


def _parse_ratios(text: str) -> list[float]:
    try:
        out = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"--ratios: expected comma-separated floats, got {text!r}")
    if not out:
        raise _UsageError("--ratios: empty list")
    return out


def _need(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise _UsageError(
            f"{args.command} requires --" + ", --".join(missing)
        )


def _config_from_args(args: argparse.Namespace, exact: bool) -> SolitonConfig:
    _need(args, "k1", "k2")
    k1 = _parse_k(args.k1, "--k1")
    k2 = _parse_k(args.k2, "--k2")
    if exact and (isinstance(k1, float) or isinstance(k2, float)):
        raise _UsageError(
            f"{args.command} needs the exact pole oracle: give --k1/--k2 as "
            "integers or 'p/q' rationals (decimals run approximate mode)"
        )
    variant = args.variant if args.variant is not None else "minus"
    x1 = args.x1 if args.x1 is not None else 0.0
    x2 = args.x2 if args.x2 is not None else 0.0
    try:
        return SolitonConfig.make(k1, k2, variant, x1=x1, x2=x2)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soliton-pole-lab",
        description="Exact two-soliton evaluation, pole tracking, and "
        "verification for the complex-plane pole laboratory.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k1", help="first wavenumber: integer, 'p/q', or decimal")
    common.add_argument("--k2", help="second wavenumber: integer, 'p/q', or decimal")
    common.add_argument("--variant", choices=("plus", "minus"), help="sign variant")
    common.add_argument("--x1", type=float, help="first soliton shift (default 0)")
    common.add_argument("--x2", type=float, help="second soliton shift (default 0)")
    common.add_argument("--config", help="flat key=value defaults file")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), help="output format")
    common.add_argument("--seed", type=int, help="probe RNG seed (default 0)")
    common.add_argument(
        "--precision", type=int, help=f"oracle polish digits (min {_MIN_DPS})"
    )

    p = sub.add_parser("eval", parents=[common], help="evaluate u at one point")
    p.add_argument(
        "--x", help="evaluation point: 're' or 're,im' (--x=-1.5,0.2 when negative)"
    )
    p.add_argument("--t", type=float, help="time (default 0)")

    p = sub.add_parser("poles", parents=[common], help="exact pole snapshot")
    p.add_argument("--t", type=float, help="time (default 0)")

    p = sub.add_parser("track", parents=[common], help="track pole curves")
    p.add_argument("--t0", type=float, help="start time")
    p.add_argument("--t1", type=float, help="end time")
    p.add_argument(
        "--x",
        help="optional seed 're,im' (default: all oracle poles; "
        "--x=-1.5,0.2 when negative)",
    )

    p = sub.add_parser("asympt", parents=[common], help="family match report")
    p.add_argument("--t1", type=float, help="horizon T > 0 (default 10)")

    sub.add_parser("verify", parents=[common], help="run the verification battery")

    p = sub.add_parser("blowup", parents=[common], help="blowup scenario and rate fit")
    p.add_argument("--alpha", type=float, help="line offset (default: auto-chosen)")
    p.add_argument("--t1", type=float, help="tracking half-window (default 6)")

    p = sub.add_parser(
        "interaction", parents=[common], help="interaction-point ratio sweep"
    )
    p.add_argument("--ratios", help="comma-separated k2/k1 ratios to sweep")
    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (payload, csv_header, csv_rows, code).
# ---------------------------------------------------------------------------


def _cmd_eval(args):
    cfg = _config_from_args(args, exact=False)
    _need(args, "x")
    x = _parse_complex(args.x, "--x")
    t = args.t if args.t is not None else 0.0
    u = eval_u(cfg, x, t)
    at_pole = isinstance(u, PoleMarker)
    payload = {
        "config": cfg.to_dict(),
        "x": x,
        "t": t,
        "u": None if at_pole else u,
        "pole": {"magnitude": u.magnitude} if at_pole else None,
    }
    if at_pole:
        rows = [(x.real, x.imag, t, "", "", True)]
    else:
        rows = [(x.real, x.imag, t, u.real, u.imag, False)]
    return payload, ("re_x", "im_x", "t", "re_u", "im_u", "at_pole"), rows, 0


def _cmd_poles(args):
    cfg = _config_from_args(args, exact=True)
    t = args.t if args.t is not None else 0.0
    poles = oracle_poles(cfg, t=t)
    payload = {
        "config": cfg.to_dict(),
        "t": t,
        "count_with_multiplicity": sum(m for _, m in poles),
        "poles": [{"x": x, "multiplicity": m} for x, m in poles],
    }
    rows = [(x.real, x.imag, m) for x, m in poles]
    return payload, ("re_x", "im_x", "multiplicity"), rows, 0


def _track_ensemble(cfg: SolitonConfig, args) -> list[PoleCurve]:
    if args.x is not None:
        x = _parse_complex(args.x, "--x")
        return [track_curve(cfg, None, x, args.t0, args.t1)]
    if not cfg.exact:
        raise _UsageError(
            "track without --x seeds from the exact pole oracle: give "
            "--k1/--k2 as integers or 'p/q' rationals, or pass --x"
        )
    return track_ensemble(cfg, args.t0, args.t1)


def _cmd_track(args):
    cfg = _config_from_args(args, exact=False)
    _need(args, "t0", "t1")
    curves = _track_ensemble(cfg, args)
    payload = {
        "config": cfg.to_dict(),
        "t0": args.t0,
        "t1": args.t1,
        "curves": [
            {
                "index": i,
                "variant": c.variant.value,
                "n_samples": len(c.samples),
                "exceptional_collision": c.exceptional_collision,
                "branch_class": c.branch_class.value,
                "family": repr(c.family) if c.family is not None else None,
                "samples": [[t, x.real, x.imag] for t, x in c.samples],
            }
            for i, c in enumerate(curves)
        ],
    }
    rows = [
        (i,) + row for i, c in enumerate(curves) for row in curve_to_csv_rows(c)
    ]
    return payload, ("curve", "t", "re_x", "im_x", "rel_F", "flags"), rows, 0


def _cmd_asympt(args):
    cfg = _config_from_args(args, exact=True)
    T = args.t1 if args.t1 is not None else 10.0
    if T <= 0:
        raise _UsageError("--t1: horizon must be positive")
    reports = match_horizons(cfg, T)
    payload = {
        "config": cfg.to_dict(),
        "T": T,
        "reports": [r.to_dict() for r in reports],
    }
    rows = [
        (r.direction, m.curve_index, repr(m.label), m.endpoint.real,
         m.endpoint.imag, m.residual)
        for r in reports
        for m in r.matches
    ]
    header = ("direction", "curve", "label", "re_endpoint", "im_endpoint", "residual")
    return payload, header, rows, 0


def _cmd_verify(args):
    cfg = _config_from_args(args, exact=False)
    seed = args.seed if args.seed is not None else 0
    report = run_battery(cfg, seed=seed)
    payload = dict(report.to_dict())
    rows = [
        (
            c.name,
            c.passed,
            c.worst,
            c.witness,
            c.detail,
            c.skipped if c.skipped is not None else "",
        )
        for c in report.checks
    ]
    header = ("name", "passed", "worst", "witness", "detail", "skipped")
    return payload, header, rows, 0 if report.passed else 1


def _cmd_blowup(args):
    cfg = _config_from_args(args, exact=True)
    t_span = args.t1 if args.t1 is not None else 6.0
    scenario = build_scenario(cfg, alpha=args.alpha, t_span=t_span)
    blowup_profile(scenario, [scenario.t_star + d for d in _BLOWUP_DELTAS])
    fit = fit_blowup_rate(scenario)
    payload = dict(scenario.header_dict())
    payload["samples"] = [s.to_dict() for s in scenario.series]
    payload["fit"] = fit.to_dict()
    rows = [
        (s.t, s.sup_abs, s.argmax, s.tail_rate_left, s.tail_rate_right)
        for s in scenario.series
    ]
    header = ("t", "sup_abs", "argmax", "tail_rate_left", "tail_rate_right")
    return payload, header, rows, 0


def _cmd_interaction(args):
    if args.ratios is not None:
        ratios = _parse_ratios(args.ratios)
    elif args.k1 is not None and args.k2 is not None:
        cfg = _config_from_args(args, exact=False)
        ratios = [cfg.k2 / cfg.k1]
    else:
        ratios = [1.5, 2.0, 2.2, 2.5, 2.7, 3.0, 4.0]
    k1 = float(_parse_k(args.k1, "--k1")) if args.k1 is not None else 1.0
    variant = args.variant if args.variant is not None else "plus"
    rows = sweep_rows(ratios, k1=k1, variant=variant)
    payload = {
        "k1": k1,
        "variant": variant,
        "rows": [dict(zip(SWEEP_HEADER, row)) for row in rows],
    }
    return payload, SWEEP_HEADER, rows, 0


_HANDLERS = {
    "eval": _cmd_eval,
    "poles": _cmd_poles,
    "track": _cmd_track,
    "asympt": _cmd_asympt,
    "verify": _cmd_verify,
    "blowup": _cmd_blowup,
    "interaction": _cmd_interaction,
}


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        code = exc.code
        return int(code) if code is not None else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    saved_dps = exppoly._POLISH_DPS
    try:
        _merge_config(args)
        if args.precision is not None:
            exppoly._POLISH_DPS = max(_MIN_DPS, args.precision)
        payload, header, rows, code = _HANDLERS[args.command](args)
        fmt = args.format if args.format is not None else "json"
        if fmt == "json":
            document = {"schema": SCHEMA, "command": args.command}
            document.update(payload)
            text = _json(document) + "\n"
        else:
            text = _render_csv(header, rows)
        _emit(text, args.out)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        exppoly._POLISH_DPS = saved_dps


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

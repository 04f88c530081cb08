"""Command-line front end for the two-soliton pole laboratory.

Subcommands
-----------
eval         evaluate u at one complex point and time
poles        exact pole snapshot in the fundamental strip (exact mode)
track        track pole curves over a time window (--stats: each curve's
             work counters on stderr)
asympt       asymptotic family match report at both horizons
verify       full verification battery (exit 1 when any check fails;
             --stats: each check's wall time and the battery's on stderr)
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
optional flat key=value file supplies defaults via --config, checked like
the flags; explicit flags override it.  Exit codes: 0 success, 1
verification or computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .asymptotics import match_horizons
from .blowup import _DELTA_LADDER, blowup_profile, build_scenario, fit_blowup_rate
from .exppoly import oracle_poles
from .interaction import SWEEP_HEADER, sweep_rows
from .kernel import ConvergenceError, PoleError, PoleMarker, SolitonConfig, eval_u
from .suite import run_battery
from .tracker import PoleCurve, curve_to_csv_rows, track_curve, track_ensemble

__all__ = ["run", "main"]

SCHEMA = "soliton-pole-lab/1"


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


def _finite(text: str) -> float:
    """argparse type of the float flags: malformed or non-finite text is a
    usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill argument slots still at None from the --config file.  A key is
    any option of some subcommand that takes a value (--config aside), and
    its value passes the chosen subcommand's own type and choices, as the
    flag's would.  Keys that do not apply to the chosen subcommand are
    ignored; a key of no subcommand is a usage error."""
    if args.config is None:
        return
    try:
        lines = Path(args.config).read_text().splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    keys = {
        name: {
            a.dest: a
            for a in p._actions
            if a.option_strings and a.nargs != 0 and a.dest != "config"
        }
        for name, p in sub.choices.items()
    }
    for ln, raw in enumerate(lines, 1):
        line, where = raw.strip(), f"{args.config}:{ln}"
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{where}: expected key=value, got {line!r}")
        key, text = (s.strip() for s in line.split("=", 1))
        if not any(key in own for own in keys.values()):
            raise _UsageError(f"{where}: unknown key {key!r}")
        action = keys[args.command].get(key)
        if action is None:
            continue
        try:
            value = (action.type or str)(text)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{value!r} is not one of {', '.join(action.choices)}")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"{where}: bad value for {key}: {exc}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _parse_k(text: str, flag: str):
    """Exact mode (an int or a Fraction) for integers and 'p/q'; else a float."""
    s = text.strip()
    stripped = s[1:] if s.startswith(("+", "-")) else s
    if stripped.isdigit():
        return int(s)
    if "/" in s:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise _UsageError(f"zero denominator in {s!r}") from None
        except ValueError:
            raise _UsageError(f"{flag}: malformed rational {text!r}") from None
    try:
        return float(s)
    except ValueError:
        raise _UsageError(f"{flag}: expected a number or 'p/q', got {text!r}")


def _complex(text: str) -> complex:
    """argparse type of --x: 're' or 're,im', each part finite."""
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")
    return complex(*map(_finite, parts))


def _ratios(text: str) -> list[float]:
    """argparse type of --ratios: comma-separated finite floats."""
    out = [_finite(s) for s in text.split(",") if s.strip()]
    if not out:
        raise argparse.ArgumentTypeError("empty list")
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
    common.add_argument("--x1", type=_finite, help="first soliton shift (default 0)")
    common.add_argument("--x2", type=_finite, help="second soliton shift (default 0)")
    common.add_argument("--config", help="flat key=value defaults file")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), help="output format")
    common.add_argument("--seed", type=int, help="probe RNG seed (default 0)")

    p = sub.add_parser("eval", parents=[common], help="evaluate u at one point")
    p.add_argument(
        "--x",
        type=_complex,
        help="evaluation point: 're' or 're,im' (--x=-1.5,0.2 when negative)",
    )
    p.add_argument("--t", type=_finite, help="time (default 0)")

    p = sub.add_parser("poles", parents=[common], help="exact pole snapshot")
    p.add_argument("--t", type=_finite, help="time (default 0)")

    p = sub.add_parser("track", parents=[common], help="track pole curves")
    p.add_argument("--t0", type=_finite, help="start time")
    p.add_argument("--t1", type=_finite, help="end time")
    p.add_argument(
        "--x",
        type=_complex,
        help="optional seed 're,im' (default: all oracle poles; "
        "--x=-1.5,0.2 when negative)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print each curve's work counters to stderr",
    )

    p = sub.add_parser("asympt", parents=[common], help="family match report")
    p.add_argument("--t1", type=_finite, help="horizon T > 0 (default 10)")

    p = sub.add_parser("verify", parents=[common], help="run the verification battery")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print each check's wall time and the battery's to stderr",
    )

    p = sub.add_parser("blowup", parents=[common], help="blowup scenario and rate fit")
    p.add_argument("--alpha", type=_finite, help="line offset (default: auto-chosen)")
    p.add_argument("--t1", type=_finite, help="tracking half-window (default 6)")

    p = sub.add_parser(
        "interaction", parents=[common], help="interaction-point ratio sweep"
    )
    p.add_argument("--ratios", type=_ratios, help="comma-separated k2/k1 ratios to sweep")
    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (payload, csv_header, csv_rows, code).
# ---------------------------------------------------------------------------


def _cmd_eval(args):
    cfg = _config_from_args(args, exact=False)
    _need(args, "x")
    x = args.x
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
        return [track_curve(cfg, None, args.x, args.t0, args.t1)]
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
    if args.stats:
        for i, c in enumerate(curves):
            # A conjugated curve repeats its partner's counters.
            mark = "" if c.conjugate_of is None else f" conjugate_of={c.conjugate_of}"
            print(
                f"curve {i}: accepted={c.accepted} rejected={c.rejected} "
                f"newton_iterations={c.newton_iterations} points={c.points} "
                f"min_fx_rel={c.min_fx_rel:.3e}{mark}",
                file=sys.stderr,
            )
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
    start = time.perf_counter()
    report = run_battery(cfg, seed=seed)
    if args.stats:
        for c in report.checks:
            print(f"check {c.name}: elapsed_s={c.elapsed_s:.6f}", file=sys.stderr)
        # The battery's time also covers what its checks share (the oracle
        # snapshot and ensemble tracking of exact configs).
        rows = sum(c.elapsed_s for c in report.checks)
        print(
            f"battery: elapsed_s={time.perf_counter() - start:.6f} "
            f"checks_s={rows:.6f}",
            file=sys.stderr,
        )
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
    if t_span <= 0:
        raise _UsageError("--t1: tracking half-window must be positive")
    scenario = build_scenario(cfg, alpha=args.alpha, t_span=t_span)
    blowup_profile(scenario, [scenario.t_star + d for d in _DELTA_LADDER])
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
    if args.x1 or args.x2:
        shifts = f"x1={args.x1 or 0.0}, x2={args.x2 or 0.0}"
        raise _UsageError(f"interaction diagnostics need zero shifts, got {shifts}")
    if args.ratios is not None:
        ratios = args.ratios
    elif args.k1 is not None and args.k2 is not None:
        cfg = _config_from_args(args, exact=False)
        ratios = [cfg.k2 / cfg.k1]
    else:
        ratios = [1.5, 2.0, 2.2, 2.5, 2.7, 3.0, 4.0]
    k1 = float(_parse_k(args.k1, "--k1")) if args.k1 is not None else 1.0
    variant = args.variant if args.variant is not None else "plus"
    for ratio in ratios:  # sweep_rows's configs; a bad one is a usage error
        try:
            SolitonConfig.make(k1, ratio * k1)
        except ValueError as exc:
            raise _UsageError(str(exc))
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
    try:
        _merge_config(args, parser)
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


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Composable verification battery over every law the library encodes.

``run_battery`` runs one named check per structural property -- field
equation residuals, factorization, real-line regularity, the cosine
relations at zeros, the vertical-motion sign law, translation
identities, residue quantization, pole-count conservation, asymptotic
family matching, blowup rate, and interaction-point closed forms --
against a single configuration, and reports per-check pass/fail with
the worst measured residual and a witness point.  Checks whose
preconditions the configuration cannot meet (an exact pole oracle
needs commensurable wavenumbers; translation identities need specific
parities) are reported as skipped with the reason, never silently
dropped.  The battery is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import analysis, interaction
from .asymptotics import FamilyLabel, Speed, match_horizons, seed_state, seed_time
from .blowup import blowup_profile, build_scenario, fit_blowup_rate
from .exppoly import oracle_poles
from .kernel import (
    ConvergenceError,
    F_scaled,
    PoleError,
    SolitonConfig,
    Variant,
    eqg_residual,
    factor_scaled,
    pde_residual,
)
from .tracker import PoleCurve, track_curve, track_ensemble

__all__ = ["CheckResult", "BatteryReport", "run_battery"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    passed: bool
    worst: float
    witness: str
    detail: str
    skipped: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "witness": self.witness,
            "detail": self.detail,
            "skipped": self.skipped,
        }


@dataclass(frozen=True)
class BatteryReport:
    """All check outcomes for one configuration."""

    config: dict
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_skipped(self) -> int:
        return sum(1 for c in self.checks if c.skipped is not None)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "passed": self.passed,
            "n_checks": len(self.checks),
            "n_skipped": self.n_skipped,
            "checks": [c.to_dict() for c in self.checks],
        }


def _skip(name: str, reason: str) -> CheckResult:
    return CheckResult(name, True, math.nan, "", "", skipped=reason)


def _fail(name: str, exc: Exception) -> CheckResult:
    return CheckResult(
        name, False, math.inf, "", f"{type(exc).__name__}: {exc}"
    )


# ---------------------------------------------------------------------------
# Individual checks.  Each returns a CheckResult and never raises.
# ---------------------------------------------------------------------------


def _check_field_equation(
    cfg: SolitonConfig, rng: random.Random, n: int = 40
) -> CheckResult:
    name = "field-equation-residual"
    try:
        worst, witness = 0.0, ""
        count = 0
        for variant in (Variant.PLUS, Variant.MINUS):
            work = cfg.with_variant(variant)
            done = 0
            for x, t in analysis._random_probes(cfg, rng, 4 * n):
                if done >= n:
                    break
                try:
                    res = abs(eqg_residual(work, x, t))
                except PoleError:
                    continue
                done += 1
                count += 1
                if res > worst:
                    worst, witness = res, f"x={x}, t={t}, variant={variant.value}"
        return CheckResult(
            name, worst < 1e-10, worst, witness, f"{count} probe points"
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_pde_richardson(cfg: SolitonConfig, rng: random.Random) -> CheckResult:
    name = "pde-richardson-ratio"
    try:
        h = 1e-2
        ratios = []
        witness = ""
        worst_dev = 0.0
        for x, t in analysis._random_probes(cfg, rng, 40):
            if len(ratios) >= 3:
                break
            try:
                r1 = abs(pde_residual(cfg, x, t, h))
                r2 = abs(pde_residual(cfg, x, t, h / 2.0))
            except PoleError:
                continue
            if r1 < 1e-8 or r2 == 0.0:
                continue  # below the ratio's noise floor
            ratios.append(r1 / r2)
            if abs(ratios[-1] - 4.0) > worst_dev:
                worst_dev = abs(ratios[-1] - 4.0)
                witness = f"x={x}, t={t}"
        if not ratios:
            return _fail(name, ConvergenceError("no usable probe point"))
        return CheckResult(
            name,
            all(abs(r - 4.0) <= 0.2 for r in ratios),
            worst_dev,
            witness,
            f"ratios {['%.3f' % r for r in ratios]}",
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_factorization(
    cfg: SolitonConfig, rng: random.Random, n: int = 100
) -> CheckResult:
    name = "factorization-product"
    try:
        worst, witness = 0.0, ""
        for variant in (Variant.PLUS, Variant.MINUS):
            for x, t in analysis._random_probes(cfg, rng, n):
                f1 = factor_scaled(cfg, x, t, 1, variant)
                f2 = factor_scaled(cfg, x, t, 2, variant)
                F = F_scaled(cfg, x, t, variant)
                rel = abs((f1 * f2).ratio(F) - 1.0)
                if rel > worst:
                    worst, witness = rel, f"x={x}, t={t}, variant={variant.value}"
        return CheckResult(
            name, worst < 1e-12, worst, witness, f"{2 * n} probe points"
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_real_line(cfg: SolitonConfig) -> CheckResult:
    name = "real-line-regularity"
    try:
        floor, witness = math.inf, ""
        for t in (-1.0, 0.3, 1.2):
            for variant in (Variant.PLUS, Variant.MINUS):
                scan = analysis.check_no_real_poles(cfg, t, variant=variant)
                if scan.min_residual < floor:
                    floor = scan.min_residual
                    witness = f"x={scan.argmin}, t={t}, variant={variant.value}"
        return CheckResult(
            name,
            floor > 1e-8,
            floor,
            witness,
            "min relative |F| over the real axis (never a zero)",
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_cosine_relations(cfg: SolitonConfig) -> CheckResult:
    name = "cosine-relations-at-zeros"
    if cfg.comm is None:
        return _skip(name, "pole oracle requires exact commensurable wavenumbers")
    try:
        worst, witness, used = 0.0, "", 0
        for t in (-0.6, 0.8):
            for x, mult in oracle_poles(cfg, Variant.PLUS, t):
                if mult != 1:
                    continue
                try:
                    rs = analysis.cos_identities_residual(
                        cfg.with_variant(Variant.PLUS), x, t
                    )
                except PoleError:
                    continue  # zero of the other factor
                used += 1
                for r in rs:
                    if r > worst:
                        worst, witness = r, f"x={x}, t={t}"
        if used == 0:
            return _fail(name, ConvergenceError("no factor-1 zeros sampled"))
        return CheckResult(
            name, worst < 1e-8, worst, witness, f"{used} zeros, 3 relations each"
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_sign_law(
    cfg: SolitonConfig, curves: Optional[Sequence[PoleCurve]]
) -> CheckResult:
    name = "vertical-sign-law"
    try:
        if curves is None:
            # Seed four asymptotic families directly (no exact oracle).
            curves = []
            eps = 1e-2
            t_seed = seed_time(cfg, eps)
            for speed in (Speed.SLOW, Speed.FAST):
                for index in (1, -1):
                    label = FamilyLabel(speed, index, -1)
                    x0, t0 = seed_state(cfg, label, eps)
                    curves.append(track_curve(cfg, None, x0, t0, t_seed))
        total = decisive = violations = 0
        worst, witness = 0.0, ""
        for curve in curves:
            for t, x in curve.samples[::5]:
                try:
                    vs = analysis.vertical_sign(cfg, x, t)
                except (PoleError, ConvergenceError):
                    continue  # collision point or stale sample
                total += 1
                if vs.predicted_sign != 0 and vs.measured_sign != 0:
                    decisive += 1
                if not vs.consistent:
                    violations += 1
                    if abs(vs.measured) > worst:
                        worst, witness = abs(vs.measured), f"x={x}, t={t}"
        return CheckResult(
            name,
            violations == 0 and decisive > 0,
            float(violations),
            witness,
            f"{decisive}/{total} decisive samples, {violations} violations",
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_translation(
    cfg: SolitonConfig, rng: random.Random, probes: int = 60
) -> CheckResult:
    name = "translation-identity"
    if cfg.comm is None:
        return _skip(name, "commensurable wavenumbers required")
    p1, p2 = cfg.comm.p1, cfg.comm.p2
    try:
        pts = analysis._random_probes(cfg, rng, probes)
        worst, witness = 0.0, ""
        if (p1 + p2) % 2 == 1:
            theta = analysis.parity_translation_theta(cfg, probes=20, seed=rng.randint(0, 10**6))
            for x, t in pts:
                r = analysis.translation_residual(cfg, x, t, theta)
                if r > worst:
                    worst, witness = r, f"x={x}, t={t}"
            detail = f"mixed parity, theta={theta!r}, {probes} probes"
        else:
            # Both odd: exactly one variant satisfies its congruence.
            variant = (
                Variant.PLUS if (p2 - p1) % 4 == 0 else Variant.MINUS
            )
            th1, th2 = analysis.odd_parity_translation(
                cfg, variant, probes=20, seed=rng.randint(0, 10**6)
            )
            for x, t in pts:
                r1, r2 = analysis.odd_translation_residuals(
                    cfg, th1, th2, x, t, variant
                )
                if max(r1, r2) > worst:
                    worst, witness = max(r1, r2), f"x={x}, t={t}"
            detail = (
                f"odd parity ({variant.value}), theta1={th1!r}, "
                f"theta2={th2!r}, {probes} probes"
            )
        return CheckResult(name, worst < 1e-10, worst, witness, detail)
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_residues(cfg: SolitonConfig, rng: random.Random) -> CheckResult:
    name = "residue-quantization"
    if cfg.comm is None:
        return _skip(name, "pole oracle requires exact commensurable wavenumbers")
    try:
        worst, witness, used = 0.0, "", 0
        for t in (-0.7, 0.4):
            simple = [x for x, m in oracle_poles(cfg, t=t) if m == 1]
            picks = rng.sample(simple, min(6, len(simple)))
            for x in picks:
                res = analysis.residue_at_pole(cfg, x, t)
                dev = min(abs(res - 1j), abs(res + 1j))
                used += 1
                if dev > worst:
                    worst, witness = dev, f"x={x}, t={t}"
        return CheckResult(
            name,
            worst < 1e-8 and used > 0,
            worst,
            witness,
            f"{used} simple poles, contour cross-checked",
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_pole_count(cfg: SolitonConfig) -> CheckResult:
    name = "pole-count-conservation"
    if cfg.comm is None:
        return _skip(name, "pole oracle requires exact commensurable wavenumbers")
    try:
        expected = 2 * (cfg.comm.p1 + cfg.comm.p2)
        worst, witness = 0.0, ""
        for t in (-1.0, 0.0, 1.0):
            for variant in (Variant.PLUS, Variant.MINUS):
                total = sum(
                    m for _, m in oracle_poles(cfg, variant, t)
                )
                dev = abs(total - expected)
                if dev > worst:
                    worst, witness = dev, f"t={t}, variant={variant.value}"
        return CheckResult(
            name,
            worst == 0.0,
            worst,
            witness,
            f"2(p1+p2) = {expected} with multiplicity, 6 snapshots",
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_asymptotics(
    cfg: SolitonConfig, curves: Optional[Sequence[PoleCurve]], T: float
) -> CheckResult:
    """Match oracle roots at each horizon against the family asymptotes
    (per-horizon ensembles, see ``match_horizons``)."""
    name = "asymptotic-families"
    if cfg.comm is None or curves is None:
        return _skip(name, "family matching requires exact commensurable wavenumbers")
    try:
        worst, witness = 0.0, ""
        n = 0
        for report in match_horizons(cfg, T):
            direction = report.direction
            if report.unmatched:
                return CheckResult(
                    name,
                    False,
                    math.inf,
                    f"direction={direction}",
                    f"unmatched curves {list(report.unmatched)}",
                )
            n = len(report.matches)
            if report.max_residual > worst:
                worst, witness = report.max_residual, f"direction={direction}"
        return CheckResult(
            name, worst < 1e-3, worst, witness, f"{n} curves per horizon"
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_blowup(
    cfg: SolitonConfig, curves: Optional[Sequence[PoleCurve]]
) -> CheckResult:
    name = "blowup-rate"
    if cfg.comm is None or curves is None:
        return _skip(name, "scenario seeding requires exact commensurable wavenumbers")
    try:
        scenario = build_scenario(cfg, curves=curves)
    except (ValueError, ConvergenceError) as exc:
        return _skip(name, f"no transversal crossing available: {exc}")
    try:
        # A hair over two decades: the fit recomputes |t - t_star| from
        # the rounded profile times, and a ladder spanning exactly 100x
        # can land at 99.99...x when |t_star| is not small.
        deltas = (1e-2, 3e-3, 1e-3, 3e-4, 8e-5)
        blowup_profile(scenario, [scenario.t_star + d for d in deltas])
        fit = fit_blowup_rate(scenario)
        k1 = cfg.k1
        tails_ok = all(
            abs(p.tail_rate_left - k1) < 0.1 * k1
            and abs(p.tail_rate_right - k1) < 0.1 * k1
            for p in scenario.series
        )
        ok = (
            abs(fit.exponent + 1.0) < 0.05
            and 0.9 < fit.amplitude_ratio < 1.1
            and tails_ok
        )
        return CheckResult(
            name,
            ok,
            abs(fit.exponent + 1.0),
            f"t_star={scenario.t_star!r}, alpha={scenario.alpha!r}",
            (
                f"exponent {fit.exponent:.6f}, amplitude ratio "
                f"{fit.amplitude_ratio:.6f}, R^2 {fit.r_squared:.8f}, "
                f"tails at k1: {tails_ok}"
            ),
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


def _check_interaction(cfg: SolitonConfig) -> CheckResult:
    name = "interaction-closed-forms"
    if cfg.x1 != 0.0 or cfg.x2 != 0.0:
        return _skip(name, "interaction diagnostics require zero shifts")
    try:
        closed_xx = interaction.uxx_at_center(cfg)
        measured_xx = interaction.measure_uxx_at_center(cfg)
        worst = abs(measured_xx - closed_xx) / max(1e-12, abs(closed_xx))
        witness = "u_xx(0,0)"
        detail = [f"u_xx closed {closed_xx!r} vs measured {measured_xx!r}"]
        try:
            closed_sp = interaction.extremum_speed(cfg)
            measured_sp = interaction.measure_extremum_speed(cfg)
            dev = abs(measured_sp - closed_sp) / max(1.0, abs(closed_sp))
            if dev > worst:
                worst, witness = dev, "y'(0)"
            detail.append(f"speed closed {closed_sp!r} vs measured {measured_sp!r}")
        except ValueError:
            detail.append("speed singular at this ratio, skipped")
        maxima = interaction.find_maxima(cfg)
        symmetric = len(maxima) == 1 or (
            len(maxima) == 2 and abs(maxima[0] + maxima[1]) < 1e-6
        )
        detail.append(f"{len(maxima)} maxima at t=0")
        return CheckResult(
            name,
            worst < 1e-6 and symmetric,
            worst,
            witness,
            "; ".join(detail),
        )
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(name, exc)


# ---------------------------------------------------------------------------
# The battery.
# ---------------------------------------------------------------------------


def run_battery(cfg: SolitonConfig, seed: int = 0) -> BatteryReport:
    """Run every check against cfg; deterministic for a fixed seed."""
    rng = random.Random(seed)
    curves: Optional[list[PoleCurve]] = None
    horizon = 10.0
    if cfg.comm is not None:
        horizon = max(10.0, seed_time(cfg, 1e-6) + 2.0)
        curves = track_ensemble(cfg, -horizon, horizon)

    checks = (
        _check_field_equation(cfg, rng),
        _check_pde_richardson(cfg, rng),
        _check_factorization(cfg, rng),
        _check_real_line(cfg),
        _check_cosine_relations(cfg),
        _check_sign_law(cfg, curves),
        _check_translation(cfg, rng),
        _check_residues(cfg, rng),
        _check_pole_count(cfg),
        _check_asymptotics(cfg, curves, horizon),
        _check_blowup(cfg, curves),
        _check_interaction(cfg),
    )
    return BatteryReport(config=cfg.to_dict(), seed=seed, checks=checks)

"""Composable verification battery over every law the library encodes.

``run_battery`` runs one named check per structural property -- the
field equation, the finite-difference PDE residual, factorization,
real-line regularity, the cosine relations at zeros, the vertical-motion
sign law, translation identities, residue quantization, pole-count
conservation, asymptotic family matching, blowup rate, and
interaction-point closed forms -- against a single configuration, and
reports per-check pass/fail with the worst measured residual and a
witness point.  Two laws are proved in both variants: the g-equation
cleared of denominators expands to the zero polynomial in (f1, f2) over Q
(``kernel.eqg_residual`` samples the same terms), and F's exact table
fixes the pole count at every t.  The other laws are sampled.

One harness (``_check``) owns what the rows share.  A check body returns
(passed, worst, witness, detail).  A check that needs the exact pole
oracle is skipped, with its reason, for a config without one; a body
raises ``_Skip(reason)`` when its data leave it nothing to test (no
transversal crossing, nonzero shifts).  Skips are reported with their
reason, never silently dropped.  Any other exception fails only its own
row, with worst = inf and the exception's type and message as the
detail.  The battery is deterministic for a fixed seed; each row also
records its wall time (``CheckResult.elapsed_s``), which the report's
JSON leaves out and ``verify --stats`` prints to stderr.

The rows that test a law at many sampled points -- the sign law on
tracked curves, the factorization at random probes -- evaluate all their
samples on the kernel's grid engine, one call per term table with one
time per sample.  Each value equals the one-point evaluation bit for bit,
so the report is that of a per-point loop."""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import analysis, interaction
from .asymptotics import FamilyLabel, Speed, match_horizons, seed_state, seed_time
from .blowup import _DELTA_LADDER, blowup_profile, build_scenario, fit_blowup_rate
from .exppoly import build_F_poly, oracle_poles
from .kernel import (
    ConvergenceError,
    F_grid,
    PoleError,
    SolitonConfig,
    Variant,
    _eqg_exact,
    _factor_grid,
    _record_dict,
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
    # Wall seconds the check took; compare=False keeps it out of equality
    # and of the report's JSON.
    elapsed_s: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return _record_dict(self)


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


# ---------------------------------------------------------------------------
# The harness, and the check bodies it runs.
# ---------------------------------------------------------------------------


class _Skip(Exception):
    """Raised by a check body whose data leave the check nothing to test;
    the harness reports the row as skipped with this reason."""


def _check(name: str, exact_only: Optional[str] = None):
    """Register a check body as the row ``name``: the wrapped check takes
    the body's arguments and returns a timed CheckResult (see the module
    docstring).  With ``exact_only``, a config without the exact oracle is
    skipped with that reason before the body runs."""

    def register(body):
        @functools.wraps(body)
        def run(cfg: SolitonConfig, *args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            skipped = None
            try:
                if exact_only is not None and cfg.comm is None:
                    raise _Skip(exact_only)
                passed, worst, witness, detail = body(cfg, *args, **kwargs)
            except _Skip as skip:
                passed, worst, witness, detail = True, math.nan, "", ""
                skipped = str(skip)
            except Exception as exc:
                passed, worst, witness = False, math.inf, ""
                detail = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            return CheckResult(name, passed, worst, witness, detail, skipped, elapsed)

        return run

    return register


_NEEDS_ORACLE = "pole oracle requires exact commensurable wavenumbers"


@_check("field-equation-residual")
def _check_field_equation(cfg: SolitonConfig, rng: random.Random, n: int = 40):
    """Prove the field equation: in each variant the g-equation times D^6
    (``kernel._eqg_terms``) must expand to the zero polynomial in (f1, f2)
    over Q.  ``worst`` is the largest surviving coefficient relative to the
    largest coefficient of the two composite terms."""
    # The 2 x 4n probes a sampled version would draw: drawing them keeps
    # the random stream of every later check unchanged.
    for _ in range(2):
        analysis._random_probes(cfg, rng, 4 * n)
    worst, witness, survivors = 0.0, "", 0
    for variant in (Variant.PLUS, Variant.MINUS):
        term1, term2 = _eqg_exact(cfg.with_variant(variant))
        rest = (term1 + term2).coeffs
        survivors += len(rest)
        if not rest:
            continue
        scale = max(map(abs, [*term1.coeffs.values(), *term2.coeffs.values()]))
        (a1, a2), c = max(rest.items(), key=lambda mc: abs(mc[1]))
        rel = float(abs(c) / scale)
        if rel > worst:
            worst = rel
            witness = f"variant={variant.value}, monomial f1^{a1} f2^{a2}"
    return (
        survivors == 0,
        worst,
        witness,
        f"D^6-cleared numerator over Q, both variants: "
        f"{survivors} nonzero coefficients",
    )


@_check("pde-richardson-ratio")
def _check_pde_richardson(cfg: SolitonConfig, rng: random.Random):
    """The PDE residual must fall like h^2: its ratio between steps h and
    h/2 must be 4 at each of the first 3 usable probes of 40.  Fewer usable
    probes fail the row; a ratio or two near 4 shows no convergence."""
    h, need = 1e-2, 3
    ratios, witness, worst_dev = [], "", 0.0
    for x, t in analysis._random_probes(cfg, rng, 40):
        if len(ratios) >= need:
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
    if len(ratios) < need:
        raise ConvergenceError(
            f"{len(ratios)} usable probe points of 40, need {need}"
        )
    return (
        all(abs(r - 4.0) <= 0.2 for r in ratios),
        worst_dev,
        witness,
        f"ratios {['%.3f' % r for r in ratios]}",
    )


@_check("factorization-product")
def _check_factorization(cfg: SolitonConfig, rng: random.Random, n: int = 100):
    """|F1 F2 / F - 1| at n random probes per variant, each variant's probes
    evaluated in one grid call per table, bit for bit the per-point values.
    ``worst`` is the first largest deviation in probe order; NaN never
    wins."""
    worst, witness = 0.0, ""
    for variant in (Variant.PLUS, Variant.MINUS):
        probes = analysis._random_probes(cfg, rng, n)
        xs = np.array([x for x, _ in probes], dtype=complex)
        ts = np.array([t for _, t in probes])
        work = cfg.with_variant(variant)
        f1 = _factor_grid(work, xs, ts, 1)
        f2 = _factor_grid(work, xs, ts, 2)
        qr, qi = (f1 * f2).ratio(F_grid(work, xs, ts))
        rel = np.hypot(qr - 1.0, qi - 0.0)  # abs(q - 1.0)
        for (x, t), r in zip(probes, rel.tolist()):
            if r > worst:
                worst, witness = r, f"x={x}, t={t}, variant={variant.value}"
    return worst < 1e-12, worst, witness, f"{2 * n} probe points"


@_check("real-line-regularity")
def _check_real_line(cfg: SolitonConfig):
    floor, witness = math.inf, ""
    for t in (-1.0, 0.3, 1.2):
        for variant in (Variant.PLUS, Variant.MINUS):
            scan = analysis.check_no_real_poles(cfg, t, variant=variant)
            if scan.min_residual < floor:
                floor = scan.min_residual
                witness = f"x={scan.argmin}, t={t}, variant={variant.value}"
    return (
        floor > 1e-8,
        floor,
        witness,
        "min relative |F| over the real axis (never a zero)",
    )


@_check("cosine-relations-at-zeros", exact_only=_NEEDS_ORACLE)
def _check_cosine_relations(cfg: SolitonConfig):
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
        raise ConvergenceError("no factor-1 zeros sampled")
    return worst < 1e-8, worst, witness, f"{used} zeros, 3 relations each"


@_check("vertical-sign-law")
def _check_sign_law(cfg: SolitonConfig, curves: Optional[Sequence[PoleCurve]]):
    """The sign law at every fifth sample of each tracked curve (the
    battery's ensemble, or four seeded family curves without the oracle),
    all samples in one ``analysis._vertical_signs`` call.  Samples that are
    not simple zeros are left out; ``worst`` counts violations and the
    witness is the first violation of largest measured |Im x'|."""
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
    samples = [s for curve in curves for s in curve.samples[::5]]
    verdicts = analysis._vertical_signs(
        cfg, [x for _, x in samples], [t for t, _ in samples]
    )
    total = decisive = violations = 0
    worst, witness = 0.0, ""
    for (t, x), vs in zip(samples, verdicts):
        if vs is None:
            continue  # collision point or stale sample
        total += 1
        if vs.predicted_sign != 0 and vs.measured_sign != 0:
            decisive += 1
        if not vs.consistent:
            violations += 1
            if abs(vs.measured) > worst:
                worst, witness = abs(vs.measured), f"x={x}, t={t}"
    return (
        violations == 0 and decisive > 0,
        float(violations),
        witness,
        f"{decisive}/{total} decisive samples, {violations} violations",
    )


@_check("translation-identity", exact_only="commensurable wavenumbers required")
def _check_translation(cfg: SolitonConfig, rng: random.Random, probes: int = 60):
    p1, p2 = cfg.comm.p1, cfg.comm.p2
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
        variant = Variant.PLUS if (p2 - p1) % 4 == 0 else Variant.MINUS
        th1, th2 = analysis.odd_parity_translation(
            cfg, variant, probes=20, seed=rng.randint(0, 10**6)
        )
        for x, t in pts:
            r1, r2 = analysis.odd_translation_residuals(cfg, th1, th2, x, t, variant)
            if max(r1, r2) > worst:
                worst, witness = max(r1, r2), f"x={x}, t={t}"
        detail = (
            f"odd parity ({variant.value}), theta1={th1!r}, "
            f"theta2={th2!r}, {probes} probes"
        )
    return worst < 1e-10, worst, witness, detail


@_check("residue-quantization", exact_only=_NEEDS_ORACLE)
def _check_residues(cfg: SolitonConfig, rng: random.Random):
    worst, witness, used = 0.0, "", 0
    for t in (-0.7, 0.4):
        poles = oracle_poles(cfg, t=t)
        simple = [x for x, m in poles if m == 1]
        picks = rng.sample(simple, min(6, len(simple)))
        for x in picks:
            res = analysis.residue_at_pole(cfg, x, t, poles=poles)
            dev = min(abs(res - 1j), abs(res + 1j))
            used += 1
            if dev > worst:
                worst, witness = dev, f"x={x}, t={t}"
    return (
        worst < 1e-8 and used > 0,
        worst,
        witness,
        f"{used} simple poles, contour cross-checked",
    )


@_check("pole-count-conservation", exact_only=_NEEDS_ORACLE)
def _check_pole_count(cfg: SolitonConfig):
    """Prove the count for every t from F's exact table: in each variant,
    one nonzero term of degree 0 and one of top degree 2(p1+p2).  Each term
    is a nonzero constant times e^{sigma t + log_factor}, so at every real t
    F has 2(p1+p2) roots in y != 0 with multiplicity, one pole each in the
    strip.  ``worst`` counts the failed ends; the witness names the first."""
    expected = 2 * (cfg.comm.p1 + cfg.comm.p2)
    faults = []
    for variant in (Variant.PLUS, Variant.MINUS):
        terms = build_F_poly(cfg, variant).terms
        top = max(term.degree for term in terms)
        for end, degree, want in (("constant", 0, 0), ("top", top, expected)):
            coeffs = [term.coeff for term in terms if term.degree == degree]
            if degree != want or len(coeffs) != 1 or coeffs[0] == 0:
                faults.append(
                    f"variant={variant.value}, {end} end: "
                    f"degree {degree}, coefficients {coeffs}"
                )
    detail = f"2(p1+p2) = {expected} with multiplicity"
    if faults:
        return False, float(len(faults)), faults[0], f"{detail}, not proved"
    return True, 0.0, "", f"{detail}, proved for every t in both variants"


@_check(
    "asymptotic-families",
    exact_only="family matching requires exact commensurable wavenumbers",
)
def _check_asymptotics(
    cfg: SolitonConfig, T: float, poles: Optional[Sequence[tuple[complex, int]]]
):
    """Match the oracle's poles at each horizon against the family
    asymptotes (Newton-corrected in place, no tracking; see
    ``match_horizons``).  ``poles`` is the battery's snapshot at t = -T."""
    worst, witness, n = 0.0, "", 0
    for report in match_horizons(cfg, T, poles):
        n = len(report.matches)
        if report.max_residual > worst:
            worst, witness = report.max_residual, f"direction={report.direction}"
    return worst < 1e-3, worst, witness, f"{n} curves per horizon"


@_check(
    "blowup-rate",
    exact_only="scenario seeding requires exact commensurable wavenumbers",
)
def _check_blowup(cfg: SolitonConfig, curves: Optional[Sequence[PoleCurve]]):
    try:
        scenario = build_scenario(cfg, curves=curves)
    except (ValueError, ConvergenceError) as exc:
        raise _Skip(f"no transversal crossing available: {exc}") from exc
    blowup_profile(scenario, [scenario.t_star + d for d in _DELTA_LADDER])
    fit = fit_blowup_rate(scenario)
    k1 = cfg.k1
    tails_ok = all(
        abs(p.tail_rate_left - k1) < 0.1 * k1
        and abs(p.tail_rate_right - k1) < 0.1 * k1
        for p in scenario.series
    )
    ok = abs(fit.exponent + 1.0) < 0.05 and 0.9 < fit.amplitude_ratio < 1.1 and tails_ok
    return (
        ok,
        abs(fit.exponent + 1.0),
        f"t_star={scenario.t_star!r}, alpha={scenario.alpha!r}",
        (
            f"exponent {fit.exponent:.6f}, amplitude ratio "
            f"{fit.amplitude_ratio:.6f}, R^2 {fit.r_squared:.8f}, "
            f"tails at k1: {tails_ok}"
        ),
    )


@_check("interaction-closed-forms")
def _check_interaction(cfg: SolitonConfig):
    if cfg.x1 != 0.0 or cfg.x2 != 0.0:
        raise _Skip("interaction diagnostics require zero shifts")
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
    return worst < 1e-6 and symmetric, worst, witness, "; ".join(detail)


# ---------------------------------------------------------------------------
# The battery.
# ---------------------------------------------------------------------------


def run_battery(cfg: SolitonConfig, seed: int = 0) -> BatteryReport:
    """Run every check against cfg; deterministic for a fixed seed."""
    rng = random.Random(seed)
    curves: Optional[list[PoleCurve]] = None
    seeds: Optional[list[tuple[complex, int]]] = None
    horizon = 10.0
    if cfg.comm is not None:
        horizon = max(10.0, seed_time(cfg, 1e-6) + 2.0)
        # One snapshot at t = -horizon seeds the ensemble and the family
        # match at that horizon.
        seeds = oracle_poles(cfg, t=-horizon)
        curves = track_ensemble(cfg, -horizon, horizon, poles=seeds)

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
        _check_asymptotics(cfg, horizon, seeds),
        _check_blowup(cfg, curves),
        _check_interaction(cfg),
    )
    return BatteryReport(config=cfg.to_dict(), seed=seed, checks=checks)

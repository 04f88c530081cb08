"""Acceptance gate: eleven end-to-end checks with pinned tolerances.

Each test prints one `ACCEPTANCE nn PASS/FAIL: ...` line (visible under
pytest -rA) and asserts the same condition, so the suite both documents
and enforces the bar.  Stated runtime budgets are asserted too.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from soliton_pole_lab.analysis import (
    odd_parity_translation,
    odd_translation_residuals,
    parity_translation_theta,
    residue_at_pole,
    translation_residual,
    vertical_sign,
)
from soliton_pole_lab.asymptotics import (
    FamilyLabel,
    Speed,
    match_families,
    predicted_pole,
    seed_state,
    seed_time,
    tangent_slope,
)
from soliton_pole_lab.blowup import blowup_profile, build_scenario, fit_blowup_rate
from soliton_pole_lab.exppoly import (
    build_F_poly,
    build_G_poly,
    oracle_poles,
    roots_at_time,
)
from soliton_pole_lab.interaction import (
    CRITICAL_RATIO,
    extremum_speed,
    maxima_transition_ratio,
    measure_extremum_speed,
    measure_uxx_at_center,
    uxx_at_center,
)
from soliton_pole_lab.kernel import (
    ConvergenceError,
    PoleError,
    SolitonConfig,
    Variant,
    eqg_residual,
    pde_residual,
    strip_scale,
)
from soliton_pole_lab.tracker import (
    BranchClass,
    TrackerOptions,
    classify_branch,
    position_at,
    track_curve,
)

C15M = SolitonConfig.make(1, 5, "minus")
C12P = SolitonConfig.make(1, 2, "plus")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_coefficient_tables():
    start = time.perf_counter()
    f_table = [(t.degree, t.coeff_exact, t.sigma_exact) for t in build_F_poly(C15M).terms]
    g_table = [(t.degree, t.coeff_exact, t.sigma_exact) for t in build_G_poly(C15M).terms]
    f_ok = f_table == [
        (0, Fraction(1), Fraction(0)),
        (2, Fraction(9, 4), Fraction(2)),
        (6, Fraction(-5, 2), Fraction(126)),
        (10, Fraction(9, 4), Fraction(250)),
        (12, Fraction(1), Fraction(252)),
    ]
    g_ok = g_table == [
        (1, Fraction(-1), Fraction(1)),
        (5, Fraction(5), Fraction(125)),
        (7, Fraction(5), Fraction(127)),
        (11, Fraction(-1), Fraction(251)),
    ]
    elapsed = time.perf_counter() - start
    report(
        1,
        f_ok and g_ok and elapsed < 1.0,
        f"(1,5) minus F/G exact term tables, zero tolerance; "
        f"F {len(f_table)} terms, G {len(g_table)} terms, {elapsed:.3f}s",
    )


def test_criterion_02_collision_multiplicities():
    start = time.perf_counter()

    def mult_at(poly, y0: complex) -> int:
        rs = roots_at_time(poly, 0.0)
        hits = [m for y, m in rs.roots if abs(y - y0) < 1e-8]
        return hits[0] if hits else 0

    f_poly = build_F_poly(C15M)
    g_poly = build_G_poly(C15M)
    f_mults = (mult_at(f_poly, 1j), mult_at(f_poly, -1j))
    g_mults = (mult_at(g_poly, 1j), mult_at(g_poly, -1j))
    elapsed = time.perf_counter() - start
    report(
        2,
        f_mults == (4, 4) and g_mults == (3, 3) and elapsed < 1.0,
        f"(1,5) minus at t=0: F multiplicities {f_mults} at y=+-i (need 4), "
        f"G {g_mults} (need 3), {elapsed:.3f}s",
    )


def test_criterion_03_exceptional_branch_limits():
    start = time.perf_counter()
    xc = 1j * math.pi / 2
    seeds = [x for x, _ in oracle_poles(C15M, t=-0.01) if abs(x - xc) < 0.6]
    assert len(seeds) == 4
    opts = TrackerOptions(dt_init=1e-4, collision_radius=1e-7)
    curves = [track_curve(C15M, None, x, -0.01, 0.0, opts) for x in seeds]
    for curve in curves:
        ts = [abs(t) for t, _ in curve.samples if t != 0.0]
        assert min(ts) <= 1e-6 and max(ts) >= 1e-2 * 0.999
    fits = [classify_branch(c) for c in curves]
    cubic = [f for f in fits if f.branch_class is BranchClass.CUBIC]
    linear = [f for f in fits if f.branch_class is BranchClass.LINEAR]
    cubic_errs = [abs(f.limit_estimate - (-12.0)) / 12.0 for f in cubic]
    linear_errs = [abs(f.limit_estimate - 26.0) / 26.0 for f in linear]
    elapsed = time.perf_counter() - start
    ok = (
        len(cubic) == 3
        and len(linear) == 1
        and all(e < 0.02 for e in cubic_errs)
        and all(e < 0.01 for e in linear_errs)
        and elapsed < 30.0
    )
    report(
        3,
        ok,
        f"3 cube-root branches -> -12 (worst {max(cubic_errs):.2%}), "
        f"1 linear branch -> 26 (err {linear_errs[0]:.2%}), {elapsed:.1f}s",
    )


def test_criterion_04_family_match_and_tangents():
    start = time.perf_counter()
    curves = [
        track_curve(C12P, None, x, -20.0, 20.0)
        for x, _ in oracle_poles(C12P, t=-20.0)
    ]
    assert len(curves) == 6
    res = {}
    for T in (5.0, 10.0, 20.0):
        worst = 0.0
        for direction in (-1, 1):
            rep = match_families(curves, C12P, T, direction)
            assert not rep.unmatched and len(rep.matches) == 6
            worst = max(worst, rep.max_residual)
        res[T] = worst
    # First-order tangent ratios, measured where the deviation is
    # resolvable above double precision (it is ~e^{-3T} at the horizon).
    k1, k2 = C12P.k1, C12P.k2
    d2 = k2**2 - k1**2
    ratio_errs = []
    for speed, index, direction in (
        (Speed.SLOW, 1, -1),
        (Speed.FAST, 1, -1),
        (Speed.SLOW, -1, 1),
        (Speed.FAST, 3, 1),
    ):
        lab = FamilyLabel(speed, index, direction)
        x0, t0 = seed_state(C12P, lab, eps=1e-8)
        curve = track_curve(C12P, None, x0, t0, direction * 1.5)
        rate = k2 * d2 if speed is Speed.SLOW else k1 * d2
        slope = tangent_slope(C12P, lab)
        t = direction * 2.75
        rho = math.exp(-rate * abs(t))
        dev = position_at(C12P, curve, t) - predicted_pole(C12P, lab, t)
        ratio_errs.append(abs(abs(dev / rho) / abs(slope) - 1.0))
    elapsed = time.perf_counter() - start
    ok = (
        res[10.0] < 1e-3
        and res[10.0] < res[5.0]
        and res[20.0] < 1e-3
        and all(e < 0.05 for e in ratio_errs)
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"6 curves matched at every horizon; residual {res[5.0]:.2e} -> "
        f"{res[10.0]:.2e} as |t| doubles to 10 (<1e-3); tangent ratio "
        f"errors worst {max(ratio_errs):.2%} (<5%), {elapsed:.1f}s",
    )


def test_criterion_05_pole_count_conservation():
    start = time.perf_counter()
    pairs = [
        (p1, p2)
        for p2 in range(2, 8)
        for p1 in range(1, p2)
        if math.gcd(p1, p2) == 1
    ]
    checked = 0
    bad = []
    for p1, p2 in pairs:
        for var in ("plus", "minus"):
            cfg = SolitonConfig.make(p1, p2, var)
            for t in (-1.0, -0.1, 0.0, 0.1, 1.0):
                total = sum(m for _, m in oracle_poles(cfg, t=t))
                checked += 1
                if total != 2 * (p1 + p2):
                    bad.append((p1, p2, var, t, total))
    elapsed = time.perf_counter() - start
    report(
        5,
        not bad and elapsed < 60.0,
        f"count = 2(p1+p2) with multiplicity at {checked} snapshots "
        f"({len(pairs)} coprime pairs <= 7, both variants, 5 times), "
        f"violations {bad or 0}, {elapsed:.1f}s",
    )


def test_criterion_06_residue_quantization():
    configs = [
        SolitonConfig.make(1, 2, "plus"),
        SolitonConfig.make(1, 2, "minus"),
        SolitonConfig.make(1, 3, "minus"),
        SolitonConfig.make(2, 3, "plus"),
        SolitonConfig.make(1, 5, "minus"),
    ]
    worst = 0.0
    n = 0
    for cfg in configs:
        for t in (-0.7, 0.4):
            if n >= 50:
                break
            for x, m in oracle_poles(cfg, t=t):
                if m != 1 or n >= 50:
                    continue
                r = residue_at_pole(cfg, x, t)
                worst = max(worst, min(abs(r - 1j), abs(r + 1j)))
                n += 1
    report(
        6,
        n == 50 and worst < 1e-8,
        f"{n} simple-pole residues across 5 configs in {{+i,-i}}, worst "
        f"deviation {worst:.2e} (<1e-8; contour cross-check at 1e-6 inside)",
    )


def test_criterion_07_sign_law_zero_violations():
    configs = [
        SolitonConfig.make(1, 2, "plus"),
        SolitonConfig.make(1, 2, "minus"),
        SolitonConfig.make(1, 3, "minus"),
        SolitonConfig.make(2, 3, "plus"),
        SolitonConfig.make(1, 5, "minus"),
        SolitonConfig.make(1.0, math.sqrt(2.0), "plus"),
    ]
    total_decisive = 0
    violations = 0
    for cfg in configs:
        if cfg.comm is not None:
            curves = [
                track_curve(cfg, None, x, -3.0, 3.0)
                for x, _ in oracle_poles(cfg, t=-3.0)
            ]
        else:
            curves = []
            t_seed = seed_time(cfg, 1e-2)
            for speed in (Speed.SLOW, Speed.FAST):
                for index in (1, -1):
                    x0, t0 = seed_state(cfg, FamilyLabel(speed, index, -1), 1e-2)
                    curves.append(track_curve(cfg, None, x0, t0, t_seed))
        decisive = 0
        for curve in curves:
            for t, x in curve.samples[::3]:
                try:
                    vs = vertical_sign(cfg, x, t)
                except (PoleError, ConvergenceError):
                    continue
                if vs.predicted_sign != 0 and vs.measured_sign != 0:
                    decisive += 1
                    if not vs.consistent:
                        violations += 1
        assert decisive > 0, f"no decisive samples for {cfg}"
        total_decisive += decisive
    report(
        7,
        violations == 0,
        f"predicted vs measured vertical sign at {total_decisive} decisive "
        f"samples over 6 configs (incl. k2=sqrt2 approximate): "
        f"{violations} violations",
    )


def test_criterion_08_translation_identities():
    rng = random.Random(0)

    def probe(cfg):
        scale = strip_scale(cfg)
        return (
            complex(rng.uniform(-3, 3), rng.uniform(-2, 2) * scale),
            rng.uniform(-1.5, 1.5),
        )

    cfg12 = SolitonConfig.make(1, 2, "plus")
    theta = parity_translation_theta(cfg12)
    worst_mixed = 0.0
    for _ in range(100):
        x, t = probe(cfg12)
        worst_mixed = max(worst_mixed, translation_residual(cfg12, x, t, theta))
    cfg13 = SolitonConfig.make(1, 3, "minus")
    th1, th2 = odd_parity_translation(cfg13)
    worst_odd = 0.0
    for _ in range(100):
        x, t = probe(cfg13)
        r1, r2 = odd_translation_residuals(cfg13, th1, th2, x, t)
        worst_odd = max(worst_odd, r1, r2)
    ok = (
        abs(theta - math.pi) < 1e-12
        and worst_mixed < 1e-10
        and worst_odd < 1e-10
    )
    report(
        8,
        ok,
        f"(1,2) mixed parity theta=pi residual {worst_mixed:.2e}; (1,3) minus "
        f"theta1={th1:.6f}, theta2={th2:.6f} residuals {worst_odd:.2e} "
        f"(<1e-10 at 100 probes each)",
    )


def test_criterion_09_pde_residuals():
    rng = random.Random(1)
    worst_eqg = 0.0
    for variant in (Variant.PLUS, Variant.MINUS):
        cfg = C12P.with_variant(variant)
        scale = strip_scale(cfg)
        done = 0
        while done < 100:
            x = complex(rng.uniform(-3, 3), rng.uniform(-2, 2) * scale)
            t = rng.uniform(-1.5, 1.5)
            try:
                r = abs(eqg_residual(cfg, x, t))
            except PoleError:
                continue
            worst_eqg = max(worst_eqg, r)
            done += 1
    # Step size must keep the O(h^2) truncation term above the rounding
    # floor, and points where the residual is already ~1e-8 say nothing
    # about the convergence order.
    ratios = []
    scale = strip_scale(C12P)
    while len(ratios) < 3:
        x = complex(rng.uniform(-3, 3), rng.uniform(-2, 2) * scale)
        t = rng.uniform(-1.5, 1.5)
        try:
            r1 = abs(pde_residual(C12P, x, t, h=1e-2))
            r2 = abs(pde_residual(C12P, x, t, h=5e-3))
        except PoleError:
            continue
        if r1 < 1e-8 or r2 == 0.0:
            continue
        ratios.append(r1 / r2)
    ok = worst_eqg < 1e-10 and all(abs(q - 4.0) <= 0.2 for q in ratios)
    report(
        9,
        ok,
        f"algebraic-identity residual worst {worst_eqg:.2e} at 100 points "
        f"per variant (<1e-10); finite-difference Richardson ratios "
        f"{['%.3f' % q for q in ratios]} (need 4.0 +- 0.2)",
    )


def test_criterion_10_blowup_rate():
    start = time.perf_counter()
    scenario = build_scenario(C12P)
    deltas = (1e-2, 3e-3, 1e-3, 3e-4, 8e-5)
    blowup_profile(scenario, [scenario.t_star + d for d in deltas])
    fit = fit_blowup_rate(scenario)
    tails_ok = all(
        abs(s.tail_rate_left - C12P.k1) < 0.1 * C12P.k1
        and abs(s.tail_rate_right - C12P.k1) < 0.1 * C12P.k1
        for s in scenario.series
    )
    elapsed = time.perf_counter() - start
    ok = (
        math.isfinite(scenario.t_star)
        and abs(fit.exponent + 1.0) < 0.05
        and 0.9 < fit.amplitude_ratio < 1.1
        and tails_ok
        and elapsed < 60.0
    )
    report(
        10,
        ok,
        f"(1,2) plus crossing t_star={scenario.t_star:.6f}; fit exponent "
        f"{fit.exponent:.4f} (-1 +- 0.05 over two decades), amplitude within "
        f"{abs(fit.amplitude_ratio - 1.0):.2%} of 1/|Im x'| (<10%), spatial "
        f"tails at k1 +- 10%: {tails_ok}, {elapsed:.1f}s",
    )


def test_criterion_11_interaction_closed_forms():
    cases_uxx = [
        SolitonConfig.make(1, 2, "plus"),
        SolitonConfig.make(1, 2, "minus"),
        SolitonConfig.make(1, 4, "plus"),
    ]
    worst_uxx = max(
        abs(measure_uxx_at_center(cfg) - uxx_at_center(cfg))
        / max(1.0, abs(uxx_at_center(cfg)))
        for cfg in cases_uxx
    )
    cases_speed = [
        SolitonConfig.make(1, 2, "plus"),
        SolitonConfig.make(1, 2, "minus"),
        SolitonConfig.make(1, 3, "plus"),
    ]
    worst_speed = max(
        abs(measure_extremum_speed(cfg) - extremum_speed(cfg))
        / max(1.0, abs(extremum_speed(cfg)))
        for cfg in cases_speed
    )
    lo, hi = maxima_transition_ratio()
    bracket_ok = 2.55 <= lo < hi <= 2.70 and lo <= CRITICAL_RATIO <= hi
    ok = worst_uxx < 1e-6 and worst_speed < 1e-6 and bracket_ok
    report(
        11,
        ok,
        f"center second-derivative worst rel err {worst_uxx:.2e}, extremum "
        f"speed worst {worst_speed:.2e} (<1e-6 after extrapolation); maxima "
        f"transition bracketed in [{lo:.6f}, {hi:.6f}] containing "
        f"(3+sqrt5)/2={CRITICAL_RATIO:.6f}",
    )

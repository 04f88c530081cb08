"""Tests for family predictions, moving frames, tangents, and matching.

Hand-derived anchors: for (k1, k2) = (1, 2), gamma = 3, the slow family
m=1 at t=-10 sits at -10 + ln 3 + i pi/2 and the fast family n=1 at t=+10
at 40 + (ln 3)/2 - i pi/4; the Plus slow-m=1 tangent coefficient is 8/27.
The measured deviation coefficient is the stated one rotated by i*direction
(verified by implicit differentiation of the frame function and pinned
here against tracked curves).
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from soliton_pole_lab.exppoly import oracle_poles
from soliton_pole_lab.kernel import ConvergenceError, F_scaled, SolitonConfig
from soliton_pole_lab.asymptotics import (
    CurveMatch,
    FamilyLabel,
    MatchReport,
    MovingFrame,
    Speed,
    match_families,
    match_horizons,
    predicted_pole,
    seed_state,
    seed_time,
    slow_lattice_point,
    strip_labels,
    tangent_slope,
)
from soliton_pole_lab.tracker import (
    TrackerOptions,
    position_at,
    track_curve,
    track_ensemble,
)


# ---------------------------------------------------------------------------
# Labels and predictions.
# ---------------------------------------------------------------------------


def test_label_validation():
    with pytest.raises(ValueError):
        FamilyLabel(Speed.SLOW, 2, -1)
    with pytest.raises(ValueError):
        FamilyLabel(Speed.SLOW, 1, 0)
    lab = FamilyLabel(Speed.FAST, -3, 1)
    assert lab == FamilyLabel(Speed.FAST, -3, 1)
    assert lab != FamilyLabel(Speed.FAST, -3, -1)
    assert "fast" in repr(lab) and "+inf" in repr(lab)


def test_labels_are_immutable():
    # Labels are dict keys (a match report's claimed labels); a key that
    # could change would change its hash.
    lab = FamilyLabel(Speed.SLOW, 1, -1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lab.index = 3
    assert lab == FamilyLabel(Speed.SLOW, 1, -1)


def test_predicted_pole_hand_values():
    cfg = SolitonConfig.make(1, 2, "minus")
    # slow, m=1, t -> -inf, at t=-10: -10 + ln 3 + i pi/2
    x = predicted_pole(cfg, FamilyLabel(Speed.SLOW, 1, -1), -10.0)
    assert x == pytest.approx(-10.0 + math.log(3.0) + 1j * math.pi / 2)
    # fast, n=1, t -> +inf, at t=10: 40 + (ln 3)/2 - i pi/4
    x = predicted_pole(cfg, FamilyLabel(Speed.FAST, 1, 1), 10.0)
    assert x == pytest.approx(40.0 + math.log(3.0) / 2 - 1j * math.pi / 4)


def test_backward_shift_between_directions():
    cfg = SolitonConfig.make(1, 2, "minus")
    # Real part relative to the ray k1^2 t: +log(gamma)/k1 before, -after,
    # i.e. the slower soliton is shifted backward by 2 log(gamma)/k1.
    before = predicted_pole(cfg, FamilyLabel(Speed.SLOW, 1, -1), -10.0)
    after = predicted_pole(cfg, FamilyLabel(Speed.SLOW, 1, 1), 10.0)
    drop = (before.real - 1.0 * -10.0) - (after.real - 1.0 * 10.0)
    assert drop == pytest.approx(2 * math.log(3.0))


def test_direction_mismatch_rejected():
    cfg = SolitonConfig.make(1, 2, "minus")
    with pytest.raises(ValueError, match="direction"):
        predicted_pole(cfg, FamilyLabel(Speed.SLOW, 1, -1), 5.0)
    # t = 0 is the frame anchor and always allowed.
    predicted_pole(cfg, FamilyLabel(Speed.SLOW, 1, -1), 0.0)


def test_shifts_enter_predictions():
    cfg = SolitonConfig.make(1, 2, "minus", x1=0.7, x2=-0.4)
    base = SolitonConfig.make(1, 2, "minus")
    lab_s = FamilyLabel(Speed.SLOW, 1, -1)
    lab_f = FamilyLabel(Speed.FAST, 1, -1)
    assert predicted_pole(cfg, lab_s, -5.0) - predicted_pole(
        base, lab_s, -5.0
    ) == pytest.approx(0.7)
    assert predicted_pole(cfg, lab_f, -5.0) - predicted_pole(
        base, lab_f, -5.0
    ) == pytest.approx(-0.4)


# ---------------------------------------------------------------------------
# Tangent coefficients.
# ---------------------------------------------------------------------------


def test_tangent_anchor_8_27():
    cfg = SolitonConfig.make(1, 2, "plus")
    val = tangent_slope(cfg, FamilyLabel(Speed.SLOW, 1, -1))
    assert val == pytest.approx(8.0 / 27.0)
    # Minus variant negates.
    val_m = tangent_slope(
        SolitonConfig.make(1, 2, "minus"), FamilyLabel(Speed.SLOW, 1, -1)
    )
    assert val_m == pytest.approx(-8.0 / 27.0)


def test_tangent_fast_magnitude():
    cfg = SolitonConfig.make(1, 2, "plus")
    val = tangent_slope(cfg, FamilyLabel(Speed.FAST, 1, -1))
    assert abs(val) == pytest.approx(4.0 / 3.0 * 3.0 ** (-0.5))


@pytest.mark.parametrize(
    "variant,speed,index,direction",
    [
        ("plus", Speed.SLOW, 1, -1),
        ("plus", Speed.FAST, 1, -1),
        ("plus", Speed.FAST, 1, 1),
        ("minus", Speed.SLOW, -1, -1),
        ("minus", Speed.FAST, 3, 1),
    ],
)
def test_first_order_deviation(variant, speed, index, direction):
    """Measured deviation = (i * direction) * tangent_slope * rho + o(rho)."""
    cfg = SolitonConfig.make(1, 2, variant)
    lab = FamilyLabel(speed, index, direction)
    x0, t0 = seed_state(cfg, lab, eps=1e-8)
    curve = track_curve(cfg, None, x0, t0, direction * 1.5)
    k1, k2 = cfg.k1, cfg.k2
    d2 = k2**2 - k1**2
    rate = k2 * d2 if speed is Speed.SLOW else k1 * d2
    slope = tangent_slope(cfg, lab)
    for t in (direction * 2.0, direction * 2.75):
        rho = math.exp(-rate * abs(t))
        dev = position_at(cfg, curve, t) - predicted_pole(cfg, lab, t)
        measured = dev / rho
        # Modulus ratio -> 1 (the 5% consistency gate) ...
        assert abs(measured) / abs(slope) == pytest.approx(1.0, abs=0.02)
        # ... and the exact phase relation.
        assert abs(measured - 1j * direction * slope) < 0.02 * abs(slope)


# ---------------------------------------------------------------------------
# Moving frames.
# ---------------------------------------------------------------------------


def test_frame_scales_positive_and_anchored():
    cfg = SolitonConfig.make(1, 2, "minus")
    slow = MovingFrame(cfg, Speed.SLOW)
    fast = MovingFrame(cfg, Speed.FAST)
    for t in (-3.0, -0.5, 0.0, 0.5, 3.0):
        z, r = slow.coords(1.0 + 2.0j, t)
        w, s = fast.coords(1.0 + 2.0j, t)
        assert r > 0 and s > 0
        assert z == pytest.approx(1.0 + 2.0j - cfg.k1**2 * t)
        assert w == pytest.approx(1.0 + 2.0j - cfg.k2**2 * t)
        if t == 0.0:
            assert r == 1.0 and s == 1.0


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_frame_identities(variant):
    """F(x,t) = H(z,r) = s^{-2} I(w,s) at random points, rel err < 1e-10."""
    cfg = SolitonConfig.make(1, 2, variant)
    slow = MovingFrame(cfg, Speed.SLOW)
    fast = MovingFrame(cfg, Speed.FAST)
    rng = random.Random(11)
    for _ in range(60):
        x = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        t = rng.uniform(-2.5, 2.5)
        Fv = F_scaled(cfg, x, t)
        z, r = slow.coords(x, t)
        w, s = fast.coords(x, t)
        assert abs(slow.value(z, r).ratio(Fv) - 1.0) < 1e-10
        assert abs(fast.value(w, s).ratio(Fv) - s**2) < 1e-10 * s**2


def test_slow_frame_limit_lattice():
    """H(., 0) vanishes exactly on z = log(gamma)/k1 + m pi i/(2 k1), m odd."""
    cfg = SolitonConfig.make(2, 3, "plus")
    slow = MovingFrame(cfg, Speed.SLOW)
    for m in (-5, -3, -1, 1, 3, 5):
        z = slow_lattice_point(cfg, m)
        assert slow.value(z, 0.0).relative() < 1e-13
        # Midpoints between lattice lines are far from zero.
        z_mid = z + 1j * math.pi / (2 * cfg.k1)
        assert slow.value(z_mid, 0.0).relative() > 0.1
    with pytest.raises(ValueError):
        slow_lattice_point(cfg, 2)
    with pytest.raises(ValueError):
        slow.value(0j, -1.0)


# ---------------------------------------------------------------------------
# Seeding.
# ---------------------------------------------------------------------------


def test_seed_time_formula():
    cfg = SolitonConfig.make(1, 2, "minus")
    t = seed_time(cfg, 1e-6)
    assert t == pytest.approx(math.log(1e6) / 3.0)
    assert math.exp(-cfg.k1 * 3.0 * t) <= 1e-6 * (1 + 1e-9)
    with pytest.raises(ValueError):
        seed_time(cfg, 2.0)


def test_seeds_converge_fast():
    """Newton from a seed polishes in < 5 iterations (both variants)."""
    from soliton_pole_lab.kernel import _FPointEval
    from soliton_pole_lab.tracker import _newton_correct

    for variant in ("plus", "minus"):
        cfg = SolitonConfig.make(1, 2, variant)
        for lab in strip_labels(cfg, -1) + strip_labels(cfg, 1):
            x0, t0 = seed_state(cfg, lab)
            _, rel, _, _, _, iters = _newton_correct(
                _FPointEval(cfg), x0, t0, TrackerOptions.newton_tol
            )
            assert iters < 5
            assert rel < 1e-12


def test_strip_labels_counts():
    cfg = SolitonConfig.make(2, 3, "minus")
    labels = strip_labels(cfg, -1)
    assert len(labels) == 10  # 2(p1+p2)
    assert len({(l.speed, l.index) for l in labels}) == 10
    assert all(l.index % 2 == 1 for l in labels)
    with pytest.raises(ValueError):
        strip_labels(SolitonConfig.make(1.0, 2.3), -1)


# ---------------------------------------------------------------------------
# Matching tracked curves to families.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["plus", "minus"])
def tracked_12(request):
    cfg = SolitonConfig.make(1, 2, request.param)
    seeds = oracle_poles(cfg, t=-10.0)
    curves = [track_curve(cfg, None, x, -10.0, 10.0) for x, _ in seeds]
    return cfg, curves


def test_match_all_curves_both_horizons(tracked_12):
    cfg, curves = tracked_12
    for direction in (-1, 1):
        report = match_families(curves, cfg, 10.0, direction=direction)
        assert len(report.matches) == 6
        assert not report.unmatched
        assert report.max_residual < 1e-10
        claimed = {m.label for m in report.matches}
        assert claimed == set(strip_labels(cfg, direction))
    # The attach flag stores the most recent labels on the curves.
    assert all(c.family is not None for c in curves)


def test_match_residual_ladder_decreases(tracked_12):
    cfg, curves = tracked_12
    residuals = [
        match_families(curves, cfg, T, direction=-1, attach=False).max_residual
        for T in (2.5, 5.0, 10.0)
    ]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 1e-3


def test_match_pairing_structure(tracked_12):
    """Curves that stay in one speed class flip index sign across the
    interaction and keep their asymptotic height (measured behavior)."""
    cfg, curves = tracked_12
    rep_m = match_families(curves, cfg, 10.0, direction=-1, attach=False)
    rep_p = match_families(curves, cfg, 10.0, direction=+1, attach=False)
    for mm, mp in zip(rep_m.matches, rep_p.matches):
        if mm.label.speed is mp.label.speed:
            assert mp.label.index == -mm.label.index
            im_before = predicted_pole(cfg, mm.label, -10.0).imag
            im_after = predicted_pole(cfg, mp.label, 10.0).imag
            assert im_before == pytest.approx(im_after, abs=1e-12)


def test_match_empty_and_errors(tracked_12):
    cfg, curves = tracked_12
    empty = match_families([], cfg, 10.0)
    assert empty.matches == () and empty.max_residual == 0.0
    with pytest.raises(ValueError):
        match_families(curves, cfg, -1.0)
    with pytest.raises(ValueError):
        match_families(curves, cfg, 10.0, direction=2)
    # Duplicating a curve forces two claims on one label.
    with pytest.raises(ConvergenceError, match="ambiguous"):
        match_families([curves[0], curves[0]], cfg, 10.0, attach=False)


def test_match_report_serializes(tracked_12):
    cfg, curves = tracked_12
    report = match_families(curves, cfg, 10.0, direction=-1, attach=False)
    d = report.to_dict()
    assert d["T"] == 10.0 and d["direction"] == -1
    assert len(d["matches"]) == 6
    entry = d["matches"][0]
    assert set(entry) == {"curve", "label", "endpoint", "residual"}
    assert isinstance(entry["endpoint"], list)


@pytest.mark.parametrize(
    "k1,k2,variant,T",
    [(1, 2, "plus", 10.0), (1, 5, "minus", 10.0), (2, 7, "plus", 4.0), (1, 3, "minus", 2.5)],
)
def test_match_horizons_equals_matching_tracked_curves(
    k1: int, k2: int, variant: str, T: float
) -> None:
    # Labelling the Newton-corrected oracle poles gives the very reports
    # that matching curves tracked one unit inward from each horizon gives.
    cfg = SolitonConfig.make(k1, k2, variant)
    for report, direction in zip(match_horizons(cfg, T), (-1, 1)):
        curves = track_ensemble(cfg, direction * T, direction * T - direction)
        assert report == match_families(curves, cfg, T, direction, attach=False)


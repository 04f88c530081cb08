"""Tests for pole-curve continuation, collision handling, and mirrors.

Expected values are hand-derived: the one-soliton pole lattice
x(t) = x0 + k^2 t + m pi i / (2k) is exact; collision scaling limits for
(k1, k2) = (1, 5) Minus are -12 (cubic branches) and k1^2 + k2^2 = 26
(linear branch); the global root oracle provides positions everywhere else.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_pole_lab import kernel, tracker
from soliton_pole_lab._balanced import balanced_sum
from soliton_pole_lab.asymptotics import FamilyLabel, Speed, seed_state, seed_time
from soliton_pole_lab.exppoly import oracle_poles
from soliton_pole_lab.kernel import (
    ConvergenceError,
    F_scaled,
    SolitonConfig,
    Variant,
    _F_point,
)
from soliton_pole_lab.tracker import (
    BranchClass,
    PoleCurve,
    TrackerOptions,
    _track_seeds,
    classify_branch,
    curve_to_csv_rows,
    detect_exceptional,
    mirror_curve,
    track_curve,
    track_ensemble,
    track_zero_curve,
)


def _exp_sum(terms):
    """Trackable F from terms (c, a, b) meaning c * e^{a x + b t}."""

    def fun(x, t, dx=0, dt=0):
        return balanced_sum(
            [(c * a**dx * b**dt, a * x + b * t) for c, a, b in terms]
        )

    return fun


def _polish(cfg, x, t, tol=1e-13):
    for _ in range(50):
        Fv = F_scaled(cfg, x, t)
        if Fv.relative() < tol:
            break
        Fx = F_scaled(cfg, x, t, dx=1)
        x = x - (Fv / Fx).value()
    return x


# ---------------------------------------------------------------------------
# Degenerate sanity: the one-soliton pole lattice is tracked exactly.
# ---------------------------------------------------------------------------


def test_one_soliton_lattice_tracked():
    k, x0 = 1.3, 0.4
    # 2 cosh(-k(x-x0) + k^3 t) as an exponential sum.
    c = math.exp(k * x0)
    F = _exp_sum([(c, -k, k**3), (1.0 / c, k, -k**3)])
    x_seed = x0 + 1j * math.pi / (2 * k)
    curve = track_zero_curve(F, x_seed, 0.0, 2.0)
    assert curve.t_last == 2.0
    assert not curve.exceptional_collision
    for t, x in curve.samples:
        expected = x0 + k**2 * t + 1j * math.pi / (2 * k)
        assert abs(x - expected) < 1e-9
    assert all(r < 1e-12 for r in curve.residuals)
    # Another lattice row, tracked backwards.
    x_seed3 = x0 + 3j * math.pi / (2 * k)
    curve_b = track_zero_curve(F, x_seed3, 0.0, -1.5)
    assert curve_b.t_last == -1.5
    expected = x0 + k**2 * -1.5 + 3j * math.pi / (2 * k)
    assert abs(curve_b.x_last - expected) < 1e-9
    # Samples strictly monotone in the tracking direction.
    ts = [t for t, _ in curve_b.samples]
    assert all(b < a for a, b in zip(ts, ts[1:]))


# ---------------------------------------------------------------------------
# Oracle agreement for commensurable configs.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["minus", "plus"])
def test_tracked_curves_match_oracle_12(variant):
    cfg = SolitonConfig.make(1, 2, variant)
    seeds = oracle_poles(cfg, t=-1.0)
    assert len(seeds) == 6  # 2(p1+p2)
    curves = [track_curve(cfg, None, x, -1.0, 1.0) for x, _ in seeds]
    for curve in curves:
        assert curve.t_last == 1.0
        assert not curve.exceptional_collision
        assert all(r < 1e-12 for r in curve.residuals)
        dts = np.diff([t for t, _ in curve.samples])
        assert np.all(dts > 0) and np.max(dts) <= TrackerOptions().dt_max + 1e-15
    # Distinct curves: endpoints pairwise separated.
    ends = [c.x_last for c in curves]
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            assert abs(ends[i] - ends[j]) > 1e-2
    # Bijective nearest-neighbor agreement with the oracle at checkpoints.
    for t_star in (-1.0, -0.4, 0.15, 1.0):
        oracle = [x for x, _ in oracle_poles(cfg, t=t_star)]
        matched = set()
        for curve in curves:
            x_est = _polish(
                cfg.with_variant(curve.variant), curve.x_at_nearest(t_star), t_star
            )
            dists = [abs(x_est - xo) for xo in oracle]
            idx = int(np.argmin(dists))
            assert dists[idx] < 1e-8
            matched.add(idx)
        assert matched == set(range(len(oracle)))


@pytest.mark.parametrize("variant", ["minus", "plus"])
def test_track_ensemble_follows_every_oracle_pole(variant):
    cfg = SolitonConfig.make(1, 2, variant)
    seeds = oracle_poles(cfg, t=-3.0)
    curves = track_ensemble(cfg, -3.0, 3.0)
    assert len(curves) == len(seeds)
    for curve, (x_seed, _) in zip(curves, seeds):
        assert curve.samples[0][0] == -3.0
        assert abs(curve.samples[0][1] - x_seed) < 1e-10
        assert curve.t_last == 3.0
    # Endpoints match the oracle at t_end one to one.
    oracle = [x for x, _ in oracle_poles(cfg, t=3.0)]
    nearest = [
        int(np.argmin([abs(c.x_last - xo) for xo in oracle])) for c in curves
    ]
    assert sorted(nearest) == list(range(len(oracle)))
    for curve, idx in zip(curves, nearest):
        assert abs(curve.x_last - oracle[idx]) < 1e-8


def test_incommensurable_tracking_smoke():
    cfg = SolitonConfig.make(1.0, 2.3, "minus")
    assert cfg.comm is None
    gamma = cfg.gamma
    x_guess = 1.0 * -8.0 + math.log(gamma) / 1.0 + 1j * math.pi / 2
    curve = track_curve(cfg, None, x_guess, -8.0, -7.0)
    assert curve.t_last == -7.0
    assert all(r < 1e-12 for r in curve.residuals)
    # Far in the past the slow pole drifts at speed ~ k1^2 = 1.
    (t0, x0), (t1, x1) = curve.samples[0], curve.samples[-1]
    speed = (x1 - x0) / (t1 - t0)
    assert abs(speed.real - 1.0) < 0.05
    assert abs(speed.imag) < 0.05


# ---------------------------------------------------------------------------
# Exceptional-case detection.
# ---------------------------------------------------------------------------


def test_detect_exceptional_cases():
    lam_pi_half = 1j * math.pi / 2
    res = detect_exceptional(SolitonConfig.make(1, 5, "minus"))
    assert res["is_exceptional"]
    assert sorted(p.imag for p in res["points"]) == pytest.approx(
        [-math.pi / 2, math.pi / 2]
    )
    assert min(abs(p - lam_pi_half) for p in res["points"]) < 1e-15
    assert not detect_exceptional(SolitonConfig.make(1, 5, "plus"))["is_exceptional"]
    assert not detect_exceptional(SolitonConfig.make(1, 2, "minus"))["is_exceptional"]
    assert not detect_exceptional(SolitonConfig.make(1, 2, "plus"))["is_exceptional"]
    assert not detect_exceptional(SolitonConfig.make(1, 3, "minus"))["is_exceptional"]
    assert detect_exceptional(SolitonConfig.make(1, 3, "plus"))["is_exceptional"]
    assert detect_exceptional(SolitonConfig.make(3, 5, "plus"))["is_exceptional"]
    assert not detect_exceptional(SolitonConfig.make(3, 5, "minus"))["is_exceptional"]
    # Incommensurable configs are never exceptional.
    assert not detect_exceptional(SolitonConfig.make(1.0, 2.3))["is_exceptional"]


# ---------------------------------------------------------------------------
# Collision tracking and branch classification for (1, 5) Minus.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def collision_curves():
    cfg = SolitonConfig.make(1, 5, "minus")
    xc = 1j * math.pi / 2
    seeds = [x for x, _ in oracle_poles(cfg, t=-0.01) if abs(x - xc) < 0.6]
    assert len(seeds) == 4
    opts = TrackerOptions(dt_init=1e-4, collision_radius=1e-7)
    curves = [track_curve(cfg, None, x, -0.01, 0.0, opts) for x in seeds]
    return cfg, xc, curves


def test_collision_curves_flagged(collision_curves):
    _, xc, curves = collision_curves
    for curve in curves:
        assert curve.exceptional_collision
        assert curve.collision_point is not None
        assert abs(curve.collision_point - xc) < 1e-12
        ts = np.abs([t for t, _ in curve.samples])
        assert ts.min() <= 1e-6
        assert ts.max() >= 100 * ts.min()
        assert all(r < 1e-12 for r in curve.residuals)


def test_branch_classification_counts_and_limits(collision_curves):
    _, _, curves = collision_curves
    fits = [classify_branch(c) for c in curves]
    classes = [f.branch_class for f in fits]
    # Measured split: three cube-root branches, one linear branch.
    assert classes.count(BranchClass.CUBIC) == 3
    assert classes.count(BranchClass.LINEAR) == 1
    for fit, curve in zip(fits, curves):
        assert curve.branch_class is fit.branch_class
        if fit.branch_class is BranchClass.CUBIC:
            assert abs(fit.limit_estimate - (-12.0)) / 12.0 < 0.02
            assert fit.cubic_residual < fit.linear_residual / 2
        else:
            assert abs(fit.limit_estimate - 26.0) / 26.0 < 0.01
            assert fit.linear_residual < fit.cubic_residual / 2


def test_linear_branch_is_horizontal(collision_curves):
    _, _, curves = collision_curves
    fits = [classify_branch(c) for c in curves]
    linear = [
        c
        for c, f in zip(curves, fits)
        if f.branch_class is BranchClass.LINEAR
    ]
    assert len(linear) == 1
    for _, x in linear[0].samples:
        assert abs(x.imag - math.pi / 2) < 1e-8


def test_mirror_curve_properties(collision_curves):
    cfg, xc, curves = collision_curves
    curve = curves[0]
    mirrored = mirror_curve(curve)
    # Mirrored samples live at t > 0 and still satisfy F = 0.
    assert mirrored.exceptional_collision
    assert abs(mirrored.collision_point - xc) < 1e-12
    ts = [t for t, _ in mirrored.samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for t, x in mirrored.samples[:: max(1, len(ts) // 25)]:
        assert F_scaled(cfg, x, t).relative() < 1e-11
    # Conjugated samples are zeros as well.
    for t, x in curve.samples[:: max(1, len(ts) // 25)]:
        assert F_scaled(cfg, x.conjugate(), t).relative() < 1e-11
    # Involution.
    double = mirror_curve(mirrored)
    assert double.samples == curve.samples
    # The mirror keeps the work counters of the curve it reflects.
    assert curve.accepted == len(curve.samples) - 1
    assert 0.0 < curve.min_fx_rel < math.inf
    assert _counters(mirrored) == _counters(double) == _counters(curve)


# ---------------------------------------------------------------------------
# Error paths.
# ---------------------------------------------------------------------------


def test_undeclared_collision_raises():
    # Zero curves x = 0 and x = t of (e^x - 1)(e^x - e^t) merge at t = 0,
    # which is not a declared collision point.  The step cap keeps the
    # tracker from striding over the pinch unresolved.
    F = _exp_sum([(1, 2, 0), (-1, 1, 1), (-1, 1, 0), (1, 0, 1)])
    opts = TrackerOptions(dt_max=1e-5)
    with pytest.raises(ConvergenceError, match="near-multiple-root"):
        track_zero_curve(F, -0.001 + 0j, -0.001, 0.001, opts)


def test_seed_on_double_root_raises():
    F = _exp_sum([(1, 2, 0), (-2, 1, 0), (1, 0, 0)])  # (e^x - 1)^2
    with pytest.raises(ConvergenceError, match="near-multiple-root"):
        track_zero_curve(F, 1e-3 + 0j, 0.0, 1.0)


def test_seed_far_from_pole_raises():
    cfg = SolitonConfig.make(1, 2, "minus")
    with pytest.raises(ConvergenceError):
        track_curve(cfg, None, 50.0 + 0.3j, 0.0, 1.0)


def test_equal_endpoints_rejected():
    cfg = SolitonConfig.make(1, 2, "minus")
    with pytest.raises(ValueError):
        track_curve(cfg, None, 0j, 1.0, 1.0)


@pytest.mark.parametrize(
    "t_start, t_end", [(0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)]
)
def test_non_finite_times_rejected(t_start, t_end):
    # Unchecked, a NaN end returns the seed alone and an infinite one runs
    # the whole step budget before it raises.
    cfg = SolitonConfig.make(1, 2, "plus")
    x = oracle_poles(cfg, t=0.0)[0][0]
    with pytest.raises(ValueError, match="finite"):
        track_curve(cfg, None, x, t_start, t_end)


def test_span_beyond_the_step_budget_rejected():
    # Unchecked, this runs all 200,000 steps, for seconds, before the
    # budget raises ConvergenceError.
    cfg = SolitonConfig.make(1, 2, "plus")
    x = oracle_poles(cfg, t=0.0)[0][0]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="step budget"):
        track_curve(cfg, None, x, 0.0, 1e9)
    assert time.perf_counter() - start < 1.0


def test_step_budget_reach_is_refused_only_without_collision_points():
    # 10 steps of at most 0.05 reach 0.5.  A declared collision point may
    # end a curve early, so a longer span with one is still attempted.
    k = 1.3
    F = _exp_sum([(1.0, -k, k**3), (1.0, k, -k**3)])
    seed = 1j * math.pi / (2 * k)
    opts = TrackerOptions(max_steps=10, dt_max=0.05)
    with pytest.raises(ValueError, match="step budget"):
        track_zero_curve(F, seed, 0.0, -0.6, opts)
    with pytest.raises(ConvergenceError, match="step budget 10 exhausted"):
        track_zero_curve(F, seed, 0.0, 0.6, opts, collision_points=[50j])
    with pytest.raises(ConvergenceError, match="step budget 10 exhausted"):
        track_zero_curve(F, seed, 0.0, 0.5, opts)


@pytest.mark.parametrize(
    "knob",
    [
        {"dt_init": math.nan},
        {"dt_init": 0.0},
        {"dt_max": 0.0},
        {"dt_max": -0.05},
        {"dt_max": math.inf},
        {"dt_floor": 0.0},
        {"newton_tol": -1e-12},
        {"newton_tol": math.nan},
        {"grow": 0.5},
        {"grow": math.nan},
        {"max_newton": 0},
        {"max_steps": 0},
    ],
)
def test_options_that_stall_or_end_silently_rejected(knob):
    # Unchecked on (1,2)+ from t = -1 to 1: dt_init=nan returns the seed
    # alone, dt_max=0 and grow=0.5 run the whole step budget before they
    # raise, and dt_max=-0.05 walks away from t_end.
    with pytest.raises(ValueError, match=next(iter(knob))):
        TrackerOptions(**knob)


def test_options_at_their_bounds_construct():
    # A step that never grows and single-iteration budgets still advance.
    TrackerOptions(grow=1.0, max_newton=1, max_steps=1)


def test_classify_requires_flagged_curve():
    cfg = SolitonConfig.make(1, 2, "minus")
    x = oracle_poles(cfg, t=-0.5)[0][0]
    curve = track_curve(cfg, None, x, -0.5, -0.4)
    with pytest.raises(ValueError, match="exceptional"):
        classify_branch(curve)


def test_classify_requires_depth():
    xc = 1j * math.pi / 2
    ts = [-(10.0 ** (-k / 4)) for k in range(8)]  # |t| only down to ~0.018
    shallow = PoleCurve(
        variant=Variant.MINUS,
        samples=[(t, xc + 26 * t) for t in ts],
        residuals=[0.0] * len(ts),
        exceptional_collision=True,
        collision_point=xc,
    )
    with pytest.raises(ValueError, match="decades"):
        classify_branch(shallow)


def test_classify_ambiguous_raises():
    rng = np.random.default_rng(7)
    xc = 1j * math.pi / 2
    ts = [-(10.0 ** (-k / 2)) for k in range(15)]
    noise = rng.normal(size=len(ts)) + 1j * rng.normal(size=len(ts))
    curve = PoleCurve(
        variant=Variant.MINUS,
        samples=[(t, xc + z) for t, z in zip(ts, noise)],
        residuals=[0.0] * len(ts),
        exceptional_collision=True,
        collision_point=xc,
    )
    with pytest.raises(ConvergenceError, match="ambiguous"):
        classify_branch(curve)


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------


def test_csv_rows(collision_curves):
    _, _, curves = collision_curves
    curve = curves[0]
    classify_branch(curve)  # ensure the branch flag is populated
    rows = curve_to_csv_rows(curve)
    assert len(rows) == len(curve.samples)
    t0, re0, im0, abs_f0, flags = rows[0]
    assert (t0, re0 + 1j * im0) == curve.samples[0]
    assert abs_f0 == curve.residuals[0]
    assert "exceptional_collision" in flags
    assert f"branch={curve.branch_class.value}" in flags


# ---------------------------------------------------------------------------
# The kernel's point evaluator changes no sample.
# ---------------------------------------------------------------------------

# name -> (config, t0, t1, options, seed filter)
TRACK_CASES = {
    "12p": ((1, 2, "plus"), -10.0, 10.0, None, None),
    "15m": ((1, 5, "minus"), -10.0, 10.0, None, None),
    "27p": ((2, 7, "plus"), -6.0, 6.0, None, None),
    "collision": (
        (1, 5, "minus"),
        -0.01,
        0.0,
        TrackerOptions(dt_init=1e-4, collision_radius=1e-7),
        lambda x: abs(x - 1j * math.pi / 2) < 0.6,
    ),
}


def _assert_same_as_plain_F_scaled(cfg, x0, t0, t1, opts=None):
    """track_curve (the kernel's point evaluator, values kept as triples)
    and track_zero_curve over one-shot F_scaled give the same curve bit for
    bit, or fail with the same error."""
    points = detect_exceptional(cfg)["points"]

    def plain(x, t, dx=0, dt=0):
        return F_scaled(cfg, x, t, dx, dt)

    try:
        want = track_zero_curve(plain, x0, t0, t1, opts, points, cfg.variant)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as got_exc:
            track_curve(cfg, None, x0, t0, t1, opts)
        assert str(got_exc.value) == str(exc)
        return
    got = track_curve(cfg, None, x0, t0, t1, opts)
    # repr is exact for floats and tells -0.0 from 0.0.
    assert repr(got.samples) == repr(want.samples)
    assert repr(got.residuals) == repr(want.residuals)
    assert (got.exceptional_collision, got.collision_point) == (
        want.exceptional_collision,
        want.collision_point,
    )
    assert _counters(got) == _counters(want)


def _counters(curve):
    return (
        curve.accepted,
        curve.rejected,
        curve.newton_iterations,
        curve.points,
        curve.min_fx_rel,
    )


@pytest.mark.parametrize("case", sorted(TRACK_CASES))
def test_track_curve_equals_tracking_plain_F_scaled(case):
    spec, t0, t1, opts, keep = TRACK_CASES[case]
    cfg = SolitonConfig.make(*spec)
    seeds = [x for x, _ in oracle_poles(cfg, t=t0) if keep is None or keep(x)]
    for x0 in seeds:
        _assert_same_as_plain_F_scaled(cfg, x0, t0, t1, opts)


_COPRIME_9 = [(a, b) for b in range(2, 10) for a in range(1, b) if math.gcd(a, b) == 1]


@given(
    pair=st.sampled_from(_COPRIME_9),
    variant=st.sampled_from(["plus", "minus"]),
    t0=st.floats(-10.0, 10.0),
    t1=st.floats(-10.0, 10.0),
    pick=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_track_curve_equals_plain_F_scaled_property(pair, variant, t0, t1, pick):
    """The bit identity of ``TRACK_CASES`` over every coprime pair up to 9,
    both variants and windows inside [-10, 10]: one oracle pole per window,
    exceptional collisions and seeds on multiple roots included."""
    if abs(t1 - t0) < 1e-3:
        t1 = t0 + (1.0 if t0 < 0 else -1.0)
    cfg = SolitonConfig.make(*pair, variant)
    poles = oracle_poles(cfg, t=t0)
    x0, _ = poles[pick % len(poles)]
    _assert_same_as_plain_F_scaled(cfg, x0, t0, t1)


# ---------------------------------------------------------------------------
# Work counters.
# ---------------------------------------------------------------------------


def _spied(cfg):
    """The kernel's point evaluator of F behind a spy that records the
    distinct points (x, t) it is called at, counts the calls for F's value,
    records the points of the predictor's F_t calls and the relative |F_x|
    at each point."""
    ev = _F_point(cfg)
    seen = {"points": set(), "F": 0, "F_t": [], "F_x": {}}

    def spy(x, t, dx=0, dt=0):
        seen["points"].add((x, t))
        seen["F"] += (dx, dt) == (0, 0)
        if (dx, dt) == (0, 1):
            seen["F_t"].append((t, x))
        value = ev(x, t, dx, dt)
        if (dx, dt) == (1, 0):
            seen["F_x"][t, x] = value.relative()
        return value

    return spy, seen


@pytest.mark.parametrize("case", sorted(TRACK_CASES))
def test_work_counters_match_a_spy(case):
    spec, t0, t1, opts, keep = TRACK_CASES[case]
    cfg = SolitonConfig.make(*spec)
    points = detect_exceptional(cfg)["points"]
    seeds = [x for x, _ in oracle_poles(cfg, t=t0) if keep is None or keep(x)]
    rejected = 0
    for x0 in seeds:
        spy, seen = _spied(cfg)
        curve = track_zero_curve(spy, x0, t0, t1, opts, points, cfg.variant)
        assert curve.accepted == len(curve.samples) - 1
        # The predictor's F_t is formed at accepted samples only, once each,
        # however many corrector runs start from the sample.
        assert len(set(seen["F_t"])) == len(seen["F_t"]) <= curve.accepted + 1
        assert set(seen["F_t"]) <= set(curve.samples)
        # Each corrector iterate asks for F once, at a point of its own.
        assert curve.points == len(seen["points"]) == seen["F"]
        # One point per Newton iterate plus one per corrector run: the
        # seed's, and one per accepted or rejected step.
        assert curve.newton_iterations == (
            curve.points - 1 - curve.accepted - curve.rejected
        )
        # The smallest relative |F_x| over the seed and the samples.
        assert curve.min_fx_rel == min(seen["F_x"][s] for s in curve.samples)
        rejected += curve.rejected
        # The counters are no part of the curve's value.
        bare = PoleCurve(
            variant=curve.variant,
            samples=curve.samples,
            residuals=curve.residuals,
            exceptional_collision=curve.exceptional_collision,
            collision_point=curve.collision_point,
        )
        assert bare == curve
    if case == "collision":
        assert rejected > 0  # the approach halves its step


def test_retries_set_up_no_point_twice(monkeypatch):
    """A retry after a rejected corrector run reuses the accepted sample's
    predictor: the point evaluator sets up each distinct point once (one
    set-up per new (x, t)), and the samples are those recorded before the
    reuse, bit for bit."""
    spec, t0, t1, opts, keep = TRACK_CASES["collision"]
    cfg = SolitonConfig.make(*spec)
    seeds = [x for x, _ in oracle_poles(cfg, t=t0) if keep(x)]
    setups = []
    at = kernel._FPointEval._at

    def counted(self, x, t):
        setups.append((x, t))
        return at(self, x, t)

    monkeypatch.setattr(kernel._FPointEval, "_at", counted)
    digest = hashlib.sha256()
    rejected = 0
    for x0 in seeds:
        del setups[:]
        curve = track_curve(cfg, None, x0, t0, t1, opts)
        assert len(setups) == len(set(setups)) == curve.points
        rejected += curve.rejected
        digest.update(
            repr((curve.samples, curve.residuals, curve.collision_point)).encode()
        )
    assert rejected == 62
    # repr of the four curves as tracked before retries reused the
    # predictor (58 of the 1,105 set-ups then repeated an accepted point).
    assert digest.hexdigest() == (
        "362a94111cd2cae15141f4e65509a3be7fe192bcad23793482601931a360f529"
    )



# ---------------------------------------------------------------------------
# Conjugation: F has real coefficients, so conj(x(t)) is a zero curve too,
# and tracking from a conjugate seed gives the conjugate curve bit for bit.
# ---------------------------------------------------------------------------


def _same_curve(got, want):
    """repr-identical samples, residuals and collision point (repr tells
    -0.0 from 0.0), the same flag and the same work counters."""
    assert repr(got.samples) == repr(want.samples)
    assert repr(got.residuals) == repr(want.residuals)
    assert got.exceptional_collision == want.exceptional_collision
    assert repr(got.collision_point) == repr(want.collision_point)
    assert _counters(got) == _counters(want)


def _assert_conjugate_equivariant(cfg, x0, t0, t1):
    """track_curve from conj(x0) is the conjugate of track_curve from x0,
    or both raise ConvergenceError."""
    try:
        curve = track_curve(cfg, None, x0, t0, t1)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            track_curve(cfg, None, x0.conjugate(), t0, t1)
        return
    got = track_curve(cfg, None, x0.conjugate(), t0, t1)
    _same_curve(got, tracker._conjugate_curve(curve, 0))


@given(
    pair=st.sampled_from(_COPRIME_9),
    variant=st.sampled_from(["plus", "minus"]),
    t0=st.floats(-10.0, 10.0),
    t1=st.floats(-10.0, 10.0),
    pick=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_tracking_commutes_with_conjugation(pair, variant, t0, t1, pick):
    """The guarantee ``track_ensemble`` rests on, over every coprime pair up
    to 9, both variants and windows inside [-10, 10], from one oracle pole
    off the real axis."""
    if abs(t1 - t0) < 1e-3:
        t1 = t0 + (1.0 if t0 < 0 else -1.0)
    cfg = SolitonConfig.make(*pair, variant)
    poles = [x for x, _ in oracle_poles(cfg, t=t0) if x.imag != 0]
    _assert_conjugate_equivariant(cfg, poles[pick % len(poles)], t0, t1)


@given(
    spec=st.sampled_from(
        [(1.0, math.sqrt(2), "plus"), (1.0, math.sqrt(2), "minus"),
         (1.0, math.sqrt(5), "plus")]
    ),
    speed=st.sampled_from([Speed.SLOW, Speed.FAST]),
    index=st.sampled_from([-3, -1, 1, 3]),
    direction=st.sampled_from([-1, 1]),
    t1=st.floats(-10.0, 10.0),
)
@settings(max_examples=30, deadline=None)
def test_seeded_tracking_commutes_with_conjugation(spec, speed, index, direction, t1):
    """The same without the oracle: seeds from ``seed_state``, as the
    sign-law row tracks them."""
    cfg = SolitonConfig.make(*spec)
    x0, t0 = seed_state(cfg, FamilyLabel(speed, index, direction), 1e-2)
    if abs(t1 - t0) < 1e-3:
        t1 = -t0
    _assert_conjugate_equivariant(cfg, x0, t0, t1)


def _spy_track_curve(monkeypatch):
    calls = []

    def spy(cfg, variant, x, *args):
        calls.append(x)
        return track_curve(cfg, variant, x, *args)

    monkeypatch.setattr(tracker, "track_curve", spy)
    return calls


# (config, t0, t1, options, seed filter); the last tracks the four
# collision curves of TRACK_CASES["collision"] and their conjugates.
ENSEMBLE_CASES = {
    "12p": ((1, 2, "plus"), -10.0, 10.0, None, None),
    "12m": ((1, 2, "minus"), -10.0, 10.0, None, None),
    "15p": ((1, 5, "plus"), -10.0, 10.0, None, None),
    "15m": ((1, 5, "minus"), -10.0, 10.0, None, None),
    "27p": ((2, 7, "plus"), -10.0, 10.0, None, None),
    "13p": ((1, 3, "plus"), -10.0, 10.0, None, None),
    "collision": (
        (1, 5, "minus"),
        -0.01,
        0.0,
        TrackerOptions(dt_init=1e-4, collision_radius=1e-7),
        lambda x: abs(abs(x.imag) - math.pi / 2) < 0.6 and abs(x.real) < 0.6,
    ),
}


@pytest.mark.parametrize("case", sorted(ENSEMBLE_CASES))
def test_ensemble_tracks_half_and_equals_a_loop(monkeypatch, case):
    """Each seed's conjugate comes later in the oracle's list, so half the
    curves are tracked; the rest are their conjugates, and the ensemble is
    what tracking every seed gives, counters included."""
    spec, t0, t1, opts, keep = ENSEMBLE_CASES[case]
    cfg = SolitonConfig.make(*spec)
    poles = [(x, m) for x, m in oracle_poles(cfg, t=t0) if keep is None or keep(x)]
    want = [track_curve(cfg, None, x, t0, t1, opts) for x, _ in poles]
    calls = _spy_track_curve(monkeypatch)
    got = track_ensemble(cfg, t0, t1, opts, poles=poles)
    assert 2 * len(calls) == len(poles) == len(got)
    for g, w in zip(got, want):
        _same_curve(g, w)
    assert calls == [x for (x, _), c in zip(poles, got) if c.conjugate_of is None]
    for c in got:
        if c.conjugate_of is not None:
            assert got[c.conjugate_of].conjugate_of is None
    if case == "collision":
        assert all(c.exceptional_collision for c in got)
        assert {c.collision_point for c in got} == {
            1j * math.pi / 2, -1j * math.pi / 2
        }


def test_near_conjugate_and_signed_zero_seeds_are_tracked(monkeypatch):
    """A partner off by one ulp, or equal to the conjugate only up to the
    sign of a zero real part, is tracked itself: conjugating would not give
    its curve bit for bit."""
    cfg = SolitonConfig.make(1, 2, "plus")
    x = oracle_poles(cfg, t=-1.0)[0][0]
    nudged = complex(x.real, math.nextafter(-x.imag, 0.0))
    # At t = 0 a pole sits on the imaginary axis, at 2.64...j; with
    # (-0-2.64...j) it is == to its conjugate, but not bit for bit.
    (top,) = [x for x, _ in oracle_poles(cfg, t=0.0) if x.real == 0 and x.imag > 0]
    axis = [top, complex(-0.0, -top.imag)]
    assert axis[0] == axis[1].conjugate()
    for seeds, t0 in (([x, nudged], -1.0), (axis, 0.0)):
        want = [track_curve(cfg, None, s, t0, t0 + 1.0) for s in seeds]
        calls = _spy_track_curve(monkeypatch)
        got = _track_seeds(cfg, seeds, t0, t0 + 1.0, None)
        assert calls == seeds
        for g, w in zip(got, want):
            _same_curve(g, w)
            assert g.conjugate_of is None
    assert repr(got[1].samples[0][1]) != repr(got[0].samples[0][1].conjugate())


def test_ensemble_raises_the_first_failing_seed_error():
    """A seed that is no pole raises before its conjugate is reached, with
    the error a per-seed loop raises; so does a later unpaired seed."""
    cfg = SolitonConfig.make(1, 2, "plus")
    poles = [x for x, _ in oracle_poles(cfg, t=-1.0)]
    bad = 5.0 + 0.3j
    for seeds in ([bad, bad.conjugate()] + poles, poles + [bad]):
        with pytest.raises(ConvergenceError) as want:
            for s in seeds:
                track_curve(cfg, None, s, -1.0, 1.0)
        with pytest.raises(ConvergenceError) as got:
            _track_seeds(cfg, seeds, -1.0, 1.0, None)
        assert str(got.value) == str(want.value)


def test_every_oracle_pole_has_its_exact_conjugate():
    """The precondition of the halving, over the 54 census ensembles: each
    pole of the t = -10 and t = 0 snapshots is off the real axis and its
    conjugate, bit for bit, is in the same snapshot -- at t = 0 poles on
    the imaginary axis too, whose real parts are all +0.0."""
    for pair in _COPRIME_9:
        for variant in ("plus", "minus"):
            cfg = SolitonConfig.make(*pair, variant)
            for t in (-10.0, 0.0):
                poles = [x for x, _ in oracle_poles(cfg, t=t)]
                found = {repr(x) for x in poles}
                assert all(x.imag != 0 for x in poles)
                assert all(repr(x.conjugate()) in found for x in poles), (pair, variant, t)

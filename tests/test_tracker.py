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

from soliton_pole_lab import kernel
from soliton_pole_lab._balanced import balanced_sum
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
    return (curve.accepted, curve.rejected, curve.newton_iterations, curve.points)


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
    distinct points (x, t) it is called at, counts the calls for F's value
    and records the points of the predictor's F_t calls."""
    ev = _F_point(cfg)
    seen = {"points": set(), "F": 0, "F_t": []}

    def spy(x, t, dx=0, dt=0):
        seen["points"].add((x, t))
        seen["F"] += (dx, dt) == (0, 0)
        if (dx, dt) == (0, 1):
            seen["F_t"].append((t, x))
        return ev(x, t, dx, dt)

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
    exponent pair per new (x, t)), and the samples are those recorded
    before the reuse, bit for bit."""
    spec, t0, t1, opts, keep = TRACK_CASES["collision"]
    cfg = SolitonConfig.make(*spec)
    seeds = [x for x, _ in oracle_poles(cfg, t=t0) if keep(x)]
    setups = []
    w_pair = kernel._w_pair

    def counted(*args):
        setups.append(args[1:])
        return w_pair(*args)

    monkeypatch.setattr(kernel, "_w_pair", counted)
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


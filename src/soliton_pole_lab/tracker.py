"""Continuation of pole trajectories x(t) along F(x(t), t) = 0.

Poles of u move along analytic curves in the complex x-plane (implicit
function theorem on the entire function F) except at isolated collision
events that occur only in the *exceptional case*: commensurable wavenumbers
with p1, p2 both odd and p2 - p1 (Minus) or p2 + p1 (Plus) divisible by 4.
Then F(., 0) has fourth-order zeros at x = (1/2 + q) lambda pi i, four
simple poles collide there at t = 0, and locally the curves follow one of
two scaling laws:

    (x(t) - x_c)^3 / t  ->  -12          (three cube-root branches), or
    (x(t) - x_c)   / t  ->  k1^2 + k2^2  (one horizontally moving pole).

The tracker is a predictor/corrector path follower: explicit tangent
x' = -F_t / F_x as predictor, Newton in x as corrector, adaptive time step,
and a hard stop inside a small radius of a declared collision point (the
local model takes over there; continuation through a fourth-order zero is
ill-posed).  Curves on the far side are produced by the mirror symmetry
x(t) -> -conj(x(-t)), which maps zero curves to zero curves.  F has real
coefficients, so conjugation x(t) -> conj(x(t)) maps zero curves to zero
curves as well, and it commutes with every operation of the follower bit
for bit: an ensemble tracks one pole of each conjugate pair of seeds and
conjugates the curve for its partner (``_track_seeds``).

Each step evaluates F through one kernel point evaluator per curve
(``kernel._F_point``), which sets up each new point once: its exponents,
balance bases and exponentials serve every call at that point.  The
corrector returns the F_x of the point it converged to, and the predictor
of the next step reuses that accepted sample's F_x instead of evaluating
it again; its F_t at the same point reuses the exponentials the corrector
formed there.  The F_x of a corrector whose result is rejected is never
reused.  The predictor's F_t and slope are formed once per accepted
sample: a retry with a halved step after a rejected run reuses them, so
the evaluator never sets up the accepted point a second time.

Values stay the (mant, log, norm) triples the evaluator returns: the
corrector's |F| test and Newton step and the predictor's slope are formed
from the triples by ``_balanced._relative_of`` (``Scaled.relative``) and
``_balanced._quotient`` (``(a / b).value()``), so no intermediate ``Scaled``
is built and no method is called.  A ``Scaled`` is such a triple, so any F
returning ``Scaled`` values can still be followed, with the same samples.
Each curve records its work: accepted and rejected steps, Newton
iterations, distinct evaluation points and the smallest relative |F_x| it
met (see ``PoleCurve``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ._balanced import _quotient, _relative_of
from .exppoly import oracle_poles
from .kernel import (
    ConvergenceError,
    SolitonConfig,
    Variant,
    _F_point,
    _in_variant,
)

__all__ = [
    "BranchClass",
    "TrackerOptions",
    "PoleCurve",
    "BranchFit",
    "track_curve",
    "track_ensemble",
    "track_zero_curve",
    "detect_exceptional",
    "classify_branch",
    "mirror_curve",
    "position_at",
    "curve_to_csv_rows",
]


class BranchClass(Enum):
    CUBIC = "Cubic"
    LINEAR = "Linear"
    NONE = "None"


@dataclass(frozen=True)
class TrackerOptions:
    """Step-control knobs for the predictor/corrector follower.

    ``fx_min`` is calibrated so that a corrector landing |F| below
    ``newton_tol`` *because the zero is multiple* is recognized: at an
    order-m zero the converged point sits at distance ~ tol^{1/m}, where
    the relative |F_x| is ~ m * tol^{(m-1)/m} (2e-6 for a double zero,
    smaller for higher orders), while healthy simple zeros keep relative
    |F_x| many orders larger.  ``collision_radius`` is the handoff ball
    around a declared collision point; ``grace_radius`` is the looser
    neighborhood inside which step-floor and small-|F_x| events mean
    "entering the declared collision" rather than an error.
    """

    dt_init: float = 1e-3
    dt_max: float = 0.05
    dt_floor: float = 1e-9
    newton_tol: float = 1e-12  # relative |F| target of the corrector
    max_newton: int = 20
    slow_newton: int = 5  # more iterations than this halves the step
    grow: float = 1.5
    fx_drop: float = 10.0  # |F_x| falling by this factor halves the step
    fx_min: float = 3e-6  # relative |F_x| below this = near-multiple root
    collision_radius: float = 1e-3
    grace_radius: float = 2e-2
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        # Values that would stall the follower (a step that cannot advance
        # or never grows back) or end it silently (a NaN step) are refused.
        for name in ("dt_init", "dt_max", "dt_floor", "newton_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.grow >= 1:
            raise ValueError(f"grow must be at least 1, got {self.grow}")
        for name in ("max_newton", "max_steps"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass
class PoleCurve:
    """One tracked pole trajectory.

    ``samples`` is strictly monotone in t (increasing or decreasing with the
    tracking direction); ``residuals`` holds the relative |F| left by the
    corrector at each sample.  ``family`` is attached later by the
    asymptotic matcher.

    The work counters say what the follower spent on the curve: steps
    ``accepted`` (one per sample after the seed) and ``rejected`` (every
    other corrector run: a failed corrector, a near-multiple landing),
    ``newton_iterations`` over every corrector run, the seed polish
    included, and the distinct ``points`` (x, t) at which F was evaluated,
    one per Newton iterate of each run.  ``min_fx_rel`` is the smallest
    relative |F_x| over the seed and the samples, the step control's
    measure of how near the curve came to a multiple zero (``fx_min``).
    They take no part in equality and stay out of every export.  So does
    ``conjugate_of``: the index of the curve in the same ensemble whose
    conjugate this curve is, set when the curve was conjugated rather than
    tracked (its counters are then that curve's).
    """

    variant: Variant
    samples: list[tuple[float, complex]]
    residuals: list[float] = field(default_factory=list)
    family: Optional[object] = None
    exceptional_collision: bool = False
    branch_class: BranchClass = BranchClass.NONE
    collision_point: Optional[complex] = None
    accepted: int = field(default=0, compare=False)
    rejected: int = field(default=0, compare=False)
    newton_iterations: int = field(default=0, compare=False)
    points: int = field(default=0, compare=False)
    min_fx_rel: float = field(default=math.inf, compare=False)
    conjugate_of: Optional[int] = field(default=None, compare=False)

    @property
    def t_first(self) -> float:
        return self.samples[0][0]

    @property
    def t_last(self) -> float:
        return self.samples[-1][0]

    @property
    def x_last(self) -> complex:
        return self.samples[-1][1]

    def x_at_nearest(self, t: float) -> complex:
        """Sample position closest in time to t (no interpolation)."""
        return min(self.samples, key=lambda s: abs(s[0] - t))[1]


Triple = tuple[complex, float, float]
"""A value as (mant, log, norm): mant * exp(log), with the balanced 1-norm
of its terms.  A ``Scaled`` is one."""

FFun = Callable[[complex, float, int, int], Triple]
"""Signature of a trackable function: (x, t, dx, dt) -> the value as a
triple, e.g. a ``Scaled``.  The kernel's point evaluator of F
(``kernel._F_point``) is one."""


def detect_exceptional(cfg: SolitonConfig, q_values: Sequence[int] = (0, -1)) -> dict:
    """Exceptional-case arithmetic test plus the collision points.

    True iff the wavenumber ratio is rational with p1, p2 both odd and
    p2 - p1 in 4N (Minus) or p2 + p1 in 4N (Plus).  Points are
    (1/2 + q) lambda pi i for the requested q values; the default covers the
    fundamental strip (q = 0 and q = -1, i.e. +- lambda pi i / 2).
    """
    if cfg.comm is None:
        return {"is_exceptional": False, "points": []}
    p1, p2 = cfg.comm.p1, cfg.comm.p2
    if p1 % 2 == 0 or p2 % 2 == 0:
        return {"is_exceptional": False, "points": []}
    combo = p2 - p1 if cfg.variant is Variant.MINUS else p2 + p1
    if combo % 4 != 0:
        return {"is_exceptional": False, "points": []}
    lam = cfg.comm.lam
    points = [1j * (0.5 + q) * lam * math.pi for q in q_values]
    return {"is_exceptional": True, "points": points}


def _gave_up(message: str, iterations: int) -> ConvergenceError:
    """The corrector's ConvergenceError, carrying the Newton iterations it
    took (``iterations``) for the follower's work counters."""
    exc = ConvergenceError(message)
    exc.iterations = iterations
    return exc


def _newton_correct(
    F: FFun,
    x: complex,
    t: float,
    opts: TrackerOptions,
) -> tuple[complex, Triple, Triple, int]:
    """Newton in x at fixed t.  Returns (x, F, F_x, iterations), F and F_x
    the triples F returned at the returned x, after evaluating at
    iterations + 1 points.  Raises ConvergenceError when the iteration cap
    is exhausted or a step cannot be formed."""
    tol = opts.newton_tol
    for it in range(opts.max_newton):
        Fv = F(x, t, 0, 0)
        Fx = F(x, t, 1, 0)
        if _relative_of(Fv) < tol:
            return x, Fv, Fx, it
        try:
            step = _quotient(Fv, Fx)
        except (ZeroDivisionError, OverflowError) as exc:
            raise _gave_up(f"corrector diverged at t={t}, x={x}: {exc}", it) from exc
        x = x - step
    Fv = F(x, t, 0, 0)
    rel = _relative_of(Fv)
    if rel < tol:
        return x, Fv, F(x, t, 1, 0), opts.max_newton
    raise _gave_up(
        f"corrector did not converge at t={t}: relative |F|={rel:.3e}",
        opts.max_newton,
    )


def track_zero_curve(
    F: FFun,
    x_start: complex,
    t_start: float,
    t_end: float,
    opts: Optional[TrackerOptions] = None,
    collision_points: Sequence[complex] = (),
    variant: Variant = Variant.MINUS,
) -> PoleCurve:
    """Follow a zero curve of an arbitrary entire function F(x, t).

    Core engine behind ``track_curve``; usable directly for other
    meromorphic families (e.g. the one-soliton denominator).  The returned
    curve carries its work counters (see ``PoleCurve``).  A non-finite
    t_start or t_end raises ValueError, and so does a span that
    ``opts.max_steps`` steps cannot cover when no collision point is
    declared to end the curve early.
    """
    opts = opts or TrackerOptions()
    if t_end == t_start or not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise ValueError(f"need finite t_start != t_end, got {t_start} -> {t_end}")
    reach = opts.max_steps * max(opts.dt_init, opts.dt_max)
    if not collision_points and abs(t_end - t_start) > reach:
        raise ValueError(f"span {t_start} -> {t_end} exceeds the step budget's {reach}")
    sign = 1.0 if t_end > t_start else -1.0

    def nearest_declared(z: complex, radius: float) -> Optional[complex]:
        best = None
        for cp in collision_points:
            if abs(z - cp) < radius and (
                best is None or abs(z - cp) < abs(z - best)
            ):
                best = cp
        return best

    x, Fv, Fx, newton = _newton_correct(F, complex(x_start), t_start, opts)
    fx_rel = _relative_of(Fx)
    if fx_rel < opts.fx_min:
        raise ConvergenceError(
            f"near-multiple-root at the seed: relative |F_x|={fx_rel:.3e}"
        )
    min_fx = fx_rel
    samples = [(t_start, x)]
    residuals = [_relative_of(Fv)]
    curve = PoleCurve(variant=variant, samples=samples, residuals=residuals)

    def stop_at(cp: complex) -> None:
        curve.exceptional_collision = True
        curve.collision_point = cp

    def halve(step: float) -> bool:
        """Halve the step; below dt_floor stop at a declared collision
        within grace_radius (False) or raise."""
        nonlocal dt
        dt = step / 2.0
        if dt < opts.dt_floor:
            cp = nearest_declared(x, opts.grace_radius)
            if cp is None:
                raise ConvergenceError(
                    "near-multiple-root: step size underflow at "
                    f"t={t}, x={x}; last good sample kept"
                )
            stop_at(cp)
        return dt >= opts.dt_floor

    dt = opts.dt_init
    t = t_start
    prev_fx = fx_rel
    steps = 0
    slope = None  # the predictor's slope at the last accepted sample

    while sign * (t_end - t) > 0:
        steps += 1
        if steps > opts.max_steps:
            raise ConvergenceError(
                f"step budget {opts.max_steps} exhausted at t={t}"
            )
        remaining = abs(t_end - t)
        clamped = dt >= remaining
        if clamped:
            step, t_next = remaining, t_end
        else:
            step, t_next = dt, t + sign * dt
        # Predictor: x' = -F_t / F_x, with the F_x the corrector left at
        # this sample, formed once per sample and kept for retries.
        if slope is None:
            Ft = F(x, t, 0, 1)
            try:
                slope = -_quotient(Ft, Fx)
            except (ZeroDivisionError, OverflowError):
                slope = 0j
        x_pred = x + slope * sign * step
        try:
            x_new, F_new, Fx_new, iters = _newton_correct(F, x_pred, t_next, opts)
        except ConvergenceError as exc:
            newton += getattr(exc, "iterations", 0)
            if halve(step):
                continue
            break
        newton += iters
        fx_rel = _relative_of(Fx_new)
        if fx_rel < opts.fx_min:
            # The corrector converged onto a (near-)multiple zero.  A
            # clamped jump onto t_end can overshoot the approach (landing
            # directly on the collision time); retry with smaller steps so
            # samples keep resolving the scaling regime.  Otherwise, inside
            # the grace neighborhood of a declared collision point this is
            # the expected endgame; elsewhere it is a hard error.
            if clamped and step / 2.0 >= opts.dt_floor:
                dt = step / 2.0
                continue
            cp = nearest_declared(x_new, opts.grace_radius)
            if cp is None:
                raise ConvergenceError(
                    f"near-multiple-root: relative |F_x|={fx_rel:.3e} at "
                    f"t={t_next}, x={x_new} away from declared collision points"
                )
            stop_at(cp)
            break
        # Accept the sample.
        t, x, Fx, prev_fx_old = t_next, x_new, Fx_new, prev_fx
        slope = None
        prev_fx = fx_rel
        if fx_rel < min_fx:
            min_fx = fx_rel
        samples.append((t, x))
        residuals.append(_relative_of(F_new))
        cp = nearest_declared(x, opts.collision_radius)
        if cp is not None:
            stop_at(cp)
            break
        slow = iters > opts.slow_newton
        dropped = prev_fx_old > 0 and fx_rel < prev_fx_old / opts.fx_drop
        if slow or dropped:
            if not halve(step):
                break
        else:
            dt = min(step * opts.grow, opts.dt_max)
    # Each loop pass ran the corrector once; every run, the seed polish
    # too, evaluated at one point per iteration plus one.
    curve.accepted = len(samples) - 1
    curve.rejected = steps - curve.accepted
    curve.newton_iterations = newton
    curve.points = newton + 1 + steps
    curve.min_fx_rel = min_fx
    return curve


def track_curve(
    cfg: SolitonConfig,
    variant: "Variant | str | None" = None,
    x_start: complex = 0j,
    t_start: float = 0.0,
    t_end: float = 1.0,
    opts: Optional[TrackerOptions] = None,
) -> PoleCurve:
    """Track one pole of u from (x_start, t_start) to t_end.

    The seed must satisfy |F| < tolerance after one Newton polish and must
    not sit on a multiple root.  Near declared exceptional collision points
    the step control may shrink aggressively; elsewhere a vanishing F_x
    raises a near-multiple-root error.
    """
    cfg = _in_variant(cfg, variant)
    return track_zero_curve(
        _F_point(cfg),
        x_start,
        t_start,
        t_end,
        opts=opts,
        collision_points=detect_exceptional(cfg)["points"],
        variant=cfg.variant,
    )


def track_ensemble(
    cfg: SolitonConfig,
    t_start: float,
    t_end: float,
    opts: Optional[TrackerOptions] = None,
    poles: Optional[Sequence[tuple[complex, int]]] = None,
) -> list[PoleCurve]:
    """Track every pole of u from t_start to t_end: one curve per pole the
    exact oracle finds in the fundamental strip at t_start (commensurable
    configs only), in the oracle's order.  ``poles`` is that
    ``oracle_poles(cfg, t=t_start)`` snapshot, if the caller has one;
    without it one is solved.

    Poles come in exact conjugate pairs; the later pole of each pair gets
    the earlier one's curve conjugated (``conjugate_of`` names it), the
    same curve and counters that tracking it would give."""
    if poles is None:
        poles = oracle_poles(cfg, t=t_start)
    return _track_seeds(cfg, [x for x, _ in poles], t_start, t_end, opts)


def _track_seeds(
    cfg: SolitonConfig,
    seeds: Sequence[complex],
    t_start: float,
    t_end: float,
    opts: Optional[TrackerOptions],
) -> list[PoleCurve]:
    """One curve per seed, in seed order.  A seed off the real axis whose
    exact conjugate (==, with the same sign of its real part) is an earlier
    seed gets that earlier curve conjugated instead of tracked: F has real
    coefficients and tracking commutes with conjugation bit for bit.  Every
    other seed is tracked, in order, so the first failing curve raises its
    own error."""

    def key(x: complex) -> tuple[float, float, float]:
        return x.real, math.copysign(1.0, x.real), x.imag

    curves: list[PoleCurve] = []
    tracked: dict[tuple[float, float, float], int] = {}  # key -> curve index
    for x in seeds:
        j = tracked.get(key(x.conjugate())) if x.imag != 0 else None
        if j is None:
            tracked.setdefault(key(x), len(curves))
            curves.append(track_curve(cfg, None, x, t_start, t_end, opts))
        else:
            curves.append(_conjugate_curve(curves[j], j))
    return curves


def _conjugate_curve(curve: PoleCurve, index: int) -> PoleCurve:
    """The conjugate curve x(t) -> conj(x(t)) of the curve at ``index``:
    what tracking from the conjugate seed gives.  Residuals, flags and work
    counters are the original's, as in ``mirror_curve``."""
    cp = curve.collision_point
    return replace(
        curve,
        samples=[(t, x.conjugate()) for t, x in curve.samples],
        residuals=list(curve.residuals),
        collision_point=None if cp is None else cp.conjugate(),
        conjugate_of=index,
    )


@dataclass(frozen=True)
class BranchFit:
    """Outcome of the local collision-model fit."""

    branch_class: BranchClass
    limit_estimate: complex
    cubic_residual: float
    linear_residual: float


def _relative_rms(values: np.ndarray, residual: np.ndarray) -> float:
    scale = float(np.sqrt(np.mean(np.abs(values) ** 2)))
    if scale == 0.0:
        return float(np.sqrt(np.mean(np.abs(residual) ** 2)))
    return float(np.sqrt(np.mean(np.abs(residual) ** 2))) / scale


def classify_branch(curve: PoleCurve) -> BranchFit:
    """Fit the two local collision models and select by residual.

    Cubic:  x - x_c = c1 t^{1/3} + c2 t^{2/3}   (limit (x-x_c)^3/t -> c1^3)
    Linear: x - x_c = c1 t + c2 t^2             (limit (x-x_c)/t   -> c1)

    Requires a curve flagged by the tracker as entering a collision, with
    samples spanning at least two decades of |t| down to 1e-6 or less.
    Residuals within a factor 2 of each other raise a classification error
    carrying both estimates.
    """
    if not curve.exceptional_collision or curve.collision_point is None:
        raise ValueError("curve was not flagged as entering an exceptional collision")
    xc = curve.collision_point
    ts = np.array([t for t, _ in curve.samples])
    xs = np.array([x for _, x in curve.samples])
    mask = np.abs(ts) > 0
    ts, xs = ts[mask], xs[mask]
    if len(ts) < 8:
        raise ValueError("not enough samples near the collision to classify")
    tmin = np.abs(ts).min()
    if tmin > 1e-6 or np.abs(ts).max() < 100 * tmin:
        raise ValueError(
            "samples must span >= 2 decades of |t| down to <= 1e-6 "
            f"(got |t| in [{tmin:.2e}, {np.abs(ts).max():.2e}])"
        )
    # Fit on the approach window: the smallest 3 decades available (widened
    # if the sampling there is too sparse for a stable least-squares fit).
    cut = tmin * 1e3
    window = np.abs(ts) <= cut
    while int(window.sum()) < 6 and cut < np.abs(ts).max():
        cut *= 10.0
        window = np.abs(ts) <= cut
    tw, dw = ts[window], xs[window] - xc
    s = np.sign(tw) * np.abs(tw) ** (1.0 / 3.0)
    basis_cubic = np.stack([s, s**2], axis=1)
    basis_linear = np.stack([tw, tw**2], axis=1)
    sol_c, *_ = np.linalg.lstsq(basis_cubic, dw, rcond=None)
    sol_l, *_ = np.linalg.lstsq(basis_linear, dw, rcond=None)
    res_c = _relative_rms(dw, basis_cubic @ sol_c - dw)
    res_l = _relative_rms(dw, basis_linear @ sol_l - dw)
    if max(res_c, res_l) < 2.0 * min(res_c, res_l):
        raise ConvergenceError(
            "ambiguous branch classification: cubic residual "
            f"{res_c:.3e} (limit {complex(sol_c[0]) ** 3:.6g}), linear residual "
            f"{res_l:.3e} (limit {complex(sol_l[0]):.6g})"
        )
    if res_c < res_l:
        fit = BranchFit(
            branch_class=BranchClass.CUBIC,
            limit_estimate=complex(sol_c[0]) ** 3,
            cubic_residual=res_c,
            linear_residual=res_l,
        )
    else:
        fit = BranchFit(
            branch_class=BranchClass.LINEAR,
            limit_estimate=complex(sol_l[0]),
            cubic_residual=res_c,
            linear_residual=res_l,
        )
    curve.branch_class = fit.branch_class
    return fit


def position_at(
    cfg: SolitonConfig,
    curve: PoleCurve,
    t: float,
    opts: Optional[TrackerOptions] = None,
) -> complex:
    """Pole position at an interior time t, obtained by Newton-polishing the
    sample nearest in time on F of the curve's variant.  t must lie within
    (or very close to) the curve's sampled span."""
    opts = opts or TrackerOptions()
    lo = min(curve.t_first, curve.t_last)
    hi = max(curve.t_first, curve.t_last)
    slack = 2 * opts.dt_max
    if not (lo - slack <= t <= hi + slack):
        raise ValueError(f"t={t} outside the curve's span [{lo}, {hi}]")
    F = _F_point(cfg.with_variant(curve.variant))
    x, _, _, _ = _newton_correct(F, curve.x_at_nearest(t), t, opts)
    return x


def mirror_curve(curve: PoleCurve) -> PoleCurve:
    """The time-reflected curve t -> -conj(x(-t)), also a zero curve of F.

    Sample order is reversed so the result stays monotone in t; applying
    the mirror twice returns the original samples.  The family label is
    dropped; every other field, the work counters included, is the
    original's: the same samples, found by the same work.
    """
    cp = curve.collision_point
    return replace(
        curve,
        samples=[(-t, -x.conjugate()) for t, x in reversed(curve.samples)],
        residuals=list(reversed(curve.residuals)),
        family=None,
        collision_point=None if cp is None else -cp.conjugate(),
    )


def curve_to_csv_rows(curve: PoleCurve) -> list[tuple[float, float, float, float, str]]:
    """Rows (t, re_x, im_x, abs_F, flags) for CSV export; abs_F is the
    relative |F| certified by the corrector at that sample."""
    flags = []
    if curve.exceptional_collision:
        flags.append("exceptional_collision")
    if curve.branch_class is not BranchClass.NONE:
        flags.append(f"branch={curve.branch_class.value}")
    flag_str = ";".join(flags)
    rows = []
    for (t, x), rel in zip(curve.samples, curve.residuals):
        rows.append((t, x.real, x.imag, rel, flag_str))
    return rows

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

Each curve holds one kernel point evaluator of F (``kernel._FPointEval``),
and the corrector, ``_newton_correct``, makes one call per Newton iterate:
``point(x, t)`` sets the point up and returns F and F_x there as flat
values, F's relative size, mantissa and log and F_x's mantissa, log and
norm.  The |F| test, the Newton step F / F_x (``(F / F_x).value()``'s
float steps) and the relative |F_x| of the converged point are formed from
them without building a ``Scaled``.  The predictor's slope -F_t / F_x at
an accepted sample takes the F_x the corrector converged with there and
F_t from ``F_t(x, t)``, which reuses the exponentials of that point's
set-up and forms F_t's mantissa and log only.  The slope is formed once
per accepted sample: a retry with a halved step after a rejected run
reuses it, so no point is set up twice.  The F_x of a rejected corrector
run is never reused.

``track_zero_curve`` also follows a plain F(x, t, dx, dt) returning
(mant, log, norm) triples, e.g. ``Scaled`` values: ``_PlainPoint`` adapts
it at entry to the evaluator's two calls, and the loop and the corrector
are the same, with the same samples for the same values.

Each curve records its work: accepted and rejected steps, Newton
iterations, distinct evaluation points and the smallest relative |F_x| it
met (see ``PoleCurve``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ._balanced import _relative_of, _unscale
from .exppoly import oracle_poles
from .kernel import (
    ConvergenceError,
    SolitonConfig,
    Variant,
    _FPointEval,
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


# Step control of the follower.  A step is halved when the corrector fails
# (it takes at most MAX_NEWTON iterations), takes more than SLOW_NEWTON
# iterations, or sees the relative |F_x| fall by more than a factor FX_DROP
# from the last sample; otherwise it grows by GROW, up to
# TrackerOptions.dt_max.  A step halved below DT_FLOOR cannot advance.
DT_FLOOR = 1e-9
MAX_NEWTON = 20
SLOW_NEWTON = 5
GROW = 1.5
FX_DROP = 10.0
# Relative |F_x| below FX_MIN marks a near-multiple root.  It is set so that
# a corrector landing |F| below newton_tol *because the zero is multiple* is
# recognized: at an order-m zero the converged point sits at distance
# ~ tol^{1/m}, where the relative |F_x| is ~ m * tol^{(m-1)/m} (2e-6 for a
# double zero, smaller for higher orders), while healthy simple zeros keep
# relative |F_x| many orders larger.
FX_MIN = 3e-6
# Inside GRACE_RADIUS of a declared collision point, a step below DT_FLOOR
# or a relative |F_x| below FX_MIN means "entering the declared collision"
# and ends the curve there, rather than raising.
GRACE_RADIUS = 2e-2


@dataclass(frozen=True)
class TrackerOptions:
    """Settings of the predictor/corrector follower.

    ``newton_tol`` is the corrector's relative |F| target.  The step starts
    at ``dt_init`` and never exceeds ``dt_max``; ``max_steps`` bounds the
    corrector runs per curve.  ``collision_radius`` is the handoff ball
    around a declared collision point: an accepted sample inside it ends
    the curve.  The fixed step control is in the module constants above.
    """

    dt_init: float = 1e-3
    dt_max: float = 0.05
    newton_tol: float = 1e-12
    collision_radius: float = 1e-3
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        # Values that would stall the follower (a step that cannot advance)
        # or end it silently (a NaN step, a collision stop that never or
        # always fires) are refused.
        for name in ("dt_init", "dt_max", "newton_tol", "collision_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")


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
    measure of how near the curve came to a multiple zero (``FX_MIN``).
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
        """Position of the first sample nearest in t (sample times are monotone)."""
        s = self.samples
        d = 1.0 if s[-1][0] >= s[0][0] else -1.0
        i = min(bisect.bisect_left(s, d * t, key=lambda p: d * p[0]), len(s) - 1)
        while i > 0 and abs(s[i - 1][0] - t) <= abs(s[i][0] - t):
            i -= 1
        return s[i][1]


Triple = tuple[complex, float, float]
"""A value as (mant, log, norm): mant * exp(log), with the balanced 1-norm
of its terms.  A ``Scaled`` is one."""

FFun = Callable[[complex, float, int, int], Triple]
"""Signature of a trackable function: (x, t, dx, dt) -> the value as a
triple, e.g. a ``Scaled``."""


class _PlainPoint:
    """A trackable function F seen as a point evaluator: the ``point`` and
    ``F_t`` of ``kernel._FPointEval``, from the triples F returns."""

    __slots__ = ("F",)

    def __init__(self, F: FFun) -> None:
        self.F = F

    def point(self, x: complex, t: float) -> tuple:
        m, lg, n = self.F(x, t, 0, 0)
        mx, lgx, nx = self.F(x, t, 1, 0)
        return _relative_of((m, lg, n)), m, lg, mx, lgx, nx

    def F_t(self, x: complex, t: float) -> tuple[complex, float]:
        m, lg, _ = self.F(x, t, 0, 1)
        return m, lg


def detect_exceptional(cfg: SolitonConfig) -> dict:
    """Exceptional-case arithmetic test plus the collision points.

    True iff the wavenumber ratio is rational with p1, p2 both odd and
    p2 - p1 in 4N (Minus) or p2 + p1 in 4N (Plus).  Points are
    (1/2 + q) lambda pi i for q = 0 and q = -1, i.e. +- lambda pi i / 2,
    the collision points of the fundamental strip.
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
    points = [1j * (0.5 + q) * lam * math.pi for q in (0, -1)]
    return {"is_exceptional": True, "points": points}


def _gave_up(message: str, iterations: int) -> ConvergenceError:
    """The corrector's ConvergenceError, carrying the Newton iterations it
    took (``iterations``) for the follower's work counters."""
    exc = ConvergenceError(message)
    exc.iterations = iterations
    return exc


def _newton_correct(
    ev: _FPointEval | _PlainPoint,
    x: complex,
    t: float,
    tol: float,
) -> tuple[complex, float, complex, float, float, int]:
    """Newton in x at fixed t on a point evaluator of F
    (``kernel._FPointEval``, or a plain F in ``_PlainPoint``), one
    ``point`` call per iterate, until F's relative size is below tol.
    Returns (x, F_rel, F_x_mant, F_x_log, F_x_rel, iterations): F's and
    F_x's relative sizes and F_x's mantissa and log at the returned x,
    after evaluating at iterations + 1 points.  Raises ConvergenceError when
    the iteration cap is exhausted or a step cannot be formed."""
    point = ev.point
    for it in range(MAX_NEWTON + 1):
        rel, m, lg, mx, lgx, nx = point(x, t)
        if rel < tol:
            return x, rel, mx, lgx, (abs(mx) / nx if nx else abs(mx)), it
        if it == MAX_NEWTON:
            break
        # The step F / F_x, as (F / F_x).value() forms it.
        try:
            if mx == 0:
                raise ZeroDivisionError("scaled division by zero mantissa")
            x = x - _unscale(m / mx, lg - lgx)
        except (ZeroDivisionError, OverflowError) as exc:
            raise _gave_up(f"corrector diverged at t={t}, x={x}: {exc}", it) from exc
    raise _gave_up(
        f"corrector did not converge at t={t}: relative |F|={rel:.3e}",
        MAX_NEWTON,
    )


def track_zero_curve(
    F: FFun | _FPointEval,
    x_start: complex,
    t_start: float,
    t_end: float,
    opts: Optional[TrackerOptions] = None,
    collision_points: Sequence[complex] = (),
    variant: Variant = Variant.MINUS,
) -> PoleCurve:
    """Follow a zero curve of an arbitrary entire function F(x, t).

    Core engine behind ``track_curve``, which passes the kernel's point
    evaluator of F as ``F``; usable directly for other meromorphic families
    (e.g. the one-soliton denominator).  The returned curve carries its
    work counters (see ``PoleCurve``).  A non-finite t_start or t_end
    raises ValueError, and so does a span that ``opts.max_steps`` steps
    cannot cover when no collision point is declared to end the curve
    early.
    """
    opts = opts or TrackerOptions()
    if t_end == t_start or not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise ValueError(f"need finite t_start != t_end, got {t_start} -> {t_end}")
    reach = opts.max_steps * opts.dt_max
    if not collision_points and abs(t_end - t_start) > reach:
        raise ValueError(f"span {t_start} -> {t_end} exceeds the step budget's {reach}")
    sign = 1.0 if t_end > t_start else -1.0
    ev = F if hasattr(F, "point") else _PlainPoint(F)
    F_t = ev.F_t

    def nearest_declared(z: complex, radius: float) -> Optional[complex]:
        best = None
        for cp in collision_points:
            if abs(z - cp) < radius and (
                best is None or abs(z - cp) < abs(z - best)
            ):
                best = cp
        return best

    x, res, fx_m, fx_lg, fx_rel, newton = _newton_correct(
        ev, complex(x_start), t_start, opts.newton_tol
    )
    if fx_rel < FX_MIN:
        raise ConvergenceError(
            f"near-multiple-root at the seed: relative |F_x|={fx_rel:.3e}"
        )
    min_fx = fx_rel
    samples = [(t_start, x)]
    residuals = [res]
    curve = PoleCurve(variant=variant, samples=samples, residuals=residuals)

    def stop_at(cp: complex) -> None:
        curve.exceptional_collision = True
        curve.collision_point = cp

    def halve(step: float) -> bool:
        """Halve the step; below DT_FLOOR stop at a declared collision
        within GRACE_RADIUS (False) or raise."""
        nonlocal dt
        dt = step / 2.0
        if dt < DT_FLOOR:
            cp = nearest_declared(x, GRACE_RADIUS)
            if cp is None:
                raise ConvergenceError(
                    "near-multiple-root: step size underflow at "
                    f"t={t}, x={x}; last good sample kept"
                )
            stop_at(cp)
        return dt >= DT_FLOOR

    dt = min(opts.dt_init, opts.dt_max)
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
        # this sample and F_t from the exponentials it set up there,
        # formed once per sample and kept for retries.
        if slope is None:
            ft_m, ft_lg = F_t(x, t)
            try:
                if fx_m == 0:
                    raise ZeroDivisionError
                slope = -_unscale(ft_m / fx_m, ft_lg - fx_lg)
            except (ZeroDivisionError, OverflowError):
                slope = 0j
        try:
            x_new, res, fx_m_new, fx_lg_new, fx_rel, iters = _newton_correct(
                ev, x + slope * sign * step, t_next, opts.newton_tol
            )
        except ConvergenceError as exc:
            newton += getattr(exc, "iterations", 0)
            if halve(step):
                continue
            break
        newton += iters
        if fx_rel < FX_MIN:
            # The corrector converged onto a (near-)multiple zero.  A
            # clamped jump onto t_end can overshoot the approach (landing
            # directly on the collision time); retry with smaller steps so
            # samples keep resolving the scaling regime.  Otherwise, inside
            # the grace neighborhood of a declared collision point this is
            # the expected endgame; elsewhere it is a hard error.
            if clamped and step / 2.0 >= DT_FLOOR:
                dt = step / 2.0
                continue
            cp = nearest_declared(x_new, GRACE_RADIUS)
            if cp is None:
                raise ConvergenceError(
                    f"near-multiple-root: relative |F_x|={fx_rel:.3e} at "
                    f"t={t_next}, x={x_new} away from declared collision points"
                )
            stop_at(cp)
            break
        # Accept the sample.
        t, x, fx_m, fx_lg = t_next, x_new, fx_m_new, fx_lg_new
        slope = None
        dropped = prev_fx > 0 and fx_rel < prev_fx / FX_DROP
        prev_fx = fx_rel
        if fx_rel < min_fx:
            min_fx = fx_rel
        samples.append((t, x))
        residuals.append(res)
        cp = nearest_declared(x, opts.collision_radius)
        if cp is not None:
            stop_at(cp)
            break
        if iters > SLOW_NEWTON or dropped:
            if not halve(step):
                break
        else:
            dt = min(step * GROW, opts.dt_max)
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
    raises a near-multiple-root error.  The curve is tracked in the
    config's variant; ``variant`` is a positional slot that must be None
    (pass ``cfg.with_variant(v)`` for the other variant).
    """
    if variant is not None:
        raise ValueError("track_curve reads the variant from cfg; pass cfg.with_variant(v)")
    return track_zero_curve(
        _FPointEval(cfg),
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


def position_at(cfg: SolitonConfig, curve: PoleCurve, t: float) -> complex:
    """Pole position at an interior time t, obtained by Newton-polishing the
    sample nearest in time on F of the curve's variant.  t must lie within
    (or very close to) the curve's sampled span."""
    lo = min(curve.t_first, curve.t_last)
    hi = max(curve.t_first, curve.t_last)
    slack = 2 * TrackerOptions.dt_max
    if not (lo - slack <= t <= hi + slack):
        raise ValueError(f"t={t} outside the curve's span [{lo}, {hi}]")
    ev = _FPointEval(cfg.with_variant(curve.variant))
    return _newton_correct(ev, curve.x_at_nearest(t), t, TrackerOptions.newton_tol)[0]


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

"""Finite-time blowup of real-line restrictions u(x - i alpha, t).

Shifting the evaluation line vertically by -i alpha turns the meromorphic
two-soliton field into a smooth, exponentially decaying complex-valued
solution on R -- until a pole curve x(t) crosses the line, i.e. until
Im x(t) = -alpha at some time t_star.  Near a transversal crossing the
solution is a simple pole sweeping through the line,

    u(x - i alpha, t) ~ residue / (x - i alpha - x_pole(t)),

so the sup norm grows like |residue| / (|Im x'(t_star)| |t - t_star|):
exponent -1 in |t - t_star| and amplitude 1/|Im x'| (every residue has
unit modulus).  ``find_crossing`` locates t_star on a tracked curve,
``choose_alpha`` picks a line that starts strictly between pole
ordinates, ``blowup_profile`` measures sup-norm ladders on adaptively
refined grids, and ``fit_blowup_rate`` recovers the rate by weighted
least squares in log-log coordinates.

Splitting u = r + i s turns the scalar field equation
u_t + 6 u^2 u_x + u_xxx = 0 into the real coupled system

    r_t + r_xxx + 6 (r^2 - s^2) r_x - 12 r s s_x = 0,
    s_t + s_xxx + 6 (r^2 - s^2) s_x + 12 r s r_x = 0,

(the cross-term coefficient is 12 = 6 * 2, from the imaginary part of
6 u^2 u_x); ``coupled_system_residual`` verifies both equations by
finite differences along the shifted line, and can evaluate the variant
with cross coefficient 2 side by side to document that only the
coefficient-12 system is solved by the field.

The config carries the sign variant, so a scenario profiles the config's
field: ``find_crossing`` refuses a curve of the other variant, since its
crossing speed would be measured on a field the curve does not belong to.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._balanced import complex_array
from .kernel import (
    ConvergenceError,
    F_scaled,
    SolitonConfig,
    _record_dict,
    _u_or_raise,
    _u_or_raise_grid,
    strip_scale,
)
# track_curve stays importable from here: perfbench/tests uses
# blowup.track_curve to check that names imported across modules are traced.
from .tracker import (  # noqa: F401
    PoleCurve,
    position_at,
    track_curve,
    track_ensemble,
)

__all__ = [
    "Crossing",
    "GridSpec",
    "ProfileSample",
    "BlowupScenario",
    "RateFit",
    "find_crossing",
    "choose_alpha",
    "build_scenario",
    "blowup_profile",
    "fit_blowup_rate",
    "coupled_system_residual",
]

# A crossing with |Im x'(t_star)| below this counts as tangential: the
# line is grazed, not swept, and the simple-pole rate model does not
# apply (horizontally moving poles sit exactly on their line).
TRANSVERSAL_MIN = 1e-8
# find_crossing refines its bracket to this width in t.
_CROSSING_TOL = 1e-12
# fit_blowup_rate refuses a power-law fit with R^2 below this.
_MIN_R2 = 0.99

# The |t - t_star| ladder of a blowup profile series: a hair over two
# decades, because ``fit_blowup_rate`` recomputes |t - t_star| from the
# rounded profile times, and a ladder spanning exactly 100x can land at
# 99.99...x when |t_star| is not small.
_DELTA_LADDER = (1e-2, 3e-3, 1e-3, 3e-4, 8e-5)


# ---------------------------------------------------------------------------
# Crossing detection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    """A time at which a pole curve meets the line Im x = -alpha."""

    t_star: float
    x_star: complex
    vertical_speed: float
    transversal: bool

    def to_dict(self) -> dict:
        return _record_dict(self)


def _im_velocity(cfg: SolitonConfig, x: complex, t: float) -> float:
    Ft = F_scaled(cfg, x, t, dt=1)
    Fx = F_scaled(cfg, x, t, dx=1)
    return (-Ft.ratio(Fx)).imag


def find_crossing(
    cfg: SolitonConfig,
    curve: PoleCurve,
    alpha: float,
) -> Crossing:
    """Solve Im x(t) = -alpha on a tracked curve.

    The sampled polyline, read in increasing t whichever way the curve
    was tracked, provides the bracket; the root is refined by bisection
    with secant acceleration, re-polishing the pole position at every
    probe time, until the bracket width falls below _CROSSING_TOL.
    Raises ValueError when Im x + alpha never changes sign along the
    samples, and when the curve's variant is not the config's: the
    crossing speed is measured on the config's field.  A root with
    |Im x'(t_star)| < 1e-8 is flagged as tangential (transversal=False),
    not silently accepted.
    """
    if curve.variant is not cfg.variant:
        raise ValueError(
            f"the curve is a {curve.variant.value}-variant pole curve but "
            f"the config is the {cfg.variant.value} variant"
        )
    samples = sorted(curve.samples, key=lambda s: s[0])
    if len(samples) < 2:
        raise ValueError("curve must carry at least two samples")

    def g(t: float) -> tuple[float, complex]:
        x = position_at(cfg, curve, t)
        return x.imag + alpha, x

    bracket = None
    for (ta, xa), (tb, xb) in zip(samples, samples[1:]):
        ga, gb = xa.imag + alpha, xb.imag + alpha
        if ga == 0.0:
            bracket = (ta, ta)
            break
        if ga * gb < 0.0:
            bracket = (ta, tb)
            break
    else:
        if samples[-1][1].imag + alpha == 0.0:
            bracket = (samples[-1][0], samples[-1][0])
    if bracket is None:
        lo = min(x.imag for _, x in samples)
        hi = max(x.imag for _, x in samples)
        raise ValueError(
            f"Im x + alpha has no sign change: alpha={alpha} but the curve "
            f"spans Im x in [{lo:.6f}, {hi:.6f}]"
        )
    a, b = bracket
    if a == b:
        t_root = a
        x_root = position_at(cfg, curve, a)
    else:
        ga, xa = g(a)
        gb, xb = g(b)
        while b - a > _CROSSING_TOL:
            # Secant proposal, falling back to the midpoint whenever it
            # leaves the bracket or stalls.
            t_new = b - gb * (b - a) / (gb - ga) if gb != ga else 0.5 * (a + b)
            margin = 0.01 * (b - a)
            if not (a + margin <= t_new <= b - margin):
                t_new = 0.5 * (a + b)
            g_new, x_new = g(t_new)
            if g_new == 0.0:
                a = b = t_new
                xa = xb = x_new
                break
            if (g_new > 0) == (ga > 0):
                a, ga, xa = t_new, g_new, x_new
            else:
                b, gb, xb = t_new, g_new, x_new
        t_root = 0.5 * (a + b)
        x_root = position_at(cfg, curve, t_root)
    speed = _im_velocity(cfg, x_root, t_root)
    return Crossing(t_root, x_root, speed, abs(speed) >= TRANSVERSAL_MIN)


def choose_alpha(
    cfg: SolitonConfig,
    curves: Sequence[PoleCurve],
) -> tuple[float, int]:
    """Pick (alpha, curve_index) giving a clean transversal crossing.

    The candidate levels are midpoints between consecutive pole
    ordinates at the seed time (the first sample of every curve), so
    the shifted line starts pole-free; among curves whose Im range
    sweeps across such a midpoint, the one with the widest sweep wins.
    Raises ValueError when no curve crosses any midpoint.
    """
    if not curves:
        raise ValueError("at least one tracked curve is required")
    ordinates = sorted(c.samples[0][1].imag for c in curves)
    mids = [
        0.5 * (lo + hi)
        for lo, hi in zip(ordinates, ordinates[1:])
        if hi - lo > 1e-6
    ]
    best: Optional[tuple[float, float, int]] = None  # (sweep, mid, index)
    for idx, curve in enumerate(curves):
        ims = [x.imag for _, x in curve.samples]
        lo, hi = min(ims), max(ims)
        for mid in mids:
            if lo + 1e-9 < mid < hi - 1e-9:
                sweep = min(hi - mid, mid - lo)
                if best is None or sweep > best[0]:
                    best = (sweep, mid, idx)
    if best is None:
        raise ValueError(
            "no tracked curve sweeps across a midpoint between seed-time "
            "pole ordinates"
        )
    return -best[1], best[2]


# ---------------------------------------------------------------------------
# Scenario assembly.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Real-axis sampling policy for sup-norm profiles.

    Only the base grid step, spacing, is set (strip_scale/64 in
    ``build_scenario``); the other fields are the fixed policy, kept so
    the scenario's JSON reports it.  The base grid spans max(8/k1, 4)
    either side of the crossing abscissa (span None) and widens until the
    boundary values fall below boundary_tol * peak.  Local refinements
    around the running argmax then shrink the step by `factor`, at least
    `levels` times and on while the measured peak still improves by more
    than 0.01% per level (auto_deepen, hard cap 24): very close to t_star
    the peak narrows like |Im x'| * |t - t_star|, far below a fixed-depth
    resolution, and an under-resolved sup would corrupt the rate fit.
    """

    spacing: float
    levels: int = field(default=3, init=False)
    factor: int = field(default=8, init=False)
    span: Optional[float] = field(default=None, init=False)
    boundary_tol: float = field(default=1e-8, init=False)
    auto_deepen: bool = field(default=True, init=False)

    def to_dict(self) -> dict:
        return _record_dict(self)


@dataclass(frozen=True)
class ProfileSample:
    """One sup-norm measurement on the shifted line."""

    t: float
    sup_abs: float
    argmax: float
    tail_rate_left: float
    tail_rate_right: float

    def to_dict(self) -> dict:
        return _record_dict(self)


@dataclass
class BlowupScenario:
    """A concrete blowing-up restriction u(x - i alpha, t).

    The crossing pole satisfies Im x(t_star) = -alpha to root-finding
    tolerance; series holds ProfileSamples at times != t_star.
    """

    cfg: SolitonConfig
    alpha: float
    crossing_pole: PoleCurve
    crossing: Crossing
    grid: GridSpec
    series: list[ProfileSample] = field(default_factory=list)

    @property
    def t_star(self) -> float:
        return self.crossing.t_star

    def header_dict(self) -> dict:
        return {
            "k1": self.cfg.k1,
            "k2": self.cfg.k2,
            "variant": self.cfg.variant.value,
            "x1": self.cfg.x1,
            "x2": self.cfg.x2,
            "alpha": self.alpha,
            "t_star": self.crossing.t_star,
            "vertical_speed": self.crossing.vertical_speed,
            "transversal": self.crossing.transversal,
            "grid": self.grid.to_dict(),
        }


def build_scenario(
    cfg: SolitonConfig,
    curves: Optional[Sequence[PoleCurve]] = None,
    alpha: Optional[float] = None,
    t_span: float = 6.0,
) -> BlowupScenario:
    """Assemble a blowup scenario with a verified transversal crossing.

    Without explicit curves, the exact commensurable oracle seeds one
    curve per pole at t = -t_span and tracks them to +t_span (ValueError
    unless t_span > 0).  Without an explicit alpha, ``choose_alpha`` picks
    the line.  The scenario's crossing is guaranteed transversal;
    tangential candidates raise ConvergenceError.  Its profiles sample on
    GridSpec(strip_scale/64).
    """
    if curves is None:
        if not t_span > 0:
            raise ValueError(f"t_span must be positive, got {t_span}")
        curves = track_ensemble(cfg, -t_span, t_span)
    if alpha is None:
        alpha, idx = choose_alpha(cfg, curves)
        candidates = [curves[idx]]
    else:
        candidates = list(curves)
    last_err: Optional[Exception] = None
    for curve in candidates:
        try:
            crossing = find_crossing(cfg, curve, alpha)
        except ValueError as exc:
            last_err = exc
            continue
        if not crossing.transversal:
            last_err = ConvergenceError(
                f"crossing at t={crossing.t_star} is tangential "
                f"(|Im x'| = {abs(crossing.vertical_speed):.3e})"
            )
            continue
        grid = GridSpec(spacing=strip_scale(cfg) / 64.0)
        return BlowupScenario(cfg, alpha, curve, crossing, grid)
    raise (
        last_err
        if last_err is not None
        else ValueError("no curve available for a crossing")
    )


# ---------------------------------------------------------------------------
# Sup-norm profiles.
# ---------------------------------------------------------------------------


def _tail_rate(xs: Sequence[float], vals: Sequence[float]) -> float:
    """Exponential decay rate fitted on log|u| over a tail window."""
    pts = [
        (x, math.log(v)) for x, v in zip(xs, vals) if v > 1e-250
    ]
    if len(pts) < 3:
        return math.nan
    slope, _ = statistics.linear_regression([p[0] for p in pts], [p[1] for p in pts])
    return abs(slope)


def _abs_u_on_line(
    cfg: SolitonConfig, xs: list[float], alpha: float, t: float
) -> list[float]:
    """|u(x - i alpha, t)| at each x; PoleError at the first pole."""
    u = _u_or_raise_grid(cfg, complex_array(xs, -alpha), t)
    return np.hypot(u.real, u.imag).tolist()


def _profile_at(
    cfg: SolitonConfig,
    alpha: float,
    center: float,
    t: float,
    grid: GridSpec,
) -> ProfileSample:
    spacing = grid.spacing
    span = max(8.0 / cfg.k1, 4.0)
    for _ in range(40):
        n = max(3, int(2 * span / spacing) + 1)
        xs = (center - span + 2 * span * np.arange(n) / (n - 1)).tolist()
        vals = _abs_u_on_line(cfg, xs, alpha, t)
        peak_i = max(range(n), key=vals.__getitem__)
        peak, arg = vals[peak_i], xs[peak_i]
        if max(vals[0], vals[-1]) <= grid.boundary_tol * peak:
            break
        span *= 1.6
    else:
        raise ConvergenceError(f"profile grid failed to localize u at t={t}")
    # Local refinement around the argmax; keep deepening while the peak
    # estimate still moves (the peak narrows without bound near t_star).
    step = 2 * span / (n - 1)
    for level in range(1, 25):
        lo = arg - step
        m = 2 * grid.factor + 1
        fx = (lo + 2 * step * np.arange(m) / (m - 1)).tolist()
        fv = _abs_u_on_line(cfg, fx, alpha, t)
        best = max(range(m), key=fv.__getitem__)
        gain = fv[best] / peak - 1.0
        if fv[best] > peak:
            peak, arg = fv[best], fx[best]
        step = step / grid.factor
        if level >= grid.levels and gain < 1e-4:
            break
    # Tail rates from the outer thirds of the base grid.
    third = n // 3
    rate_l = _tail_rate(xs[:third], vals[:third])
    rate_r = _tail_rate(xs[-third:], vals[-third:])
    return ProfileSample(t, peak, arg, rate_l, rate_r)


def blowup_profile(
    scenario: BlowupScenario, times: Sequence[float]
) -> list[ProfileSample]:
    """Sup-norm measurements at the given times (appended to the series).

    Each profile centers its grid on the crossing pole's real part at
    that time (extrapolated from the tracked curve), refines around the
    argmax, and verifies the boundary is negligible.  Times equal to
    t_star are rejected.
    """
    cfg = scenario.cfg
    out: list[ProfileSample] = []
    for t in times:
        if t == scenario.t_star:
            raise ValueError("profile times must exclude t_star itself")
        try:
            center = position_at(cfg, scenario.crossing_pole, t).real
        except (ValueError, ConvergenceError):
            center = scenario.crossing.x_star.real
        out.append(_profile_at(cfg, scenario.alpha, center, t, scenario.grid))
    scenario.series.extend(out)
    return out


# ---------------------------------------------------------------------------
# Rate fit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Power-law fit sup|u| = amplitude * |t - t_star|^exponent."""

    exponent: float
    amplitude: float
    r_squared: float
    predicted_amplitude: float

    @property
    def amplitude_ratio(self) -> float:
        return self.amplitude / self.predicted_amplitude

    def to_dict(self) -> dict:
        return _record_dict(self, amplitude_ratio=self.amplitude_ratio)


def fit_blowup_rate(
    scenario: BlowupScenario,
    series: Optional[Sequence[ProfileSample]] = None,
) -> RateFit:
    """Least-squares slope of log sup|u| against log|t - t_star|.

    Requires at least 4 samples spanning at least two decades of
    |t - t_star|.  The simple-pole model predicts exponent -1 and
    amplitude |residue| / |Im x'(t_star)| = 1/|Im x'|.  A fit with
    R^2 below _MIN_R2 raises ConvergenceError.
    """
    pts = list(scenario.series if series is None else series)
    if len(pts) < 4:
        raise ValueError("need at least 4 profile samples to fit a rate")
    dts = [abs(p.t - scenario.t_star) for p in pts]
    if max(dts) < 100.0 * min(dts):
        raise ValueError(
            "profile times must span at least two decades of |t - t_star|"
        )
    lx = [math.log(d) for d in dts]
    ly = [math.log(p.sup_abs) for p in pts]
    slope, intercept = statistics.linear_regression(lx, ly)
    mean_y = math.fsum(ly) / len(ly)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly))
    ss_tot = math.fsum((y - mean_y) ** 2 for y in ly)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    predicted = 1.0 / abs(scenario.crossing.vertical_speed)
    fit = RateFit(slope, math.exp(intercept), r2, predicted)
    if r2 < _MIN_R2:
        raise ConvergenceError(
            f"poor power-law fit: R^2 = {r2:.4f} < {_MIN_R2}"
        )
    return fit


# ---------------------------------------------------------------------------
# The coupled real system.
# ---------------------------------------------------------------------------


def coupled_system_residual(
    cfg: SolitonConfig,
    alpha: float,
    x: float,
    t: float,
    h: float = 1e-3,
    cross_coeff: float = 12.0,
) -> tuple[float, float]:
    """Finite-difference residuals of the coupled real system at (x, t).

    With r = Re u, s = Im u on the shifted line, returns

        res_r = r_t + r_xxx + 6 (r^2 - s^2) r_x - cross_coeff * r s s_x,
        res_s = s_t + s_xxx + 6 (r^2 - s^2) s_x + cross_coeff * r s r_x,

    using centered O(h^2) stencils.  The field solves the system with
    cross_coeff = 12 (the imaginary part of 6 u^2 u_x contributes
    2 * 6 r s); evaluating with cross_coeff = 2 documents, side by
    side, that the halved cross term is not satisfied.  Raises
    PoleError when the stencil touches a pole.
    """

    def u_at(xx: float, tt: float) -> complex:
        return _u_or_raise(cfg, complex(xx, -alpha), tt)

    u0 = u_at(x, t)
    up1, um1 = u_at(x + h, t), u_at(x - h, t)
    up2, um2 = u_at(x + 2 * h, t), u_at(x - 2 * h, t)
    ut = (u_at(x, t + h) - u_at(x, t - h)) / (2 * h)
    ux = (up1 - um1) / (2 * h)
    uxxx = (up2 - 2 * up1 + 2 * um1 - um2) / (2 * h**3)
    r, s = u0.real, u0.imag
    res_r = (
        ut.real
        + uxxx.real
        + 6 * (r * r - s * s) * ux.real
        - cross_coeff * r * s * ux.imag
    )
    res_s = (
        ut.imag
        + uxxx.imag
        + 6 * (r * r - s * s) * ux.imag
        + cross_coeff * r * s * ux.real
    )
    return res_r, res_s

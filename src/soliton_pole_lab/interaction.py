"""Diagnostics of the two-soliton field at the interaction point.

With zero shifts the interaction is centered at the origin, and the
field's local shape there is governed by closed forms in (k1, k2):

    plus variant:   u_xx(0,0) = -(k2 - k1) (k1^2 - 3 k1 k2 + k2^2),
    minus variant:  u_xx(0,0) = -(k2 + k1) (k1^2 + 3 k1 k2 + k2^2).

The minus value is negative for all 0 < k1 < k2 (a centered local
maximum), while the plus value changes sign at k2/k1 = (3 + sqrt 5)/2:
below that ratio the center is a local minimum flanked by two
symmetric maxima, above it the maxima have merged into one centered
peak.  Tracking the extremum path y(t) through the interaction and
differentiating u_x(y(t), t) = 0 gives the extremum speed

    y'(0) = -u_xt(0,0) / u_xx(0,0),

again in closed form: a reciprocal quartic over the quadratic whose
root is the same critical ratio (the plus speed is singular exactly
where the centered extremum degenerates).  Everything here is measured
twice -- closed form and Richardson-extrapolated centered finite
differences of the field -- and local maxima of u(., 0)
are counted by sign changes of a centered first difference, refined by
Newton iteration on the closed-form u_x.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .kernel import (
    SolitonConfig,
    Variant,
    _u_or_raise,
    _u_or_raise_grid,
    eval_u_x,
    eval_u_x_grid,
    eval_u_xx,
    strip_scale,
)

__all__ = [
    "uxx_at_center",
    "extremum_speed",
    "measure_extremum_speed",
    "measure_uxx_at_center",
    "find_maxima",
    "count_maxima_at_interaction",
    "maxima_transition_ratio",
    "negative_speed_onset",
    "sweep_rows",
    "SWEEP_HEADER",
]

# The plus-variant quadratic k1^2 - 3 k1 k2 + k2^2 vanishes at
# k2/k1 = (3 + sqrt 5)/2; below this relative size the quadratic is
# treated as singular for the speed formula.
SINGULAR_RTOL = 1e-12

CRITICAL_RATIO = (3.0 + math.sqrt(5.0)) / 2.0

# The steps of measure_uxx_at_center and measure_extremum_speed, each
# Richardson-combined with its half to O(h^4).
_UXX_STEP = 1e-3
_SPEED_STEP = 1e-4


def _resolve(cfg: SolitonConfig) -> SolitonConfig:
    if cfg.x1 != 0.0 or cfg.x2 != 0.0:
        raise ValueError(
            "interaction diagnostics require zero shifts "
            f"(got x1={cfg.x1}, x2={cfg.x2})"
        )
    return cfg


# ---------------------------------------------------------------------------
# Closed forms at the origin.
# ---------------------------------------------------------------------------


def uxx_at_center(cfg: SolitonConfig) -> float:
    """Closed-form u_xx(0,0); its sign classifies the centered extremum.

    Plus: -(k2 - k1)(k1^2 - 3 k1 k2 + k2^2), positive (local minimum)
    for 1 < k2/k1 < (3 + sqrt 5)/2 and negative above.  Minus:
    -(k2 + k1)(k1^2 + 3 k1 k2 + k2^2), negative for all k1 < k2.
    """
    work = _resolve(cfg)
    k1, k2 = work.k1, work.k2
    if work.variant is Variant.PLUS:
        return -(k2 - k1) * (k1 * k1 - 3.0 * k1 * k2 + k2 * k2)
    return -(k2 + k1) * (k1 * k1 + 3.0 * k1 * k2 + k2 * k2)


def extremum_speed(cfg: SolitonConfig) -> float:
    """Closed-form speed y'(0) of the centered extremum path.

    Plus: (k1^4 - 3 k1^3 k2 + 3 k1^2 k2^2 - 3 k1 k2^3 + k2^4)
          / (k1^2 - 3 k1 k2 + k2^2), singular at k2/k1 = (3+sqrt 5)/2,
    and negative for ratios between ~2.1537 (the quartic's root) and
    the singular ratio.  Minus: the same with all plus signs, always
    positive.
    """
    work = _resolve(cfg)
    k1, k2 = work.k1, work.k2
    if work.variant is Variant.PLUS:
        num = (
            k1**4
            - 3.0 * k1**3 * k2
            + 3.0 * k1**2 * k2**2
            - 3.0 * k1 * k2**3
            + k2**4
        )
        den = k1 * k1 - 3.0 * k1 * k2 + k2 * k2
        if abs(den) < SINGULAR_RTOL * k2 * k2:
            raise ValueError(
                "extremum speed is singular: k1^2 - 3 k1 k2 + k2^2 = 0 "
                f"at k2/k1 = (3 + sqrt 5)/2 (got k2/k1 = {k2 / k1})"
            )
        return num / den
    num = (
        k1**4
        + 3.0 * k1**3 * k2
        + 3.0 * k1**2 * k2**2
        + 3.0 * k1 * k2**3
        + k2**4
    )
    return num / (k1 * k1 + 3.0 * k1 * k2 + k2 * k2)


# ---------------------------------------------------------------------------
# Finite-difference measurements.
# ---------------------------------------------------------------------------


def _u_real(cfg: SolitonConfig, x: float, t: float) -> float:
    # On the real line (real x, real t) the field is real: both
    # exponentials are positive reals.
    return _u_or_raise(cfg, complex(x, 0.0), t).real


def _fd_uxx(cfg: SolitonConfig, h: float) -> float:
    u = _u_real
    return (u(cfg, h, 0.0) - 2.0 * u(cfg, 0.0, 0.0) + u(cfg, -h, 0.0)) / (h * h)


def _fd_uxt(cfg: SolitonConfig, h: float) -> float:
    u = _u_real
    return (
        u(cfg, h, h) - u(cfg, h, -h) - u(cfg, -h, h) + u(cfg, -h, -h)
    ) / (4.0 * h * h)


def measure_uxx_at_center(cfg: SolitonConfig) -> float:
    """u_xx(0,0) by centered second differences of the field.

    The O(h^2) estimates at h = 1e-3 and h/2 are Richardson-combined to
    O(h^4).  Independent of the closed form (it samples eval_u only).
    """
    work = _resolve(cfg)
    d_h = _fd_uxx(work, _UXX_STEP)
    return (4.0 * _fd_uxx(work, 0.5 * _UXX_STEP) - d_h) / 3.0


def _speed_estimate(cfg: SolitonConfig, h: float) -> float:
    """-u_xt(0,0)/u_xx(0,0) from centered O(h^2) stencils on eval_u."""
    uxx = _fd_uxx(cfg, h)
    uxt = _fd_uxt(cfg, h)
    if abs(uxx) < 1e-8 * max(1.0, abs(uxt)):
        raise ValueError(
            "second x-derivative vanishes at the origin; the "
            "extremum speed is undefined there"
        )
    return -uxt / uxx


def measure_extremum_speed(cfg: SolitonConfig) -> float:
    """y'(0) = -u_xt(0,0)/u_xx(0,0) by finite differences of the field.

    Both derivatives are centered O(h^2) stencils on eval_u; the speed
    estimates at h = 1e-4 and h/2 are Richardson-combined to O(h^4).
    Raises ValueError when the measured second derivative vanishes
    (the degenerate plus configuration).
    """
    work = _resolve(cfg)
    d_h = _speed_estimate(work, _SPEED_STEP)
    return (4.0 * _speed_estimate(work, 0.5 * _SPEED_STEP) - d_h) / 3.0


# ---------------------------------------------------------------------------
# Maxima counting at t = 0.
# ---------------------------------------------------------------------------


def _polish_max(cfg: SolitonConfig, lo: float, hi: float) -> float:
    """Root of u_x in a bracket where u_x goes + -> -.

    Newton iteration on the closed-form u_x, guarded by the bracket:
    any step leaving it falls back to bisection, so a maximum is
    refined even when the critical points have nearly merged and the
    Newton basins interleave.
    """
    x = 0.5 * (lo + hi)
    for _ in range(200):
        ux = eval_u_x(cfg, complex(x, 0.0), 0.0).real
        if ux > 0.0:
            lo = x
        elif ux < 0.0:
            hi = x
        else:
            return x
        uxx = eval_u_xx(cfg, complex(x, 0.0), 0.0).real
        x_new = x - ux / uxx if uxx != 0.0 else 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if hi - lo < 1e-14 * max(1.0, abs(x)):
            return 0.5 * (lo + hi)
        x = x_new
    return 0.5 * (lo + hi)


def find_maxima(cfg: SolitonConfig) -> list[float]:
    """Abscissas of the local maxima of u(., 0) on |x| <= 12/k1, sorted.

    A centered first difference with spacing strip_scale/200 flags the
    windows holding critical points; inside each window the closed-form
    u_x is sign-scanned on a fine sub-grid, and every + -> - bracket
    (a maximum by continuity, no curvature test needed) is polished by
    bracket-guarded Newton iteration on u_x.  The fine scan separates
    maxima that the coarse grid would merge: near the critical ratio
    the two side maxima approach the center like the square root of
    the parameter distance.
    """
    work = _resolve(cfg)
    h = strip_scale(work) / 200.0
    half = 12.0 / work.k1
    n = int(2.0 * half / h) + 2
    xs = -half + 2.0 * half * np.arange(n) / (n - 1)
    us = _u_or_raise_grid(work, xs, 0.0).real
    diffs = us[2:] - us[:-2]
    turns = (diffs[:-1] == 0.0) | ((diffs[:-1] > 0.0) != (diffs[1:] > 0.0))

    windows: list[float] = []
    xl = xs.tolist()
    for i in np.flatnonzero(turns).tolist():
        center = 0.5 * (xl[i + 1] + xl[i + 2])
        if not windows or center - windows[-1] > 0.5 * h:
            windows.append(center)

    maxima: list[float] = []
    m = 601
    for center in windows:
        fine = center - 1.5 * h + 3.0 * h * np.arange(m) / (m - 1)
        vals = eval_u_x_grid(work, fine, 0.0).real
        fl = fine.tolist()
        for j in np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0)).tolist():
            maxima.append(_polish_max(work, fl[j], fl[j + 1]))

    maxima.sort()
    out: list[float] = []
    for x in maxima:
        if not out or abs(x - out[-1]) > 1e-9 * max(1.0, abs(x)):
            out.append(x)
    return out


def count_maxima_at_interaction(cfg: SolitonConfig) -> int:
    """Number of local maxima of u(., 0) on the real line.

    Plus variant: 2 below the critical ratio (3 + sqrt 5)/2, 1 above;
    minus variant: always 1.
    """
    return len(find_maxima(cfg))


def _bisect(
    below: Callable[[float], bool], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most tol wide, keeping the upper half
    where ``below(mid)`` holds and the lower half elsewhere."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def maxima_transition_ratio(lo: float = 2.55, hi: float = 2.70) -> tuple[float, float]:
    """Bisection bracket [lo, hi] for the plus-variant maxima merge, in
    the ratio k2/k1 (k1 = 1).

    Requires count(lo) == 2 and count(hi) == 1; returns the final
    bracket, at most 1e-4 wide, which contains the critical ratio
    (3 + sqrt 5)/2.
    """

    def count(ratio: float) -> int:
        return count_maxima_at_interaction(
            SolitonConfig.make(1.0, ratio, Variant.PLUS)
        )

    if count(lo) != 2 or count(hi) != 1:
        raise ValueError(
            f"bracket [{lo}, {hi}] does not straddle the maxima merge"
        )
    return _bisect(lambda ratio: count(ratio) == 2, lo, hi, 1e-4)


def negative_speed_onset(lo: float = 2.0, hi: float = 2.5) -> float:
    """Ratio k2/k1 where the plus-variant extremum speed turns negative.

    Bisection on the sign of the closed-form speed, to a bracket 1e-10
    wide; the onset is the quartic root near 2.1537 (reported as a
    measurement -- the speed stays negative from here up to the
    singular ratio).
    """

    def speed(ratio: float) -> float:
        return extremum_speed(SolitonConfig.make(1.0, ratio, Variant.PLUS))

    s_lo, s_hi = speed(lo), speed(hi)
    if not (s_lo > 0.0 > s_hi):
        raise ValueError(
            f"bracket [{lo}, {hi}] does not straddle the sign change "
            f"(speeds {s_lo:.6f}, {s_hi:.6f})"
        )
    lo, hi = _bisect(lambda ratio: speed(ratio) > 0.0, lo, hi, 1e-10)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Parameter sweeps.
# ---------------------------------------------------------------------------

SWEEP_HEADER = (
    "ratio",
    "maxima",
    "uxx_center",
    "speed_closed_form",
    "speed_measured",
)


def sweep_rows(
    ratios: Sequence[float],
    k1: float = 1.0,
    variant: Variant = Variant.PLUS,
) -> list[tuple[float, int, float, float, float]]:
    """Rows (ratio, maxima, uxx, closed speed, measured speed) for CSV.

    The closed-form speed is NaN at (near-)singular ratios; the
    measured speed is NaN when the finite-difference second derivative
    vanishes.
    """
    rows = []
    for ratio in ratios:
        cfg = SolitonConfig.make(k1, ratio * k1, variant)
        count = count_maxima_at_interaction(cfg)
        uxx = uxx_at_center(cfg)
        try:
            closed = extremum_speed(cfg)
        except ValueError:
            closed = math.nan
        try:
            measured = measure_extremum_speed(cfg)
        except ValueError:
            measured = math.nan
        rows.append((ratio, count, uxx, closed, measured))
    return rows

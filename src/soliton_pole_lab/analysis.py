"""Structural checks on the pole sets: factorization, excluded lines,
cosine relations, the vertical-motion sign law, translation identities,
and residues.

Factorization over C.  The real-polynomial denominators split as
F = F1 * F2 with

    plus :  F1 = 1 + i g f1 + i g f2 - f1 f2,   F2 = conj-coefficient twin,
    minus:  F1 = 1 + i g f1 - i g f2 + f1 f2,   F2 = conj-coefficient twin,

(g = gamma) so F1(x, t) = 0 iff F2(conj x, t) = 0, and every zero of F is a
zero of exactly one factor (generically).

Real decomposition.  Writing alpha = -Im x and A_j = |f_j| =
exp(-k_j (Re x - x_j) + k_j^3 t) > 0 gives f_j = A_j e^{i k_j alpha}, which
turns each factor equation F_i = 0 into two real equations.  Eliminating
between them yields, at any zero of the plus-variant F1,

    (A2 - 1/A2) cos(k1 a) + (A1 - 1/A1) cos(k2 a) = 0,
    (A1 + 1/A1) cos(k2 a) = (1/g) sin((k2+k1) a) - g sin((k2-k1) a),
    (A2 + 1/A2) cos(k1 a) = (1/g) sin((k2+k1) a) + g sin((k2-k1) a),

with a = alpha.  ``cos_identities_residual`` reports the normalized
residuals of these three relations.

Sign law.  Along a zero curve x(t) of a factor with d/dx != 0, implicit
differentiation and the relations above reduce the sign of Im x'(t) to

    sign(Im x'(t)) = s * sign((A1 - 1/A1) cos(k2 alpha)),

where s = +1 for the plus F1, and the remaining factors follow from two
symmetries: conjugation (zeros of F2 are conjugates of zeros of F1, which
flips Im x' but fixes A_j and cos(k_j alpha)) gives s = -1 for the plus F2;
redoing the elimination for the minus F1 (the cross terms +i g f1 - i g f2
flip one sign in each relation) gives s = -1, hence s = +1 for the minus
F2.  Zeros with cos(k1 alpha) = cos(k2 alpha) = 0 can only occur for
commensurable wavenumbers with p1, p2 both odd and alpha an odd multiple
of pi*lambda/2; there the law predicts 0 (no vertical motion to first
order).

Translation identities (commensurable case, lambda = p1/k1 = p2/k2).
Shifting x by -i theta multiplies f_j by e^{i k_j theta} =
e^{i pi p_j theta/(pi lambda)}.  If p1, p2 have opposite parity, theta =
pi*lambda makes the factors (-1)^{p_1}, (-1)^{p_2} = one +1 and one -1,
which swaps the variants: F_plus(x - i theta, t) = F_minus(x, t).  If p1,
p2 are both odd, choosing theta = Q*pi*lambda/2 with an odd integer Q
multiplies f_j by (-i)^{Q p_j mod 4}; requiring both factors to become
the common positive-coefficient form

    1 + g f1 + g f2 + f1 f2

needs Q p1 = Q p2 = 3 (mod 4) for the first plus factor (Q p_j = 1 for
the second), solvable exactly when p2 - p1 = 0 (mod 4) since an odd p is
its own inverse mod 4; the minus variant needs Q p1 = 3, Q p2 = 1 (mod 4)
(and the mirror), solvable exactly when p2 + p1 = 0 (mod 4).  Both are
proved from the term tables over Q(i), as the battery's translation row
proves them (``_translation_rests``), not sampled.

Residues.  At a simple zero x0 of F the solution u = 2 g G/F has the
simple-pole residue 2 g G(x0)/F_x(x0); a trapezoid contour integral on a
small circle provides an independent cross-check.  Laurent balance of the
equation forces every residue to be +i or -i.

Variants.  The config carries the sign variant, and every function here
reads it from there; ``cfg.with_variant(v)`` asks about the other one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._balanced import Scaled, ScaledGrid
from .exppoly import oracle_poles
from .kernel import (
    ConvergenceError,
    F_grid,
    F_scaled,
    G_scaled,
    PoleError,
    SolitonConfig,
    Variant,
    _FPointEval,
    _factor_grid,
    _QPoly,
    _record_dict,
    _terms_F,
    _terms_factor,
    _terms_kdv,
    _u_or_raise_grid,
    factor_scaled,
    kdv_F_scaled,
    strip_scale,
)
from .tracker import FX_MIN, _newton_correct

__all__ = [
    "RealDecomp",
    "LineScan",
    "VerticalSign",
    "real_decomp",
    "factor_F",
    "check_no_real_poles",
    "cos_identities_residual",
    "vertical_sign",
    "parity_translation_theta",
    "translation_residual",
    "odd_parity_translation",
    "odd_translation_residuals",
    "residue_at_pole",
]

# A zero handed to the verification ops must satisfy |F| below this
# (relative to the term scale); used as the "is actually a zero" gate.
ZERO_GATE = 1e-6
# A factor derivative below this relative size marks a multiple zero: the
# tracker's near-multiple-root threshold.
FX_GATE = FX_MIN
# Residues are read off at the pole itself, so polish tighter than the
# tracker's default corrector target.
_POLISH_TOL = 1e-13
# Nodes of the trapezoid rule in residue_at_pole's contour cross-check, and
# their phases on the unit circle.
_CONTOUR_NODES = 256
_CONTOUR_PHASES = tuple(
    cmath.exp(2j * math.pi * j / _CONTOUR_NODES) for j in range(_CONTOUR_NODES)
)

_FACTOR_SIGN = {
    (Variant.PLUS, 1): +1,
    (Variant.PLUS, 2): -1,
    (Variant.MINUS, 1): -1,
    (Variant.MINUS, 2): +1,
}


# ---------------------------------------------------------------------------
# Real decomposition.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealDecomp:
    """Polar data of (f1, f2) at one point: f_j = a_j * e^{i k_j alpha}.

    alpha = -Im x; a_j = exp(-k_j (Re x - x_j) + k_j^3 t) > 0.  The
    reconstructed f1, f2 agree with direct evaluation to rounding.
    """

    alpha: float
    a1: float
    a2: float
    f1: complex
    f2: complex

    def to_dict(self) -> dict:
        return _record_dict(self)


def _log_moduli(cfg: SolitonConfig, x: complex, t: float) -> tuple[float, float]:
    """log a1, log a2: the real parts of the exponents of f1, f2."""
    return (
        -cfg.k1 * (x.real - cfg.x1) + cfg.k1**3 * t,
        -cfg.k2 * (x.real - cfg.x2) + cfg.k2**3 * t,
    )


def real_decomp(cfg: SolitonConfig, x: complex, t: float) -> RealDecomp:
    """Split f_j into positive modulus a_j and phase e^{i k_j alpha}."""
    x = complex(x)
    alpha = -x.imag
    a1, a2 = map(math.exp, _log_moduli(cfg, x, t))
    f1 = a1 * cmath.exp(1j * cfg.k1 * alpha)
    f2 = a2 * cmath.exp(1j * cfg.k2 * alpha)
    return RealDecomp(alpha, a1, a2, f1, f2)


# ---------------------------------------------------------------------------
# Factorization.
# ---------------------------------------------------------------------------


def factor_F(cfg: SolitonConfig, x: complex, t: float) -> tuple[complex, complex]:
    """The two complex factors (F1, F2) with F = F1 * F2.

    Plain complex values; may overflow for extreme arguments, in which
    case use ``factor_scaled`` directly.
    """
    return (
        factor_scaled(cfg, x, t, 1).value(),
        factor_scaled(cfg, x, t, 2).value(),
    )


def _which_factor(cfg: SolitonConfig, x: complex, t: float) -> tuple[int, float]:
    """Index (1 or 2) of the factor vanishing at (x, t), with its residual.

    Raises PoleError when neither factor is zero to within ZERO_GATE.
    """
    r1 = factor_scaled(cfg, x, t, 1).relative()
    r2 = factor_scaled(cfg, x, t, 2).relative()
    which, rel = (1, r1) if r1 <= r2 else (2, r2)
    if rel > ZERO_GATE:
        raise PoleError(
            f"({x}, {t}) is not a zero of either factor: "
            f"relative residuals {r1:.3e}, {r2:.3e}"
        )
    return which, rel


# ---------------------------------------------------------------------------
# Excluded lines.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineScan:
    """Minimum of the relative |F| over a sampled set of x values."""

    min_residual: float
    argmin: complex
    t: float
    samples: int

    def to_dict(self) -> dict:
        return _record_dict(self)


def check_no_real_poles(
    cfg: SolitonConfig,
    t: float,
    grid: Optional[Sequence[complex]] = None,
) -> LineScan:
    """Scan |F| (relative to its term scale) over a grid of x values.

    The default grid samples the real axis on [-20, 20] at 4001 points;
    pass an explicit grid (a sequence or array of x) to scan other lines
    (e.g. Im x = pi * lambda).  Ties keep the first minimum.
    Zeros of F never lie on the real axis, nor on Im x = m * pi * lambda
    in the commensurable case, so the scan minimum there is bounded away
    from zero; on a pole line it dips to zero at the pole.
    """
    if grid is None:
        n = 4001
        grid = -20.0 + 40.0 * np.arange(n) / (n - 1)
    xs = np.asarray(grid, dtype=complex).reshape(-1)
    if not len(xs):
        raise ValueError("grid must contain at least one point")
    r = F_grid(cfg, xs, t).relative()
    # The first strict minimum; NaN never wins, and an all-inf scan keeps
    # the first point.
    i = int(np.argmin(np.where(np.isnan(r), math.inf, r)))
    if not r[i] < math.inf:
        return LineScan(math.inf, complex(xs[0]), t, len(xs))
    return LineScan(float(r[i]), complex(xs[i]), t, len(xs))


# ---------------------------------------------------------------------------
# Cosine relations at zeros of the plus-variant first factor.
# ---------------------------------------------------------------------------


def _rel_residual(terms: Sequence[float], amps: Sequence[float]) -> float:
    """|sum| / max(1, |largest amplitude|) for a relation written sum = 0.

    Each term is amplitude * trig coefficient and carries absolute
    rounding error ~eps * |amplitude| (the trig factor of an O(10)
    argument is accurate to ~eps absolute), so the amplitude scale --
    not the term scale -- is the conditioning floor of the sum.  At far
    zeros a genuinely tiny coefficient times a huge amplitude leaves an
    O(1) term whose own error is eps * amplitude; dividing by the
    amplitude keeps a true zero at ~eps instead of eps * amplitude.
    """
    return abs(math.fsum(terms)) / max(1.0, max(abs(v) for v in amps))


# Zeros on horizontal lattice lines have ordinates that make some trig
# coefficients exact zeros; in floats those evaluate to ~1e-16 and the
# a_j - 1/a_j amplitudes (up to e^(k |Re x|)) blow the residue up to
# garbage, or to 0*inf at ordinates where the amplitude also diverges.
# Coefficients below this are the exact-limit zeros and are clipped.
_TRIG_CLIP = 1e-11


def _term(amp: float, coef: float) -> float:
    """amp * coef with structurally zero trig coefficients clipped first."""
    return 0.0 if abs(coef) < _TRIG_CLIP else amp * coef


def cos_identities_residual(
    cfg: SolitonConfig, x: complex, t: float
) -> tuple[float, float, float]:
    """Residuals of the three real relations at a zero of the plus F1.

    Each residual is normalized by the largest amplitude entering the
    relation (floored at 1) so a genuine zero reports ~1e-12 even when
    the a_j are exponentially large.  Trig coefficients within
    _TRIG_CLIP of zero (lattice ordinates make them exact zeros) are
    clipped before the products, so large amplitudes cannot amplify
    their rounding residue; at ordinates where every coefficient
    vanishes the relations degenerate to 0 = 0 and report 0.  Raises
    PoleError if (x, t) is not a zero of the first plus factor,
    ValueError for a minus config.
    """
    if cfg.variant is not Variant.PLUS:
        raise ValueError("the cosine relations hold at plus-variant zeros")
    rel = factor_scaled(cfg, x, t, 1).relative()
    if rel > ZERO_GATE:
        raise PoleError(
            f"({x}, {t}) is not a zero of the first plus factor: "
            f"relative residual {rel:.3e}"
        )
    d = real_decomp(cfg, x, t)
    g = cfg.gamma
    a = d.alpha
    c1, c2 = math.cos(cfg.k1 * a), math.cos(cfg.k2 * a)
    s_sum = math.sin((cfg.k2 + cfg.k1) * a)
    s_dif = math.sin((cfg.k2 - cfg.k1) * a)
    m2, p2 = d.a2 - 1 / d.a2, d.a2 + 1 / d.a2
    m1, p1 = d.a1 - 1 / d.a1, d.a1 + 1 / d.a1
    r1 = _rel_residual([_term(m2, c1), _term(m1, c2)], [m2, m1])
    r2 = _rel_residual(
        [_term(p1, c2), _term(-1 / g, s_sum), _term(g, s_dif)], [p1, 1 / g, g]
    )
    r3 = _rel_residual(
        [_term(p2, c1), _term(-1 / g, s_sum), _term(-g, s_dif)], [p2, 1 / g, g]
    )
    return r1, r2, r3


# ---------------------------------------------------------------------------
# Vertical-motion sign law.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerticalSign:
    """Sign-law verdict at one zero: predicted sign of Im x'(t) vs the
    measured Im x'(t) = Im(-F_t/F_x) of the vanishing factor."""

    predicted_sign: int
    measured: float
    expression: float
    factor: int

    @property
    def measured_sign(self) -> int:
        if abs(self.measured) < 1e-10:
            return 0
        return 1 if self.measured > 0 else -1

    @property
    def consistent(self) -> bool:
        """Law verdict: vacuous when either side sits in its dead zone
        (an exponentially small true velocity drowns in the rounding
        noise of Im(-F_t/F_x), so a tiny measurement decides nothing)."""
        if self.predicted_sign == 0 or self.measured_sign == 0:
            return True
        return self.predicted_sign == self.measured_sign

    def to_dict(self) -> dict:
        return _record_dict(self, consistent=self.consistent)


def _a1_law(log_a1: float) -> float:
    """A1 - 1/A1 from log A1, or an infinity of log A1's sign where
    exp(log A1) overflows or underflows to 0."""
    try:
        a1 = math.exp(log_a1)
    except OverflowError:
        return math.inf
    return a1 - 1 / a1 if a1 > 0.0 else -math.inf


def _sign_prediction(
    cfg: SolitonConfig, which: int, x: complex, t: float
) -> tuple[int, float]:
    """The law's (predicted sign, expression) at a zero of factor ``which``:
    the expression s * (A1 - 1/A1) * cos(k2 alpha), and its sign with
    predictions smaller than 1e-12 counted as 0.  The one prediction of
    ``vertical_sign`` and ``_vertical_signs``."""
    log_a1, _ = _log_moduli(cfg, x, t)
    sign = _FACTOR_SIGN[(cfg.variant, which)]
    expression = sign * _a1_law(log_a1) * math.cos(cfg.k2 * -x.imag)
    if abs(expression) < 1e-12:
        return 0, expression
    return (1 if expression > 0 else -1), expression


def vertical_sign(cfg: SolitonConfig, x: complex, t: float) -> VerticalSign:
    """Predicted and measured sign of Im x'(t) at a simple zero of F.

    The vanishing factor is located first; the prediction is
    s * (A1 - 1/A1) * cos(k2 alpha) with the factor's sign s from the
    table (+1, -1, -1, +1) for (plus F1, plus F2, minus F1, minus F2);
    A1 - 1/A1 is an infinity of its sign where A1 leaves double range.
    Predictions smaller than 1e-12 count as 0 (the symmetric dead zone:
    t = 0 with Re x = 0, or alpha an odd multiple of pi*lambda/2); the
    measured velocity uses a 1e-10 dead zone.  Raises PoleError when
    (x, t) is not a zero and ConvergenceError at a multiple zero.

    This is the form for one point.  Callers with many samples use
    ``_vertical_signs``, which gives the same verdicts bit for bit from
    one grid evaluation per factor table.
    """
    which, _ = _which_factor(cfg, x, t)
    Ft = factor_scaled(cfg, x, t, which, dt=1)
    Fx = factor_scaled(cfg, x, t, which, dx=1)
    if Fx.relative() < FX_GATE:
        raise ConvergenceError(
            f"factor derivative below threshold at ({x}, {t}): "
            f"relative |F_x|={Fx.relative():.3e} (multiple zero?)"
        )
    measured = (-Ft.ratio(Fx)).imag
    predicted, expression = _sign_prediction(cfg, which, complex(x), t)
    return VerticalSign(predicted, measured, expression, which)


def _pick(first: np.ndarray, a: ScaledGrid, b: ScaledGrid) -> ScaledGrid:
    """a where ``first`` holds, else b, pointwise."""
    return ScaledGrid(
        np.where(first, a.re, b.re),
        np.where(first, a.im, b.im),
        np.where(first, a.log, b.log),
        np.where(first, a.norm, b.norm),
    )


def _vertical_signs(
    cfg: SolitonConfig,
    xs: Sequence[complex],
    ts: Sequence[float],
) -> list[Optional[VerticalSign]]:
    """``vertical_sign`` at every sample (xs[i], ts[i]), bit for bit: one
    ``VerticalSign`` per sample, or None where the scalar form raises
    PoleError (not a zero) or ConvergenceError (a multiple zero).  The
    ratio F_t / F_x at the other samples raises the scalar form's error
    for the first sample where it fails, before any prediction is made.

    Both factors and their F_t and F_x are evaluated once each over all
    samples on the grid engine, with one time per point; the vanishing
    factor's values are then picked per sample.
    """
    zs = np.asarray(xs, dtype=complex).reshape(-1)
    times = np.asarray(ts, dtype=float).reshape(-1)
    (F1, F1t, F1x), (F2, F2t, F2x) = (
        [
            _factor_grid(cfg, zs, times, which, dx, dt)
            for dx, dt in ((0, 0), (0, 1), (1, 0))  # F, F_t, F_x
        ]
        for which in (1, 2)
    )
    r1, r2 = F1.relative(), F2.relative()
    # As in _which_factor: factor 1 where r1 <= r2, else factor 2.
    first = r1 <= r2
    not_zero = np.where(first, r1, r2) > ZERO_GATE
    Ft, Fx = _pick(first, F1t, F2t), _pick(first, F1x, F2x)
    skip = not_zero | (Fx.relative() < FX_GATE)
    _, qi = Ft.ratio(Fx, active=~skip)
    out: list[Optional[VerticalSign]] = []
    rows = zip(skip.tolist(), np.where(first, 1, 2).tolist(), (-qi).tolist(), xs, ts)
    for skipped, which, measured, x, t in rows:
        if skipped:
            out.append(None)
            continue
        predicted, expression = _sign_prediction(cfg, which, complex(x), t)
        out.append(VerticalSign(predicted, measured, expression, which))
    return out


# ---------------------------------------------------------------------------
# Translation identities.
# ---------------------------------------------------------------------------


def _require_comm(cfg: SolitonConfig):
    if cfg.comm is None:
        raise ValueError("commensurable wavenumbers required")
    return cfg.comm


def _qi_poly(terms, q: int = 0, p1: int = 0, p2: int = 0) -> tuple[_QPoly, _QPoly]:
    """A term table over Q(i), as its real and imaginary parts at their
    exact binary values.  With q, the table after x -> x - i q pi lam / 2,
    which turns f1^a1 f2^a2 by i^(q (a1 p1 + a2 p2)) as k_j = p_j / lam."""
    re, im = [], []
    for c, a1, a2 in terms:
        part = Fraction(c.real), Fraction(c.imag)
        for _ in range(q * (a1 * p1 + a2 * p2) % 4):
            part = -part[1], part[0]
        re.append(((a1, a2), part[0]))
        im.append(((a1, a2), part[1]))
    return _QPoly.collect(re), _QPoly.collect(im)


def _quarter_turns(p1: int) -> tuple[int, int]:
    """(Q_1, Q_2) of ``odd_parity_translation``: (3 p1, p1) mod 4."""
    return (3 * p1) % 4, p1 % 4


def _translation_rests(cfg: SolitonConfig) -> tuple[str, list[tuple[Variant, _QPoly]]]:
    """(claim, rests): cfg's translation identity holds iff every rest is 0
    over Q(i).  Mixed parity: the half turn takes F_plus's table to F_minus's.
    Both odd, in the one variant whose congruence holds: the quarter turns
    ``_quarter_turns`` take each factor's table to ``_terms_kdv``."""
    p1, p2 = cfg.comm.p1, cfg.comm.p2
    if (p1 + p2) % 2 == 1:
        variant, g2 = Variant.PLUS, cfg.gamma**2
        pairs = [(2, _terms_F(g2, Variant.PLUS), _terms_F(g2, Variant.MINUS))]
        claim = "mixed parity, F_plus(x - i pi lam) = F_minus(x)"
    else:
        variant = Variant.PLUS if (p2 - p1) % 4 == 0 else Variant.MINUS
        work, (q1, q2) = cfg.with_variant(variant), _quarter_turns(p1)
        kdv = _terms_kdv(work)
        pairs = [(q1, _terms_factor(work, 1), kdv), (q2, _terms_factor(work, 2), kdv)]
        claim = f"odd parity ({variant.value}), F_j(x - i Q_j pi lam / 2) = K(x)"
    rests = [
        (variant, a - b)
        for q, table, target in pairs
        for a, b in zip(_qi_poly(table, q, p1, p2), _qi_poly(target))
    ]
    return claim, rests


def _survivors(rests: Sequence[tuple[Variant, _QPoly]]) -> list[str]:
    """The monomials of the ``rests`` with a nonzero coefficient, in order."""
    found = ((variant, a1, a2) for variant, rest in rests for a1, a2 in rest.coeffs)
    return [f"variant={v.value}, monomial f1^{a1} f2^{a2}" for v, a1, a2 in found]


def _prove_translation(cfg: SolitonConfig) -> None:
    """Raise ConvergenceError at the first monomial ``_translation_rests`` leaves."""
    claim, rests = _translation_rests(cfg)
    if found := _survivors(rests):
        raise ConvergenceError(f"{claim} fails over Q(i) at {found[0]}")


def translation_residual(
    cfg: SolitonConfig, x: complex, t: float, theta: float
) -> float:
    """Relative deviation |F_plus(x - i theta, t) / F_minus(x, t) - 1|."""
    num = F_scaled(cfg.with_variant(Variant.PLUS), complex(x) - 1j * theta, t)
    den = F_scaled(cfg.with_variant(Variant.MINUS), complex(x), t)
    return abs(num.ratio(den) - 1.0)


def parity_translation_theta(cfg: SolitonConfig) -> float:
    """The vertical shift theta with F_plus(x - i theta, t) = F_minus(x, t).

    Requires commensurable wavenumbers with p1, p2 of opposite parity;
    then theta = pi * lambda multiplies f_j by (-1)^{p_j}, flipping
    exactly one of the two signs, which exchanges the variants.  The
    identity is proved from the term tables over Q(i) before returning
    (``_translation_rests``, as the battery's translation row does).
    """
    comm = _require_comm(cfg)
    if (comm.p1 + comm.p2) % 2 == 0:
        raise ValueError(f"p1={comm.p1} and p2={comm.p2} must have opposite parity")
    _prove_translation(cfg)
    return math.pi * comm.lam


def odd_translation_residuals(
    cfg: SolitonConfig,
    theta1: float,
    theta2: float,
    x: complex,
    t: float,
) -> tuple[float, float]:
    """Relative deviations |F_i(x - i theta_i, t) / K(x, t) - 1| for the two
    factors, where K = 1 + gamma f1 + gamma f2 + f1 f2."""
    den = kdv_F_scaled(cfg, complex(x), t)
    out = []
    for which, theta in ((1, theta1), (2, theta2)):
        num = factor_scaled(cfg, complex(x) - 1j * theta, t, which)
        out.append(abs(num.ratio(den) - 1.0))
    return out[0], out[1]


def odd_parity_translation(cfg: SolitonConfig) -> tuple[float, float]:
    """Shifts (theta1, theta2) sending both factors to the common form
    1 + gamma f1 + gamma f2 + f1 f2.

    Requires commensurable wavenumbers with p1, p2 both odd, and
    p2 - p1 divisible by 4 (plus variant) or p2 + p1 divisible by 4
    (minus variant).  theta_i = Q_i * pi * lambda / 2 where the odd
    residue Q_i mod 4 solves e^{i k_j theta} = -i (factor 1) or +i
    (factor 2) for both j simultaneously; since an odd p is its own
    inverse mod 4, Q_1 = 3 p1, Q_2 = p1 (mod 4) in the plus case, and
    Q_1 = 3 p1 (= p2), Q_2 = p1 (mod 4) in the minus case
    (``_quarter_turns``).  Both identities are proved from the term
    tables over Q(i) before returning (``_translation_rests``).
    """
    comm = _require_comm(cfg)
    p1, p2 = comm.p1, comm.p2
    if p1 % 2 == 0 or p2 % 2 == 0:
        raise ValueError(f"p1={p1} and p2={p2} must both be odd")
    op, n = ("-", p2 - p1) if cfg.variant is Variant.PLUS else ("+", p2 + p1)
    if n % 4 != 0:
        raise ValueError(
            f"p2 {op} p1 = {n} must be divisible by 4 for the "
            f"{cfg.variant.value} variant"
        )
    _prove_translation(cfg)
    q1, q2 = _quarter_turns(p1)
    return q1 * math.pi * comm.lam / 2.0, q2 * math.pi * comm.lam / 2.0


# ---------------------------------------------------------------------------
# Residues.
# ---------------------------------------------------------------------------


def _isolation_radius(cfg: SolitonConfig, x: complex, t: float) -> float:
    """Distance budget around a pole: min(nearest other pole, lattice/4).

    Exact commensurable configurations use the global root oracle's poles
    with their vertical-period translates; otherwise the strip scale pi/k2
    (the fast soliton's pole spacing) stands in, quartered for safety.
    """
    base = strip_scale(cfg) / 4.0
    if cfg.comm is not None and cfg.exact:
        period = cfg.comm.period
        nearest = math.inf
        for root, _ in oracle_poles(cfg, t=t):
            for shift in (-period, 0.0, period):
                d = abs(root + 1j * shift - x)
                if d > 1e-8:
                    nearest = min(nearest, d)
        base = min(base, nearest)
    return base


def residue_at_pole(cfg: SolitonConfig, x_pole: complex, t: float) -> complex:
    """Residue of u at one simple pole: 2 gamma G(x0) / F_x(x0), +i or -i.
    The battery's residue row proves that law for every pole; this samples one.

    The input point is polished by Newton first.  A periodic-trapezoid
    contour integral over _CONTOUR_NODES points on a circle of radius
    1e-3 * isolation (isolation = min(distance to the nearest other
    pole, quarter vertical period)) must agree to 1e-6, else
    ConvergenceError.  An exact config solves one oracle snapshot for
    the isolation.  Raises ConvergenceError at a multiple zero.
    """
    try:
        x0, _, fx_mant, fx_log, fx_rel, _ = _newton_correct(
            _FPointEval(cfg), complex(x_pole), t, _POLISH_TOL
        )
    except ConvergenceError as exc:
        raise PoleError(
            f"({x_pole}, {t}) did not polish to a zero of F ({exc})"
        ) from exc
    if fx_rel < FX_GATE:
        raise ConvergenceError(
            f"multiple zero at ({x0}, {t}): relative |F_x|={fx_rel:.3e}"
        )
    # ``ratio`` reads F_x's mantissa and log only.
    res = 2.0 * cfg.gamma * G_scaled(cfg, x0, t).ratio(Scaled(fx_mant, fx_log))
    radius = 1e-3 * _isolation_radius(cfg, x0, t)
    total = 0j
    try:
        us = _u_or_raise_grid(cfg, [x0 + radius * p for p in _CONTOUR_PHASES], t)
    except PoleError:
        raise ConvergenceError(
            f"contour of radius {radius:.3e} around {x0} touches "
            "another pole"
        ) from None
    for u, phase in zip(us.tolist(), _CONTOUR_PHASES):
        total += u * phase
    contour = total * radius / _CONTOUR_NODES
    if abs(contour - res) > 1e-6 * max(1.0, abs(res)):
        raise ConvergenceError(
            f"contour check failed at ({x0}, {t}): derivative formula "
            f"{res}, contour {contour}"
        )
    return res

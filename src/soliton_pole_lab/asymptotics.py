"""Large-|t| pole families, moving frames, and first-order tangents.

Far from the interaction every pole of u rides one of the two solitons.
With gamma = (k2+k1)/(k2-k1) and odd integers m, n the four families are

    slow, t -> -inf:  x = k1^2 t + x1 + log(gamma)/k1 + m pi i/(2 k1) + o(1)
    slow, t -> +inf:  x = k1^2 t + x1 - log(gamma)/k1 - m pi i/(2 k1) + o(1)
    fast, t -> -inf:  x = k2^2 t + x2 - log(gamma)/k2 + n pi i/(2 k2) + o(1)
    fast, t -> +inf:  x = k2^2 t + x2 + log(gamma)/k2 - n pi i/(2 k2) + o(1)

so each soliton's pole ladder is shifted backward by 2 log(gamma)/k_j as it
crosses the other.  In the soliton frames

    z = x - k1^2 t,  r = e^{k2 (k2^2-k1^2) t}   (slow frame)
    w = x - k2^2 t,  s = e^{k1 (k2^2-k1^2) t}   (fast frame)

F factors through frame functions, F(x,t) = H(z,r) = s^{-2} I(w,s), with
H(., 0) vanishing exactly on the slow lattice z = log(gamma)/k1 + m pi i/(2k1).

Each family's curve deviates from its line at first order in the decaying
frame scale rho (r for slow, s for fast, both evaluated at |t| in the
label's direction).  ``tangent_slope`` returns the closed-form coefficient

    slow:  -/+ (-1)^{(m-1)/2} (4 k2/(k2^2-k1^2)) gamma^{-k2/k1} e^{-(k2/2k1) m pi i}
    fast:  -/+ (-1)^{(n-1)/2} (4 k1/(k2^2-k1^2)) gamma^{-k1/k2} e^{+(k1/2k2) n pi i}

(upper sign for the Plus variant).  Implicit differentiation of H gives the
actual deviation: for t -> -inf families,

    x_curve(t) - predicted(t) = -i * tangent_slope * rho + o(rho),

i.e. the measured coefficient is the stated one rotated by -i; mirror
symmetry flips that rotation to +i for t -> +inf families.  The magnitudes
agree exactly; tests pin both the modulus ratio and the phase relation.
This module provides the predictions, the tangents, tracker seeds, and the
matcher that labels tracked curves by family with a distance metric that
respects the imaginary period in commensurable mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from ._balanced import Scaled, balanced_sum
from .kernel import (
    ConvergenceError,
    SolitonConfig,
    Variant,
    _terms_F,
)
from .tracker import PoleCurve, position_at, track_ensemble

__all__ = [
    "Speed",
    "FamilyLabel",
    "MovingFrame",
    "CurveMatch",
    "MatchReport",
    "predicted_pole",
    "tangent_slope",
    "slow_lattice_point",
    "seed_time",
    "seed_state",
    "strip_labels",
    "match_families",
    "match_horizons",
]


class Speed(Enum):
    SLOW = "slow"
    FAST = "fast"


class FamilyLabel:
    """One asymptotic family: speed class, odd index, and time direction.

    ``direction`` is -1 for the t -> -inf family, +1 for t -> +inf.
    """

    __slots__ = ("speed", "index", "direction")

    def __init__(self, speed: Speed, index: int, direction: int):
        if index % 2 == 0:
            raise ValueError(f"family index must be odd, got {index}")
        if direction not in (-1, 1):
            raise ValueError(f"time direction must be -1 or +1, got {direction}")
        self.speed = speed
        self.index = index
        self.direction = direction

    def __repr__(self) -> str:
        arrow = "-inf" if self.direction < 0 else "+inf"
        return f"{self.speed.value}[{self.index}]@{arrow}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FamilyLabel)
            and (self.speed, self.index, self.direction)
            == (other.speed, other.index, other.direction)
        )

    def __hash__(self) -> int:
        return hash((self.speed, self.index, self.direction))


def predicted_pole(cfg: SolitonConfig, label: FamilyLabel, t: float) -> complex:
    """Leading-order family position at time t (the o(1) term dropped).

    t must point in the label's time direction (t = 0 is allowed as the
    frame anchor).
    """
    if t != 0.0 and t * label.direction < 0:
        raise ValueError(
            f"time {t} inconsistent with the {label!r} family direction"
        )
    log_gamma = math.log(cfg.gamma)
    d = label.direction
    if label.speed is Speed.SLOW:
        k = cfg.k1
        base = cfg.k1**2 * t + cfg.x1
        return base - d * (log_gamma / k + label.index * math.pi * 1j / (2 * k))
    k = cfg.k2
    base = cfg.k2**2 * t + cfg.x2
    return base + d * (log_gamma / k - label.index * math.pi * 1j / (2 * k))


def slow_lattice_point(cfg: SolitonConfig, m: int) -> complex:
    """Zero of H(., 0): z = log(gamma)/k1 + m pi i/(2 k1), m odd."""
    if m % 2 == 0:
        raise ValueError("lattice index must be odd")
    return math.log(cfg.gamma) / cfg.k1 + m * math.pi * 1j / (2 * cfg.k1)


def tangent_slope(cfg: SolitonConfig, label: FamilyLabel) -> complex:
    """Closed-form first-order coefficient of the family deviation.

    The measured deviation in the decaying frame scale rho is
    (i * direction) * tangent_slope * rho + o(rho): the stated coefficient
    rotated by -i for t -> -inf families and by +i for t -> +inf families
    (see the module docstring).  The modulus is the deviation rate in both
    conventions.  Independent of direction; Minus negates Plus.
    """
    k1, k2 = cfg.k1, cfg.k2
    d2 = k2**2 - k1**2
    idx = label.index
    sign = -1.0 if cfg.variant is Variant.PLUS else 1.0
    # (-1)^{(m-1)/2} for any odd m, negative indices included.
    parity = (-1.0) ** (((idx - 1) // 2) % 2)
    if label.speed is Speed.SLOW:
        amp = 4 * k2 / d2 * cfg.gamma ** (-k2 / k1)
        phase = -k2 / (2 * k1) * idx * math.pi
    else:
        amp = 4 * k1 / d2 * cfg.gamma ** (-k1 / k2)
        phase = k1 / (2 * k2) * idx * math.pi
    return sign * parity * amp * complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class MovingFrame:
    """Evaluation rules of one co-moving frame bound to a config.

    Slow frame: coordinates (z, r); value H(z, r) with f1 = e^{-k1(z-x1)},
    f2 = r e^{-k2(z-x2)}.  Fast frame: coordinates (w, s); value I(w, s) =
    s^2 F with f2 = e^{-k2(w-x2)}, f1 = e^{-k1(w-x1)}/s, a polynomial in s.
    """

    cfg: SolitonConfig
    kind: Speed

    def coords(self, x: complex, t: float) -> tuple[complex, float]:
        """(z, r) or (w, s) for a space-time point."""
        k1, k2 = self.cfg.k1, self.cfg.k2
        d2 = k2**2 - k1**2
        if self.kind is Speed.SLOW:
            return x - k1**2 * t, math.exp(k2 * d2 * t)
        return x - k2**2 * t, math.exp(k1 * d2 * t)

    def value(
        self,
        coord: complex,
        scale: float,
        variant: Optional[Variant] = None,
    ) -> Scaled:
        """H(z, r) for the slow frame, I(w, s) for the fast frame.

        ``scale`` (r or s) must be >= 0; scale = 0 gives the t -> -inf
        limit function.
        """
        if scale < 0:
            raise ValueError("frame scale must be non-negative")
        cfg = self.cfg
        v = cfg.variant if variant is None else Variant.coerce(variant)
        log_scale = math.log(scale) if scale > 0 else None
        w1 = -cfg.k1 * (coord - cfg.x1)
        w2 = -cfg.k2 * (coord - cfg.x2)
        pieces = []
        for coeff, a1, a2 in _terms_F(cfg.gamma**2, v):
            # Power of the frame scale: f2 carries one r; I = s^2 F with f1
            # carrying 1/s makes the power 2 - a1 (never negative here).
            scale_pow = a2 if self.kind is Speed.SLOW else 2 - a1
            w = a1 * w1 + a2 * w2
            if log_scale is None:
                if scale_pow > 0:
                    continue  # term vanishes in the scale -> 0 limit
                if scale_pow < 0:
                    raise ValueError("frame value singular at scale = 0")
            else:
                w = w + scale_pow * log_scale
            pieces.append((coeff, w))
        return balanced_sum(pieces)


def seed_time(cfg: SolitonConfig, eps: float = 1e-6) -> float:
    """|t| beyond which both frame scales r and s are below eps.

    s = e^{k1(k2^2-k1^2) t} decays slowest, so |t| = log(1/eps) / (k1 d2).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    d2 = cfg.k2**2 - cfg.k1**2
    return math.log(1.0 / eps) / (cfg.k1 * d2)


def seed_state(
    cfg: SolitonConfig, label: FamilyLabel, eps: float = 1e-6
) -> tuple[complex, float]:
    """(x_seed, t_seed) deep in the label's asymptotic regime: the
    leading-order prediction at |t| = seed_time, ready for Newton."""
    t = label.direction * seed_time(cfg, eps)
    return predicted_pole(cfg, label, t), t


def strip_labels(cfg: SolitonConfig, direction: int) -> list[FamilyLabel]:
    """The 2(p1+p2) family labels whose positions lie in the fundamental
    strip -lambda pi < Im x <= lambda pi (commensurable configs only):
    slow indices m in (-2 p1, 2 p1], fast indices n in (-2 p2, 2 p2], odd.
    """
    if cfg.comm is None:
        raise ValueError("strip label enumeration requires commensurable mode")
    p1, p2 = cfg.comm.p1, cfg.comm.p2
    labels = [
        FamilyLabel(Speed.SLOW, m, direction)
        for m in range(-2 * p1 + 1, 2 * p1 + 1, 2)
    ]
    labels += [
        FamilyLabel(Speed.FAST, n, direction)
        for n in range(-2 * p2 + 1, 2 * p2 + 1, 2)
    ]
    return labels


@dataclass(frozen=True)
class CurveMatch:
    curve_index: int
    label: FamilyLabel
    endpoint: complex
    residual: float

    def to_dict(self) -> dict:
        return {
            "curve": self.curve_index,
            "label": repr(self.label),
            "endpoint": [self.endpoint.real, self.endpoint.imag],
            "residual": self.residual,
        }


@dataclass(frozen=True)
class MatchReport:
    """Bijective family assignment of tracked curves at one horizon."""

    T: float
    direction: int
    matches: tuple[CurveMatch, ...]
    unmatched: tuple[int, ...]
    max_residual: float

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "direction": self.direction,
            "matches": [m.to_dict() for m in self.matches],
            "unmatched": list(self.unmatched),
            "max_residual": self.max_residual,
        }


def _nearest_odd(v: float) -> int:
    m = int(math.floor(v))
    if m % 2 == 0:
        m += 1
    return m if abs(m - v) <= abs(m + 2 - v) else m + 2


def _family_distance(cfg: SolitonConfig, x: complex, pred: complex) -> float:
    """|x - pred| after quotienting the imaginary period (commensurable)."""
    delta = x - pred
    if cfg.comm is not None:
        period = cfg.comm.period  # 2 pi lambda
        im = math.remainder(delta.imag, period)
        delta = complex(delta.real, im)
    return abs(delta)


def _best_label(
    cfg: SolitonConfig, x: complex, t: float, direction: int
) -> tuple[FamilyLabel, float]:
    """Closest family label for an endpoint, searching both speed classes
    with the index recovered from the imaginary part."""
    log_gamma = math.log(cfg.gamma)
    candidates: list[FamilyLabel] = []
    # slow: Im x ~ -direction * m pi/(2 k1);  fast: Im x ~ -direction * n pi/(2 k2)
    for speed, k in ((Speed.SLOW, cfg.k1), (Speed.FAST, cfg.k2)):
        base_im = -direction * 2 * k * x.imag / math.pi
        for offset in (0, -2, 2):
            idx = _nearest_odd(base_im) + offset
            candidates.append(FamilyLabel(speed, idx, direction))
    # In commensurable mode indices are only defined modulo the strip; fold
    # them into the canonical ranges so labels are comparable.
    if cfg.comm is not None:
        folded = []
        for lab in candidates:
            span = 4 * (cfg.comm.p1 if lab.speed is Speed.SLOW else cfg.comm.p2)
            idx = lab.index
            lo = -span // 2 + 1  # exclusive lower bound -2p, inclusive upper 2p
            idx = (idx - lo) % span + lo
            folded.append(FamilyLabel(lab.speed, idx, lab.direction))
        candidates = folded
    best: tuple[Optional[FamilyLabel], float] = (None, math.inf)
    for lab in candidates:
        dist = _family_distance(cfg, x, predicted_pole(cfg, lab, t))
        if dist < best[1]:
            best = (lab, dist)
    assert best[0] is not None
    return best  # type: ignore[return-value]


def match_families(
    curves: Sequence[PoleCurve],
    cfg: SolitonConfig,
    T: float,
    direction: int = -1,
    attach: bool = True,
) -> MatchReport:
    """Assign each curve its asymptotic family at horizon t = direction*T.

    Every curve must have samples reaching that horizon.  The metric
    quotients the imaginary period in commensurable mode.  Two curves
    claiming the same label is an ambiguity error reporting both distances.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if direction not in (-1, 1):
        raise ValueError("direction must be -1 or +1")
    t_h = direction * T
    matches: list[CurveMatch] = []
    unmatched: list[int] = []
    claimed: dict[FamilyLabel, CurveMatch] = {}
    for i, curve in enumerate(curves):
        x_end = position_at(cfg.with_variant(curve.variant), curve, t_h)
        label, dist = _best_label(cfg, x_end, t_h, direction)
        entry = CurveMatch(i, label, x_end, dist)
        if label in claimed:
            other = claimed[label]
            raise ConvergenceError(
                f"ambiguous family match: curves {other.curve_index} and "
                f"{i} both nearest to {label!r} "
                f"(distances {other.residual:.3e}, {dist:.3e})"
            )
        claimed[label] = entry
        matches.append(entry)
        if attach:
            curve.family = label
    return MatchReport(
        T=T,
        direction=direction,
        matches=tuple(matches),
        unmatched=tuple(unmatched),
        max_residual=max((m.residual for m in matches), default=0.0),
    )


def match_horizons(cfg: SolitonConfig, T: float) -> list[MatchReport]:
    """Family match reports at t = -T and t = +T (in that order).

    Each horizon gets its own ensemble, seeded from the exact oracle at
    t = +-T and tracked one unit inward, rather than one sweep across
    [-T, T]: continuation through an exceptional collision can put two
    curves on one outgoing branch, which makes horizon matching
    ill-posed for reasons that say nothing about the family law.
    """
    reports = []
    for direction in (-1, 1):
        horizon = direction * T
        ensemble = track_ensemble(cfg, horizon, horizon - direction)
        reports.append(match_families(ensemble, cfg, T, direction))
    return reports

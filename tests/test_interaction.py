"""Interaction-point diagnostics: closed forms, measured speeds, maxima.

The critical ratio (3 + sqrt 5)/2 organizes everything in the plus
variant: the centered extremum degenerates there (u_xx(0,0) = 0), the
extremum-speed formula is singular there, and the two off-center
maxima merge into one centered peak exactly there.  The negative-speed
onset has its own closed form: the palindromic quartic numerator
factors through s = r + 1/r, giving onset = (s + sqrt(s^2 - 4))/2 with
s equal to the critical ratio.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest

from soliton_pole_lab import interaction
from soliton_pole_lab.interaction import (
    SWEEP_HEADER,
    _speed_estimate,
    count_maxima_at_interaction,
    extremum_speed,
    find_maxima,
    maxima_transition_ratio,
    measure_extremum_speed,
    measure_uxx_at_center,
    negative_speed_onset,
    sweep_rows,
    uxx_at_center,
)
from soliton_pole_lab.kernel import SolitonConfig, Variant, eval_u, eval_u_x, eval_u_xx

CRITICAL = (3.0 + math.sqrt(5.0)) / 2.0


def _random_configs(n: int, seed: int = 7) -> list[SolitonConfig]:
    """Generic draws, avoiding the degenerate plus band around the
    critical ratio where the closed forms vanish or blow up."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        k1 = rng.uniform(0.5, 2.0)
        while True:
            ratio = rng.uniform(1.3, 4.0)
            if abs(ratio - CRITICAL) > 0.1:
                break
        variant = "plus" if i % 2 == 0 else "minus"
        out.append(SolitonConfig.make(k1, k1 * ratio, variant))
    return out


class TestClosedForms:
    def test_uxx_anchors(self) -> None:
        assert uxx_at_center(SolitonConfig.make(1, 2, "plus")) == 1.0
        assert uxx_at_center(SolitonConfig.make(1, 4, "plus")) == -15.0
        assert uxx_at_center(SolitonConfig.make(1, 2, "minus")) == -33.0

    def test_minus_always_maximum(self) -> None:
        for cfg in _random_configs(10, seed=3):
            assert uxx_at_center(cfg.with_variant(Variant.MINUS)) < 0.0

    def test_plus_sign_flips_at_critical_ratio(self) -> None:
        below = SolitonConfig.make(1.0, CRITICAL - 0.05, "plus")
        above = SolitonConfig.make(1.0, CRITICAL + 0.05, "plus")
        assert uxx_at_center(below) > 0.0
        assert uxx_at_center(above) < 0.0

    def test_matches_kernel_second_derivative(self) -> None:
        # Independent route: the kernel differentiates 2 gamma G/F.
        for cfg in _random_configs(20):
            closed = uxx_at_center(cfg)
            kernel = eval_u_xx(cfg, 0.0, 0.0).real
            assert abs(kernel - closed) < 1e-12 * abs(closed)

    def test_speed_anchors(self) -> None:
        minus = extremum_speed(SolitonConfig.make(1, 2, "minus"))
        assert minus == pytest.approx(59.0 / 11.0, rel=1e-15)
        assert extremum_speed(SolitonConfig.make(1, 2, "plus")) == 1.0
        assert extremum_speed(SolitonConfig.make(1, 3, "plus")) == 19.0

    def test_speed_negative_window(self) -> None:
        # Negative between the quartic onset (~2.1537) and the
        # singular ratio, positive outside.
        assert extremum_speed(SolitonConfig.make(1.0, 2.1, "plus")) > 0.0
        assert extremum_speed(SolitonConfig.make(1.0, 2.2, "plus")) < 0.0
        assert extremum_speed(SolitonConfig.make(1.0, 2.6, "plus")) < 0.0
        assert extremum_speed(SolitonConfig.make(1.0, 2.7, "plus")) > 0.0

    def test_singular_configuration(self) -> None:
        cfg = SolitonConfig.make(1.0, CRITICAL, "plus")
        with pytest.raises(ValueError, match="singular"):
            extremum_speed(cfg)

    def test_shifts_rejected(self) -> None:
        cfg = SolitonConfig.make(1, 2, "plus", x1=0.5)
        with pytest.raises(ValueError, match="zero shifts"):
            uxx_at_center(cfg)
        with pytest.raises(ValueError, match="zero shifts"):
            extremum_speed(cfg)


class TestMeasured:
    def test_measured_speed_anchor(self) -> None:
        cfg = SolitonConfig.make(1, 2, "minus")
        measured = measure_extremum_speed(cfg)
        assert abs(measured - 59.0 / 11.0) < 1e-5 * (59.0 / 11.0)

    def test_measured_speed_plus(self) -> None:
        cfg = SolitonConfig.make(1, 4, "plus")
        closed = extremum_speed(cfg)  # 101/5
        assert closed == pytest.approx(20.2, rel=1e-15)
        assert abs(measure_extremum_speed(cfg) - closed) < 1e-5 * abs(closed)

    def test_h_halving_ratio(self) -> None:
        # The raw (non-extrapolated) scheme is O(h^2).
        cfg = SolitonConfig.make(1, 2, "minus")
        target = 59.0 / 11.0
        e1 = abs(_speed_estimate(cfg, 1e-2) - target)
        e2 = abs(_speed_estimate(cfg, 5e-3) - target)
        assert 3.5 < e1 / e2 < 4.5

    def test_random_draws_uxx(self) -> None:
        for cfg in _random_configs(20):
            closed = uxx_at_center(cfg)
            measured = measure_uxx_at_center(cfg)
            assert abs(measured - closed) < 1e-6 * abs(closed)

    def test_random_draws_speed(self) -> None:
        for cfg in _random_configs(20):
            closed = extremum_speed(cfg)
            measured = measure_extremum_speed(cfg)
            assert abs(measured - closed) < 1e-6 * max(1.0, abs(closed))

    def test_richardson_beats_raw(self) -> None:
        # measure_extremum_speed's combination of the h and h/2 estimates.
        cfg = SolitonConfig.make(1, 2, "minus")
        target = 59.0 / 11.0
        d_h = _speed_estimate(cfg, 1e-3)
        raw = abs(d_h - target)
        rich = abs((4.0 * _speed_estimate(cfg, 5e-4) - d_h) / 3.0 - target)
        assert rich < 1e-2 * raw

    def test_degenerate_second_derivative(self) -> None:
        cfg = SolitonConfig.make(1.0, CRITICAL, "plus")
        with pytest.raises(ValueError, match="vanishes"):
            measure_extremum_speed(cfg)


class TestMaxima:
    def test_two_maxima_below_critical(self) -> None:
        maxima = find_maxima(SolitonConfig.make(1, 2, "plus"))
        assert len(maxima) == 2
        # Symmetric about the interaction center.
        assert abs(maxima[0] + maxima[1]) < 1e-9
        assert abs(maxima[1] - 1.1245644580) < 1e-8

    def test_maxima_are_maxima(self) -> None:
        cfg = SolitonConfig.make(1, 2, "plus")
        center = eval_u(cfg, 0.0, 0.0).real
        for x in find_maxima(cfg):
            assert abs(eval_u_x(cfg, complex(x, 0.0), 0.0).real) < 1e-10
            assert eval_u_xx(cfg, complex(x, 0.0), 0.0).real < 0.0
            assert eval_u(cfg, complex(x, 0.0), 0.0).real > center

    def test_one_maximum_above_critical(self) -> None:
        maxima = find_maxima(SolitonConfig.make(1, 3, "plus"))
        assert len(maxima) == 1
        assert abs(maxima[0]) < 1e-9

    @pytest.mark.parametrize("k1,k2", [(1, 2), (1, 5), (2, 7)])
    def test_minus_single_maximum(self, k1: int, k2: int) -> None:
        assert count_maxima_at_interaction(SolitonConfig.make(k1, k2, "minus")) == 1

    def test_counts_scale_with_k(self) -> None:
        # u_c(x) = c u(cx) maps maxima abscissas through x -> x/c.
        base = find_maxima(SolitonConfig.make(1, 2, "plus"))
        scaled = find_maxima(SolitonConfig.make(2, 4, "plus"))
        assert len(scaled) == len(base) == 2
        for b, s in zip(base, scaled):
            assert abs(s - b / 2.0) < 1e-9

    def test_near_critical_counts(self) -> None:
        below = SolitonConfig.make(1.0, CRITICAL - 1e-4, "plus")
        above = SolitonConfig.make(1.0, CRITICAL + 1e-4, "plus")
        assert count_maxima_at_interaction(below) == 2
        assert count_maxima_at_interaction(above) == 1

    def test_transition_bracket(self) -> None:
        lo, hi = maxima_transition_ratio()
        assert 2.55 <= lo < hi <= 2.70
        assert hi - lo <= 1e-4 * (1.0 + 1e-12)
        assert lo < CRITICAL < hi

    def test_transition_bad_bracket(self) -> None:
        with pytest.raises(ValueError, match="straddle"):
            maxima_transition_ratio(lo=2.70, hi=2.80)


# sha256 of the reprs of find_maxima(cfg), joined by newlines, over each
# coprime p1 < p2 <= 9 in both variants and (1, sqrt 2)+; recorded when
# every window was scanned in a call of its own.
_MAXIMA_SPECS = [
    (p1, p2, v)
    for p2 in range(2, 10)
    for p1 in range(1, p2)
    if math.gcd(p1, p2) == 1
    for v in ("plus", "minus")
] + [(1.0, math.sqrt(2.0), "plus")]
_MAXIMA_DIGEST = "7b9551493700c4c0459c452e1b967ca73deae288d89c616134dd580f5024102f"


def test_maxima_census_matches_recorded_digest() -> None:
    assert len(_MAXIMA_SPECS) == 55
    text = "\n".join(repr(find_maxima(SolitonConfig.make(*s))) for s in _MAXIMA_SPECS)
    assert hashlib.sha256(text.encode()).hexdigest() == _MAXIMA_DIGEST


def test_maxima_raise_the_first_window_error(monkeypatch) -> None:
    """(1,2)+ has three windows: maxima near -1.12 and +1.12 and the
    minimum at 0.  Window 2's scan fails and window 1's polish fails: the
    error is the polish's, as when each window was scanned and polished
    before the next."""
    scan, polish = interaction.eval_u_x_grid, interaction.eval_u_x

    def failing_scan(cfg, xs, t):
        if np.any(np.abs(np.real(xs)) < 0.5):
            raise OverflowError("scan of window 2")
        return scan(cfg, xs, t)

    def failing_polish(cfg, x, t):
        if x.real < -0.5:
            raise ZeroDivisionError("polish of window 1")
        return polish(cfg, x, t)

    monkeypatch.setattr(interaction, "eval_u_x_grid", failing_scan)
    monkeypatch.setattr(interaction, "eval_u_x", failing_polish)
    with pytest.raises(ZeroDivisionError, match="polish of window 1"):
        find_maxima(SolitonConfig.make(1, 2, "plus"))


class TestOnset:
    def test_onset_closed_form(self) -> None:
        # The palindromic quartic r^4 - 3r^3 + 3r^2 - 3r + 1 factors
        # through s = r + 1/r: s^2 - 3s + 1 = 0, so s equals the
        # critical ratio and the onset is (s + sqrt(s^2 - 4))/2.
        expected = (CRITICAL + math.sqrt(CRITICAL * CRITICAL - 4.0)) / 2.0
        onset = negative_speed_onset()
        assert abs(onset - expected) < 1e-8
        assert abs(onset - 2.1537213755) < 1e-8

    def test_onset_is_sign_change(self) -> None:
        onset = negative_speed_onset()
        lo = extremum_speed(SolitonConfig.make(1.0, onset - 0.01, "plus"))
        hi = extremum_speed(SolitonConfig.make(1.0, onset + 0.01, "plus"))
        assert lo > 0.0 > hi

    def test_onset_bad_bracket(self) -> None:
        with pytest.raises(ValueError, match="straddle"):
            negative_speed_onset(lo=1.5, hi=2.0)


class TestSweep:
    def test_rows(self) -> None:
        rows = sweep_rows([2.0, 3.0])
        assert len(rows) == 2
        ratio, count, uxx, closed, measured = rows[0]
        assert (ratio, count, uxx, closed) == (2.0, 2, 1.0, 1.0)
        assert abs(measured - 1.0) < 1e-5
        ratio, count, uxx, closed, measured = rows[1]
        assert (ratio, count, uxx, closed) == (3.0, 1, -2.0, 19.0)
        assert abs(measured - 19.0) < 1e-4

    def test_singular_row_is_nan(self) -> None:
        (row,) = sweep_rows([CRITICAL])
        assert row[1] == 1
        assert row[2] == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(row[3]) and math.isnan(row[4])

    def test_header_matches_row_shape(self) -> None:
        (row,) = sweep_rows([2.0])
        assert len(SWEEP_HEADER) == len(row)

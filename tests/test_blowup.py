"""Blowup of shifted-line restrictions: crossings, sup ladders, rate fits.

The (1,2) plus-variant scenario is the workhorse: the auto-chosen line
sits midway between seed-time pole ordinates (alpha ~ 3pi/8), one pole
sweeps through it transversally near t ~ 0.13, and the sup norm follows
the simple-pole model sup|u| ~ 1 / (|Im x'| |t - t_star|).  Scaling
(k1,k2) -> (c k1, c k2) maps the whole scenario through
u_c(x,t) = c u(cx, c^3 t), which pins every measured quantity a second,
independent way.
"""

from __future__ import annotations

import math

import pytest

from soliton_pole_lab.blowup import (
    Crossing,
    GridSpec,
    ProfileSample,
    RateFit,
    _profile_at,
    blowup_profile,
    build_scenario,
    choose_alpha,
    coupled_system_residual,
    find_crossing,
    fit_blowup_rate,
)
from soliton_pole_lab.exppoly import oracle_poles
from soliton_pole_lab.kernel import (
    ConvergenceError,
    PoleError,
    SolitonConfig,
    Variant,
    eval_u,
)
from soliton_pole_lab.tracker import PoleCurve, position_at, track_curve

# Offsets |t - t_star| for the sup-norm ladder: two decades, five rungs.
DELTAS = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]


@pytest.fixture(scope="module")
def scenario12() -> object:
    """(1,2) plus scenario with its profile ladder already measured."""
    cfg = SolitonConfig.make(1, 2, "plus")
    scenario = build_scenario(cfg)
    blowup_profile(scenario, [scenario.t_star + d for d in DELTAS])
    return scenario


# ---------------------------------------------------------------------------
# Crossing detection.
# ---------------------------------------------------------------------------


class TestCrossing:
    def test_auto_alpha_is_midline(self, scenario12) -> None:
        # Seed ordinates straddle pi/4 and pi/2; the midpoint is 3pi/8.
        assert abs(scenario12.alpha - 3 * math.pi / 8) < 1e-6

    def test_crossing_anchor(self, scenario12) -> None:
        crossing = scenario12.crossing
        assert abs(crossing.t_star - 0.129921585) < 1e-6
        assert crossing.transversal
        # The root satisfies Im x(t_star) = -alpha to root tolerance.
        assert abs(crossing.x_star.imag + scenario12.alpha) < 1e-9
        assert abs(crossing.vertical_speed - 1.0799979) < 1e-5

    def test_vertical_speed_matches_curve_slope(self, scenario12) -> None:
        # Independent check: differentiate the tracked curve through t_star.
        cfg, curve = scenario12.cfg, scenario12.crossing_pole
        h = 1e-4
        lo = position_at(cfg, curve, scenario12.t_star - h).imag
        hi = position_at(cfg, curve, scenario12.t_star + h).imag
        fd = (hi - lo) / (2 * h)
        assert abs(fd - scenario12.crossing.vertical_speed) < 1e-4 * abs(fd)

    def test_crossing_to_dict(self, scenario12) -> None:
        d = scenario12.crossing.to_dict()
        assert set(d) == {"t_star", "x_star", "vertical_speed", "transversal"}
        assert d["transversal"] is True
        assert d["x_star"] == [
            scenario12.crossing.x_star.real,
            scenario12.crossing.x_star.imag,
        ]

    def test_too_few_samples(self) -> None:
        cfg = SolitonConfig.make(1, 2, "plus")
        stub = PoleCurve(variant=cfg.variant, samples=[(0.0, 0.5j)])
        with pytest.raises(ValueError, match="two samples"):
            find_crossing(cfg, stub, 0.5)

    def test_no_sign_change(self, scenario12) -> None:
        with pytest.raises(ValueError, match="no sign change"):
            find_crossing(scenario12.cfg, scenario12.crossing_pole, 10.0)

    def test_curve_tracked_backward_in_time(self, scenario12) -> None:
        # The crossing pole tracked from t = 6 back to t = -6 lists its
        # samples in decreasing t; the bracket must still be refined to the
        # forward curve's crossing, not left at an unrefined midpoint.
        cfg, alpha = scenario12.cfg, scenario12.alpha
        forward = scenario12.crossing_pole
        backward = track_curve(cfg, None, forward.x_last, forward.t_last, forward.t_first)
        assert backward.t_first > backward.t_last
        crossing = find_crossing(cfg, backward, alpha)
        assert abs(crossing.x_star.imag + alpha) < 1e-9
        assert abs(crossing.t_star - scenario12.crossing.t_star) < 1e-9

    def test_curve_of_the_other_variant_is_refused(self, scenario12) -> None:
        # The scenario profiles the config's field, so the crossing speed
        # must come from the field the curve belongs to.
        minus = scenario12.cfg.with_variant(Variant.MINUS)
        curve, alpha = scenario12.crossing_pole, scenario12.alpha
        with pytest.raises(ValueError, match="plus-variant.*minus variant"):
            find_crossing(minus, curve, alpha)
        with pytest.raises(ValueError, match="plus-variant.*minus variant"):
            build_scenario(minus, curves=[curve], alpha=alpha)

    @pytest.mark.parametrize("t_span", [0.0, -3.0, math.nan])
    def test_tracking_window_must_be_positive(self, t_span) -> None:
        # A negative span would seed at +|t_span| and track backwards; zero
        # fails in the tracker with an unrelated message.
        cfg = SolitonConfig.make(1, 2, "plus")
        with pytest.raises(ValueError, match="t_span must be positive"):
            build_scenario(cfg, t_span=t_span)

    def test_tangential_crossing_flagged(self) -> None:
        # (1,5) minus carries horizontally moving poles pinned to
        # Im x = -pi/2; the line alpha = pi/2 is grazed, never swept.
        cfg = SolitonConfig.make(1, 5, "minus")
        seed = next(
            x
            for x, _ in oracle_poles(cfg, t=-4.0)
            if abs(x.imag + math.pi / 2) < 1e-9
        )
        curve = track_curve(cfg, None, seed, -4.0, 4.0)
        crossing = find_crossing(cfg, curve, math.pi / 2)
        assert not crossing.transversal
        assert abs(crossing.vertical_speed) < 1e-8
        with pytest.raises(ConvergenceError, match="tangential"):
            build_scenario(cfg, curves=[curve], alpha=math.pi / 2)


class TestChooseAlpha:
    @staticmethod
    def _flat(imag: float) -> PoleCurve:
        return PoleCurve(
            variant=Variant.PLUS,
            samples=[(0.0, complex(0.0, imag)), (1.0, complex(1.0, imag))],
        )

    def test_sweeping_curve_wins(self) -> None:
        cfg = SolitonConfig.make(1, 2, "plus")
        sweeper = PoleCurve(
            variant=Variant.PLUS,
            samples=[
                (0.0, complex(0.0, -0.2)),
                (0.5, complex(0.5, -0.6)),
                (1.0, complex(1.0, -0.95)),
            ],
        )
        alpha, idx = choose_alpha(cfg, [self._flat(-1.0), sweeper])
        # Midpoint between seed ordinates -1.0 and -0.2 is -0.6.
        assert abs(alpha - 0.6) < 1e-12
        assert idx == 1

    def test_no_sweep_raises(self) -> None:
        cfg = SolitonConfig.make(1, 2, "plus")
        with pytest.raises(ValueError, match="sweeps across"):
            choose_alpha(cfg, [self._flat(-0.2), self._flat(-1.0)])

    def test_empty_raises(self) -> None:
        cfg = SolitonConfig.make(1, 2, "plus")
        with pytest.raises(ValueError, match="at least one"):
            choose_alpha(cfg, [])


# ---------------------------------------------------------------------------
# Sup-norm profiles.
# ---------------------------------------------------------------------------


class TestProfiles:
    def test_sup_grows_monotonically(self, scenario12) -> None:
        sups = [p.sup_abs for p in scenario12.series[: len(DELTAS)]]
        assert all(a < b for a, b in zip(sups, sups[1:]))

    def test_sup_matches_simple_pole_model(self, scenario12) -> None:
        # sup|u| * |t - t_star| * |Im x'| -> 1 linearly in the offset.
        speed = abs(scenario12.crossing.vertical_speed)
        for d, sample in zip(DELTAS, scenario12.series):
            assert abs(sample.sup_abs * d * speed - 1.0) < 2e-2
        last = scenario12.series[len(DELTAS) - 1]
        assert abs(last.sup_abs * DELTAS[-1] * speed - 1.0) < 2e-3

    def test_argmax_tracks_pole_abscissa(self, scenario12) -> None:
        t = scenario12.t_star + DELTAS[-1]
        pole = position_at(scenario12.cfg, scenario12.crossing_pole, t)
        sample = scenario12.series[len(DELTAS) - 1]
        assert abs(sample.argmax - pole.real) < 1e-5

    def test_tails_decay_at_slow_rate(self, scenario12) -> None:
        # Both spatial tails decay at rate k1 (the slow exponential wins
        # on each side of the shifted line).
        k1 = scenario12.cfg.k1
        for sample in scenario12.series[: len(DELTAS)]:
            assert abs(sample.tail_rate_left - k1) < 0.1 * k1
            assert abs(sample.tail_rate_right - k1) < 0.1 * k1

    def test_t_star_rejected(self, scenario12) -> None:
        with pytest.raises(ValueError, match="exclude t_star"):
            blowup_profile(scenario12, [scenario12.t_star])

    def test_off_center_grid_needs_deepening(self, scenario12) -> None:
        # When the grid is centered away from the pole abscissa, the
        # first 3 refinement levels under-resolve the peak (a fixed-depth
        # profile stayed below half the true sup); deepening until the
        # peak stops moving recovers it.
        cfg = scenario12.cfg
        t = scenario12.t_star + 1e-5
        center = scenario12.crossing.x_star.real + 0.013
        deep = _profile_at(cfg, scenario12.alpha, center, t, GridSpec(math.pi / 64))
        truth = 1.0 / (abs(scenario12.crossing.vertical_speed) * 1e-5)
        assert abs(deep.sup_abs - truth) < 2e-2 * truth

    def test_profile_to_dict(self, scenario12) -> None:
        d = scenario12.series[0].to_dict()
        assert set(d) == {
            "t",
            "sup_abs",
            "argmax",
            "tail_rate_left",
            "tail_rate_right",
        }

    def test_grid_to_dict(self, scenario12) -> None:
        d = scenario12.grid.to_dict()
        assert set(d) == {
            "spacing",
            "levels",
            "factor",
            "span",
            "boundary_tol",
            "auto_deepen",
        }
        assert d["levels"] == 3 and d["factor"] == 8

    def test_header_dict(self, scenario12) -> None:
        header = scenario12.header_dict()
        assert set(header) == {
            "k1",
            "k2",
            "variant",
            "x1",
            "x2",
            "alpha",
            "t_star",
            "vertical_speed",
            "transversal",
            "grid",
        }
        assert header["variant"] == "plus"
        assert header["grid"]["levels"] == 3


# ---------------------------------------------------------------------------
# Rate fit.
# ---------------------------------------------------------------------------


class TestRateFit:
    def test_exponent_and_amplitude(self, scenario12) -> None:
        fit = fit_blowup_rate(scenario12, series=scenario12.series[: len(DELTAS)])
        assert abs(fit.exponent + 1.0) < 0.05
        assert fit.r_squared > 0.999
        expected = 1.0 / abs(scenario12.crossing.vertical_speed)
        assert fit.predicted_amplitude == pytest.approx(expected)
        assert 0.95 < fit.amplitude_ratio < 1.05

    def test_fit_to_dict(self, scenario12) -> None:
        fit = fit_blowup_rate(scenario12, series=scenario12.series[: len(DELTAS)])
        d = fit.to_dict()
        assert set(d) == {
            "exponent",
            "amplitude",
            "r_squared",
            "predicted_amplitude",
            "amplitude_ratio",
        }
        assert d["amplitude_ratio"] == pytest.approx(
            d["amplitude"] / d["predicted_amplitude"]
        )

    def test_too_few_samples(self, scenario12) -> None:
        with pytest.raises(ValueError, match="at least 4"):
            fit_blowup_rate(scenario12, series=scenario12.series[:3])

    def test_needs_two_decades(self, scenario12) -> None:
        t_star = scenario12.t_star
        stubs = [
            ProfileSample(t_star + d, 1.0 / d, 0.0, 1.0, 1.0)
            for d in (1e-2, 5e-3, 2e-3, 1e-3)
        ]
        with pytest.raises(ValueError, match="two decades"):
            fit_blowup_rate(scenario12, series=stubs)

    def test_poor_fit_raises(self, scenario12) -> None:
        t_star = scenario12.t_star
        sups = [10.0, 10.0, 1000.0, 10.0]
        stubs = [
            ProfileSample(t_star + d, s, 0.0, 1.0, 1.0)
            for d, s in zip((1e-1, 1e-2, 1e-3, 1e-4), sups)
        ]
        with pytest.raises(ConvergenceError, match="poor power-law fit"):
            fit_blowup_rate(scenario12, series=stubs)


# ---------------------------------------------------------------------------
# Scaling covariance: u_c(x,t) = c u(cx, c^3 t).
# ---------------------------------------------------------------------------


class TestScaling:
    def test_pointwise_field_scaling(self) -> None:
        cfg1 = SolitonConfig.make(1, 2, "plus")
        cfg2 = SolitonConfig.make(2, 4, "plus")
        c = 2.0
        for x, t in [(0.3 - 0.4j, 0.2), (1.1 + 0.7j, -0.6), (-0.8 + 0.2j, 0.05)]:
            lhs = eval_u(cfg2, x, t)
            rhs = c * eval_u(cfg1, c * x, c**3 * t)
            assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_scenario_scaling(self, scenario12) -> None:
        # The (2,4) scenario is the (1,2) one mapped through the scaling
        # (alpha/2, t/8, 2 sup); time reflection may pick the mirror
        # crossing, flipping the sign of t_star and of the offset.
        sc2 = build_scenario(SolitonConfig.make(2, 4, "plus"))
        assert abs(sc2.alpha - scenario12.alpha / 2.0) < 1e-6
        assert abs(abs(sc2.t_star) - scenario12.t_star / 8.0) < 1e-6
        ratio = sc2.crossing.vertical_speed / scenario12.crossing.vertical_speed
        assert abs(abs(ratio) - 4.0) < 1e-6
        d = 1e-3
        mirror = -1.0 if sc2.t_star * scenario12.t_star < 0 else 1.0
        p2 = blowup_profile(sc2, [sc2.t_star + mirror * d / 8.0])[0]
        p1 = scenario12.series[DELTAS.index(d)]
        assert abs(p2.sup_abs - 2.0 * p1.sup_abs) < 1e-6 * p2.sup_abs


# ---------------------------------------------------------------------------
# The coupled real system on the shifted line.
# ---------------------------------------------------------------------------


class TestCoupledSystem:
    CFG = SolitonConfig.make(1, 2, "plus")
    ALPHA = 3 * math.pi / 8

    def test_residuals_small(self) -> None:
        res_r, res_s = coupled_system_residual(self.CFG, self.ALPHA, 0.8, -0.5, 1e-3)
        assert abs(res_r) < 1e-2
        assert abs(res_s) < 1e-2

    def test_second_order_convergence(self) -> None:
        r1 = coupled_system_residual(self.CFG, self.ALPHA, 0.8, -0.5, 1e-2)
        r2 = coupled_system_residual(self.CFG, self.ALPHA, 0.8, -0.5, 5e-3)
        assert 3.5 < r1[0] / r2[0] < 4.5
        assert 3.5 < r1[1] / r2[1] < 4.5

    def test_matches_complex_residual(self) -> None:
        # res_r + i res_s is exactly the real/imag split of the scalar
        # equation u_t + 6 u^2 u_x + u_xxx evaluated on the line.
        cfg, alpha, x, t, h = self.CFG, self.ALPHA, 0.8, -0.5, 1e-3

        def u(xx: float, tt: float) -> complex:
            return eval_u(cfg, complex(xx, -alpha), tt)

        up1, um1 = u(x + h, t), u(x - h, t)
        up2, um2 = u(x + 2 * h, t), u(x - 2 * h, t)
        ut = (u(x, t + h) - u(x, t - h)) / (2 * h)
        ux = (up1 - um1) / (2 * h)
        uxxx = (up2 - 2 * up1 + 2 * um1 - um2) / (2 * h**3)
        u0 = u(x, t)
        scalar = ut + 6 * u0 * u0 * ux + uxxx
        res_r, res_s = coupled_system_residual(cfg, alpha, x, t, h)
        assert abs(res_r - scalar.real) < 1e-12
        assert abs(res_s - scalar.imag) < 1e-12

    def test_halved_cross_term_fails(self) -> None:
        # Only cross coefficient 12 is solved; coefficient 2 leaves O(1)
        # residuals at a point where the derived system sits at O(h^2).
        derived = coupled_system_residual(self.CFG, self.ALPHA, 0.8, -0.5, 1e-3)
        halved = coupled_system_residual(
            self.CFG, self.ALPHA, 0.8, -0.5, 1e-3, cross_coeff=2.0
        )
        assert abs(halved[0]) > 1.0
        assert abs(halved[1]) > 1.0
        assert abs(halved[0]) > 1e3 * abs(derived[0])
        assert abs(halved[1]) > 1e3 * abs(derived[1])

    def test_minus_variant(self) -> None:
        res_r, res_s = coupled_system_residual(
            SolitonConfig.make(1, 2, "minus"), self.ALPHA, 0.8, -0.5, 1e-3
        )
        assert abs(res_r) < 1e-2 and abs(res_s) < 1e-2

    def test_stencil_on_pole(self, scenario12) -> None:
        with pytest.raises(PoleError, match="touches a pole"):
            coupled_system_residual(
                self.CFG,
                scenario12.alpha,
                scenario12.crossing.x_star.real,
                scenario12.t_star,
                1e-3,
            )

"""Tests for the structural checks: factorization, excluded lines, cosine
relations, the sign law, translation identities, and residues.

Hand-derived anchors: at x = 0, t = 0 with unit shifts the plus factors
are (2 i gamma, -2 i gamma); for (k1, k2) = (1, 2) the mixed-parity
translation is theta = pi; for (1, 5) plus and (1, 3) minus the odd-odd
shifts are (3 pi/2, pi/2); every residue of u is +i or -i (Laurent
balance of the field equation), with a trapezoid contour integral as the
independent oracle.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_pole_lab import analysis, kernel
from soliton_pole_lab._balanced import Scaled, ScaledGrid
from soliton_pole_lab.kernel import (
    ConvergenceError,
    F_scaled,
    PoleError,
    SolitonConfig,
    Variant,
    eval_f,
    eval_one_soliton,
    factor_scaled,
)
from soliton_pole_lab import exppoly
from soliton_pole_lab.exppoly import oracle_poles
from soliton_pole_lab.tracker import TrackerOptions, track_curve
from soliton_pole_lab.analysis import (
    check_no_real_poles,
    cos_identities_residual,
    factor_F,
    odd_parity_translation,
    odd_translation_residuals,
    parity_translation_theta,
    real_decomp,
    residue_at_pole,
    translation_residual,
    vertical_sign,
)
from soliton_pole_lab.analysis import _vertical_signs


def _line(imag: float, n: int = 4001, span: float = 20.0) -> list[complex]:
    return [complex(-span + 2 * span * i / (n - 1), imag) for i in range(n)]


# ---------------------------------------------------------------------------
# Real decomposition and factorization.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_real_decomp_reconstruction(variant):
    cfg = SolitonConfig.make(1, 2, variant, x1=0.3, x2=-0.2)
    rng = random.Random(3)
    for _ in range(50):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        t = rng.uniform(-2, 2)
        d = real_decomp(cfg, x, t)
        assert d.alpha == -x.imag
        assert d.a1 > 0 and d.a2 > 0
        for f, j in ((d.f1, 1), (d.f2, 2)):
            ref = eval_f(cfg, j, x, t)
            assert abs(f - ref) <= 1e-12 * abs(ref)
    d = real_decomp(cfg, 1.0 - 0.5j, 0.25)
    assert set(d.to_dict()) == {"alpha", "a1", "a2", "f1", "f2"}


def test_factor_anchor_at_origin():
    cfg = SolitonConfig.make(1, 2, "plus")
    F1, F2 = factor_F(cfg, 0j, 0.0)
    assert F1 == pytest.approx(6j)
    assert F2 == pytest.approx(-6j)
    assert F1 * F2 == pytest.approx(36.0)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_factorization_product(variant):
    cfg = SolitonConfig.make(1, 2, variant)
    rng = random.Random(17)
    for _ in range(500):
        x = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        t = rng.uniform(-2, 2)
        F1, F2 = factor_F(cfg, x, t)
        F = F_scaled(cfg, x, t).value()
        assert abs(F1 * F2 - F) <= 1e-12 * max(1e-300, abs(F))


def test_factor_zeros_pair_by_conjugation():
    """Whichever factor vanishes at a pole, the other vanishes at conj x."""
    cfg = SolitonConfig.make(1, 2, "plus")
    for x, _ in oracle_poles(cfg, t=0.25):
        r1 = factor_scaled(cfg, x, 0.25, 1).relative()
        r2 = factor_scaled(cfg, x, 0.25, 2).relative()
        which = 1 if r1 < r2 else 2
        other = 2 if which == 1 else 1
        assert min(r1, r2) < 1e-12
        assert factor_scaled(cfg, x.conjugate(), 0.25, other).relative() < 1e-12


# ---------------------------------------------------------------------------
# Excluded lines.
# ---------------------------------------------------------------------------


def test_no_zeros_on_real_axis_or_period_line():
    cfg = SolitonConfig.make(1, 5, "minus")
    scan = check_no_real_poles(cfg, 0.0)  # default real grid
    assert scan.min_residual > 1e-2
    assert scan.argmin.imag == 0.0
    scan_pi = check_no_real_poles(cfg, 0.0, _line(math.pi))
    assert scan_pi.min_residual > 1e-2
    # Same exclusion at a non-symmetric time and for the other variant.
    assert check_no_real_poles(cfg, 0.8).min_residual > 1e-2
    assert (
        check_no_real_poles(SolitonConfig.make(1, 2, "plus"), 0.3).min_residual
        > 1e-2
    )


def test_pole_line_dips_to_zero():
    """Im x = pi/2 carries the exceptional zero of (1, 5, minus) at t=0."""
    cfg = SolitonConfig.make(1, 5, "minus")
    scan = check_no_real_poles(cfg, 0.0, _line(math.pi / 2))
    assert scan.min_residual < 1e-20
    assert scan.argmin == pytest.approx(1j * math.pi / 2)
    d = scan.to_dict()
    assert d["samples"] == 4001 and d["t"] == 0.0


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        check_no_real_poles(SolitonConfig.make(1, 2), 0.0, [])


# ---------------------------------------------------------------------------
# Cosine relations.
# ---------------------------------------------------------------------------


def test_cos_identities_at_tracked_zeros():
    cfg = SolitonConfig.make(1, 2, "plus")
    hits = 0
    for t in (-1.2, -0.3, 0.0, 0.4, 2.0):
        for x, _ in oracle_poles(cfg, t=t):
            if factor_scaled(cfg, x, t, 1).relative() < 1e-8:
                rs = cos_identities_residual(cfg, x, t)
                assert max(rs) < 1e-8
                hits += 1
    assert hits >= 15  # half the poles belong to the first factor


def test_cos_identities_on_degenerate_line():
    """At the (1, 3, plus) t=0 zero x = -i pi/2, both cosines vanish
    together (alpha = pi/2 is an odd multiple of pi*lambda/2)."""
    cfg = SolitonConfig.make(1, 3, "plus")
    x = -1j * math.pi / 2
    assert factor_scaled(cfg, x, 0.0, 1).relative() < 1e-12
    rs = cos_identities_residual(cfg, x, 0.0)
    assert max(rs) < 1e-10
    d = real_decomp(cfg, x, 0.0)
    assert math.cos(cfg.k1 * d.alpha) == pytest.approx(0.0, abs=1e-12)
    assert math.cos(cfg.k2 * d.alpha) == pytest.approx(0.0, abs=1e-12)


def test_cos_identities_unit_moduli_zero():
    """The Re x = 0, t = 0 zero has A1 = A2 = 1 (the symmetric instant)."""
    cfg = SolitonConfig.make(1, 2, "plus")
    zeros = [x for x, _ in oracle_poles(cfg, t=0.0) if abs(x.real) < 1e-9]
    assert zeros
    d = real_decomp(cfg, zeros[0], 0.0)
    assert d.a1 == pytest.approx(1.0) and d.a2 == pytest.approx(1.0)


def test_cos_identities_errors():
    with pytest.raises(ValueError, match="plus"):
        cos_identities_residual(SolitonConfig.make(1, 2, "minus"), 1j, 0.0)
    with pytest.raises(PoleError, match="not a zero"):
        cos_identities_residual(SolitonConfig.make(1, 2, "plus"), 50 + 0.3j, 0.0)


# ---------------------------------------------------------------------------
# Vertical-motion sign law.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["plus", "minus"])
def tracked_samples(request):
    cfg = SolitonConfig.make(1, 2, request.param)
    out = []
    for x0, _ in oracle_poles(cfg, t=-6.0):
        curve = track_curve(cfg, None, x0, -6.0, 6.0)
        out.extend(curve.samples[::7])
    return cfg, out


def test_sign_law_on_tracked_zeros(tracked_samples):
    cfg, samples = tracked_samples
    decisive = 0
    for t, x in samples:
        vs = vertical_sign(cfg, x, t)
        assert vs.consistent, (t, x, vs)
        if vs.predicted_sign != 0 and vs.measured_sign != 0:
            decisive += 1
            assert vs.predicted_sign == vs.measured_sign
    assert decisive > len(samples) // 2


def test_sign_factor_table(tracked_samples):
    """Conjugate zeros belong to opposite factors and flip both the
    measured velocity and the prediction coherently."""
    cfg, samples = tracked_samples
    t, x = next((t, x) for t, x in samples if abs(t) > 2.0)
    vs = vertical_sign(cfg, x, t)
    vc = vertical_sign(cfg, x.conjugate(), t)
    assert {vs.factor, vc.factor} == {1, 2}
    assert vc.measured == pytest.approx(-vs.measured, rel=1e-6, abs=1e-14)
    assert vc.expression == pytest.approx(-vs.expression, rel=1e-12)


def test_sign_dead_zone_symmetric_instant():
    """A zero with Re x = 0 at t = 0 has A1 = 1, hence prediction 0."""
    cfg = SolitonConfig.make(1, 2, "plus")
    zeros = [x for x, _ in oracle_poles(cfg, t=0.0) if abs(x.real) < 1e-9]
    vs = vertical_sign(cfg, zeros[0], 0.0)
    assert vs.predicted_sign == 0
    assert abs(vs.expression) < 1e-12
    assert vs.consistent


def test_sign_dead_zone_exceptional_line():
    """The on-line pole of (1, 5, minus) after the collision: cos(k2 a)=0
    kills the prediction and the measured motion is horizontal."""
    cfg = SolitonConfig.make(1, 5, "minus")
    x = min(
        (x for x, _ in oracle_poles(cfg, t=0.5)),
        key=lambda z: abs(z.imag - math.pi / 2),
    )
    assert abs(x.imag - math.pi / 2) < 1e-10
    vs = vertical_sign(cfg, x, 0.5)
    assert vs.predicted_sign == 0
    assert vs.measured_sign == 0
    assert vs.consistent
    assert vs.to_dict()["consistent"] is True


@pytest.mark.parametrize("variant", ["plus", "minus"])
@pytest.mark.parametrize("t", [-10.0, 10.0])
def test_sign_law_where_a1_leaves_double_range(variant, t):
    """The far fast-family zeros of (2, 7) at |t| = 10 (Re x near -+490)
    have log A1 near +-900: A1 overflows at t = -10 and underflows to 0 at
    t = 10.  The law's amplitude A1 - 1/A1 is then an infinity of the
    exponent's sign, and the verdict stands."""
    cfg = SolitonConfig.make(2, 7, variant)
    far = [x for x, _ in oracle_poles(cfg, t=t) if abs(x.real) > 400.0]
    assert len(far) == 14
    for x in far:
        vs = vertical_sign(cfg, x, t)
        assert math.isinf(vs.expression)
        assert vs.predicted_sign == (1 if vs.expression > 0 else -1)
        assert vs.consistent


def test_sign_law_errors():
    with pytest.raises(PoleError, match="not a zero"):
        vertical_sign(SolitonConfig.make(1, 2, "plus"), 50 + 0.3j, 0.0)
    with pytest.raises(ConvergenceError, match="multiple zero|below threshold"):
        vertical_sign(SolitonConfig.make(1, 5, "minus"), 1j * math.pi / 2, 0.0)


# ---------------------------------------------------------------------------
# The batch form of the sign law against the scalar form.
# ---------------------------------------------------------------------------


def _scalar_signs(cfg, samples):
    """``vertical_sign`` per (t, x) sample, None where it raises PoleError or
    ConvergenceError."""
    out = []
    for t, x in samples:
        try:
            out.append(vertical_sign(cfg, x, t))
        except (PoleError, ConvergenceError):
            out.append(None)
    return out


def _assert_batch_equals_scalar(cfg, samples):
    """repr is exact for floats and tells -0.0 from 0.0."""
    got = _vertical_signs(cfg, [x for _, x in samples], [t for t, _ in samples])
    assert repr(got) == repr(_scalar_signs(cfg, samples))
    return got


_COPRIME_9 = [(a, b) for b in range(2, 10) for a in range(1, b) if math.gcd(a, b) == 1]


@given(
    pair=st.sampled_from(_COPRIME_9),
    variant=st.sampled_from(["plus", "minus"]),
    t0=st.floats(-6.0, 6.0),
    span=st.floats(0.2, 1.5),
    pick=st.integers(0, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_batch_sign_law_equals_scalar_property(pair, variant, t0, span, pick):
    """Every sample of one tracked curve, every oracle pole at its start
    (multiple roots give the ConvergenceError skip) and each pole moved off
    the zero set (the PoleError skip): the batch equals ``vertical_sign``
    bit for bit, skips included."""
    cfg = SolitonConfig.make(*pair, variant)
    poles = oracle_poles(cfg, t=t0)
    samples = [(t0, x) for x, _ in poles] + [(t0, x + 0.1) for x, _ in poles]
    x0, _ = poles[pick % len(poles)]
    t1 = t0 + (span if t0 < 0 else -span)
    try:
        samples += track_curve(cfg, None, x0, t0, t1).samples
    except ConvergenceError:
        pass  # a seed on a multiple root: the oracle poles still count
    got = _assert_batch_equals_scalar(cfg, samples)
    assert got.count(None) >= len(poles)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_batch_sign_law_where_a1_leaves_double_range(variant):
    """The far (2, 7) zeros at t = -+10, where A1 overflows or underflows,
    mixed with the near ones in one batch."""
    cfg = SolitonConfig.make(2, 7, variant)
    samples = [(t, x) for t in (-10.0, 10.0) for x, _ in oracle_poles(cfg, t=t)]
    got = _assert_batch_equals_scalar(cfg, samples)
    assert sum(1 for vs in got if vs is not None and math.isinf(vs.expression)) == 28


def test_batch_sign_law_on_the_collision_approach():
    """(1, 5, minus) curves tracked into the t = 0 collision, and the
    4-fold zeros at the collision itself."""
    cfg = SolitonConfig.make(1, 5, "minus")
    opts = TrackerOptions(dt_init=1e-4, collision_radius=1e-7)
    samples = [(0.0, x) for x, _ in oracle_poles(cfg, t=0.0)]
    for x0, _ in oracle_poles(cfg, t=-0.01):
        if abs(x0 - 1j * math.pi / 2) < 0.6:
            samples += track_curve(cfg, None, x0, -0.01, 0.0, opts).samples
    got = _assert_batch_equals_scalar(cfg, samples)
    assert None in got and any(vs is not None for vs in got)


def test_batch_sign_law_on_empty_input():
    assert _vertical_signs(SolitonConfig.make(1, 2, "plus"), [], []) == []


def test_batch_sign_law_raises_the_first_ratio_fault(monkeypatch):
    """F_t scaled by e^800 and more at chosen samples makes Ft / Fx overflow
    there, with a message of its own per sample.  The batch raises the
    scalar form's OverflowError, with its message, for the first such
    sample that is a simple zero: a sample that is not a zero is skipped
    before its ratio is formed, as in the scalar form."""
    cfg = SolitonConfig.make(1, 2, "plus")
    zeros = [(0.4, x) for x, _ in oracle_poles(cfg, t=0.4)]
    samples = [zeros[0], (0.4, zeros[1][1] + 0.1), zeros[1], zeros[2], zeros[3]]
    forced = {samples[1][1]: 900.0, samples[3][1]: 800.0, samples[4][1]: 850.0}
    factor_scaled_, factor_grid_ = analysis.factor_scaled, analysis._factor_grid

    def scalar(cfg, x, t, which, dx=0, dt=0):
        v = factor_scaled_(cfg, x, t, which, dx, dt)
        return v * Scaled(1.0, forced[x], 1.0) if dt and x in forced else v

    def grid(cfg, xs, t, which, dx=0, dt=0):
        v = factor_grid_(cfg, xs, t, which, dx, dt)
        if dt:
            shift = np.array([forced.get(complex(x), 0.0) for x in xs])
            v = ScaledGrid(v.re, v.im, v.log + shift, v.norm)
        return v

    monkeypatch.setattr(analysis, "factor_scaled", scalar)
    monkeypatch.setattr(analysis, "_factor_grid", grid)

    def first_error():
        with pytest.raises(OverflowError) as got:
            _vertical_signs(cfg, [x for _, x in samples], [t for t, _ in samples])
        return str(got.value)

    with pytest.raises(PoleError):
        vertical_sign(cfg, samples[1][1], 0.4)
    assert vertical_sign(cfg, samples[2][1], 0.4) is not None
    messages = []
    for _, x in samples[3:]:
        with pytest.raises(OverflowError, match="representable range in ratio") as want:
            vertical_sign(cfg, x, 0.4)
        messages.append(str(want.value))
    assert messages[0] != messages[1]
    assert first_error() == messages[0]
    # Without the fault at samples[3] the first one left is samples[4]'s.
    del forced[samples[3][1]]
    assert first_error() == messages[1]


# ---------------------------------------------------------------------------
# Translation identities.
# ---------------------------------------------------------------------------


def test_mixed_parity_theta():
    for k1, k2 in ((1, 2), (2, 3), (1, 4), (3, 4)):
        cfg = SolitonConfig.make(k1, k2, "plus")
        theta = parity_translation_theta(cfg)
        assert theta == pytest.approx(math.pi * cfg.comm.lam)
    # Spot value from the statement of the identity.
    cfg = SolitonConfig.make(1, 2, "plus")
    assert translation_residual(cfg, 0.3 + 0.1j, 0.2, math.pi) < 1e-10
    rng = random.Random(7)
    worst = 0.0
    for _ in range(200):
        x = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        t = rng.uniform(-2, 2)
        worst = max(worst, translation_residual(cfg, x, t, math.pi))
    assert worst < 1e-10


def test_mixed_parity_pole_sets_translate():
    """Pole set of the minus variant = pole set of the plus variant
    shifted by -i theta (mod the vertical period)."""
    period = 2 * math.pi

    def fold(z: complex) -> complex:
        y = (z.imag + math.pi) % period - math.pi
        return complex(z.real, math.pi if y == -math.pi else y)

    plus = sorted(
        (fold(x) for x, _ in oracle_poles(SolitonConfig.make(1, 2, "plus"), t=0.37)),
        key=lambda z: (round(z.imag, 6), z.real),
    )
    minus = sorted(
        (
            fold(x - 1j * math.pi)
            for x, _ in oracle_poles(SolitonConfig.make(1, 2, "minus"), t=0.37)
        ),
        key=lambda z: (round(z.imag, 6), z.real),
    )
    assert max(abs(a - b) for a, b in zip(plus, minus)) < 1e-9


def test_mixed_parity_preconditions():
    with pytest.raises(ValueError, match="opposite parity"):
        parity_translation_theta(SolitonConfig.make(1, 5, "minus"))
    with pytest.raises(ValueError, match="commensurable"):
        parity_translation_theta(SolitonConfig.make(1.0, 2.3))


def test_odd_parity_thetas():
    lam_pi = math.pi  # lambda = 1 for all three configurations below
    t1, t2 = odd_parity_translation(SolitonConfig.make(1, 5, "plus"))
    assert (t1, t2) == pytest.approx((1.5 * lam_pi, 0.5 * lam_pi))
    t1, t2 = odd_parity_translation(SolitonConfig.make(1, 3, "minus"))
    assert (t1, t2) == pytest.approx((1.5 * lam_pi, 0.5 * lam_pi))
    t1, t2 = odd_parity_translation(SolitonConfig.make(3, 5, "minus"))
    assert (t1, t2) == pytest.approx((0.5 * lam_pi, 1.5 * lam_pi))


def test_odd_parity_identity_residuals():
    cfg = SolitonConfig.make(1, 3, "minus")
    t1, t2 = odd_parity_translation(cfg)
    rng = random.Random(23)
    for _ in range(100):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        t = rng.uniform(-1.5, 1.5)
        r1, r2 = odd_translation_residuals(cfg, t1, t2, x, t)
        assert max(r1, r2) < 1e-10


def test_odd_parity_preconditions():
    with pytest.raises(ValueError, match="p2 \\+ p1 = 6"):
        odd_parity_translation(SolitonConfig.make(1, 5, "minus"))
    with pytest.raises(ValueError, match="p2 - p1 = 2"):
        odd_parity_translation(SolitonConfig.make(1, 3, "plus"))
    with pytest.raises(ValueError, match="odd"):
        odd_parity_translation(SolitonConfig.make(1, 2, "plus"))
    with pytest.raises(ValueError, match="commensurable"):
        odd_parity_translation(SolitonConfig.make(1.0, 2.3, "plus"))


@pytest.mark.parametrize(
    "spec, theta_of",
    [((1, 2, "plus"), parity_translation_theta), ((1, 3, "minus"), odd_parity_translation)],
)
def test_translation_thetas_evaluate_nothing(monkeypatch, spec, theta_of):
    # The theta functions prove their identity from the term tables; only
    # the sampled residuals evaluate F.
    calls = []
    for name in ("_eval_terms", "_eval_terms_grid"):
        original = getattr(kernel, name)
        monkeypatch.setattr(
            kernel,
            name,
            lambda *a, _name=name, _original=original, **k: calls.append(_name)
            or _original(*a, **k),
        )
    # The point evaluator is spied on the class, which every module that
    # imports it shares.
    init = kernel._FPointEval.__init__
    monkeypatch.setattr(
        kernel._FPointEval,
        "__init__",
        lambda self, cfg: calls.append("_FPointEval") or init(self, cfg),
    )
    cfg = SolitonConfig.make(*spec)
    # The spies see evaluator calls: the sampled residuals and a residue
    # at an oracle pole make them.
    translation_residual(cfg, 0.3 + 0.1j, 0.2, math.pi)
    assert calls
    calls.clear()
    c12 = SolitonConfig.make(1, 2, "plus")
    (x_pole, _), *_ = oracle_poles(c12, t=0.2)
    residue_at_pole(c12, x_pole, 0.2)
    assert "_FPointEval" in calls
    calls.clear()
    theta_of(cfg)
    assert calls == []


# ---------------------------------------------------------------------------
# Residues.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_residues_are_plus_minus_i(variant):
    cfg = SolitonConfig.make(1, 2, variant)
    for t in (-0.7, 0.0, 1.3):
        seen = {1: 0, -1: 0}
        for x, _ in oracle_poles(cfg, t=t):
            r = residue_at_pole(cfg, x, t)  # the contour check always runs
            dev = min(abs(r - 1j), abs(r + 1j))
            assert dev < 1e-8
            seen[1 if r.imag > 0 else -1] += 1
        assert seen[1] == 3 and seen[-1] == 3  # conjugate pairing


def test_residue_solves_one_snapshot(monkeypatch):
    # An exact config's contour radius comes from one oracle solve per call.
    cfg = SolitonConfig.make(1, 2, "plus")
    poles = oracle_poles(cfg, t=0.4)
    solves = []
    solve = exppoly.roots_at_time
    monkeypatch.setattr(
        exppoly, "roots_at_time", lambda *a, **k: solves.append(a) or solve(*a, **k)
    )
    for x, _ in poles:
        residue_at_pole(cfg, x, 0.4)
    assert len(solves) == len(poles)


def test_residue_conjugate_symmetry():
    cfg = SolitonConfig.make(1, 2, "plus")
    for x, _ in oracle_poles(cfg, t=0.6)[:3]:
        r = residue_at_pole(cfg, x, 0.6)
        rc = residue_at_pole(cfg, x.conjugate(), 0.6)
        assert rc == pytest.approx(r.conjugate(), abs=1e-10)


def test_residue_one_soliton_contour_oracle():
    """Brute-force contour integral of the one-soliton at i pi/(2k)."""
    k = 1.3
    x0 = 1j * math.pi / (2 * k)
    n, rad = 256, 1e-3
    total = 0j
    for j in range(n):
        ph = cmath.exp(2j * math.pi * j / n)
        u = eval_one_soliton(k, 0.0, x0 + rad * ph, 0.0)
        total += u * ph
    assert total * rad / n == pytest.approx(1j, abs=1e-6)


def test_residue_incommensurable_config():
    from soliton_pole_lab.asymptotics import FamilyLabel, Speed, seed_state

    cfg = SolitonConfig.make(1.0, 2.3, "plus")
    x0, t0 = seed_state(cfg, FamilyLabel(Speed.SLOW, 1, -1))
    r = residue_at_pole(cfg, x0, t0)
    assert min(abs(r - 1j), abs(r + 1j)) < 1e-8


def test_residue_errors():
    with pytest.raises(ConvergenceError, match="multiple zero"):
        residue_at_pole(SolitonConfig.make(1, 5, "minus"), 1j * math.pi / 2, 0.0)
    with pytest.raises(PoleError, match="did not polish"):
        residue_at_pole(SolitonConfig.make(1, 2, "plus"), 40 + 0.2j, 0.0)

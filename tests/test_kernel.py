"""Kernel tests: frozen hand-derived values plus structural invariants.

Every frozen constant below was computed by hand from the closed forms
stated in the kernel docstrings (f_j, F, G, gamma), not by running the code,
so these tests are an independent check of the implementation.
"""

import cmath
import math
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soliton_pole_lab import kernel
from soliton_pole_lab.kernel import (
    PoleError,
    PoleMarker,
    SolitonConfig,
    Variant,
    eqg_residual,
    eval_f,
    eval_FG,
    eval_g,
    eval_one_soliton,
    eval_u,
    eval_u_sumform,
    eval_u_x,
    eval_u_xx,
    interaction_point,
    one_soliton_pole,
    pde_residual,
    strip_scale,
    symmetric_center,
)

C12M = SolitonConfig.make(1, 2, "minus")
C12P = SolitonConfig.make(1, 2, "plus")


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / (1.0 + abs(b))


# ---------------------------------------------------------------------------
# Config construction
# ---------------------------------------------------------------------------


def test_make_exact_int_inputs() -> None:
    cfg = SolitonConfig.make(1, 2)
    assert cfg.exact
    assert cfg.comm is not None
    assert (cfg.comm.p1, cfg.comm.p2) == (1, 2)
    assert cfg.comm.lam == pytest.approx(1.0)
    assert cfg.gamma == pytest.approx(3.0)


def test_make_exact_fraction_strings() -> None:
    cfg = SolitonConfig.make("3/2", "5/2")
    assert cfg.comm is not None
    assert (cfg.comm.p1, cfg.comm.p2) == (3, 5)
    # lam = p1/k1 = 3/(3/2) = 2, so the imaginary period is 4*pi.
    assert cfg.comm.lam == pytest.approx(2.0)
    assert cfg.comm.period == pytest.approx(4.0 * math.pi)


def test_make_float_inputs_are_approximate() -> None:
    assert SolitonConfig.make(1.0, 2.0).comm is None
    assert SolitonConfig.make(1, "1.5").comm is None
    assert SolitonConfig.make(1.0, math.sqrt(2.0)).comm is None


def test_make_rejects_bad_wavenumbers() -> None:
    with pytest.raises(ValueError):
        SolitonConfig.make(2, 1)
    with pytest.raises(ValueError):
        SolitonConfig.make(0, 1)
    with pytest.raises(ValueError):
        SolitonConfig.make(-1, 2)


@pytest.mark.parametrize(
    "k1, k2, shifts, match",
    [
        (1, math.inf, {}, "finite"),
        (1, "inf", {}, "finite"),
        (1, 2, {"x1": math.nan}, "finite"),
        (1, 2, {"x2": -math.inf}, "finite"),
        ("1/0", 2, {}, "zero denominator"),
        (1, "2/0", {}, "zero denominator"),
        (1, 10**400, {}, "overflows"),
    ],
    ids=["inf", "inf-str", "nan-x1", "inf-x2", "p/0", "q/0", "huge-int"],
)
def test_make_rejects_non_finite_inputs(k1, k2, shifts, match) -> None:
    # An infinite k2 used to build a config with gamma = nan, and 'p/0'
    # used to escape as ZeroDivisionError.
    with pytest.raises(ValueError, match=match):
        SolitonConfig.make(k1, k2, **shifts)


def test_direct_construction_rejects_non_finite_fields() -> None:
    with pytest.raises(ValueError, match="finite"):
        SolitonConfig(k1=1.0, k2=math.inf)
    with pytest.raises(ValueError, match="finite"):
        SolitonConfig.make(1, 2).with_shifts(0.0, math.inf)


@dataclass(frozen=True)
class _Leaf:
    z: complex

    def to_dict(self) -> dict:
        return {"leaf": self.z.real}


@dataclass(frozen=True)
class _Record:
    z: complex
    leaves: tuple
    label: Optional[str]
    n: int
    elapsed_s: float = field(default=0.0, compare=False)


def test_record_dict_states_the_export_rule() -> None:
    rec = _Record(1.5 - 2j, (_Leaf(3j), _Leaf(4.0 + 0j)), None, 7, elapsed_s=0.25)
    got = kernel._record_dict(rec, extra=(1, 2j))
    assert got == {
        "z": [1.5, -2.0],
        "leaves": [{"leaf": 0.0}, {"leaf": 4.0}],
        "label": None,
        "n": 7,
        "extra": (1, 2j),
    }
    # Compared fields in declaration order, then the extras; the
    # compare=False timing stays out.
    assert list(got) == ["z", "leaves", "label", "n", "extra"]


def test_variant_coercion() -> None:
    assert SolitonConfig.make(1, 2, "PLUS").variant is Variant.PLUS
    assert SolitonConfig.make(1, 2, Variant.MINUS).variant is Variant.MINUS
    with pytest.raises(ValueError):
        Variant.coerce("sideways")


def test_strip_scale() -> None:
    assert strip_scale(C12M) == pytest.approx(math.pi)  # lam = 1
    approx_cfg = SolitonConfig.make(1.0, 2.5)
    assert strip_scale(approx_cfg) == pytest.approx(math.pi / 2.5)


# ---------------------------------------------------------------------------
# f_j and the angle representation g
# ---------------------------------------------------------------------------


def test_eval_f_hand_values() -> None:
    # w = -k(x - xs) + k^3 t; (k=1, x=1, t=1) gives w = 0.
    assert eval_f(C12M, 1, 1.0, 1.0) == pytest.approx(1.0)
    # (k=2, x = 1 + i pi/2, t=0): w = -2 - i pi, so f = -e^{-2}.
    got = eval_f(C12M, 2, 1.0 + 0.5j * math.pi, 0.0)
    assert rel(got, -math.exp(-2.0)) < 1e-14
    # Shifts translate the profile: x1 = 0.5 puts f_1 = 1 at x = 0.5.
    shifted = SolitonConfig.make(1, 2, x1=0.5)
    assert eval_f(shifted, 1, 0.5, 0.0) == pytest.approx(1.0)


def test_eval_f_overflow_names_exponent() -> None:
    with pytest.raises(OverflowError, match="exponent"):
        eval_f(C12M, 2, -400.0, 0.0)


def test_eval_f_raises_only_beyond_the_float_limit() -> None:
    # e^709.5 = 1.35e308 is a normal double; e^710 is not.
    cfg = SolitonConfig.make(1, 2, "plus")
    assert eval_f(cfg, 1, -709.5, 0.0) == cmath.exp(709.5)
    assert eval_f(cfg, 1, -709.5 + 2.0j, 0.0) == cmath.exp(709.5 - 2.0j)
    with pytest.raises(OverflowError, match=r"exponent 710\.000 of f_1"):
        eval_f(cfg, 1, -710.0, 0.0)


def test_eval_f_bad_index() -> None:
    with pytest.raises(ValueError):
        eval_f(C12M, 3, 0.0, 0.0)


def test_eval_g_minus_hand_values() -> None:
    # At the origin f1 = f2 = 1: g_minus = gamma (1-1)/(1+1) = 0.
    assert eval_g(C12M, 0.0, 0.0) == pytest.approx(0.0)
    # At x = log 2: f1 = 1/2, f2 = 1/4, g = 3(1/4)/(9/8) = 2/3.
    got = eval_g(C12M, math.log(2.0), 0.0)
    assert rel(got, 2.0 / 3.0) < 1e-14


def test_eval_g_plus_pole_at_origin() -> None:
    # g_plus denominator 1 - f1 f2 vanishes at the origin.
    marker = eval_g(C12P, 0.0, 0.0)
    assert isinstance(marker, PoleMarker)
    assert marker.x == 0.0
    assert marker.magnitude < 1e-12


def test_u_is_twice_darctan_g() -> None:
    # u = 2 (arctan g)_x, checked by central differences on arctan(g).
    h = 1e-6
    for cfg, x, t in [
        (C12M, 0.3, 0.05),
        (C12M, -0.8 + 0.4j, -0.2),
        (C12P, 0.9 + 0.1j, 0.1),
    ]:
        gp = eval_g(cfg, x + h, t)
        gm = eval_g(cfg, x - h, t)
        assert not isinstance(gp, PoleMarker) and not isinstance(gm, PoleMarker)
        du = (cmath.atan(gp) - cmath.atan(gm)) / h  # = 2 * d/dx arctan g
        u = eval_u(cfg, x, t)
        assert not isinstance(u, PoleMarker)
        assert rel(du, u) < 1e-8


# ---------------------------------------------------------------------------
# F, G, u at the normalized interaction point (hand values)
# ---------------------------------------------------------------------------


def test_FG_minus_origin() -> None:
    # f1 = f2 = 1: F- = (1+1)^2 + 0 = 4, G- = -k1*2 + k2*2 = 2(k2-k1) = 2.
    F, G = eval_FG(C12M, 0.0, 0.0)
    assert rel(F, 4.0) < 1e-14
    assert rel(G, 2.0) < 1e-14
    # u- (0,0) = 2*gamma*G/F = k1 + k2 = 3.
    assert rel(eval_u(C12M, 0.0, 0.0), 3.0) < 1e-14


def test_FG_plus_origin() -> None:
    # f1 = f2 = 1: F+ = 0 + gamma^2*4 = 36, G+ = 2(k1+k2) = 6.
    F, G = eval_FG(C12P, 0.0, 0.0)
    assert rel(F, 36.0) < 1e-14
    assert rel(G, 6.0) < 1e-14
    # u+ (0,0) = 2*3*6/36 = k2 - k1 = 1.
    assert rel(eval_u(C12P, 0.0, 0.0), 1.0) < 1e-14


def test_u_pole_detection_on_known_zero_of_F() -> None:
    # For k1=1, k2=5 (gamma = 3/2) the Minus denominator F(., 0) vanishes to
    # 4th order at x = -i pi/2 (y = e^{-x} = i):
    #   F = y^12 + (9/4) y^10 - (5/2) y^6 + (9/4) y^2 + 1 = 0 at y = i.
    cfg = SolitonConfig.make(1, 5, "minus")
    got = eval_u(cfg, -0.5j * math.pi, 0.0)
    assert isinstance(got, PoleMarker)


def test_u_far_field_decays_on_real_axis() -> None:
    # Far from both solitons the solution is exponentially small.
    val = eval_u(C12M, 60.0, 0.0)
    assert not isinstance(val, PoleMarker)
    assert abs(val) < 1e-20


def test_u_no_overflow_at_large_negative_x() -> None:
    # Naive evaluation of F would overflow (f_j huge); balanced must not.
    val = eval_u(C12M, -400.0, 0.0)
    assert not isinstance(val, PoleMarker)
    assert abs(val) < 1e-20


# ---------------------------------------------------------------------------
# One-soliton evaluator
# ---------------------------------------------------------------------------


def test_one_soliton_peak_and_values() -> None:
    # At x = x0 + k^2 t the argument vanishes: u = -k sech(0) = -k.
    assert rel(eval_one_soliton(1.0, 0.0, 0.0, 0.0), -1.0) < 1e-14
    assert rel(eval_one_soliton(2.0, 0.3, 0.3 + 4.0 * 0.7, 0.7), -2.0) < 1e-14
    # sech(-1) = 2/(e + 1/e)
    want = -2.0 / (math.e + 1.0 / math.e)
    assert rel(eval_one_soliton(1.0, 0.0, 1.0, 0.0), want) < 1e-14


def test_one_soliton_pole_lattice() -> None:
    k, x0, t = 2.0, 0.1, 0.3
    for m in (-3, -1, 1, 3, 5):
        xp = one_soliton_pole(k, x0, t, m)
        assert xp == pytest.approx(x0 + k * k * t + 1j * m * math.pi / (2 * k))
        assert isinstance(eval_one_soliton(k, x0, xp, t), PoleMarker)
    with pytest.raises(ValueError):
        one_soliton_pole(k, x0, t, 2)


def test_one_soliton_residue_sign() -> None:
    # Near a simple pole xp, u ~ r/(x - xp); the residue of -k sech at the
    # m=1 pole is -k * (residue of sech at i pi/2)/(-k) = ... check numerically
    # that (x - xp) * u tends to a constant of modulus 1 (residue is +-i).
    k, x0, t = 1.0, 0.0, 0.0
    xp = one_soliton_pole(k, x0, t, 1)
    for eps in (1e-4, 1e-5):
        v = eval_one_soliton(k, x0, xp + eps, t)
        assert abs(abs(eps * v) - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# Interaction geometry
# ---------------------------------------------------------------------------


def test_interaction_point_hand_value() -> None:
    # k1=1, k2=2, zero shifts: t0 = -log(3)/6, x0 = -7 log(3)/6.
    x0, t0 = interaction_point(C12M)
    assert t0 == pytest.approx(-math.log(3.0) / 6.0, rel=1e-14)
    assert x0 == pytest.approx(-7.0 * math.log(3.0) / 6.0, rel=1e-14)


def test_interaction_point_shift_dependence() -> None:
    # The shift terms enter linearly: t0 picks up -(x2-x1)/(k2^2-k1^2).
    cfg = SolitonConfig.make(1, 2, x1=0.3, x2=-0.2)
    x0, t0 = interaction_point(cfg)
    assert t0 == pytest.approx(0.5 / 3.0 - math.log(3.0) / 6.0, rel=1e-13)
    assert x0 == pytest.approx(
        (4 * 0.3 + 0.2) / 3.0 - 7.0 * math.log(3.0) / 6.0, rel=1e-13
    )


def test_symmetric_center_matches_evenness() -> None:
    # The config with shifts (x1 - log(gamma)/k1, x2 - log(gamma)/k2) is even
    # in x about the interaction point of the unshifted parametrization.
    base = SolitonConfig.make(1, 2, "minus", x1=0.3, x2=-0.2)
    x0, t0 = interaction_point(base)
    lg = math.log(base.gamma)
    sym = base.with_shifts(0.3 - lg / 1.0, -0.2 - lg / 2.0)
    cx, ct = symmetric_center(sym)
    assert cx == pytest.approx(x0, rel=1e-12)
    assert ct == pytest.approx(t0, rel=1e-12)
    for xi in (0.4, 0.9 + 0.3j, -1.2 + 0.7j, 2.1 - 0.4j, 0.05 + 0.3j):
        left = eval_u(sym, x0 - xi, t0)
        right = eval_u(sym, x0 + xi, t0)
        assert not isinstance(left, PoleMarker)
        assert not isinstance(right, PoleMarker)
        assert rel(left, right) < 1e-11


def test_normalized_config_symmetric_about_origin() -> None:
    for cfg in (C12M, C12P):
        assert symmetric_center(cfg) == (0.0, 0.0)
        for xi in (0.7, 1.1 - 0.4j):
            a = eval_u(cfg, -xi, 0.0)
            b = eval_u(cfg, xi, 0.0)
            assert rel(a, b) < 1e-12


# ---------------------------------------------------------------------------
# Dual-route agreement and invariances
# ---------------------------------------------------------------------------


def _sample_points(seed: int, n: int) -> list[tuple[complex, float]]:
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        x = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        t = rng.uniform(-2.0, 2.0)
        pts.append((x, t))
    return pts


def test_sumform_agrees_with_ratio_form() -> None:
    accepted = 0
    for cfg in (C12M, C12P, SolitonConfig.make(1, 3, "minus")):
        for x, t in _sample_points(11, 40):
            a = eval_u(cfg, x, t)
            b = eval_u_sumform(cfg, x, t)
            if isinstance(a, PoleMarker) or isinstance(b, PoleMarker):
                continue
            if abs(a) > 1e3:
                continue
            assert abs(a - b) < 1e-12 * (1.0 + abs(a))
            accepted += 1
    assert accepted > 80


def test_conjugation_symmetry() -> None:
    # Real coefficients: u(conj x, t) = conj(u(x, t)).
    for cfg in (C12M, C12P):
        for x, t in _sample_points(23, 25):
            a = eval_u(cfg, x, t)
            b = eval_u(cfg, x.conjugate(), t)
            if isinstance(a, PoleMarker) or isinstance(b, PoleMarker):
                continue
            assert rel(b, a.conjugate()) < 1e-12


def test_space_time_reflection() -> None:
    # Zero shifts: f_j(-x, -t) = 1/f_j(x, t) leaves u unchanged.
    for cfg in (C12M, C12P):
        for x, t in _sample_points(37, 25):
            a = eval_u(cfg, x, t)
            b = eval_u(cfg, -x, -t)
            if isinstance(a, PoleMarker) or isinstance(b, PoleMarker):
                continue
            assert rel(b, a) < 1e-11


def test_variant_exchange_via_imaginary_shift() -> None:
    # For k1=1, k2=2: x -> x - i pi flips f1 and fixes f2, so
    # u_minus(x - i pi, t) = u_plus(x, t).
    for x, t in _sample_points(51, 25):
        a = eval_u(C12P, x, t)
        b = eval_u(C12M, x - 1j * math.pi, t)
        if isinstance(a, PoleMarker) or isinstance(b, PoleMarker):
            continue
        assert rel(b, a) < 1e-11


def test_imaginary_periodicity_commensurable() -> None:
    # (k1, k2) = (2, 3): lam = 1, imaginary period 2 pi.
    cfg = SolitonConfig.make(2, 3, "minus")
    assert cfg.comm is not None and cfg.comm.lam == pytest.approx(1.0)
    period = 1j * cfg.comm.period
    for x, t in _sample_points(73, 20):
        a = eval_u(cfg, x, t)
        b = eval_u(cfg, x + period, t)
        if isinstance(a, PoleMarker) or isinstance(b, PoleMarker):
            continue
        assert rel(b, a) < 1e-11


def test_real_axis_real_values() -> None:
    for cfg in (C12M, C12P):
        for xr in (-2.0, -0.5, 0.2, 1.7):
            v = eval_u(cfg, xr, 0.13)
            assert not isinstance(v, PoleMarker)
            assert abs(v.imag) < 1e-13 * (1.0 + abs(v.real))


@given(
    x=st.floats(min_value=-2.0, max_value=2.0),
    y=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_balanced_F_matches_naive_formula(x: float, y: float, t: float) -> None:
    # At modest arguments the naive complex formula is safe; the balanced
    # evaluator must agree with it to near machine precision.
    cfg = C12M
    z = complex(x, y)
    f1 = cmath.exp(-cfg.k1 * z + cfg.k1**3 * t)
    f2 = cmath.exp(-cfg.k2 * z + cfg.k2**3 * t)
    want = (1 + f1 * f2) ** 2 + cfg.gamma**2 * (f1 - f2) ** 2
    got, _ = eval_FG(cfg, z, t)
    assert abs(got - want) <= 1e-11 * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# Derivative evaluators
# ---------------------------------------------------------------------------


def test_u_x_and_u_xx_match_finite_differences() -> None:
    h = 1e-5
    for cfg, x, t in [(C12M, 0.4 + 0.2j, 0.1), (C12P, -0.6 + 0.5j, -0.15)]:
        up = eval_u(cfg, x + h, t)
        um = eval_u(cfg, x - h, t)
        u0 = eval_u(cfg, x, t)
        assert not any(isinstance(v, PoleMarker) for v in (up, um, u0))
        fd1 = (up - um) / (2 * h)
        fd2 = (up - 2 * u0 + um) / (h * h)
        assert rel(eval_u_x(cfg, x, t), fd1) < 1e-8
        assert rel(eval_u_xx(cfg, x, t), fd2) < 1e-4


def test_u_xx_at_origin_hand_values() -> None:
    # Closed forms at the normalized interaction point:
    #   u+_xx(0,0) = -(k2-k1)(k1^2 - 3 k1 k2 + k2^2)
    #   u-_xx(0,0) = -(k2+k1)(k1^2 + 3 k1 k2 + k2^2)
    # (1,2): plus -> -(1)(1-6+4) = 1;  minus -> -(3)(1+6+4) = -33.
    assert rel(eval_u_xx(C12P, 0.0, 0.0), 1.0) < 1e-11
    assert rel(eval_u_xx(C12M, 0.0, 0.0), -33.0) < 1e-11
    # (1,4): plus -> -(3)(1-12+16) = -15.
    cfg = SolitonConfig.make(1, 4, "plus")
    assert rel(eval_u_xx(cfg, 0.0, 0.0), -15.0) < 1e-11


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------


def test_eqg_residual_small_at_100_points() -> None:
    for cfg in (C12M, C12P):
        checked = 0
        rng = random.Random(5 if cfg.variant is Variant.MINUS else 6)
        while checked < 50:
            x = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            t = rng.uniform(-2.0, 2.0)
            try:
                r = eqg_residual(cfg, x, t)
            except PoleError:
                continue
            assert abs(r) < 1e-10, f"residual {abs(r):.3e} at x={x}, t={t}"
            checked += 1


def test_eqg_residual_large_time_balanced() -> None:
    # Large |t| pushes the exponentials far apart; the balanced form must
    # still produce a tiny relative residual.
    for t in (-12.0, 12.0):
        r = eqg_residual(C12M, 0.4 + 0.6j, t)
        assert abs(r) < 1e-10


def test_eqg_residual_pole_raises() -> None:
    with pytest.raises(PoleError):
        eqg_residual(C12P, 0.0, 0.0)  # 1 - f1 f2 = 0 at the origin


@pytest.mark.parametrize("variant", ["plus", "minus"])
@pytest.mark.parametrize("part", ["numerator", "denominator"])
def test_eqg_residual_catches_a_wrong_coefficient(monkeypatch, variant, part) -> None:
    # eval_g and the certificate read one table: scaling the f2 coefficient
    # of N, or the f1 f2 coefficient of D, by 1 + 1e-6 must change g and
    # lift the residual far above its floor.
    cfg = SolitonConfig.make(1, 2, variant)
    x, t = 0.3 + 0.4j, 0.2
    assert abs(eqg_residual(cfg, x, t)) < 1e-30
    g_clean = eval_g(cfg, x, t)
    terms_g = kernel._terms_g
    which = ("numerator", "denominator").index(part)

    def corrupted(g, v):
        tables = [list(table) for table in terms_g(g, v)]
        c, a1, a2 = tables[which][-1]
        tables[which][-1] = (c * (1 + 1e-6), a1, a2)
        return tuple(tables)

    monkeypatch.setattr(kernel, "_terms_g", corrupted)
    assert abs(eqg_residual(cfg, x, t)) > 1e-10
    assert eval_g(cfg, x, t) != g_clean


@pytest.mark.parametrize("spec", [(1, 2), ("1/3", 5), (1.0, 2**0.5)])
@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_exact_eqg_terms_match_the_sampled_ones(spec, variant) -> None:
    # The proof's two polynomials over Q, evaluated at mpmath f1, f2, are
    # the composite terms the sampled residual forms from the same helper.
    import mpmath as mp

    cfg = SolitonConfig.make(*spec, variant, x1=0.2, x2=-0.1)
    exact = kernel._eqg_exact(cfg)
    rng = random.Random(11)
    k1, k2 = mp.mpf(cfg.k1), mp.mpf(cfg.k2)
    for _ in range(20):
        x = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        w1, w2 = kernel._w_pair(cfg, x, rng.uniform(-1.5, 1.5))
        # Enough digits for the cancellation across the monomials' range.
        spread = 6 * abs(w1.real) + 5 * abs(w2.real)
        with mp.workdps(40 + int(spread / math.log(10.0))):
            f1, f2 = mp.exp(mp.mpc(w1)), mp.exp(mp.mpc(w2))

            def value(table):
                return sum(c * f1**a1 * f2**a2 for c, a1, a2 in table)

            sampled = kernel._eqg_terms(k1, k2, cfg.variant, value)
            for poly, term in zip(exact, sampled):
                at = sum(
                    mp.mpf(c.numerator) / c.denominator * f1**a1 * f2**a2
                    for (a1, a2), c in poly.coeffs.items()
                )
                assert abs(at - term) <= 1e-30 * abs(term)


FIELD_CONFIGS = [
    (p1, p2, variant)
    for p2 in range(2, 8)
    for p1 in range(1, p2)
    if math.gcd(p1, p2) == 1
    for variant in ("plus", "minus")
] + [(1.0, math.sqrt(2.0), "plus"), (1.0, math.sqrt(2.0), "minus")]


@given(
    spec=st.sampled_from(FIELD_CONFIGS),
    x1=st.floats(min_value=-1.0, max_value=1.0),
    x2=st.floats(min_value=-1.0, max_value=1.0),
    t=st.floats(min_value=-2.0, max_value=2.0),
    re=st.floats(min_value=-3.0, max_value=3.0),
    im=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=50, deadline=None)
def test_eqg_residual_small_across_configs(spec, x1, x2, t, re, im) -> None:
    cfg = SolitonConfig.make(*spec, x1=x1, x2=x2)
    try:
        r = eqg_residual(cfg, complex(re, im), t)
    except ValueError:  # PoleError at a pole of g, or too many digits needed
        assume(False)
    assert abs(r) < 1e-10, f"residual {abs(r):.3e} for {spec} at x={re}+{im}j, t={t}"


def test_pde_residual_second_order() -> None:
    # Richardson: halving h divides the residual by ~4.
    for cfg, x, t in [(C12M, 0.35 + 0.15j, 0.07), (C12P, -0.4 + 0.3j, -0.1)]:
        r1 = abs(pde_residual(cfg, x, t, 1e-2))
        r2 = abs(pde_residual(cfg, x, t, 5e-3))
        assert r1 > 0
        assert r1 / r2 == pytest.approx(4.0, abs=0.4)


def test_pde_residual_pole_raises() -> None:
    cfg = SolitonConfig.make(1, 5, "minus")
    with pytest.raises(PoleError):
        pde_residual(cfg, -0.5j * math.pi, 0.0, 1e-3)


def test_pde_residual_rejects_bad_step() -> None:
    with pytest.raises(ValueError):
        pde_residual(C12M, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Point evaluator: one long-lived evaluator of F equals F_scaled bit for bit,
# however the points follow each other.
# ---------------------------------------------------------------------------


def _bits(values) -> tuple:
    """The exact bits of a tuple of complex and float values."""
    out = []
    for v in values:
        parts = (v.real, v.imag) if isinstance(v, complex) else (v,)
        out += [float(p).hex() for p in parts]
    return tuple(out)


def _point_want(cfg, x, t) -> tuple:
    """``point``'s flat values from one-shot F_scaled calls."""
    F = kernel.F_scaled(cfg, x, t)
    Fx = kernel.F_scaled(cfg, x, t, dx=1)
    return (F.relative(), F.mant, F.log, *Fx)


def _F_t_want(cfg, x, t) -> tuple:
    Ft = kernel.F_scaled(cfg, x, t, dt=1)
    return Ft.mant, Ft.log


# Every coprime pair up to 9, an incommensurable pair, and a k1 whose
# derivative factor underflows: 2 k1^3 = 0 drops a term of F_t, so that
# table leaves F's term layout.
POINT_CONFIGS = [
    (p1, p2) for p2 in range(2, 10) for p1 in range(1, p2) if math.gcd(p1, p2) == 1
] + [(1.0, math.sqrt(2.0)), (1e-110, 1)]


@given(
    spec=st.sampled_from(POINT_CONFIGS),
    variant=st.sampled_from(["plus", "minus"]),
    res=st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=3),
    ims=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=2),
    ts=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=2),
    calls=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),  # point
            st.booleans(),  # pass an equal copy of x instead of the object
            st.booleans(),  # then ask for F_t there
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=120, deadline=None)
def test_point_evaluator_matches_one_shot_bitwise(spec, variant, res, ims, ts, calls) -> None:
    cfg = SolitonConfig.make(*spec, variant)
    # Points share their x or their t (the very objects) with other points,
    # so an evaluator that kept a stale exponent or exponential would show.
    xs = [complex(r, i) for r in res for i in ims]
    points = [(x, t) for x in xs for t in ts]
    ev = kernel._FPointEval(cfg)
    for i, copy, with_t in calls:
        x, t = points[i % len(points)]
        if copy:
            x = complex(x.real, x.imag)
        assert _bits(ev.point(x, t)) == _bits(_point_want(cfg, x, t)), (x, t)
        if with_t:
            assert _bits(ev.F_t(x, t)) == _bits(_F_t_want(cfg, x, t)), (x, t)


def test_point_evaluator_sums_off_layout_tables_bitwise() -> None:
    cfg = SolitonConfig.make(1e-110, 1, "plus")
    terms = kernel._terms_F(cfg.gamma**2, cfg.variant)
    assert len(kernel._term_table(cfg.k1, cfg.k2, terms, 0, 1)) == 4
    ev = kernel._FPointEval(cfg)
    # F and F_x keep the straight-line sums; F_t, whose (2, 0) term
    # underflowed, is summed over its own support.
    assert ev.coeffs_t is None and len(ev.table_t) == 4
    assert kernel._FPointEval(C12P).table_t is None
    for x, t in ((0.3 - 0.2j, 0.7), (-25.0 + 1.0j, -3.0), (30.0 + 0.5j, 2.0)):
        assert _bits(ev.point(x, t)) == _bits(_point_want(cfg, x, t))
        assert _bits(ev.F_t(x, t)) == _bits(_F_t_want(cfg, x, t))


@pytest.mark.parametrize("x", [-0.4 + 0.2j, 40.0 + 0.3j, 800.0 + 0.3j])
def test_point_evaluator_shares_exponentials_per_base(monkeypatch, x) -> None:
    exps = []

    def counted(w):
        exps.append(w)
        return cmath.exp(w)

    monkeypatch.setattr(kernel, "cmath", SimpleNamespace(exp=counted))
    ev = kernel._FPointEval(C12P)
    t = 0.25
    values = ev.point(x, t)
    ft = ev.F_t(x, t)
    monkeypatch.undo()
    assert _bits(values) == _bits(_point_want(C12P, x, t))
    assert _bits(ft) == _bits(_F_t_want(C12P, x, t))
    # One set of exponentials per distinct balance base: the derivative
    # tables' base exponentiates F's four non-constant monomials, and F's
    # constant term adds one to that set when F shares the base, or F's own
    # base exponentiates all five.  F_t reuses F_x's and forms none.
    f_log, fx_log = values[2], values[4]
    assert ft[1] == fx_log
    assert len(exps) == (5 if f_log == fx_log else 9)
    if x.real > 0:
        # The constant term dominates F: F's base is 0 and F_x's far below
        # it; at x = 800 exponentiating the constant term against F_x's
        # base would overflow.
        assert f_log == 0.0 and fx_log < -39.0
    else:
        assert f_log == fx_log
    # A new t at the same x object, then a new x at the same t object.
    t2 = 0.5
    assert _bits(ev.point(x, t2)) == _bits(_point_want(C12P, x, t2))
    x2 = x + 1.0
    assert _bits(ev.point(x2, t2)) == _bits(_point_want(C12P, x2, t2))
    # F_t is served at the point last set up only.
    with pytest.raises(ValueError, match="was set up"):
        ev.F_t(x, t2)

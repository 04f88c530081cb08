"""Polynomial-form tests: exact coefficient tables, global root oracle,
strip mapping, and consistency with the direct kernel evaluators.

Coefficient tables below are hand-expanded from the F/G monomials with
f_j = e^{k_j^3 t} y^{p_j}; root facts (multiplicities at y = +-i for the
(1,5) Minus case, unit-circle quotient roots) were derived by hand via
polynomial division by (y^2+1)^4.
"""

import cmath
import hashlib
import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_pole_lab import exppoly
from soliton_pole_lab.exppoly import (
    MAX_ITER,
    ExpPoly,
    ExpTerm,
    build_F_poly,
    build_G_poly,
    exp_poly_eval,
    oracle_poles,
    roots_at_time,
    x_to_y,
    y_to_x,
)
from soliton_pole_lab.kernel import (
    ConvergenceError,
    F_scaled,
    G_scaled,
    SolitonConfig,
    Variant,
)

C15M = SolitonConfig.make(1, 5, "minus")
C12M = SolitonConfig.make(1, 2, "minus")
C12P = SolitonConfig.make(1, 2, "plus")


def term_table(poly: ExpPoly) -> list[tuple[int, Fraction, Fraction]]:
    return [(t.degree, t.coeff_exact, t.sigma_exact) for t in poly.terms]


# ---------------------------------------------------------------------------
# Exact construction
# ---------------------------------------------------------------------------


def test_F_poly_15_minus_exact_table() -> None:
    # gamma = 6/4 = 3/2, gamma^2 = 9/4:
    # F = e^{252t}y^12 + (9/4)e^{250t}y^10 - (5/2)e^{126t}y^6 + (9/4)e^{2t}y^2 + 1
    poly = build_F_poly(C15M)
    assert term_table(poly) == [
        (0, Fraction(1), Fraction(0)),
        (2, Fraction(9, 4), Fraction(2)),
        (6, Fraction(-5, 2), Fraction(126)),
        (10, Fraction(9, 4), Fraction(250)),
        (12, Fraction(1), Fraction(252)),
    ]
    assert poly.degree == 12
    assert poly.lam == pytest.approx(1.0)


def test_G_poly_15_minus_exact_table() -> None:
    # G = -e^{251t}y^11 + 5e^{127t}y^7 + 5e^{125t}y^5 - e^{t}y
    poly = build_G_poly(C15M)
    assert term_table(poly) == [
        (1, Fraction(-1), Fraction(1)),
        (5, Fraction(5), Fraction(125)),
        (7, Fraction(5), Fraction(127)),
        (11, Fraction(-1), Fraction(251)),
    ]
    assert poly.degree == 11  # p1 + 2 p2


def test_G_poly_15_t0_coefficient_symmetry() -> None:
    # At t=0 the nonzero coefficients read the same outward from both ends:
    # degrees (1, 5, 7, 11) with values (-1, 5, 5, -1).
    poly = build_G_poly(C15M)
    coeffs = [c.value() for c in poly.coefficients_at(0.0)]
    nonzero = [(n, v) for n, v in enumerate(coeffs) if v != 0]
    vals = [v for _, v in nonzero]
    assert vals == pytest.approx(vals[::-1])


def test_F_poly_12_plus_exact_table() -> None:
    # gamma = 3: F+ = (1 - f1 f2)^2 + 9 (f1 + f2)^2 with f1 = e^t y, f2 = e^{8t} y^2:
    # 1 + 9 e^{2t} y^2 + 16 e^{9t} y^3 + 9 e^{16t} y^4 + e^{18t} y^6.
    poly = build_F_poly(C12P)
    assert term_table(poly) == [
        (0, Fraction(1), Fraction(0)),
        (2, Fraction(9), Fraction(2)),
        (3, Fraction(16), Fraction(9)),
        (4, Fraction(9), Fraction(16)),
        (6, Fraction(1), Fraction(18)),
    ]
    assert poly.degree == 6


def test_terms_keep_fraction_coefficients_in_degree_sigma_order() -> None:
    """Over every coprime pair p1 < p2 <= 13, scaled by 1 and 1/3, in both
    variants: each exact coefficient is a nonzero Fraction (an int would
    change the term's repr), the terms run strictly increasing in
    (degree, sigma), and shifted configs keep the same terms, exact
    coefficients included."""
    pairs = [
        (p1, p2)
        for p2 in range(2, 14)
        for p1 in range(1, p2)
        if math.gcd(p1, p2) == 1
    ]
    for p1, p2 in pairs:
        for scale in (Fraction(1), Fraction(1, 3)):
            for variant in Variant:
                cfg = SolitonConfig.make(p1 * scale, p2 * scale, variant)
                for build in (build_F_poly, build_G_poly):
                    terms = build(cfg).terms
                    assert all(
                        type(t.coeff_exact) is Fraction and t.coeff_exact != 0
                        for t in terms
                    )
                    keys = [(t.degree, t.sigma_exact) for t in terms]
                    assert keys == sorted(set(keys))
                    shifted = build(cfg.with_shifts(0.3, -0.2)).terms
                    assert [
                        (t.degree, t.coeff, t.coeff_exact, t.sigma_exact) for t in shifted
                    ] == [(t.degree, t.coeff, t.coeff_exact, t.sigma_exact) for t in terms]


def test_F_constant_term_is_one_always() -> None:
    for cfg in (C12M, C12P, C15M, SolitonConfig.make(2, 3, "plus")):
        poly = build_F_poly(cfg)
        for t in (-1.5, 0.0, 0.8):
            coeffs = poly.coefficients_at(t)
            assert coeffs[0].value() == pytest.approx(1.0)


def test_build_requires_commensurable() -> None:
    with pytest.raises(ValueError):
        build_F_poly(SolitonConfig.make(1.0, 2.0))
    with pytest.raises(ValueError):
        build_G_poly(SolitonConfig.make(1.0, math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Evaluation consistency with the kernel
# ---------------------------------------------------------------------------


def test_exp_poly_matches_kernel_F_and_G() -> None:
    cases = [
        SolitonConfig.make(1, 2, "minus"),
        SolitonConfig.make(1, 2, "plus"),
        SolitonConfig.make(2, 3, "minus"),
        SolitonConfig.make(1, 2, "plus", x1=0.4, x2=-0.3),
    ]
    pts = [(0.3 + 0.4j, 0.2), (-1.1 - 0.9j, -0.7), (2.0 + 1.3j, 1.1)]
    for cfg in cases:
        fpoly = build_F_poly(cfg)
        gpoly = build_G_poly(cfg)
        for x, t in pts:
            y = x_to_y(x, fpoly.lam)
            for poly, kernel_fn in ((fpoly, F_scaled), (gpoly, G_scaled)):
                a = exp_poly_eval(poly, y, t).value()
                b = kernel_fn(cfg, x, t).value()
                assert abs(a - b) < 1e-12 * (1.0 + abs(b))


def test_exp_poly_derivative_matches_fd() -> None:
    poly = build_F_poly(C12M)
    y, t, h = 0.7 + 0.3j, 0.25, 1e-6
    fd = (exp_poly_eval(poly, y + h, t).value() - exp_poly_eval(poly, y - h, t).value()) / (2 * h)
    an = exp_poly_eval(poly, y, t, dy=1).value()
    assert abs(fd - an) < 1e-7 * (1.0 + abs(an))


# ---------------------------------------------------------------------------
# Strip mapping
# ---------------------------------------------------------------------------


def test_y_to_x_hand_values() -> None:
    assert y_to_x(1.0 + 0j, 1.0) == 0
    assert y_to_x(1j, 1.0) == pytest.approx(-0.5j * math.pi)
    # Negative real axis maps to the upper boundary Im x = +lambda pi.
    assert y_to_x(-1.0 + 0j, 1.0) == pytest.approx(1j * math.pi)
    assert y_to_x(-2.0 + 0j, 0.5).imag == pytest.approx(0.5 * math.pi)
    with pytest.raises(ValueError):
        y_to_x(0j, 1.0)


def test_y_to_x_roundtrip_and_strip() -> None:
    lam = 2.0
    for y in (0.3 + 0.8j, -1.7 + 0.01j, -1.7 - 0.01j, 5.0 + 0j, 1e-3 - 2j):
        x = y_to_x(y, lam)
        assert -lam * math.pi < x.imag <= lam * math.pi
        assert abs(x_to_y(x, lam) - y) < 1e-12 * abs(y)


# ---------------------------------------------------------------------------
# Global root oracle
# ---------------------------------------------------------------------------


def test_roots_F15_minus_t0_multiplicity4() -> None:
    # F(y, 0) = (y^2+1)^4 (y^4 - (7/4) y^2 + 1): two 4-fold roots at +-i and
    # four simple roots on the unit circle.
    rs = roots_at_time(build_F_poly(C15M), 0.0)
    assert rs.total_multiplicity() == 12
    quads = [y for y, m in rs.roots if m == 4]
    simples = [y for y, m in rs.roots if m == 1]
    assert len(quads) == 2 and len(simples) == 4
    assert sorted(y.imag for y in quads) == pytest.approx([-1.0, 1.0], abs=1e-9)
    for y in quads:
        assert abs(y.real) < 1e-9
    for y in simples:
        assert abs(abs(y) - 1.0) < 1e-9
    assert rs.worst_residual < 1e-8


@pytest.mark.parametrize(
    "k1,k2,variant", [(1, 3, "plus"), (1, 5, "minus"), (1, 7, "plus"), (1, 13, "minus")]
)
def test_exceptional_collision_quadruple_roots(k1: int, k2: int, variant: str) -> None:
    # F(y, 0) factors exactly as (y - i)^4 (y + i)^4 times simple factors.
    # gamma^2 is not a double for (1,7)+ and (1,13)-, so a polish of the
    # rounded coefficients splits the 4-fold roots.
    cfg = SolitonConfig.make(k1, k2, variant)
    rs = roots_at_time(build_F_poly(cfg), 0.0)
    assert rs.total_multiplicity() == 2 * (k1 + k2)
    quads = sorted((y for y, m in rs.roots if m > 1), key=lambda y: y.imag)
    assert [m for _, m in rs.roots if m > 1] == [4, 4]
    assert quads == [pytest.approx(-1j, abs=1e-9), pytest.approx(1j, abs=1e-9)]


@pytest.mark.parametrize("k1,k2,t", [(1, 7, -20.0), (6, 11, -10.0)])
def test_oracle_poles_beyond_double_range_are_finite_zeros(
    k1: int, k2: int, t: float
) -> None:
    # Most roots y here lie beyond e^709, so complex(y) overflows; their
    # positions come from the 45-digit log y instead.
    cfg = SolitonConfig.make(k1, k2, "minus")
    poles = oracle_poles(cfg, t=t)
    assert sum(m for _, m in poles) == 2 * (k1 + k2)
    assert max(abs(x.real) for x, _ in poles) > 700 * cfg.comm.lam
    for x, _ in poles:
        assert cmath.isfinite(x)
        assert F_scaled(cfg, x, t).relative() < 1e-8


_COPRIME = [(a, b) for b in range(2, 14) for a in range(1, b) if math.gcd(a, b) == 1]


@given(
    pair=st.sampled_from(_COPRIME),
    variant=st.sampled_from(["plus", "minus"]),
    t=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=20, deadline=None)
def test_oracle_converges_without_cap(pair: tuple[int, int], variant: str, t: float) -> None:
    # Aberth stops at the rounding floor of its log-scaled evaluation, so
    # it never runs out of sweeps, and every pole comes back finite.
    cfg = SolitonConfig.make(*pair, variant)
    expect = 2 * (pair[0] + pair[1])
    rs = roots_at_time(build_F_poly(cfg), t)
    assert not rs.cap_hit
    assert rs.iterations < MAX_ITER
    assert rs.total_multiplicity() == expect
    poles = oracle_poles(cfg, t=t)
    assert sum(m for _, m in poles) == expect
    assert all(cmath.isfinite(x) for x, _ in poles)


def test_roots_F15_minus_small_t_all_simple() -> None:
    rs = roots_at_time(build_F_poly(C15M), 0.01)
    assert rs.total_multiplicity() == 12
    assert all(m == 1 for _, m in rs.roots)
    # The collision splits on cube-root-of-t scales: |dy| ~ (12 t)^{1/3} ~ 0.49.
    near_i = [y for y, _ in rs.roots if abs(y - 1j) < 0.6]
    near_mi = [y for y, _ in rs.roots if abs(y + 1j) < 0.6]
    assert len(near_i) == 4 and len(near_mi) == 4


def test_roots_G15_minus_t0_third_order_at_i() -> None:
    rs = roots_at_time(build_G_poly(C15M), 0.0)
    assert rs.total_multiplicity() == 11
    by_mult = {m: [] for _, m in rs.roots}
    for y, m in rs.roots:
        by_mult.setdefault(m, []).append(y)
    # y = 0 simple (lowest G degree is 1), y = +-i each of third order.
    triples = [y for y, m in rs.roots if m == 3]
    assert sorted(y.imag for y in triples) == pytest.approx([-1.0, 1.0], abs=1e-9)
    assert any(y == 0 for y, m in rs.roots if m == 1)


def test_degree_one_polynomial_exact_root() -> None:
    poly = ExpPoly(
        terms=(ExpTerm(0, -2.5, 0.0), ExpTerm(1, 1.0, 0.0)),
        lam=1.0,
        variant=Variant.MINUS,
        kind="G",
    )
    rs = roots_at_time(poly, 0.0)
    assert rs.roots == ((2.5 + 0j, 1),)


def _g_poly(*terms: ExpTerm) -> ExpPoly:
    return ExpPoly(terms=terms, lam=1.0, variant=Variant.MINUS, kind="G")


def test_pure_monomial_has_only_the_origin_root() -> None:
    rs = roots_at_time(_g_poly(ExpTerm(3, 2.0, 0.0)), 0.4)
    assert rs.roots == ((0j, 3),)
    assert rs.log_roots == (complex(-math.inf),)
    assert (rs.condition, rs.worst_residual, rs.iterations, rs.cap_hit) == ((1.0,), 0.0, 0, False)


def test_constant_polynomial_refused() -> None:
    with pytest.raises(ValueError, match="degree >= 1"):
        roots_at_time(_g_poly(ExpTerm(0, 2.0, 0.0)), 0.0)


def test_eval_at_the_origin_reads_one_coefficient() -> None:
    # At y = 0 the dy-th derivative is dy! c_dy e^(sigma t + log_factor).
    terms = (ExpTerm(0, 1.5, 0.5, 0.25), ExpTerm(2, -3.0 + 1j, 2.0, -1.0), ExpTerm(3, 7.0, -1.0))
    poly, t = _g_poly(*terms), 0.3
    for term in terms:
        value = exp_poly_eval(poly, 0j, t, dy=term.degree)
        assert value.mant == math.factorial(term.degree) * term.coeff
        assert value.log == term.sigma * t + term.log_factor
    for dy in (1, 4):
        assert exp_poly_eval(poly, 0j, t, dy=dy).value() == 0


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected(t: float) -> None:
    # Unchecked, it runs every Aberth sweep and returns NaN roots.
    with pytest.raises(ValueError, match="finite"):
        roots_at_time(build_F_poly(C15M), t)


def test_nan_estimates_fail_certification() -> None:
    # A NaN root has a NaN residual, which must fail the certificate
    # rather than read as a worst residual of 0.
    poly = build_F_poly(SolitonConfig.make(1, 2, "plus"))
    estimates = np.full(6, complex(math.nan, math.nan))
    with pytest.raises(ConvergenceError, match="nan"):
        exppoly._polish_and_certify(poly, 0.0, estimates, {}, 0)


@pytest.mark.parametrize("t", [1e30, -1e300])
def test_estimates_beyond_the_log_split_fail_certification(t: float) -> None:
    # At |log y| near 1e19 and beyond, log y = k log 2 + r leaves r in the
    # thousands and e^r out of double range: a ConvergenceError, not an
    # OverflowError.
    with pytest.raises(ConvergenceError, match="2\\^k e\\^r"):
        oracle_poles(SolitonConfig.make(1, 2, "plus"), t=t)


@pytest.mark.parametrize(
    "cfg,t",
    [(C12P, 1e18), (C12P, 1e20), (SolitonConfig.make(1, 5, "minus"), 1e18)],
    ids=["12p-1e18", "12p-1e20", "15m-1e18"],
)
def test_zero_iterates_fail_certification(cfg: SolitonConfig, t: float) -> None:
    # Past |k| = 2^20 the log split can turn an estimate into a zero
    # iterate, whose term norm is 0: that is no certificate, and the
    # snapshot must raise rather than return a short pole list.
    with pytest.raises(ConvergenceError, match="relative residual inf"):
        oracle_poles(cfg, t=t)


def _gauss_at(gp, y):
    """Every term value and the sums y^j p^(j)(y) / 2^E, j = 0..3, of the
    polish's integer evaluator at the iterate y."""
    terms = gp.terms(y)
    return terms, [gp.value(terms, j) for j in range(4)]


@pytest.mark.parametrize("build", [build_F_poly, build_G_poly])
def test_gauss_values_at_the_conjugate_are_exact_conjugates(build) -> None:
    # The polish's integers round toward zero, so for real coefficients the
    # term values, derivative sums and Newton quotient at conj y are the
    # exact conjugates of those at y.  Flooring (Python's >> and //) breaks
    # this in the last bit of the negated part.
    gp = exppoly._GaussPoly(build(C12P), 0.4)
    assert gp.real
    rng = random.Random(3)
    half = 1 << (gp.bits - 1)
    for _ in range(40):
        e = rng.randrange(-gp.bits - 40, -gp.bits + 40)
        y = gp.normal(rng.randrange(-half, half), rng.randrange(-half, half), e)
        conj = (y[0], -y[1], y[2])
        assert gp.normal(*conj) == conj
        terms, sums = _gauss_at(gp, y)
        conj_terms, conj_sums = _gauss_at(gp, conj)
        assert conj_terms == [(re, -im) for re, im in terms]
        assert conj_sums == [(re, -im) for re, im in sums]
        quo = exppoly._cdiv(sums[0], sums[1], gp.bits)
        assert exppoly._cdiv(conj_sums[0], conj_sums[1], gp.bits) == (quo[0], -quo[1])


@pytest.mark.parametrize(
    "spec,t,log_y",
    [
        ((1, 5, "minus"), 0.013, 0.3 + 2.0j),
        ((1, 5, "minus"), 0.013, -2.0 - 0.5j),
        ((1, 7, "minus"), -20.0, None),
        ((8, 9, "plus"), 12.114, None),
    ],
)
def test_gauss_sums_match_mpmath_derivatives(spec, t: float, log_y) -> None:
    # y^j p^(j)(y) / (y p'(y)) from the integer sums against mpmath's
    # derivatives of the same 45-digit coefficients, at two points near the
    # unit circle and at the root farthest out (|log y| beyond 709) of two
    # snapshots.  Only terms within _HEADROOM_BITS of the largest keep
    # their relative precision, so the comparison runs where terms balance.
    poly = build_F_poly(SolitonConfig.make(*spec))
    if log_y is None:
        log_y = max(roots_at_time(poly, t).log_roots, key=lambda g: abs(g.real))
        assert abs(log_y.real) > 709
    gp = exppoly._GaussPoly(poly, t)
    _, sums = _gauss_at(gp, gp.from_log(log_y))
    with mp.workdps(exppoly._POLISH_DPS):
        coeffs = [
            mp.mpf(term.coeff_exact.numerator) / term.coeff_exact.denominator
            * mp.exp(mp.mpf(term.sigma_exact.numerator) / term.sigma_exact.denominator * t)
            for term in poly.terms
        ]
    # The same coefficients, summed at twice the digits: near a root p(y)
    # cancels to about 1e-14 of its terms.
    with mp.workdps(2 * exppoly._POLISH_DPS):
        ym = gp.to_mpc(gp.from_log(log_y))
        want = [
            sum(c * math.perm(term.degree, j) * ym**term.degree for c, term in zip(coeffs, poly.terms))
            for j in range(4)
        ]
        for j in (0, 2, 3):
            ratio = want[j] / want[1]
            got = mp.mpc(*sums[j]) / mp.mpc(*sums[1])
            assert abs(got - ratio) <= mp.mpf(10) ** -40 * abs(ratio)


@pytest.mark.parametrize("dps", [30, 80])
def test_polish_precision_follows_polish_dps(monkeypatch, dps: int) -> None:
    # The polish's integers take their width from _POLISH_DPS: at 80
    # digits the residual falls far below what 45 digits can reach.
    monkeypatch.setattr(exppoly, "_POLISH_DPS", dps)
    rs = roots_at_time(build_F_poly(C12P), 0.4)
    assert rs.total_multiplicity() == 6
    assert rs.worst_residual < 10.0 ** (-dps + 10)


def test_roots_against_mpmath_polyroots() -> None:
    # Independent solver cross-check at a generic time.
    cfg = SolitonConfig.make(2, 3, "minus")
    poly = build_F_poly(cfg)
    t = 0.2
    rs = roots_at_time(poly, t)
    coeffs = [c.value() for c in poly.coefficients_at(t)]
    with mp.workdps(40):
        ref = mp.polyroots([mp.mpf(c.real) for c in reversed(coeffs)], maxsteps=200)
    mine = sorted(
        (y for y, m in rs.roots for _ in range(m)),
        key=lambda z: (z.real, z.imag),
    )
    ref_s = sorted((complex(r) for r in ref), key=lambda z: (z.real, z.imag))
    assert len(mine) == len(ref_s)
    for a, b in zip(mine, ref_s):
        assert abs(a - b) < 1e-8 * (1.0 + abs(b))


@pytest.mark.parametrize(
    "k1,k2",
    [(1, 2), (2, 3), (1, 4), (3, 5)],
)
@pytest.mark.parametrize("variant", ["minus", "plus"])
def test_pole_counts_and_exclusion_lines(k1: int, k2: int, variant: str) -> None:
    cfg = SolitonConfig.make(k1, k2, variant)
    assert cfg.comm is not None
    lam = cfg.comm.lam
    expect = 2 * (cfg.comm.p1 + cfg.comm.p2)
    for t in (-1.0, 0.0, 1.0):
        poles = oracle_poles(cfg, t=t)
        assert sum(m for _, m in poles) == expect
        for x, _ in poles:
            assert -lam * math.pi < x.imag <= lam * math.pi
            assert abs(x.imag) > 1e-9  # off the real axis
            assert abs(x.imag - lam * math.pi) > 1e-9  # off the boundary line
        # Conjugate pairing of the pole pattern.
        ims = sorted(x.imag for x, _ in poles)
        assert ims == pytest.approx([-v for v in reversed(ims)], abs=1e-9)


def test_kernel_F_small_at_oracle_poles() -> None:
    for cfg in (C12M, C12P):
        for x, _ in oracle_poles(cfg, t=0.3):
            assert F_scaled(cfg, x, 0.3).relative() < 1e-8


def test_oracle_poles_shift_translation() -> None:
    # Shifting both x1 and x2 by d translates every pole by +d.
    base = oracle_poles(C12M, t=0.15)
    shifted = oracle_poles(SolitonConfig.make(1, 2, "minus", x1=0.7, x2=0.7), t=0.15)
    assert len(base) == len(shifted)
    for (xb, mb), (xs, ms) in zip(base, shifted):
        assert mb == ms
        assert abs(xs - (xb + 0.7)) < 1e-8


# sha256 of the five reprs of oracle_poles(cfg, t=t), joined by newlines,
# for t in _CENSUS_TIMES and each coprime p1 < p2 <= 9 in both variants.
# Recorded from the mpmath polish; a change of the polish's arithmetic must
# keep every reported double.
_CENSUS_TIMES = (-10.0, -0.6, 0.0, 0.4, 10.0)
_CENSUS_DIGESTS = {
    "1,2,plus": "d9cab62d4f64589f08423e456400d322b38b75071a9791acd456d88bd27ede1e",
    "1,2,minus": "13e9731e597227936305abd7ed05c25c19aef49195c241400d4eefc18e4c75ff",
    "1,3,plus": "a47181e0fae66882dda33be90d95f71b616f32fdae42aca135ed3479604726d5",
    "1,3,minus": "81eed9ecf9372b7e33ce1bf7fff5f2e74840068dd663051eea67ef88253d4b05",
    "2,3,plus": "61d6d5622e302905cff81a601df72a86842a61ce87918d5f1279044cc010db22",
    "2,3,minus": "60720ca9987322c793d9fa8b62ca413a72fcccdcb4e2cd3f44b2659f378c9732",
    "1,4,plus": "6d3f6a26d84e4e13eafe554be812f191787d8c1fe5226b0226bb878f8aa26c33",
    "1,4,minus": "40afef14f24a17e3eb080c7e1fc1eb76d1684ded67db05e52944095e780f81b1",
    "3,4,plus": "f3f8a11105e0050755ff51754f8da96efd2c7675045f62b5d1c6e4b9953b9335",
    "3,4,minus": "93e9b05a91bbb89d83e8e9f60422579714088da3657f7efe54c011119734444f",
    "1,5,plus": "96d527ddf954dc97f048529d895167bde646c5f9df8ce44218d7671c2b82c407",
    "1,5,minus": "3aa75eba46c01294620c80cc43527a224190d36fae65f2f56dfb2c9328c45285",
    "2,5,plus": "f6defeb8bcc524fa27fb0d65e2b8d249506c303bd357b07bccc9088bf0a0df21",
    "2,5,minus": "7758c325df397292fb482d7df52e0bbe5be02316b749c33903a9dbe5db86a678",
    "3,5,plus": "e1a760a105cc49c26e4a3de85f2afdb8dd999eb79d5622d08e4c50c60a1d1c8f",
    "3,5,minus": "1b8dd22779d329bf9fef063b74bd27e0febf1cc164aff9ac99adba01238a0afd",
    "4,5,plus": "c07a5c68789fcaedf777fb134cbdc75b33dbfa7a3f85302732bec98f48aedb4b",
    "4,5,minus": "d677c5bc6521145e5ea8ffaa04cad920f675ea2b315ea2cbe37d04676e70d652",
    "1,6,plus": "56db64c74672c469f7799e293f0e304e3a49db7feff984f2e61cb6324dc5cb74",
    "1,6,minus": "69bc174c250eabf6600c357b4ba80be8038fddcbae0816d90be38666ba17d72a",
    "5,6,plus": "7b1aaff986dd8c997f1c08997c555a2e24214c2c9b2ee4041d9c2ef8c991fddc",
    "5,6,minus": "7cba15357563564eae751bdb161a6c563262e705cf8a8534dc3e28d5deb00f61",
    "1,7,plus": "fdbbe158ac317c9f9e464d328977409369e91e2fe950e44ab08f9b2194bc8726",
    "1,7,minus": "0942b3a04ed0598ed5075c04c848342a5dce9b52a3b69333e82f3b61b90a8132",
    "2,7,plus": "cb743d08f6c3849a4e2e122eda1f92e8634b84321eb958d6ed7156df5471e442",
    "2,7,minus": "7f5778386547bef6bb3fd6e1d085faf95cc4828b230e548ef651de991a6c7517",
    "3,7,plus": "245a4523eedcd17fa2b4a37ddc79e12cbfd5fe2851712dbb5593880f9cf00336",
    "3,7,minus": "f04d1ed9080177de0b04780010e8eda7d6b8cc7357e017e65f2965ffcafda8be",
    "4,7,plus": "1503758ea2429ea314ee20e41041aac12305f67b8460862401044577396fd12c",
    "4,7,minus": "66072a7ce65a1014051f4e1f1f9300a7acb74c822ca74c5d660346d63d557e3f",
    "5,7,plus": "7c9eb4315cbf3d19e92fe836c2e31f9b4841b37195807d01654881931a416a8b",
    "5,7,minus": "b6bf6357b40d41cbbe658c07e3346f763aa02cc1bf92960897aeaa4297387ed0",
    "6,7,plus": "06641f9992e7c4e7f9e39e77fa5c9831c823849cd19afa5a3d2c0899ffc663b6",
    "6,7,minus": "d8da11cd5d79d9721de7190ae3e475e11befbd96d35fab807e8501c23bdbc976",
    "1,8,plus": "345944a0ec4af791cf688d13a88774ea5cac3596d80e47359a2f19654f263319",
    "1,8,minus": "c260ea14420fd4a5163e51967e0f214d91eea784adeed498265ec7f4f681f2a0",
    "3,8,plus": "1937b8e382736e36af22aaa30f5b4bb6dd3e44d5577e22e425283728a072cff9",
    "3,8,minus": "50fb60d05dc17f4cdb86f1e81a8c0e859b6564e581f26fd4a57ac48ab74493d4",
    "5,8,plus": "c65e9205ca23d5af317f56316308d264fb4eec4917a3bffd0682080765ffa3a1",
    "5,8,minus": "f0f318ff5785c31a892bd68940ed29c19da37ee5b0f3f3885a783a5b9a8abb47",
    "7,8,plus": "4d052c7f9a381be7b20131c07ab5f1878f8e2597841cc8f7ee3c8a3a7cf81e4d",
    "7,8,minus": "764f9da91715bb21c87715782dbe5f6f8ffac3f55f5182cd3c08998ebf241484",
    "1,9,plus": "485e6007c5e6cce01e68657bdc5ba2e44534976793d702bac60a510b905be6b2",
    "1,9,minus": "606dadde752d8fa55cebe08bf3d368195d70b98f3cd353a91d732f4c75b5d801",
    "2,9,plus": "e891135821ba510fed3c0cfb4147ddb3f7b2949b8be971a14488aa332bb75ff7",
    "2,9,minus": "980430b09726215e24c29bb89591adec77c90b99145dfe963ffe2becb8d89c01",
    "4,9,plus": "e02e5d44abe6215d2cad3ea7ff424d124711187f0399b1d1b9684aa315cd7239",
    "4,9,minus": "900ab85c32eee78a423f809f56cf75d33ca0aedf1429cea0ef5fc1ad4615fb40",
    "5,9,plus": "8bfd488ba108d72b50ec8125a5411e9bd9cb5ddded506e3921e4da9b853dd762",
    "5,9,minus": "aad958a10536bc1c0956e8e23cbd30f07f0611b9a8a38ace9310e4ae964faf84",
    "7,9,plus": "12ab9e647e2ce87af8d1025569b1cf8abe53769ca85b9a3d502a4cb3958f6f62",
    "7,9,minus": "bd2b85e722e68495ee023690e0cec5457e29f75b84bd25c14719624623f63d82",
    "8,9,plus": "4acab1050df9f71df29f38df814c38340e3c451661a7f1350007a282c211619e",
    "8,9,minus": "a41f62b07ff805ae1ebbf3424dac031b3b88b837d2227aaa12849c8a77b82916",
}


def test_oracle_census_matches_recorded_digests() -> None:
    got = {}
    for key in _CENSUS_DIGESTS:
        p1, p2, variant = key.split(",")
        cfg = SolitonConfig.make(int(p1), int(p2), variant)
        text = "\n".join(repr(oracle_poles(cfg, t=t)) for t in _CENSUS_TIMES)
        got[key] = hashlib.sha256(text.encode()).hexdigest()
    assert len(got) == 54
    assert {k: v for k, v in got.items() if v != _CENSUS_DIGESTS[k]} == {}


@pytest.mark.parametrize(
    "spec", [(1, 7, "plus"), (1, 5, "minus"), (1, 3, "plus"), (2, 7, "plus"), (3, 5, "plus")]
)
@pytest.mark.parametrize("tau", [1 / 4, 1 / 64, 1 / 2])
def test_shifts_by_a_time_keep_the_exact_snapshot(spec, tau) -> None:
    # Shifts x_j = k_j^2 tau move the snapshot from t to t - tau.  For tau
    # a power of two every exponent is exact, so the snapshot at -tau is
    # the unshifted one at 0 bit for bit, exceptional collisions included:
    # the shifted terms keep their exact coefficients.
    p1, p2, variant = spec
    shifted = SolitonConfig.make(p1, p2, variant, x1=p1**2 * tau, x2=p2**2 * tau)
    want = oracle_poles(SolitonConfig.make(p1, p2, variant), t=0.0)
    assert repr(oracle_poles(shifted, t=-tau)) == repr(want)


def _nonzero_roots(rs) -> list[complex]:
    """Roots other than y = 0, told apart by ``log_roots`` (real part -inf
    only for y = 0): ``.roots`` reads a root beyond double range as 0j."""
    return [y for (y, _), log_y in zip(rs.roots, rs.log_roots) if log_y.real != -math.inf]


def test_nonzero_roots_keeps_roots_that_underflow_a_double() -> None:
    # (8,9)+ at t = 12.114: every root y underflows to 0j as a double.
    rs = roots_at_time(build_F_poly(SolitonConfig.make(8, 9, "plus")), 12.114)
    assert any(y == 0 for y, _ in rs.roots)
    assert len(_nonzero_roots(rs)) == len(rs.roots)
    g = roots_at_time(build_G_poly(C12M), 0.4)
    assert len(_nonzero_roots(g)) == len(g.roots) - 1  # G has y = 0 as a root


def test_tiny_roots_form_singleton_clusters(monkeypatch) -> None:
    # (8,9)+ at t = 12.114: all 34 roots have |y| between e^-982 and e^-775.
    # A cluster bound that is absolute below |y| = 1 merges them into one
    # 34-member cluster and recentres it by Newton on p^(33); relative, each
    # root is its own cluster and the polish forms no derivative above p''.
    orders = []
    perm = math.perm
    monkeypatch.setattr(math, "perm", lambda n, j: orders.append(j) or perm(n, j))
    rs = roots_at_time(build_F_poly(SolitonConfig.make(8, 9, "plus")), 12.114)
    assert len(rs.roots) == 34 and all(m == 1 for _, m in rs.roots)
    assert max(orders) <= 2


def test_roots_on_the_imaginary_axis_sort_by_imaginary_part() -> None:
    # G of (1,3)+ at t = 0: triple roots at -i and +i around the simple y = 0.
    rs = roots_at_time(build_G_poly(SolitonConfig.make(1, 3, "plus")), 0.0)
    assert [(round(y.imag), m) for y, m in rs.roots] == [(-1, 3), (0, 1), (1, 3)]
    assert all(abs(y.real) < 1e-30 for y, _ in rs.roots)
    # The real parts of those triples are 45-digit noise of either sign; the
    # order must not follow them.
    noisy = [complex(-1.4e-85, 1.0), complex(-5.1e-86, -1.0), 0j]
    assert sorted(noisy, key=exppoly._sort_key) == [noisy[1], noisy[2], noisy[0]]


def test_roots_whose_modulus_overflows_a_double_sort() -> None:
    # (2,7)+ at t = -14.484375 has a root whose parts are doubles but whose
    # |y| is above the largest double, so abs(y) raises OverflowError: the
    # sort key must not take it.
    cfg = SolitonConfig.make(2, 7, "plus")
    for poly in (build_F_poly(cfg), build_G_poly(cfg)):
        rs = roots_at_time(poly, -14.484375)
        assert rs.total_multiplicity() == poly.degree
        assert any(math.hypot(y.real, y.imag) > sys.float_info.max for y, _ in rs.roots)


def test_zero_sets_of_F_and_G_distinct_generic() -> None:
    # Away from exceptional data the pole positions (F zeros) stay clear of
    # the G zeros; at the (1,5) exceptional time they collide at y = +-i.
    t = 0.4
    f_roots = _nonzero_roots(roots_at_time(build_F_poly(C12M), t))
    g_roots = _nonzero_roots(roots_at_time(build_G_poly(C12M), t))
    dmin = min(abs(a - b) for a in f_roots for b in g_roots)
    assert dmin > 1e-3
    f15 = [y for y, _ in roots_at_time(build_F_poly(C15M), 0.0).roots]
    g15 = [y for y, _ in roots_at_time(build_G_poly(C15M), 0.0).roots]
    shared = min(abs(a - b) for a in f15 for b in g15)
    assert shared < 1e-9


def test_condition_estimates_finite_for_simple_roots() -> None:
    rs = roots_at_time(build_F_poly(C12M), 0.2)
    assert all(m == 1 for _, m in rs.roots)
    assert all(0 < c < 1e6 for c in rs.condition)


def test_residue_sum_continuity_at_collision() -> None:
    # Four simple poles near x = -i pi/2 at small |t| carry residues whose
    # sum approaches the residue of the order-(3,4) collision configuration:
    # u ~ 2 gamma (G'''/3!) / (F''''/4!) / (x - xc) there.
    cfg = C15M
    xc = -0.5j * math.pi
    g3 = G_scaled(cfg, xc, 0.0, dx=3)
    f4 = F_scaled(cfg, xc, 0.0, dx=4)
    res0 = 2.0 * cfg.gamma * 4.0 * g3.ratio(f4)
    for t in (1e-5, -1e-5):
        poles = oracle_poles(cfg, t=t)
        near = [x for x, m in poles if abs(x - xc) < 0.3 and m == 1]
        assert len(near) == 4
        total = 0j
        for x in near:
            G = G_scaled(cfg, x, t)
            Fx = F_scaled(cfg, x, t, dx=1)
            total += 2.0 * cfg.gamma * G.ratio(Fx)
        assert abs(total - res0) < 1e-4


# ---------------------------------------------------------------------------
# Conjugate symmetry: real coefficients, and the mirror t -> -t
# ---------------------------------------------------------------------------

_COPRIME_9 = [(a, b) for b in range(2, 10) for a in range(1, b) if math.gcd(a, b) == 1]


def _log_distance(a: complex, b: complex) -> float:
    """|log y_a - log y_b| with the phase difference folded into [-pi, pi]:
    the relative distance of two roots, finite beyond double range."""
    d = a - b
    return abs(complex(d.real, math.remainder(d.imag, 2 * math.pi)))


@given(
    pair=st.sampled_from(_COPRIME_9),
    variant=st.sampled_from(["plus", "minus"]),
    t=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=25, deadline=None)
def test_root_sets_are_closed_under_conjugation(
    pair: tuple[int, int], variant: str, t: float
) -> None:
    # F and G have real coefficients, so each root y comes with conj(y), of
    # the same multiplicity and condition (y itself when it is real).
    cfg = SolitonConfig.make(*pair, variant)
    for poly in (build_F_poly(cfg), build_G_poly(cfg)):
        rs = roots_at_time(poly, t)
        entries = list(zip(rs.log_roots, (m for _, m in rs.roots), rs.condition))
        for log_y, m, kappa in entries:
            if log_y.real == -math.inf:
                continue
            partner = min(entries, key=lambda e: _log_distance(e[0], log_y.conjugate()))
            assert _log_distance(partner[0], log_y.conjugate()) < 1e-12
            assert partner[1] == m
            assert partner[2] == pytest.approx(kappa, rel=1e-9)


def _fold(x: complex, lam: float) -> complex:
    """x with Im x folded into the strip (-lam pi, lam pi]."""
    im = -math.remainder(-x.imag, 2 * math.pi * lam)
    return complex(x.real, im)


@given(
    pair=st.sampled_from(_COPRIME_9),
    variant=st.sampled_from(["plus", "minus"]),
    t=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=25, deadline=None)
def test_oracle_poles_mirror_in_time(pair: tuple[int, int], variant: str, t: float) -> None:
    # F(x, t) = 0 exactly when F(-conj x, -t) = 0: the poles at -t are
    # {-conj x} of the poles at t, multiplicities included.
    cfg = SolitonConfig.make(*pair, variant)
    lam = cfg.comm.lam
    ahead = oracle_poles(cfg, t=t)
    behind = oracle_poles(cfg, t=-t)
    assert len(ahead) == len(behind)
    unmatched = list(behind)
    for x, m in ahead:
        image = _fold(-x.conjugate(), lam)
        best = min(unmatched, key=lambda pm: abs(pm[0] - image))
        assert abs(best[0] - image) <= 1e-12 * max(1.0, abs(image))
        assert best[1] == m
        unmatched.remove(best)


@pytest.mark.parametrize(
    "k1,k2,variant,t",
    [
        (1, 2, "plus", 0.3),
        (1, 7, "plus", 0.0),
        (1, 5, "minus", 1e-5),
        (2, 7, "plus", -4.0),
        (3, 8, "minus", 10.0),
        (8, 9, "plus", 12.114),
    ],
)
def test_conjugate_mirror_equals_polishing_every_estimate(
    monkeypatch, k1: int, k2: int, variant: str, t: float
) -> None:
    # Recording conj of a polished root for its conjugate estimate must give
    # what polishing that estimate gives: same roots to 45-digit noise, same
    # multiplicities and conditions.  The spy proves the mirror was used.
    poly = build_F_poly(SolitonConfig.make(k1, k2, variant))
    pair_up = exppoly._conjugate_pairs
    paired = []

    def spy(log_y):
        pairs = pair_up(log_y)
        paired.append(len(pairs))
        return pairs

    monkeypatch.setattr(exppoly, "_conjugate_pairs", spy)
    mirrored = roots_at_time(poly, t)
    monkeypatch.setattr(exppoly, "_conjugate_pairs", lambda log_y: {})
    each = roots_at_time(poly, t)
    assert paired and paired[0] >= 2
    assert sorted(m for _, m in mirrored.roots) == sorted(m for _, m in each.roots)
    for log_y, (_, m), kappa in zip(mirrored.log_roots, mirrored.roots, mirrored.condition):
        k = min(range(len(each.log_roots)), key=lambda i: _log_distance(each.log_roots[i], log_y))
        assert _log_distance(each.log_roots[k], log_y) < 1e-20
        assert each.roots[k][1] == m
        assert each.condition[k] == pytest.approx(kappa, rel=1e-12)


def test_conjugate_pairs_only_unambiguous_partners() -> None:
    # Conjugates pair, even near the real axis.  Two near-real estimates
    # that are no closer to each other's conjugate than to each other, and
    # the scattered estimates of a multiple root, do not.
    def logs(ys):
        return np.log(np.array(ys, dtype=complex))

    assert exppoly._conjugate_pairs(logs([1 + 2j, 3 - 1j, 1 - 2j, 3 + 1j])) == {2: 0, 1: 3}
    assert exppoly._conjugate_pairs(logs([2 + 1e-9j, 2 - 1e-9j])) == {1: 0}
    assert exppoly._conjugate_pairs(logs([2 + 1e-9j, 2 + 1e-7 - 3e-9j])) == {}
    scatter = [1j + 1e-4 * cmath.exp(1j * (0.4 + k * math.pi / 2)) for k in range(4)]
    other = [-1j + 1e-4 * cmath.exp(1j * (0.9 + k * math.pi / 2)) for k in range(4)]
    assert exppoly._conjugate_pairs(logs(scatter + other)) == {}
    # Beyond double range, where only log y exists.
    far = np.array([complex(-900.0, 0.5), complex(-900.0, -0.5)])
    assert exppoly._conjugate_pairs(far) == {1: 0}


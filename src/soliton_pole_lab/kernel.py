"""Closed-form evaluation of two-soliton solutions of the modified KdV equation.

The focusing mKdV equation

    u_t + 6 u^2 u_x + u_xxx = 0

admits a two-parameter family of 2-soliton solutions that extend to
meromorphic functions of complex x for every real t.  With wavenumbers
0 < k1 < k2 and shift parameters x1, x2, the building blocks are

    f_j(x, t) = exp(-k_j (x - x_j) + k_j^3 t),      gamma = (k2+k1)/(k2-k1),

and the two sign variants of the solution are rational in f1, f2:

    u = 2 gamma G / F,
    F_minus = (1 + f1 f2)^2 + gamma^2 (f1 - f2)^2,
    G_minus = -k1 f1 (1 + f2^2) + k2 f2 (1 + f1^2),

with the Plus variant obtained by substituting f1 -> -f1.  Equivalently
u = 2 (arctan g)_x for the angle representation g (``eval_g``).  The poles of
u in the complex x-plane are exactly the zeros of F; everything downstream
(tracking, structure checks, blowup construction) is built on the evaluators
in this module.

The config carries the variant, and the evaluators read it from there; a
caller that needs the other one passes ``cfg.with_variant(v)``.  Only the
term builders, which take bare numbers and no config (``_terms_F``,
``_terms_G``, ``_terms_g``, ``_eqg_terms``), take a variant.

All evaluation is log-balanced (see ``_balanced``): the largest exponential is
factored out before any floating-point sum, so accuracy is limited by pole
geometry rather than by exp() overflow.  The unscaled entry points (eval_f,
eval_FG) raise OverflowError only when the *result itself* cannot be
represented.

Dense grids of x use the grid engine (``F_grid``, ``G_grid``,
``eval_u_grid``, ``eval_u_x_grid``): one numpy pass over the term table per
term instead of one Python sum per point, with results equal to the scalar
evaluators bit for bit (see ``_balanced.ScaledGrid``).  The engine's core,
``_eval_terms_grid``, also takes one time per point, so samples scattered
in (x, t) -- the points of tracked pole curves -- are evaluated in one call
per table as well.

Pointwise callers (tracking, Newton correctors, finite-difference stencils)
keep the scalar path.  The one-value functions (F_scaled, G_scaled, ...)
sum one term table with ``balanced_sum``.  Newton in x -- the tracker's
corrector, which ``analysis.residue_at_pole`` and
``asymptotics.match_horizons`` share -- holds a point evaluator of F instead,
``_FPointEval(cfg)``.  It is written for F's fixed term layout, read once
from ``_terms_F``: six terms over five monomials, and five terms over four
in the F_x and F_t tables.  One call per Newton
iterate, ``point(x, t)``, forms the five monomial exponents, F's balance
base and the derivative tables' base, and the exponentials of each base
once, shared when the two bases are equal, and returns F and F_x as flat
values; the tracker's predictor then asks ``F_t(x, t)`` at an accepted
sample, from the same exponentials.  Each value is a straight-line sum in
table order with ``balanced_sum``'s float steps, so it equals F_scaled's
bit for bit.  An evaluator builds its tables when it is made, which costs
more than one plain sum, so the one-value functions do not use one.

Convention for shifts: the shift factors exp(k_j x_j) are folded directly
into f_j above.  For zero shifts this is the normalized solution whose
soliton interaction happens at x = 0, t = 0.  ``interaction_point`` returns
the interaction point in the translated-family parametrization (see its
docstring for the exact correspondence).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from ._balanced import (
    Scaled,
    ScaledGrid,
    _LOG_HUGE,
    _near,
    balanced_sum,
    balanced_sum_grid,
    cmul,
    complex_array,
)

__all__ = [
    "Variant",
    "CommensurabilityInfo",
    "SolitonConfig",
    "PoleMarker",
    "PoleError",
    "ConvergenceError",
    "eval_f",
    "eval_g",
    "eval_FG",
    "eval_u",
    "eval_u_sumform",
    "eval_one_soliton",
    "one_soliton_pole",
    "interaction_point",
    "symmetric_center",
    "eqg_residual",
    "pde_residual",
    "F_scaled",
    "G_scaled",
    "factor_scaled",
    "kdv_F_scaled",
    "eval_u_x",
    "eval_u_xx",
    "strip_scale",
    "F_grid",
    "G_grid",
    "eval_u_grid",
    "eval_u_x_grid",
]

NumberLike = Union[int, float, str, Fraction]

# Dimensionless pole tolerance from the design contract:
# x is a pole when |F| < POLE_TOL * max(1, |F_x| * strip_scale).
POLE_TOL = 1e-12
# Tolerance on dimensionless denominators (angle representation, sech forms).
DENOM_TOL = 1e-12


class PoleError(ValueError):
    """Raised when an evaluation that requires a regular point hits a pole."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative refinement fails to converge."""


def _record_dict(record, **extra) -> dict:
    """A result record's JSON form: its compared fields in declaration
    order, then ``extra``.  Complex values become [re, im], tuples become
    lists and nested records their own ``to_dict``.  A ``compare=False``
    field (a timing or a work counter) takes no part in equality and stays
    out of the export as well."""

    def export(value):
        if isinstance(value, complex):
            return [value.real, value.imag]
        if isinstance(value, tuple):
            return [export(v) for v in value]
        return value.to_dict() if hasattr(value, "to_dict") else value

    out = {f.name: export(getattr(record, f.name)) for f in fields(record) if f.compare}
    out.update(extra)
    return out


class Variant(Enum):
    """Sign variant of the two-soliton solution (f1 -> -f1 exchanges them)."""

    PLUS = "plus"
    MINUS = "minus"

    @classmethod
    def coerce(cls, value: "Variant | str") -> "Variant":
        if isinstance(value, Variant):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(f"unknown variant {value!r}; expected 'plus' or 'minus'")

    @property
    def sign(self) -> int:
        """+1 for PLUS, -1 for MINUS (the sign flipped with f1)."""
        return 1 if self is Variant.PLUS else -1


@dataclass(frozen=True)
class CommensurabilityInfo:
    """Arithmetic data available when k2/k1 is rational.

    k2/k1 = p2/p1 in lowest terms and lam = p1/k1 = p2/k2 so that every
    f_j is a function of y = exp(-x/lam): the solution is periodic in x with
    minimal imaginary period 2*pi*lam*i, and the fundamental strip is
    -lam*pi < Im x <= lam*pi.
    """

    p1: int
    p2: int
    lam: float
    lam_exact: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.p1 <= 0 or self.p2 <= 0:
            raise ValueError("p1, p2 must be positive")
        if math.gcd(self.p1, self.p2) != 1:
            raise ValueError("p1, p2 must be coprime")
        if not (self.lam > 0):
            raise ValueError("lam must be positive")

    @property
    def period(self) -> float:
        """Minimal imaginary period of the solution (as a positive real)."""
        return 2.0 * math.pi * self.lam


def _as_exact(value: NumberLike) -> Optional[Fraction]:
    """Exact-mode parse: ints, Fractions and strings like '7' or '3/2'.

    Floats (and float-looking strings, e.g. '1.5') signal approximate mode
    and yield None.
    """
    if isinstance(value, bool):
        raise TypeError("wavenumbers must be numbers, not bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        s = value.strip()
        if "/" in s:
            try:
                return Fraction(s)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
        try:
            return Fraction(int(s))
        except ValueError:
            return None
    return None


def _as_float(value: NumberLike) -> float:
    try:
        if isinstance(value, str):
            s = value.strip()
            return float(Fraction(s)) if "/" in s else float(s)
        return float(value)
    except OverflowError:
        raise ValueError(f"{value!r} overflows a double") from None


@dataclass(frozen=True)
class SolitonConfig:
    """Parameters of one two-soliton solution.

    Attributes
    ----------
    k1, k2 : wavenumbers, 0 < k1 < k2.
    x1, x2 : real shifts of the two solitons (default 0 = normalized).
    variant : PLUS or MINUS.
    k1_exact, k2_exact : Fractions when constructed from exact inputs.
    comm : commensurability data, present iff both wavenumbers are exact
        (a rational ratio is only trusted when stated exactly).
    """

    k1: float
    k2: float
    x1: float = 0.0
    x2: float = 0.0
    variant: Variant = Variant.MINUS
    k1_exact: Optional[Fraction] = None
    k2_exact: Optional[Fraction] = None
    comm: Optional[CommensurabilityInfo] = None

    @classmethod
    def make(
        cls,
        k1: NumberLike,
        k2: NumberLike,
        variant: "Variant | str" = Variant.MINUS,
        x1: float = 0.0,
        x2: float = 0.0,
    ) -> "SolitonConfig":
        """Build a config; exact inputs (ints, 'p/q' strings, Fractions) turn
        on exact mode and populate the commensurability data."""
        k1x, k2x = _as_exact(k1), _as_exact(k2)
        k1f, k2f = _as_float(k1), _as_float(k2)
        if not (0.0 < k1f < k2f):
            raise ValueError(f"wavenumbers must satisfy 0 < k1 < k2, got {k1f}, {k2f}")
        comm = None
        if k1x is not None and k2x is not None:
            ratio = k2x / k1x
            p1, p2 = ratio.denominator, ratio.numerator
            lam_exact = Fraction(p1) / k1x
            comm = CommensurabilityInfo(
                p1=p1, p2=p2, lam=float(lam_exact), lam_exact=lam_exact
            )
        return cls(
            k1=k1f,
            k2=k2f,
            x1=float(x1),
            x2=float(x2),
            variant=Variant.coerce(variant),
            k1_exact=k1x,
            k2_exact=k2x,
            comm=comm,
        )

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.k1, self.k2, self.x1, self.x2))):
            raise ValueError(
                "wavenumbers and shifts must be finite, got "
                f"k1={self.k1}, k2={self.k2}, x1={self.x1}, x2={self.x2}"
            )
        if not (0.0 < self.k1 < self.k2):
            raise ValueError("wavenumbers must satisfy 0 < k1 < k2")

    @property
    def gamma(self) -> float:
        """gamma = (k2+k1)/(k2-k1) > 1."""
        return (self.k2 + self.k1) / (self.k2 - self.k1)

    @property
    def gamma_exact(self) -> Optional[Fraction]:
        if self.k1_exact is None or self.k2_exact is None:
            return None
        return (self.k2_exact + self.k1_exact) / (self.k2_exact - self.k1_exact)

    @property
    def exact(self) -> bool:
        return self.k1_exact is not None and self.k2_exact is not None

    def with_variant(self, variant: "Variant | str") -> "SolitonConfig":
        v = Variant.coerce(variant)
        return self if v is self.variant else replace(self, variant=v)

    def with_shifts(self, x1: float, x2: float) -> "SolitonConfig":
        return replace(self, x1=float(x1), x2=float(x2))

    def to_dict(self) -> dict:
        return {
            "k1": self.k1,
            "k2": self.k2,
            "variant": self.variant.value,
            "x1": self.x1,
            "x2": self.x2,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class PoleMarker:
    """Marks that an evaluation point sits on (numerically: within tolerance
    of) a pole.  This is a value, not an error: callers asking for u at a pole
    get the location back together with the tiny denominator magnitude."""

    x: complex
    t: float
    magnitude: float


def strip_scale(cfg: SolitonConfig) -> float:
    """Length scale of the pole pattern transverse to the real axis.

    lam*pi for commensurable configs (half the imaginary period); pi/k2 (the
    fast soliton's pole spacing) otherwise.
    """
    if cfg.comm is not None:
        return cfg.comm.lam * math.pi
    return math.pi / cfg.k2


# ---------------------------------------------------------------------------
# Exponential-sum term tables:  each entry (c, a1, a2) stands for
#       c * f1^a1 * f2^a2.
# Differentiation acts term-wise:  d/dx -> *(-(a1 k1 + a2 k2)),
#                                  d/dt -> *(a1 k1^3 + a2 k2^3).
# ---------------------------------------------------------------------------

Term = tuple[complex, int, int]


def _terms_F(g2, variant: Variant) -> list[Term]:
    """Monomials of F from g2 = gamma^2.

    The one source of F's monomial data: coefficients keep the type of
    g2 (float for the kernel, Fraction for the exact polynomials in
    ``exppoly``).
    """
    s = -variant.sign  # +1 Minus, -1 Plus in front of the f1 f2 cross terms
    # (1 + s f1 f2)^2 + gamma^2 (f2 - s f1)^2, s = -sign(variant)
    return [
        (1, 0, 0),
        (2 * s, 1, 1),
        (1, 2, 2),
        (g2, 2, 0),
        (-2 * s * g2, 1, 1),
        (g2, 0, 2),
    ]


def _terms_G(k1, k2, variant: Variant) -> list[Term]:
    """Monomials of G; coefficients keep the type of k1, k2 (see _terms_F)."""
    s = variant.sign  # G_plus has +k1 f1 terms, G_minus has -k1 f1 terms
    return [
        (s * k1, 1, 0),
        (s * k1, 1, 2),
        (k2, 0, 1),
        (k2, 2, 1),
    ]


def _terms_factor(cfg: SolitonConfig, which: int) -> list[Term]:
    """F splits over C as F = F1 * F2 with

        F_plus_i  = 1 ± i gamma f1 ± i gamma f2 - f1 f2,
        F_minus_i = 1 ± i gamma f1 ∓ i gamma f2 + f1 f2,

    where i-th factor takes the upper sign for which=1."""
    if which not in (1, 2):
        raise ValueError("factor index must be 1 or 2")
    ig = 1j * cfg.gamma if which == 1 else -1j * cfg.gamma
    if cfg.variant is Variant.PLUS:
        return [(1.0, 0, 0), (ig, 1, 0), (ig, 0, 1), (-1.0, 1, 1)]
    return [(1.0, 0, 0), (ig, 1, 0), (-ig, 0, 1), (1.0, 1, 1)]


def _terms_kdv(cfg: SolitonConfig) -> list[Term]:
    """The KdV-form tau-like denominator 1 + gamma f1 + gamma f2 + f1 f2."""
    g = cfg.gamma
    return [(1.0, 0, 0), (g, 1, 0), (g, 0, 1), (1.0, 1, 1)]


def _terms_g(g, variant: Variant) -> tuple[list[Term], list[Term]]:
    """(numerator, denominator) monomials of the angle representation
    g = N / D; coefficients keep the type of gamma g (see _terms_F)."""
    s = variant.sign  # g_plus = -gamma (f1 + f2) / (1 - f1 f2)
    return [(-s * g, 1, 0), (-g, 0, 1)], [(1, 0, 0), (-s, 1, 1)]


def _w_pair(cfg: SolitonConfig, x: complex, t: float) -> tuple[complex, complex]:
    w1 = -cfg.k1 * (x - cfg.x1) + cfg.k1**3 * t
    w2 = -cfg.k2 * (x - cfg.x2) + cfg.k2**3 * t
    return w1, w2


def _term_table(k1, k2, terms: Sequence[Term], dx: int = 0, dt: int = 0) -> list[Term]:
    """The terms of a dx/dt derivative: each coefficient times its factors,
    zero terms dropped.  The scalar and grid evaluators read it with float
    wavenumbers, ``eqg_residual`` with mpf ones."""
    k1_3, k2_3 = k1**3, k2**3
    out: list[Term] = []
    for c, a1, a2 in terms:
        if dx:
            c = c * (-(a1 * k1 + a2 * k2)) ** dx
        if dt:
            c = c * (a1 * k1_3 + a2 * k2_3) ** dt
        if c != 0:
            out.append((c, a1, a2))
    return out


# F's six terms by monomial slot, in table order: the second and fifth share
# f1 f2, and the F_x and F_t tables drop the first, the constant term.
# ``_FPointEval``'s straight-line sums are written for this layout.
_F_SLOTS = (0, 1, 2, 3, 1, 4)


class _FPointEval:
    """Point evaluator of F for Newton in x and the tracker's predictor.

    ``ev.point(x, t)`` sets up the point (x, t) and returns F and F_x there
    as the flat tuple (F_rel, F_mant, F_log, F_x_mant, F_x_log, F_x_norm):
    F as its relative size (``Scaled.relative``) and the mantissa and log
    of its ``Scaled``, F_x as its ``Scaled``'s three parts.
    ``ev.F_t(x, t)`` then returns (mant, log) of F_t at that point, the
    last one set up; it forms no norm.  Every part equals ``F_scaled``'s
    bit for bit.

    It reads F's layout from ``_terms_F`` once: six terms over five
    monomials (``_F_SLOTS``), and five terms over the four non-constant
    monomials in the F_x and F_t tables of ``_term_table``.  A point's
    set-up forms w1 and w2, the five monomial exponents a1 w1 + a2 w2, the
    balance base of F and that of the derivative tables, and the
    exponentials exp(w - base) of each base.  F shares the derivative
    tables' exponentials unless F's constant term dominates, which gives F
    a base of its own; a base exponentiates only the monomials of its
    tables, as the constant can lie far above the derivatives' base.  Each
    value is then one straight-line sum in table order with
    ``balanced_sum``'s float steps.

    F_x is always on the layout: a non-constant monomial's factor
    -(a1 k1 + a2 k2) is nonzero for 0 < k1 < k2, and so is each of F's
    coefficients times it.  F_t's factor a1 k1^3 + a2 k2^3 can underflow
    (2 k1^3 = 0 for k1 = 1e-110, which drops the f1^2 term); an F_t table
    off the layout is summed by ``balanced_sum`` over its own support.
    """

    __slots__ = (
        "monomials", "nk1", "nk2", "x1", "x2", "k1_3", "k2_3",
        "coeffs", "coeffs_x", "coeffs_t", "table_t", "last",
    )  # fmt: skip

    def __init__(self, cfg: SolitonConfig) -> None:
        terms = _terms_F(cfg.gamma**2, cfg.variant)
        self.monomials = list(dict.fromkeys((a1, a2) for _, a1, a2 in terms))
        slots = {m: i for i, m in enumerate(self.monomials)}

        def on_layout(table: list[Term], layout: tuple) -> bool:
            return tuple(slots[a1, a2] for _, a1, a2 in table) == layout

        table_x = _term_table(cfg.k1, cfg.k2, terms, 1, 0)
        table_t = _term_table(cfg.k1, cfg.k2, terms, 0, 1)
        if not (on_layout(terms, _F_SLOTS) and on_layout(table_x, _F_SLOTS[1:])):
            raise AssertionError("F's term layout is not the one _F_SLOTS names")
        # _w_pair's operands.
        self.nk1, self.nk2 = -cfg.k1, -cfg.k2
        self.x1, self.x2 = cfg.x1, cfg.x2
        self.k1_3, self.k2_3 = cfg.k1**3, cfg.k2**3
        self.coeffs = tuple(c for c, _, _ in terms)
        self.coeffs_x = tuple(c for c, _, _ in table_x)
        if on_layout(table_t, _F_SLOTS[1:]):
            self.coeffs_t, self.table_t = tuple(c for c, _, _ in table_t), None
        else:
            self.coeffs_t, self.table_t = None, table_t
        # The point last set up: (x, t, w1, w2, its derivative tables'
        # exponentials, their base).
        self.last = None

    def point(
        self, x: complex, t: float
    ) -> tuple[float, complex, float, complex, float, float]:
        """Set up (x, t); (F_rel, F_mant, F_log, F_x_mant, F_x_log, F_x_norm)."""
        w1 = self.nk1 * (x - self.x1) + self.k1_3 * t
        w2 = self.nk2 * (x - self.x2) + self.k2_3 * t
        (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4) = self.monomials
        u0 = a0 * w1 + b0 * w2
        u1 = a1 * w1 + b1 * w2
        u2 = a2 * w1 + b2 * w2
        u3 = a3 * w1 + b3 * w2
        u4 = a4 * w1 + b4 * w2
        # Each table's max() over its exponents, in table order: the first
        # largest is kept, and the repeated f1 f2 term cannot replace it.
        r0, r1, r2, r3, r4 = u0.real, u1.real, u2.real, u3.real, u4.real
        base = r1
        if r2 > base:
            base = r2
        if r3 > base:
            base = r3
        if r4 > base:
            base = r4
        base_f = r0
        if r1 > base_f:
            base_f = r1
        if r2 > base_f:
            base_f = r2
        if r3 > base_f:
            base_f = r3
        if r4 > base_f:
            base_f = r4
        exp = cmath.exp
        e1 = exp(u1 - base)
        e2 = exp(u2 - base)
        e3 = exp(u3 - base)
        e4 = exp(u4 - base)
        self.last = (x, t, w1, w2, e1, e2, e3, e4, base)
        if base_f == base:
            # Equal bases give equal exponentials, whatever their zero signs.
            f0, f1, f2, f3, f4 = exp(u0 - base), e1, e2, e3, e4
        else:
            f0 = exp(u0 - base_f)
            f1 = exp(u1 - base_f)
            f2 = exp(u2 - base_f)
            f3 = exp(u3 - base_f)
            f4 = exp(u4 - base_f)
        c0, c1, c2, c3, c4, c5 = self.coeffs
        p = c0 * f0
        m = 0j + p
        n = abs(p)
        p = c1 * f1
        m += p
        n += abs(p)
        p = c2 * f2
        m += p
        n += abs(p)
        p = c3 * f3
        m += p
        n += abs(p)
        p = c4 * f1
        m += p
        n += abs(p)
        p = c5 * f4
        m += p
        n += abs(p)
        c0, c1, c2, c3, c4 = self.coeffs_x
        p = c0 * e1
        mx = 0j + p
        nx = abs(p)
        p = c1 * e2
        mx += p
        nx += abs(p)
        p = c2 * e3
        mx += p
        nx += abs(p)
        p = c3 * e1
        mx += p
        nx += abs(p)
        p = c4 * e4
        mx += p
        nx += abs(p)
        return (abs(m) / n if n else abs(m)), m, base_f, mx, base, nx

    def F_t(self, x: complex, t: float) -> tuple[complex, float]:
        """(mant, log) of F_t at (x, t), which must be the point last set
        up, passed as the same objects: its exponentials are reused."""
        x0, t0, w1, w2, e1, e2, e3, e4, base = self.last
        if x is not x0 or t is not t0:
            raise ValueError(f"F_t at ({x}, {t}), but ({x0}, {t0}) was set up")
        coeffs = self.coeffs_t
        if coeffs is None:
            mant, log, _ = balanced_sum(
                [(c, a1 * w1 + a2 * w2) for c, a1, a2 in self.table_t]
            )
            return mant, log
        c0, c1, c2, c3, c4 = coeffs
        m = 0j + c0 * e1
        m += c1 * e2
        m += c2 * e3
        m += c3 * e1
        m += c4 * e4
        return m, base


def _eval_terms(
    cfg: SolitonConfig,
    terms: Sequence[Term],
    x: complex,
    t: float,
    dx: int = 0,
    dt: int = 0,
) -> Scaled:
    w1, w2 = _w_pair(cfg, x, t)
    if dx or dt:
        terms = _term_table(cfg.k1, cfg.k2, terms, dx, dt)
    # Without derivative factors the table is the terms themselves, less
    # zero terms, which balanced_sum drops anyway.
    return balanced_sum([(c, a1 * w1 + a2 * w2) for c, a1, a2 in terms])


def _w_grid(k: float, shift: float, xr, xi, t):
    """-k (x - shift) + k^3 t over an array of x, as (re, im); t is a float
    or an array of times with the shape of x."""
    mr, mi = cmul(-k, 0.0, xr - shift, xi - 0.0)
    return mr + k**3 * t, mi + 0.0


def _eval_terms_grid(
    cfg: SolitonConfig,
    terms: Sequence[Term],
    xs: np.ndarray,
    t: "float | np.ndarray",
    dx: int = 0,
    dt: int = 0,
) -> ScaledGrid:
    """``_eval_terms`` at every point of a complex array, bit for bit.

    t is one time for every x, or an array of times with the shape of xs
    (one time per point, as for the samples of pole curves): each point
    then equals ``_eval_terms`` at its own (x, t)."""
    w1r, w1i = _w_grid(cfg.k1, cfg.x1, xs.real, xs.imag, t)
    w2r, w2i = _w_grid(cfg.k2, cfg.x2, xs.real, xs.imag, t)
    out = []
    for c, a1, a2 in _term_table(cfg.k1, cfg.k2, terms, dx, dt):
        r1, i1 = cmul(float(a1), 0.0, w1r, w1i)
        r2, i2 = cmul(float(a2), 0.0, w2r, w2i)
        out.append((c, r1 + r2, i1 + i2))
    return balanced_sum_grid(out, len(xs))


def _as_grid(xs: "Sequence[complex] | np.ndarray") -> np.ndarray:
    return np.asarray(xs, dtype=complex).reshape(-1)


def F_scaled(
    cfg: SolitonConfig,
    x: complex,
    t: float,
    dx: int = 0,
    dt: int = 0,
) -> Scaled:
    """Log-balanced F (or a mixed x/t derivative of it)."""
    return _eval_terms(cfg, _terms_F(cfg.gamma**2, cfg.variant), x, t, dx, dt)


def G_scaled(
    cfg: SolitonConfig,
    x: complex,
    t: float,
    dx: int = 0,
    dt: int = 0,
) -> Scaled:
    """Log-balanced G (or a mixed x/t derivative of it)."""
    return _eval_terms(cfg, _terms_G(cfg.k1, cfg.k2, cfg.variant), x, t, dx, dt)


def F_grid(
    cfg: SolitonConfig,
    xs: "Sequence[complex] | np.ndarray",
    t: float,
    dx: int = 0,
    dt: int = 0,
) -> ScaledGrid:
    """``F_scaled`` at every point of xs, bit for bit; t may also hold one
    time per point (see ``_eval_terms_grid``)."""
    return _eval_terms_grid(
        cfg, _terms_F(cfg.gamma**2, cfg.variant), _as_grid(xs), t, dx, dt
    )


def G_grid(
    cfg: SolitonConfig,
    xs: "Sequence[complex] | np.ndarray",
    t: float,
    dx: int = 0,
    dt: int = 0,
) -> ScaledGrid:
    """``G_scaled`` at every point of xs, bit for bit; t may also hold one
    time per point (see ``_eval_terms_grid``)."""
    return _eval_terms_grid(
        cfg, _terms_G(cfg.k1, cfg.k2, cfg.variant), _as_grid(xs), t, dx, dt
    )


def factor_scaled(
    cfg: SolitonConfig,
    x: complex,
    t: float,
    which: int,
    dx: int = 0,
    dt: int = 0,
) -> Scaled:
    """Log-balanced complex factor F1 or F2 of F (or a derivative)."""
    return _eval_terms(cfg, _terms_factor(cfg, which), x, t, dx, dt)


def _factor_grid(
    cfg: SolitonConfig,
    xs: np.ndarray,
    t: "float | np.ndarray",
    which: int,
    dx: int = 0,
    dt: int = 0,
) -> ScaledGrid:
    """``factor_scaled`` at every point of xs, bit for bit; t is one time
    or one per point (see ``_eval_terms_grid``)."""
    return _eval_terms_grid(cfg, _terms_factor(cfg, which), xs, t, dx, dt)


def kdv_F_scaled(
    cfg: SolitonConfig,
    x: complex,
    t: float,
    dx: int = 0,
    dt: int = 0,
) -> Scaled:
    """Log-balanced KdV-form denominator 1 + gamma f1 + gamma f2 + f1 f2."""
    return _eval_terms(cfg, _terms_kdv(cfg), x, t, dx, dt)


# ---------------------------------------------------------------------------
# Public evaluators
# ---------------------------------------------------------------------------


def eval_f(cfg: SolitonConfig, j: int, x: complex, t: float) -> complex:
    """f_j(x,t) = exp(-k_j (x - x_j) + k_j^3 t) for j in {1, 2}.

    Raises OverflowError (naming the offending exponent) when the real
    exponent exceeds the representable range.
    """
    if j not in (1, 2):
        raise ValueError("soliton index j must be 1 or 2")
    k = cfg.k1 if j == 1 else cfg.k2
    xs = cfg.x1 if j == 1 else cfg.x2
    w = -k * (complex(x) - xs) + k**3 * t
    if w.real > _LOG_HUGE:
        raise OverflowError(
            f"exponent {w.real:.3f} of f_{j} exceeds the representable range"
        )
    return cmath.exp(w)


def eval_g(cfg: SolitonConfig, x: complex, t: float) -> "complex | PoleMarker":
    """Angle representation g with u = 2 (arctan g)_x:

        g_plus  = -gamma (f1 + f2) / (1 - f1 f2),
        g_minus =  gamma (f1 - f2) / (1 + f1 f2).

    Returns a PoleMarker when the denominator modulus falls below tolerance
    relative to its term scale.  Note g has poles that u does not inherit.
    """
    num_terms, den_terms = _terms_g(cfg.gamma, cfg.variant)
    num = _eval_terms(cfg, num_terms, x, t)
    den = _eval_terms(cfg, den_terms, x, t)
    if den.relative() < DENOM_TOL:
        return PoleMarker(complex(x), t, den.relative())
    return num.ratio(den)


def eval_FG(cfg: SolitonConfig, x: complex, t: float) -> tuple[complex, complex]:
    """(F, G) as plain complex numbers, u = 2 gamma G / F where F != 0.

    Internally balanced; raises OverflowError only if F or G itself is not
    representable as a double.  Use ``F_scaled``/``G_scaled`` for large |t|.
    """
    return F_scaled(cfg, x, t).value(), G_scaled(cfg, x, t).value()


def eval_u(cfg: SolitonConfig, x: complex, t: float) -> "complex | PoleMarker":
    """The two-soliton solution u = 2 gamma G / F at complex x, real t.

    Returns a PoleMarker at zeros of F (tolerance scaled by |F_x| and the
    strip scale).  Never overflows: the ratio is formed in balanced form.
    """
    F = F_scaled(cfg, x, t)
    G = G_scaled(cfg, x, t)
    Fx = F_scaled(cfg, x, t, dx=1)
    if _at_pole(cfg, F, Fx):
        return PoleMarker(complex(x), t, F.relative())
    return 2.0 * cfg.gamma * G.ratio(F)


def _at_pole(cfg: SolitonConfig, F: Scaled, Fx: Scaled) -> bool:
    """The pole test: |F| < POLE_TOL * max(1, |F_x| * strip_scale)."""
    bound = math.log(POLE_TOL) + max(0.0, Fx.log_abs() + math.log(strip_scale(cfg)))
    return F.log_abs() < bound


def _pole_message(x: complex, t: float) -> str:
    return f"evaluation at x={x}, t={t} touches a pole"


def _u_or_raise(cfg: SolitonConfig, x: complex, t: float) -> complex:
    """``eval_u`` for callers that need a regular point: PoleError at a pole."""
    u = eval_u(cfg, x, t)
    if isinstance(u, PoleMarker):
        raise PoleError(_pole_message(x, t))
    return u


# ---------------------------------------------------------------------------
# Grid evaluators: the scalar ones above at every point of an array of x,
# with the same values bit for bit and the same errors, raised for the first
# offending point in grid order.
# ---------------------------------------------------------------------------


def _u_grid(cfg: SolitonConfig, xs: np.ndarray, t: float, raise_pole=False):
    """``eval_u`` over xs: (u, pole mask), u NaN at the poles.  G / F raises
    its error for the first non-pole point that has one.  With ``raise_pole``
    (``_u_or_raise``) only the points before the first pole are divided,
    and that pole then raises PoleError."""
    F = F_grid(cfg, xs, t)
    G = G_grid(cfg, xs, t)
    Fx = F_grid(cfg, xs, t, dx=1)
    lhs = F.log_abs()
    reach = Fx.log_abs() + math.log(strip_scale(cfg))
    rhs = math.log(POLE_TOL) + np.where(reach > 0.0, reach, 0.0)
    pole = lhs < rhs
    for i in np.flatnonzero(_near(lhs, rhs)).tolist():
        pole[i] = _at_pole(cfg, F.at(i), Fx.at(i))
    active = np.logical_and.accumulate(~pole) if raise_pole else ~pole
    qr, qi = G.ratio(F, active=active)
    if raise_pole and pole.any():
        raise PoleError(_pole_message(complex(xs[np.argmax(pole)]), t))
    u = complex_array(*cmul(2.0 * cfg.gamma, 0.0, qr, qi))
    u[pole] = complex("nan")
    return u, pole


def eval_u_grid(
    cfg: SolitonConfig, xs: "Sequence[complex] | np.ndarray", t: float
) -> tuple[np.ndarray, np.ndarray]:
    """``eval_u`` over xs: (u, pole), where pole marks the points at which
    ``eval_u`` returns a PoleMarker (u is NaN there); see ``_u_grid``."""
    return _u_grid(cfg, _as_grid(xs), t)


def _u_or_raise_grid(
    cfg: SolitonConfig, xs: "Sequence[complex] | np.ndarray", t: float
) -> np.ndarray:
    """``_u_or_raise`` over xs: the error of the first offending point,
    PoleError or the ratio's (see ``_u_grid``)."""
    return _u_grid(cfg, _as_grid(xs), t, raise_pole=True)[0]


def _sech_scaled(w: complex) -> tuple[Scaled, Scaled]:
    """(numerator, denominator) of sech(w) = 2 / (e^w + e^-w), balanced."""
    num = balanced_sum([(2.0, 0j)])
    den = balanced_sum([(1.0, w), (1.0, -w)])
    return num, den


def eval_one_soliton(k: float, x0: float, x: complex, t: float) -> "complex | PoleMarker":
    """Single negative soliton u(x,t) = -k sech(-k (x - x0) + k^3 t).

    Meromorphic in x with simple poles at x0 + k^2 t + m pi i / (2k), m odd.
    """
    if not k > 0:
        raise ValueError("wavenumber k must be positive")
    w = -k * (complex(x) - x0) + k**3 * t
    num, den = _sech_scaled(w)
    if den.relative() < DENOM_TOL:
        return PoleMarker(complex(x), t, den.relative())
    return -k * num.ratio(den)


def one_soliton_pole(k: float, x0: float, t: float, m: int) -> complex:
    """The m-th (m odd) pole x0 + k^2 t + m pi i/(2k) of the one-soliton."""
    if m % 2 == 0:
        raise ValueError("pole index m must be odd")
    return x0 + k**2 * t + 1j * m * math.pi / (2.0 * k)


def eval_u_sumform(cfg: SolitonConfig, x: complex, t: float) -> "complex | PoleMarker":
    """u via the weighted sum of one-soliton profiles:

        u_plus  = gamma (u1 + u2) / D_plus,
        u_minus = gamma (-u1 + u2) / D_minus,

    where u_j = k_j sech(-k_j (x-x_j) + k_j^3 t) and
    D = F / ((1 + f1^2)(1 + f2^2)).  An independent route from eval_u; it has
    its own (spurious) pole set where 1 + f_j^2 = 0, marked accordingly.
    """
    w1, w2 = _w_pair(cfg, x, t)
    n1, d1 = _sech_scaled(w1)
    n2, d2 = _sech_scaled(w2)
    if d1.relative() < DENOM_TOL or d2.relative() < DENOM_TOL:
        return PoleMarker(complex(x), t, min(d1.relative(), d2.relative()))
    u1 = cfg.k1 * n1.ratio(d1)
    u2 = cfg.k2 * n2.ratio(d2)
    F = F_scaled(cfg, x, t)
    prod = balanced_sum(
        [(1.0, 0j), (1.0, 2 * w1), (1.0, 2 * w2), (1.0, 2 * w1 + 2 * w2)]
    )
    # D = F / ((1+f1^2)(1+f2^2)) is dimensionless and O(1) away from poles.
    if F.relative() < DENOM_TOL:
        return PoleMarker(complex(x), t, F.relative())
    D = F.ratio(prod)
    s = 1.0 if cfg.variant is Variant.PLUS else -1.0
    if abs(D) < DENOM_TOL:
        return PoleMarker(complex(x), t, abs(D))
    return cfg.gamma * (s * u1 + u2) / D


def eval_u_x(cfg: SolitonConfig, x: complex, t: float) -> complex:
    """d/dx of u, from the closed form u_x = 2 gamma (G_x F - G F_x) / F^2."""
    F = F_scaled(cfg, x, t)
    Fx = F_scaled(cfg, x, t, dx=1)
    G = G_scaled(cfg, x, t)
    Gx = G_scaled(cfg, x, t, dx=1)
    num = Gx * F - G * Fx
    return 2.0 * cfg.gamma * num.ratio(F * F)


def eval_u_x_grid(
    cfg: SolitonConfig, xs: "Sequence[complex] | np.ndarray", t: float
) -> np.ndarray:
    """``eval_u_x`` over xs; the ratio raises for the first point that fails."""
    xs = _as_grid(xs)
    F = F_grid(cfg, xs, t)
    Fx = F_grid(cfg, xs, t, dx=1)
    G = G_grid(cfg, xs, t)
    Gx = G_grid(cfg, xs, t, dx=1)
    qr, qi = (Gx * F - G * Fx).ratio(F * F)
    return complex_array(*cmul(2.0 * cfg.gamma, 0.0, qr, qi))


def eval_u_xx(cfg: SolitonConfig, x: complex, t: float) -> complex:
    """Second x-derivative of u, closed form

        u_xx = 2 gamma [ (G_xx F - G F_xx) F - 2 F_x (G_x F - G F_x) ] / F^3.
    """
    F = F_scaled(cfg, x, t)
    Fx = F_scaled(cfg, x, t, dx=1)
    Fxx = F_scaled(cfg, x, t, dx=2)
    G = G_scaled(cfg, x, t)
    Gx = G_scaled(cfg, x, t, dx=1)
    Gxx = G_scaled(cfg, x, t, dx=2)
    num = (Gxx * F - G * Fxx) * F - 2.0 * (Fx * (Gx * F - G * Fx))
    return 2.0 * cfg.gamma * num.ratio(F * F * F)


# ---------------------------------------------------------------------------
# Interaction geometry
# ---------------------------------------------------------------------------


def interaction_point(cfg: SolitonConfig) -> tuple[float, float]:
    """Interaction center/time (x0, t0) in the translated-family convention:

        t0 = -(x2 - x1)/(k2^2 - k1^2) - log(gamma) / ((k2 + k1) k1 k2),
        x0 = (k2^2 x1 - k1^2 x2)/(k2^2 - k1^2)
             - (k1^2 + k1 k2 + k2^2) log(gamma) / ((k2 + k1) k1 k2).

    Geometrically (x0, t0) is where the incoming fast ridge line
    x = k2^2 t + x2 - log(gamma)/k2 crosses the outgoing slow ridge line
    x = k1^2 t + x1 - log(gamma)/k1.  In this module's shift convention the
    config with shifts (x1 - log(gamma)/k1, x2 - log(gamma)/k2) has both
    ridge exponents vanish at (x0, t0) — its u is even in x about x0 at time
    t0.  ``symmetric_center`` gives the evenness center of *this* config.
    """
    k1, k2 = cfg.k1, cfg.k2
    lg = math.log(cfg.gamma)
    denom = (k2 + k1) * k1 * k2
    t0 = -(cfg.x2 - cfg.x1) / (k2**2 - k1**2) - lg / denom
    x0 = (k2**2 * cfg.x1 - k1**2 * cfg.x2) / (k2**2 - k1**2) - (
        k1**2 + k1 * k2 + k2**2
    ) * lg / denom
    return x0, t0


def symmetric_center(cfg: SolitonConfig) -> tuple[float, float]:
    """(x0, t0) such that u(cfg) is even about x0 at time t0.

    In this module's shift convention these carry no log(gamma) offset:
    x0 = (k2^2 x1 - k1^2 x2)/(k2^2 - k1^2), t0 = -(x2 - x1)/(k2^2 - k1^2);
    zero shifts give the normalized interaction at the origin.
    """
    k1, k2 = cfg.k1, cfg.k2
    t0 = -(cfg.x2 - cfg.x1) / (k2**2 - k1**2)
    x0 = (k2**2 * cfg.x1 - k1**2 * cfg.x2) / (k2**2 - k1**2)
    return x0, t0


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------

# The g-equation cleared of denominators has monomial degrees up to (6, 5)
# in (f1, f2); eqg_residual sizes its working precision from them.
_EQG_MAX_DEG = (6, 5)


def _eqg_terms(k1, k2, variant: Variant, value) -> tuple:
    """The two composite terms of the g-equation multiplied by D^6,

        (D^2 + N^2)(g_t D^2 + g_xxx),    6 g_x (g_x^2 - N g_xx),

    where g_t, g_x stand for their numerators over D^2, g_xx over D^3 and
    g_xxx over D^4 (the quotient rule on g = N / D).  The equation holds
    exactly when the two terms sum to zero.

    ``value`` turns one derivative's term table (``_term_table`` of
    ``_terms_g``) into a number.  The algebra uses only +, -, * and integer
    scaling, so it runs unchanged on mpmath values at one point
    (``eqg_residual``) and on exact polynomials in (f1, f2) over Q
    (``_eqg_exact``).
    """
    num, den = _terms_g((k2 + k1) / (k2 - k1), variant)

    def at(terms, dx: int = 0, dt: int = 0):
        return value(_term_table(k1, k2, terms, dx, dt))

    N, Nx, Nxx, Nxxx = (at(num, dx) for dx in range(4))
    D, Dx, Dxx, Dxxx = (at(den, dx) for dx in range(4))
    Nt, Dt = at(num, dt=1), at(den, dt=1)
    gt = Nt * D - N * Dt
    gx = Nx * D - N * Dx
    p = Nxx * D - N * Dxx
    gxx = p * D - 2 * Dx * gx
    gxxx = (
        (Nxxx * D + Nxx * Dx - Nx * Dxx - N * Dxxx) * D - Dx * p - 2 * Dxx * gx
    ) * D - 3 * Dx * gxx
    D2 = D * D
    term1 = (D2 + N * N) * (gt * D2 + gxxx)
    term2 = 6 * (gx * (gx * gx - N * gxx))
    return term1, term2


class _QPoly:
    """A polynomial in (f1, f2) with rational coefficients: ``coeffs`` maps
    each monomial (a1, a2) to its nonzero coefficient, with +, -, * and
    scaling by an int or a Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], Fraction]) -> None:
        self.coeffs = coeffs

    @classmethod
    def collect(cls, items) -> "_QPoly":
        """The sum of (monomial, coefficient) pairs, zero terms dropped."""
        out: dict[tuple[int, int], Fraction] = {}
        for m, c in items:
            out[m] = out.get(m, 0) + c
        return cls({m: c for m, c in out.items() if c != 0})

    @classmethod
    def from_terms(cls, terms: Sequence[Term]) -> "_QPoly":
        return cls.collect(((a1, a2), c) for c, a1, a2 in terms)

    def __add__(self, other: "_QPoly") -> "_QPoly":
        return _QPoly.collect([*self.coeffs.items(), *other.coeffs.items()])

    def __sub__(self, other: "_QPoly") -> "_QPoly":
        return self + other * -1

    def __mul__(self, other: "_QPoly | int | Fraction") -> "_QPoly":
        if isinstance(other, (int, Fraction)):
            return _QPoly.collect((m, other * c) for m, c in self.coeffs.items())
        return _QPoly.collect(
            ((a1 + b1, a2 + b2), c * d)
            for (a1, a2), c in self.coeffs.items()
            for (b1, b2), d in other.coeffs.items()
        )

    __rmul__ = __mul__


def _eqg_exact(cfg: SolitonConfig) -> tuple[_QPoly, _QPoly]:
    """The two composite terms of ``_eqg_terms`` as exact polynomials in
    (f1, f2) over Q, for the exact binary values of the config's float
    wavenumbers.  The field equation holds identically, for every x, t and
    shift, exactly when they sum to the zero polynomial."""
    return _eqg_terms(Fraction(cfg.k1), Fraction(cfg.k2), cfg.variant, _QPoly.from_terms)


def _bridge_rests(cfg: SolitonConfig) -> tuple[_QPoly, _QPoly, _QPoly, _QPoly]:
    """(N, D, F rest, G rest) over Q, with g = N / D from ``_terms_g`` and
    gamma formed from the binary wavenumbers as in ``_eqg_terms``.  F's and
    G's tables belong to g, u = 2 gamma G / F = 2 g_x / (1 + g^2), exactly
    when both rests D^2 + N^2 - F and N_x D - N D_x - gamma G are zero."""
    k1, k2 = Fraction(cfg.k1), Fraction(cfg.k2)
    g = (k2 + k1) / (k2 - k1)
    N, Nx, D, Dx = (
        _QPoly.from_terms(_term_table(k1, k2, terms, dx))
        for terms in _terms_g(g, cfg.variant)
        for dx in (0, 1)
    )
    F = _QPoly.from_terms(_terms_F(g * g, cfg.variant))
    G = _QPoly.from_terms(_terms_G(k1, k2, cfg.variant))
    return N, D, D * D + N * N - F, Nx * D - N * Dx - G * g


def eqg_residual(cfg: SolitonConfig, x: complex, t: float) -> complex:
    """Relative residual of the governing equation for g,

        (1 + g^2)(g_t + g_xxx) + 6 g_x (g_x^2 - g g_xx) = 0,

    sampled at one point: the two composite terms of ``_eqg_terms`` (the
    equation times D^6) from the numerator and denominator of g = N / D and
    their derivatives, normalized by the magnitude of the larger term.  The
    battery proves the identity instead, from the same terms as exact
    polynomials (``_eqg_exact``); this sampled form serves callers
    that want a residual at given points.

    The exact cancellation spans the full exponential range of the
    monomials -- at large |t| that range exceeds double precision, so the
    evaluation runs in mpmath at a precision sized from the exponent
    spread.  A correct table gives residuals at the working-precision floor
    (far below 1e-10); a wrong coefficient anywhere shows up at its
    monomial's relative scale.

    Raises PoleError at poles of g (denominator below tolerance).
    """
    import mpmath as mp

    # Pole pre-check in fast double-precision balanced arithmetic.
    D_dbl = _eval_terms(cfg, _terms_g(cfg.gamma, cfg.variant)[1], x, t)
    if D_dbl.relative() < DENOM_TOL:
        raise PoleError(
            f"angle representation has a pole near x={complex(x)}, t={t}; "
            "choose a different sample point"
        )
    w1, w2 = _w_pair(cfg, x, t)
    d1, d2 = _EQG_MAX_DEG
    corners = (0.0, d1 * w1.real, d2 * w2.real, d1 * w1.real + d2 * w2.real)
    spread = max(corners) - min(corners)
    digits = 35 + int(spread / math.log(10.0))
    if digits > 10000:
        raise ValueError(
            f"sample point needs {digits} digits to certify; move x or t "
            "closer to the interaction region"
        )
    with mp.workdps(digits):
        f1 = mp.exp(mp.mpc(w1))
        f2 = mp.exp(mp.mpc(w2))
        term1, term2 = _eqg_terms(
            mp.mpf(cfg.k1),
            mp.mpf(cfg.k2),
            cfg.variant,
            lambda table: sum(c * f1**a1 * f2**a2 for c, a1, a2 in table),
        )
        scale = max(abs(term1), abs(term2))
        if scale == 0:
            return 0j
        return complex((term1 + term2) / scale)


def pde_residual(cfg: SolitonConfig, x: complex, t: float, h: float) -> complex:
    """Finite-difference residual of u_t + 6 u^2 u_x + u_xxx at (x, t).

    Second-order stencils: half-grid offsets x ± h/2, x ± 3h/2 for the space
    derivatives and t ± h for the time derivative, so the residual scales as
    O(h^2) (Richardson halving divides it by ~4).  Raises PoleError if any
    stencil point sits on a pole.
    """
    if not h > 0:
        raise ValueError("step h must be positive")
    um3 = _u_or_raise(cfg, x - 1.5 * h, t)
    um1 = _u_or_raise(cfg, x - 0.5 * h, t)
    up1 = _u_or_raise(cfg, x + 0.5 * h, t)
    up3 = _u_or_raise(cfg, x + 1.5 * h, t)
    u0 = _u_or_raise(cfg, x, t)
    ut = (_u_or_raise(cfg, x, t + h) - _u_or_raise(cfg, x, t - h)) / (2.0 * h)
    ux = (up1 - um1) / h
    uxxx = (up3 - 3.0 * up1 + 3.0 * um1 - um3) / h**3
    return ut + 6.0 * u0**2 * ux + uxxx

"""Exact polynomial algebra for commensurable wavenumbers.

When k2/k1 = p2/p1 is rational (p1, p2 coprime) there is a common scale
lambda = p1/k1 = p2/k2, and with y = e^{-x/lambda} both building blocks
become monomials:

    f_j = e^{k_j^3 t} e^{k_j x_j} y^{p_j}.

F and G are then polynomials in y whose coefficients are c * e^{sigma t}
with exact rational c and sigma (for normalized, zero-shift configs).  The
solution u(., t) is periodic in x with imaginary period 2 pi lambda, poles
in the fundamental strip -lambda pi < Im x <= lambda pi correspond
bijectively to roots of F(., t) in y != 0, and the root count with
multiplicity is exactly 2(p1 + p2) for every t.

This module builds those polynomials exactly, finds *all* their roots at a
fixed time, and maps roots back to pole positions in the strip.  It is the
global oracle against which the local pole tracker is validated.  Two
stages:

* A numpy Aberth sweep on Newton-polygon initial circles updates every
  unconverged estimate at once, in log-scaled coordinates (log y), so roots
  far beyond double range stay representable.
* A Newton polish at ``_POLISH_DPS`` digits with cluster merging and
  multiplicity certification by the derivative ladder.  mpmath forms the
  coefficients once per snapshot; the iterations run in block-scaled
  Gaussian integers (``_GaussPoly``), where one set of term values
  c_k y^(n_k) per iterate gives p and every derivative it needs, as
  y^j p^(j)(y) = sum_k perm(n_k, j) c_k y^(n_k).
  F and G have real coefficients, so their non-real roots come in exact
  conjugate pairs: of two estimates that are unambiguously each other's
  conjugate, one is polished and certified and the other is recorded as its
  conjugate.  The integers round toward zero, so p(conj y) = conj p(y)
  holds exactly and the mirror is exact, not approximate.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, fzero

from ._balanced import Scaled, balanced_sum, complex_array
from .kernel import (
    ConvergenceError,
    SolitonConfig,
    Variant,
    _QPoly,
    _terms_F,
    _terms_G,
)

__all__ = [
    "ExpTerm",
    "ExpPoly",
    "RootSet",
    "build_F_poly",
    "build_G_poly",
    "exp_poly_eval",
    "roots_at_time",
    "y_to_x",
    "x_to_y",
    "oracle_poles",
]

# A root estimate y with |y - true| below CLUSTER_TOL*(min(1,|y|)+|y|) of
# another is considered the same underlying (possibly multiple) root: the
# bound is relative at every modulus, so roots of tiny |y| (x far out on
# the positive real side) do not all merge into one cluster.
CLUSTER_TOL = 1e-6
# Certified relative residual required of every reported root.
CERT_TOL = 1e-8
MAX_ITER = 500
_POLISH_DPS = 45
# An Aberth estimate stops once its relative residual is below this many
# times the rounding-error bound of the log-scaled evaluation
# (_aberth_sweep); the 45-digit Newton polish stops at this many times its
# own bound.
_FLOOR_FACTOR = 4.0
# The polish's integers carry this many bits beyond mp.prec, and its
# coefficient scale this many more above the largest term (_GaussPoly).
_GUARD_BITS = 48
_HEADROOM_BITS = 64
# log 2 split for e^(log y) = 2^k e^r: k * _LN2_HI is exact for |k| < 2^20.
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LOG2_3 = math.log2(3.0)
# log|y| outside this range does not survive conversion to a normal double.
_LOG_Y_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def _frac_str(value: Optional[Fraction]) -> Optional[str]:
    """Exact rational as 'numerator/denominator' (None passes through)."""
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class ExpTerm:
    """One term  c * e^{sigma t + log_factor} * y^degree  of an ExpPoly.

    ``coeff``/``sigma`` are floats for evaluation; the ``*_exact`` fields
    carry the rational values when the config is exact.
    ``log_factor`` holds the real shift contribution a1 k1 x1 + a2 k2 x2
    in log form so shifted configs stay representable.
    """

    degree: int
    coeff: complex
    sigma: float
    log_factor: float = 0.0
    coeff_exact: Optional[Fraction] = None
    sigma_exact: Optional[Fraction] = None

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "coeff": [self.coeff.real, self.coeff.imag],
            "sigma": self.sigma,
            "log_factor": self.log_factor,
            "coeff_exact": _frac_str(self.coeff_exact),
            "sigma_exact": _frac_str(self.sigma_exact),
        }


@dataclass(frozen=True)
class ExpPoly:
    """Polynomial in y = e^{-x/lambda} with coefficients c * e^{sigma t}.

    Terms are sorted by degree with at most one term per (degree, sigma)
    pair and zero coefficients pruned.  For F-kind polynomials the degree
    is 2(p1+p2) and the constant term is exactly 1 at every t.
    """

    terms: tuple[ExpTerm, ...]
    lam: float
    variant: Variant
    kind: str  # "F" or "G"
    lam_exact: Optional[Fraction] = None
    p1: int = 0
    p2: int = 0

    @property
    def degree(self) -> int:
        return max((term.degree for term in self.terms), default=0)

    def coefficients_at(self, t: float) -> list[Scaled]:
        """Dense coefficient list [c_0(t), ..., c_degree(t)] in scaled form."""
        groups: dict[int, list[tuple[complex, complex]]] = {}
        for term in self.terms:
            groups.setdefault(term.degree, []).append(
                (term.coeff, complex(term.sigma * t + term.log_factor))
            )
        return [
            balanced_sum(groups.get(n, [])) for n in range(self.degree + 1)
        ]

    def to_dict(self) -> dict:
        """JSON-ready form: term array plus strip geometry; exact rationals
        are rendered as 'num/den' strings to survive round-trips."""
        return {
            "kind": self.kind,
            "variant": self.variant.value,
            "lambda": self.lam,
            "lambda_exact": _frac_str(self.lam_exact),
            "p1": self.p1,
            "p2": self.p2,
            "degree": self.degree,
            "terms": [term.to_dict() for term in self.terms],
        }


@dataclass(frozen=True)
class RootSet:
    """All roots of an ExpPoly at one time, with certified multiplicities.

    ``roots`` pairs each root y with its multiplicity; multiplicities sum to
    the polynomial degree.  They are sorted by (Re y, Im y), where a part
    below 1e-30 of the larger part counts as 0.  ``condition`` holds a
    per-root sensitivity estimate (relative root change per unit relative
    coefficient change).
    ``iterations`` counts simultaneous Aberth sweeps (each updates every
    estimate not yet converged); ``cap_hit`` is true when the sweeps ran
    out (``MAX_ITER``) with estimates still unconverged, which the polish
    then had to finish.  ``log_roots`` holds log y of each root,
    taken from its 45-digit value: finite even where y over- or underflows a
    double (real part -inf only for a root at y = 0).

    ``condition`` and ``worst_residual`` are ratios of the polish's integer
    term sums at each polished root (``_GaussPoly``): the residual is
    |p(y)| over the term norm sum_k |c_k y^(n_k)|, and a simple root's
    condition is that norm over |y p'(y)|, times |y| / 1e-300 for |y| below
    1e-300.  A multiple root's condition is (norm m! / |y^m p^(m)(y)|)^(1/m)
    min(|y|, 1).
    """

    t: float
    roots: tuple[tuple[complex, int], ...]
    condition: tuple[float, ...]
    worst_residual: float
    iterations: int
    cap_hit: bool
    log_roots: tuple[complex, ...]

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "roots": [
                {
                    "re": y.real,
                    "im": y.imag,
                    "multiplicity": m,
                    "condition": kappa,
                }
                for (y, m), kappa in zip(self.roots, self.condition)
            ],
            "worst_residual": self.worst_residual,
            "iterations": self.iterations,
            "cap_hit": self.cap_hit,
        }


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _exp_poly(cfg: SolitonConfig, kind: str) -> ExpPoly:
    """F or G (``kind``) of the config's variant as an ExpPoly.  The
    kernel's (exact coefficient, a1, a2) monomials in (f1, f2), merged by
    monomial with zeros pruned (``_QPoly``), become ExpTerms sorted by
    (degree, sigma).  Distinct monomials have distinct (degree, sigma): the
    two are a1 p1 + a2 p2 and (a1 p1^3 + a2 p2^3) / lambda^3, and p1 < p2
    makes that map one-to-one."""
    comm = cfg.comm
    if comm is None:
        raise ValueError(
            "polynomial form requires commensurable wavenumbers; construct "
            "the config from exact inputs (ints, Fractions or 'p/q' strings)"
        )
    k1x, k2x = cfg.k1_exact, cfg.k2_exact
    if kind == "F":
        raw = _terms_F(cfg.gamma_exact**2, cfg.variant)
    else:
        raw = _terms_G(k1x, k2x, cfg.variant)
    terms = []
    for (a1, a2), c in _QPoly.from_terms(raw).coeffs.items():
        sigma = a1 * k1x**3 + a2 * k2x**3
        terms.append(
            ExpTerm(
                degree=a1 * comm.p1 + a2 * comm.p2,
                coeff=float(c),
                sigma=float(sigma),
                log_factor=a1 * cfg.k1 * cfg.x1 + a2 * cfg.k2 * cfg.x2,
                # _QPoly keeps integer coefficients as int.
                coeff_exact=Fraction(c),
                sigma_exact=sigma,
            )
        )
    return ExpPoly(
        terms=tuple(sorted(terms, key=lambda term: (term.degree, term.sigma_exact))),
        lam=comm.lam,
        variant=cfg.variant,
        kind=kind,
        lam_exact=comm.lam_exact,
        p1=comm.p1,
        p2=comm.p2,
    )


def build_F_poly(cfg: SolitonConfig) -> ExpPoly:
    """F as an exact polynomial in y: degree 2(p1+p2), constant term 1.

    Monomials (with s = -1 for Plus, +1 for Minus):
        1,  gamma^2 y^{2 p1} e^{2 k1^3 t},  gamma^2 y^{2 p2} e^{2 k2^3 t},
        (2s - 2s gamma^2) y^{p1+p2} e^{(k1^3+k2^3) t},
        y^{2(p1+p2)} e^{2(k1^3+k2^3) t}.
    """
    return _exp_poly(cfg, "F")


def build_G_poly(cfg: SolitonConfig) -> ExpPoly:
    """G as an exact polynomial in y (degree p1 + 2 p2):

        s k1 y^{p1} e^{k1^3 t} + s k1 y^{p1+2p2} e^{(k1^3+2k2^3) t}
        + k2 y^{p2} e^{k2^3 t} + k2 y^{2p1+p2} e^{(2k1^3+k2^3) t},

    with s = +1 for Plus, -1 for Minus.
    """
    return _exp_poly(cfg, "G")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def exp_poly_eval(poly: ExpPoly, y: complex, t: float, dy: int = 0) -> Scaled:
    """Evaluate the polynomial (or its dy-th y-derivative) at arbitrary y,
    balanced so that |y| may be astronomically large or small."""
    if y == 0:
        pieces = [
            (term.coeff * math.factorial(dy), complex(term.sigma * t + term.log_factor))
            for term in poly.terms
            if term.degree == dy
        ]
        return balanced_sum(pieces)
    log_y = cmath.log(y)
    pieces = []
    for term in poly.terms:
        n = term.degree
        if n < dy:
            continue
        fall = 1.0
        for i in range(dy):
            fall *= n - i
        w = term.sigma * t + term.log_factor + (n - dy) * log_y
        pieces.append((term.coeff * fall, w))
    return balanced_sum(pieces)


def y_to_x(y: complex, lam: float) -> complex:
    """Invert y = e^{-x/lambda} into the fundamental strip:
    x = -lambda log y with Im x in (-lambda pi, lambda pi]."""
    if y == 0:
        raise ValueError("y = 0 has no preimage x")
    return _log_y_to_x(complex(math.log(abs(y)), cmath.phase(y)), lam)


def _log_y_to_x(log_y: complex, lam: float) -> complex:
    """x = -lambda log y from log y with Im log y in (-pi, pi]."""
    theta = log_y.imag
    if theta == math.pi:
        theta = -math.pi  # boundary convention: Im x = +lambda pi
    # 0.0 - ...: an imaginary-axis pole gets Re x = +0.0 above and below the real axis.
    return complex(0.0 - lam * log_y.real, -lam * theta)


def x_to_y(x: complex, lam: float) -> complex:
    """y = e^{-x/lambda} (inverse of y_to_x; periodic in Im x)."""
    return cmath.exp(-complex(x) / lam)


# ---------------------------------------------------------------------------
# Global root finding
# ---------------------------------------------------------------------------


def _wrap_phase(log_y: np.ndarray) -> np.ndarray:
    """log y with its imaginary part folded into [-pi, pi)."""
    return complex_array(
        log_y.real, np.remainder(log_y.imag + math.pi, 2 * math.pi) - math.pi
    )


def _newton_polygon_inits(coeffs: list[Scaled]) -> np.ndarray:
    """Initial root estimates, as log y, from the upper convex hull of
    (n, log|c_n|): each hull segment of width m yields m points on the
    circle of its balance radius e^rho."""
    pts = [(n, c.log_abs()) for n, c in enumerate(coeffs) if c.mant != 0]
    # Upper hull, left to right.
    hull: list[tuple[int, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # Drop hull[-1] if it lies on or below segment hull[-2] -> p.
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    inits: list[complex] = []
    for (n1, l1), (n2, l2) in zip(hull, hull[1:]):
        m = n2 - n1
        rho = (l1 - l2) / m
        for j in range(m):
            inits.append(complex(rho, 2 * math.pi * (j + 0.26) / m + 0.7 / (1 + n1)))
    return _wrap_phase(np.array(inits, dtype=complex))


def _aberth_sweep(
    coeffs: list[Scaled], log_y: np.ndarray
) -> tuple[np.ndarray, int, bool]:
    """Simultaneous Aberth iteration on every unconverged estimate at once
    (Jacobi style: a sweep reads the positions the previous one left).
    Returns log y of each estimate, the number of sweeps used and whether
    the sweeps ran out before every estimate converged.

    Row i of the term array holds log(c_n y_i^n), shifted by the row's
    maximum before ``exp``, so every quantity is relative to y_i and stays
    in range however large or small |y_i| is: the Newton ratio
    p/(y_i p') = sum T / sum n T, and the Aberth sum
    y_i sum_j 1/(y_i - y_j) = sum_j 1/(1 - y_j/y_i), with Re log(y_j/y_i)
    clipped.  An estimate stops when its relative residual falls below
    _FLOOR_FACTOR times the rounding floor of this evaluation, or when its
    step is below 1e-14 of |y|.  The floor: each exponent log c_n + n log y
    carries an absolute error of about eps (|log c_n| + n |log|y||), a
    relative error of its term, and the phase adds n eps.  At large |t| or
    |log y| this is far above deg * eps."""
    nonzero = [(n, c) for n, c in enumerate(coeffs) if c.mant != 0]
    deg = np.array([n for n, _ in nonzero], dtype=float)
    mant = np.array([c.mant for _, c in nonzero], dtype=complex)
    log_c = np.array([c.log for _, c in nonzero], dtype=float)
    log_y = log_y.copy()
    active = np.ones(len(log_y), dtype=bool)
    it = 0
    with np.errstate(all="ignore"):
        for it in range(1, MAX_ITER + 1):
            rows = np.flatnonzero(active)
            ly = log_y[rows]
            w = log_c + deg * ly[:, None]
            terms = mant * np.exp(w - w.real.max(axis=1, keepdims=True))
            p = terms.sum(axis=1)
            yp = (deg * terms).sum(axis=1)
            floor = sys.float_info.epsilon * np.max(
                deg + np.abs(log_c) + deg * np.abs(ly.real)[:, None], axis=1
            )
            settled = np.abs(p) < _FLOOR_FACTOR * floor * np.abs(terms).sum(axis=1)
            # gap[i, j] = (y_i - y_j) / y_i; coincident estimates are pulled
            # apart by 1e-12 of the larger modulus, and j = i drops out.
            q = log_y - ly[:, None]
            q = np.exp(np.clip(q.real, -700.0, 700.0) + 1j * q.imag)
            scale = np.maximum(1.0, np.abs(q))
            gap = 1.0 - q
            gap = np.where(np.abs(gap) < 1e-14 * scale, 1e-12 * (1 + 1j) * scale, gap)
            gap[np.arange(len(rows)), rows] = np.inf
            ratio = p / yp
            denom = 1.0 - ratio * (1.0 / gap).sum(axis=1)
            step = np.where(denom == 0, ratio, ratio / denom)
            new = 1.0 - step  # y_new / y_i
            moved = ~settled & np.isfinite(new) & (new != 0) & (yp != 0)
            converged = settled | (moved & (np.abs(step) < 1e-14 * np.abs(new)))
            ly = np.where(moved, ly + np.log(np.where(moved, new, 1.0)), ly)
            # A vanished derivative (dead centre of a cluster) or a step onto
            # the origin gets a nudge instead.
            ly = np.where(~settled & (yp == 0), ly + complex(1e-3, 0.05), ly)
            stuck = ~settled & (yp != 0) & ~moved
            ly = np.where(stuck, ly + complex(-0.1, 0.03), ly)
            log_y[rows] = _wrap_phase(ly)
            active[rows[converged]] = False
            if not active.any():
                break
    return log_y, it, bool(active.any())


def _conjugate_pairs(log_y: np.ndarray) -> dict[int, int]:
    """{j: i} for each lower-half-plane estimate j that is unambiguously the
    conjugate of the upper-half-plane estimate i: the nearest lower estimate
    to conj(y_i), and a thousand times closer to it than either estimate is
    to any other.  Distances are |log(a/b)|, relative in y.  Newton from
    conj(y_i) then reaches the root Newton from y_j reaches.  Estimates of a
    multiple root scatter by eps^(1/m) and fail the margin, as do two
    near-real estimates that are not each other's conjugate; those are
    polished on their own."""
    n = len(log_y)
    if n < 2:
        return {}
    near = np.abs(_wrap_phase(log_y[:, None] - log_y[None, :]))
    np.fill_diagonal(near, np.inf)
    sep = near.min(axis=1)
    theta = log_y.imag
    upper = np.flatnonzero((theta > 0) & (theta < math.pi))
    lower = np.flatnonzero((theta < 0) & (theta > -math.pi))
    if not len(upper) or not len(lower):
        return {}
    to_conj = np.abs(_wrap_phase(log_y[lower][None, :] - log_y[upper][:, None].conj()))
    pairs: dict[int, int] = {}
    for row, i in enumerate(upper):
        col = int(np.argmin(to_conj[row]))
        j = int(lower[col])
        if j not in pairs and to_conj[row, col] < 1e-3 * min(sep[i], sep[j]):
            pairs[j] = int(i)
    return pairs


def _mp_exact(exact: Optional[Fraction], approx: complex) -> "mp.mpc":
    """A term's coefficient or rate at working precision: the exact rational
    when known, else its float."""
    if exact is None:
        return mp.mpc(approx)
    return mp.mpf(exact.numerator) / exact.denominator


# A Gaussian integer re + i*im, and an iterate (re, im, e): y = (re + i*im) 2^e.
_Gauss = tuple[int, int]
_Fixed = tuple[int, int, int]


def _shr(x: int, k: int) -> int:
    """x / 2^k rounded toward zero.  ``>>`` alone floors, and rounding must
    commute with negation for p(conj y) = conj p(y) to hold exactly."""
    return x >> k if x >= 0 else -(-x >> k)


def _quo(x: int, d: int) -> int:
    """x / d for d > 0, rounded toward zero (``//`` floors)."""
    return x // d if x >= 0 else -(-x // d)


def _cmul(a: _Gauss, b: _Gauss, bits: int) -> _Gauss:
    """a b / 2^bits: the product of two fixed-point values with ``bits``
    fraction bits, each part rounded toward zero."""
    ar, ai = a
    br, bi = b
    return _shr(ar * br - ai * bi, bits), _shr(ar * bi + ai * br, bits)


def _cdiv(num: _Gauss, den: _Gauss, bits: int) -> _Gauss:
    """num / den with ``bits`` fraction bits, each part rounded toward zero
    (den != 0)."""
    nr, ni = num
    dr, di = den
    d2 = dr * dr + di * di
    return _quo((nr * dr + ni * di) << bits, d2), _quo((ni * dr - nr * di) << bits, d2)


def _cabs(z: _Gauss) -> int:
    """floor |z|."""
    return math.isqrt(z[0] * z[0] + z[1] * z[1])


def _log2_abs(z: _Gauss) -> float:
    """log2 |z|, -inf at 0."""
    sq = z[0] * z[0] + z[1] * z[1]
    return 0.5 * math.log2(sq) if sq else -math.inf


def _ratio(num: int, den: int) -> float:
    """num / den for num, den >= 0 as a float: inf when den is 0 or the
    quotient is past the double range."""
    try:
        return num / den
    except (ZeroDivisionError, OverflowError):
        return math.inf


def _mp_parts(z: "mp.mpf | mp.mpc") -> _Fixed:
    """A finite mpf or mpc as (re, im, e) with z = (re + i*im) 2^e exactly."""
    raws = z._mpc_ if isinstance(z, mp.mpc) else (z._mpf_, fzero)
    e = min((exp for _, man, exp, _ in raws if man), default=0)
    re, im = ((-man if sign else man) << (exp - e) if man else 0 for sign, man, exp, _ in raws)
    return re, im, e


class _GaussPoly:
    """One snapshot's p(y) = sum_k c_k y^(n_k) in block-scaled Gaussian
    integers, for the polish.

    An iterate is ``_Fixed`` (re, im, e), kept by ``normal`` with
    u = (re + i*im) / 2^bits within a factor sqrt(2) of the unit circle.
    ``terms`` forms every T_k = c_k y^(n_k) / 2^E at once: the powers
    u^(n_k) come from one chain over the sorted degree gaps (F has two
    distinct gaps, 2 p1 and p2 - p1), each step a fixed-point product, and
    the coefficients c_k 2^(s n_k), s = e + bits, sit on one integer scale
    2^E on which the largest has bits + _HEADROOM_BITS bits.  Every quantity
    the polish tests is a ratio of sums of these values, so E cancels:
    y^j p^(j)(y) / 2^E = sum_k perm(n_k, j) T_k (``value``), and the term
    norm of p^(j) is sum_k perm(n_k, j) |T_k| (``norm``).  Each rounding is
    toward zero, so with real coefficients the values at conj y are
    exactly the conjugates of those at y."""

    def __init__(self, poly: ExpPoly, t: float) -> None:
        """The terms c_k e^(sigma_k t) at ``_POLISH_DPS`` digits, from the
        exact rationals of each term when it has them; bits = mp.prec +
        _GUARD_BITS."""
        with mp.workdps(_POLISH_DPS):
            self.bits = mp.mp.prec + _GUARD_BITS
            self._coeffs = [
                _mp_parts(
                    _mp_exact(term.coeff_exact, term.coeff)
                    * mp.exp(_mp_exact(term.sigma_exact, term.sigma) * t + term.log_factor)
                )
                for term in poly.terms
            ]
        self.degrees = [term.degree for term in poly.terms]
        # Real coefficients: p(conj y) = conj p(y).
        self.real = not any(ci for _, ci, _ in self._coeffs)
        distinct = sorted(set(self.degrees))
        slot = {n: i for i, n in enumerate(distinct)}
        self._slots = [slot[n] for n in self.degrees]
        # Power chain: u^(d_i) = u^(d_(i-1)) u^(gaps[i]) over the distinct degrees.
        self._gaps = [b - a for a, b in zip([0] + distinct, distinct)]
        self._gap_set = sorted({g for g in self._gaps if g})
        self._squarings = self._gap_set[-1].bit_length() if self._gap_set else 0
        self._scaled: dict[int, list[_Gauss]] = {}
        self._weights: dict[int, list[int]] = {}

    def normal(self, re: int, im: int, e: int) -> _Fixed:
        """(re, im, e) rescaled so that |re + i*im| is within sqrt(2) of 2^bits."""
        shift = (re * re + im * im).bit_length() // 2 - self.bits
        if shift > 0:
            return _shr(re, shift), _shr(im, shift), e + shift
        return re << -shift, im << -shift, e + shift

    def from_log(self, log_y: complex) -> _Fixed:
        """The iterate e^(log_y) of a finite double log y, to about a unit in
        the last place of a double: 2^k e^r (cos + i sin) with
        log_y.real = k log 2 + r.  Far beyond |k| = 2^20 the split is no
        longer exact and r can leave double range (|log y| near 1e19, at
        |t| of 1e18 and more): that estimate raises ConvergenceError."""
        k = round(log_y.real / _LN2)
        try:
            mag = math.exp((log_y.real - k * _LN2_HI) - k * _LN2_LO)
        except OverflowError:
            raise ConvergenceError(
                f"root estimate e^({log_y}) failed certification: "
                f"log|y| = {log_y.real:.6e} is out of range for its 2^k e^r split"
            ) from None
        re = int(math.ldexp(mag * math.cos(log_y.imag), 64))
        im = int(math.ldexp(mag * math.sin(log_y.imag), 64))
        return self.normal(re, im, k - 64)

    @staticmethod
    def to_mpc(y: _Fixed) -> "mp.mpc":
        """The iterate as an mpc, exactly (it keeps every bit)."""
        re, im, e = y
        return mp.make_mpc((from_man_exp(re, e), from_man_exp(im, e)))

    @staticmethod
    def log2_abs(y: _Fixed) -> float:
        """log2 |y|, |y| beyond double range too."""
        return y[2] + _log2_abs(y[:2])

    @staticmethod
    def below(y: _Fixed, limit: float) -> float:
        """min(1, |y| / limit) as a float, |y| beyond double range too."""
        m, k = math.frexp(float(_cabs(y[:2])))
        m0, k0 = math.frexp(limit)
        shift = k + y[2] - k0
        return 1.0 if shift > 1 else min(1.0, math.ldexp(m / m0, shift))

    def _scale(self, s: int) -> list[_Gauss]:
        """c_k 2^(s n_k - E) for every term, rounded toward zero, with E
        giving the largest bits + _HEADROOM_BITS bits."""
        top = max(
            max(abs(cr), abs(ci)).bit_length() + ce + s * n
            for (cr, ci, ce), n in zip(self._coeffs, self.degrees)
            if cr or ci
        )
        scale = top - self.bits - _HEADROOM_BITS
        out = []
        for (cr, ci, ce), n in zip(self._coeffs, self.degrees):
            k = ce + s * n - scale
            out.append((cr << k, ci << k) if k >= 0 else (_shr(cr, -k), _shr(ci, -k)))
        return out

    def terms(self, y: _Fixed) -> list[_Gauss]:
        """T_k = c_k y^(n_k) / 2^E for every term, in term order."""
        re, im, e = y
        bits = self.bits
        coeffs = self._scaled.get(e)
        if coeffs is None:
            coeffs = self._scaled[e] = self._scale(e + bits)
        squares = [(re, im)]  # u^(2^i)
        while len(squares) < self._squarings:
            squares.append(_cmul(squares[-1], squares[-1], bits))
        gap_power = {}
        for g in self._gap_set:
            acc = None
            for i, sq in enumerate(squares):
                if g >> i & 1:
                    acc = sq if acc is None else _cmul(acc, sq, bits)
            gap_power[g] = acc
        powers: list[Optional[_Gauss]] = []  # u^(d_i); None is u^0 = 1
        acc = None
        for g in self._gaps:
            if g:
                acc = gap_power[g] if acc is None else _cmul(acc, gap_power[g], bits)
            powers.append(acc)
        out = []
        for (cr, ci), slot in zip(coeffs, self._slots):
            power = powers[slot]
            if power is None:
                out.append((cr, ci))
            elif ci:
                out.append(_cmul((cr, ci), power, bits))
            else:
                out.append((_shr(cr * power[0], bits), _shr(cr * power[1], bits)))
        return out

    def _weight(self, j: int) -> list[int]:
        """perm(n_k, j) = n_k! / (n_k - j)! per term."""
        w = self._weights.get(j)
        if w is None:
            w = self._weights[j] = [math.perm(n, j) for n in self.degrees]
        return w

    def value(self, terms: list[_Gauss], j: int) -> _Gauss:
        """y^j p^(j)(y) / 2^E."""
        w = self._weight(j)
        return (
            sum(a * re for a, (re, _) in zip(w, terms)),
            sum(a * im for a, (_, im) in zip(w, terms)),
        )

    def norm(self, sizes: list[int], j: int) -> int:
        """The term norm of y^j p^(j)(y) / 2^E from the |T_k| in ``sizes``."""
        return sum(a * s for a, s in zip(self._weight(j), sizes))


def _polish_and_certify(
    poly: ExpPoly,
    t: float,
    estimates: np.ndarray,
    pairs: dict[int, int],
    zero_mult: int,
) -> tuple[list[tuple[complex, int, complex, float]], float]:
    """Newton polish at ``_POLISH_DPS`` digits, cluster merging, and
    multiplicity certification by the derivative ladder.  ``estimates``
    holds log y of each root estimate, ``pairs`` maps an estimate to the
    estimate whose conjugate it is (``_conjugate_pairs``).  Returns one
    record (y, multiplicity, log y, condition) per distinct root, in
    discovery order (the root at y = 0 first, then cluster by cluster), and
    the worst relative residual.  y and log y are doubles rounded from the
    polished root.

    mpmath forms the coefficients c_k e^(sigma_k t) once, from the exact
    rationals of each term when it has them: rounding gamma^2 to a double
    already splits the 4-fold roots of the exceptional collisions into
    simple roots ~1e-5 apart.  The Newton iterations and every test run in
    ``_GaussPoly``'s integers at mp.prec + _GUARD_BITS bits, one set of term
    values per iterate; each test is a ratio of its sums, so the thresholds
    are relative, as in ``_aberth_sweep``.  Clustering, the mean that
    starts a cluster's recentring, and the records' ``complex`` and
    ``mp.log`` run on mpc values converted exactly from the integers.

    The integers round toward zero, so with real coefficients
    p(conj y) = conj p(y) exactly and the Newton iterates, residual and
    condition of a conjugate estimate are the conjugates of its partner's:
    only one member of each pair is polished and certified, and the other
    is recorded as its conjugate.  A non-finite estimate raises
    ConvergenceError, its residual being NaN, and so does an iterate whose
    term norm is 0 (residual inf); the message names the estimate's log y,
    since the root's double y can under- or overflow."""
    for log_y in estimates:
        if not cmath.isfinite(log_y):
            raise ConvergenceError(
                f"root estimate e^({complex(log_y)}) failed certification: "
                f"relative residual nan > {CERT_TOL:.1e}"
            )
    with mp.workdps(_POLISH_DPS):
        gp = _GaussPoly(poly, t)
        if not gp.real:
            pairs = {}
        degree = poly.degree
        bits = gp.bits
        floor = _FLOOR_FACTOR * degree * float(mp.eps)
        log2_step_tol = (8 - _POLISH_DPS) * math.log2(10)

        def newton(y: _Fixed, deriv: int, max_steps: int) -> _Fixed:
            """Newton on p^(deriv): deriv 0 polishes a root estimate, deriv
            m-1 recentres an m-cluster on the simple root of p^(m-1).  With
            A_j = y^j p^(j)(y), its step is y A_d / A_(d+1).

            At an m-fold root Newton's step shrinks only by (m-1)/m, so once
            a step exceeds a third of the one before, the iteration turns to
            Newton on p/p', quadratic at every multiplicity, whose step is
            y A B / (B^2 - A C) with (A, B, C) = A_d, A_(d+1), A_(d+2); it stops
            when the residual |A_d| reaches the rounding floor of its term norm
            or the step stops shrinking (the root is then resolved to
            10^(-dps/m)).  Either stops on a step below 10^(8-dps) |y|, relative
            even far right, where |y| is tiny.  Steps compare as log2 |step|."""
            prev = None
            multiple = False
            size = gp.log2_abs(y)
            for _ in range(max_steps):
                terms = gp.terms(y)
                a = gp.value(terms, deriv)
                b = gp.value(terms, deriv + 1)
                if b == (0, 0):
                    break
                if multiple:
                    if _cabs(a) <= floor * gp.norm([_cabs(v) for v in terms], deriv):
                        break
                    c = gp.value(terms, deriv + 2)
                    den = (
                        b[0] * b[0] - b[1] * b[1] - a[0] * c[0] + a[1] * c[1],
                        2 * b[0] * b[1] - a[0] * c[1] - a[1] * c[0],
                    )
                    if den == (0, 0):
                        break
                    ab = (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
                    r = _cdiv(ab, den, bits)
                    step = size + _log2_abs(r) - bits
                    if prev is not None and step >= prev:
                        break
                    prev = step
                else:
                    r = _cdiv(a, b, bits)
                    step = size + _log2_abs(r) - bits
                    multiple = prev is not None and step > prev - _LOG2_3
                    prev = None if multiple else step
                re, im, e = y
                y = gp.normal(
                    re - _shr(re * r[0] - im * r[1], bits),
                    im - _shr(re * r[1] + im * r[0], bits),
                    e,
                )
                size = gp.log2_abs(y)
                if step <= log2_step_tol + size:
                    break
            return y

        n_est = len(estimates)
        fixed: list[Optional[_Fixed]] = [None] * n_est
        polished: list["mp.mpc"] = [mp.mpc(0)] * n_est
        for i, log_y in enumerate(estimates):
            if i not in pairs:
                fixed[i] = newton(gp.from_log(complex(log_y)), 0, 80)
                polished[i] = gp.to_mpc(fixed[i])
        for j, i in pairs.items():
            polished[j] = mp.conj(polished[i])

        # Cluster into connected components under the relative tolerance.
        parent = list(range(n_est))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n_est):
            # |d| < bound needs |Re d| and |Im d| below it; those cost no
            # square root, so abs(d) runs only for near pairs.
            size = abs(polished[i])
            bound = CLUSTER_TOL * (min(1, size) + size)
            for j in range(i + 1, n_est):
                d = polished[i] - polished[j]
                if abs(d.real) < bound and abs(d.imag) < bound and abs(d) < bound:
                    parent[find(i)] = find(j)
        clusters: dict[int, list[int]] = {}
        for i in range(n_est):
            clusters.setdefault(find(i), []).append(i)

        roots: list[tuple[complex, int, complex, float]] = []
        worst = 0.0

        def record(y: "mp.mpc", m: int, kappa: float) -> None:
            roots.append((complex(y), m, complex(mp.log(y)), kappa))

        if zero_mult:
            record(mp.mpc(0), zero_mult, 1.0)
        # Estimate index -> (relative residual, condition, y, log y).
        certified: dict[int, tuple[float, float, complex, complex]] = {}

        def keep_simple(k: int) -> None:
            """Certify estimate k's root as simple and record it with its
            condition |p|-norm / (|p'| max(|y|, 1e-300)); a conjugate
            estimate takes its partner's numbers and the conjugates of its y
            and log y."""
            nonlocal worst
            src = pairs.get(k, k)
            if src not in certified:
                y = fixed[src]
                terms = gp.terms(y)
                norm = sum(_cabs(v) for v in terms)
                # A zero iterate (every term 0) certifies nothing: roots at
                # y = 0 are counted by zero_mult, never polished.
                rel = _ratio(_cabs(gp.value(terms, 0)), norm) if norm else math.inf
                kappa = _ratio(norm, _cabs(gp.value(terms, 1))) * gp.below(y, 1e-300)
                ympc = polished[src]
                certified[src] = (rel, kappa, complex(ympc), complex(mp.log(ympc)))
            rel, kappa, y_d, log_d = certified[src]
            worst = max(worst, rel)
            if not rel <= CERT_TOL:
                raise ConvergenceError(
                    f"root estimate e^({complex(estimates[k])}) failed certification: "
                    f"relative residual {rel:.3e} > {CERT_TOL:.1e}"
                )
            if k != src:
                y_d, log_d = y_d.conjugate(), log_d.conjugate()
            roots.append((y_d, 1, log_d, kappa))

        for members in clusters.values():
            m = len(members)
            if m == 1:
                keep_simple(members[0])
                continue
            mean = sum(polished[i] for i in members) / m
            center = newton(gp.normal(*_mp_parts(mean)), m - 1, 60)
            # Derivative ladder: p^{(j)} must vanish (relative to its term
            # norm) for j < m and must not for j = m.
            terms = gp.terms(center)
            sizes = [_cabs(v) for v in terms]
            values = [_cabs(gp.value(terms, j)) for j in range(m + 1)]
            norms = [gp.norm(sizes, j) for j in range(m + 1)]
            rels = [_ratio(v, s) if s > 0 else 0.0 for v, s in zip(values[:m], norms[:m])]
            ladder_ok = rels[0] <= CERT_TOL and all(r <= 1e-3 for r in rels[1:])
            nondeg = norms[m] > 0 and values[m] / norms[m] > 1e-12
            if not ladder_ok or not nondeg:
                # Not a genuine multiple root: keep members as simple roots.
                for i in members:
                    keep_simple(i)
                continue
            worst = max(worst, rels[0])
            # Multiplicity-m sensitivity, eps^(1/m) scaling:
            # (|p|-norm m! / |p^(m)|)^(1/m) / max(|y|, 1).
            base = _ratio(norms[0] * math.factorial(m), values[m])
            kappa = base ** (1.0 / m) * gp.below(center, 1.0)
            record(gp.to_mpc(center), m, kappa)

        got = sum(m for _, m, _, _ in roots)
        if got != degree:
            raise ConvergenceError(
                f"root multiplicities sum to {got}, expected degree {degree}"
            )
        return roots, worst


def _sort_key(y: complex) -> tuple[float, float]:
    """(Re y, Im y), with a part below 1e-30 of the larger part read as 0:
    a root on an axis has the other part at the 45-digit polish's noise,
    whose sign must not decide its place.  The larger part, not |y|: abs()
    overflows for a root whose parts are doubles but |y| is not."""
    size = max(abs(y.real), abs(y.imag))
    return tuple(0.0 if abs(part) < 1e-30 * size else part for part in (y.real, y.imag))


def roots_at_time(poly: ExpPoly, t: float) -> RootSet:
    """All complex roots of the polynomial specialized at time t.

    Strategy: Newton-polygon circles seed a simultaneous Aberth iteration
    run in log-scaled double precision, one numpy sweep over all
    unconverged estimates at a time.  Every estimate is polished by
    Newton at ``_POLISH_DPS`` digits in integers (``_polish_and_certify``),
    except that of an unambiguous conjugate pair only one is, and the
    other becomes its exact conjugate (skipped when the sweeps hit
    ``MAX_ITER``).  Clusters within ``CLUSTER_TOL`` are
    merged and certified for multiplicity by the derivative ladder, and
    each root must pass a relative-residual certificate below ``CERT_TOL``.
    The polish's per-root records are sorted once by ``_sort_key`` (a
    stable sort), and the RootSet's roots, conditions and logarithms are
    read from that one list, so they stay aligned.  A non-finite t raises
    ValueError.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    coeffs = poly.coefficients_at(t)
    while coeffs and coeffs[-1].mant == 0:
        coeffs.pop()
    degree = len(coeffs) - 1
    if degree < 1:
        raise ValueError("polynomial must have degree >= 1 at this time")
    # Roots at y = 0: multiplicity = lowest nonzero coefficient index.
    zero_mult = 0
    while coeffs[zero_mult].mant == 0:
        zero_mult += 1
    reduced = coeffs[zero_mult:]
    if len(reduced) == 1:
        # Pure monomial c y^degree: only the origin root.
        return RootSet(
            t=t,
            roots=((0j, degree),) if zero_mult else tuple(),
            condition=(1.0,) if zero_mult else tuple(),
            worst_residual=0.0,
            iterations=0,
            cap_hit=False,
            log_roots=(complex(-math.inf),) if zero_mult else tuple(),
        )
    inits = _newton_polygon_inits(reduced)
    estimates, iters, cap_hit = _aberth_sweep(reduced, inits)
    pairs = {} if cap_hit else _conjugate_pairs(estimates)
    roots, worst = _polish_and_certify(poly, t, estimates, pairs, zero_mult)
    roots.sort(key=lambda r: _sort_key(r[0]))
    return RootSet(
        t=t,
        roots=tuple((y, m) for y, m, _, _ in roots),
        condition=tuple(c for _, _, _, c in roots),
        worst_residual=worst,
        iterations=iters,
        cap_hit=cap_hit,
        log_roots=tuple(g for _, _, g, _ in roots),
    )


def oracle_poles(cfg: SolitonConfig, t: float = 0.0) -> list[tuple[complex, int]]:
    """All poles of u in the fundamental strip at time t, with multiplicity,
    via the global polynomial root oracle.  Count (with multiplicity) is
    always 2(p1 + p2); sorted by (Im x, Re x).  A root whose y over- or
    underflows a double (|Re x| beyond ~709 lambda) is placed from its
    45-digit logarithm."""
    poly = build_F_poly(cfg)
    rs = roots_at_time(poly, t)
    out = []
    for (y, m), log_y in zip(rs.roots, rs.log_roots):
        if _LOG_Y_RANGE[0] < log_y.real < _LOG_Y_RANGE[1]:
            x = y_to_x(y, poly.lam)
        else:
            x = _log_y_to_x(log_y, poly.lam)
        out.append((x, m))
    out.sort(key=lambda pm: (pm[0].imag, pm[0].real))
    return out

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
* An arbitrary-precision Newton polish (``_POLISH_DPS`` digits) with
  cluster merging and multiplicity certification by the derivative ladder.
  One evaluator gives p and its derivatives from one power of y per term.
  F and G have real coefficients, so their non-real roots come in exact
  conjugate pairs: of two estimates that are unambiguously each other's
  conjugate, one is polished and certified and the other is recorded as its
  conjugate, which mpmath's arithmetic makes exact, not approximate.
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

from ._balanced import Scaled, balanced_sum, complex_array
from .kernel import (
    ConvergenceError,
    SolitonConfig,
    Variant,
    _in_variant,
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
    below 1e-30 |y| counts as 0.  ``condition`` holds a per-root sensitivity
    estimate (relative root change per unit relative coefficient change).
    ``iterations`` counts simultaneous Aberth sweeps (each updates every
    estimate not yet converged); ``cap_hit`` is true when the sweeps ran
    out (``MAX_ITER``) with estimates still unconverged, which the polish
    then had to finish.  ``log_roots`` holds log y of each root,
    taken from its 45-digit value: finite even where y over- or underflows a
    double (real part -inf only for a root at y = 0).
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


def build_F_poly(cfg: SolitonConfig, variant: "Variant | str | None" = None) -> ExpPoly:
    """F as an exact polynomial in y: degree 2(p1+p2), constant term 1.

    Monomials (with s = -1 for Plus, +1 for Minus):
        1,  gamma^2 y^{2 p1} e^{2 k1^3 t},  gamma^2 y^{2 p2} e^{2 k2^3 t},
        (2s - 2s gamma^2) y^{p1+p2} e^{(k1^3+k2^3) t},
        y^{2(p1+p2)} e^{2(k1^3+k2^3) t}.
    """
    return _exp_poly(_in_variant(cfg, variant), "F")


def build_G_poly(cfg: SolitonConfig, variant: "Variant | str | None" = None) -> ExpPoly:
    """G as an exact polynomial in y (degree p1 + 2 p2):

        s k1 y^{p1} e^{k1^3 t} + s k1 y^{p1+2p2} e^{(k1^3+2k2^3) t}
        + k2 y^{p2} e^{k2^3 t} + k2 y^{2p1+p2} e^{(2k1^3+k2^3) t},

    with s = +1 for Plus, -1 for Minus.
    """
    return _exp_poly(_in_variant(cfg, variant), "G")


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


def _polish_and_certify(
    poly: ExpPoly,
    t: float,
    estimates: np.ndarray,
    pairs: dict[int, int],
    zero_mult: int,
) -> tuple[list[tuple[complex, int, complex, float]], float]:
    """Arbitrary-precision Newton polish, cluster merging, multiplicity
    certification via the derivative ladder.  ``estimates`` holds log y of
    each root estimate, ``pairs`` maps an estimate to the estimate whose
    conjugate it is (``_conjugate_pairs``).  Returns one record
    (y, multiplicity, log y, condition) per distinct root, in discovery
    order (the root at y = 0 first, then cluster by cluster), and the
    worst relative residual.  y and log y are doubles taken from the
    45-digit root.

    The polynomial is built from the exact rationals of each term when it
    has them: rounding gamma^2 to a double already splits the 4-fold roots
    of the exceptional collisions into simple roots ~1e-5 apart.

    With real coefficients, p(conj y) = conj p(y) holds exactly in mpmath's
    arithmetic (each operation rounds real and imaginary parts alike, toward
    zero), so the Newton iterates, residual and condition of a conjugate
    estimate are the conjugates of its partner's: only one member of each
    pair is polished and certified, and the other is recorded as its
    conjugate."""
    with mp.workdps(_POLISH_DPS):
        mp_terms = [
            (
                _mp_exact(term.coeff_exact, term.coeff)
                * mp.exp(_mp_exact(term.sigma_exact, term.sigma) * t + term.log_factor),
                term.degree,
            )
            for term in poly.terms
        ]
        degree = poly.degree
        if any(mp.im(c) != 0 for c, _ in mp_terms):
            pairs = {}

        # c * n!/(n-j)!, the coefficient of y^(n-j) in the j-th derivative.
        falling: dict[tuple[int, int], "mp.mpf"] = {}

        def derivs(
            y: "mp.mpc", lo: int, hi: int, norms: int = 0
        ) -> tuple[list["mp.mpc"], list["mp.mpf"]]:
            """p^(j)(y) for j = lo..hi from one power y^(n-hi) per term
            (y^(n-j) = y^(n-hi) y^(hi-j)), and the term 1-norms of the first
            ``norms`` of them: a norm costs an absolute value per term, so
            only residual tests ask."""
            values = [mp.mpc(0)] * (hi - lo + 1)
            sizes = [mp.mpf(0)] * norms
            for k, (c, n) in enumerate(mp_terms):
                if n < lo:
                    continue
                top = min(n, hi)
                power = y ** (n - top)
                for j in range(top, lo - 1, -1):
                    coeff = falling.get((k, j))
                    if coeff is None:
                        coeff = falling[(k, j)] = c * math.perm(n, j)
                    term = coeff * power
                    values[j - lo] += term
                    if j - lo < norms:
                        sizes[j - lo] += abs(term)
                    if j > lo:
                        power = power * y
            return values, sizes

        step_tol = mp.mpf(10) ** (-_POLISH_DPS + 8)
        floor = _FLOOR_FACTOR * degree * mp.eps

        def newton(y: "mp.mpc", deriv: int, max_steps: int) -> "mp.mpc":
            """Newton on p^(deriv): deriv 0 polishes a root estimate, deriv
            m-1 recentres an m-cluster on the simple root of p^(m-1).

            At an m-fold root Newton's step shrinks only by (m-1)/m, so once
            a step exceeds a third of the one before, the iteration turns to
            Newton on p/p', quadratic at every multiplicity, and stops when
            the residual reaches the rounding floor or the step stops
            shrinking (the root is then resolved to 10^(-dps/m))."""
            prev = None
            multiple = False
            for _ in range(max_steps):
                if multiple:
                    (pv, dv, d2v), (norm,) = derivs(y, deriv, deriv + 2, 1)
                    if dv == 0 or abs(pv) <= floor * norm:
                        break
                    step = pv * dv / (dv * dv - pv * d2v)
                    if prev is not None and abs(step) >= abs(prev):
                        break
                    prev = step
                else:
                    (pv, dv), _ = derivs(y, deriv, deriv + 1)
                    if dv == 0:
                        break
                    step = pv / dv
                    multiple = prev is not None and abs(step) > abs(prev) / 3
                    prev = None if multiple else step
                y = y - step
                if abs(step) <= step_tol * (1 + abs(y)):
                    break
            return y

        n_est = len(estimates)
        polished: list["mp.mpc"] = [mp.mpc(0)] * n_est
        for i, log_y in enumerate(estimates):
            if i not in pairs:
                polished[i] = newton(mp.exp(mp.mpc(complex(log_y))), 0, 80)
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
            condition; a conjugate estimate takes its partner's numbers and
            the conjugates of its y and log y."""
            nonlocal worst
            src = pairs.get(k, k)
            if src not in certified:
                y = polished[src]
                (pv, dv), (norm,) = derivs(y, 0, 1, 1)
                # norm != 0, not norm > 0: a NaN norm must give a NaN rel.
                rel = float(abs(pv) / norm) if norm != 0 else 0.0
                kappa = (
                    float(norm / (abs(dv) * max(abs(y), mp.mpf(1e-300))))
                    if dv != 0
                    else math.inf
                )
                certified[src] = (rel, kappa, complex(y), complex(mp.log(y)))
            rel, kappa, y_d, log_d = certified[src]
            if not rel <= worst:  # a NaN too, which max() would drop
                worst = rel
            if not rel <= CERT_TOL:
                raise ConvergenceError(
                    f"root {complex(polished[k])} failed certification: "
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
            center = newton(sum(polished[i] for i in members) / m, m - 1, 60)
            # Derivative ladder: p^{(j)} must vanish (relative to its term
            # norm) for j < m and must not for j = m.
            values, sizes = derivs(center, 0, m, m + 1)
            rels = [
                float(abs(v) / s) if s > 0 else 0.0
                for v, s in zip(values[:m], sizes[:m])
            ]
            ladder_ok = rels[0] <= CERT_TOL and all(r <= 1e-3 for r in rels[1:])
            nondeg = sizes[m] > 0 and abs(values[m]) / sizes[m] > 1e-12
            if not ladder_ok or not nondeg:
                # Not a genuine multiple root: keep members as simple roots.
                for i in members:
                    keep_simple(i)
                continue
            worst = max(worst, rels[0])
            # Multiplicity-m sensitivity: eps^(1/m) scaling.
            base = sizes[0] / (abs(values[m]) / math.factorial(m))
            kappa = float(base) ** (1.0 / m) / max(float(abs(center)), 1.0)
            record(center, m, kappa)

        got = sum(m for _, m, _, _ in roots)
        if got != degree:
            raise ConvergenceError(
                f"root multiplicities sum to {got}, expected degree {degree}"
            )
        return roots, worst


def _sort_key(y: complex) -> tuple[float, float]:
    """(Re y, Im y), with a part below 1e-30 |y| read as 0: a root on an
    axis has the other part at the 45-digit polish's noise, whose sign must
    not decide its place."""
    size = abs(y)
    return tuple(0.0 if abs(part) < 1e-30 * size else part for part in (y.real, y.imag))


def roots_at_time(poly: ExpPoly, t: float) -> RootSet:
    """All complex roots of the polynomial specialized at time t.

    Strategy: Newton-polygon circles seed a simultaneous Aberth iteration
    run in log-scaled double precision, one numpy sweep over all
    unconverged estimates at a time.  Every estimate is polished by
    arbitrary-precision Newton, except that of an unambiguous conjugate
    pair only one is, and the other becomes its exact conjugate (skipped
    when the sweeps hit ``MAX_ITER``).  Clusters within ``CLUSTER_TOL`` are
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


def oracle_poles(
    cfg: SolitonConfig,
    variant: "Variant | str | None" = None,
    t: float = 0.0,
) -> list[tuple[complex, int]]:
    """All poles of u in the fundamental strip at time t, with multiplicity,
    via the global polynomial root oracle.  Count (with multiplicity) is
    always 2(p1 + p2); sorted by (Im x, Re x).  A root whose y over- or
    underflows a double (|Re x| beyond ~709 lambda) is placed from its
    45-digit logarithm."""
    poly = build_F_poly(cfg, variant)
    rs = roots_at_time(poly, t)
    out = []
    for (y, m), log_y in zip(rs.roots, rs.log_roots):
        if log_y.real == -math.inf:
            continue  # y=0 is x -> +infinity, not a strip pole (F has none).
        if _LOG_Y_RANGE[0] < log_y.real < _LOG_Y_RANGE[1]:
            x = y_to_x(y, poly.lam)
        else:
            x = _log_y_to_x(log_y, poly.lam)
        out.append((x, m))
    out.sort(key=lambda pm: (pm[0].imag, pm[0].real))
    return out

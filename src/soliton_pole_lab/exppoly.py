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
fixed time (simultaneous Aberth-style iteration on Newton-polygon initial
circles, then arbitrary-precision Newton polishing with multiplicity
certification), and maps roots back to pole positions in the strip.  It is
the global oracle against which the local pole tracker is validated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp

from ._balanced import Scaled, balanced_sum
from .kernel import ConvergenceError, SolitonConfig, Variant, _terms_F, _terms_G

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

# A root estimate y with |y - true| below CLUSTER_TOL*(1+|y|) of another is
# considered the same underlying (possibly multiple) root.
CLUSTER_TOL = 1e-6
# Certified relative residual required of every reported root.
CERT_TOL = 1e-8
MAX_ITER = 500
_POLISH_DPS = 45


def _frac_str(value: Optional[Fraction]) -> Optional[str]:
    """Exact rational as 'numerator/denominator' (None passes through)."""
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class ExpTerm:
    """One term  c * e^{sigma t + log_factor} * y^degree  of an ExpPoly.

    ``coeff``/``sigma`` are floats for evaluation; the ``*_exact`` fields
    carry the rational values when the config is exact and unshifted.
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
    the polynomial degree.  ``condition`` holds a per-root sensitivity
    estimate (relative root change per unit relative coefficient change).
    """

    t: float
    roots: tuple[tuple[complex, int], ...]
    condition: tuple[float, ...]
    worst_residual: float
    iterations: int

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
        }


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _require_comm(cfg: SolitonConfig) -> None:
    if cfg.comm is None:
        raise ValueError(
            "polynomial form requires commensurable wavenumbers; construct "
            "the config from exact inputs (ints, Fractions or 'p/q' strings)"
        )


def _build_terms(
    cfg: SolitonConfig, raw: Sequence[tuple[Fraction, int, int]]
) -> tuple[ExpTerm, ...]:
    """Assemble ExpTerms from (exact coefficient, a1, a2) monomials in
    (f1, f2), merging equal (degree, sigma) pairs and pruning zeros."""
    assert cfg.comm is not None
    p1, p2 = cfg.comm.p1, cfg.comm.p2
    k1x, k2x = cfg.k1_exact, cfg.k2_exact
    merged: dict[tuple[int, Fraction], Fraction] = {}
    shift_log: dict[tuple[int, Fraction], float] = {}
    for c, a1, a2 in raw:
        degree = a1 * p1 + a2 * p2
        sigma = a1 * k1x**3 + a2 * k2x**3
        key = (degree, sigma)
        merged[key] = merged.get(key, Fraction(0)) + c
        # Distinct (a1, a2) never merge at one degree (p1, p2 coprime), so
        # the shift factor is well-defined per key.
        shift_log[key] = a1 * cfg.k1 * cfg.x1 + a2 * cfg.k2 * cfg.x2
    unshifted = cfg.x1 == 0.0 and cfg.x2 == 0.0
    terms = []
    for (degree, sigma), c in sorted(merged.items()):
        if c == 0:
            continue
        terms.append(
            ExpTerm(
                degree=degree,
                coeff=float(c),
                sigma=float(sigma),
                log_factor=shift_log[(degree, sigma)],
                coeff_exact=c if unshifted else None,
                sigma_exact=sigma,
            )
        )
    return tuple(terms)


def build_F_poly(cfg: SolitonConfig, variant: "Variant | str | None" = None) -> ExpPoly:
    """F as an exact polynomial in y: degree 2(p1+p2), constant term 1.

    Monomials (with s = -1 for Plus, +1 for Minus):
        1,  gamma^2 y^{2 p1} e^{2 k1^3 t},  gamma^2 y^{2 p2} e^{2 k2^3 t},
        (2s - 2s gamma^2) y^{p1+p2} e^{(k1^3+k2^3) t},
        y^{2(p1+p2)} e^{2(k1^3+k2^3) t}.
    """
    _require_comm(cfg)
    v = cfg.variant if variant is None else Variant.coerce(variant)
    assert cfg.comm is not None
    return ExpPoly(
        terms=_build_terms(cfg, _terms_F(cfg.gamma_exact**2, v)),
        lam=cfg.comm.lam,
        variant=v,
        kind="F",
        lam_exact=cfg.comm.lam_exact,
        p1=cfg.comm.p1,
        p2=cfg.comm.p2,
    )


def build_G_poly(cfg: SolitonConfig, variant: "Variant | str | None" = None) -> ExpPoly:
    """G as an exact polynomial in y (degree p1 + 2 p2):

        s k1 y^{p1} e^{k1^3 t} + s k1 y^{p1+2p2} e^{(k1^3+2k2^3) t}
        + k2 y^{p2} e^{k2^3 t} + k2 y^{2p1+p2} e^{(2k1^3+k2^3) t},

    with s = +1 for Plus, -1 for Minus.
    """
    _require_comm(cfg)
    v = cfg.variant if variant is None else Variant.coerce(variant)
    assert cfg.comm is not None
    return ExpPoly(
        terms=_build_terms(cfg, _terms_G(cfg.k1_exact, cfg.k2_exact, v)),
        lam=cfg.comm.lam,
        variant=v,
        kind="G",
        lam_exact=cfg.comm.lam_exact,
        p1=cfg.comm.p1,
        p2=cfg.comm.p2,
    )


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
    theta = cmath.phase(y)  # in (-pi, pi]
    if theta == math.pi:
        theta = -math.pi  # boundary convention: Im x = +lambda pi
    return -lam * complex(math.log(abs(y)), theta)


def x_to_y(x: complex, lam: float) -> complex:
    """y = e^{-x/lambda} (inverse of y_to_x; periodic in Im x)."""
    return cmath.exp(-complex(x) / lam)


# ---------------------------------------------------------------------------
# Global root finding
# ---------------------------------------------------------------------------


def _newton_polygon_inits(coeffs: list[Scaled]) -> list[tuple[complex, float]]:
    """Initial root estimates (z, rho) with y = z e^{rho}, |z| = 1, from the
    upper convex hull of (n, log|c_n|): each hull segment of width m yields
    m points on the circle of its balance radius."""
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
    inits: list[tuple[complex, float]] = []
    for (n1, l1), (n2, l2) in zip(hull, hull[1:]):
        m = n2 - n1
        rho = (l1 - l2) / m
        for j in range(m):
            z = cmath.exp(2j * math.pi * (j + 0.26) / m + 0.7j / (1 + n1))
            inits.append((z, rho))
    return inits


def _eval_scaled_poly(
    coeffs: list[Scaled], z: complex, rho: float, deriv: int = 0
) -> Scaled:
    """Evaluate sum c_n y^n (or a derivative) at y = z e^{rho}, |z| ~ 1."""
    pieces = []
    for n, c in enumerate(coeffs):
        if c.mant == 0 or n < deriv:
            continue
        fall = 1.0
        for i in range(deriv):
            fall *= n - i
        pieces.append((c.mant * fall * z ** (n - deriv), c.log + (n - deriv) * rho))
    return balanced_sum([(m, complex(w)) for m, w in pieces])


def _aberth_sweep(
    coeffs: list[Scaled], roots: list[tuple[complex, float]], max_iter: int
) -> tuple[list[tuple[complex, float]], int]:
    """Simultaneous iteration in scaled coordinates; returns roots and the
    number of sweeps used."""
    n_roots = len(roots)
    converged = [False] * n_roots
    it = 0
    for it in range(1, max_iter + 1):
        moved = False
        for i in range(n_roots):
            if converged[i]:
                continue
            z_i, rho_i = roots[i]
            P = _eval_scaled_poly(coeffs, z_i, rho_i)
            if P.relative() < 5e-16:
                converged[i] = True
                continue
            Pp = _eval_scaled_poly(coeffs, z_i, rho_i, deriv=1)
            if Pp.mant == 0:
                # Derivative vanished (dead center of a cluster): nudge.
                roots[i] = (z_i * cmath.exp(0.05j), rho_i + 1e-3)
                moved = True
                continue
            N = P / Pp
            y_i = Scaled(z_i, rho_i, 1.0)
            S = Scaled(0j, 0.0, 0.0)
            for j in range(n_roots):
                if j == i:
                    continue
                z_j, rho_j = roots[j]
                d = y_i - Scaled(z_j, rho_j, 1.0)
                if d.mant == 0 or abs(d.mant) < 1e-14:
                    d = Scaled(1e-12 * (1 + 1j), max(rho_i, rho_j), 1.0)
                S = S + Scaled(1.0 / d.mant, -d.log, 0.0)
            denom = Scaled(1.0 + 0j, 0.0, 0.0) - (N * S)
            w = N if denom.mant == 0 else N / denom
            y_new = y_i - w
            if y_new.mant == 0:
                roots[i] = (z_i * cmath.exp(0.03j), rho_i - 0.1)
                moved = True
                continue
            rho_new = y_new.log + math.log(abs(y_new.mant))
            z_new = y_new.mant / abs(y_new.mant)
            # Converged when the step is tiny relative to the root.
            if w.log_abs() < rho_new + math.log(1e-14):
                converged[i] = True
            else:
                moved = True
            roots[i] = (z_new, rho_new)
        if all(converged) or not moved:
            break
    return roots, it


def _polish_and_certify(
    poly: ExpPoly,
    t: float,
    estimates: list[tuple[complex, float]],
    zero_mult: int,
    cluster_tol: float,
    cert_tol: float,
) -> tuple[list[tuple[complex, int]], list[float], float]:
    """Arbitrary-precision Newton polish, cluster merging, multiplicity
    certification via the derivative ladder.  Returns (roots, condition,
    worst relative residual)."""
    with mp.workdps(_POLISH_DPS):
        mp_terms = [
            (
                mp.mpc(term.coeff) * mp.exp(mp.mpf(term.sigma) * t + term.log_factor),
                term.degree,
            )
            for term in poly.terms
        ]
        degree = poly.degree

        def p_eval(y: "mp.mpc", deriv: int = 0) -> tuple["mp.mpc", "mp.mpf"]:
            """(value, term 1-norm) of the deriv-th derivative at y."""
            val = mp.mpc(0)
            norm = mp.mpf(0)
            for c, n in mp_terms:
                if n < deriv:
                    continue
                fall = 1
                for i in range(deriv):
                    fall *= n - i
                piece = c * fall * y ** (n - deriv)
                val += piece
                norm += abs(piece)
            return val, norm

        step_tol = mp.mpf(10) ** (-_POLISH_DPS + 8)

        def newton(y: "mp.mpc", deriv: int, max_steps: int) -> "mp.mpc":
            """Newton on p^(deriv): deriv 0 polishes a root estimate, deriv
            m-1 recentres an m-cluster on the simple root of p^(m-1)."""
            for _ in range(max_steps):
                pv, _ = p_eval(y, deriv)
                dv, _ = p_eval(y, deriv + 1)
                if dv == 0:
                    break
                step = pv / dv
                y = y - step
                if abs(step) <= step_tol * (1 + abs(y)):
                    break
            return y

        polished = [
            newton(mp.mpc(z) * mp.exp(mp.mpf(rho)), 0, 80) for z, rho in estimates
        ]

        # Cluster into connected components under the relative tolerance.
        n_est = len(polished)
        parent = list(range(n_est))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n_est):
            for j in range(i + 1, n_est):
                if abs(polished[i] - polished[j]) < cluster_tol * (
                    1 + abs(polished[i])
                ):
                    parent[find(i)] = find(j)
        clusters: dict[int, list[int]] = {}
        for i in range(n_est):
            clusters.setdefault(find(i), []).append(i)

        roots: list[tuple[complex, int]] = []
        condition: list[float] = []
        worst = 0.0
        if zero_mult:
            roots.append((0j, zero_mult))
            condition.append(1.0)

        def keep_simple(y: "mp.mpc") -> None:
            """Certify y as a simple root and record it with its condition."""
            nonlocal worst
            pv, norm = p_eval(y)
            rel = float(abs(pv) / norm) if norm > 0 else 0.0
            worst = max(worst, rel)
            if rel > cert_tol:
                raise ConvergenceError(
                    f"root {complex(y)} failed certification: "
                    f"relative residual {rel:.3e} > {cert_tol:.1e}"
                )
            dv, _ = p_eval(y, 1)
            kappa = (
                float(norm / (abs(dv) * max(abs(y), mp.mpf(1e-300))))
                if dv != 0
                else math.inf
            )
            roots.append((complex(y), 1))
            condition.append(kappa)

        for members in clusters.values():
            m = len(members)
            if m == 1:
                keep_simple(polished[members[0]])
                continue
            center = newton(sum(polished[i] for i in members) / m, m - 1, 60)
            # Derivative ladder: p^{(j)} must vanish (relative to its term
            # norm) for j < m and must not for j = m.
            ladder_ok = True
            rels = []
            for j in range(m):
                pv, norm = p_eval(center, j)
                rel = float(abs(pv) / norm) if norm > 0 else 0.0
                rels.append(rel)
                if rel > (cert_tol if j == 0 else 1e-3):
                    ladder_ok = False
            pv_m, norm_m = p_eval(center, m)
            nondeg = norm_m > 0 and abs(pv_m) / norm_m > 1e-12
            if not ladder_ok or not nondeg:
                # Not a genuine multiple root: keep members as simple roots.
                for i in members:
                    keep_simple(polished[i])
                continue
            worst = max(worst, rels[0])
            if rels[0] > cert_tol:
                raise ConvergenceError(
                    f"root {complex(center)} failed certification: "
                    f"relative residual {rels[0]:.3e} > {cert_tol:.1e}"
                )
            # Multiplicity-m sensitivity: eps^(1/m) scaling.
            _, norm0 = p_eval(center)
            fact = math.factorial(m)
            base = norm0 / (abs(pv_m) / fact)
            kappa = float(base) ** (1.0 / m) / max(float(abs(center)), 1.0)
            roots.append((complex(center), m))
            condition.append(kappa)

        got = sum(m for _, m in roots)
        if got != degree:
            raise ConvergenceError(
                f"root multiplicities sum to {got}, expected degree {degree}"
            )
        return roots, condition, worst


def roots_at_time(
    poly: ExpPoly,
    t: float,
    cluster_tol: float = CLUSTER_TOL,
    cert_tol: float = CERT_TOL,
    max_iter: int = MAX_ITER,
) -> RootSet:
    """All complex roots of the polynomial specialized at time t.

    Strategy: Newton-polygon circles seed a simultaneous (Aberth-style)
    iteration run in log-scaled double precision, every estimate is polished
    by arbitrary-precision Newton, clusters within ``cluster_tol`` are merged
    and certified for multiplicity by the derivative ladder, and each root
    must pass a relative-residual certificate below ``cert_tol``.
    """
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
        )
    inits = _newton_polygon_inits(reduced)
    roots, iters = _aberth_sweep(reduced, inits, max_iter)
    roots_m, condition, worst = _polish_and_certify(
        poly, t, roots, zero_mult, cluster_tol, cert_tol
    )
    roots_m_sorted = sorted(
        zip(roots_m, condition), key=lambda rc: (rc[0][0].real, rc[0][0].imag)
    )
    return RootSet(
        t=t,
        roots=tuple(r for r, _ in roots_m_sorted),
        condition=tuple(c for _, c in roots_m_sorted),
        worst_residual=worst,
        iterations=iters,
    )


def oracle_poles(
    cfg: SolitonConfig,
    variant: "Variant | str | None" = None,
    t: float = 0.0,
) -> list[tuple[complex, int]]:
    """All poles of u in the fundamental strip at time t, with multiplicity,
    via the global polynomial root oracle.  Count (with multiplicity) is
    always 2(p1 + p2); sorted by (Im x, Re x)."""
    poly = build_F_poly(cfg, variant)
    rs = roots_at_time(poly, t)
    out = []
    for y, m in rs.roots:
        if y == 0:
            continue  # y=0 is x -> +infinity, not a strip pole (F has none).
        x = y_to_x(y, poly.lam)
        out.append((x, m))
    out.sort(key=lambda pm: (pm[0].imag, pm[0].real))
    return out

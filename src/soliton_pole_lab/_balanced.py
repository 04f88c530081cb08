"""Log-balanced arithmetic for finite sums of complex exponentials.

Every quantity this package evaluates is a finite sum  sum_i c_i * exp(w_i)
with complex coefficients c_i and complex exponents w_i whose real parts can
reach several hundred (far beyond float range once combined).  A ``Scaled``
value carries the common exponential factor separately::

    value = mant * exp(log)

so that sums, products and ratios stay inside double precision regardless of
the raw magnitudes involved.  ``norm`` tracks the balanced 1-norm of the term
list that produced the value, which makes ``relative()`` a dimensionless
backward-error measure: it is ~1 away from zeros and ~0 on top of one.

``ScaledGrid`` is the same arithmetic elementwise over numpy arrays, bit for
bit: each operation repeats CPython's own float steps (``cmul``, ``cdiv``,
``exp_real``, ``np.hypot``) because numpy's complex ``*``, ``/``, ``abs`` and
real ``exp`` round differently.  The one exception is ``np.log``, which can
differ from ``math.log`` in the last place; a log only ever feeds a threshold
test, and every point within reach of its threshold is settled by the scalar
``Scaled`` method instead.  ``ScaledGrid.ratio``, the one grid operation that
can fail, raises the scalar error of its first failing point in grid order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["Scaled", "balanced_sum", "ScaledGrid", "balanced_sum_grid"]

# exp() overflows just above this; used to detect unrepresentable unscaling.
_LOG_HUGE = math.log(1.7976931348623157e308)
# Below this total exponent a ratio underflows to 0j.
_LOG_TINY = -745.0


class Scaled(NamedTuple):
    """A complex number stored as ``mant * exp(log)`` with a term-scale norm.

    A ``Scaled`` is the triple (mant, log, norm) itself, so hot loops can
    build and unpack plain triples and still meet a ``Scaled`` contract.
    The arithmetic operators are this class's own, not tuple concatenation
    or repetition.
    """

    mant: complex
    log: float
    norm: float = 0.0

    def value(self) -> complex:
        """Return the plain complex value; raise OverflowError when it cannot
        be represented as a float pair (the message names the exponent)."""
        return _unscale(self.mant, self.log)

    def log_abs(self) -> float:
        """log|value|; -inf for an exact zero."""
        if self.mant == 0:
            return -math.inf
        return self.log + math.log(abs(self.mant))

    def relative(self) -> float:
        """|value| divided by the balanced 1-norm of the generating terms."""
        return _relative_of(self)

    def __mul__(self, other: "Scaled | complex | float") -> "Scaled":
        if isinstance(other, Scaled):
            return Scaled(
                self.mant * other.mant,
                self.log + other.log,
                self.norm * other.norm,
            )
        return Scaled(self.mant * other, self.log, self.norm * abs(other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scaled":
        return Scaled(self.mant**n, self.log * n, self.norm**n)

    def __add__(self, other: "Scaled") -> "Scaled":
        a, b = self, other
        if a.mant == 0:
            base = b.log
        elif b.mant == 0:
            base = a.log
        else:
            base = max(a.log, b.log)
        sa = math.exp(min(a.log - base, 0.0)) if a.mant != 0 else 0.0
        sb = math.exp(min(b.log - base, 0.0)) if b.mant != 0 else 0.0
        return Scaled(a.mant * sa + b.mant * sb, base, a.norm * sa + b.norm * sb)

    def __truediv__(self, other: "Scaled") -> "Scaled":
        """self / other kept in scaled form (norm reset to the quotient
        magnitude, i.e. relative() of a quotient is neutral)."""
        if other.mant == 0:
            raise ZeroDivisionError("scaled division by zero mantissa")
        q = self.mant / other.mant
        return Scaled(q, self.log - other.log, abs(q))

    def __neg__(self) -> "Scaled":
        return Scaled(-self.mant, self.log, self.norm)

    def __sub__(self, other: "Scaled") -> "Scaled":
        return self + (-other)

    def ratio(self, other: "Scaled") -> complex:
        """self / other as a plain complex; raises OverflowError if the
        magnitude difference itself exceeds float range."""
        if other.mant == 0:
            raise ZeroDivisionError("scaled division by zero mantissa")
        q = self.mant / other.mant
        if q == 0:
            return 0j
        dlog = self.log - other.log
        total = dlog + math.log(abs(q))
        if total > _LOG_HUGE:
            raise OverflowError(
                f"exponent {total:.3f} exceeds the representable range in ratio"
            )
        if total < _LOG_TINY:  # graceful underflow to zero
            return 0j
        return q * math.exp(dlog)


def _unscale(mant: complex, log: float) -> complex:
    """mant * exp(log) as a plain complex (``Scaled.value``)."""
    if mant == 0:
        return 0j
    total = log + math.log(abs(mant))
    if total > _LOG_HUGE:
        raise OverflowError(
            f"exponent {total:.3f} exceeds the representable range "
            f"(limit {_LOG_HUGE:.3f})"
        )
    return mant * math.exp(log)


def _relative_of(v: tuple) -> float:
    """``Scaled.relative`` of a (mant, log, norm) triple."""
    mant, _, norm = v
    return abs(mant) if norm == 0.0 else abs(mant) / norm


def _quotient(num: tuple, den: tuple) -> complex:
    """``(num / den).value()`` of two (mant, log, norm) triples, without
    building the intermediate ``Scaled``: the same float steps and errors."""
    if den[0] == 0:
        raise ZeroDivisionError("scaled division by zero mantissa")
    return _unscale(num[0] / den[0], num[1] - den[1])


def balanced_sum(terms: Iterable[tuple[complex, complex]]) -> Scaled:
    """Sum ``c * exp(w)`` over (c, w) pairs with the largest Re w factored out.

    Terms whose real exponent falls more than ~745 below the maximum underflow
    harmlessly to zero inside the mantissa.
    """
    if not isinstance(terms, list):
        terms = list(terms)
    reals = [w.real for c, w in terms if c != 0]
    if not reals:
        return Scaled(0j, 0.0, 0.0)
    base = max(reals)
    mant = 0j
    norm = 0.0
    exp = cmath.exp
    for c, w in terms:
        if c != 0:
            piece = c * exp(w - base)
            mant += piece
            norm += abs(piece)
    return Scaled(mant, base, norm)


# ---------------------------------------------------------------------------
# Grid form.  A complex array is a pair (re, im) of float arrays, and every
# helper spells out the float operations CPython performs, in its order.
# ---------------------------------------------------------------------------


def complex_array(re, im) -> np.ndarray:
    """re + i*im as a complex array, with no arithmetic on the parts."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def cmul(ar, ai, br, bi):
    """CPython's complex product (a * b); a real operand r enters as (r, 0.0),
    as CPython promotes it."""
    return ar * br - ai * bi, ar * bi + ai * br


def cdiv(ar, ai, br, bi):
    """CPython's complex quotient a / b (Smith's algorithm, ``_Py_c_quot``)
    for b != 0."""
    with np.errstate(all="ignore"):
        by_real = np.abs(br) >= np.abs(bi)
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


# Above about 708.4 libm's complex exp rescales its argument and no longer
# rounds as math.exp does; callers of exp_real stay at or below this.
EXP_REAL_MAX = 708.0


def exp_real(x):
    """``math.exp`` elementwise for x <= EXP_REAL_MAX: libm's exp through the
    complex path, as numpy's own real exp rounds differently."""
    with np.errstate(all="ignore"):
        return np.exp(np.asarray(x, dtype=float) + 0j).real


def _near(a, b):
    """True where a and b are closer than the gap np.log can open against
    math.log, so a comparison of the two may go either way."""
    with np.errstate(invalid="ignore"):
        return np.abs(a - b) <= 1e-9 * (1.0 + np.abs(b))


@dataclass(frozen=True)
class ScaledGrid:
    """An array of ``Scaled`` values: mantissa re + i*im, log and norm."""

    re: np.ndarray
    im: np.ndarray
    log: np.ndarray
    norm: np.ndarray

    def __len__(self) -> int:
        return len(self.re)

    def at(self, i: int) -> Scaled:
        """The i-th element as a scalar ``Scaled``."""
        return Scaled(
            complex(self.re[i], self.im[i]), float(self.log[i]), float(self.norm[i])
        )

    def is_zero(self) -> np.ndarray:
        """Where the mantissa is 0 (``mant == 0`` in the scalar form)."""
        return (self.re == 0.0) & (self.im == 0.0)

    def log_abs(self) -> np.ndarray:
        """log|value|, -inf for an exact zero (np.log: see the module notes)."""
        with np.errstate(divide="ignore"):
            return np.where(
                self.is_zero(), -math.inf, self.log + np.log(np.hypot(self.re, self.im))
            )

    def relative(self) -> np.ndarray:
        a = np.hypot(self.re, self.im)
        with np.errstate(all="ignore"):
            return np.where(self.norm == 0.0, a, a / self.norm)

    def __mul__(self, other: "ScaledGrid") -> "ScaledGrid":
        re, im = cmul(self.re, self.im, other.re, other.im)
        return ScaledGrid(re, im, self.log + other.log, self.norm * other.norm)

    def __add__(self, other: "ScaledGrid") -> "ScaledGrid":
        a, b = self, other
        a0, b0 = a.is_zero(), b.is_zero()
        # max(a.log, b.log) keeps a.log unless b.log is larger.
        base = np.where(a0, b.log, np.where(b0 | ~(b.log > a.log), a.log, b.log))

        def shrink(s: "ScaledGrid", zero: np.ndarray) -> np.ndarray:
            d = s.log - base
            return np.where(zero, 0.0, exp_real(np.where(0.0 < d, 0.0, d)))

        sa, sb = shrink(a, a0), shrink(b, b0)
        ar, ai = cmul(a.re, a.im, sa, 0.0)
        br, bi = cmul(b.re, b.im, sb, 0.0)
        return ScaledGrid(ar + br, ai + bi, base, a.norm * sa + b.norm * sb)

    def __neg__(self) -> "ScaledGrid":
        return ScaledGrid(-self.re, -self.im, self.log, self.norm)

    def __sub__(self, other: "ScaledGrid") -> "ScaledGrid":
        return self + (-other)

    def ratio(
        self, other: "ScaledGrid", active: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``Scaled.ratio`` elementwise over the ``active`` points (default:
        all) as (re, im); entries off ``active`` are unspecified.  Raises the
        scalar form's error, type and message, for the first active point in
        order where it has one.

        Zero divisors, non-finite quotients and points whose total exponent
        lies near the overflow or underflow limit go through ``Scaled.ratio``
        itself, in order, which also gives each error its exact message."""
        act = np.ones(len(self), dtype=bool) if active is None else active
        with np.errstate(all="ignore"):
            qr, qi = cdiv(self.re, self.im, other.re, other.im)
            dlog = self.log - other.log
            total = dlog + np.log(np.hypot(qr, qi))
            scalar = act & (
                other.is_zero()
                | ~np.isfinite(total)
                | (total > _LOG_HUGE)
                | _near(total, _LOG_HUGE)
                | _near(total, _LOG_TINY)
                | (dlog > EXP_REAL_MAX)
            )
            live = ~scalar & (total >= _LOG_TINY)
            re, im = cmul(qr, qi, exp_real(np.where(live, dlog, 0.0)), 0.0)
            re = np.where(live, re, 0.0)
            im = np.where(live, im, 0.0)
        for i in np.flatnonzero(scalar).tolist():
            q = self.at(i).ratio(other.at(i))
            re[i], im[i] = q.real, q.imag
        return re, im


def balanced_sum_grid(
    terms: Sequence[tuple[complex, np.ndarray, np.ndarray]], n: int
) -> ScaledGrid:
    """``balanced_sum`` at n points at once: terms are (c, Re w, Im w) with
    the exponent w given as two float arrays.  The terms are summed in
    order, one at a time, as the scalar loop does."""
    terms = [(complex(c), wr, wi) for c, wr, wi in terms if c != 0]
    zeros = np.zeros(n)
    if not terms:
        return ScaledGrid(zeros, zeros, zeros, zeros)
    base = terms[0][1]
    for _, wr, _ in terms[1:]:
        base = np.where(wr > base, wr, base)  # max() keeps the first of equals
    mr, mi, norm = zeros, zeros, zeros
    z = np.empty(n, dtype=complex)
    for c, wr, wi in terms:
        z.real = wr - base
        z.imag = wi - 0.0
        e = np.exp(z)
        pr, pi = cmul(c.real, c.imag, e.real, e.imag)
        mr = mr + pr
        mi = mi + pi
        norm = norm + np.hypot(pr, pi)
    return ScaledGrid(mr, mi, base, norm)

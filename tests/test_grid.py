"""The grid engine against the scalar evaluators, bit for bit.

``F_grid``/``G_grid``/``eval_u_grid``/``eval_u_x_grid`` and the elementwise
``ScaledGrid`` arithmetic promise the scalar results exactly, not to a
tolerance: the battery's printed argmins and fitted exponents depend on it.
So every comparison here is on the IEEE bit patterns (a -0.0 against a 0.0
fails), and the numpy primitives the engine is built from are pinned against
CPython first, so a numpy change that breaks them fails by name.
"""

import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_pole_lab._balanced import (
    Scaled,
    EXP_REAL_MAX,
    ScaledGrid,
    balanced_sum,
    balanced_sum_grid,
    cdiv,
    cmul,
    complex_array,
    exp_real,
)
from soliton_pole_lab import kernel
from soliton_pole_lab.analysis import check_no_real_poles
from soliton_pole_lab.exppoly import oracle_poles
from soliton_pole_lab.kernel import (
    F_grid,
    F_scaled,
    G_grid,
    G_scaled,
    PoleError,
    PoleMarker,
    SolitonConfig,
    Variant,
    _factor_grid,
    _u_or_raise,
    _u_or_raise_grid,
    eval_u,
    eval_u_grid,
    eval_u_x,
    eval_u_x_grid,
    factor_scaled,
)


def bits(values) -> np.ndarray:
    """IEEE bit patterns, with every NaN mapped to one pattern."""
    a = np.array(values, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.view(np.int64)


def assert_bits(got, want, what: str) -> None:
    diff = np.flatnonzero(bits(got) != bits(want))
    assert diff.size == 0, (
        f"{what}: {diff.size} of {len(want)} differ, first at {diff[0]}: "
        f"{np.asarray(got)[diff[0]]!r} vs {list(want)[diff[0]]!r}"
    )


def assert_complex_bits(got, want, what: str) -> None:
    got = np.asarray(got, dtype=complex)
    assert_bits(got.real, [w.real for w in want], f"{what} (real)")
    assert_bits(got.imag, [w.imag for w in want], f"{what} (imag)")


def assert_scaled(grid: ScaledGrid, scalars: list, what: str) -> None:
    assert_bits(grid.re, [s.mant.real for s in scalars], f"{what} mantissa real")
    assert_bits(grid.im, [s.mant.imag for s in scalars], f"{what} mantissa imag")
    assert_bits(grid.log, [s.log for s in scalars], f"{what} log")
    assert_bits(grid.norm, [s.norm for s in scalars], f"{what} norm")


def as_grid(scalars: list) -> ScaledGrid:
    return ScaledGrid(
        np.array([s.mant.real for s in scalars]),
        np.array([s.mant.imag for s in scalars]),
        np.array([s.log for s in scalars]),
        np.array([s.norm for s in scalars]),
    )


# ---------------------------------------------------------------------------
# The numpy primitives against CPython.
# ---------------------------------------------------------------------------


def _operands(rng: random.Random, n: int) -> list[complex]:
    """Complex numbers with magnitudes from e^-700 to e^700 and real or
    imaginary parts that are +0.0, -0.0, or of either sign."""

    def part() -> float:
        kind = rng.random()
        if kind < 0.1:
            return rng.choice([0.0, -0.0])
        scale = rng.choice([(-3, 3), (-700, -690), (690, 700), (-350, 350)])
        return rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * math.exp(
            rng.uniform(*scale)
        )

    return [complex(part(), part()) for _ in range(n)]


def _split(zs: list[complex]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([z.real for z in zs]), np.array([z.imag for z in zs])


def _check_cmul(rng: random.Random) -> None:
    a, b = _operands(rng, 10_000), _operands(rng, 10_000)
    with np.errstate(all="ignore"):
        pr, pi = cmul(*_split(a), *_split(b))
    assert_complex_bits(complex_array(pr, pi), [x * y for x, y in zip(a, b)], "cmul")
    # A float times a complex, as CPython promotes the float.
    r = [z.real for z in _operands(rng, 10_000)]
    with np.errstate(all="ignore"):
        mr, mi = cmul(np.array(r), 0.0, *_split(b))
    want = [x * y for x, y in zip(r, b)]
    assert_complex_bits(complex_array(mr, mi), want, "cmul float*complex")


def _check_cdiv(rng: random.Random) -> None:
    a = _operands(rng, 10_000)
    b = [z for z in _operands(rng, 10_500) if z != 0][:10_000]
    qr, qi = cdiv(*_split(a[: len(b)]), *_split(b))
    assert_complex_bits(complex_array(qr, qi), [x / y for x, y in zip(a, b)], "cdiv")


def _check_exp_real(rng: random.Random) -> None:
    xs = [rng.uniform(-3.0, 3.0) for _ in range(4000)]
    xs += [rng.uniform(-745.5, -690.0) for _ in range(3000)]
    xs += [rng.uniform(690.0, EXP_REAL_MAX) for _ in range(3000)]
    xs += [0.0, -0.0, EXP_REAL_MAX, -746.0, -1e4]
    assert_bits(exp_real(np.array(xs)), [math.exp(x) for x in xs], "exp_real")


def _check_abs(rng: random.Random) -> None:
    zs = _operands(rng, 10_000)
    got = np.hypot(*_split(zs))
    want = []
    for z in zs:
        try:
            want.append(abs(z))
        except OverflowError:  # CPython refuses |z| > DBL_MAX; hypot gives inf
            want.append(math.inf)
    assert_bits(got, want, "abs (np.hypot)")


def _check_cexp(rng: random.Random) -> None:
    zs = [
        complex(rng.uniform(-745.0, 0.0), rng.uniform(-60.0, 60.0))
        for _ in range(10_000)
    ]
    zs += [complex(-1.0, 0.0), complex(-1.0, -0.0), 0j]
    assert_complex_bits(np.exp(np.array(zs)), [cmath.exp(z) for z in zs], "complex exp")


@pytest.mark.parametrize(
    "primitive", [_check_cmul, _check_cdiv, _check_exp_real, _check_abs, _check_cexp],
    ids=["cmul", "cdiv", "exp_real", "abs", "complex_exp"],
)
def test_primitive_matches_cpython(primitive) -> None:
    primitive(random.Random(20261018))


# ---------------------------------------------------------------------------
# Elementwise Scaled arithmetic.
# ---------------------------------------------------------------------------


def _scaled_values(rng: random.Random, n: int) -> list[Scaled]:
    """Scaled values with zero mantissas, equal logs and log gaps beyond
    the exp() underflow."""
    out = []
    for _ in range(n):
        if rng.random() < 0.1:
            mant = 0j
        else:
            im = rng.choice([0.0, -0.0, rng.uniform(-2, 2)])
            mant = complex(rng.uniform(-2, 2), im)
        log = rng.choice([0.0, 1.5, rng.uniform(-900.0, 900.0), rng.uniform(-5.0, 5.0)])
        norm = rng.choice([0.0, abs(mant), abs(mant) + rng.random()])
        out.append(Scaled(mant, log, norm))
    return out


def test_scaled_grid_arithmetic_is_bitwise() -> None:
    rng = random.Random(7)
    a, b = _scaled_values(rng, 3000), _scaled_values(rng, 3000)
    ga, gb = as_grid(a), as_grid(b)
    assert_scaled(ga * gb, [x * y for x, y in zip(a, b)], "*")
    assert_scaled(ga + gb, [x + y for x, y in zip(a, b)], "+")
    assert_scaled(ga - gb, [x - y for x, y in zip(a, b)], "-")
    assert_scaled(-ga, [-x for x in a], "neg")
    assert_bits(ga.relative(), [x.relative() for x in a], "relative")
    # np.log may differ from math.log in the last place.
    want = np.array([x.log_abs() for x in a])
    assert np.array_equal(np.isinf(ga.log_abs()), np.isinf(want))
    finite = np.isfinite(want)
    assert np.allclose(ga.log_abs()[finite], want[finite], rtol=1e-15, atol=1e-13)


def test_ratio_overflow_underflow_and_zero_elementwise() -> None:
    one = Scaled(1.0 + 0.5j, 0.0, 1.0)
    nums = [
        Scaled(0.3 - 0.2j, 2.0, 1.0),  # ordinary
        Scaled(0.3 - 0.2j, -800.0, 1.0),  # underflows to 0j
        Scaled(0j, 5.0, 0.0),  # zero numerator gives 0j
        Scaled(0.3 - 0.2j, 720.0, 1.0),  # exceeds the float range
        Scaled(0.3 - 0.2j, 1.0, 1.0),
        Scaled(0.3 - 0.2j, 730.0, 1.0),  # exceeds it too, later
    ]
    ones = as_grid([one] * len(nums))
    # The first active overflow raises the scalar OverflowError, message and all.
    with pytest.raises(OverflowError) as scalar:
        nums[3].ratio(one)
    with pytest.raises(OverflowError) as grid:
        as_grid(nums).ratio(ones)
    assert type(grid.value) is OverflowError and str(grid.value) == str(scalar.value)
    # The points before it give the scalar values.
    qr, qi = as_grid(nums[:3]).ratio(as_grid([one] * 3))
    want = [n.ratio(one) for n in nums[:3]]
    assert_complex_bits(complex_array(qr, qi), want, "ratio")
    assert qr[1] == 0.0 and qi[1] == 0.0 and qr[2] == 0.0 and qi[2] == 0.0
    # Off the active set, an overflowing point is not evaluated.
    active = np.array([True, True, True, False, True, False])
    qr, qi = as_grid(nums).ratio(ones, active)
    assert (qr[4], qi[4]) == (nums[4].ratio(one).real, nums[4].ratio(one).imag)
    # With the first overflow inactive, the next active one raises its own.
    active[5] = True
    with pytest.raises(OverflowError) as later:
        nums[5].ratio(one)
    with pytest.raises(OverflowError) as grid:
        as_grid(nums).ratio(ones, active)
    assert str(grid.value) == str(later.value) != str(scalar.value)
    # A zero divisor raises the scalar ZeroDivisionError.
    dens = [one, Scaled(0j, 3.0, 0.0), one]
    with pytest.raises(ZeroDivisionError) as scalar:
        nums[1].ratio(dens[1])
    with pytest.raises(ZeroDivisionError) as grid:
        as_grid(nums[:3]).ratio(as_grid(dens))
    assert type(grid.value) is ZeroDivisionError
    assert str(grid.value) == str(scalar.value) == "scaled division by zero mantissa"


def test_ratio_near_thresholds_matches_scalar() -> None:
    # Totals straddling the overflow and underflow limits within np.log's
    # reach: each point is settled exactly as Scaled.ratio settles it, and
    # the grid raises exactly where the scalar loop first raises.
    one = Scaled(1.0, 0.0, 1.0)
    limit = math.log(1.7976931348623157e308)
    nums = []
    for base in (-745.0, limit):
        for k in range(-3, 4):
            nums.append(Scaled(1.0 + 0j, base + k * 2e-13, 1.0))
    want = []
    for n in nums:
        try:
            want.append(n.ratio(one))
        except OverflowError as exc:
            message = str(exc)
            break
    else:
        message = None
    ones = as_grid([one] * len(nums))
    if message is not None:
        with pytest.raises(OverflowError) as grid:
            as_grid(nums).ratio(ones)
        assert str(grid.value) == message
        # The prefix below does not raise, so ending the grid one point
        # later pins the raise to the first point the scalar loop refuses.
        end = len(want) + 1
        with pytest.raises(OverflowError) as grid:
            as_grid(nums[:end]).ratio(as_grid([one] * end))
        assert str(grid.value) == message
    qr, qi = as_grid(nums[: len(want)]).ratio(as_grid([one] * len(want)))
    assert_complex_bits(complex_array(qr, qi), want, "ratio near limits")


def test_balanced_sum_grid_matches_scalar() -> None:
    rng = random.Random(3)
    terms = []
    for c in (1, -2.5, 0, 0.5 - 0.25j, 3):
        wr = np.array([rng.uniform(-900, 900) for _ in range(500)])
        wi = np.array(
            [rng.choice([0.0, -0.0, rng.uniform(-40, 40)]) for _ in range(500)]
        )
        terms.append((c, wr, wi))
    got = balanced_sum_grid(terms, 500)
    want = [
        balanced_sum([(c, complex(wr[i], wi[i])) for c, wr, wi in terms])
        for i in range(500)
    ]
    assert_scaled(got, want, "balanced_sum_grid")
    assert_scaled(balanced_sum_grid([], 3), [balanced_sum([])] * 3, "empty sum")


# ---------------------------------------------------------------------------
# The kernel grid evaluators.
# ---------------------------------------------------------------------------

EXACT_CONFIGS = [
    (p1, p2, variant)
    for p2 in range(2, 14)
    for p1 in range(1, p2)
    if math.gcd(p1, p2) == 1
    for variant in ("plus", "minus")
]


def _config(spec) -> SolitonConfig:
    if spec == "approx":
        return SolitonConfig.make(1.0, math.sqrt(2.0), "plus")
    return SolitonConfig.make(*spec)


@given(
    spec=st.one_of(st.sampled_from(EXACT_CONFIGS), st.just("approx")),
    t=st.floats(min_value=-20.0, max_value=20.0),
    im=st.floats(min_value=-3.0, max_value=3.0),
    ridge=st.sampled_from([0, 1, 2]),
    offset=st.floats(min_value=-15.0, max_value=15.0),
)
@settings(max_examples=40, deadline=None)
def test_grid_evaluators_match_scalar_bitwise(spec, t, im, ridge, offset) -> None:
    cfg = _config(spec)
    # Center the line on the origin or on one soliton's ridge x = k^2 t,
    # where the terms cancel hardest.
    center = offset + (0.0, cfg.k1**2 * t, cfg.k2**2 * t)[ridge]
    xs = [complex(center - 8.0 + 16.0 * i / 100, im) for i in range(101)]
    for name, grid, scalar, kw in (
        ("F", F_grid, F_scaled, {}),
        ("G", G_grid, G_scaled, {}),
        ("F_x", F_grid, F_scaled, {"dx": 1}),
    ):
        want = [scalar(cfg, x, t, **kw) for x in xs]
        assert_scaled(grid(cfg, xs, t, **kw), want, name)

    u, pole = eval_u_grid(cfg, xs, t)
    want = [eval_u(cfg, x, t) for x in xs]
    assert pole.tolist() == [isinstance(w, PoleMarker) for w in want]
    regular = [i for i, w in enumerate(want) if not isinstance(w, PoleMarker)]
    assert_complex_bits(u[regular], [want[i] for i in regular], "eval_u")

    try:
        want_x = [eval_u_x(cfg, x, t) for x in xs]
    except ArithmeticError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            eval_u_x_grid(cfg, xs, t)
    else:
        assert_complex_bits(eval_u_x_grid(cfg, xs, t), want_x, "eval_u_x")


# name -> (grid evaluator, scalar evaluator, arguments before the variant)
_TABLES = {
    "F": (F_grid, F_scaled, ()),
    "G": (G_grid, G_scaled, ()),
    "F1": (_factor_grid, factor_scaled, (1,)),
    "F2": (_factor_grid, factor_scaled, (2,)),
}


def _assert_per_point_t(cfg, xs, ts, dx, dt) -> None:
    """Every table at (xs[i], ts[i]) with one grid call, against the scalar
    sum at each point."""
    for variant in (Variant.PLUS, Variant.MINUS):
        work = cfg.with_variant(variant)
        for name, (grid, scalar, args) in _TABLES.items():
            zs, times = np.array(xs, dtype=complex), np.array(ts)
            got = grid(work, zs, times, *args, dx, dt)
            want = [scalar(work, x, t, *args, dx, dt) for x, t in zip(xs, ts)]
            assert len(got) == len(xs)
            assert_scaled(got, want, f"{name} {variant.value} dx={dx} dt={dt}")


@given(
    spec=st.one_of(st.sampled_from(EXACT_CONFIGS), st.just("approx")),
    t=st.floats(min_value=-20.0, max_value=20.0),
    im=st.floats(min_value=-3.0, max_value=3.0),
    ridge=st.sampled_from([0, 1, 2]),
    dx=st.integers(0, 2),
    dt=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_per_point_times_match_scalar_bitwise(spec, t, im, ridge, dx, dt, seed):
    """t as an array with the shape of x: each point equals the scalar sum
    at its own (x, t).  With ridge > 0 each point sits on its own time's
    ridge x = k^2 t of one soliton, where the terms cancel hardest."""
    cfg = _config(spec)
    rng = random.Random(seed)
    ts = [t + rng.uniform(-2.0, 2.0) for _ in range(41)]
    k2 = (0.0, cfg.k1**2, cfg.k2**2)[ridge]
    xs = [complex(k2 * ti + rng.uniform(-3.0, 3.0), im) for ti in ts]
    _assert_per_point_t(cfg, xs, ts, dx, dt)


@pytest.mark.parametrize("n", [0, 1])
def test_per_point_times_on_one_point_and_empty_arrays(n) -> None:
    cfg = SolitonConfig.make(1, 5, "minus")
    xs, ts = [0.3 - 1.2j, 2.0 + 0.4j][:n], [0.7, -4.0][:n]
    for dx, dt in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2)):
        _assert_per_point_t(cfg, xs, ts, dx, dt)


def _grid_with_poles(cfg: SolitonConfig, t: float) -> list[complex]:
    poles = [x for x, _ in oracle_poles(cfg, t) if abs(x.imag) < 3.0]
    regular = [complex(0.1 * i, 0.05) for i in range(-20, 21)]
    # Interleave so that the first pole sits after some regular points.
    return (
        regular[:7] + [poles[1]] + regular[7:20] + [poles[0]] + regular[20:] + poles[2:]
    )


def test_pole_points_match_scalar_markers() -> None:
    cfg = SolitonConfig.make(1, 5, "minus")
    xs = _grid_with_poles(cfg, 0.4)
    u, pole = eval_u_grid(cfg, xs, 0.4)
    want = [eval_u(cfg, x, 0.4) for x in xs]
    assert pole.tolist() == [isinstance(w, PoleMarker) for w in want]
    assert pole.sum() >= 2
    regular = [i for i, w in enumerate(want) if not isinstance(w, PoleMarker)]
    assert_complex_bits(u[regular], [want[i] for i in regular], "eval_u")


def test_grid_touching_a_pole_names_the_first_pole() -> None:
    cfg = SolitonConfig.make(1, 5, "minus")
    xs = _grid_with_poles(cfg, 0.4)
    with pytest.raises(PoleError) as scalar:
        [_u_or_raise(cfg, x, 0.4) for x in xs]
    with pytest.raises(PoleError) as grid:
        _u_or_raise_grid(cfg, xs, 0.4)
    assert str(grid.value) == str(scalar.value)
    assert repr(xs[7]) in str(grid.value)


def _first_error(call):
    """The error ``call`` raises, as (type, message)."""
    with pytest.raises((OverflowError, PoleError)) as got:
        call()
    return type(got.value), str(got.value)


@pytest.mark.parametrize(
    "forced, raised, faulted",
    [
        ({3: 800.0, 10: 850.0}, 3, 3),  # a ratio fault before the first pole
        ({10: 850.0, 30: 900.0}, 7, 10),  # the pole at xs[7] comes first
    ],
)
def test_u_grids_raise_in_the_scalar_order(monkeypatch, forced, raised, faulted):
    """G scaled by e^800 and more at chosen points makes G / F overflow
    there, with a message of its own per point.  ``_u_or_raise_grid``
    raises the error of the first point that has one, ratio fault or pole;
    ``eval_u_grid``, which marks poles, raises the first ratio fault even
    after a pole.  Each agrees with its scalar loop."""
    cfg = SolitonConfig.make(1, 5, "minus")
    xs = _grid_with_poles(cfg, 0.4)
    shift = {xs[i]: v for i, v in forced.items()}
    G_scaled_, G_grid_ = kernel.G_scaled, kernel.G_grid

    def scalar(cfg, x, t, dx=0, dt=0):
        v = G_scaled_(cfg, x, t, dx, dt)
        return v * Scaled(1.0, shift[x], 1.0) if x in shift else v

    def grid(cfg, xs, t, dx=0, dt=0):
        v = G_grid_(cfg, xs, t, dx, dt)
        extra = np.array([shift.get(complex(x), 0.0) for x in xs])
        return ScaledGrid(v.re, v.im, v.log + extra, v.norm)

    monkeypatch.setattr(kernel, "G_scaled", scalar)
    monkeypatch.setattr(kernel, "G_grid", grid)
    want = _first_error(lambda: _u_or_raise(cfg, xs[raised], 0.4))
    assert want[0] is (PoleError if raised == 7 else OverflowError)
    assert _first_error(lambda: [_u_or_raise(cfg, x, 0.4) for x in xs]) == want
    assert _first_error(lambda: _u_or_raise_grid(cfg, xs, 0.4)) == want
    want = _first_error(lambda: eval_u(cfg, xs[faulted], 0.4))
    assert want[0] is OverflowError
    assert _first_error(lambda: [eval_u(cfg, x, 0.4) for x in xs]) == want
    assert _first_error(lambda: eval_u_grid(cfg, xs, 0.4)) == want


def test_u_or_raise_grid_on_a_regular_grid() -> None:
    cfg = SolitonConfig.make(1, 2, "plus")
    xs = [complex(0.25 * i, -0.4) for i in range(-40, 41)]
    assert_complex_bits(
        _u_or_raise_grid(cfg, xs, 0.5), [_u_or_raise(cfg, x, 0.5) for x in xs], "u"
    )
    assert _u_or_raise_grid(cfg, [], 0.5).shape == (0,)


# ---------------------------------------------------------------------------
# check_no_real_poles on the grid engine.
# ---------------------------------------------------------------------------


def _scalar_scan(cfg: SolitonConfig, t: float, grid) -> tuple[float, complex]:
    """The per-point scan the grid engine replaces, as a reference."""
    best, arg = math.inf, complex(grid[0])
    for x in grid:
        r = F_scaled(cfg, complex(x), t).relative()
        if r < best:
            best, arg = r, complex(x)
    return best, arg


def test_line_scan_matches_per_point_scan() -> None:
    cfg = SolitonConfig.make(1, 5, "minus")
    grid = [complex(-20.0 + 40.0 * i / 4000, math.pi / 2) for i in range(4001)]
    scan = check_no_real_poles(cfg, 0.0, grid)
    assert (scan.min_residual, scan.argmin) == _scalar_scan(cfg, 0.0, grid)
    default = check_no_real_poles(cfg, 0.3)
    real = [complex(-20.0 + 40.0 * i / 4000, 0.0) for i in range(4001)]
    assert (default.min_residual, default.argmin) == _scalar_scan(cfg, 0.3, real)


def test_line_scan_accepts_list_or_array() -> None:
    cfg = SolitonConfig.make(1, 2, "plus")
    grid = [complex(0.5 * i, 0.7) for i in range(-30, 31)]
    assert check_no_real_poles(cfg, 0.2, grid) == check_no_real_poles(
        cfg, 0.2, np.array(grid)
    )
    real = [0.5 * i for i in range(-30, 31)]  # plain floats are real points
    assert check_no_real_poles(cfg, 0.2, real) == check_no_real_poles(
        cfg, 0.2, [complex(x, 0.0) for x in real]
    )


@pytest.mark.parametrize("empty", [[], (), np.array([], dtype=complex)])
def test_line_scan_rejects_an_empty_grid(empty) -> None:
    with pytest.raises(ValueError, match="at least one point"):
        check_no_real_poles(SolitonConfig.make(1, 2), 0.0, empty)


def test_line_scan_keeps_the_first_of_tied_minima() -> None:
    # F has real coefficients, so F(conj x) = conj F(x) exactly and the two
    # points tie bit for bit.
    cfg = SolitonConfig.make(1, 2, "minus")
    x = 0.3 + 0.7j
    xc = x.conjugate()
    assert F_scaled(cfg, x, 0.1).relative() == F_scaled(cfg, xc, 0.1).relative()
    far = 30.0 + 0.0j
    assert check_no_real_poles(cfg, 0.1, [far, x, xc]).argmin == x
    assert check_no_real_poles(cfg, 0.1, [far, xc, x]).argmin == xc
    assert _scalar_scan(cfg, 0.1, [far, xc, x])[1] == xc

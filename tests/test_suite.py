"""Tests for the verification battery: full runs over representative
configurations, skip behavior with reasons, report shapes, determinism."""

from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soliton_pole_lab import analysis, exppoly, kernel, suite, tracker
from soliton_pole_lab.asymptotics import FamilyLabel, Speed, seed_state, seed_time
from soliton_pole_lab.kernel import ConvergenceError, SolitonConfig
from soliton_pole_lab.suite import run_battery

CHECK_NAMES = [
    "field-equation-residual",
    "pde-richardson-ratio",
    "factorization-product",
    "real-line-regularity",
    "cosine-relations-at-zeros",
    "vertical-sign-law",
    "translation-identity",
    "residue-quantization",
    "pole-count-conservation",
    "asymptotic-families",
    "blowup-rate",
    "interaction-closed-forms",
]

ORACLE_SKIPS = {
    "cosine-relations-at-zeros",
    "translation-identity",
    "residue-quantization",
    "pole-count-conservation",
    "asymptotic-families",
    "blowup-rate",
}


@pytest.fixture(scope="module")
def report12():
    return run_battery(SolitonConfig.make(1, 2, "plus"), seed=0)


@pytest.fixture(scope="module")
def report15():
    return run_battery(SolitonConfig.make(1, 5, "minus"), seed=0)


@pytest.fixture(scope="module")
def report_irr():
    return run_battery(SolitonConfig.make(1.0, 2**0.5, "plus"), seed=0)


class TestFullBattery:
    def test_all_checks_pass(self, report12):
        failed = [c.name for c in report12.checks if not c.passed]
        assert report12.passed and not failed

    def test_check_names_and_order(self, report12):
        assert [c.name for c in report12.checks] == CHECK_NAMES

    def test_nothing_skipped(self, report12):
        assert report12.n_skipped == 0
        assert all(c.skipped is None for c in report12.checks)

    def test_worst_values_finite(self, report12):
        assert all(math.isfinite(c.worst) for c in report12.checks)

    def test_sign_law_decisive_and_clean(self, report12):
        (check,) = [c for c in report12.checks if c.name == "vertical-sign-law"]
        m = re.search(r"(\d+)/(\d+) decisive samples, (\d+) violations", check.detail)
        assert m is not None
        decisive, total, violations = map(int, m.groups())
        assert 0 < decisive <= total
        assert violations == 0

    def test_blowup_exponent_in_detail(self, report12):
        (check,) = [c for c in report12.checks if c.name == "blowup-rate"]
        m = re.search(r"exponent (-?\d+\.\d+)", check.detail)
        assert m is not None
        assert abs(float(m.group(1)) + 1.0) < 0.05

    def test_pole_count_detail(self, report12):
        (check,) = [c for c in report12.checks if c.name == "pole-count-conservation"]
        assert "2(p1+p2) = 6" in check.detail


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_sign_law_passes_where_a1_leaves_double_range(variant):
    # The (2, 7) ensembles reach fast-family zeros at |t| = 10 whose A1
    # lies beyond double range; the row must judge them, not fail.
    report = run_battery(SolitonConfig.make(2, 7, variant), seed=0)
    (check,) = [c for c in report.checks if c.name == "vertical-sign-law"]
    m = re.fullmatch(r"(\d+)/(\d+) decisive samples, (\d+) violations", check.detail)
    assert m is not None, check.detail
    decisive, total, violations = map(int, m.groups())
    assert check.passed and 0 < decisive <= total and violations == 0


class TestHarness:
    def test_a_raising_check_fails_only_its_own_row(self, monkeypatch, report12):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(analysis, "cos_identities_residual", boom)
        report = run_battery(SolitonConfig.make(1, 2, "plus"), seed=0)
        (row,) = [c for c in report.checks if c.name == "cosine-relations-at-zeros"]
        assert (row.passed, row.worst, row.witness, row.detail, row.skipped) == (
            False,
            math.inf,
            "",
            "RuntimeError: boom",
            None,
        )
        assert not report.passed
        others = [c.to_dict() for c in report.checks if c is not row]
        clean = [c.to_dict() for c in report12.checks if c.name != row.name]
        assert others == clean
        assert all(c.elapsed_s > 0 for c in report.checks)


class TestExceptionalConfig:
    """(1, 5) minus: quadruple collision at t = 0, no sweeping crossing."""

    def test_battery_passes(self, report15):
        failed = [c.name for c in report15.checks if not c.passed]
        assert report15.passed and not failed

    def test_blowup_skipped_with_reason(self, report15):
        (check,) = [c for c in report15.checks if c.name == "blowup-rate"]
        assert check.skipped is not None
        assert "no transversal crossing" in check.skipped

    def test_cosine_relations_cover_all_first_factor_zeros(self, report15):
        (check,) = [c for c in report15.checks if c.name == "cosine-relations-at-zeros"]
        assert check.skipped is None and check.passed
        assert "12 zeros" in check.detail

    def test_family_match_covers_all_curves(self, report15):
        (check,) = [c for c in report15.checks if c.name == "asymptotic-families"]
        assert check.skipped is None and check.passed
        assert "12 curves per horizon" in check.detail
        assert check.worst < 1e-3

    def test_pole_count_twelve(self, report15):
        (check,) = [c for c in report15.checks if c.name == "pole-count-conservation"]
        assert check.passed and "2(p1+p2) = 12" in check.detail


class TestIncommensurable:
    def test_passes_with_six_skips(self, report_irr):
        assert report_irr.passed
        assert report_irr.n_skipped == 6

    def test_skipped_names(self, report_irr):
        skipped = {c.name for c in report_irr.checks if c.skipped is not None}
        assert skipped == ORACLE_SKIPS

    def test_skip_reasons_and_nan_worst(self, report_irr):
        for c in report_irr.checks:
            if c.skipped is not None:
                assert c.passed
                assert math.isnan(c.worst)
                assert c.skipped  # non-empty reason string

    def test_sign_law_runs_without_oracle(self, report_irr):
        (check,) = [c for c in report_irr.checks if c.name == "vertical-sign-law"]
        assert check.skipped is None and check.passed
        m = re.search(r"(\d+)/(\d+) decisive", check.detail)
        assert m is not None and int(m.group(1)) > 0

    def test_field_equation_runs_without_oracle(self, report_irr):
        (check,) = [c for c in report_irr.checks if c.name == "field-equation-residual"]
        assert check.skipped is None and check.passed
        assert check.worst < 1e-10


class TestShiftedConfig:
    def test_interaction_skipped_for_nonzero_shifts(self):
        cfg = SolitonConfig.make(1, 2, "minus", x1=0.3, x2=-0.2)
        report = run_battery(cfg, seed=0)
        assert report.passed
        (check,) = [c for c in report.checks if c.name == "interaction-closed-forms"]
        assert check.skipped is not None
        assert "zero shifts" in check.skipped


class TestReportShape:
    def test_report_dict_keys(self, report12):
        d = report12.to_dict()
        assert list(d) == ["config", "seed", "passed", "n_checks", "n_skipped", "checks"]
        assert d["n_checks"] == len(CHECK_NAMES)
        assert d["n_skipped"] == 0
        assert d["passed"] is True
        assert d["seed"] == 0

    def test_config_echo(self, report12):
        cfgd = report12.to_dict()["config"]
        assert cfgd == {
            "k1": 1.0,
            "k2": 2.0,
            "variant": "plus",
            "x1": 0.0,
            "x2": 0.0,
            "exact": True,
        }

    def test_check_dict_keys(self, report12):
        entry = report12.to_dict()["checks"][0]
        assert list(entry) == ["name", "passed", "worst", "witness", "detail", "skipped"]


    def test_elapsed_time_recorded_but_not_reported(self, report12, report_irr):
        # Skipped rows are timed too: report_irr skips six checks.
        for check in report12.checks + report_irr.checks:
            assert "elapsed_s" not in check.to_dict()
            assert check.elapsed_s > 0


MUTATION = Fraction(1000001, 1000000)


class TestFieldEquationProof:
    """The field-equation check expands the g-equation times D^6 over Q."""

    @pytest.mark.parametrize(
        "spec",
        [
            (1, 2, "plus"),
            (1, 2, "minus"),
            (1, 5, "plus"),
            (1, 5, "minus"),
            (2, 7, "plus"),
            (2, 7, "minus"),
            ("1/3", 5, "plus"),
            ("1/3", 5, "minus"),
            (1.0, 2**0.5, "plus"),
            (1.0, 2**0.5, "minus"),
            (1, 2, "minus", 0.3, -0.2),
        ],
    )
    def test_proved_with_zero_worst(self, spec):
        result = suite._check_field_equation(SolitonConfig.make(*spec), random.Random(0))
        assert result.passed and result.worst == 0.0 and result.witness == ""
        assert result.detail.endswith(": 0 nonzero coefficients")

    def test_draws_the_probes_it_does_not_use(self):
        # The Richardson row must see the random stream a sampled version
        # left: 320 probes, 3 draws each.
        rng, ref = random.Random(4), random.Random(4)
        suite._check_field_equation(SolitonConfig.make(1, 2, "plus"), rng)
        for _ in range(320 * 3):
            ref.random()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize("part,index", [("N", 0), ("N", 1), ("D", 0), ("D", 1)])
    def test_coefficient_mutation_fails_in_its_variant(
        self, monkeypatch, variant, part, index
    ):
        # Scale one coefficient of N or D by 1 + 1e-6 in one variant: the
        # expansion must leave survivors there, and the witness name it.
        terms_g = kernel._terms_g
        target = kernel.Variant.coerce(variant)
        which = ("N", "D").index(part)

        def corrupted(g, v):
            tables = [list(table) for table in terms_g(g, v)]
            if v is target:
                c, a1, a2 = tables[which][index]
                tables[which][index] = (c * MUTATION, a1, a2)
            return tuple(tables)

        monkeypatch.setattr(kernel, "_terms_g", corrupted)
        result = suite._check_field_equation(SolitonConfig.make(1, 2), random.Random(0))
        assert not result.passed and result.worst > 0
        assert result.witness.startswith(f"variant={variant}, monomial f1^")

    @pytest.mark.parametrize("spec", [(1, 2), (1.0, 2**0.5)])
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize(
        "table, index", [("_terms_F", i) for i in range(6)] + [("_terms_G", i) for i in range(4)]
    )
    def test_F_and_G_table_mutation_fails_in_its_variant(
        self, monkeypatch, spec, variant, table, index
    ):
        # The bridges tie F's and G's tables to g: one coefficient scaled by
        # 1 + 2^-40 in one variant leaves survivors there.
        monkeypatch.setattr(kernel, table, _scaled_term(getattr(kernel, table), variant, index))
        result = suite._check_field_equation(SolitonConfig.make(*spec), random.Random(0))
        _assert_refuted(result, variant)

    def test_rate_mutation_fails_in_both_variants(self, monkeypatch):
        # Scale the t-derivative rates a1 k1^3 + a2 k2^3 by 1 + 1e-6.
        term_table = kernel._term_table

        def mutated(k1, k2, terms, dx=0, dt=0):
            table = term_table(k1, k2, terms, dx, dt)
            return [(c * MUTATION**dt, a1, a2) for c, a1, a2 in table]

        monkeypatch.setattr(kernel, "_term_table", mutated)
        cfg = SolitonConfig.make(1, 2)
        for variant in kernel.Variant:
            term1, term2 = kernel._eqg_exact(cfg.with_variant(variant))
            assert (term1 + term2).coeffs
        result = suite._check_field_equation(cfg, random.Random(0))
        assert not result.passed and result.worst > 0
        assert re.fullmatch(r"variant=(plus|minus), monomial f1\^\d+ f2\^\d+", result.witness)

    @given(
        pair=st.sampled_from(
            [(p1, p2) for p2 in range(2, 10) for p1 in range(1, p2) if math.gcd(p1, p2) == 1]
        ),
        q=st.integers(min_value=1, max_value=7),
        k1=st.floats(min_value=0.01, max_value=10.0),
        k2=st.floats(min_value=0.01, max_value=10.0),
        kind=st.sampled_from(["coprime", "rational", "float"]),
        variant=st.sampled_from(["plus", "minus"]),
        x1=st.floats(min_value=-2.0, max_value=2.0).filter(lambda s: s != 0.0),
        x2=st.floats(min_value=-2.0, max_value=2.0).filter(lambda s: s != 0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_proof_holds_across_configs(self, pair, q, k1, k2, kind, variant, x1, x2):
        p1, p2 = pair
        if kind == "coprime":
            spec = (p1, p2)
        elif kind == "rational":
            spec = (Fraction(p1, q), p2)
        else:
            assume(k1 < k2)
            spec = (k1, k2)
        cfg = SolitonConfig.make(*spec, variant, x1=x1, x2=x2)
        result = suite._check_field_equation(cfg, random.Random(0))
        assert result.passed and result.worst == 0.0, (spec, result.witness)


class TestDeterminism:
    def test_same_seed_same_report(self, report12):
        again = run_battery(SolitonConfig.make(1, 2, "plus"), seed=0)
        assert again.to_dict() == report12.to_dict()

    def test_other_seed_still_passes(self):
        report = run_battery(SolitonConfig.make(1, 2, "plus"), seed=3)
        assert report.passed


def test_residue_check_solves_one_snapshot_per_time(monkeypatch):
    # The residues' contour radii reuse the snapshot the poles were picked
    # from: two times, two oracle solves.
    solves = []
    solve = exppoly.roots_at_time
    monkeypatch.setattr(
        exppoly, "roots_at_time", lambda *a, **k: solves.append(a) or solve(*a, **k)
    )
    result = suite._check_residues(SolitonConfig.make(1, 2, "plus"), random.Random(0))
    assert result.passed
    assert len(solves) == 2


def test_battery_solves_each_snapshot_once(monkeypatch, report12):
    # The snapshot at t = -horizon seeds both the tracked ensemble and the
    # family match at that horizon; no (polynomial, time) is solved twice.
    solves = []
    solve = exppoly.roots_at_time
    monkeypatch.setattr(
        exppoly,
        "roots_at_time",
        lambda poly, t, *a, **k: solves.append((poly.kind, poly.variant, t))
        or solve(poly, t, *a, **k),
    )
    report = run_battery(SolitonConfig.make(1, 2, "plus"), seed=0)
    assert repr(report.to_dict()) == repr(report12.to_dict())
    assert len(solves) == len(set(solves)) == 6


@pytest.mark.parametrize(
    "spec",
    [(1.0, math.sqrt(2), "plus"), (1.0, math.sqrt(2), "minus"), (1.0, math.sqrt(5), "plus")],
)
def test_seeded_sign_law_tracks_one_curve_per_conjugate_pair(monkeypatch, spec):
    # Without the oracle the row seeds four families, index +-1 of each
    # speed: two exact conjugate pairs, so two curves are tracked, and the
    # row reads as it does over four curves tracked one by one.
    cfg = SolitonConfig.make(*spec)
    eps = 1e-2
    t_seed = seed_time(cfg, eps)
    seeds = [
        seed_state(cfg, FamilyLabel(speed, index, -1), eps)
        for speed in (Speed.SLOW, Speed.FAST)
        for index in (1, -1)
    ]
    loop = [tracker.track_curve(cfg, None, x, t, t_seed) for x, t in seeds]
    want = suite._check_sign_law(cfg, loop)
    calls = []
    track = tracker.track_curve
    monkeypatch.setattr(
        tracker, "track_curve", lambda *a: calls.append(a[2]) or track(*a)
    )
    got = suite._check_sign_law(cfg, None)
    assert calls == [seeds[0][0], seeds[2][0]]
    assert seeds[1][0] == seeds[0][0].conjugate()
    assert seeds[3][0] == seeds[2][0].conjugate()
    assert want.passed and repr(got.to_dict()) == repr(want.to_dict())


class TestPoleCountProof:
    """The pole-count row proves the count from F's exact table."""

    def test_solves_no_snapshot(self, monkeypatch):
        solves = []
        solve = exppoly.roots_at_time
        monkeypatch.setattr(
            exppoly, "roots_at_time", lambda *a, **k: solves.append(a) or solve(*a, **k)
        )
        result = suite._check_pole_count(SolitonConfig.make(1, 2, "plus"))
        assert result.passed and solves == []

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize(
        "mutation, end",
        [
            ("drop the top monomial", "top"),
            ("add a second top-degree monomial", "top"),
            ("drop the constant monomial", "constant"),
        ],
    )
    def test_table_mutation_fails_in_its_variant(
        self, monkeypatch, variant, mutation, end
    ):
        terms_F = exppoly._terms_F
        target = kernel.Variant.coerce(variant)

        def mutated(g2, v):
            terms = terms_F(g2, v)
            if v is target:
                if mutation == "drop the top monomial":
                    terms.remove((1, 2, 2))
                elif mutation == "add a second top-degree monomial":
                    terms.append((1, 6, 0))  # degree 6 = 2(p1+p2) for (1, 2)
                else:
                    terms.remove((1, 0, 0))
            return terms

        monkeypatch.setattr(exppoly, "_terms_F", mutated)
        result = suite._check_pole_count(SolitonConfig.make(1, 2, "plus"))
        assert not result.passed and result.worst > 0
        assert result.witness.startswith(f"variant={variant}, {end} end")
        assert result.detail == "2(p1+p2) = 6 with multiplicity, not proved"

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize(
        "p1, p2",
        [(p1, p2) for p2 in range(2, 14) for p1 in range(1, p2) if math.gcd(p1, p2) == 1],
    )
    def test_proved_for_every_coprime_pair(self, p1, p2, variant):
        result = suite._check_pole_count(SolitonConfig.make(p1, p2, variant))
        assert (result.passed, result.worst, result.witness) == (True, 0.0, "")
        assert result.detail == (
            f"2(p1+p2) = {2 * (p1 + p2)} with multiplicity, "
            "proved for every t in both variants"
        )


_BATTERY_CONFIGS = {
    "report12": (1, 2, "plus"),
    "report15": (1, 5, "minus"),
    "report_irr": (1.0, 2**0.5, "plus"),
}


@pytest.mark.parametrize("fixture", sorted(_BATTERY_CONFIGS))
def test_sign_law_and_factorization_make_no_scalar_calls(
    monkeypatch, request, fixture
):
    """The sign law evaluates all its samples on the grid engine and the
    factorization row evaluates nothing: run alone, they call neither
    ``vertical_sign`` nor the one-value ``factor_scaled`` and ``F_scaled``,
    and give the battery's rows."""
    report = request.getfixturevalue(fixture)
    cfg = SolitonConfig.make(*_BATTERY_CONFIGS[fixture])
    curves = None
    if cfg.comm is not None:
        horizon = max(10.0, suite.seed_time(cfg, 1e-6) + 2.0)
        seeds = exppoly.oracle_poles(cfg, t=-horizon)
        curves = suite.track_ensemble(cfg, -horizon, horizon, poles=seeds)
    calls = []

    def spied(module, name):
        original = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for module in (kernel, analysis, suite):
        for name in ("vertical_sign", "factor_scaled", "F_scaled"):
            if hasattr(module, name):
                spied(module, name)
    rows = {c.name: c.to_dict() for c in report.checks}
    factorization = suite._check_factorization(cfg)
    sign_law = suite._check_sign_law(cfg, curves)
    assert calls == []
    assert factorization.to_dict() == rows["factorization-product"]
    assert sign_law.to_dict() == rows["vertical-sign-law"]


def test_pde_richardson_fails_on_fewer_than_three_ratios(monkeypatch):
    # Two usable probes give two ratios near 4, which show no h^2
    # convergence: the row must fail instead of passing on them.
    residual = suite.pde_residual
    usable = []

    def two_probes_only(cfg, x, t, h):
        if (x, t) not in usable:
            if len(usable) == 2:
                raise kernel.PoleError("patched pole")
            usable.append((x, t))
        return residual(cfg, x, t, h)

    monkeypatch.setattr(suite, "pde_residual", two_probes_only)
    row = suite._check_pde_richardson(
        SolitonConfig.make(1, 2, "plus"), random.Random(0)
    )
    assert len(usable) == 2
    assert (row.passed, row.worst) == (False, math.inf)
    assert row.detail == "ConvergenceError: 2 usable probe points of 40, need 3"


def _scaled_term(build, variant, index):
    """A term builder whose ``index``-th coefficient is scaled by 1 + 2^-40,
    exactly, in ``variant`` (its last argument) only."""

    def mutated(*args):
        terms = build(*args)
        if args[-1].value == variant:
            c, a1, a2 = terms[index]
            terms[index] = (c * Fraction(1 + 2.0**-40), a1, a2)
        return terms

    return mutated


_COPRIME_9 = [(p1, p2) for p2 in range(2, 10) for p1 in range(1, p2) if math.gcd(p1, p2) == 1]
# Changes a binary coefficient, exactly.
SCALE = 1 + 2.0**-20


def _assert_proved(result):
    assert (result.passed, result.worst, result.witness) == (True, 0.0, "")
    assert result.detail.endswith(": 0 nonzero coefficients")


def _assert_refuted(result, variant=None):
    assert not result.passed and result.worst >= 1
    m = re.fullmatch(r"variant=(plus|minus), monomial f1\^\d+ f2\^\d+", result.witness)
    assert m is not None, result.witness
    assert variant is None or m.group(1) == variant
    assert result.detail.endswith(f": {int(result.worst)} nonzero coefficients")


def _assert_theta_refused(cfg, witness):
    # The public theta function proves the row's rests: it raises at the
    # row's witness.
    mixed = (cfg.comm.p1 + cfg.comm.p2) % 2
    theta_of = analysis.parity_translation_theta if mixed else analysis.odd_parity_translation
    match = rf" fails over Q\(i\) at {re.escape(witness)}$"
    with pytest.raises(ConvergenceError, match=match):
        theta_of(cfg)


class TestTableProofs:
    """The factorization and translation rows prove their identities from
    the exact term tables over Q(i), the real-line row its positivity over
    Q."""

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize("p1, p2", _COPRIME_9)
    def test_proved_for_every_coprime_pair(self, p1, p2, variant):
        cfg = SolitonConfig.make(p1, p2, variant)
        factorization = suite._check_factorization(cfg)
        translation = suite._check_translation(cfg)
        _assert_proved(factorization)
        _assert_proved(translation)
        _assert_proved(suite._check_real_line(cfg))
        rows = (suite._check_factorization, suite._check_translation, suite._check_real_line)
        for row in rows:
            # Under 10 ms per config, best of three (a stray GC pause aside).
            assert min(row(cfg).elapsed_s for _ in range(3)) < 0.01
        if (p1 + p2) % 2 == 0:
            # Both odd: proved in the variant whose congruence holds.
            congruent = "plus" if (p2 - p1) % 4 == 0 else "minus"
            assert translation.detail.startswith(f"odd parity ({congruent}), ")
        else:
            assert translation.detail.startswith("mixed parity, ")

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize(
        "spec, shifts",
        [((1.0, 2**0.5), (0.0, 0.0)), (("1/3", 5), (0.0, 0.0)), ((1, 2), (0.3, -1.7))],
    )
    def test_real_line_proved_beyond_coprime_pairs(self, spec, shifts, variant):
        result = suite._check_real_line(SolitonConfig.make(*spec, variant, *shifts))
        _assert_proved(result)
        assert result.detail.startswith("F = D^2 + N^2 over Q with N or D one-signed")

    @pytest.mark.parametrize("spec", [(1, 2), (1.0, 2**0.5)])
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize("index", range(6))
    def test_F_mutation_fails_real_line_in_its_variant(
        self, monkeypatch, spec, variant, index
    ):
        monkeypatch.setattr(kernel, "_terms_F", _scaled_term(kernel._terms_F, variant, index))
        _assert_refuted(suite._check_real_line(SolitonConfig.make(*spec)), variant)

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize(
        "N, D",
        [
            # Both change sign.
            ({(1, 0): 1, (0, 1): -1}, {(0, 0): 1, (1, 1): -1}),
            # The one-signed polynomial is empty, the other changes sign.
            ({}, {(0, 0): 1, (1, 1): -1}),
            ({(1, 0): 1, (0, 1): -1}, {}),
        ],
    )
    def test_no_one_signed_N_or_D_fails_real_line(self, monkeypatch, variant, N, D):
        # F = D^2 + N^2 still holds; only the sign half of the proof fails.
        bridge_rests = suite._bridge_rests

        def unsigned(cfg):
            rests = bridge_rests(cfg)
            if cfg.variant.value != variant:
                return rests
            return (kernel._QPoly(N), kernel._QPoly(D), *rests[2:])

        monkeypatch.setattr(suite, "_bridge_rests", unsigned)
        result = suite._check_real_line(SolitonConfig.make(1, 2))
        assert (result.passed, result.worst) == (False, 1.0)
        assert result.witness == f"variant={variant}, neither N nor D one-signed"
        assert result.detail.endswith(": 0 nonzero coefficients")

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_factorization_proved_for_an_incommensurable_pair(self, variant):
        _assert_proved(suite._check_factorization(SolitonConfig.make(1.0, 2**0.5, variant)))

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("index", range(4))
    def test_factor_coefficient_mutation_fails_in_its_variant(
        self, monkeypatch, variant, which, index
    ):
        terms_factor = suite._terms_factor

        def mutated(cfg, w):
            terms = terms_factor(cfg, w)
            if cfg.variant.value == variant and w == which:
                c, a1, a2 = terms[index]
                terms[index] = (c * SCALE, a1, a2)
            return terms

        monkeypatch.setattr(suite, "_terms_factor", mutated)
        _assert_refuted(suite._check_factorization(SolitonConfig.make(1, 2)), variant)

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_gamma_squared_mutation_fails(self, monkeypatch, variant):
        # Scale g2 = gamma^2, so every gamma^2 term of F's table.
        terms_F = suite._terms_F

        def mutated(g2, v):
            return terms_F(g2 * SCALE if v.value == variant else g2, v)

        monkeypatch.setattr(suite, "_terms_F", mutated)
        _assert_refuted(suite._check_factorization(SolitonConfig.make(1, 2)), variant)

    @pytest.mark.parametrize("spec", [(1, 2, "plus"), (2, 5, "plus"), (1, 5, "plus"), (1, 3, "minus")])
    def test_wrong_turn_fails_translation(self, monkeypatch, spec):
        # q + 1 quarter turns, for the half turn of mixed parity and the
        # quarter turns of both-odd pairs alike.
        qi_poly = analysis._qi_poly

        def turned_once_more(terms, q=0, p1=0, p2=0):
            return qi_poly(terms, q + 1 if q else 0, p1, p2)

        monkeypatch.setattr(analysis, "_qi_poly", turned_once_more)
        cfg = SolitonConfig.make(*spec)
        result = suite._check_translation(cfg)
        _assert_refuted(result)
        _assert_theta_refused(cfg, result.witness)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("spec", [(1, 5, "plus"), (1, 3, "minus")])
    def test_kdv_sign_flip_fails_translation(self, monkeypatch, spec, index):
        terms_kdv = analysis._terms_kdv

        def flipped(cfg):
            terms = terms_kdv(cfg)
            c, a1, a2 = terms[index]
            terms[index] = (-c, a1, a2)
            return terms

        monkeypatch.setattr(analysis, "_terms_kdv", flipped)
        cfg = SolitonConfig.make(*spec)
        result = suite._check_translation(cfg)
        _assert_refuted(result, spec[2])
        _assert_theta_refused(cfg, result.witness)

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_gamma_squared_mutation_fails_translation(self, monkeypatch, variant):
        # gamma^2 scaled by 1 + 1e-9 in one variant's F table.
        terms_F = analysis._terms_F

        def mutated(g2, v):
            return terms_F(g2 * (1 + 1e-9) if v.value == variant else g2, v)

        monkeypatch.setattr(analysis, "_terms_F", mutated)
        cfg = SolitonConfig.make(1, 2, "plus")
        result = suite._check_translation(cfg)
        _assert_refuted(result)
        _assert_theta_refused(cfg, result.witness)

    def test_quarter_turns_have_one_owner(self, monkeypatch):
        # The row reads the rule from analysis: a wrong rule there fails it.
        monkeypatch.setattr(analysis, "_quarter_turns", lambda p1: (p1 % 4, (3 * p1) % 4))
        _assert_refuted(suite._check_translation(SolitonConfig.make(1, 5, "plus")), "plus")

    @pytest.mark.parametrize("spec", [(1, 2, "plus"), (1, 5, "minus"), (1.0, 2**0.5, "plus")])
    def test_rows_evaluate_nothing(self, monkeypatch, spec):
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
        # The spies see evaluator calls: the sampled rows and a residue at an
        # oracle pole make them.
        suite._check_pde_richardson(cfg, random.Random(0))
        assert calls
        calls.clear()
        c12 = SolitonConfig.make(1, 2, "plus")
        (x_pole, _), *_ = exppoly.oracle_poles(c12, t=0.2)
        analysis.residue_at_pole(c12, x_pole, 0.2)
        assert "_FPointEval" in calls
        calls.clear()
        for row in (
            suite._check_factorization,
            suite._check_translation,
            suite._check_real_line,
        ):
            assert row(cfg).passed
        assert calls == []


class _Recorder(random.Random):
    """A battery RNG that records which check body each draw comes from."""

    draws: list = []

    def _row(self):
        frame = sys._getframe()
        while frame is not None and not frame.f_code.co_name.startswith("_check_"):
            frame = frame.f_back
        return frame.f_code.co_name if frame is not None else None

    def random(self):
        type(self).draws.append(self._row())
        return super().random()

    def getrandbits(self, k):
        type(self).draws.append(self._row())
        return super().getrandbits(k)


@pytest.mark.parametrize(
    "spec, rows",
    [
        ((1, 2, "plus"), ["_check_field_equation", "_check_pde_richardson", "_check_residues"]),
        ((1, 5, "minus"), ["_check_field_equation", "_check_pde_richardson", "_check_residues"]),
        ((1.0, 2**0.5, "plus"), ["_check_field_equation", "_check_pde_richardson"]),
    ],
)
def test_rows_that_draw_from_the_battery_stream(monkeypatch, spec, rows):
    # Only the field-equation, Richardson and residue rows draw, in that
    # order; the first two draw 320 and 40 probes of 3 draws each.
    monkeypatch.setattr(_Recorder, "draws", [])
    monkeypatch.setattr(suite.random, "Random", _Recorder)
    report = run_battery(SolitonConfig.make(*spec), seed=0)
    draws = _Recorder.draws
    assert None not in draws
    assert list(dict.fromkeys(draws)) == rows
    assert draws[: 360 * 3] == ["_check_field_equation"] * 960 + ["_check_pde_richardson"] * 120
    assert report.passed

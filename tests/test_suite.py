"""Tests for the verification battery: full runs over representative
configurations, skip behavior with reasons, report shapes, determinism."""

from __future__ import annotations

import math
import random
import re

import pytest

from soliton_pole_lab import exppoly, suite
from soliton_pole_lab.kernel import SolitonConfig
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

"""Tests for the command-line front end: subcommand behavior, exit
codes, mode refusal, output formats, config-file precedence,
determinism of the emitted bytes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from soliton_pole_lab.cli import _f, _json, run
from soliton_pole_lab.exppoly import oracle_poles
from soliton_pole_lab.kernel import SolitonConfig
from soliton_pole_lab.suite import BatteryReport, CheckResult


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_csv(capsys, argv):
    code = run(argv + ["--format", "csv"])
    out = capsys.readouterr().out
    lines = out.split("\r\n")
    assert lines[-1] == ""  # trailing CRLF
    header, *rows = [ln.split(",") for ln in lines[:-1]]
    return code, header, rows


class TestEval:
    def test_center_value(self, capsys):
        code, doc = run_json(
            capsys,
            ["eval", "--k1", "1", "--k2", "2", "--variant", "minus", "--x", "0", "--t", "0"],
        )
        assert code == 0
        assert doc["schema"] == "soliton-pole-lab/1"
        assert doc["command"] == "eval"
        assert doc["u"] == [3.0, 0.0]
        assert doc["pole"] is None
        assert doc["config"]["exact"] is True

    def test_at_pole_reports_marker(self, capsys):
        code, doc = run_json(
            capsys,
            ["eval", "--k1", "1", "--k2", "5", "--variant", "minus",
             "--x", "0,1.5707963267948966", "--t", "0"],
        )
        assert code == 0
        assert doc["u"] is None
        assert doc["pole"]["magnitude"] < 1e-12

    def test_approximate_mode_allowed(self, capsys):
        code, doc = run_json(
            capsys,
            ["eval", "--k1", "1", "--k2", "1.4142135623730951", "--x", "0.3,0.1"],
        )
        assert code == 0
        assert doc["config"]["exact"] is False
        assert doc["t"] == 0.0

    def test_csv_shape(self, capsys):
        code, header, rows = run_csv(
            capsys, ["eval", "--k1", "1", "--k2", "2", "--x", "0.5,-0.25"]
        )
        assert code == 0
        assert header == ["re_x", "im_x", "t", "re_u", "im_u", "at_pole"]
        assert len(rows) == 1 and rows[0][-1] == "False"

    def test_missing_x_is_usage_error(self, capsys):
        code = run(["eval", "--k1", "1", "--k2", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "requires --x" in err

    def test_bad_wavenumber_order(self, capsys):
        code = run(["eval", "--k1", "3", "--k2", "2", "--x", "0"])
        assert code == 2
        assert "0 < k1 < k2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k1, k2, message",
        [("1", "inf", "must be finite"), ("1/0", "2", "zero denominator")],
    )
    def test_non_finite_wavenumber_is_usage_error(self, capsys, k1, k2, message):
        code = run(["eval", "--k1", k1, "--k2", k2, "--x", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error:") and message in err


class TestPoles:
    def test_exceptional_snapshot(self, capsys):
        code, doc = run_json(
            capsys, ["poles", "--k1", "1", "--k2", "5", "--variant", "minus", "--t", "0"]
        )
        assert code == 0
        assert doc["count_with_multiplicity"] == 12
        quads = [p for p in doc["poles"] if p["multiplicity"] == 4]
        assert len(quads) == 2
        ordinates = sorted(p["x"][1] for p in quads)
        assert ordinates == pytest.approx([-math.pi / 2, math.pi / 2], abs=1e-12)

    def test_decimal_wavenumbers_refused(self, capsys):
        code = run(["poles", "--k1", "1", "--k2", "1.4142", "--t", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "exact pole oracle" in err

    def test_rational_string_accepted(self, capsys):
        code, doc = run_json(
            capsys, ["poles", "--k1", "1/2", "--k2", "3/2", "--t", "0.25"]
        )
        assert code == 0
        assert doc["config"]["exact"] is True
        assert doc["count_with_multiplicity"] == 8  # 2(p1+p2) for p1=1, p2=3

    def test_csv_shape(self, capsys):
        code, header, rows = run_csv(
            capsys, ["poles", "--k1", "1", "--k2", "2", "--t", "0"]
        )
        assert code == 0
        assert header == ["re_x", "im_x", "multiplicity"]
        assert len(rows) == 6

    def test_certification_failure_names_the_estimate(self, capsys):
        # The failing root's y underflows a double at t = 1e15, so the
        # message names the estimate by its finite log y.
        code = run(["poles", "--k1", "1", "--k2", "2", "--variant", "plus", "--t", "1e15"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: root estimate e^((-999999999999999")
        assert "failed certification" in err and "root 0j" not in err

    def test_time_beyond_the_oracle_is_an_error_line(self, capsys):
        code = run(["poles", "--k1", "1", "--k2", "2", "--t", "1e300"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTrack:
    def test_oracle_seeded_sweep(self, capsys):
        code, doc = run_json(
            capsys,
            ["track", "--k1", "1", "--k2", "2", "--variant", "plus",
             "--t0", "-1", "--t1", "1"],
        )
        assert code == 0
        assert len(doc["curves"]) == 6
        for c in doc["curves"]:
            ts = [s[0] for s in c["samples"]]
            assert ts[0] == -1.0 and ts[-1] == 1.0
            assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_explicit_seed(self, capsys):
        cfg = SolitonConfig.make(1, 2, "plus")
        x0 = oracle_poles(cfg, t=-0.5)[0][0]
        code, doc = run_json(
            capsys,
            ["track", "--k1", "1", "--k2", "2", "--variant", "plus",
             "--t0", "-0.5", "--t1", "0.5", f"--x={x0.real},{x0.imag}"],
        )
        assert code == 0
        assert len(doc["curves"]) == 1

    def test_seedless_decimal_refused(self, capsys):
        code = run(
            ["track", "--k1", "1", "--k2", "1.4142", "--t0", "-1", "--t1", "1"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--x" in err

    def test_csv_shape(self, capsys):
        code, header, rows = run_csv(
            capsys,
            ["track", "--k1", "1", "--k2", "2", "--t0", "0", "--t1", "0.1"],
        )
        assert code == 0
        assert header == ["curve", "t", "re_x", "im_x", "rel_F", "flags"]
        assert {r[0] for r in rows} == {"0", "1", "2", "3", "4", "5"}


class TestAsympt:
    def test_both_horizons_match(self, capsys):
        code, doc = run_json(
            capsys, ["asympt", "--k1", "1", "--k2", "2", "--variant", "plus"]
        )
        assert code == 0
        assert doc["T"] == 10.0
        assert [r["direction"] for r in doc["reports"]] == [-1, 1]
        for rep in doc["reports"]:
            assert rep["unmatched"] == []
            assert len(rep["matches"]) == 6
            assert rep["max_residual"] < 1e-3
            labels = [m["label"] for m in rep["matches"]]
            assert len(set(labels)) == 6

    def test_decimal_refused(self, capsys):
        code = run(["asympt", "--k1", "1", "--k2", "1.4142"])
        assert code == 2

    def test_bad_horizon(self, capsys):
        code = run(["asympt", "--k1", "1", "--k2", "2", "--t1", "-3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "positive" in err


class TestVerify:
    def test_battery_passes(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "--k1", "1", "--k2", "2", "--variant", "plus"]
        )
        assert code == 0
        assert doc["passed"] is True
        assert doc["n_checks"] == 12
        assert doc["n_skipped"] == 0

    def test_failing_battery_exits_one(self, capsys, monkeypatch):
        stub = BatteryReport(
            config={"k1": 1.0},
            seed=0,
            checks=(CheckResult("stub-check", False, 1.0, "w", "broken"),),
        )
        monkeypatch.setattr(
            "soliton_pole_lab.cli.run_battery", lambda cfg, seed=0: stub
        )
        code, doc = run_json(capsys, ["verify", "--k1", "1", "--k2", "2"])
        assert code == 1
        assert doc["passed"] is False

    def test_csv_shape(self, capsys):
        code, header, rows = run_csv(
            capsys, ["verify", "--k1", "1", "--k2", "2", "--variant", "plus"]
        )
        assert code == 0
        assert header == ["name", "passed", "worst", "witness", "detail", "skipped"]
        assert len(rows) == 12
        assert all(r[1] == "True" for r in rows)


class TestBlowup:
    def test_scenario_and_fit(self, capsys):
        code, doc = run_json(
            capsys, ["blowup", "--k1", "1", "--k2", "2", "--variant", "plus"]
        )
        assert code == 0
        assert abs(doc["fit"]["exponent"] + 1.0) < 0.05
        assert 0.9 < doc["fit"]["amplitude_ratio"] < 1.1
        assert doc["transversal"] is True
        assert len(doc["samples"]) == 5
        sups = [s["sup_abs"] for s in doc["samples"]]
        assert all(a < b for a, b in zip(sups, sups[1:]))

    def test_no_sweeping_curve_exits_one(self, capsys):
        code = run(["blowup", "--k1", "1", "--k2", "5", "--variant", "minus"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    def test_decimal_refused(self, capsys):
        code = run(["blowup", "--k1", "1", "--k2", "1.4142"])
        assert code == 2

    @pytest.mark.parametrize("t1", ["0", "-3"])
    def test_window_must_be_positive(self, capsys, t1):
        # Unchecked, --t1 0 fails in the tracker and --t1 -3 seeds at t = +3.
        code = run(["blowup", "--k1", "1", "--k2", "2", "--variant", "plus", f"--t1={t1}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "usage error: --t1: tracking half-window must be positive\n"


class TestInteraction:
    def test_sweep_values(self, capsys):
        code, header, rows = run_csv(capsys, ["interaction", "--ratios", "2.0,3.0"])
        assert code == 0
        assert header == ["ratio", "maxima", "uxx_center", "speed_closed_form",
                          "speed_measured"]
        r2, r3 = rows
        assert (float(r2[0]), int(r2[1]), float(r2[2]), float(r2[3])) == (2.0, 2, 1.0, 1.0)
        assert abs(float(r2[4]) - 1.0) < 1e-4
        assert (float(r3[0]), int(r3[1]), float(r3[2]), float(r3[3])) == (3.0, 1, -2.0, 19.0)
        assert abs(float(r3[4]) - 19.0) < 1e-3

    def test_singular_ratio_gives_null_speeds(self, capsys):
        code, doc = run_json(
            capsys, ["interaction", "--ratios", "2.618033988749895"]
        )
        assert code == 0
        row = doc["rows"][0]
        assert row["speed_closed_form"] is None
        assert row["speed_measured"] is None
        assert row["maxima"] == 1

    def test_default_ladder(self, capsys):
        code, doc = run_json(capsys, ["interaction"])
        assert code == 0
        assert len(doc["rows"]) == 7
        assert doc["k1"] == 1.0

    def test_k_pair_single_row(self, capsys):
        code, doc = run_json(capsys, ["interaction", "--k1", "2", "--k2", "4"])
        assert code == 0
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["ratio"] == 2.0

    def test_bad_ratios(self, capsys):
        code = run(["interaction", "--ratios", "2.0,abc"])
        assert code == 2

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "options, got",
        [
            ({"ratios": "0.5"}, "1.0, 0.5"),
            ({"ratios": "2.0,1"}, "1.0, 1.0"),
            ({"k1": "0", "ratios": "2"}, "0.0, 0.0"),
            ({"k1": "-1"}, "-1.0, -1.5"),
            ({"k1": "2", "k2": "1"}, "2.0, 1.0"),
        ],
    )
    def test_bad_wavenumbers_are_usage_errors(self, capsys, tmp_path, via, options, got):
        # Unchecked, the sweep's own configs raised and exited 1.
        argv = ["interaction"]
        if via == "flag":
            argv += [f"--{key}={value}" for key, value in options.items()]
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text("".join(f"{k}={v}\n" for k, v in options.items()))
            argv += ["--config", str(cfgfile)]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"usage error: wavenumbers must satisfy 0 < k1 < k2, got {got}\n"

    @pytest.mark.parametrize("rest", [["--k2", "1"], ["--ratios", "2.0,3.0"], []])
    def test_rational_k1_prints_its_decimal_output(self, capsys, rest):
        assert run(["interaction", "--k1", "1/2", *rest]) == 0
        rational = capsys.readouterr()
        assert run(["interaction", "--k1", "0.5", *rest]) == 0
        assert capsys.readouterr() == rational

    @pytest.mark.parametrize("rest", [["--ratios", "2.0"], []])
    def test_zero_denominator_k1_is_usage_error(self, capsys, rest):
        code = run(["interaction", "--k1", "1/0", *rest])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "usage error: zero denominator in '1/0'\n"

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("key", ["x1", "x2"])
    @pytest.mark.parametrize(
        "argv",
        [["interaction", "--k1", "1", "--k2", "2"], ["interaction", "--ratios", "2.0"]],
    )
    def test_nonzero_shift_is_usage_error(self, capsys, tmp_path, via, key, argv):
        # Unchecked, the sweep builds zero-shift configs and ignores the shift.
        argv = list(argv)
        if via == "flag":
            argv.append(f"--{key}=3")
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(f"{key}=3\n")
            argv += ["--config", str(cfgfile)]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "zero shifts" in captured.err

    def test_zero_shift_output_unchanged(self, capsys):
        argv = ["interaction", "--ratios", "2.0,3.0"]
        assert run(argv) == 0
        plain = capsys.readouterr().out
        assert run(argv + ["--x1", "0", "--x2=-0.0"]) == 0
        assert capsys.readouterr().out == plain


class TestPlumbing:
    def test_byte_identical_runs(self, capsys):
        argv = ["verify", "--k1", "1", "--k2", "2", "--variant", "plus", "--seed", "7"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "poles.json"
        code = run(["poles", "--k1", "1", "--k2", "2", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["command"] == "poles"

    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("k1=1\nk2=2\nvariant=plus\n# comment\nt=0.5\n")
        code, doc = run_json(
            capsys,
            ["poles", "--config", str(cfgfile), "--variant", "minus"],
        )
        assert code == 0
        assert doc["config"]["variant"] == "minus"  # flag wins
        assert doc["t"] == 0.5  # file fills the gap

    def test_config_unknown_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("k1=1\nwavelength=3\n")
        code = run(["poles", "--config", str(cfgfile), "--k2", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "wavelength" in err

    def test_config_value_passes_the_flags_choices(self, capsys, tmp_path):
        # --format yaml is a usage error, so format = yaml in a file must
        # be one too, not a silent CSV.
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("k1=1\nk2=2\nformat=yaml\n")
        code = run(["poles", "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "format" in captured.err and "yaml" in captured.err

    def test_config_key_of_another_subcommand_ignored(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("k1=1\nk2=2\nalpha=oops\nratios=1.5\n")
        code, doc = run_json(capsys, ["poles", "--config", str(cfgfile)])
        assert code == 0 and doc["count_with_multiplicity"] == 6

    def test_config_malformed_line(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("k1 1\n")
        code = run(["poles", "--config", str(cfgfile), "--k2", "2"])
        assert code == 2

    def test_missing_config_file(self, capsys):
        code = run(["poles", "--k1", "1", "--k2", "2", "--config", "/nonexistent.cfg"])
        assert code == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_unknown_flag(self, capsys):
        assert run(["poles", "--k1", "1", "--k2", "2", "--frob", "1"]) == 2

    def test_malformed_rational(self, capsys):
        code = run(["poles", "--k1", "1", "--k2", "a/b"])
        err = capsys.readouterr().err
        assert code == 2
        assert "malformed rational" in err

    def test_bad_x_syntax(self, capsys):
        code = run(["eval", "--k1", "1", "--k2", "2", "--x", "1;2"])
        assert code == 2


_NON_FINITE_ARGV = {
    "t": ["poles", "--k1", "1", "--k2", "2"],
    "t0": ["track", "--k1", "1", "--k2", "2", "--t1", "1"],
    "t1": ["asympt", "--k1", "1", "--k2", "2"],
    "alpha": ["blowup", "--k1", "1", "--k2", "2"],
    "x": ["eval", "--k1", "1", "--k2", "2"],
    "ratios": ["interaction"],
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("t", "nan"),
        ("t", "-inf"),
        ("t0", "inf"),
        ("t1", "inf"),
        ("alpha", "nan"),
        ("x", "nan"),
        ("x", "1,inf"),
        ("x", "nan,0.5"),
        ("ratios", "1.5,nan"),
    ],
)
def test_non_finite_number_is_usage_error(capsys, tmp_path, via, key, value):
    # Unchecked, eval --x nan prints u as null, and blowup --alpha nan and
    # asympt --t1 inf fail later with unrelated errors.
    argv = list(_NON_FINITE_ARGV[key])
    if via == "flag":
        argv.append(f"--{key}={value}")
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfgfile)]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "finite" in captured.err


class TestEntryPoint:
    """``python -m soliton_pole_lab`` runs ``main``, which exits with the code
    ``run`` returns: one case per exit code."""

    @staticmethod
    def _module(*argv):
        here = Path(__file__).resolve().parent
        src = str(here.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        return subprocess.run(
            [sys.executable, "-m", "soliton_pole_lab", *argv],
            capture_output=True,
            env=env,
            timeout=120,
        )

    def test_success_exits_zero_with_the_golden_output(self):
        argv = ["eval", "--k1", "1", "--k2", "2", "--variant", "minus", "--x", "0", "--t", "0"]
        proc = self._module(*argv)
        golden = Path(__file__).parent / "golden" / "eval_12m_x0.out"
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == golden.read_bytes()

    def test_computation_failure_exits_one(self):
        argv = ["track", "--k1", "1", "--k2", "2", "--t0", "0", "--t1", "1", "--x", "0,0"]
        proc = self._module(*argv)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"error: corrector diverged at t=0.0")

    def test_usage_error_exits_two(self):
        proc = self._module("interaction", "--ratios", "0.5")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"usage error: wavenumbers must satisfy 0 < k1 < k2")


class TestSerialization:
    def test_float_pinning(self):
        assert _f(0.1) == "0.10000000000000001"
        assert _f(3.0) == "3"

    def test_json_nonfinite_is_null(self):
        assert _json(math.nan) == "null"
        assert _json(math.inf) == "null"

    def test_json_complex_and_order(self):
        assert _json(complex(1.5, -2.0)) == "[1.5,-2]"
        assert _json({"b": 1, "a": True, "c": None}) == '{"b":1,"a":true,"c":null}'

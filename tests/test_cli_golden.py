"""Byte-identity of CLI output against recorded goldens.

Each ``tests/golden/<name>.out`` holds the exact stdout of ``run(argv)``
for the argv below, recorded before the pole-pipeline helpers were merged
behind single owners.  A refactor that claims to change no behaviour must
keep every byte; a deliberate output change regenerates the affected file
and says so in CHANGES.md.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from soliton_pole_lab.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "eval_12m_x0": ["eval", "--k1", "1", "--k2", "2", "--variant", "minus",
                    "--x", "0", "--t", "0"],
    "poles_15m_t0": ["poles", "--k1", "1", "--k2", "5", "--variant", "minus",
                     "--t", "0"],
    # Degree 16 with two 4-fold roots, and roots whose y lies beyond double
    # range: both pin the oracle's reported poles.
    "poles_17p_t0": ["poles", "--k1", "1", "--k2", "7", "--variant", "plus",
                     "--t", "0"],
    "poles_89p_t12": ["poles", "--k1", "8", "--k2", "9", "--variant", "plus",
                      "--t", "12.114"],
    "track_12p": ["track", "--k1", "1", "--k2", "2", "--variant", "plus",
                  "--t0", "-1", "--t1", "1"],
    "track_12p_csv": ["track", "--k1", "1", "--k2", "2", "--variant", "plus",
                      "--t0", "-1", "--t1", "1", "--format", "csv"],
    "asympt_12p": ["asympt", "--k1", "1", "--k2", "2", "--variant", "plus",
                   "--t1", "10"],
    "verify_12p": ["verify", "--k1", "1", "--k2", "2", "--variant", "plus"],
    "verify_1r2p": ["verify", "--k1", "1", "--k2", "1.4142135623730951"],
    # The one verify report with a data-dependent skip reason (blowup-rate:
    # no transversal crossing).
    "verify_15m": ["verify", "--k1", "1", "--k2", "5", "--variant", "minus"],
    "blowup_12p": ["blowup", "--k1", "1", "--k2", "2", "--variant", "plus"],
    "interaction": ["interaction", "--ratios", "1.5,2.0,2.618,3.0"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    code = run(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")


_STATS = re.compile(
    r"curve (\d+): accepted=(\d+) rejected=(\d+) newton_iterations=(\d+) "
    r"points=(\d+) min_fx_rel=(\d\.\d{3}e[+-]\d\d)(?: conjugate_of=(\d+))?"
)


@pytest.mark.parametrize("name", ["track_12p", "track_12p_csv"])
def test_track_stats_go_to_stderr_only(capsys, name):
    code = run(CASES[name] + ["--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    if name.endswith("_csv"):
        rows = list(csv.reader(io.StringIO(captured.out)))[1:]
        counts = Counter(int(row[0]) for row in rows)
        n_samples = [counts[i] for i in range(len(counts))]
    else:
        n_samples = [c["n_samples"] for c in json.loads(captured.out)["curves"]]
    lines = captured.err.splitlines()
    assert len(lines) == len(n_samples) == 6
    stats = [_STATS.fullmatch(line).groups() for line in lines]
    for i, (groups, n) in enumerate(zip(stats, n_samples)):
        *counts, min_fx_rel, partner = groups
        index, accepted, rejected, newton, points = map(int, counts)
        assert index == i
        assert accepted == n - 1
        assert points == newton + 1 + accepted + rejected
        # The curves pass no multiple zero: F_x stays well above tracker.FX_MIN.
        assert 3e-6 < float(min_fx_rel) <= 1.0
        if partner is not None:
            # A conjugated curve names an earlier, tracked curve and
            # repeats its counters.
            j = int(partner)
            assert j < i and stats[j][6] is None
            assert groups[1:6] == stats[j][1:6]
    # The oracle lists (1,2)+'s poles as three upper ones, then their
    # conjugates in reverse: three curves are tracked, three conjugated.
    assert [g[6] for g in stats] == [None, None, None, "2", "1", "0"]


_ROW_STATS = re.compile(r"check (\S+): elapsed_s=(\d+\.\d{6})")
_BATTERY_STATS = re.compile(r"battery: elapsed_s=(\d+\.\d{6}) checks_s=(\d+\.\d{6})")


@pytest.mark.parametrize("name", ["verify_12p", "verify_15m", "verify_1r2p"])
def test_verify_stats_go_to_stderr_only(capsys, name):
    code = run(CASES[name] + ["--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    names = [c["name"] for c in json.loads(captured.out)["checks"]]
    *rows, total = captured.err.splitlines()
    assert len(rows) == len(names) == 12
    times = []
    for line, want in zip(rows, names):
        got, elapsed = _ROW_STATS.fullmatch(line).groups()
        assert got == want
        times.append(float(elapsed))
    battery, checks = map(float, _BATTERY_STATS.fullmatch(total).groups())
    assert checks == pytest.approx(sum(times), abs=1e-5)
    assert battery >= checks

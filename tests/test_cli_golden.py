"""Byte-identity of CLI output against recorded goldens.

Each ``tests/golden/<name>.out`` holds the exact stdout of ``run(argv)``
for the argv below, recorded before the pole-pipeline helpers were merged
behind single owners.  A refactor that claims to change no behaviour must
keep every byte; a deliberate output change regenerates the affected file
and says so in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from soliton_pole_lab.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "eval_12m_x0": ["eval", "--k1", "1", "--k2", "2", "--variant", "minus",
                    "--x", "0", "--t", "0"],
    "poles_15m_t0": ["poles", "--k1", "1", "--k2", "5", "--variant", "minus",
                     "--t", "0"],
    "track_12p": ["track", "--k1", "1", "--k2", "2", "--variant", "plus",
                  "--t0", "-1", "--t1", "1"],
    "track_12p_csv": ["track", "--k1", "1", "--k2", "2", "--variant", "plus",
                      "--t0", "-1", "--t1", "1", "--format", "csv"],
    "asympt_12p": ["asympt", "--k1", "1", "--k2", "2", "--variant", "plus",
                   "--t1", "10"],
    "verify_12p": ["verify", "--k1", "1", "--k2", "2", "--variant", "plus"],
    "verify_1r2p": ["verify", "--k1", "1", "--k2", "1.4142135623730951"],
    "blowup_12p": ["blowup", "--k1", "1", "--k2", "2", "--variant", "plus"],
    "interaction": ["interaction", "--ratios", "1.5,2.0,2.618,3.0"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    code = run(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")

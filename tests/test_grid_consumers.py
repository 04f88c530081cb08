"""The dense-grid consumers evaluate their grids in one batch.

``check_no_real_poles``, the residue contour, ``find_maxima``'s scans and
``_profile_at``'s grids go through the grid engine: they make no per-point
call to the scalar ``F_scaled``/``eval_u``/``eval_u_x``.  What scalar calls
remain belong to the Newton polishes, one point at a time.
"""

import math
import sys

import pytest

from soliton_pole_lab import kernel
from soliton_pole_lab.analysis import check_no_real_poles, residue_at_pole
from soliton_pole_lab.blowup import GridSpec, _profile_at
from soliton_pole_lab.exppoly import oracle_poles
from soliton_pole_lab.interaction import find_maxima
from soliton_pole_lab.kernel import SolitonConfig

PACKAGE = "soliton_pole_lab"


@pytest.fixture
def spy(monkeypatch):
    """spy(name) counts the calls of kernel.<name> made from any package
    module, wherever the name is bound."""

    def install(name: str) -> list:
        original = getattr(kernel, name)
        calls: list = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
        return calls

    return install


def test_line_scan_makes_no_scalar_F_calls(spy) -> None:
    calls = spy("F_scaled")
    scan = check_no_real_poles(SolitonConfig.make(1, 2, "plus"), 0.3)
    assert scan.samples == 4001
    assert calls == []


def test_residue_contour_makes_no_scalar_u_calls(spy) -> None:
    cfg = SolitonConfig.make(1, 2, "plus")
    poles = oracle_poles(cfg, 0.4)
    u_calls = spy("eval_u")
    res = residue_at_pole(cfg, poles[0][0], 0.4, poles=poles)
    assert min(abs(res - 1j), abs(res + 1j)) < 1e-8
    assert u_calls == []


def test_maxima_scans_make_no_scalar_u_calls(spy) -> None:
    u_calls, ux_calls, uxx_calls = spy("eval_u"), spy("eval_u_x"), spy("eval_u_xx")
    maxima = find_maxima(SolitonConfig.make(1, 2, "plus"))
    assert len(maxima) == 2
    assert u_calls == []
    # Each bracket-guarded Newton step pairs one u_x with one u_xx; a
    # polish may stop on an exact zero of u_x before its u_xx.
    assert len(ux_calls) <= len(uxx_calls) + len(maxima)


def test_profile_grids_make_no_scalar_u_calls(spy) -> None:
    u_calls, raise_calls = spy("eval_u"), spy("_u_or_raise")
    cfg = SolitonConfig.make(1, 2, "plus")
    sample = _profile_at(cfg, 0.4, 0.0, 0.5, GridSpec(math.pi / 64))
    assert sample.sup_abs > 0.0
    assert u_calls == [] and raise_calls == []

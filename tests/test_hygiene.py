"""Static hygiene of the package sources: no unused module-level imports,
and no module-level definition that the package never refers to."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "soliton_pole_lab"

# (module, name) pairs imported on purpose without a use in the module.
# blowup re-exports track_curve: the benchmark's tracer checks that a name
# imported across modules is traced there too.
ALLOWED = {("blowup", "track_curve")}


def _names_used(tree: ast.Module) -> set[str]:
    """Every bare name read in the module, including names inside quoted
    annotations and the strings listed in __all__."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= _names_in_string(node.value)
    return used


def _names_in_string(text: str) -> set[str]:
    """Names in a string that parses as an expression: quoted annotations
    ("mp.mpc", "Variant | str | None") and __all__ entries; docstrings
    rarely parse."""
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _module_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level import statements (not __future__)."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _names_used(tree)
    return [name for name in _module_imports(tree) if name not in used]


def test_scanner_flags_an_unused_import(tmp_path: Path) -> None:
    src = tmp_path / "mod.py"
    src.write_text(
        "import math\nfrom typing import Callable, Optional\n"
        "def f(x: 'Optional[int]') -> float:\n    return math.pi\n"
    )
    assert unused_imports(src) == ["Callable"]


def test_no_unused_module_imports() -> None:
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {
        (path.stem, name)
        for path in modules
        for name in unused_imports(path)
    }
    assert found - ALLOWED == set()


def catch_all_handlers(paths: list[Path]) -> list[tuple[str, int]]:
    """(module, line) of each handler that catches every exception: a bare
    ``except:`` or one naming Exception or BaseException."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and (
                node.type is None
                or isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException")
            ):
                found.append((path.stem, node.lineno))
    return found


def test_battery_harness_is_the_only_catch_all() -> None:
    # Turning any exception into a result is the battery's policy alone;
    # every other handler names what it expects.
    found = catch_all_handlers(sorted(PACKAGE.glob("*.py")))
    assert [module for module, _ in found] == ["suite"]


def _module_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _references(tree: ast.Module) -> set[str]:
    """Names a module refers to: names it reads, attribute names, names it
    imports, and names in its strings (so a name in __all__ counts).  A
    definition or assignment alone is not a reference."""
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs |= _names_in_string(node.value)
    return refs


def unreferenced_definitions(paths: list[Path]) -> list[tuple[str, str]]:
    """(module, name) for each module-level definition that no module among
    paths refers to."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    refs = set().union(*(_references(tree) for tree in trees.values()))
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in _module_definitions(tree)
        if name not in refs
    )


def test_scanner_flags_an_unreferenced_definition(tmp_path: Path) -> None:
    (tmp_path / "a.py").write_text(
        "__all__ = ['exported']\n"
        "Alias = int\n"
        "_LIMIT: float = 1.0\n"
        "_dead_value = 2\n"
        "class Quoted: pass\n"
        "def exported(): pass\n"
        "def imported() -> 'Quoted': pass\n"
        "def _recursive(n): return _recursive(n - 1) if n else _LIMIT\n"
        "def _dead(): pass\n"
        "class _DeadClass: pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import imported\nimport a\nprint(imported(), a.Alias)\n"
    )
    found = unreferenced_definitions(sorted(tmp_path.glob("*.py")))
    assert found == [("a", "_DeadClass"), ("a", "_dead"), ("a", "_dead_value")]


def test_every_module_definition_is_referenced() -> None:
    assert unreferenced_definitions(sorted(PACKAGE.glob("*.py"))) == []


def functions_taking(paths: list[Path], params: set[str]) -> list[tuple[str, str]]:
    """(module, name) of each function, at any depth, whose parameters
    include every name in params."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
                if params <= names:
                    found.append((path.stem, node.name))
    return found


def test_only_track_curve_takes_a_variant_beside_the_config() -> None:
    # The config carries the sign variant; a caller that wants the other
    # one passes cfg.with_variant(v).  track_curve keeps its positional
    # variant because the benchmark's track workload calls
    # track_curve(cfg, None, x0, t0, t1).
    found = functions_taking(sorted(PACKAGE.glob("*.py")), {"cfg", "variant"})
    assert found == [("tracker", "track_curve")]


# Records whose JSON form renames, computes or reorders keys, so they keep
# a hand-written to_dict.
OWN_TO_DICT = {"SolitonConfig", "CurveMatch", "BatteryReport", "ExpTerm", "ExpPoly", "RootSet"}


def _returns_record_dict(method: ast.FunctionDef) -> bool:
    """Whether the method's body, docstring aside, is
    ``return _record_dict(self, ...)``."""
    body = method.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_record_dict"
        and bool(call.args)
        and isinstance(call.args[0], ast.Name)
        and call.args[0].id == "self"
    )


def hand_written_to_dicts(paths: list[Path]) -> list[str]:
    """Names of the classes whose to_dict does not return
    ``_record_dict(self, ...)``."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name == "to_dict"
                        and not _returns_record_dict(item)
                    ):
                        found.append(node.name)
    return sorted(found)


def test_scanner_flags_a_hand_written_to_dict(tmp_path: Path) -> None:
    (tmp_path / "a.py").write_text(
        "class Plain:\n"
        "    def to_dict(self):\n"
        "        '''Export.'''\n"
        "        return _record_dict(self, extra=1)\n"
        "class Hand:\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a}\n"
        "class Wrapped:\n"
        "    def to_dict(self):\n"
        "        return dict(_record_dict(self))\n"
    )
    assert hand_written_to_dicts([tmp_path / "a.py"]) == ["Hand", "Wrapped"]


def test_records_export_through_one_rule() -> None:
    # The export rule (compared fields in order, complex as [re, im],
    # compare=False fields left out) lives in kernel._record_dict; only
    # records that rename, compute or reorder keys write their own.
    found = hand_written_to_dicts(sorted(PACKAGE.glob("*.py")))
    assert found == sorted(OWN_TO_DICT)


# Tuning values that no caller set are module constants, not parameters
# (tracker.DT_FLOOR, exppoly.MAX_ITER, ...), and the config alone chooses
# the sign variant.  A new knob needs a caller that sets it and an edit
# here.  Names are attribute paths within the module.
TRACKER_OPTION_FIELDS = (
    "dt_init",
    "dt_max",
    "newton_tol",
    "collision_radius",
    "max_steps",
)
REMOVED_PARAMETERS = {
    ("exppoly", "roots_at_time"): {"cluster_tol", "cert_tol", "max_iter"},
    ("exppoly", "build_F_poly"): {"variant"},
    ("exppoly", "build_G_poly"): {"variant"},
    ("exppoly", "oracle_poles"): {"variant"},
    ("analysis", "factor_F"): {"variant"},
    ("analysis", "check_no_real_poles"): {"variant"},
    ("analysis", "vertical_sign"): {"variant"},
    ("analysis", "odd_translation_residuals"): {"variant"},
    ("analysis", "residue_at_pole"): {"cross_check", "nodes", "variant"},
    ("analysis", "parity_translation_theta"): {"probes", "seed", "tol"},
    ("analysis", "odd_parity_translation"): {"probes", "seed", "tol", "variant"},
    ("asymptotics", "MovingFrame.value"): {"variant"},
    ("blowup", "coupled_system_residual"): {"variant"},
    ("blowup", "find_crossing"): {"opts", "tol"},
    ("blowup", "GridSpec"): {"levels", "factor", "span", "boundary_tol", "auto_deepen"},
    ("blowup", "build_scenario"): {"opts", "grid"},
    ("blowup", "fit_blowup_rate"): {"min_r2"},
    ("tracker", "position_at"): {"opts"},
    ("tracker", "detect_exceptional"): {"q_values"},
    ("tracker", "_newton_correct"): {"opts"},
    ("interaction", "uxx_at_center"): {"variant"},
    ("interaction", "extremum_speed"): {"variant"},
    ("interaction", "measure_uxx_at_center"): {"variant", "h", "richardson"},
    ("interaction", "measure_extremum_speed"): {"variant", "h", "richardson"},
    ("interaction", "find_maxima"): {"variant", "span"},
    ("interaction", "count_maxima_at_interaction"): {"variant", "span"},
    ("interaction", "maxima_transition_ratio"): {"k1", "tol"},
    ("interaction", "negative_speed_onset"): {"k1", "tol"},
}


def test_tuning_constants_stay_constants() -> None:
    from soliton_pole_lab.blowup import GridSpec
    from soliton_pole_lab.tracker import TrackerOptions

    fields = tuple(f.name for f in dataclasses.fields(TrackerOptions))
    assert fields == TRACKER_OPTION_FIELDS
    # The profile policy is fixed; its other fields are only reported.
    assert tuple(f.name for f in dataclasses.fields(GridSpec) if f.init) == ("spacing",)
    for (module, name), removed in REMOVED_PARAMETERS.items():
        fn = importlib.import_module(f"soliton_pole_lab.{module}")
        for attr in name.split("."):
            fn = getattr(fn, attr)
        assert removed.isdisjoint(inspect.signature(fn).parameters), (module, name)


# Every defaulted parameter of the functions and public-class methods
# (constructors included) that each module lists in __all__, keyed by
# module.name: each is a value a caller can set.
SETTABLE_PARAMETERS = {
    "_balanced.ScaledGrid.ratio": {"active"},
    "analysis.check_no_real_poles": {"grid"},
    "analysis.residue_at_pole": {"poles"},
    "asymptotics.seed_time": {"eps"},
    "asymptotics.seed_state": {"eps"},
    "asymptotics.match_families": {"attach", "direction"},
    "asymptotics.match_horizons": {"poles"},
    "blowup.BlowupScenario.__init__": {"series"},
    "blowup.build_scenario": {"alpha", "curves", "t_span"},
    "blowup.fit_blowup_rate": {"series"},
    "blowup.coupled_system_residual": {"cross_coeff", "h"},
    "cli.run": {"argv"},
    "exppoly.ExpTerm.__init__": {"coeff_exact", "log_factor", "sigma_exact"},
    "exppoly.ExpPoly.__init__": {"lam_exact", "p1", "p2"},
    "exppoly.exp_poly_eval": {"dy"},
    "exppoly.oracle_poles": {"t"},
    "interaction.maxima_transition_ratio": {"hi", "lo"},
    "interaction.negative_speed_onset": {"hi", "lo"},
    "interaction.sweep_rows": {"k1", "variant"},
    "kernel.CommensurabilityInfo.__init__": {"lam_exact"},
    "kernel.SolitonConfig.make": {"variant", "x1", "x2"},
    "kernel.SolitonConfig.__init__": {"comm", "k1_exact", "k2_exact", "variant", "x1", "x2"},
    "kernel.F_scaled": {"dt", "dx"},
    "kernel.G_scaled": {"dt", "dx"},
    "kernel.factor_scaled": {"dt", "dx"},
    "kernel.kdv_F_scaled": {"dt", "dx"},
    "kernel.F_grid": {"dt", "dx"},
    "kernel.G_grid": {"dt", "dx"},
    "suite.CheckResult.__init__": {"elapsed_s", "skipped"},
    "suite.run_battery": {"seed"},
    "tracker.TrackerOptions.__init__": set(TRACKER_OPTION_FIELDS),
    "tracker.PoleCurve.__init__": {
        "accepted", "branch_class", "collision_point", "conjugate_of",
        "exceptional_collision", "family", "min_fx_rel", "newton_iterations",
        "points", "rejected", "residuals",
    },
    "tracker.track_curve": {"opts", "t_end", "t_start", "variant", "x_start"},
    "tracker.track_ensemble": {"opts", "poles"},
    "tracker.track_zero_curve": {"collision_points", "opts", "variant"},
}


def settable_parameters() -> dict[str, set[str]]:
    """SETTABLE_PARAMETERS as the package defines it today."""
    import soliton_pole_lab

    def defaulted(fn) -> set[str]:
        params = inspect.signature(fn).parameters.values()
        return {p.name for p in params if p.default is not inspect.Parameter.empty}

    found = {}
    for info in pkgutil.iter_modules(soliton_pole_lab.__path__):
        module = importlib.import_module(f"soliton_pole_lab.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                members = {name: obj}
            elif inspect.isclass(obj):
                members = {
                    f"{name}.{attr}": getattr(obj, attr)
                    for attr, value in vars(obj).items()
                    if (attr == "__init__" or not attr.startswith("_"))
                    and inspect.isfunction(getattr(value, "__func__", value))
                }
            else:
                continue
            for key, fn in members.items():
                if params := defaulted(fn):
                    found[f"{info.name}.{key}"] = params
    return found


def test_settable_parameters_are_recorded() -> None:
    # A new or removed default fails here until the record changes.
    assert settable_parameters() == SETTABLE_PARAMETERS


# Each subcommand's option strings, in order: the common ones, then its own.
COMMON_OPTIONS = (
    "-h", "--help", "--k1", "--k2", "--variant", "--x1", "--x2",
    "--config", "--out", "--format", "--seed",
)
SUBCOMMAND_OPTIONS = {
    "eval": ("--x", "--t"),
    "poles": ("--t",),
    "track": ("--t0", "--t1", "--x", "--stats"),
    "asympt": ("--t1",),
    "verify": ("--stats",),
    "blowup": ("--alpha", "--t1"),
    "interaction": ("--ratios",),
}


def test_cli_options_are_recorded() -> None:
    from soliton_pole_lab.cli import _build_parser

    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: tuple(s for a in p._actions for s in a.option_strings)
        for name, p in sub.choices.items()
    }
    assert found == {name: COMMON_OPTIONS + own for name, own in SUBCOMMAND_OPTIONS.items()}


def test_sources_parse_at_the_declared_python_floor() -> None:
    # pyproject.toml declares requires-python >= 3.10; this checks the
    # syntax of every package and test source against that grammar.
    tests = Path(__file__).resolve().parent
    paths = sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

"""Outside-in span tracer for the package's layers.

``Tracer.install`` wraps every public function of every loaded
``soliton_pole_lab`` module, and puts the wrapper on each name bound to that
function in every package module's namespace (``tracker.F_scaled``,
``suite.oracle_poles``, ...), so calls between modules are traced too.  A
function's layer is the module that defines it.

Each call records a span (name, start, end, parent) in flat arrays; nothing
is aggregated while the run is timed.  ``balanced_sum`` is only counted: it
runs hundreds of thousands of times per pass inside the kernel and the
Aberth sweep, and its cost is part of its caller's self time.

A span's self time is its duration minus the durations of its direct
children.  ``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "soliton_pole_lab"
COUNT_ONLY = frozenset({"_balanced.balanced_sum"})
# Layer names used in metric names; "bench" is the benchmark's own op spans.
LAYER_NAMES = {"_balanced": "balanced"}


def _attrs_roots_at_time(args, kwargs, result):
    poly = args[0] if args else kwargs["poly"]
    return (poly.degree, result.iterations)


# Work counters recorded at the boundary where the work happens:
# function name -> extractor of (values...) from (args, kwargs, result).
ATTRS = {
    "exppoly.roots_at_time": _attrs_roots_at_time,  # (degree, sweeps)
    "tracker.track_curve": lambda a, k, r: (len(r.samples), int(r.exceptional_collision)),
    "blowup.blowup_profile": lambda a, k, r: (len(r),),  # profiles
    "interaction.sweep_rows": lambda a, k, r: (len(r),),  # rows
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(PACKAGE + ".") and m is not None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.attrs: dict[str, list[tuple]] = {name: [] for name in ATTRS}
        self.on = False
        self._patches: list[tuple[object, str, object]] = []
        self._bench_ids: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap_span(self, fn, name: str, layer: str):
        name_id = self._name_id(name, layer)
        extract = ATTRS.get(name)
        sink = self.attrs.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extract is not None:
                sink.append((idx, *extract(args, kwargs, result)))
            return result

        return wrapper

    def _wrap_count(self, fn, name: str):
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span opened by the benchmark itself, e.g. around one op."""
        if self.on and name not in self._bench_ids:
            self._bench_ids[name] = self._name_id(name, layer)
        idx = self._open(self._bench_ids[name]) if self.on else None
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)

    @contextmanager
    def paused(self):
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        wrapped = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                layer = LAYER_NAMES.get(short, short)
                wrapped[obj] = self._wrap_count(obj, name) if name in COUNT_ONLY else self._wrap_span(obj, name, layer)
        for mod in modules + [sys.modules[PACKAGE]]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        self.on = False

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays (also the on-disk trace format)."""
        return {
            "names": np.array(self.names),
            "layers": np.array(self.layers),
            "span_name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "span_parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "span_start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "span_end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    child = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    return dur - child


def nearest_ancestor(parent: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """For every span, the index of the closest enclosing span (itself
    included) where ``hit`` is true, or -1.  Climbs one level per step."""
    anc = np.where(hit, np.arange(len(hit)), -1)
    up = parent.copy()
    todo = np.flatnonzero((anc < 0) & (up >= 0))
    while len(todo):
        cand = up[todo]
        found = hit[cand]
        anc[todo[found]] = cand[found]
        up[todo] = np.where(found, -1, parent[cand])
        todo = todo[(~found) & (up[todo] >= 0)]
    return anc


def outermost(parent: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Spans where ``hit`` is true and no enclosing span has it."""
    anc = nearest_ancestor(parent, hit)
    above = np.where(parent >= 0, anc[np.maximum(parent, 0)], -1)
    return hit & (above < 0)


# Every per-layer metric, with its unit, in report order.
LAYER_METRICS = (
    ("kernel.self_s", "s/pass"),
    ("kernel.calls.F_scaled", "count/pass"),
    ("kernel.calls.G_scaled", "count/pass"),
    ("kernel.calls.eval_u", "count/pass"),
    ("kernel.calls.eval_u_x", "count/pass"),
    ("kernel.calls.factor_scaled", "count/pass"),
    ("kernel.calls.eqg_residual", "count/pass"),
    ("kernel.us_per_point", "us"),
    ("balanced.calls.balanced_sum", "count/pass"),
    ("exppoly.snapshots", "count/pass"),
    ("exppoly.ms_per_snapshot.p50", "ms"),
    ("exppoly.ms_per_snapshot.deg_le_12", "ms"),
    ("exppoly.ms_per_snapshot.deg_gt_12", "ms"),
    ("exppoly.sweeps_p50", "count"),
    ("exppoly.sweeps_max", "count"),
    ("exppoly.cap_hits", "count/pass"),
    ("exppoly.self_s", "s/pass"),
    ("tracker.curves", "count/pass"),
    ("tracker.samples", "count/pass"),
    ("tracker.us_per_sample", "us"),
    ("tracker.F_evals_per_sample", "count"),
    ("tracker.collision_stops", "count/pass"),
    ("tracker.self_s", "s/pass"),
    ("analysis.self_s", "s/pass"),
    ("analysis.s.check_no_real_poles", "s/pass"),
    ("analysis.s.vertical_sign", "s/pass"),
    ("analysis.s.residue_at_pole", "s/pass"),
    ("analysis.calls.check_no_real_poles", "count/pass"),
    ("analysis.calls.vertical_sign", "count/pass"),
    ("analysis.calls.residue_at_pole", "count/pass"),
    ("asymptotics.self_s", "s/pass"),
    ("asymptotics.calls.match_families", "count/pass"),
    ("blowup.self_s", "s/pass"),
    ("blowup.ms_per_profile", "ms"),
    ("blowup.evals_per_profile", "count"),
    ("interaction.self_s", "s/pass"),
    ("interaction.ms_per_sweep_row", "ms"),
    ("interaction.evals_per_row", "count"),
    ("suite.self_s", "s/pass"),
)


def layer_metrics(tr: Tracer, passes: int, max_iter: int) -> dict[str, tuple[float, int]]:
    """Per-layer metrics from the recorded spans: name -> (value, samples).

    Totals are per traced pass.  A layer the workload never reaches reports
    0 with 0 samples.
    """
    a = tr.arrays()
    names = list(tr.names)
    name_of = a["span_name"]
    parent = a["span_parent"]
    dur = a["span_end"] - a["span_start"]
    span_layer = np.array(tr.layers)[name_of]
    selfs = self_times(parent, dur)
    out: dict[str, tuple[float, int]] = {}

    def is_name(full: str) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if n == full]
        return np.isin(name_of, ids)

    def per_pass(value: float, n: int) -> tuple[float, int]:
        return (value / passes, n)

    def ratio(num: float, den: float, n: int) -> tuple[float, int]:
        return (num / den if den else 0.0, n)

    for layer in ("kernel", "exppoly", "tracker", "analysis", "asymptotics", "blowup", "interaction", "suite"):
        mask = span_layer == layer
        out[f"{layer}.self_s"] = per_pass(float(selfs[mask].sum()), int(mask.sum()))

    for fn in ("F_scaled", "G_scaled", "eval_u", "eval_u_x", "factor_scaled", "eqg_residual"):
        n = int(is_name(f"kernel.{fn}").sum())
        out[f"kernel.calls.{fn}"] = per_pass(n, n)
    outer_kernel = outermost(parent, span_layer == "kernel")
    n_points = int(outer_kernel.sum())
    out["kernel.us_per_point"] = ratio(float(dur[outer_kernel].sum()) * 1e6, n_points, n_points)
    n = tr.counts.get("_balanced.balanced_sum", 0)
    out["balanced.calls.balanced_sum"] = per_pass(n, n)

    snaps = tr.attrs["exppoly.roots_at_time"]
    ms = [dur[idx] * 1e3 for idx, _, _ in snaps]
    deg = [d for _, d, _ in snaps]
    sweeps = [it for _, _, it in snaps]
    out["exppoly.snapshots"] = per_pass(len(snaps), len(snaps))
    out["exppoly.ms_per_snapshot.p50"] = (statistics.median(ms) if ms else 0.0, len(ms))
    low = [m for m, d in zip(ms, deg) if d <= 12]
    high = [m for m, d in zip(ms, deg) if d > 12]
    out["exppoly.ms_per_snapshot.deg_le_12"] = ratio(sum(low), len(low), len(low))
    out["exppoly.ms_per_snapshot.deg_gt_12"] = ratio(sum(high), len(high), len(high))
    out["exppoly.sweeps_p50"] = (statistics.median(sweeps) if sweeps else 0, len(sweeps))
    out["exppoly.sweeps_max"] = (max(sweeps, default=0), len(sweeps))
    caps = sum(1 for s in sweeps if s >= max_iter)
    out["exppoly.cap_hits"] = per_pass(caps, len(sweeps))

    curves = tr.attrs["tracker.track_curve"]
    samples = sum(s for _, s, _ in curves)
    out["tracker.curves"] = per_pass(len(curves), len(curves))
    out["tracker.samples"] = per_pass(samples, len(curves))
    curve_time = sum(dur[idx] for idx, _, _ in curves)
    out["tracker.us_per_sample"] = ratio(curve_time * 1e6, samples, samples)
    in_curve = nearest_ancestor(parent, is_name("tracker.track_curve")) >= 0
    f_in_curve = int((in_curve & is_name("kernel.F_scaled")).sum())
    out["tracker.F_evals_per_sample"] = ratio(f_in_curve, samples, samples)
    out["tracker.collision_stops"] = per_pass(sum(c for _, _, c in curves), len(curves))

    for fn in ("check_no_real_poles", "vertical_sign", "residue_at_pole"):
        mask = is_name(f"analysis.{fn}")
        outer = outermost(parent, mask)
        out[f"analysis.s.{fn}"] = per_pass(float(dur[outer].sum()), int(outer.sum()))
        out[f"analysis.calls.{fn}"] = per_pass(int(mask.sum()), int(mask.sum()))
    n = int(is_name("asymptotics.match_families").sum())
    out["asymptotics.calls.match_families"] = per_pass(n, n)

    for fn, per_item, evals_per_item in (
        ("blowup.blowup_profile", "blowup.ms_per_profile", "blowup.evals_per_profile"),
        ("interaction.sweep_rows", "interaction.ms_per_sweep_row", "interaction.evals_per_row"),
    ):
        recs = tr.attrs[fn]
        count = sum(r[1] for r in recs)
        total = sum(dur[r[0]] for r in recs)
        evals = int((outer_kernel & (nearest_ancestor(parent, is_name(fn)) >= 0)).sum())
        out[per_item] = ratio(total * 1e3, count, count)
        out[evals_per_item] = ratio(evals, count, count)
    return out

"""The four benchmark workloads: inputs drawn from a seed, operations and checks.

Every workload is a fixed list of operations (one *pass*) built from the
seed during set-up.  The benchmark repeats the pass closed-loop: each
operation is issued after the previous one returns.  Operations call only
the package's public functions, looked up on the module at call time so a
tracer can wrap them.  ``check_pass`` inspects the outputs of one pass and
returns the problems found, per operation index.

A problem is *known* when it is one of the documented defects of the
library that this benchmark is meant to show until they are fixed (see
README.md): a known problem still counts as a failed operation, but it does
not make the run incorrect.  Any other problem does.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from soliton_pole_lab import blowup, exppoly, interaction, kernel, suite, tracker

WORKLOADS = ("verify", "oracle", "track", "grid")


class Problem(NamedTuple):
    message: str
    known: bool = False


@dataclass
class Op:
    """One operation: ``run`` returns the output that ``check_pass`` sees;
    ``input`` is what the check needs to know about the operation."""

    label: str
    run: Callable[[], object]
    input: object = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op
    # outputs[i] is None when ops[i] raised; returns {op index: problems}.
    check_pass: Callable[[list], dict[int, list[Problem]]]


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs from the seed (the same seed gives the
    same inputs) and do the set-up work its operations rely on."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng)


# ---------------------------------------------------------------------------
# verify: the 12-check battery, as `soliton-pole-lab verify` runs it.
# ---------------------------------------------------------------------------

ORACLE_CHECKS = frozenset(
    {
        "cosine-relations-at-zeros",
        "translation-identity",
        "residue-quantization",
        "pole-count-conservation",
        "asymptotic-families",
        "blowup-rate",
    }
)
# label -> (k1, k2, variant, the exact set of checks the battery must skip)
VERIFY_CONFIGS = {
    "c12p": (1, 2, "plus", frozenset()),
    "c15m": (1, 5, "minus", frozenset({"blowup-rate"})),
    "c1r2p": (1.0, math.sqrt(2.0), "plus", ORACLE_CHECKS),
}
# The Richardson-ratio check fails on a seed-dependent share of battery
# seeds (about 39% for (1,5)-, 1% for (1,2)+); a known defect.
KNOWN_BATTERY_FAILURES = frozenset({"pde-richardson-ratio"})


def _battery_op(label: str, cfg, battery_seed: int) -> Op:
    return Op(label, lambda: suite.run_battery(cfg, battery_seed))


def _build_verify(rng: random.Random) -> Workload:
    ops = []
    for label, (k1, k2, variant, _) in VERIFY_CONFIGS.items():
        cfg = kernel.SolitonConfig.make(k1, k2, variant)
        ops.append(_battery_op(label, cfg, rng.randrange(1_000_000)))

    def check_pass(outputs):
        problems = {}
        for i, (op, report) in enumerate(zip(ops, outputs)):
            if report is None:
                continue
            found = []
            skipped = {c.name for c in report.checks if c.skipped is not None}
            expected = VERIFY_CONFIGS[op.label][3]
            if skipped != expected:
                found.append(Problem(f"{op.label}: skipped {sorted(skipped)}, expected {sorted(expected)}"))
            failed = {c.name for c in report.checks if not c.passed}
            if failed:
                found.append(
                    Problem(f"{op.label} seed {report.seed}: failed {sorted(failed)}", failed <= KNOWN_BATTERY_FAILURES)
                )
            if found:
                problems[i] = found
        return problems

    return Workload("verify", ops, ops[-1], check_pass)


# ---------------------------------------------------------------------------
# oracle: certified pole snapshots.
# ---------------------------------------------------------------------------

PAIRS = [(p1, p2) for p2 in range(2, 8) for p1 in range(1, p2) if math.gcd(p1, p2) == 1]
VARIANTS = ("plus", "minus")
# Generic times |t| <= 1: the k-th generic snapshot is at
# GENERIC_TIMES[k % 6], moved by a seed-drawn jitter of at most
# GENERIC_JITTER.  Aberth also runs to its cap in narrow windows of generic
# time (for (5,7) near t = -0.75, for (6,7) near t = -0.9 and -1), so times
# drawn uniformly from [-1, 1] hit the cap on some seeds and not on others,
# and a pass then costs up to a quarter more; the number of sweeps also
# varies with t, by up to 2x.  Within GENERIC_JITTER of these times every
# pair converges in 3-8 sweeps in both variants, and each pair keeps its
# time on every seed, so the generic class costs the same on every seed; the
# cap tail has its own class below, and t = 0 is the collision class.
GENERIC_TIMES = (-0.6, -0.45, -0.3, 0.3, 0.45, 0.6)
GENERIC_JITTER = 0.01
# Whether Aberth converges or runs to its sweep cap changes erratically with
# t, so the large-|t| snapshots use times checked to reach the cap for these
# pairs in both variants; the cap tail then shows, at a steady cost, on
# every seed.
LARGE_T_PAIRS = [(2, 5), (3, 4), (3, 5)]
LARGE_T_TIMES = (-20.0, -17.0, -14.0, -11.0)
# Exceptional configs (degree 8, 12, 16) whose t = 0 snapshots have the
# multiple roots of the collision.
COLLISION_CONFIGS = [(1, 3, "plus"), (1, 5, "minus"), (1, 7, "plus")]


@dataclass(frozen=True)
class Snapshot:
    cfg: object
    kind: str  # "F" or "G"
    t: float
    # (y, multiplicity) pairs the snapshot must certify, e.g. at a collision.
    multiplicities: tuple = ()


def _snapshot_op(snap: Snapshot) -> Op:
    build_poly = exppoly.build_F_poly if snap.kind == "F" else exppoly.build_G_poly

    def run():
        poly = build_poly(snap.cfg)
        return poly, exppoly.roots_at_time(poly, snap.t)

    p1, p2 = snap.cfg.comm.p1, snap.cfg.comm.p2
    return Op(f"{snap.kind}{p1}{p2}{snap.cfg.variant.value[0]}", run, snap)


def check_snapshot(snap: Snapshot, poly, roots) -> list[Problem]:
    found = []
    p1, p2 = snap.cfg.comm.p1, snap.cfg.comm.p2
    expected = 2 * (p1 + p2) if snap.kind == "F" else p1 + 2 * p2
    total = roots.total_multiplicity()
    if total != expected or poly.degree != expected:
        found.append(Problem(f"{snap}: total multiplicity {total}, expected {expected}"))
    for y, m in snap.multiplicities:
        got = [mult for root, mult in roots.roots if abs(root - y) < 1e-6]
        if got != [m]:
            found.append(Problem(f"{snap}: multiplicity at y={y} is {got}, expected [{m}]"))
    return found


def _build_oracle(rng: random.Random) -> Workload:
    def make(p1, p2, variant):
        return kernel.SolitonConfig.make(p1, p2, variant)

    # The classes, pairs and variants are fixed and the seed draws the times
    # within each class: a snapshot's cost depends on its degree and class far
    # more than on its time within the class, so the mix is the same on every
    # seed.
    snaps = []
    generic = [(p1, p2, variant) for p1, p2 in PAIRS for variant in VARIANTS]
    for k, (p1, p2, variant) in enumerate(generic):
        t = GENERIC_TIMES[k % len(GENERIC_TIMES)] + rng.uniform(-GENERIC_JITTER, GENERIC_JITTER)
        snaps.append(Snapshot(make(p1, p2, variant), "F", t))
    for p1, p2 in LARGE_T_PAIRS:  # large |t|: the Aberth-cap tail
        for variant in VARIANTS:
            snaps.append(Snapshot(make(p1, p2, variant), "F", rng.choice(LARGE_T_TIMES)))
    for p1, p2, variant in COLLISION_CONFIGS:  # t = 0: multiple roots
        mult = ((1j, 4), (-1j, 4)) if (p1, p2) == (1, 5) else ()
        snaps.append(Snapshot(make(p1, p2, variant), "F", 0.0, mult))
    snaps.append(Snapshot(make(1, 5, "minus"), "G", 0.0, ((1j, 3), (-1j, 3))))
    rng.shuffle(snaps)
    ops = [_snapshot_op(s) for s in snaps]

    def check_pass(outputs):
        problems = {}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is not None and (found := check_snapshot(op.input, *out)):
                problems[i] = found
        return problems

    warmup = _snapshot_op(Snapshot(make(1, 2, "plus"), "F", 0.5))
    return Workload("oracle", ops, warmup, check_pass)


# ---------------------------------------------------------------------------
# track: continuation of pole curves in t from oracle seeds.
# ---------------------------------------------------------------------------

# label -> (k1, k2, variant, t0, t1, curves known to merge with another)
TRACK_CONFIGS = {
    "c12p": (1, 2, "plus", -10.0, 10.0, 0),
    "c15m": (1, 5, "minus", -10.0, 10.0, 2),
    "c27p": (2, 7, "plus", -6.0, 6.0, 4),
}
ENDPOINT_TOL = 1e-8


def match_endpoints(ends: list[complex], poles: list[tuple[complex, int]], tol: float = ENDPOINT_TOL) -> list[int]:
    """Indices of endpoints left unmatched by a one-to-one assignment to the
    poles (with multiplicity) within ``tol``.  Poles are far apart compared
    with ``tol``, so the closest-pair-first assignment is exact."""
    slots = [x for x, m in poles for _ in range(m)]
    pairs = sorted((abs(e - x), i, j) for i, e in enumerate(ends) for j, x in enumerate(slots))
    used_e, used_s = set(), set()
    for d, i, j in pairs:
        if d > tol:
            break
        if i not in used_e and j not in used_s:
            used_e.add(i)
            used_s.add(j)
    return [i for i in range(len(ends)) if i not in used_e]


def _track_op(label: str, cfg, x0: complex, t0: float, t1: float) -> Op:
    return Op(label, lambda: tracker.track_curve(cfg, None, x0, t0, t1))


def _build_track(rng: random.Random) -> Workload:
    ops = []
    refs = {}
    for label, (k1, k2, variant, t0, t1, _) in TRACK_CONFIGS.items():
        cfg = kernel.SolitonConfig.make(k1, k2, variant)
        seeds = exppoly.oracle_poles(cfg, t=t0)
        refs[label] = (t1, exppoly.oracle_poles(cfg, t=t1))
        ops += [_track_op(label, cfg, x, t0, t1) for x, _ in seeds]
    # The windows and configs are fixed; the seed sets the order of the curves.
    rng.shuffle(ops)

    def check_pass(outputs):
        problems = {}
        for label, (t1, poles) in refs.items():
            idx = [i for i, op in enumerate(ops) if op.label == label and outputs[i] is not None]
            ends = [outputs[i].x_last if outputs[i].t_last == t1 else complex("nan") for i in idx]
            budget = TRACK_CONFIGS[label][5]
            for k in match_endpoints(ends, poles):
                # Known: the curve ended on the pole another curve reached.
                merged = any(abs(ends[k] - e) <= ENDPOINT_TOL for j, e in enumerate(ends) if j != k)
                known = merged and budget > 0
                budget -= known
                msg = f"{label}: curve ends at {ends[k]} at t={outputs[idx[k]].t_last}, no unmatched pole of oracle_poles(t={t1}) within {ENDPOINT_TOL}"
                problems.setdefault(idx[k], []).append(Problem(msg, known))
        return problems

    warmup = next(op for op in ops if op.label == "c12p")
    return Workload("track", ops, warmup, check_pass)


# ---------------------------------------------------------------------------
# grid: dense evaluation of u on lines, blowup profiles, interaction rows.
# ---------------------------------------------------------------------------

LINE_POINTS = 4001
LINE_RTOL = 1e-10
# Profile offsets t - t_star: a hair over two decades, as the battery uses.
BLOWUP_DELTAS = (1e-2, 3e-3, 1e-3, 3e-4, 8e-5)
# The seed moves each line and ratio by a small jitter around a fixed centre.
# A line's cost depends on its variant, alpha and t (by up to 1.7x between
# lines), and a row's cost grows with the ratio, so with the centres fixed
# the pass costs the same on every seed.
# Line centres: (variant, alpha, t), jittered by up to LINE_JITTER.
LINE_CENTRES = (("plus", 0.4, -0.5), ("plus", 1.2, 0.5), ("minus", 0.4, 0.5), ("minus", 1.2, -0.5))
LINE_JITTER = 0.02
# Interaction-row ratios, jittered by up to RATIO_JITTER, clear of the speed
# singularity at the critical ratio (3 + sqrt 5)/2 where the closed form has
# no finite value.
RATIO_CENTRES = (1.5, 2.1, 3.3, 4.5)
RATIO_JITTER = 0.01


@dataclass(frozen=True)
class Line:
    cfg: object
    alpha: float
    t: float

    def xs(self) -> list[complex]:
        return [complex(-20.0 + 40.0 * i / (LINE_POINTS - 1), -self.alpha) for i in range(LINE_POINTS)]


def sumform_line(line: Line) -> list:
    """The line through the independent sum-of-one-solitons formula."""
    return [kernel.eval_u_sumform(line.cfg, x, line.t) for x in line.xs()]


def check_line(line: Line, values: list, refs: list) -> list[Problem]:
    worst = 0.0
    for x, u, ref in zip(line.xs(), values, refs):
        if isinstance(u, kernel.PoleMarker) or isinstance(ref, kernel.PoleMarker):
            return [Problem(f"{line}: pole marker at x={x}")]
        worst = max(worst, abs(u - ref) / abs(ref))
    if worst > LINE_RTOL:
        return [Problem(f"{line}: eval_u differs from eval_u_sumform by {worst:.3e} relative")]
    return []


def check_rows(rows) -> list[Problem]:
    found = []
    for ratio, _, _, closed, measured in rows:
        if math.isfinite(closed) and not abs(measured - closed) <= 1e-6 * max(1.0, abs(closed)):
            found.append(Problem(f"ratio {ratio}: measured speed {measured} vs closed form {closed}"))
    return found


def _build_grid(rng: random.Random) -> Workload:
    ops: list[Op] = []
    for variant, alpha, t in LINE_CENTRES:
        cfg = kernel.SolitonConfig.make(1, 2, variant)
        line = Line(cfg, alpha + rng.uniform(-LINE_JITTER, LINE_JITTER), t + rng.uniform(-LINE_JITTER, LINE_JITTER))
        ops.append(Op("line", lambda line=line: [kernel.eval_u(line.cfg, x, line.t) for x in line.xs()], line))

    scenario = blowup.build_scenario(kernel.SolitonConfig.make(1, 2, "plus"))
    for delta in BLOWUP_DELTAS:
        t = scenario.t_star + delta * rng.uniform(0.95, 1.05)
        # A fresh, empty series per op: blowup_profile appends to it.
        ops.append(
            Op("profile", lambda t=t: blowup.blowup_profile(dataclasses.replace(scenario, series=[]), [t]))
        )
    for centre in RATIO_CENTRES:
        ratio = centre + rng.uniform(-RATIO_JITTER, RATIO_JITTER)
        ops.append(Op("row", lambda ratio=ratio: interaction.sweep_rows([ratio])))
    rng.shuffle(ops)

    refs = {}  # line -> sumform values, computed at the first check

    def check_pass(outputs):
        problems = {}
        profiles = []
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is None:
                continue
            if op.label == "line":
                if op.input not in refs:
                    refs[op.input] = sumform_line(op.input)
                found = check_line(op.input, out, refs[op.input])
            elif op.label == "row":
                found = check_rows(out)
            else:
                found = []
                profiles.append((i, out[0]))
            if found:
                problems[i] = found
        if len(profiles) == len(BLOWUP_DELTAS):
            try:
                exponent = blowup.fit_blowup_rate(scenario, series=[p for _, p in profiles]).exponent
                bad = None if abs(exponent + 1.0) <= 0.05 else f"exponent {exponent}"
            except (ValueError, kernel.ConvergenceError) as exc:
                bad = f"no fit: {exc}"
            if bad:
                problems.setdefault(profiles[-1][0], []).append(Problem(f"blowup rate {bad}, expected exponent -1 +- 0.05"))
        return problems

    warmup = next(op for op in ops if op.label == "profile")
    return Workload("grid", ops, warmup, check_pass)


_BUILDERS = {
    "verify": _build_verify,
    "oracle": _build_oracle,
    "track": _build_track,
    "grid": _build_grid,
}

"""Benchmark driver for soliton-pole-lab.

    python3 perfbench/run.py --workload {verify,oracle,track,grid} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Single process, single thread, closed
loop: each workload runs in fresh ``worker.py`` processes, one op after the
previous one returns.  Set-up (import, input generation from the seed, one
warm-up op) is timed in five fresh processes, two before the measuring one
and two after it, and reported as the median.

With ``--trace 0`` the result has every end-to-end metric; with
``--trace 1`` every per-layer metric, from a run whose package functions are
wrapped by ``tracer.py``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it repeat the metrics with their sample counts, the
machine and the problems found.  The full result is also written to
``.perfbench/`` in the checkout.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "oracle", "track", "grid")
SETUPS = 5
DEADLINE_S = 170.0
# Per-config battery times on the verify workload (per-layer metrics).
BATTERY_LABELS = ("c12p", "c15m", "c1r2p")


def machine_info() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def run_worker(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("out of time before starting a worker")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between the values and
    never beyond them (``statistics.quantiles`` with the inclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_per_op(run: dict) -> list[float]:
    """Each op's fastest time over the run's passes.

    Every pass repeats the same inputs, so the fastest repeat is the op's
    cost with the least interference from other work on a shared machine,
    which slows the same code by up to 1.7x, in bursts from under a second
    to tens of seconds."""
    best: dict[int, float] = {}
    for i, t in zip(run["op_index"], run["op_s"]):
        best[i] = min(t, best.get(i, t))
    return [best[i] for i in sorted(best)]


def end_to_end(setups: list[dict], main: dict) -> dict[str, tuple[float, str, int]]:
    run = main["run"]
    best = best_per_op(run)
    samples = len(run["op_s"])
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s", len(setups)),
        # One pass at each op's fastest repeat: steadier than the fastest
        # whole pass, which a burst anywhere in it slows.
        "wall_s": (sum(best), "s", samples),
        "op_ms_p50": (statistics.median(best) * 1e3, "ms", samples),
        "op_ms_p90": (quantile(best, 90) * 1e3, "ms", samples),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", 1),
    }


def per_layer(workload: str, setups: list[dict], main: dict) -> dict[str, tuple[float, str, int]]:
    import tracer

    out = {}
    layers = main["layers"]
    for name, unit in tracer.LAYER_METRICS:
        value, n = layers[name]
        out[name] = (value, unit, n)
    out["cli.import_s"] = (statistics.median(s["import_s"] for s in setups), "s", len(setups))
    run, traced = main["run"], main["traced"]
    overhead = sum(best_per_op(traced)) / sum(best_per_op(run)) - 1.0
    out["trace.overhead_frac"] = (overhead, "frac", len(traced["op_s"]))
    for label in BATTERY_LABELS:
        times = [t for t, lab in zip(run["op_s"], run["op_labels"]) if workload == "verify" and lab == label]
        out[f"battery_s.{label}"] = (min(times, default=0.0), "s", len(times))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "soliton_pole_lab" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/soliton_pole_lab; run from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # Set-ups before and after the measuring process, so that their
        # median does not rest on one moment of a shared machine.
        setups = [run_worker(args, ["--setup-only"], deadline) for _ in range(SETUPS // 2)]
        extra = ["--trace-file", str(out_dir / f"{stem}-spans.npz")] if args.trace else []
        main_result = run_worker(args, extra, deadline)
        setups.append(main_result)
        setups += [run_worker(args, ["--setup-only"], deadline) for _ in range(SETUPS - len(setups))]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # The traced phase re-runs the untraced phase's ops: count each op once.
    phases = [main_result["run"]] + ([main_result["traced"]] if args.trace else [])
    attempted = max(ph["attempted"] for ph in phases)
    failed = len(set().union(*(ph["failed_ops"] for ph in phases)))
    unexpected = len(set().union(*(ph["unexpected_ops"] for ph in phases)))
    metrics = per_layer(args.workload, setups, main_result) if args.trace else end_to_end(setups, main_result)

    info = machine_info()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted} ops; {unexpected} unexpected)")
    for problem in sorted(set(msg for ph in phases for msg in ph["problems"])):
        print(f"  problem: {problem}")
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "machine": info, "setups": setups, "result": main_result}, fh)

    print(
        json.dumps(
            {
                "correct": unexpected == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

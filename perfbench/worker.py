"""One benchmark process: set up a workload, then optionally measure it.

Run by ``run.py`` in a fresh interpreter per workload, so set-up time and
peak memory are the workload's own and no module state (such as a polish
precision rewritten by ``cli --precision``) leaks between workloads.

The last line of standard output is a JSON object: the set-up timings and,
unless ``--setup-only``, the per-op timings, checks and (``--trace 1``) the
per-layer metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_package() -> float:
    """Import the package from this checkout's ``src``; returns the import
    time of ``soliton_pole_lab.cli`` (which loads every module)."""
    if not (SRC / "soliton_pole_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no soliton_pole_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import soliton_pole_lab.cli  # noqa: F401

    elapsed = time.perf_counter() - t
    origin = Path(sys.modules["soliton_pole_lab"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: soliton_pole_lab was imported from {origin}, not {SRC}")
    return elapsed


class Measurement:
    """Op timings, pass walls and check outcomes of one phase.

    Every pass repeats the same inputs and the package is deterministic, so
    an op is attempted once however many passes time it: ``attempted`` is
    the number of distinct ops, and an op has failed when a check found a
    problem with its output in any pass.  The counts therefore do not depend
    on how many passes fit in the run."""

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.op_index: list[int] = []
        self.op_labels: list[str] = []
        self.last_s: dict[int, float] = {}  # each op's latest time
        self.pass_s: list[float] = []
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.unexpected_ops: set[int] = set()
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def unexpected(self) -> int:
        return len(self.unexpected_ops)

    def as_dict(self) -> dict:
        return {
            "op_s": self.op_s,
            "op_index": self.op_index,
            "op_labels": self.op_labels,
            "pass_s": self.pass_s,
            "attempted": self.attempted,
            "failed_ops": sorted(self.failed_ops),
            "unexpected_ops": sorted(self.unexpected_ops),
            "problems": self.problems[:20],
        }


def run_pass(wl, m: Measurement, tracer=None, stop_at: float | None = None) -> bool:
    """Issue every op of the workload once, closed-loop, then check them.

    With ``stop_at`` (a ``time.perf_counter`` value), stop before the first
    op whose latest time says it would end after ``stop_at``, and return
    False.  Such a partial pass is timed but not checked: earlier passes
    checked the same ops on the same inputs."""
    from workloads import Problem

    outputs, problems = [], {}
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        t = time.perf_counter()
        if stop_at is not None and t + m.last_s[i] > stop_at:
            return False
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span(f"op.{wl.name}"):
                    out = op.run()
        except Exception as exc:  # an op that raises is a failed op
            out = None
            problems[i] = [Problem(f"{op.label}: raised {type(exc).__name__}: {exc}")]
        m.last_s[i] = time.perf_counter() - t
        m.op_s.append(m.last_s[i])
        m.op_index.append(i)
        m.op_labels.append(op.label)
        outputs.append(out)
    m.pass_s.append(time.perf_counter() - start)
    if tracer is None:
        found = wl.check_pass(outputs)
    else:
        with tracer.paused():
            found = wl.check_pass(outputs)
    for i, items in found.items():
        problems.setdefault(i, []).extend(items)
    m.attempted = len(wl.ops)
    for i, items in problems.items():
        m.failed_ops.add(i)
        if any(not p.known for p in items):
            m.unexpected_ops.add(i)
        for p in items:
            msg = ("known: " if p.known else "") + p.message
            if msg not in m.problems:
                m.problems.append(msg)
    return True


class CpuRotation:
    """Pins the process to the allowed CPUs in turn, one per pass.

    On a shared host one vCPU can run the same code 1.4-1.6x slower, in
    phases of seconds, while another runs it steadily, and the scheduler
    moves an unpinned process between them.  Rotating the passes over the
    CPUs gives every op repeats on each of them, so an op's fastest repeat
    comes from a CPU that was running steadily when there is one."""

    def __init__(self) -> None:
        self.allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        self.cpus = sorted(self.allowed or ())
        self.turn = 0

    def next(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1

    def restore(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.allowed)


def run_phase(wl, seconds: float, tracer=None) -> Measurement:
    """Repeat passes for ``seconds``, each pinned to the next CPU; always at
    least one whole pass.

    Untraced, the last pass stops at the first op that would overrun, so
    every op is timed as often as the time allows.  Traced, only whole
    passes run (the layer metrics are per pass): passes repeat while the
    next one is expected to end within ``seconds``."""
    m = Measurement()
    cpus = CpuRotation()
    stop_at = time.perf_counter() + seconds
    try:
        cpus.next()
        run_pass(wl, m, tracer)
        if tracer is None:
            while True:
                cpus.next()
                if not run_pass(wl, m, stop_at=stop_at):
                    break
        else:
            while time.perf_counter() + m.pass_s[-1] <= stop_at:
                cpus.next()
                run_pass(wl, m, tracer)
    finally:
        cpus.restore()
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", help="where to write the spans (.npz)")
    args = p.parse_args(argv)

    import_s = import_package()
    import workloads

    wl = workloads.build(args.workload, args.seed)
    wl.warmup.run()
    result = {"setup_s": time.perf_counter() - _T0, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if not args.trace:
        result["run"] = run_phase(wl, args.seconds).as_dict()
    else:
        import tracer as tracing
        from soliton_pole_lab import exppoly

        # Untraced passes first, then the same passes traced: the ratio of
        # their walls is the tracing overhead.
        result["run"] = run_phase(wl, args.seconds / 2).as_dict()
        tr = tracing.Tracer()
        tr.install()
        tr.on = True
        traced = run_phase(wl, args.seconds / 2, tr)
        tr.on = False
        tr.uninstall()
        result["traced"] = traced.as_dict()
        result["layers"] = tracing.layer_metrics(tr, len(traced.pass_s), exppoly.MAX_ITER)
        if args.trace_file:
            tr.save(args.trace_file)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload inside a fresh interpreter; started by run.py.

It imports monomod from the checkout's src/, builds the workload's
inputs, prints "ready" (run.py times set-up up to that line), then runs
it: untraced passes until the time is up, or with --trace 1 an untraced
and a traced pass.  Its last stdout line is a JSON object with the
checked counts, the metrics and the provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import monomod  # noqa: E402
import workloads  # noqa: E402
from monomod import core  # noqa: E402
import speed  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKER_CAP_ENV = "MONOMOD_MAX_WORKERS"


class GuardError(RuntimeError):
    """The run would not measure what its result claims to."""


def check_guards(workload, expected: dict) -> None:
    if Path(monomod.__file__).resolve().parent != SRC / "monomod":
        raise GuardError(f"imported monomod from {monomod.__file__}, not from {SRC}")
    if core.BACKEND != expected["backend"]:
        raise GuardError(
            f"kernel backend is {core.BACKEND!r} but the reference was recorded with "
            f"{expected['backend']!r}; pure and compiled numbers are never compared"
        )
    cap = os.environ.get(WORKER_CAP_ENV, "")
    if cap:
        if not cap.isdigit() or int(cap) < max(workload.workers, workload.trace_workers):
            raise GuardError(
                f"{WORKER_CAP_ENV}={cap!r} caps {workload.name} below its "
                f"{workload.workers} workers"
            )


@contextlib.contextmanager
def pinned(active: bool):
    """Keep this process, and the processes it starts, on one CPU, so
    that speed samples taken here between requests measure the CPU the
    requests run on."""
    if not active:
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def provenance(workload, seed: int) -> dict:
    # A checkout that is not a git repository may still sit inside one.
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top.strip()).resolve() == ROOT
    sha = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    source = hashlib.sha256()
    for path in sorted((SRC / "monomod").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "backend": core.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload.name,
        "params": workload.params(),
    }


def measure(workload, seconds: float) -> tuple[list, dict, dict]:
    """Untraced passes until the next one would end after `seconds` of
    wall time (at least workload.min_passes, and never past 3 * seconds).
    Times are in reference seconds (speed.py); the wall-clock figures go
    into the run's info."""
    if workload.runs_on == "workers":
        probe = SpeedProbe(workers_dir=workloads.OUT / f"speed-{os.getpid()}")
    else:
        probe = SpeedProbe(between=workload.runs_on == "elsewhere")
    passes = []
    start = perf_counter()
    with pinned(workload.runs_on == "elsewhere"), probe:
        while True:
            passes.append(workload.run_pass(probe=probe))
            elapsed = perf_counter() - start
            if elapsed + passes[-1].seconds > seconds and (
                len(passes) >= workload.min_passes or elapsed > 3 * seconds
            ):
                break

    p50, p90 = workloads.percentiles([probe.scaled(*r) for p in passes for r in p.requests])
    metrics = {
        "items_per_s": statistics.median(p.items / probe.scaled(p.start, p.end) for p in passes),
        "query_p50_s": p50,
        "query_p90_s": p90,
    }
    wall_p50, wall_p90 = workloads.percentiles(
        [end - begin for p in passes for begin, end in p.requests])
    samples = probe.worker_samples or probe.samples
    wall = {
        "items_per_s": statistics.median(p.items / p.seconds for p in passes),
        "query_p50_s": wall_p50,
        "query_p90_s": wall_p90,
        "pass_s": [round(p.seconds, 4) for p in passes],
        "pass_scaled_s": [round(probe.scaled(p.start, p.end), 4) for p in passes],
        "speed_median": statistics.median(sample[1] for sample in samples),
        "speed_samples": len(samples),
    }
    return passes, metrics, wall


def trace(workload, spans_path: Path) -> tuple[list, dict]:
    tracer = Tracer()
    passes, metrics = workload.trace(tracer)
    metrics.update(tracer.layer_metrics())
    metrics.setdefault("cli.process_overhead_p50_s", 0.0)
    metrics["trace.workers"] = workload.trace_workers
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write_spans(spans_path)
    return passes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    with open(workloads.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    workload = workloads.make(args.workload, args.seed, expected)
    try:
        check_guards(workload, expected)
    except GuardError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.setup_only:
        # The machine's speed right after set-up, on the CPU that ran it,
        # so that run.py can scale the set-up time (speed.py).
        print(statistics.mean(speed.sample_speed() for _ in range(3)))
        return 0
    wall = None
    try:
        if args.trace:
            passes, metrics = trace(workload, args.spans)
        else:
            passes, metrics, wall = measure(workload, args.seconds)
    finally:
        workload.cleanup()
    info = {
        "provenance": provenance(workload, args.seed),
        "inputs": workload.input_properties(),
        "passes": len(passes),
        "wall_clock": wall,
        "problems": [problem for p in passes for problem in p.problems][:20],
    }
    if args.trace and workload.trace_workers != workload.workers:
        info["note"] = (
            f"traced pass of {workload.name} uses {workload.trace_workers} worker, "
            f"not {workload.workers}: spans inside pool workers are not visible"
        )
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

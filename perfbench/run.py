#!/usr/bin/env python3
"""Run one monomod benchmark workload and print its metrics.

    python3 perfbench/run.py --workload semi_table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

--trace 0 measures the end-to-end metrics of BENCHMARK.json with
tracing off; --trace 1 runs an untraced and a traced pass and prints the
per-layer metrics, including the tracing overhead.  Every output is
checked; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run, with provenance,
goes to perfbench/out/, and with --trace 1 the spans as well.

The workload runs in a child interpreter (child.py) that imports
monomod from this checkout's src/.  Set-up time is the median over
several fresh children of the time from starting the interpreter until
it has imported monomod and built its inputs, each scaled by the
machine speed the child measures right after (speed.py).  Peak RSS is
the largest of this process's children, their pool workers and their
subprocesses.

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 11  # plus one warm-up child that is not counted
DEADLINE_S = 170  # a run must end within 180 s


class RunError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn(args: list[str], timeout: float) -> tuple[tuple[float, float], list[str], int]:
    """Start child.py; return ((start, time of its "ready" line), its
    other stdout lines, exit code).  Killed if it outlives `timeout`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter()
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready":
        code = code or 1
    return (start, ready), rest, code


def run_workload(args: argparse.Namespace, spec: dict) -> dict:
    if not (SRC / "monomod" / "__init__.py").is_file():
        raise RunError(f"no monomod package under {SRC}; run from a monomod checkout")
    began = perf_counter()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup: list[tuple[float, float]] = []  # (wall seconds, speed right after)
    if not args.trace:
        for i in range(SETUP_PROBES + 1):
            (start, ready), rest, code = spawn(child_args + ["--setup-only"], 60)
            if code != 0 or len(rest) != 1:
                raise RunError(f"set-up of {args.workload} failed with exit code {code}")
            if i > 0:
                setup.append((ready - start, float(rest[0])))
    else:
        child_args += ["--spans", str(OUT / f"{stem}.spans.jsonl")]
    _, lines, code = spawn(child_args, DEADLINE_S - (perf_counter() - began))
    if code != 0 or not lines:
        raise RunError(f"{args.workload} failed with exit code {code}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    info = result["info"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(wall * speed for wall, speed in setup)
        info["setup_probes"] = setup
        info["wall_clock"]["setup_s"] = statistics.median(wall for wall, _ in setup)
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = peak_kib / 1024
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        raise RunError(
            f"metrics {sorted(set(metrics) ^ set(names))} are produced or declared, not both"
        )
    units = {m["name"]: m["unit"] for m in declared}
    record = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(f"provenance: {json.dumps(info['provenance'])}")
    if info["inputs"]:
        print(f"inputs: {json.dumps(info['inputs'])}")
    if "note" in info:
        print(f"note: {info['note']}")
    for problem in info["problems"]:
        print(f"FAILED: {problem}")
    print(f"{args.workload}: {info['passes']} passes, correct={result['correct']}")
    for name in names:
        print(f"  {name:<48} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'failed_share':<48} {result['failed'] / result['attempted']:>14.6g} "
          f"ratio ({result['failed']} of {result['attempted']})")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(record, info=info), fh, indent=1)
    return record


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Each workload in its own run.py process, so that peak RSS is
    per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if status == 0:
        print(json.dumps(combined))
    return status


def main() -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload == "all":
            return run_all(args, names)
        record = run_workload(args, spec)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the expected outputs the benchmark checks against.

Run this once on the commit whose outputs are the reference (it writes
perfbench/expected.json):

    python3 perfbench/record.py

It records, with the kernel backend in use:
  * a digest of every scan row and of each scan workload's full output;
  * the prime survey's output digest;
  * the cli query pool: queries drawn with a fixed pool seed (N
    log-uniform on [10**3, 4*10**6], k uniform on [1, N)), each with the
    digest of its `--format json` output, its minimal size r, and its
    in-process run time on this commit, which orders the pool for the
    stratified draw in workloads.CliQueries.

A change that alters any output must not re-record: the benchmark exists
to show that outputs stay byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from monomod import cli, core  # noqa: E402
from monomod.modring import ResidueRing  # noqa: E402
from monomod.monomial import minimal_size  # noqa: E402

POOL_SEED = 20230524
POOL_PER_COMMAND = 400
N_LOW, N_HIGH = 10**3, 4 * 10**6


def pool_inputs() -> list[tuple[str, int, int]]:
    rng = random.Random(POOL_SEED)
    lo, hi = math.log(N_LOW), math.log(N_HIGH)
    out = []
    for cmd in workloads.COMMANDS:
        for _ in range(POOL_PER_COMMAND):
            n = min(int(math.exp(rng.uniform(lo, hi))), N_HIGH)
            out.append((cmd, n, rng.randrange(1, n)))
    return out


def run_in_process(cmd: str, n: int, k: int) -> tuple[bytes, float]:
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.run(workloads.query_argv(cmd, n, k))
    seconds = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{cmd} {n} {k} exited {code}")
    return buf.getvalue().encode(), seconds


def record_pool() -> list[list]:
    pool = []
    inputs = pool_inputs()
    for i, (cmd, n, k) in enumerate(inputs):
        out, first = run_in_process(cmd, n, k)
        _, second = run_in_process(cmd, n, k)
        r = minimal_size(ResidueRing(n), k)[0]
        pool.append([cmd, n, k, r, round(min(first, second), 6), workloads.digest(out)])
        if i % 100 == 99:
            print(f"pool {i + 1}/{len(inputs)}", file=sys.stderr, flush=True)
    return pool


def main() -> None:
    expected: dict = {"backend": core.BACKEND}
    for name in ("semi_table", "omega_table"):
        rows = workloads.run_reference_scan(name)
        expected[name] = {
            "rows": [[row["N"], workloads.digest(workloads.row_line(row))] for row in rows],
            "digest": workloads.rows_digest(rows),
        }
        print(f"{name}: {len(rows)} rows", file=sys.stderr, flush=True)
    expected["prime_survey"] = {"digest": workloads.survey_digest(
        workloads.run_reference_survey())}
    expected["cli_pool"] = record_pool()
    path = workloads.EXPECTED
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        items = list(expected.items())
        for i, (key, value) in enumerate(items):
            sep = "," if i < len(items) - 1 else ""
            if key == "cli_pool":
                lines = ",\n".join("  " + json.dumps(e) for e in value)
                fh.write(f'"cli_pool": [\n{lines}\n]{sep}\n')
            else:
                fh.write(f"{json.dumps(key)}: {json.dumps(value)}{sep}\n")
        fh.write("}\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()

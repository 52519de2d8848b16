"""The benchmark's four workloads: inputs, one pass, and the checks on
every pass's output.

Each workload runs passes of the same job; a pass returns its wall time,
the items it completed, the latency of each request a user waits for,
and how many of its checked operations failed.  Every call into monomod
goes through a module attribute (`scan.run_scan`, `cli.run`, ...) so
that a tracing.Tracer installed around a pass sees it.

Why these four, and which metric each should move, is in README.md;
BENCHMARK.json lists them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from monomod import cli, scan
from monomod.modring import ResidueRing, elementary, monomial_power, pm_id

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "tests" / "data"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

SEMI_JOB = {"kind": "semi", "lo": 4, "hi": 800, "workers": 1}
OMEGA_JOB = {"kind": "omega", "lo": 2, "hi": 400, "workers": 2, "chunk": 64}
SURVEY_MAX = 60000
SURVEY_SURVIVORS = [3, 5, 7, 17, 31, 127, 257, 8191]
MONOMIAL_SPORADIC = frozenset({4, 6, 8, 12, 24})

COMMANDS = ("size", "report", "reduce")
# One block of cli queries: this many slots per command.  Each slot sits
# at a fixed quantile of that command's pool, ordered by run time on the
# recording commit; the seed picks one of the NEIGHBOURS pool queries
# nearest it.  Every block so has the same mix of cheap and expensive
# queries (the costs are heavy-tailed: a plain random draw of 100 moves
# p90 and the throughput by tens of percent from seed to seed).
BLOCK_SLOTS = {"size": 17, "report": 17, "reduce": 16}
NEIGHBOURS = 8
CLI_MIN_BLOCKS = 2  # 100 queries, so 10 lie beyond p90
QUERY_TIMEOUT_S = 60
CRT_CUTOFF = 10**6


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def row_line(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def rows_digest(rows: list[dict]) -> str:
    return hashlib.sha256("\n".join(map(row_line, rows)).encode()).hexdigest()


def survey_digest(primes: list[int]) -> str:
    return hashlib.sha256(json.dumps(primes).encode()).hexdigest()


def query_argv(cmd: str, n: int, k: int) -> list[str]:
    return [cmd, str(n), str(k), "--format", "json"]


def load_table(name: str):
    with open(DATA / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _factor(n: int) -> dict[int, int]:
    """Trial division, kept apart from monomod._numbers so the checks
    do not lean on the code they check."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _phi(n: int) -> int:
    for p in _factor(n):
        n = n // p * (p - 1)
    return n


def percentiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


@dataclass
class Pass:
    start: float  # perf_counter at the start and end of the pass
    end: float
    items: int  # moduli, primes examined, or queries completed
    attempted: int  # checked operations: scan rows, surveys, queries
    failed: int
    requests: list[tuple[float, float]]  # (start, end) of each request a user waits for
    problems: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Workload:
    name = ""
    workers = 1
    trace_workers = 1
    min_passes = 2
    # Where the timed work runs, for speed.SpeedProbe.scaled: "here" (this
    # thread), "workers" (forked pool workers) or "elsewhere" (subprocesses).
    runs_on = "here"

    def params(self) -> dict:
        return {}

    def input_properties(self) -> dict:
        return {}

    def run_pass(self, tracer=None, workers: int | None = None, probe=None) -> Pass:
        """One pass; `probe` is the active speed.SpeedProbe, if any."""
        raise NotImplementedError

    def trace(self, tracer) -> tuple[list[Pass], dict]:
        """An untraced pass and a traced one on the same inputs.  Returns
        the passes (all are checked) and the metrics observed from
        outside the spans."""
        untraced = self.run_pass()
        passes = [untraced]
        base = untraced
        if self.trace_workers != self.workers:
            base = self.run_pass(workers=self.trace_workers)
            passes.append(base)
        with tracer:
            traced = self.run_pass(tracer=tracer, workers=self.trace_workers)
        passes.append(traced)
        observed = scan_metrics(untraced.observed)
        observed["trace.overhead_s"] = traced.seconds - base.seconds
        return passes, observed

    def cleanup(self) -> None:
        pass


def scan_metrics(observed: dict) -> dict:
    """The scan layer as seen through run_scan's on_rows callback and the
    checkpoint file (zeros for workloads that run no scan)."""
    gaps = observed.get("flush_gaps") or [0.0]
    return {
        "scan.chunks": len(observed.get("flush_gaps", [])),
        "scan.flush_gap_p50_s": statistics.median(gaps),
        "scan.flush_gap_max_s": max(gaps),
        "scan.checkpoint_bytes": observed.get("checkpoint_bytes", 0),
        "scan.workers_effective": observed.get("workers_effective", 0),
    }


class ScanTable(Workload):
    """One run_scan over a fixed range with a checkpoint, as `monomod scan
    --checkpoint` runs it.  The inputs are the reference table's range, so
    they do not depend on the seed."""

    def __init__(self, name: str, job: dict, expected: dict) -> None:
        self.name = name
        self.job = job
        self.workers = job["workers"]
        self.expected = expected[name]
        self.expected_rows = dict(self.expected["rows"])
        self.scratch = OUT / f"tmp-{os.getpid()}-{name}"

    def params(self) -> dict:
        return dict(self.job, checkpoint=True)

    def semantic_failures(self, result) -> set[int]:
        raise NotImplementedError

    def run_pass(self, tracer=None, workers: int | None = None, probe=None) -> Pass:
        self.scratch.mkdir(parents=True, exist_ok=True)
        checkpoint = self.scratch / "scan.ckpt"
        checkpoint.unlink(missing_ok=True)
        job = scan.ScanJob(
            **dict(self.job, workers=workers or self.workers), checkpoint=str(checkpoint)
        )
        flushes: list[tuple[float, int]] = []

        def on_rows(rows: list[dict]) -> None:
            flushes.append((perf_counter(), len(multiprocessing.active_children())))

        def call():
            return scan.run_scan(job, on_rows=on_rows)

        if tracer is not None:
            call = tracer.span("bench.pass", call)
        start = perf_counter()
        result = call()
        end = perf_counter()

        times = [start] + [t for t, _ in flushes]
        observed = {
            "flush_gaps": [b - a for a, b in zip(times, times[1:])],
            "checkpoint_bytes": checkpoint.stat().st_size,
            "workers_effective": max([1] + [c for _, c in flushes]),
        }
        bad, problems = self.row_failures(result.rows)
        semantic = self.semantic_failures(result)
        if semantic:
            problems.append(
                f"{len(semantic)} rows disagree with the frozen table or were "
                f"flagged as anomalies, first N={min(semantic)}"
            )
        attempted = len(self.expected_rows)
        return Pass(
            start,
            end,
            len(result.rows),
            attempted,
            min(len(bad | semantic), attempted),
            [(start, end)],
            problems,
            observed,
        )

    def row_failures(self, rows: list[dict]) -> tuple[set[int], list[str]]:
        """Rows whose digest differs from the recorded one, or that are
        missing or unexpected."""
        got = {row["N"]: digest(row_line(row)) for row in rows}
        bad = {n for n, h in self.expected_rows.items() if got.get(n) != h}
        bad |= got.keys() - self.expected_rows.keys()
        problems = []
        if bad:
            problems.append(
                f"{len(bad)} rows differ from the recorded output, first N={min(bad)}"
            )
        if rows_digest(rows) != self.expected["digest"]:
            problems.append("digest of the full output differs from the recorded one")
            bad = bad or set(self.expected_rows)
        return bad, problems

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class SemiTable(ScanTable):
    def __init__(self, expected: dict) -> None:
        super().__init__("semi_table", SEMI_JOB, expected)
        hi = SEMI_JOB["hi"]
        self.frozen = {n: tag for n, tag in load_table("semi_even_members") if n <= hi}

    def semantic_failures(self, result) -> set[int]:
        """True-verdict rows and their family tags must equal the frozen
        appendix D list cut at the range end, with no anomalies."""
        members = {
            row["N"]: scan.semi_family(row["N"]) or "numerical_only"
            for row in result.rows
            if row["verdict"]
        }
        bad = {n for n in self.frozen.keys() | members.keys()
               if self.frozen.get(n) != members.get(n)}
        return bad | {a["N"] for a in result.anomalies}


class OmegaTable(ScanTable):
    trace_workers = 1  # spans inside pool workers are not visible from here
    runs_on = "workers"

    def __init__(self, expected: dict) -> None:
        super().__init__("omega_table", OMEGA_JOB, expected)
        hi = OMEGA_JOB["hi"]
        self.frozen = {n: (phi, om) for n, phi, om in load_table("omega_table") if n <= hi}

    def semantic_failures(self, result) -> set[int]:
        """Rows for N = 2**a * 3**b equal the frozen table; omega = N-1 for
        primes and the sporadic 4, 6, 8, 12, 24; omega = phi(N) for odd
        prime powers."""
        got = {row["N"]: row for row in result.rows}
        bad = {n for n, want in self.frozen.items()
               if n not in got or (got[n]["phi"], got[n]["omega"]) != want}
        for n, row in got.items():
            factors = _factor(n)
            if n in MONOMIAL_SPORADIC or factors == {n: 1}:
                if row["omega"] != n - 1:
                    bad.add(n)
            elif len(factors) == 1 and n % 2 == 1 and row["omega"] != _phi(n):
                bad.add(n)
        return bad | {a["N"] for a in result.anomalies}


class PrimeSurvey(Workload):
    """scan_conjecture over the primes up to SURVEY_MAX, the README
    example.  One survey is one request; its items are the odd primes
    examined."""

    name = "prime_survey"

    def __init__(self, expected: dict) -> None:
        self.expected = expected["prime_survey"]
        flags = bytearray([1]) * (SURVEY_MAX + 1)
        for p in range(2, int(SURVEY_MAX**0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(flags[p * p :: p]))
        self.items = sum(flags[3::2])  # odd primes; flags[1] is never read

    def params(self) -> dict:
        return {"max_prime": SURVEY_MAX}

    def run_pass(self, tracer=None, workers: int | None = None, probe=None) -> Pass:
        def call():
            return scan.scan_conjecture(SURVEY_MAX)

        if tracer is not None:
            call = tracer.span("bench.pass", call)
        start = perf_counter()
        primes = call()
        end = perf_counter()
        problems = []
        if primes != SURVEY_SURVIVORS:
            problems.append(f"survivors {primes} != {SURVEY_SURVIVORS}")
        elif survey_digest(primes) != self.expected["digest"]:
            problems.append("digest of the survey output differs from the recorded one")
        return Pass(start, end, self.items, 1, int(bool(problems)), [(start, end)], problems)


@dataclass(frozen=True)
class Query:
    cmd: str
    n: int
    k: int
    r: int  # minimal size recorded with the pool
    digest: str  # of the recorded stdout


def check_answer(q: Query, answer: dict) -> str | None:
    """Check one JSON answer by direct matrix arithmetic (modring), never
    by the walk: M(k)**r = eps*Id and no M(k)**(r/p) is +/-Id for a prime
    p | r; a witness (x, k, ..., k, x) multiplies out to its sign."""
    ring = ResidueRing(q.n)
    if answer.get("modulus") != q.n or answer.get("k") != q.k % q.n:
        return "answer names another (N, k)"
    r = q.r
    if q.cmd in ("size", "report"):
        r, eps = answer["size"], answer["sign"]
        if pm_id(monomial_power(ring, q.k, r)) != eps:
            return f"M(k)**{r} != {eps}*Id"
        for p in _factor(r):
            if pm_id(monomial_power(ring, q.k, r // p)) is not None:
                return f"size {r} is not minimal: M(k)**{r // p} = +/-Id"
    witness = answer.get("witness")
    if q.cmd == "report" and answer["irreducible"] != (witness is None):
        return "irreducible flag disagrees with the witness"
    if witness is not None:
        x, length, sign = witness["x"], witness["len"], witness["sign"]
        if not 3 <= length <= r - 1:
            return f"witness length {length} outside [3, {r - 1}]"
        product = elementary(ring, x) * monomial_power(ring, q.k, length - 2) * elementary(ring, x)
        if pm_id(product) != sign:
            return f"witness {witness} does not multiply out to {sign}*Id"
    return None


class CliQueries(Workload):
    """Closed loop, one client: each query is a fresh `python -m
    monomod.cli <size|report|reduce> N k --format json` subprocess, the
    next sent when the previous one exits.  A pass is one block of
    queries drawn from the recorded pool with the seed."""

    name = "cli_queries"
    min_passes = CLI_MIN_BLOCKS
    runs_on = "elsewhere"

    def __init__(self, seed: int, expected: dict) -> None:
        self.by_cmd: dict[str, list[Query]] = {cmd: [] for cmd in COMMANDS}
        for cmd, n, k, r, cost, out_digest in sorted(
            expected["cli_pool"], key=lambda e: (e[4], e[1], e[2])
        ):
            self.by_cmd[cmd].append(Query(cmd, n, k, r, out_digest))
        self.rng = random.Random(seed)
        self.blocks = [self.draw_block() for _ in range(CLI_MIN_BLOCKS)]
        self.used = 0

    def params(self) -> dict:
        return {
            "block_slots": BLOCK_SLOTS,
            "neighbours": NEIGHBOURS,
            "pool": {cmd: len(qs) for cmd, qs in self.by_cmd.items()},
            "clients": 1,
        }

    def draw_block(self) -> list[Query]:
        block = []
        for cmd, slots in BLOCK_SLOTS.items():
            pool = self.by_cmd[cmd]
            for j in range(slots):
                centre = int((j + 0.5) * len(pool) / slots)
                first = min(max(centre - NEIGHBOURS // 2, 0), len(pool) - NEIGHBOURS)
                block.append(pool[first + self.rng.randrange(NEIGHBOURS)])
        self.rng.shuffle(block)
        return block

    def queries_run(self) -> list[Query]:
        return [q for block in self.blocks[: self.used] for q in block]

    def input_properties(self) -> dict:
        queries = self.queries_run()
        count = len(queries)
        if count == 0:
            return {}
        return {
            "queries": count,
            "share_n_above_1e6": sum(q.n > CRT_CUTOFF for q in queries) / count,
            "share_per_command": {
                cmd: sum(q.cmd == cmd for q in queries) / count for cmd in COMMANDS
            },
            "r_sum": sum(q.r for q in queries),
        }

    def run_subprocess(self, q: Query) -> tuple[tuple[float, float], int | None, bytes]:
        argv = [sys.executable, "-m", "monomod.cli", *query_argv(q.cmd, q.n, q.k)]
        start = perf_counter()
        try:
            proc = subprocess.run(
                argv, capture_output=True, cwd=ROOT, timeout=QUERY_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return (start, perf_counter()), None, b""
        return (start, perf_counter()), proc.returncode, proc.stdout

    def run_in_process(self, q: Query, tracer=None) -> tuple[tuple[float, float], int, bytes]:
        def call():
            return cli.run(query_argv(q.cmd, q.n, q.k))

        if tracer is not None:
            call = tracer.span("bench.query", call)
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = call()
        return (start, perf_counter()), code, buf.getvalue().encode()

    def finish(self, queries: list[Query], runs: list, start: float, end: float) -> Pass:
        problems = []
        for q, (_, code, out) in zip(queries, runs):
            if code != 0:
                problem = f"exit code {code}"
            elif digest(out) != q.digest:
                problem = "output differs from the recorded one"
            else:
                problem = check_answer(q, json.loads(out))
            if problem is not None:
                problems.append(f"{q.cmd} {q.n} {q.k}: {problem}")
        return Pass(start, end, len(queries), len(queries), len(problems),
                    [interval for interval, _, _ in runs], problems)

    def run_pass(self, tracer=None, workers: int | None = None, probe=None) -> Pass:
        if self.used == len(self.blocks):
            self.blocks.append(self.draw_block())
        queries = self.blocks[self.used]
        self.used += 1
        start = perf_counter()
        runs = []
        for q in queries:
            if probe is not None:
                probe.sample()
            runs.append(self.run_subprocess(q))
        return self.finish(queries, runs, start, perf_counter())

    def trace(self, tracer) -> tuple[list[Pass], dict]:
        """Spans inside a subprocess are not visible from here, so the
        traced pass runs the same queries in-process through cli.run.
        Process overhead is each query's subprocess latency minus its
        untraced in-process time."""
        self.used = CLI_MIN_BLOCKS
        queries = self.queries_run()
        passes = []
        for mode in ("subprocess", "in_process", "traced"):
            start = perf_counter()
            if mode == "subprocess":
                runs = [self.run_subprocess(q) for q in queries]
            elif mode == "in_process":
                runs = [self.run_in_process(q) for q in queries]
            else:
                with tracer:
                    runs = [self.run_in_process(q, tracer) for q in queries]
            passes.append(self.finish(queries, runs, start, perf_counter()))
        subprocess_pass, untraced, traced = passes
        overhead = [
            (s1 - s0) - (i1 - i0)
            for (s0, s1), (i0, i1) in zip(subprocess_pass.requests, untraced.requests)
        ]
        observed = scan_metrics({})
        observed["cli.process_overhead_p50_s"] = statistics.median(overhead)
        observed["trace.overhead_s"] = traced.seconds - untraced.seconds
        return passes, observed


def make(name: str, seed: int, expected: dict) -> Workload:
    if name == "semi_table":
        return SemiTable(expected)
    if name == "omega_table":
        return OmegaTable(expected)
    if name == "prime_survey":
        return PrimeSurvey(expected)
    if name == "cli_queries":
        return CliQueries(seed, expected)
    raise ValueError(f"unknown workload {name!r}")


def run_reference_scan(name: str) -> list[dict]:
    """The rows of one scan workload's job, for record.py."""
    job = SEMI_JOB if name == "semi_table" else OMEGA_JOB
    return scan.run_scan(scan.ScanJob(**job)).rows


def run_reference_survey() -> list[int]:
    return scan.scan_conjecture(SURVEY_MAX)

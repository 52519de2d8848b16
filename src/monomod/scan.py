"""Range scans with checkpointing: verdicts over intervals of moduli,
the prime size-class survey, and the four reference tables.

Work is cut into fixed-size chunks of candidate moduli and distributed
over a process pool; results are merged and flushed strictly in
ascending order, so output is identical for any worker count.  Each
flushed chunk appends one checkpoint record; the last record alone
carries everything needed to resume.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import core
from ._numbers import euler_phi, prime_power, sieve_primes
from .classify import (
    SEMI_CLOSURE_PRIMES,
    decide_monomial,
    decide_quasi,
    decide_semi,
    omega_count,
    predict_monomial,
    predict_quasi,
)
from .modring import ResidueRing
from .monomial import find_reduction, minimal_size_prime_fast

__all__ = [
    "CheckpointError",
    "ScanJob",
    "ScanResult",
    "checkpoint_resume",
    "emit_appendix",
    "rows_to_csv",
    "run_scan",
    "scan_class",
    "scan_conjecture",
    "scan_conjecture_checked",
    "semi_family",
]

WORKER_CAP_ENV = "MONOMOD_MAX_WORKERS"

SCAN_KINDS = ("monomial", "quasi", "semi", "omega")
JOB_KINDS = SCAN_KINDS + (
    "conjecture",
    "appendixA",
    "appendixB",
    "appendixC",
    "appendixD",
)

APPENDIX_C_MODULI = (48, 108, 192, 216, 384, 864)


class CheckpointError(ValueError):
    """A checkpoint file could not be parsed or does not match the job."""


@dataclass(frozen=True)
class ScanJob:
    """Immutable description of one scanning run."""

    kind: str
    lo: int
    hi: int
    chunk: int = 64
    checkpoint: str | None = None
    workers: int = 1
    include_odd: bool = False  # semi scans skip odd N unless set
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown scan kind {self.kind!r}")
        if self.lo < 2:
            raise ValueError("lo must be >= 2")
        if self.hi < self.lo:
            raise ValueError("hi must be >= lo")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class ScanResult:
    """Rows produced by this run (ascending N), cumulative anomalies,
    and the high-water mark of processed moduli."""

    job: ScanJob
    rows: list[dict] = field(default_factory=list)
    anomalies: list[dict] = field(default_factory=list)
    completed_to: int = 0


def _candidate(kind: str, n: int, include_odd: bool) -> bool:
    if kind == "semi" and not include_odd:
        return n % 2 == 0
    return True


def _scan_chunk(args: tuple[str, tuple[int, ...]]) -> list[dict]:
    """Worker body: verdict rows for one chunk of moduli."""
    kind, ns = args
    rows = []
    for n in ns:
        ring = ResidueRing(n)
        if kind == "omega":
            rows.append(
                {"N": n, "kind": kind, "phi": euler_phi(n), "omega": omega_count(ring)}
            )
            continue
        decide = {
            "monomial": decide_monomial,
            "quasi": decide_quasi,
            "semi": decide_semi,
        }[kind]
        verdict = decide(ring)
        row = {"N": n, "kind": kind, "verdict": verdict.verdict}
        if verdict.counterexample is not None:
            ce = verdict.counterexample
            row["counterexample"] = {
                "k": ce.k,
                "x": ce.witness.x,
                "len": ce.witness.length,
            }
        rows.append(row)
    return rows


def semi_family(n: int) -> str | None:
    """Name of the proven-irreducible family containing even n, if any.

    "twice_prime_power": n = 2*p**e.  "product_closure": either
    4 | n with odd part built from SEMI_CLOSURE_PRIMES
    ({3,5,7,17,31,127}), or n = 2 * (a product of 3s and 5s).  Families
    overlap; the first match wins.
    """
    if n % 2 == 1:
        pe = prime_power(n)
        return "odd_prime_power" if pe is not None and pe[0] != 2 else None
    if prime_power(n // 2) is not None:
        return "twice_prime_power"
    if n % 4 == 0:
        m = n
        for p in (2, *SEMI_CLOSURE_PRIMES):
            while m % p == 0:
                m //= p
        if m == 1:
            return "product_closure"
    else:
        m = n // 2
        for p in (3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return "product_closure"
    return None


def _predicted(kind: str, n: int) -> bool | None:
    """Expected verdict where a characterization exists, else None."""
    if kind == "monomial":
        return predict_monomial(n)
    if kind == "quasi":
        return predict_quasi(n)
    if kind == "semi":
        family = semi_family(n)
        if n % 2 == 1:
            return family == "odd_prime_power"
        return True if family is not None else None
    return None


def _read_checkpoint(path: str) -> tuple[dict | None, int | None]:
    """Last checkpoint record (None for a fresh, absent or empty file) and
    the offset of a torn final line (None when there is none).

    Each record is appended as one line, so a final line without its
    newline is an append that a crash cut short: it is skipped, and
    run_scan truncates it away before appending again.  Every complete
    line must parse; a corrupt one is an error naming it.
    """
    if not os.path.exists(path):
        return None, None
    last = None
    offset = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                return last, offset  # only the final line can lack it
            offset += len(line)
            if line.strip() == b"":
                continue
            try:
                record = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"corrupt checkpoint record at line {lineno} of {path}: {exc}"
                ) from None
            if not isinstance(record, dict):
                raise CheckpointError(
                    f"corrupt checkpoint record at line {lineno} of {path}: "
                    "not a JSON object"
                )
            for key in ("job", "lo", "hi", "include_odd", "completed_to", "anomalies"):
                if key not in record:
                    raise CheckpointError(
                        f"corrupt checkpoint record at line {lineno} of {path}: "
                        f"missing field {key!r}"
                    )
            last = record
    return last, None


def checkpoint_resume(path: str) -> ScanJob:
    """Rebuild the ScanJob a checkpoint belongs to; running it resumes
    after the last completed chunk.  Records written before they
    carried `chunk` resume with the default chunk size."""
    record, _ = _read_checkpoint(path)
    if record is None:
        raise CheckpointError(f"no checkpoint records in {path}")
    return ScanJob(
        kind=record["job"],
        lo=record["lo"],
        hi=record["hi"],
        chunk=record.get("chunk", ScanJob.chunk),
        include_odd=record["include_odd"],
        checkpoint=path,
    )


def _effective_workers(requested: int) -> int:
    cap = os.environ.get(WORKER_CAP_ENV)
    if cap is None or cap == "":
        return requested
    try:
        cap_value = int(cap)
    except ValueError:
        raise ValueError(f"{WORKER_CAP_ENV} must be an integer, got {cap!r}") from None
    return max(1, min(requested, cap_value))


def run_scan(
    job: ScanJob,
    *,
    on_rows: Callable[[list[dict]], None] | None = None,
    max_chunks: int | None = None,
) -> ScanResult:
    """Execute a range scan, flushing chunk results in ascending order.

    on_rows receives each flushed chunk (for streaming output) before
    the checkpoint record that covers it is appended;
    max_chunks stops cleanly after that many chunks, leaving a
    resumable checkpoint.  The pool never gets more workers than there
    are chunks, and one worker runs in this process.
    """
    if job.kind not in SCAN_KINDS:
        raise ValueError(f"run_scan cannot execute kind {job.kind!r}")
    if max_chunks is not None and max_chunks < 0:
        raise ValueError("max_chunks must be >= 0")
    start = job.lo
    anomalies: list[dict] = []
    completed = job.lo - 1
    if job.checkpoint:
        record, torn = _read_checkpoint(job.checkpoint)
        if record is not None:
            recorded = (record["job"], record["lo"], record["hi"], record["include_odd"])
            if recorded != (job.kind, job.lo, job.hi, job.include_odd):
                raise CheckpointError(
                    f"checkpoint {job.checkpoint} describes job "
                    f"{record['job']!r} [{record['lo']},{record['hi']}] "
                    f"include_odd={record['include_odd']}, "
                    f"not {job.kind!r} [{job.lo},{job.hi}] include_odd={job.include_odd}"
                )
            start = record["completed_to"] + 1
            anomalies = list(record["anomalies"])
            completed = record["completed_to"]
        # Opening here also fails on an unwritable path before any row
        # goes out.
        with open(job.checkpoint, "ab") as fh:
            if torn is not None:
                fh.truncate(torn)
    result = ScanResult(job, anomalies=anomalies, completed_to=completed)
    candidates = [
        n
        for n in range(start, job.hi + 1)
        if _candidate(job.kind, n, job.include_odd)
    ]
    chunks = [
        tuple(candidates[i : i + job.chunk])
        for i in range(0, len(candidates), job.chunk)
    ]
    if max_chunks is not None:
        chunks = chunks[: max_chunks]
    if not chunks:
        return result
    args = [(job.kind, ns) for ns in chunks]
    workers = min(_effective_workers(job.workers), len(chunks))
    if workers == 1:
        produced: Iterable[list[dict]] = map(_scan_chunk, args)
        _drain(job, result, args, produced, on_rows)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                _drain(job, result, args, pool.map(_scan_chunk, args), on_rows)
            except BaseException:
                # Leaving the with block waits for every chunk still
                # queued; drop those first, since nothing will read them.
                pool.shutdown(cancel_futures=True)
                raise
    return result


def _drain(
    job: ScanJob,
    result: ScanResult,
    args: list[tuple[str, tuple[int, ...]]],
    produced: Iterable[list[dict]],
    on_rows: Callable[[list[dict]], None] | None,
) -> None:
    for (_, ns), rows in zip(args, produced):
        for row in rows:
            expected = _predicted(job.kind, row["N"])
            if expected is not None and expected != row["verdict"]:
                result.anomalies.append(
                    {
                        "N": row["N"],
                        "kind": job.kind,
                        "expected": expected,
                        "got": row["verdict"],
                    }
                )
        result.rows.extend(rows)
        result.completed_to = ns[-1]
        # Rows go out before the record that covers them, so a crash can
        # repeat a chunk on resume but never skip one.
        if on_rows is not None:
            on_rows(rows)
        if job.checkpoint:
            _append_checkpoint(job, result)


def _append_checkpoint(job: ScanJob, result: ScanResult) -> None:
    record = {
        "job": job.kind,
        "lo": job.lo,
        "hi": job.hi,
        "chunk": job.chunk,
        "include_odd": job.include_odd,
        "completed_to": result.completed_to,
        "anomalies": result.anomalies,
    }
    with open(job.checkpoint, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        if job.fsync:
            fh.flush()
            os.fsync(fh.fileno())


def scan_class(kind: str, lo: int, hi: int, **options) -> ScanResult:
    """Decide one irreducibility class over [lo, hi] and compare with
    the known characterizations; see run_scan for options."""
    if kind not in ("monomial", "quasi", "semi"):
        raise ValueError(f"scan_class kind must be monomial/quasi/semi, got {kind!r}")
    run_options = {
        key: options.pop(key) for key in ("on_rows", "max_chunks") if key in options
    }
    return run_scan(ScanJob(kind=kind, lo=lo, hi=hi, **options), **run_options)


def scan_conjecture(max_prime: int) -> list[int]:
    """Odd primes p <= max_prime whose nonzero minimal sizes all avoid
    2 mod 4; stops scanning a prime at its first k in [1,(p-1)/2] that
    lands on 2 mod 4."""
    primes, _ = scan_conjecture_checked(max_prime, sample_den=0)
    return primes


def scan_conjecture_checked(
    max_prime: int, sample_den: int = 100
) -> tuple[list[int], list[dict]]:
    """scan_conjecture plus a deterministic spot check: roughly one in
    sample_den of the examined (p, k) pairs is recomputed with the
    generic walk, and disagreements are reported (sample_den=0 disables
    the check)."""
    if max_prime < 3:
        raise ValueError("max_prime must be >= 3")
    survivors = []
    anomalies: list[dict] = []
    for p in sieve_primes(max_prime):
        if p == 2:
            continue
        good = True
        for k in range(1, (p - 1) // 2 + 1):
            r, eps = minimal_size_prime_fast(p, k)
            if sample_den and (p * 1009 + k * 101) % sample_den == 0:
                walked = core.order_pm(p, k, p**3 + 1)
                if walked != (r, eps):
                    anomalies.append(
                        {"p": p, "k": k, "fast": [r, eps], "walk": list(walked)}
                    )
            if r % 4 == 2:
                good = False
                break
        if good:
            survivors.append(p)
    return survivors, anomalies


def emit_appendix(which: str, *, workers: int = 1) -> list[dict]:
    """Reference tables:

    A — quasi-irreducible moduli through 1000, tagged prime /
        prime_power / two_three;
    B — (N, phi, omega) for every N = 2**a * 3**b <= 1000 with both
        exponents >= 1;
    C — full reducible-k lists for six sample moduli;
    D — even semi-irreducible moduli from 4 through 2500, tagged
        twice_prime_power / product_closure / numerical_only.
    """
    if which == "A":
        result = run_scan(ScanJob(kind="quasi", lo=2, hi=1000, workers=workers))
        table = []
        for row in result.rows:
            if not row["verdict"]:
                continue
            n = row["N"]
            pe = prime_power(n)
            if pe is not None:
                tag = "prime" if pe[1] == 1 else "prime_power"
            else:
                tag = "two_three"
            table.append({"N": n, "tag": tag})
        return table
    if which == "B":
        values = sorted(
            2**a * 3**b
            for a in range(1, 10)
            for b in range(1, 7)
            if 2**a * 3**b <= 1000
        )
        return [
            {"N": n, "phi": euler_phi(n), "omega": omega_count(ResidueRing(n))}
            for n in values
        ]
    if which == "C":
        table = []
        for n in APPENDIX_C_MODULI:
            ring = ResidueRing(n)
            ks = [0] + [
                k for k in range(1, n) if find_reduction(ring, k) is not None
            ]
            table.append({"N": n, "reducible": ks})
        return table
    if which == "D":
        result = run_scan(ScanJob(kind="semi", lo=4, hi=2500, workers=workers))
        return [
            {"N": row["N"], "tag": semi_family(row["N"]) or "numerical_only"}
            for row in result.rows
            if row["verdict"]
        ]
    raise ValueError(f"appendix must be one of A, B, C, D; got {which!r}")


def rows_to_csv(rows: list[dict]) -> str:
    """Flatten scan or appendix rows to CSV with stable columns."""
    columns: list[str] = []
    flat_rows = []
    for row in rows:
        flat = dict(row)
        ce = flat.pop("counterexample", None)
        if ce is not None:
            flat["k"] = ce["k"]
            flat["x"] = ce["x"]
            flat["len"] = ce["len"]
        if "reducible" in flat:
            flat["reducible"] = " ".join(str(k) for k in flat["reducible"])
        for key in flat:
            if key not in columns:
                columns.append(key)
        flat_rows.append(flat)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns)
    writer.writeheader()
    for flat in flat_rows:
        writer.writerow(flat)
    return out.getvalue()

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
from .classify import DECIDERS, PREDICTORS, omega_count, semi_family
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
]

WORKER_CAP_ENV = "MONOMOD_MAX_WORKERS"

SCAN_KINDS = (*DECIDERS, "omega")

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
        if self.kind not in SCAN_KINDS:
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
        verdict = DECIDERS[kind](ring)
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


def _read_checkpoint(path: str) -> tuple[dict | None, int | None]:
    """Last checkpoint record (None for a fresh, absent or empty file) and
    the offset of a torn final line (None when there is none).

    Each record is appended as one line, so a final line without its
    newline is an append that a crash cut short: it is skipped, and
    run_scan truncates it away before appending again.  Every complete
    line must parse and describe a job (see _recorded_job); a corrupt
    one is an error naming it.
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
            # JSON and UTF-8 decoding errors are ValueErrors too.
            try:
                record = json.loads(line)
                _recorded_job(record, path)
            except ValueError as exc:
                raise CheckpointError(
                    f"corrupt checkpoint record at line {lineno} of {path}: {exc}"
                ) from None
            last = record
    return last, None


def _recorded_job(record: object, path: str) -> ScanJob:
    """The ScanJob a checkpoint record describes.  A record that is not
    an object, or that has a field missing, mistyped or out of range,
    raises ValueError naming the field.  Records written before they
    carried `chunk` get the default chunk size."""
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    for key in ("job", "lo", "hi", "include_odd", "completed_to", "anomalies"):
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    fields = {"chunk": ScanJob.chunk, **record}
    if fields["job"] not in SCAN_KINDS:
        raise ValueError(f"field 'job' is not one of {', '.join(SCAN_KINDS)}")
    for key in ("lo", "hi", "completed_to", "chunk"):
        if type(fields[key]) is not int:  # JSON true is a bool, not the int 1
            raise ValueError(f"field {key!r} is not an integer")
    if not fields["lo"] - 1 <= fields["completed_to"] <= fields["hi"]:
        raise ValueError("field 'completed_to' is outside [lo - 1, hi]")
    if not isinstance(fields["include_odd"], bool):
        raise ValueError("field 'include_odd' is not a boolean")
    anomalies = fields["anomalies"]
    if not isinstance(anomalies, list) or not all(isinstance(a, dict) for a in anomalies):
        raise ValueError("field 'anomalies' is not a list of objects")
    # ScanJob itself rejects lo < 2, hi < lo and chunk < 1.
    return ScanJob(
        kind=fields["job"],
        lo=fields["lo"],
        hi=fields["hi"],
        chunk=fields["chunk"],
        include_odd=fields["include_odd"],
        checkpoint=path,
    )


def checkpoint_resume(path: str) -> ScanJob:
    """Rebuild the ScanJob a checkpoint belongs to; running it resumes
    after the last completed chunk."""
    record, _ = _read_checkpoint(path)
    if record is None:
        raise CheckpointError(f"no checkpoint records in {path}")
    return _recorded_job(record, path)


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
    if max_chunks is not None and max_chunks < 0:
        raise ValueError("max_chunks must be >= 0")
    start = job.lo
    anomalies: list[dict] = []
    completed = job.lo - 1
    if job.checkpoint:
        record, torn = _read_checkpoint(job.checkpoint)
        if record is not None:
            was = _recorded_job(record, job.checkpoint)
            identity = (was.kind, was.lo, was.hi, was.include_odd)
            if identity != (job.kind, job.lo, job.hi, job.include_odd):
                raise CheckpointError(
                    f"checkpoint {job.checkpoint} describes job "
                    f"{was.kind!r} [{was.lo},{was.hi}] include_odd={was.include_odd}, "
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
    predict = PREDICTORS.get(job.kind, lambda n: None)
    for (_, ns), rows in zip(args, produced):
        for row in rows:
            expected = predict(row["N"])
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


def scan_class(
    kind: str,
    lo: int,
    hi: int,
    *,
    on_rows: Callable[[list[dict]], None] | None = None,
    max_chunks: int | None = None,
    **options,
) -> ScanResult:
    """Decide one irreducibility class over [lo, hi] and compare with
    the known characterizations; options are ScanJob fields, and see
    run_scan for on_rows and max_chunks."""
    if kind not in DECIDERS:
        raise ValueError(f"scan_class kind must be {'/'.join(DECIDERS)}, got {kind!r}")
    return run_scan(
        ScanJob(kind=kind, lo=lo, hi=hi, **options), on_rows=on_rows, max_chunks=max_chunks
    )


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

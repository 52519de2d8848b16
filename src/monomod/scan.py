"""Range scans with checkpointing: verdicts over intervals of moduli,
the prime size-class survey, and the four reference tables.

Work is cut into fixed-size chunks of candidate moduli and fed to a
process pool a few at a time; results are flushed strictly in
ascending order, so output is identical for any worker count.  Each
flushed chunk appends one checkpoint record; the last record alone
carries everything needed to resume.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from . import components
from ._numbers import sieve_primes
from .classify import (
    DECIDERS,
    PREDICTORS,
    _phi,
    omega_count,
    quasi_family,
    reducible_set,
    semi_family,
)
from .modring import ResidueRing
from .monomial import _built_2_mod_4, _size_is_2_mod_4, minimal_size_prime_fast

__all__ = [
    "CheckpointError",
    "ScanJob",
    "ScanResult",
    "checkpoint_resume",
    "emit_appendix",
    "run_scan",
    "scan_conjecture",
]

SCAN_KINDS = (*DECIDERS, "omega")

APPENDICES = ("A", "B", "C", "D")

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
    checkpoint: str | os.PathLike[str] | None = None
    workers: int = 1
    include_odd: bool = False  # semi scans skip odd N unless set
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SCAN_KINDS:
            raise ValueError(f"unknown scan kind {self.kind!r}")
        for name in ("lo", "hi", "chunk", "workers"):
            if type(getattr(self, name)) is not int:  # True is a bool, not the int 1
                raise ValueError(f"{name} must be an integer")
        for name in ("include_odd", "fsync"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a boolean")
        # an int would be read as a file descriptor, and "" as no checkpoint
        if self.checkpoint is not None and not (
            isinstance(self.checkpoint, (str, os.PathLike)) and os.fspath(self.checkpoint)
        ):
            raise ValueError("checkpoint must be a non-empty path or None")
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


def _scan_chunk(args: tuple[str, range]) -> list[dict]:
    """Worker body: verdict rows for one chunk of moduli."""
    kind, ns = args
    rows = []
    for n in ns:
        ring = ResidueRing(n)
        if kind == "omega":
            rows.append(
                {"N": n, "kind": kind, "phi": _phi(ring), "omega": omega_count(ring)}
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
    the offset of a torn final line (None when there is none).  The
    record's job fields come back as the one ScanJob they describe, under
    "job", beside its "completed_to" and "anomalies".

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
                job = _recorded_job(record, path)
            except ValueError as exc:
                raise CheckpointError(
                    f"corrupt checkpoint record at line {lineno} of {path}: {exc}"
                ) from None
            last = {
                "job": job,
                "completed_to": record["completed_to"],
                "anomalies": record["anomalies"],
            }
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
    # ScanJob itself rejects a mistyped lo, hi, chunk or include_odd, and
    # lo < 2, hi < lo and chunk < 1, naming the field.
    job = ScanJob(
        kind=fields["job"],
        lo=fields["lo"],
        hi=fields["hi"],
        chunk=fields["chunk"],
        include_odd=fields["include_odd"],
        checkpoint=path,
    )
    if type(fields["completed_to"]) is not int:
        raise ValueError("field 'completed_to' is not an integer")
    if not job.lo - 1 <= fields["completed_to"] <= job.hi:
        raise ValueError("field 'completed_to' is outside [lo - 1, hi]")
    anomalies = fields["anomalies"]
    if not isinstance(anomalies, list) or not all(isinstance(a, dict) for a in anomalies):
        raise ValueError("field 'anomalies' is not a list of objects")
    return job


def checkpoint_resume(path: str) -> ScanJob:
    """Rebuild the ScanJob a checkpoint belongs to; running it resumes
    after the last completed chunk."""
    record, _ = _read_checkpoint(path)
    if record is None:
        raise CheckpointError(f"no checkpoint records in {path}")
    return record["job"]


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
    resumable checkpoint; such a slice costs the same whatever the
    range.  The pool has at most min(workers, chunks, CPUs) processes
    and holds at most 2 * workers chunks, so the first row comes as
    soon as the first chunk is done, whatever the range; one worker
    runs in this process.  The component tables and pair tests are
    cached for the scan alone: emptied here, before a pool forks, so a
    scan does the same work whatever ran before it in the process.
    """
    components.clear_caches()
    if max_chunks is not None:
        if type(max_chunks) is not int:
            raise ValueError("max_chunks must be an integer or None")
        if max_chunks < 0:
            raise ValueError("max_chunks must be >= 0")
    start = job.lo
    anomalies: list[dict] = []
    completed = job.lo - 1
    if job.checkpoint:
        record, torn = _read_checkpoint(job.checkpoint)
        if record is not None:
            was = record["job"]
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
    # The candidates are one progression from the first one >= start
    # (even N only for semi), so each chunk is a range, made lazily.
    step = 2 if job.kind == "semi" and not job.include_odd else 1
    stride = step * job.chunk
    firsts = range(start + start % step, job.hi + 1, stride)[:max_chunks]
    if not firsts:
        return result
    chunks = ((job.kind, range(f, min(f + stride, job.hi + 1), step)) for f in firsts)
    # min(workers, chunks, CPUs); len() overflows past sys.maxsize
    workers = min(len(firsts[: job.workers]), os.cpu_count() or 1)
    if workers == 1:
        produced = (_scan_chunk(chunk) for chunk in chunks)
    else:
        produced = _pooled(chunks, workers)
    predict = PREDICTORS.get(job.kind, lambda n: None)
    # closing: an error in the loop shuts the pool down before it waits
    with closing(produced):
        for rows in produced:
            result.anomalies += [
                {"N": row["N"], "kind": job.kind, "expected": e, "got": row["verdict"]}
                for row in rows
                if (e := predict(row["N"])) is not None and e != row["verdict"]
            ]
            result.rows.extend(rows)
            result.completed_to = rows[-1]["N"]  # a chunk has one row per N
            # Rows go out before the record that covers them, so a crash
            # can repeat a chunk on resume but never skip one.
            if on_rows is not None:
                on_rows(rows)
            if job.checkpoint:
                _append_checkpoint(job, result)
    return result


def _pooled(chunks: Iterator[tuple[str, range]], workers: int) -> Iterator[list[dict]]:
    """Chunk results in order from a pool that holds at most 2 * workers
    chunks: one more is submitted each time one is taken."""
    # Imported here: the pool's modules (multiprocessing, pickle, ...)
    # would add to the start of every CLI query, and only scans use it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = deque(pool.submit(_scan_chunk, c) for c in islice(chunks, 2 * workers))
        try:
            while window:
                rows = window.popleft().result()
                window.extend(pool.submit(_scan_chunk, c) for c in islice(chunks, 1))
                yield rows
        except BaseException:  # GeneratorExit too, when the consumer fails
            # Leaving the with block waits for every chunk still queued;
            # drop those first, since nothing will read them.
            pool.shutdown(cancel_futures=True)
            raise


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


def scan_conjecture(max_prime: int) -> list[int]:
    """Odd primes p <= max_prime whose nonzero minimal sizes all avoid
    2 mod 4.

    Each prime stops at its first k that lands on 2 mod 4.  The k tried
    first are those that the proof of classify.predict_conjecture
    builds from traces of powers of M(k0) (monomial._built_2_mod_4);
    then comes the ascending scan of [1, (p-1)/2].  So a survivor, for
    which nothing is built, is proved by the full scan, and a prime
    whose built k all failed would fall through to the same scan.  Every
    k is tested with monomial._size_is_2_mod_4, one power of M(k), and
    the k that eliminates a prime is confirmed with
    minimal_size_prime_fast: a disagreement raises RuntimeError."""
    if max_prime < 3:
        raise ValueError("max_prime must be >= 3")
    survivors = []
    for p in sieve_primes(max_prime)[1:]:  # the odd primes
        ks = chain(_built_2_mod_4(p), range(1, (p - 1) // 2 + 1))
        k = next((k for k in ks if _size_is_2_mod_4(p, k)), None)
        if k is None:
            survivors.append(p)
            continue
        r, _ = minimal_size_prime_fast(p, k)
        if r % 4 != 2:
            raise RuntimeError(
                f"p={p}, k={k}: the 2-part test says r = 2 mod 4, "
                f"but minimal_size_prime_fast gives r={r}"
            )
    return survivors


def emit_appendix(which: str, *, workers: int = 1) -> list[dict]:
    """Reference tables:

    A — quasi-irreducible moduli through 1000, tagged prime /
        prime_power / two_three / numerical_only;
    B — (N, phi, omega) for every N = 2**a * 3**b <= 1000 with both
        exponents >= 1;
    C — full reducible-k lists for six sample moduli;
    D — even semi-irreducible moduli from 4 through 2500, tagged
        twice_prime_power / product_closure / numerical_only.
    """
    if which not in APPENDICES:
        raise ValueError(f"appendix must be one of {', '.join(APPENDICES)}; got {which!r}")
    # checked as ScanJob checks it, since B and C run no ScanJob
    if type(workers) is not int:  # True is a bool, not the int 1
        raise ValueError("workers must be an integer")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if which == "B":
        rings = (ResidueRing(n) for n in range(6, 1001, 6) if quasi_family(n) == "two_three")
        return [{"N": r.modulus, "phi": _phi(r), "omega": omega_count(r)} for r in rings]
    if which == "C":
        return [
            {"N": n, "reducible": [0] + reducible_set(ResidueRing(n))}
            for n in APPENDIX_C_MODULI
        ]
    # A and D: the moduli a scan finds irreducible, tagged by family
    kind, lo, hi, family = {
        "A": ("quasi", 2, 1000, quasi_family),
        "D": ("semi", 4, 2500, semi_family),
    }[which]
    result = run_scan(ScanJob(kind=kind, lo=lo, hi=hi, workers=workers))
    return [
        {"N": row["N"], "tag": family(row["N"]) or "numerical_only"}
        for row in result.rows
        if row["verdict"]
    ]


def rows_to_csv(rows: list[dict], columns: Iterable[str] = ()) -> str:
    """Flatten rows to CSV with stable columns: the given columns first,
    so that an empty table still has its header, then the rest in
    first-seen order.  A counterexample's fields become unprefixed
    columns after the others; any other nested object's fields become
    key_field columns, as in the text format; lists are space-joined."""
    fieldnames = list(columns)
    flat_rows = []
    for row in rows:
        flat = {}
        for key, value in row.items():
            if key == "counterexample":
                continue
            if isinstance(value, dict):
                flat.update({f"{key}_{k}": v for k, v in value.items()})
            elif isinstance(value, list):
                flat[key] = " ".join(str(v) for v in value)
            else:
                flat[key] = value
        flat.update(row.get("counterexample") or {})
        for key in flat:
            if key not in fieldnames:
                fieldnames.append(key)
        flat_rows.append(flat)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames)
    writer.writeheader()
    for flat in flat_rows:
        writer.writerow(flat)
    return out.getvalue()

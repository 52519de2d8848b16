"""Range scanning: chunked execution, worker-count independence,
checkpoint/resume, the prime survey, and the reference tables."""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import os
import tracemalloc

import pytest

from conftest import load_data
from monomod import classify, cli, monomial, scan
from monomod.classify import omega_count, predict_conjecture, predict_quasi, semi_family
from monomod.modring import ResidueRing
from monomod.monomial import minimal_size, minimal_size_prime_fast
from monomod.scan import (
    CheckpointError,
    ScanJob,
    checkpoint_resume,
    emit_appendix,
    rows_to_csv,
    run_scan,
    scan_conjecture,
)
from monomod._numbers import sieve_primes
from oracles import euler_phi, survey_by_scan, survey_spot_check


def test_scan_job_validates_fields():
    with pytest.raises(ValueError):
        ScanJob(kind="quasi", lo=1, hi=10)
    with pytest.raises(ValueError):
        ScanJob(kind="quasi", lo=10, hi=9)
    with pytest.raises(ValueError):
        ScanJob(kind="quasi", lo=2, hi=10, chunk=0)
    with pytest.raises(ValueError):
        ScanJob(kind="quasi", lo=2, hi=10, workers=0)
    with pytest.raises(ValueError):
        ScanJob(kind="sideways", lo=2, hi=10)
    with pytest.raises(ValueError):
        ScanJob(kind="appendixA", lo=2, hi=10)  # a table, not a range scan


@pytest.mark.parametrize(
    "field,value",
    [
        ("lo", True),
        ("lo", 2.0),
        ("hi", "10"),
        ("chunk", True),
        ("chunk", 8.0),
        ("workers", True),
        ("include_odd", 1),
        ("include_odd", "yes"),
        ("checkpoint", 1),
        ("checkpoint", ""),
        ("checkpoint", b"scan.ckpt"),
        ("fsync", "no"),
        ("fsync", 1),
    ],
)
def test_scan_job_rejects_mistyped_fields(field, value):
    """A mistyped field is refused when the job is made, not written into
    a checkpoint that the same job could then not resume from."""
    fields = {"kind": "semi", "lo": 4, "hi": 40, "chunk": 8}
    with pytest.raises(ValueError, match=f"^{field} must be an? "):
        ScanJob(**{**fields, field: value})


@pytest.mark.parametrize("max_chunks", [True, 1.0, "2"])
def test_run_scan_rejects_mistyped_max_chunks(max_chunks):
    with pytest.raises(ValueError, match="^max_chunks must be an integer"):
        run_scan(ScanJob(kind="quasi", lo=2, hi=10), max_chunks=max_chunks)


def test_checkpoint_may_be_a_path_object(tmp_path):
    path = tmp_path / "scan.ckpt"
    result = run_scan(ScanJob(kind="quasi", lo=2, hi=10, chunk=4, checkpoint=path))
    assert result.completed_to == 10
    assert checkpoint_resume(str(path)) == ScanJob(
        kind="quasi", lo=2, hi=10, chunk=4, checkpoint=str(path)
    )


def test_run_scan_rejects_non_range_kinds():
    with pytest.raises(ValueError):
        run_scan(ScanJob(kind="conjecture", lo=2, hi=10))


def test_scan_rows_are_ordered_and_anomaly_free():
    result = run_scan(ScanJob(kind="quasi", lo=2, hi=120))
    assert [row["N"] for row in result.rows] == list(range(2, 121))
    assert result.anomalies == []
    assert result.completed_to == 120
    for row in result.rows:
        assert row["verdict"] == predict_quasi(row["N"])
        if row["verdict"]:
            assert "counterexample" not in row
        else:
            assert set(row["counterexample"]) == {"k", "x", "len"}


def test_semi_scan_skips_odd_moduli_by_default():
    even_only = run_scan(ScanJob(kind="semi", lo=4, hi=40))
    assert all(row["N"] % 2 == 0 for row in even_only.rows)
    with_odd = run_scan(ScanJob(kind="semi", lo=4, hi=40, include_odd=True))
    assert [row["N"] for row in with_odd.rows] == list(range(4, 41))
    evens = [row for row in with_odd.rows if row["N"] % 2 == 0]
    assert evens == even_only.rows


def test_semi_scan_with_odd_moduli_matches_the_odd_prime_power_rule():
    result = run_scan(ScanJob(kind="semi", lo=3, hi=300, include_odd=True))
    assert result.anomalies == []
    odd = {row["N"]: row["verdict"] for row in result.rows if row["N"] % 2 == 1}
    assert odd[3] and odd[27] and odd[289]  # odd prime powers
    assert not odd[15] and not odd[225]


def test_anomalies_are_reported_kept_across_resume_and_exit_1(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setitem(classify.PREDICTORS, "quasi", lambda n: not predict_quasi(n))
    full = run_scan(ScanJob(kind="quasi", lo=2, hi=40, chunk=8))
    assert [a["N"] for a in full.anomalies] == list(range(2, 41))
    for anomaly, row in zip(full.anomalies, full.rows):
        assert anomaly == {
            "N": row["N"],
            "kind": "quasi",
            "expected": not row["verdict"],
            "got": row["verdict"],
        }

    path = str(tmp_path / "scan.ckpt")
    job = ScanJob(kind="quasi", lo=2, hi=40, chunk=8, checkpoint=path)
    partial = run_scan(job, max_chunks=2)
    assert partial.anomalies == full.anomalies[:16]
    assert run_scan(job).anomalies == full.anomalies

    argv = ["scan", "--kind", "quasi", "--from", "2", "--to", "40", "--format", "json"]
    assert cli.run(argv) == 1
    assert capsys.readouterr().err.startswith("39 anomalies: ")


def test_omega_scan_rows():
    result = run_scan(ScanJob(kind="omega", lo=2, hi=20))
    for row in result.rows:
        ring = ResidueRing(row["N"])
        assert row["phi"] == euler_phi(row["N"])
        assert row["omega"] == omega_count(ring)


def test_worker_count_does_not_change_output():
    single = run_scan(ScanJob(kind="quasi", lo=2, hi=120, chunk=8, workers=1))
    pooled = run_scan(ScanJob(kind="quasi", lo=2, hi=120, chunk=8, workers=3))
    assert json.dumps(single.rows) == json.dumps(pooled.rows)
    assert single.anomalies == pooled.anomalies


def test_streaming_callback_sees_every_row_in_order():
    streamed: list[dict] = []
    result = run_scan(
        ScanJob(kind="monomial", lo=2, hi=50, chunk=7), on_rows=streamed.extend
    )
    assert streamed == result.rows


def test_checkpoint_resume_round_trip(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    job = ScanJob(kind="quasi", lo=2, hi=90, chunk=10, checkpoint=path)
    full = run_scan(ScanJob(kind="quasi", lo=2, hi=90, chunk=10))

    partial = run_scan(job, max_chunks=3)
    assert partial.completed_to == 31  # 3 chunks of 10 from lo=2
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 3
    assert records[-1]["completed_to"] == 31

    resumed = run_scan(job)
    assert resumed.completed_to == 90
    assert json.dumps(partial.rows + resumed.rows) == json.dumps(full.rows)
    # a further run has nothing left to do
    idle = run_scan(job)
    assert idle.rows == [] and idle.completed_to == 90


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_go_out_before_their_checkpoint_record(tmp_path, workers):
    path = str(tmp_path / "scan.ckpt")
    seen = []

    def on_rows(rows):
        record, _ = scan._read_checkpoint(path)
        covered = record["completed_to"] if record is not None else 1
        seen.append((covered, rows[0]["N"]))

    run_scan(
        ScanJob(kind="quasi", lo=2, hi=60, chunk=8, checkpoint=path, workers=workers),
        on_rows=on_rows,
    )
    assert len(seen) == 8
    assert all(covered < first for covered, first in seen), seen


def test_consumer_error_cancels_queued_chunks(monkeypatch):
    shutdowns = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)

    def on_rows(rows):
        raise BrokenPipeError

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    with pytest.raises(BrokenPipeError):
        run_scan(ScanJob(kind="quasi", lo=2, hi=400, chunk=4, workers=2), on_rows=on_rows)
    assert shutdowns[0] is True

    shutdowns.clear()
    run_scan(ScanJob(kind="quasi", lo=2, hi=40, chunk=4, workers=2))
    assert shutdowns == [False]


class _SubmitSpy(concurrent.futures.ProcessPoolExecutor):
    """A real pool that records every submit and shutdown call."""

    calls: list = []

    def submit(self, fn, *args, **kwargs):
        self.calls.append("submit")
        return super().submit(fn, *args, **kwargs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.calls.append(("shutdown", cancel_futures))
        super().shutdown(wait, cancel_futures=cancel_futures)


def test_pool_holds_at_most_two_chunks_per_worker(monkeypatch):
    monkeypatch.setattr(_SubmitSpy, "calls", [])
    seen = []

    def on_rows(rows):
        seen.append((len(seen), _SubmitSpy.calls.count("submit")))

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SubmitSpy)
    pooled = run_scan(ScanJob("quasi", 2, 2000, chunk=8, workers=2), on_rows=on_rows)
    assert len(seen) == 250
    assert all(submitted <= i + 1 + 2 * 2 for i, submitted in seen), seen
    assert pooled.rows == run_scan(ScanJob("quasi", 2, 2000, chunk=8)).rows


def test_consumer_error_stops_a_huge_pooled_scan_at_once(monkeypatch):
    monkeypatch.setattr(_SubmitSpy, "calls", [])

    class Sentinel(Exception):
        pass

    def on_rows(rows):
        raise Sentinel

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SubmitSpy)
    with pytest.raises(Sentinel):
        run_scan(ScanJob("quasi", 2, 10**12, workers=2), on_rows=on_rows)
    submits = [c for c in _SubmitSpy.calls if c == "submit"]
    shutdowns = [c for c in _SubmitSpy.calls if c != "submit"]
    assert len(submits) <= 5
    assert shutdowns[0] == ("shutdown", True)


def test_pool_is_no_larger_than_the_chunk_count(monkeypatch):
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    one_chunk = run_scan(ScanJob(kind="quasi", lo=2, hi=20, workers=4))
    assert sizes == []  # a single chunk runs in this process
    two_chunks = run_scan(ScanJob(kind="quasi", lo=2, hi=20, chunk=10, workers=4))
    assert sizes == [2]
    assert one_chunk.rows == two_chunks.rows


def test_pool_is_no_larger_than_the_cpu_count(monkeypatch):
    sizes = []

    class Refused(Exception):
        pass

    def recording_pool(max_workers=None, **kwargs):
        sizes.append(max_workers)
        raise Refused  # before any process starts

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    with pytest.raises(Refused):
        run_scan(ScanJob("quasi", 2, 5001, chunk=1, workers=5000))
    assert sizes == [2]
    # more chunks than sys.maxsize: the pool is sized without len()
    with pytest.raises(Refused):
        run_scan(ScanJob("quasi", 2, 10**30, workers=3))
    assert sizes == [2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker
    assert len(run_scan(ScanJob("quasi", 2, 20, chunk=5, workers=4)).rows) == 19
    assert sizes == [2, 2]


def _listed_plan(job, start, max_chunks):
    """The plan as it once was: every candidate listed, then cut into
    tuples of job.chunk."""
    candidates = [
        n
        for n in range(start, job.hi + 1)
        if job.kind != "semi" or job.include_odd or n % 2 == 0
    ]
    chunks = [
        tuple(candidates[i : i + job.chunk])
        for i in range(0, len(candidates), job.chunk)
    ]
    return chunks[:max_chunks]


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("lo", [2, 3])
@pytest.mark.parametrize(
    "kind,include_odd",
    [(kind, False) for kind in scan.SCAN_KINDS] + [("semi", True)],
)
def test_chunks_follow_the_listed_plan(tmp_path, kind, include_odd, lo, chunk):
    def run(job, max_chunks=None):
        seen = []
        result = run_scan(
            job,
            on_rows=lambda rows: seen.append(tuple(row["N"] for row in rows)),
            max_chunks=max_chunks,
        )
        return seen, result.completed_to

    def records_for(plan):
        return [
            {
                "job": kind,
                "lo": lo,
                "hi": lo + 20,
                "chunk": chunk,
                "include_odd": include_odd,
                "completed_to": ns[-1],
                "anomalies": [],
            }
            for ns in plan
        ]

    def recorded(path):
        with open(path) as fh:
            return [json.loads(line) for line in fh]

    for max_chunks in (None, 0, 1, 2):
        path = tmp_path / f"{max_chunks}.ckpt"
        job = ScanJob(kind, lo, lo + 20, chunk=chunk, include_odd=include_odd, checkpoint=str(path))
        plan = _listed_plan(job, lo, max_chunks)
        assert run(job, max_chunks) == (plan, plan[-1][-1] if plan else lo - 1)
        assert recorded(path) == records_for(plan)

    # a two-chunk run, then a resume from its checkpoint
    path = tmp_path / "resumed.ckpt"
    job = ScanJob(kind, lo, lo + 20, chunk=chunk, include_odd=include_odd, checkpoint=str(path))
    first, completed = run(job, 2)
    assert first == _listed_plan(job, lo, 2)
    rest = _listed_plan(job, completed + 1, None)
    assert run(job) == (rest, rest[-1][-1] if rest else completed)
    assert first + rest == _listed_plan(job, lo, None)
    assert recorded(path) == records_for(first + rest)


@pytest.mark.parametrize("kind", ["quasi", "semi"])
def test_a_one_chunk_slice_does_not_list_the_range(kind):
    tracemalloc.start()
    try:
        result = run_scan(ScanJob(kind, 2, 2 * 10**6), max_chunks=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.rows) == 64
    assert peak < 1_000_000


@pytest.mark.parametrize("kind", ["quasi", "semi", "omega"])
def test_a_one_chunk_slice_of_a_huge_range_starts_at_once(kind):
    tracemalloc.start()
    try:
        result = run_scan(ScanJob(kind, 3, 10**30), max_chunks=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first, step = (4, 2) if kind == "semi" else (3, 1)
    assert [row["N"] for row in result.rows] == list(range(first, first + 64 * step, step))
    assert result.completed_to == result.rows[-1]["N"]
    assert peak < 1_000_000


def test_negative_max_chunks_is_rejected(tmp_path):
    path = tmp_path / "scan.ckpt"
    job = ScanJob(kind="quasi", lo=2, hi=200, chunk=50, checkpoint=str(path))
    with pytest.raises(ValueError, match="max_chunks"):
        run_scan(job, max_chunks=-1)
    assert not path.exists()  # refused before the checkpoint was opened
    assert run_scan(job, max_chunks=0).rows == []


def test_torn_final_checkpoint_line_is_dropped(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    job = ScanJob(kind="quasi", lo=2, hi=90, chunk=10, checkpoint=path)
    partial = run_scan(job, max_chunks=3)
    with open(path) as fh:
        intact = fh.read()
    with open(path, "a") as fh:
        fh.write('{"job":"quasi","lo":2,"hi":90,"include_o')
    assert checkpoint_resume(path) == job

    resumed = run_scan(job)
    full = run_scan(ScanJob(kind="quasi", lo=2, hi=90, chunk=10))
    assert partial.rows + resumed.rows == full.rows
    with open(path) as fh:
        text = fh.read()
    assert text.startswith(intact) and text.endswith("\n")
    assert [json.loads(line)["completed_to"] for line in text.splitlines()] == [
        11, 21, 31, 41, 51, 61, 71, 81, 90
    ]

    # a checkpoint holding only a torn first append starts afresh
    with open(path, "w") as fh:
        fh.write('{"job":"qua')
    assert run_scan(job).rows == full.rows


def test_blank_checkpoint_lines_are_skipped_on_resume(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    job = ScanJob(kind="quasi", lo=2, hi=90, chunk=10, checkpoint=path)
    partial = run_scan(job, max_chunks=3)
    with open(path) as fh:
        records = fh.read().splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.write("\n" + "  \n".join(records) + "\n")  # blank lines first, between and last
    assert checkpoint_resume(path) == job

    resumed = run_scan(job)
    assert resumed.rows[0]["N"] == 32
    assert partial.rows + resumed.rows == run_scan(ScanJob(kind="quasi", lo=2, hi=90)).rows


def test_fsync_flushes_then_syncs_each_checkpoint_record(monkeypatch, tmp_path):
    path = tmp_path / "scan.ckpt"
    synced = []  # (inode, size on disk) at each fsync

    def fsync(fd):
        stat = os.fstat(fd)
        synced.append((stat.st_ino, stat.st_size))

    monkeypatch.setattr(os, "fsync", fsync)
    argv = ["scan", "--kind", "quasi", "--from", "2", "--to", "40", "--chunk", "10",
            "--checkpoint", str(path), "--fsync", "--format", "json"]
    assert cli.run(argv) == 0
    ends = list(itertools.accumulate(len(line) for line in path.read_bytes().splitlines(True)))
    assert synced == [(path.stat().st_ino, end) for end in ends]
    assert len(synced) == 4

    synced.clear()
    path.unlink()
    run_scan(ScanJob(kind="quasi", lo=2, hi=40, chunk=10, checkpoint=str(path)))
    assert synced == []  # off by default


def test_unterminated_line_before_others_is_corruption(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    job = ScanJob(kind="quasi", lo=2, hi=90, chunk=10, checkpoint=path)
    run_scan(job, max_chunks=1)
    with open(path) as fh:
        good = fh.read()
    with open(path, "w") as fh:
        fh.write('{"job":"quasi","lo":2,' + good)
    with pytest.raises(CheckpointError, match="line 1"):
        run_scan(job)
    with pytest.raises(CheckpointError, match="line 1"):
        checkpoint_resume(path)


def test_checkpoint_resume_restores_chunk(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    job = ScanJob(kind="quasi", lo=2, hi=90, chunk=10, checkpoint=path)
    run_scan(job, max_chunks=3)
    assert checkpoint_resume(path) == job


def test_reading_a_checkpoint_builds_each_record_job_once(tmp_path, monkeypatch):
    path = str(tmp_path / "scan.ckpt")
    job = ScanJob(kind="quasi", lo=2, hi=90, chunk=10, checkpoint=path)
    run_scan(job, max_chunks=3)
    recorded, built = scan._recorded_job, []

    def spy(record, where):
        built.append(record["completed_to"])
        return recorded(record, where)

    monkeypatch.setattr(scan, "_recorded_job", spy)
    assert checkpoint_resume(path) == job
    assert built == [11, 21, 31]  # one build per record, the last one kept
    built.clear()
    assert run_scan(job, max_chunks=1).completed_to == 41
    assert built == [11, 21, 31]


def test_checkpoint_resume_reconstructs_job(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    with open(path, "w") as fh:
        fh.write(
            json.dumps(
                {
                    "job": "quasi",
                    "lo": 2,
                    "hi": 1000,
                    "include_odd": False,
                    "completed_to": 500,
                    "anomalies": [],
                }
            )
            + "\n"
        )
    job = checkpoint_resume(path)
    assert (job.kind, job.lo, job.hi, job.checkpoint) == ("quasi", 2, 1000, path)
    assert job.chunk == ScanJob.chunk  # a record without `chunk` takes the default
    # running the reconstructed job picks up at 501
    resumed = run_scan(job, max_chunks=1)
    assert [row["N"] for row in resumed.rows] == list(range(501, 501 + job.chunk))
    fresh = run_scan(ScanJob(kind="quasi", lo=501, hi=500 + job.chunk))
    assert resumed.rows == fresh.rows


def test_fresh_checkpoint_starts_at_lo(tmp_path):
    path = str(tmp_path / "fresh.ckpt")
    result = run_scan(ScanJob(kind="monomial", lo=5, hi=20, checkpoint=path))
    assert result.rows[0]["N"] == 5
    assert checkpoint_resume(path).lo == 5


def test_corrupt_checkpoint_names_the_line(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    good = {
        "job": "quasi",
        "lo": 2,
        "hi": 50,
        "include_odd": False,
        "completed_to": 10,
        "anomalies": [],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(good) + "\n")
        fh.write("{truncated\n")
    with pytest.raises(CheckpointError, match="line 2"):
        run_scan(ScanJob(kind="quasi", lo=2, hi=50, checkpoint=path))
    with open(path, "w") as fh:
        fh.write(json.dumps({"job": "quasi", "lo": 2}) + "\n")
    with pytest.raises(CheckpointError, match="line 1"):
        checkpoint_resume(path)


@pytest.mark.parametrize(
    "line",
    ["5", "[1,2]", '"job lo hi include_odd completed_to anomalies"'],
    ids=["number", "list", "string"],
)
def test_checkpoint_record_that_is_not_an_object_is_corruption(tmp_path, line):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "w") as fh:
        fh.write(line + "\n")
    with pytest.raises(CheckpointError, match="line 1 .*not a JSON object"):
        run_scan(ScanJob(kind="quasi", lo=2, hi=20, checkpoint=path))
    with pytest.raises(CheckpointError, match="line 1 .*not a JSON object"):
        checkpoint_resume(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("completed_to", "5"),
        ("completed_to", True),
        ("completed_to", 500),  # past hi
        ("completed_to", 0),  # before lo - 1
        ("lo", 2.0),
        ("lo", 1),
        ("hi", "20"),
        ("job", "appendixA"),
        ("include_odd", "no"),
        ("anomalies", 7),
        ("anomalies", [5]),
        ("chunk", "8"),
        ("chunk", 0),
    ],
)
def test_mistyped_or_out_of_range_record_field_is_corruption(
    tmp_path, capsys, field, value
):
    path = str(tmp_path / "bad.ckpt")
    record = {
        "job": "quasi",
        "lo": 2,
        "hi": 20,
        "chunk": 8,
        "include_odd": False,
        "completed_to": 9,
        "anomalies": [],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(record) + "\n")
    assert checkpoint_resume(path) == ScanJob("quasi", 2, 20, chunk=8, checkpoint=path)

    record[field] = value
    with open(path, "w") as fh:
        fh.write(json.dumps(record) + "\n")
    message = f"corrupt checkpoint record at line 1 .*{field}"
    with pytest.raises(CheckpointError, match=message):
        checkpoint_resume(path)
    with pytest.raises(CheckpointError, match=message):
        run_scan(ScanJob(kind="quasi", lo=2, hi=20, checkpoint=path))
    argv = ["scan", "--kind", "quasi", "--from", "2", "--to", "20", "--checkpoint", path]
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "corrupt checkpoint record at line 1" in err


def test_checkpoint_for_different_job_is_rejected(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    run_scan(ScanJob(kind="quasi", lo=2, hi=40, checkpoint=path), max_chunks=1)
    with pytest.raises(CheckpointError, match="describes job"):
        run_scan(ScanJob(kind="monomial", lo=2, hi=40, checkpoint=path))
    with pytest.raises(CheckpointError):
        run_scan(ScanJob(kind="quasi", lo=2, hi=99, checkpoint=path))


def test_checkpoint_records_include_odd(tmp_path):
    even_only = str(tmp_path / "even.ckpt")
    run_scan(ScanJob(kind="semi", lo=4, hi=60, chunk=4, checkpoint=even_only), max_chunks=2)
    with pytest.raises(CheckpointError, match="include_odd=False, not .* include_odd=True"):
        run_scan(
            ScanJob(kind="semi", lo=4, hi=60, chunk=4, checkpoint=even_only, include_odd=True)
        )

    with_odd = str(tmp_path / "odd.ckpt")
    job = ScanJob(kind="semi", lo=4, hi=60, chunk=4, checkpoint=with_odd, include_odd=True)
    partial = run_scan(job, max_chunks=2)
    resumed = run_scan(checkpoint_resume(with_odd))
    full = run_scan(ScanJob(kind="semi", lo=4, hi=60, include_odd=True))
    assert partial.rows + resumed.rows == full.rows

    with open(with_odd) as fh:
        records = [json.loads(line) for line in fh]
    del records[-1]["include_odd"]
    with open(with_odd, "w") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)
    with pytest.raises(CheckpointError, match="missing field 'include_odd'"):
        checkpoint_resume(with_odd)


def test_empty_checkpoint_file_errors_on_resume(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.touch()
    with pytest.raises(CheckpointError, match="no checkpoint records"):
        checkpoint_resume(str(path))


def test_conjecture_examples():
    assert scan_conjecture(10) == [3, 5, 7]
    assert scan_conjecture(200) == [3, 5, 7, 17, 31, 127]
    with pytest.raises(ValueError):
        scan_conjecture(2)


def test_conjecture_sampled_cross_check_is_clean():
    primes, anomalies = survey_spot_check(2000, sample_den=3)
    assert primes == [3, 5, 7, 17, 31, 127, 257]
    assert anomalies == []


def test_conjecture_check_reports_a_fast_size_the_walk_disagrees_with(monkeypatch):
    fast = scan.minimal_size_prime_fast

    def wrong_at_5_1(p, k):
        r, eps = fast(p, k)
        return (r + 1, eps) if (p, k) == (5, 1) else (r, eps)

    monkeypatch.setattr(scan, "minimal_size_prime_fast", wrong_at_5_1)
    _, anomalies = survey_spot_check(13, sample_den=1)  # every pair is sampled
    assert anomalies == [{"p": 5, "k": 1, "fast": [4, -1], "walk": [3, -1]}]


def test_conjecture_check_reports_a_wrong_two_part_verdict(monkeypatch):
    test = scan._size_is_2_mod_4

    def wrong_at_11_5(p, k):
        return False if (p, k) == (11, 5) else test(p, k)

    monkeypatch.setattr(scan, "_size_is_2_mod_4", wrong_at_11_5)
    # (11, 5) is 11's only k with r = 2 mod 4, so 11 wrongly survives
    primes, anomalies = survey_spot_check(13, sample_den=1)
    assert primes == [3, 5, 7, 11]
    assert anomalies == [{"p": 11, "k": 5, "fast": [6, -1], "walk": [6, -1]}]


def test_conjecture_confirms_each_eliminating_k(monkeypatch):
    fast = scan.minimal_size_prime_fast

    def wrong_at_11_5(p, k):
        r, eps = fast(p, k)
        return (r + 1, eps) if (p, k) == (11, 5) else (r, eps)

    monkeypatch.setattr(scan, "minimal_size_prime_fast", wrong_at_11_5)
    with pytest.raises(RuntimeError, match="p=11, k=5"):
        scan_conjecture(13)


def _conjecture_by_full_sizes(max_prime: int) -> list[int]:
    """The survey as it was before the 2-part test: the full size of
    every examined k, from minimal_size_prime_fast."""
    survivors = []
    for p in sieve_primes(max_prime):
        if p == 2:
            continue
        good = True
        for k in range(1, (p - 1) // 2 + 1):
            r, _ = minimal_size_prime_fast(p, k)
            if r % 4 == 2:
                good = False
                break
        if good:
            survivors.append(p)
    return survivors


@pytest.mark.parametrize("n", [3, 4, 16, 17, 256, 257, 1000, 3000])
def test_conjecture_equals_the_full_size_survey(n):
    assert scan_conjecture(n) == _conjecture_by_full_sizes(n)


@pytest.mark.parametrize("n", [20000, pytest.param(3 * 10**5, marks=pytest.mark.slow)])
def test_conjecture_equals_its_closed_form(n):
    odd_primes = sieve_primes(n)[1:]
    assert scan_conjecture(n) == [p for p in odd_primes if predict_conjecture(p)]


@pytest.mark.parametrize("n", [3, 4, 16, 17, 256, 257, 1000, 3000, 20000])
def test_conjecture_equals_the_ascending_survey(n):
    assert scan_conjecture(n) == survey_by_scan(n)


def test_every_built_k_has_size_2_mod_4():
    """The construction of predict_conjecture's proof, for every odd
    prime p <= 5000: nothing is built for a Fermat or Mersenne prime;
    otherwise every built k lies in [1, (p-1)/2], so never 0, and passes
    the 2-part test, and the first one's size from the generic walk is
    2 mod 4 with sign -1."""
    for p in sieve_primes(5000)[1:]:
        built = list(monomial._built_2_mod_4(p))
        if predict_conjecture(p):
            assert built == [], p
            continue
        assert built, p
        assert all(1 <= k <= (p - 1) // 2 for k in built), p
        assert all(monomial._size_is_2_mod_4(p, k) for k in built), p
        r, eps = minimal_size(ResidueRing(p), built[0])
        assert (r % 4, eps) == (2, -1), (p, built[0])


def test_conjecture_tests_one_k_per_eliminated_prime(monkeypatch):
    """The built k eliminates each prime at the first 2-part test, and
    only a survivor pays for the ascending scan."""
    calls = []
    test = scan._size_is_2_mod_4

    def counted(p, k):
        calls.append(p)
        return test(p, k)

    monkeypatch.setattr(scan, "_size_is_2_mod_4", counted)
    survivors = scan_conjecture(3000)
    odd_primes = sieve_primes(3000)[1:]
    assert len(calls) == len(odd_primes) - len(survivors) + sum(
        (p - 1) // 2 for p in survivors
    )


def test_conjecture_falls_through_to_the_scan(monkeypatch):
    monkeypatch.setattr(scan, "_built_2_mod_4", lambda p: iter(()))
    assert scan_conjecture(3000) == [3, 5, 7, 17, 31, 127, 257]


@pytest.mark.parametrize(
    "n,family",
    [
        (6, "twice_prime_power"),
        (50, "twice_prime_power"),
        (64, "twice_prime_power"),
        (48, "product_closure"),
        (2540, "product_closure"),
        (30, "product_closure"),
        (66, None),
        (44, None),
        (27, "odd_prime_power"),
        (15, None),
    ],
)
def test_semi_family_tags(n, family):
    assert semi_family(n) == family


def test_appendix_a_tags_an_unexplained_member_numerical_only(monkeypatch):
    decide_quasi = classify.DECIDERS["quasi"]

    def ten_is_quasi(ring):
        verdict = decide_quasi(ring)
        if ring.modulus != 10:
            return verdict
        return classify.ClassVerdict(10, "quasi", True, None, verdict.checked_k)

    monkeypatch.setitem(classify.DECIDERS, "quasi", ten_is_quasi)
    tags = {row["N"]: row["tag"] for row in emit_appendix("A")}
    assert tags[10] == "numerical_only"
    assert (tags[9], tags[11], tags[12]) == ("prime_power", "prime", "two_three")


def test_appendix_c_matches_frozen_table():
    table = emit_appendix("C")
    frozen = load_data("reducible_k")
    assert [row["N"] for row in table] == [48, 108, 192, 216, 384, 864]
    for row in table:
        assert row["reducible"] == frozen[str(row["N"])]
    with pytest.raises(ValueError):
        emit_appendix("E")


@pytest.mark.parametrize("which", scan.APPENDICES)
@pytest.mark.parametrize("workers", [0, -3])
def test_every_appendix_rejects_workers_below_one(which, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        emit_appendix(which, workers=workers)


@pytest.mark.parametrize("which", scan.APPENDICES)
@pytest.mark.parametrize("workers", [True, 2.5, "2", None])
def test_every_appendix_rejects_workers_that_are_not_ints(which, workers):
    # before any table is built, as ScanJob checks its own field
    with pytest.raises(ValueError, match="workers must be an integer"):
        emit_appendix(which, workers=workers)


def test_rows_to_csv_flattens_structures():
    rows = [
        {"N": 10, "kind": "quasi", "verdict": True},
        {
            "N": 14,
            "kind": "quasi",
            "verdict": False,
            "counterexample": {"k": 3, "x": 7, "len": 4},
        },
        {"N": 48, "reducible": [0, 4, 12]},
    ]
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "N,kind,verdict,k,x,len,reducible"
    assert lines[2] == "14,quasi,False,3,7,4,"
    assert lines[3].endswith('"0 4 12"') or lines[3].endswith("0 4 12")


def test_rows_to_csv_leads_with_the_given_columns():
    assert rows_to_csv([], ("N", "kind", "verdict")) == "N,kind,verdict\r\n"
    ce = {"k": 3, "x": 6, "len": 4}
    rows = [{"N": 9, "kind": "quasi", "verdict": False, "counterexample": ce}]
    assert rows_to_csv(rows, ("N", "kind", "verdict")) == rows_to_csv(rows)
    assert rows_to_csv(rows, ("verdict",)).splitlines()[0] == "verdict,N,kind,k,x,len"

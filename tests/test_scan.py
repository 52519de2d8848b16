"""Range scanning: chunked execution, worker-count independence,
checkpoint/resume, the prime survey, and the reference tables."""

from __future__ import annotations

import json

import pytest

from conftest import load_data
from monomod import classify, cli, scan
from monomod.classify import omega_count, predict_quasi, semi_family
from monomod.modring import ResidueRing
from monomod.scan import (
    CheckpointError,
    ScanJob,
    checkpoint_resume,
    emit_appendix,
    rows_to_csv,
    run_scan,
    scan_class,
    scan_conjecture,
    scan_conjecture_checked,
)
from monomod._numbers import euler_phi


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


def test_run_scan_rejects_non_range_kinds():
    with pytest.raises(ValueError):
        run_scan(ScanJob(kind="conjecture", lo=2, hi=10))
    with pytest.raises(ValueError):
        scan_class("omega", 2, 10)


def test_scan_rows_are_ordered_and_anomaly_free():
    result = scan_class("quasi", 2, 120)
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


def test_worker_env_cap_rejects_garbage(monkeypatch):
    monkeypatch.setenv("MONOMOD_MAX_WORKERS", "three")
    with pytest.raises(ValueError, match="MONOMOD_MAX_WORKERS"):
        run_scan(ScanJob(kind="quasi", lo=2, hi=20, workers=2))


def test_worker_env_cap_limits_pool(monkeypatch):
    monkeypatch.setenv("MONOMOD_MAX_WORKERS", "1")
    capped = run_scan(ScanJob(kind="quasi", lo=2, hi=60, workers=8))
    plain = run_scan(ScanJob(kind="quasi", lo=2, hi=60, workers=1))
    assert capped.rows == plain.rows


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

    class RecordingPool(scan.ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)

    def on_rows(rows):
        raise BrokenPipeError

    monkeypatch.setattr(scan, "ProcessPoolExecutor", RecordingPool)
    with pytest.raises(BrokenPipeError):
        run_scan(ScanJob(kind="quasi", lo=2, hi=400, chunk=4, workers=2), on_rows=on_rows)
    assert shutdowns[0] is True

    shutdowns.clear()
    run_scan(ScanJob(kind="quasi", lo=2, hi=40, chunk=4, workers=2))
    assert shutdowns == [False]


def test_pool_is_no_larger_than_the_chunk_count(monkeypatch):
    sizes = []

    class RecordingPool(scan.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(scan, "ProcessPoolExecutor", RecordingPool)
    one_chunk = run_scan(ScanJob(kind="quasi", lo=2, hi=20, workers=4))
    assert sizes == []  # a single chunk runs in this process
    two_chunks = run_scan(ScanJob(kind="quasi", lo=2, hi=20, chunk=10, workers=4))
    assert sizes == [2]
    assert one_chunk.rows == two_chunks.rows


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
    primes, anomalies = scan_conjecture_checked(2000, sample_den=3)
    assert primes == [3, 5, 7, 17, 31, 127, 257]
    assert anomalies == []


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


def test_appendix_c_matches_frozen_table():
    table = emit_appendix("C")
    frozen = load_data("reducible_k")
    assert [row["N"] for row in table] == [48, 108, 192, 216, 384, 864]
    for row in table:
        assert row["reducible"] == frozen[str(row["N"])]
    with pytest.raises(ValueError):
        emit_appendix("E")


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

"""Command-line behavior: output formats, exit codes, streaming scans,
and error paths."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import monomod
from conftest import load_data
from monomod import scan
from monomod.cli import run
from monomod.modring import ResidueRing
from monomod.monomial import minimal_size


def _parse_text_fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


def test_size_text(capsys):
    assert run(["size", "17", "5"]) == 0
    assert capsys.readouterr().out.strip() == "r=8 eps=-1"


def test_size_json(capsys):
    assert run(["size", "17", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "modulus": 17,
        "k": 5,
        "size": 8,
        "sign": -1,
    }


def test_size_canonicalizes_k(capsys):
    assert run(["size", "17", "-12", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 5


def test_report_text_and_json_agree(capsys):
    assert run(["report", "42", "10"]) == 0
    text = _parse_text_fields(capsys.readouterr().out.strip())
    assert run(["report", "42", "10", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["irreducible"] is False
    assert text["irreducible"] == "false"
    assert int(text["size"]) == obj["size"] == minimal_size(ResidueRing(42), 10)[0]
    assert obj["witness"] == {"x": 28, "len": 6, "sign": 1}
    assert int(text["witness_x"]) == 28
    assert int(text["witness_len"]) == 6


def test_classify_true_verdict_is_exit_zero(capsys):
    assert run(["classify", "24"]) == 0
    out = capsys.readouterr().out
    assert "verdict=true" in out
    assert "checked=23" in out


def test_classify_false_verdict_json(capsys):
    assert run(["classify", "16", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["modulus"] == 16
    assert obj["kind"] == "monomial"
    assert obj["verdict"] is False
    assert obj["counterexample"]["k"] == 4
    assert set(obj["counterexample"]) == {"k", "x", "len", "sign"}
    assert obj["checked_k"] == [1, 2, 3, 4]


def test_classify_kinds(capsys):
    assert run(["classify", "54", "--kind", "quasi", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True
    assert run(["classify", "30", "--kind", "semi", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] is True
    assert obj["checked_k"] == [2, 4, 8, 14, 16, 22, 26, 28]


def test_reduce_irreducible_text(capsys):
    assert run(["reduce", "30", "8"]) == 0
    assert capsys.readouterr().out.strip() == "irreducible"


def test_reduce_witness_text(capsys):
    assert run(["reduce", "42", "10"]) == 0
    assert capsys.readouterr().out.strip() == "x=28 len=6 sign=1"


def test_reduce_json_null_witness(capsys):
    assert run(["reduce", "30", "8", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "modulus": 30,
        "k": 8,
        "witness": None,
    }


def test_omega_text(capsys):
    assert run(["omega", "6"]) == 0
    assert capsys.readouterr().out.strip() == "N=6 omega=5"


def test_sizes_table_text(capsys):
    assert run(["sizes-table", "17"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert "k=5 r=8" in lines


def test_sizes_table_rejects_composite(capsys):
    assert run(["sizes-table", "18"]) == 2


def test_witness_prop36_json(capsys):
    assert run(["witness", "prop36", "3", "5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "modulus": 15,
        "k": 7,
        "size": 30,
        "source": "prop36",
        "x": 12,
        "len": 5,
        "sign": 1,
        "verified": True,
    }


def test_witness_prop51_text(capsys):
    assert run(["witness", "prop51", "3", "5"]) == 0
    fields = _parse_text_fields(capsys.readouterr().out.strip())
    assert fields["k"] == "8"
    assert fields["size"] == "30"
    assert fields["x"] == "5"
    assert fields["len"] == "27"
    assert fields["verified"] == "true"


def test_witness_lemma41(capsys):
    assert run(["witness", "lemma41", "3", "2", "1", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["modulus"], obj["k"], obj["size"]) == (9, 3, 6)
    assert (obj["x"], obj["len"]) == (6, 4)
    assert obj["verified"] is True


def test_witness_prop34_not_applicable(capsys):
    assert run(["witness", "prop34", "24"]) == 0
    assert capsys.readouterr().out.strip() == "not applicable"
    assert run(["witness", "prop34", "24", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"modulus": 24, "witness": None}


def test_witness_prop34_applicable(capsys):
    assert run(["witness", "prop34", "45", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["k"] == 15
    assert obj["verified"] is True


def test_witness_bad_split_is_usage_error(capsys):
    assert run(["witness", "prop36", "4", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert run(["witness", "prop36", "4", "6", "--format", "json"]) == 2
    obj = json.loads(capsys.readouterr().out)
    assert set(obj["error"]) == {"message", "code"}
    assert obj["error"]["code"] == 2


def test_scan_text(capsys):
    assert run(["scan", "--kind", "monomial", "--from", "2", "--to", "30"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 29
    assert lines[0] == "N=2 kind=monomial verdict=true"
    sixteen = next(line for line in lines if line.startswith("N=16 "))
    assert "verdict=false" in sixteen
    assert "counterexample_k=4" in sixteen


def test_scan_json_stream(capsys):
    assert run(
        ["scan", "--kind", "monomial", "--from", "2", "--to", "30", "--format", "json"]
    ) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [row["N"] for row in rows] == list(range(2, 31))


def test_scan_csv(capsys):
    assert run(
        ["scan", "--kind", "monomial", "--from", "2", "--to", "30", "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,kind,verdict,k,x,len"
    assert len(lines) == 30


def test_scan_checkpoint_unwritable_path_is_io_error(capsys, tmp_path):
    missing = str(tmp_path / "no-such-dir" / "scan.ckpt")
    code = run(
        ["scan", "--kind", "quasi", "--from", "2", "--to", "20", "--checkpoint", missing]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""  # refused before any row went out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_scan_output_is_flushed_before_each_checkpoint_record(monkeypatch, tmp_path, fmt):
    class Stdout:
        def __init__(self):
            self.lines, self.unflushed = 0, 0

        def write(self, text):
            self.unflushed += text.count("\n")
            return len(text)

        def flush(self):
            self.lines += self.unflushed
            self.unflushed = 0

    stdout = Stdout()
    flushed_at_append = []

    def append(job, result):
        flushed_at_append.append((stdout.unflushed, stdout.lines))
        append_checkpoint(job, result)

    append_checkpoint = scan._append_checkpoint
    monkeypatch.setattr(scan, "_append_checkpoint", append)
    monkeypatch.setattr(sys, "stdout", stdout)
    path = str(tmp_path / "scan.ckpt")
    argv = ["scan", "--kind", "quasi", "--from", "2", "--to", "40", "--chunk", "10",
            "--checkpoint", path, "--format", fmt]
    assert run(argv) == 0
    assert flushed_at_append == [(0, 10), (0, 20), (0, 30), (0, 39)]


def test_scan_checkpoint_mismatch_is_usage_error(capsys, tmp_path):
    path = str(tmp_path / "scan.ckpt")
    assert run(
        ["scan", "--kind", "quasi", "--from", "2", "--to", "20", "--checkpoint", path]
    ) == 0
    capsys.readouterr()
    code = run(
        ["scan", "--kind", "monomial", "--from", "2", "--to", "20", "--checkpoint", path]
    )
    assert code == 2


def test_scan_negative_max_chunks_is_usage_error(capsys):
    argv = ["scan", "--kind", "quasi", "--from", "2", "--to", "200", "--chunk", "50",
            "--max-chunks", "-1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_chunks" in captured.err


def test_scan_resume_via_cli(capsys, tmp_path):
    path = str(tmp_path / "scan.ckpt")
    base = ["scan", "--kind", "quasi", "--from", "2", "--to", "40", "--chunk", "10",
            "--checkpoint", path, "--format", "json"]
    assert run(base + ["--max-chunks", "2"]) == 0
    first = capsys.readouterr().out.strip().splitlines()
    assert json.loads(first[-1])["N"] == 21
    assert run(base) == 0
    second = capsys.readouterr().out.strip().splitlines()
    ns = [json.loads(line)["N"] for line in first + second]
    assert ns == list(range(2, 41))


def test_conjecture_formats(capsys):
    assert run(["conjecture", "--max", "200"]) == 0
    assert capsys.readouterr().out.strip() == "3 5 7 17 31 127"
    assert run(["conjecture", "--max", "200", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "max": 200,
        "primes": [3, 5, 7, 17, 31, 127],
    }
    assert run(["conjecture", "--max", "200", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p"
    assert lines[1:] == ["3", "5", "7", "17", "31", "127"]


def test_conjecture_bad_bound(capsys):
    assert run(["conjecture", "--max", "2"]) == 2


def test_appendix_c_json(capsys):
    assert run(["appendix", "C", "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)
    frozen = load_data("reducible_k")
    row = next(entry for entry in table if entry["N"] == 108)
    assert row["reducible"] == frozen["108"]


def test_usage_errors_exit_two(capsys):
    assert run(["bogus"]) == 2
    assert run(["size", "17"]) == 2
    assert run(["classify", "10", "--kind", "alien"]) == 2
    assert run(["appendix", "E"]) == 2
    capsys.readouterr()


def test_bad_modulus_exit_two(capsys):
    assert run(["size", "1", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["size", "1", "1", "--format", "json"]) == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["error"]["code"] == 2


def test_worker_cap_env_garbage_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MONOMOD_MAX_WORKERS", "abc")
    code = run(["scan", "--kind", "quasi", "--from", "2", "--to", "10"])
    assert code == 2
    assert "MONOMOD_MAX_WORKERS" in capsys.readouterr().err


def _env_with_src() -> dict[str, str]:
    """os.environ with the directory of the imported monomod leading PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(monomod.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _assert_size_17_5(cmd: list[str], env: dict[str, str] | None = None) -> None:
    proc = subprocess.run(
        [*cmd, "size", "17", "5"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "r=8 eps=-1"


def test_console_script_installed():
    """The `monomod` console script declared in pyproject.toml resolves to
    a callable, and that callable, run the way an installer's generated
    wrapper runs it, answers `size 17 5` with exit 0 and `r=8 eps=-1`.
    This holds from a source checkout with nothing installed. Whenever an
    installed `monomod` is on PATH, it is run with the same checks too."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "monomod" in scripts
    module, _, attr = scripts["monomod"].partition(":")
    assert module and attr
    # Same shape as the wrapper pip writes for a console_scripts entry point.
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'monomod'\n"
        f"sys.exit({attr}())\n"
    )
    _assert_size_17_5([sys.executable, "-c", wrapper], _env_with_src())

    exe = shutil.which("monomod")
    if exe is not None:
        _assert_size_17_5([exe])


def test_run_callable_from_fresh_interpreter():
    proc = subprocess.run(
        [sys.executable, "-c", "import monomod.cli as c; raise SystemExit(c.run(['omega', '6']))"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_env_with_src(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "N=6 omega=5"


def test_closed_stdout_pipe_exits_quietly():
    """A reader that leaves early (`monomod ... | head -1`) ends the run
    with 141 = 128 + SIGPIPE and nothing on stderr.  The table is larger
    than a pipe buffer, so the writer is still writing when the pipe closes."""
    with subprocess.Popen(
        [sys.executable, "-m", "monomod.cli", "sizes-table", "20011"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env_with_src(),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == b"k=1 r=3\n"
    assert code == 141
    assert stderr == b""

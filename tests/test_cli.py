"""Command-line behavior: output formats, exit codes, streaming scans,
and error paths."""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import pkgutil
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import monomod
from conftest import load_data
from monomod import construct, scan
from monomod.cli import build_parser, run
from monomod.modring import ResidueRing
from monomod.monomial import minimal_size


def _parse_text_fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


# Exact stdout of each command in each format, for runs that exit 0 with
# nothing on stderr.
_PINNED = {
    ("size 17 5", "text"): "r=8 eps=-1\n",
    ("size 17 5", "json"): '{"modulus": 17, "k": 5, "size": 8, "sign": -1}\n',
    ("size 17 5", "csv"): "modulus,k,size,sign\r\n17,5,8,-1\r\n",
    ("size 17 -12", "text"): "r=8 eps=-1\n",
    ("size 17 -12", "json"): '{"modulus": 17, "k": 5, "size": 8, "sign": -1}\n',
    ("size 17 -12", "csv"): "modulus,k,size,sign\r\n17,5,8,-1\r\n",
    ("report 42 10", "text"): (
        "modulus=42 k=10 size=24 sign=1 irreducible=false witness_x=28 witness_len=6 "
        "witness_sign=1\n"
    ),
    ("report 42 10", "json"): (
        '{"modulus": 42, "k": 10, "size": 24, "sign": 1, "irreducible": false, "witness": {"x": '
        '28, "len": 6, "sign": 1}}\n'
    ),
    ("report 42 10", "csv"): (
        "modulus,k,size,sign,irreducible,witness_x,witness_len,witness_sign\r\n"
        "42,10,24,1,False,28,6,1\r\n"
    ),
    ("report 30 8", "text"): "modulus=30 k=8 size=30 sign=1 irreducible=true\n",
    ("report 30 8", "json"): (
        '{"modulus": 30, "k": 8, "size": 30, "sign": 1, "irreducible": true, "witness": null}\n'
    ),
    ("report 30 8", "csv"): "modulus,k,size,sign,irreducible\r\n30,8,30,1,True\r\n",
    ("reduce 42 10", "text"): "x=28 len=6 sign=1\n",
    ("reduce 42 10", "json"): (
        '{"modulus": 42, "k": 10, "witness": {"x": 28, "len": 6, "sign": 1}}\n'
    ),
    ("reduce 42 10", "csv"): "modulus,k,witness_x,witness_len,witness_sign\r\n42,10,28,6,1\r\n",
    ("reduce 30 8", "text"): "irreducible\n",
    ("reduce 30 8", "json"): '{"modulus": 30, "k": 8, "witness": null}\n',
    ("reduce 30 8", "csv"): "modulus,k,witness\r\n30,8,\r\n",
    ("classify 24", "text"): "modulus=24 kind=monomial verdict=true checked=23\n",
    ("classify 24", "json"): (
        '{"modulus": 24, "kind": "monomial", "verdict": true, "counterexample": null, '
        '"checked_k": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, '
        "21, 22, 23]}\n"
    ),
    ("classify 24", "csv"): "modulus,kind,verdict,checked\r\n24,monomial,True,23\r\n",
    ("classify 16", "text"): (
        "modulus=16 kind=monomial verdict=false counterexample_k=4 counterexample_x=12 "
        "counterexample_len=4 counterexample_sign=1 checked=4\n"
    ),
    ("classify 16", "json"): (
        '{"modulus": 16, "kind": "monomial", "verdict": false, "counterexample": {"k": 4, "x": '
        '12, "len": 4, "sign": 1}, "checked_k": [1, 2, 3, 4]}\n'
    ),
    ("classify 16", "csv"): (
        "modulus,kind,verdict,checked,k,x,len,sign\r\n"
        "16,monomial,False,4,4,12,4,1\r\n"
    ),
    ("classify 54 --kind quasi", "text"): "modulus=54 kind=quasi verdict=true checked=18\n",
    ("classify 54 --kind quasi", "json"): (
        '{"modulus": 54, "kind": "quasi", "verdict": true, "counterexample": null, "checked_k": '
        "[1, 5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37, 41, 43, 47, 49, 53]}\n"
    ),
    ("classify 54 --kind quasi", "csv"): "modulus,kind,verdict,checked\r\n54,quasi,True,18\r\n",
    ("classify 10 --kind quasi", "text"): (
        "modulus=10 kind=quasi verdict=false counterexample_k=3 counterexample_x=8 "
        "counterexample_len=5 counterexample_sign=-1 checked=2\n"
    ),
    ("classify 10 --kind quasi", "json"): (
        '{"modulus": 10, "kind": "quasi", "verdict": false, "counterexample": {"k": 3, "x": 8, '
        '"len": 5, "sign": -1}, "checked_k": [1, 3]}\n'
    ),
    ("classify 10 --kind quasi", "csv"): (
        "modulus,kind,verdict,checked,k,x,len,sign\r\n"
        "10,quasi,False,2,3,8,5,-1\r\n"
    ),
    ("classify 30 --kind semi", "text"): "modulus=30 kind=semi verdict=true checked=8\n",
    ("classify 30 --kind semi", "json"): (
        '{"modulus": 30, "kind": "semi", "verdict": true, "counterexample": null, "checked_k": '
        "[2, 4, 8, 14, 16, 22, 26, 28]}\n"
    ),
    ("classify 30 --kind semi", "csv"): "modulus,kind,verdict,checked\r\n30,semi,True,8\r\n",
    ("classify 42 --kind semi", "text"): (
        "modulus=42 kind=semi verdict=false counterexample_k=4 counterexample_x=28 "
        "counterexample_len=6 counterexample_sign=1 checked=2\n"
    ),
    ("classify 42 --kind semi", "json"): (
        '{"modulus": 42, "kind": "semi", "verdict": false, "counterexample": {"k": 4, "x": 28, '
        '"len": 6, "sign": 1}, "checked_k": [2, 4]}\n'
    ),
    ("classify 42 --kind semi", "csv"): (
        "modulus,kind,verdict,checked,k,x,len,sign\r\n"
        "42,semi,False,2,4,28,6,1\r\n"
    ),
    ("omega 6", "text"): "N=6 omega=5\n",
    ("omega 6", "json"): '{"N": 6, "omega": 5}\n',
    ("omega 6", "csv"): "N,omega\r\n6,5\r\n",
    # a prime: answered by its component table, where the k-loop would
    # make 5 * 10**8 find_reduction calls
    ("omega 1000000007", "text"): "N=1000000007 omega=1000000006\n",
    ("omega 1000000007", "json"): '{"N": 1000000007, "omega": 1000000006}\n',
    ("omega 1000000007", "csv"): "N,omega\r\n1000000007,1000000006\r\n",
    ("sizes-table 17", "text"): (
        "k=1 r=3\nk=2 r=17\nk=3 r=9\nk=4 r=9\nk=5 r=8\nk=6 r=4\n"
        "k=7 r=9\nk=8 r=8\n"
    ),
    ("sizes-table 17", "json"): (
        '[{"k": 1, "size": 3}, {"k": 2, "size": 17}, {"k": 3, "size": 9}, {"k": 4, "size": 9}, '
        '{"k": 5, "size": 8}, {"k": 6, "size": 4}, {"k": 7, "size": 9}, {"k": 8, "size": 8}]\n'
    ),
    ("sizes-table 17", "csv"): (
        "k,size\r\n1,3\r\n2,17\r\n3,9\r\n4,9\r\n5,8\r\n"
        "6,4\r\n7,9\r\n8,8\r\n"
    ),
    ("sizes-table 2", "text"): "",
    ("sizes-table 2", "json"): "[]\n",
    ("sizes-table 2", "csv"): "k,size\r\n",
    ("witness prop36 3 5", "text"): (
        "modulus=15 k=7 size=30 source=prop36 x=12 len=5 sign=1 verified=true\n"
    ),
    ("witness prop36 3 5", "json"): (
        '{"modulus": 15, "k": 7, "size": 30, "source": "prop36", "x": 12, "len": 5, "sign": 1, '
        '"verified": true}\n'
    ),
    ("witness prop36 3 5", "csv"): (
        "modulus,k,size,source,x,len,sign,verified\r\n"
        "15,7,30,prop36,12,5,1,True\r\n"
    ),
    ("witness prop51 3 5", "text"): (
        "modulus=15 k=8 size=30 source=prop51 x=5 len=27 sign=1 verified=true\n"
    ),
    ("witness prop51 3 5", "json"): (
        '{"modulus": 15, "k": 8, "size": 30, "source": "prop51", "x": 5, "len": 27, "sign": 1, '
        '"verified": true}\n'
    ),
    ("witness prop51 3 5", "csv"): (
        "modulus,k,size,source,x,len,sign,verified\r\n"
        "15,8,30,prop51,5,27,1,True\r\n"
    ),
    ("witness lemma41 3 2 1", "text"): (
        "modulus=9 k=3 size=6 source=lemma41 x=6 len=4 sign=1 verified=true\n"
    ),
    ("witness lemma41 3 2 1", "json"): (
        '{"modulus": 9, "k": 3, "size": 6, "source": "lemma41", "x": 6, "len": 4, "sign": 1, '
        '"verified": true}\n'
    ),
    ("witness lemma41 3 2 1", "csv"): (
        "modulus,k,size,source,x,len,sign,verified\r\n"
        "9,3,6,lemma41,6,4,1,True\r\n"
    ),
    ("witness lemma41 5 3 1 2", "text"): (
        "modulus=125 k=10 size=50 source=lemma41 x=35 len=20 sign=1 verified=true\n"
    ),
    ("witness lemma41 5 3 1 2", "json"): (
        '{"modulus": 125, "k": 10, "size": 50, "source": "lemma41", "x": 35, "len": 20, "sign": '
        '1, "verified": true}\n'
    ),
    ("witness lemma41 5 3 1 2", "csv"): (
        "modulus,k,size,source,x,len,sign,verified\r\n"
        "125,10,50,lemma41,35,20,1,True\r\n"
    ),
    ("witness prop34 45", "text"): (
        "modulus=45 k=15 size=6 source=prop34 x=30 len=4 sign=1 verified=true\n"
    ),
    ("witness prop34 45", "json"): (
        '{"modulus": 45, "k": 15, "size": 6, "source": "prop34", "x": 30, "len": 4, "sign": 1, '
        '"verified": true}\n'
    ),
    ("witness prop34 45", "csv"): (
        "modulus,k,size,source,x,len,sign,verified\r\n"
        "45,15,6,prop34,30,4,1,True\r\n"
    ),
    ("witness prop34 24", "text"): "not applicable\n",
    ("witness prop34 24", "json"): '{"modulus": 24, "witness": null}\n',
    ("witness prop34 24", "csv"): "modulus,witness\r\n24,\r\n",
    ("scan --kind monomial --from 8 --to 10", "text"): (
        "N=8 kind=monomial verdict=true\nN=9 kind=monomial verdict=false counterexample_k=3 "
        "counterexample_x=6 counterexample_len=4\nN=10 kind=monomial verdict=false "
        "counterexample_k=3 counterexample_x=8 counterexample_len=5\n"
    ),
    ("scan --kind monomial --from 8 --to 10", "json"): (
        '{"N": 8, "kind": "monomial", "verdict": true}\n'
        '{"N": 9, "kind": "monomial", "verdict": false, "counterexample": {"k": 3, "x": 6, '
        '"len": 4}}\n{"N": 10, "kind": "monomial", "verdict": false, "counterexample": {"k": 3, '
        '"x": 8, "len": 5}}\n'
    ),
    ("scan --kind monomial --from 8 --to 10", "csv"): (
        "N,kind,verdict,k,x,len\r\n8,monomial,True,,,\r\n"
        "9,monomial,False,3,6,4\r\n"
        "10,monomial,False,3,8,5\r\n"
    ),
    ("scan --kind quasi --from 13 --to 15 --chunk 2", "text"): (
        "N=13 kind=quasi verdict=true\nN=14 kind=quasi verdict=false counterexample_k=3 "
        "counterexample_x=7 counterexample_len=6\nN=15 kind=quasi verdict=false "
        "counterexample_k=7 counterexample_x=12 counterexample_len=5\n"
    ),
    ("scan --kind quasi --from 13 --to 15 --chunk 2", "json"): (
        '{"N": 13, "kind": "quasi", "verdict": true}\n'
        '{"N": 14, "kind": "quasi", "verdict": false, "counterexample": {"k": 3, "x": 7, "len": '
        '6}}\n{"N": 15, "kind": "quasi", "verdict": false, "counterexample": {"k": 7, "x": 12, '
        '"len": 5}}\n'
    ),
    ("scan --kind quasi --from 13 --to 15 --chunk 2", "csv"): (
        "N,kind,verdict,k,x,len\r\n13,quasi,True,,,\r\n"
        "14,quasi,False,3,7,6\r\n15,quasi,False,7,12,5\r\n"
    ),
    ("scan --kind semi --from 40 --to 44", "text"): (
        "N=40 kind=semi verdict=true\nN=42 kind=semi verdict=false counterexample_k=4 "
        "counterexample_x=28 counterexample_len=6\nN=44 kind=semi verdict=false "
        "counterexample_k=6 counterexample_x=28 counterexample_len=6\n"
    ),
    ("scan --kind semi --from 40 --to 44", "json"): (
        '{"N": 40, "kind": "semi", "verdict": true}\n{"N": 42, "kind": "semi", "verdict": false, '
        '"counterexample": {"k": 4, "x": 28, "len": 6}}\n'
        '{"N": 44, "kind": "semi", "verdict": false, "counterexample": {"k": 6, "x": 28, "len": '
        "6}}\n"
    ),
    ("scan --kind semi --from 40 --to 44", "csv"): (
        "N,kind,verdict,k,x,len\r\n40,semi,True,,,\r\n"
        "42,semi,False,4,28,6\r\n44,semi,False,6,28,6\r\n"
    ),
    ("scan --kind omega --from 5 --to 7", "text"): (
        "N=5 kind=omega phi=4 omega=4\nN=6 kind=omega phi=2 omega=5\n"
        "N=7 kind=omega phi=6 omega=6\n"
    ),
    ("scan --kind omega --from 5 --to 7", "json"): (
        '{"N": 5, "kind": "omega", "phi": 4, "omega": 4}\n'
        '{"N": 6, "kind": "omega", "phi": 2, "omega": 5}\n'
        '{"N": 7, "kind": "omega", "phi": 6, "omega": 6}\n'
    ),
    ("scan --kind omega --from 5 --to 7", "csv"): (
        "N,kind,phi,omega\r\n5,omega,4,4\r\n6,omega,2,5\r\n"
        "7,omega,6,6\r\n"
    ),
    ("scan --kind quasi --from 2 --to 20 --max-chunks 0", "text"): "",
    ("scan --kind quasi --from 2 --to 20 --max-chunks 0", "json"): "",
    ("scan --kind quasi --from 2 --to 20 --max-chunks 0", "csv"): "N,kind,verdict\r\n",
    ("scan --kind omega --from 2 --to 20 --max-chunks 0", "text"): "",
    ("scan --kind omega --from 2 --to 20 --max-chunks 0", "json"): "",
    ("scan --kind omega --from 2 --to 20 --max-chunks 0", "csv"): "N,kind,phi,omega\r\n",
    ("conjecture --max 200", "text"): "3 5 7 17 31 127\n",
    ("conjecture --max 200", "json"): '{"max": 200, "primes": [3, 5, 7, 17, 31, 127]}\n',
    ("conjecture --max 200", "csv"): "p\r\n3\r\n5\r\n7\r\n17\r\n31\r\n127\r\n",
}

_USAGE = (
    "usage: monomod size [-h] [--format {text,json,csv}] N k\n"
    "monomod size: error: the following arguments are required: k\n"
)
_COPRIME = "error: factors must be coprime\n"
# (exit code, stdout, stderr) of runs that fail.
_PINNED_ERRORS = {
    **{("size 17", fmt): (2, "", _USAGE) for fmt in ("text", "csv")},
    ("size 17", "json"): (
        2, '{"error": {"message": "the following arguments are required: k", "code": 2}}\n', ""
    ),
    ("witness prop36 4 6", "text"): (2, "", _COPRIME),
    ("witness prop36 4 6", "json"): (
        2, '{"error": {"message": "factors must be coprime", "code": 2}}\n', ""
    ),
    ("witness prop36 4 6", "csv"): (2, "", _COPRIME),
}


def _appendix_c_outputs() -> dict:
    """Appendix C in each format, spelled out from the frozen table."""
    frozen = load_data("reducible_k")
    rows = [(int(n), " ".join(str(k) for k in frozen[n])) for n in frozen]
    obj = [{"N": int(n), "reducible": frozen[n]} for n in frozen]
    return {
        ("appendix C", "text"): "".join(f"N={n} reducible={ks}\n" for n, ks in rows),
        ("appendix C", "json"): json.dumps(obj) + "\n",
        ("appendix C", "csv"): "N,reducible\r\n" + "".join(f"{n},{ks}\r\n" for n, ks in rows),
    }


_PINNED_CASES = {
    **{key: (0, out, "") for key, out in {**_PINNED, **_appendix_c_outputs()}.items()},
    **_PINNED_ERRORS,
}


@pytest.mark.parametrize("argv,fmt", list(_PINNED_CASES))
def test_command_output_is_pinned(capsys, monkeypatch, argv, fmt):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    code = run([*argv.split(), "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == _PINNED_CASES[argv, fmt]


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


def test_classify_semi_far_past_the_tables(capsys):
    # 4*17*31*127 (product closure) and 2**16, True verdicts the fold gives
    # at once; the candidate loop took about 14 s for the first
    for n, checked in ((267716, 60480), (65536, 16384)):
        assert run(["classify", str(n), "--kind", "semi"]) == 0
        out = capsys.readouterr().out
        assert out == f"modulus={n} kind=semi verdict=true checked={checked}\n"


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_witness_that_fails_verification_exits_one(capsys, monkeypatch, fmt):
    monkeypatch.setattr(construct.ConstructedWitness, "verify", lambda self: False)
    assert run(["witness", "prop36", "3", "5", "--format", fmt]) == 1
    captured = capsys.readouterr()
    if fmt == "json":
        error = json.loads(captured.out)["error"]
        assert error["code"] == 1
        assert error["message"].startswith("certificate failed verification:")
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: certificate failed verification:")
        assert "'verified': False" in captured.err


def test_witness_sources_take_their_parameters(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usages = {
        "prop36": "n m",
        "prop51": "n m",
        "lemma41": "p n t [a]",
        "prop34": "N",
    }
    for source, params in usages.items():
        assert run(["witness", source, "--help"]) == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == (
            f"usage: monomod witness {source} [-h] [--format {{text,json,csv}}] {params}"
        )
    assert run(["witness", "lemma41", "5", "3", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 5  # a defaults to 1


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


@pytest.mark.parametrize("fmt_first", [True, False])
def test_scan_csv_with_checkpoint_is_refused(capsys, tmp_path, fmt_first):
    """CSV is written only after the last chunk, so with a checkpoint a
    crash would leave the checkpoint ahead of the output."""
    path = tmp_path / "scan.ckpt"
    scan_args = ["scan", "--kind", "quasi", "--from", "2", "--to", "20"]
    flags = [["--format", "csv"], ["--checkpoint", str(path)]]
    if not fmt_first:
        flags.reverse()
    assert run(scan_args + flags[0] + flags[1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format csv" in captured.err and "--checkpoint" in captured.err
    assert not path.exists()


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


def test_scan_empty_checkpoint_is_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["scan", "--kind", "quasi", "--from", "2", "--to", "10", "--checkpoint", ""]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: checkpoint must be a non-empty path or None\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        "classify 10 --kind alien --format json",
        "classify 10 --kind alien --format=json",
        "--format json size 17",
        "size 17 x --format json",
        "bogus --format json",
        # abbreviations the command's parser accepts for --format
        "size 17 --form json",
        "size 17 --fo=json",
        "witness prop36 6 --form json",
        "scan --kind semi --from 4 --fo json",
        "size 17 5 --fo json --bogus",
    ],
)
def test_usage_error_in_json_mode_is_one_json_object(capsys, argv):
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    obj = json.loads(captured.out)
    assert obj["error"]["code"] == 2
    assert set(obj["error"]) == {"message", "code"}
    assert captured.out.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "scan --kind semi --from 4 --f json",  # ambiguous: --from, --fsync, --format
        "size 17 --form=csv",
        "size 17 -- --form json",
        "--form json size 17",  # before the command: not an option of size
    ],
)
def test_usage_error_without_json_is_text_on_stderr(capsys, argv):
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


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


@pytest.mark.parametrize("which", scan.APPENDICES)
def test_appendix_workers_below_one_is_usage_error(capsys, which):
    for workers in ("0", "-3"):
        assert run(["appendix", which, "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: workers must be >= 1\n"


def test_api_surface_lists_only_names_that_exist(capsys):
    modules = [monomod] + [
        importlib.import_module(f"monomod.{info.name}")
        for info in pkgutil.iter_modules(monomod.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    which = next(a for a in commands.choices["appendix"]._actions if a.dest == "which")
    assert tuple(which.choices) == scan.APPENDICES
    assert run(["--help"]) == 0
    assert "MONOMOD_MAX_WORKERS" not in capsys.readouterr().out


def test_package_reexports_every_module_surface():
    """Each module's __all__ is its public surface, and the package
    re-exports every name in it as the same object."""
    for info in pkgutil.iter_modules(monomod.__path__):
        module = importlib.import_module(f"monomod.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name in monomod.__all__, f"{module.__name__}.{name}"
            assert getattr(monomod, name) is getattr(module, name), name


def test_oracles_and_dead_code_left_the_library():
    """The oracles live in tests/oracles.py (euler_phi too, since the
    library reads phi from a ring's prime powers, and walk_signature and
    the prime-power descent, since the class tables are in closed form),
    the unused CRT helpers are gone, and the survey has no sampling
    knob."""
    gone = {
        "monomial": ("find_reduction_naive", "_prime_power_size"),
        "classify": ("units_only",),
        "scan": ("scan_conjecture_checked",),
        "construct": ("crt",),
        "_numbers": ("crt", "crt_pair", "euler_phi"),
        "components": ("walk_signature",),
    }
    for module_name, names in gone.items():
        module = importlib.import_module(f"monomod.{module_name}")
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
            assert name not in monomod.__all__, name
    assert "euler_phi" not in monomod.__all__
    assert "euler_phi" not in monomod.classify.__all__
    assert list(inspect.signature(scan.scan_conjecture).parameters) == ["max_prime"]


def _readme_examples() -> list:
    """Each `$ monomod ...` example in the README, as the argv after
    `monomod` and the output lines shown under it.  A command may
    continue over lines ending in a backslash; output stops at a blank
    line or the fence, and lines that are comments (`# ...`) annotate it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = []
    lines = iter(readme.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if not line.startswith("$ monomod "):
            continue
        command = line[2:]
        while command.endswith("\\"):
            command = command[:-1] + next(lines).strip()
        output = []
        for line in lines:
            if line.strip() in ("", "```"):
                break
            if not line.strip().startswith("#"):
                output.append(line)
        argv = shlex.split(command, comments=True)[1:]
        examples.append(pytest.param(argv, output, id=" ".join(argv)))
    return examples


@pytest.mark.parametrize(
    "argv,output",
    [example for example in _readme_examples() if example.values[1]],  # shown with output
)
def test_readme_example_prints_what_it_shows(capsys, argv, output):
    """The README's examples, run in-process: JSON compares parsed,
    since the README wraps it, and text compares line by line up to a
    `...` line, which stands for the rest of the output."""
    assert run(argv) == 0
    printed = capsys.readouterr().out
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        assert json.loads(printed) == json.loads(" ".join(output))
        return
    printed_lines = printed.splitlines()
    if "..." in output:
        output = output[: output.index("...")]
        printed_lines = printed_lines[: len(output)]
    assert printed_lines == output


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


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a pooled scan needs multiprocessing, so importing the CLI, as
    every size/report/reduce query does, must not load it."""
    probe = (
        "import sys, monomod.cli\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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

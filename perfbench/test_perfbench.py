"""Tests of the benchmark's own machinery (run: python3 -m pytest perfbench).

They pin what the per-layer numbers rest on: the counters repeat exactly
on a fixed input, the tracer patches every monomod namespace that binds a
traced function, self time subtracts child spans, and the independent
answer check rejects wrong answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from monomod import classify, cli, scan  # noqa: E402
from monomod.modring import ResidueRing  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402


def small_fixed_run() -> None:
    scan.run_scan(scan.ScanJob("semi", 4, 60))
    scan.run_scan(scan.ScanJob("omega", 2, 30, chunk=8))
    scan.scan_conjecture(400)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["size", "1009", "5"],
            ["report", "42", "10", "--format", "json"],
            ["reduce", "1000002", "3"],  # above the CRT cutoff
        ):
            assert cli.run(argv) == 0


def counters_of_one_run() -> dict[str, dict[str, int]]:
    with Tracer() as tracer:
        small_fixed_run()
    return tracer.counters


def test_counters_repeat_exactly():
    first, second = counters_of_one_run(), counters_of_one_run()
    assert first == second
    assert first["core.order_and_reduction"]["order_sum"] > 0
    assert first["core.order_and_reduction"]["candidates_sum"] > 0
    assert first["core.order_pm"]["order_sum"] > 0
    assert first["solutions.bordered_constraint_roots"]["roots_sum"] > 0
    assert first["solutions.bordered_constraint_roots"]["crt_calls"] == 1
    assert first["classify.decide_semi"]["checked_k_sum"] > 0
    assert first["classify.omega_count"]["calls"] == 29
    assert first["scan.scan_conjecture"]["calls"] == 1
    assert first["numbers.sieve_primes"]["calls"] == 1
    assert first["cli.run"]["calls"] == 3
    for name, counters in first.items():
        assert counters["calls"] > 0, name


def test_tracer_patches_every_namespace_that_binds_a_target():
    originals = [getattr(sys.modules[module], attr) for module, attr, *_ in TARGETS]
    bindings = [
        (namespace, key)
        for namespace in tracing._namespaces()
        for key, value in namespace.items()
        if any(value is original for original in originals)
    ]
    modules_seen = {namespace.get("__name__") for namespace, _ in bindings}
    # find_reduction alone is bound in monomial, classify, scan, cli and the package
    assert {"monomod.classify", "monomod.scan", "monomod.cli", "monomod"} <= modules_seen

    with Tracer() as tracer:
        for namespace, key in bindings:
            assert all(namespace[key] is not original for original in originals), key
        classify.decide_semi(ResidueRing(10))
        after_classify = tracer.counters["monomial.find_reduction"]["calls"]
        assert after_classify > 0
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["reduce", "30", "8"])
            cli.run(["classify", "10", "--kind", "semi"])  # through cli._DECIDERS
        assert tracer.counters["monomial.find_reduction"]["calls"] > after_classify + 1
        assert tracer.counters["classify.decide_semi"]["calls"] == 2
    for namespace, key in bindings:
        assert any(namespace[key] is original for original in originals), key


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans[:] = [("a", 0.0, 10.0, -1), ("b", 2.0, 5.0, 0), ("c", 3.0, 4.0, 1),
                       ("b", 6.0, 7.0, 0)]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_answer_check_rejects_wrong_answers():
    size = workloads.Query("size", 17, 5, 8, "")
    assert workloads.check_answer(size, {"modulus": 17, "k": 5, "size": 8, "sign": -1}) is None
    assert workloads.check_answer(size, {"modulus": 17, "k": 5, "size": 8, "sign": 1})
    assert workloads.check_answer(size, {"modulus": 17, "k": 5, "size": 16, "sign": 1})
    report = workloads.Query("report", 42, 10, 24, "")
    good = {"modulus": 42, "k": 10, "size": 24, "sign": 1, "irreducible": False,
            "witness": {"x": 28, "len": 6, "sign": 1}}
    assert workloads.check_answer(report, good) is None
    assert workloads.check_answer(report, dict(good, witness={"x": 27, "len": 6, "sign": 1}))
    assert workloads.check_answer(report, dict(good, irreducible=True))


def test_cli_blocks_follow_the_seed():
    with open(workloads.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    one = workloads.CliQueries(7, expected).blocks
    assert one == workloads.CliQueries(7, expected).blocks
    assert one != workloads.CliQueries(8, expected).blocks
    for block in one:
        for cmd, slots in workloads.BLOCK_SLOTS.items():
            assert sum(q.cmd == cmd for q in block) == slots

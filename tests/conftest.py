"""Shared test fixtures: frozen reference tables and a tiny raw-tuple
2x2 matrix calculator used by the exhaustive brute-force suites (the
Mat2 class is too slow for million-product enumerations)."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


def load_data(name: str):
    with open(DATA_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def mk(k: int, n: int) -> tuple[int, int, int, int]:
    """The generator [[k, -1], [1, 0]] as a flat (a, b, c, d) tuple."""
    return (k % n, n - 1, 1, 0)


def mul(
    m1: tuple[int, int, int, int], m2: tuple[int, int, int, int], n: int
) -> tuple[int, int, int, int]:
    a, b, c, d = m1
    e, f, g, h = m2
    return (
        (a * e + b * g) % n,
        (a * f + b * h) % n,
        (c * e + d * g) % n,
        (c * f + d * h) % n,
    )


def pm(m: tuple[int, int, int, int], n: int) -> int | None:
    a, b, c, d = m
    if b != 0 or c != 0:
        return None
    if a == 1 and d == 1:
        return 1
    if a == n - 1 and d == n - 1:
        return -1
    return None


def tuple_chain(values, n: int) -> tuple[int, int, int, int]:
    """M(a_last) * ... * M(a_first) on flat tuples."""
    acc = mk(values[0], n)
    for v in values[1:]:
        acc = mul(mk(v, n), acc, n)
    return acc


def solutions_of_length(n: int, length: int) -> list[tuple[int, ...]]:
    """All solution tuples of one length, by splitting the product in two:
    (prefix, suffix) solves iff chain(suffix) = +/- chain(prefix)**-1."""
    half = length // 2
    by_matrix: dict[tuple[int, int, int, int], list[tuple[int, ...]]] = {}
    for suffix in itertools.product(range(n), repeat=length - half):
        by_matrix.setdefault(tuple_chain(suffix, n), []).append(suffix)
    out = []
    for prefix in itertools.product(range(n), repeat=half):
        a, b, c, d = tuple_chain(prefix, n)
        inv = (d, (-b) % n, (-c) % n, a)
        for target in (inv, tuple((-v) % n for v in inv)):
            for suffix in by_matrix.get(target, ()):
                out.append(prefix + suffix)
    return sorted(set(out))


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, ()):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid and (
                status == "skipped" or getattr(rep, "when", "call") == "call"
            ):
                outcomes[nodeid.split("::")[-1]] = status.upper()
    if outcomes:
        terminalreporter.section("acceptance criteria")
        for name in sorted(outcomes):
            terminalreporter.write_line(f"{name}: {outcomes[name]}")

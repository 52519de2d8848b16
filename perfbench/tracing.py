"""Spans and counters around monomod's public functions, recorded from
outside the package.

A `Tracer` replaces each traced function with a wrapper in every
``monomod`` namespace that binds it: module attributes and values of
module-level dicts.  The package's modules import these functions by
name (``classify``, ``scan``, ``monomial`` and ``cli`` all do), so
patching only the defining module would silently miss their calls.

Spans are kept in memory as (name, start, end, parent) and written out
when the run ends.  A span's self time is its duration minus the time
covered by its direct children; the program is single-threaded inside
one process, so children never overlap.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from time import perf_counter

CRT_CUTOFF = 10**6  # bordered_constraint_roots switches to CRT roots above this N


def _count_order_and_reduction(c: dict, args: tuple, result) -> None:
    c["order_sum"] += result[0]
    c["candidates_sum"] += len(args[2])


def _count_order_pm(c: dict, args: tuple, result) -> None:
    c["order_sum"] += result[0]


def _count_roots(c: dict, args: tuple, result) -> None:
    c["roots_sum"] += len(result)
    c["crt_calls"] += args[0].modulus > CRT_CUTOFF


def _count_find_reduction(c: dict, args: tuple, result) -> None:
    c["witnesses"] += result is not None


def _count_decide_semi(c: dict, args: tuple, result) -> None:
    c["checked_k_sum"] += len(result.checked_k)


# (module, function, span name, counter names, counter hook).  Span
# names are the metric prefixes; `_numbers` is reported as `numbers`
# because a metric name must start with a letter.
TARGETS: tuple[tuple[str, str, str, tuple[str, ...], Callable | None], ...] = (
    ("monomod.core", "order_and_reduction", "core.order_and_reduction",
     ("order_sum", "candidates_sum"), _count_order_and_reduction),
    ("monomod.core", "order_pm", "core.order_pm", ("order_sum",), _count_order_pm),
    ("monomod.solutions", "bordered_constraint_roots",
     "solutions.bordered_constraint_roots", ("roots_sum", "crt_calls"), _count_roots),
    ("monomod.monomial", "find_reduction", "monomial.find_reduction",
     ("witnesses",), _count_find_reduction),
    ("monomod.monomial", "report", "monomial.report", (), None),
    ("monomod.monomial", "minimal_size", "monomial.minimal_size", (), None),
    ("monomod.monomial", "minimal_size_prime_fast",
     "monomial.minimal_size_prime_fast", (), None),
    ("monomod._numbers", "factorize", "numbers.factorize", (), None),
    ("monomod._numbers", "sieve_primes", "numbers.sieve_primes", (), None),
    ("monomod.classify", "decide_semi", "classify.decide_semi",
     ("checked_k_sum",), _count_decide_semi),
    ("monomod.classify", "omega_count", "classify.omega_count", (), None),
    ("monomod.scan", "run_scan", "scan.run_scan", (), None),
    ("monomod.scan", "scan_conjecture", "scan.scan_conjecture", (), None),
    ("monomod.cli", "run", "cli.run", (), None),
)


def _namespaces() -> list[dict]:
    """Every monomod module dict and every dict value held by one."""
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "monomod" or name.startswith("monomod.")):
            continue
        namespace = vars(module)
        out.append(namespace)
        out.extend(v for v in namespace.values() if isinstance(v, dict))
    return out


class Tracer:
    """Records spans and counters while installed; `uninstall` restores
    every binding it replaced."""

    def __init__(self) -> None:
        # A slot is None only while its call is running.
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def span(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """`fn` wrapped so that each call records one span under `name`
        and counts it in `counters[name]` when that exists.  A span with
        no parent is the root of one operation (a scan pass, a survey,
        a query); its descendants belong to that operation."""
        spans, stack = self.spans, self._stack
        counters = self.counters.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counters is not None:
                counters["calls"] += 1
                if count is not None:
                    count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import monomod.cli  # noqa: F401  (cli is not imported by the package itself)

        namespaces = _namespaces()
        for module, attr, name, extra, count in TARGETS:
            original = getattr(sys.modules[module], attr)
            self.counters[name] = dict.fromkeys(("calls",) + extra, 0)
            wrapper = self.span(name, original, count)
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        self._patched.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), child in zip(spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - child
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """`<span>.calls`, `<span>.self_s` and each counter, with the
        ratio counters turned into shares of calls."""
        self_s = self.self_times()
        out: dict[str, float] = {}
        for name, counters in self.counters.items():
            calls = counters["calls"]
            for key, value in counters.items():
                if key == "crt_calls":
                    out[f"{name}.crt_share"] = value / calls if calls else 0.0
                elif key == "witnesses":
                    out[f"{name}.witness_share"] = value / calls if calls else 0.0
                else:
                    out[f"{name}.{key}"] = value
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end in seconds from the
        first span, and the parent's line index (-1 for a root)."""
        spans = self.spans
        origin = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent]) + "\n")

"""Command-line surface for the library.

Every subcommand supports --format text|json|csv.  JSON output is one
object (or one object per row for streaming scans); errors in JSON mode
are a single structured object, never partial output.  Exit codes:
0 success, 1 anomaly (a predictor disagreed or a certificate failed to
verify), 2 usage or bad arguments, an input too large for memory
included (a JSON classify verdict past JSON_CHECKED_MAX candidates is
refused up front), 141 (128 + SIGPIPE) when the reader of stdout went away
early, as in `monomod scan ... | head`.

A run loads only what its command needs.  The package loads modring,
monomial and solutions, with core and _numbers beneath them, which is
all that size, report and reduce run; none of them uses dataclasses.
Every other command imports its module inside its _cmd_ function:
classify for classify, omega and sizes-table, construct for witness,
scan for scan, appendix and conjecture; CSV output imports scan for
rows_to_csv.  The parser is declared per command too: when argv names a
command, only that one is declared in full, with the imports its
choices need, and the others by name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NoReturn

from .modring import ResidueRing
from .monomial import find_reduction, minimal_size, report
from .solutions import solution_sign


class _UsageError(Exception):
    """A parse error, raised by the parser instead of printing usage and
    exiting, so that run() can report it as JSON when argv asks for json."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise _UsageError(self, message)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output encoding (default: text)",
    )


# source -> (builder in the construct module, help, integer parameters
# in the builder's order)
_WITNESSES = {
    "prop36": ("witness_prop36", "coprime split N = n*m, m odd, 3 does not divide m", ("n", "m")),
    "prop51": ("witness_prop51", "odd coprime split N = n*m, n < m", ("n", "m")),
    "lemma41": ("witness_lemma41", "odd prime power N = p**n, k = a*p**t", ("p", "n", "t", "a")),
    "prop34": ("witness_prop34", "N/4 or N/p residue when 16 or an odd p*p divides N", ("N",)),
}


def _query(help_: str) -> Callable:
    """The declaration that size, report and reduce share."""

    def declare(sub, name: str) -> None:
        p = sub.add_parser(name, help=help_)
        p.add_argument("N", type=int)
        p.add_argument("k", type=int)
        _add_format(p)

    return declare


def _declare_classify(sub, name: str) -> None:
    from .classify import DECIDERS

    p = sub.add_parser(name, help="class verdict for one modulus")
    p.add_argument("N", type=int)
    p.add_argument(
        "--kind", choices=tuple(DECIDERS), default="monomial", help="class to decide"
    )
    _add_format(p)


def _declare_omega(sub, name: str) -> None:
    p = sub.add_parser(name, help="count of irreducible k in [1, N)")
    p.add_argument("N", type=int)
    _add_format(p)


def _declare_sizes_table(sub, name: str) -> None:
    p = sub.add_parser(name, help="(k, size) rows for a prime modulus")
    p.add_argument("p", type=int)
    _add_format(p)


def _declare_witness(sub, name: str) -> None:
    p = sub.add_parser(name, help="closed-form reducibility certificates")
    wsub = p.add_subparsers(dest="source", required=True)
    for source, (_, help_, params) in _WITNESSES.items():
        w = wsub.add_parser(source, help=help_)
        for param in params:
            if param == "a":  # lemma41's unit factor of k may be left out
                w.add_argument(param, type=int, nargs="?", default=1)
            else:
                w.add_argument(param, type=int)
        _add_format(w)


def _declare_scan(sub, name: str) -> None:
    from .scan import SCAN_KINDS, ScanJob

    p = sub.add_parser(name, help="range scan with checkpointing")
    p.add_argument("--kind", choices=SCAN_KINDS, required=True)
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--workers", type=int, default=ScanJob.workers)
    p.add_argument("--chunk", type=int, default=ScanJob.chunk)
    p.add_argument("--include-odd", action="store_true", help="semi: scan odd N too")
    p.add_argument("--fsync", action="store_true", help="fsync checkpoint per chunk")
    p.add_argument("--max-chunks", type=int, default=None, help="stop after this many chunks")
    _add_format(p)


def _declare_appendix(sub, name: str) -> None:
    from .scan import APPENDICES

    p = sub.add_parser(name, help=f"reference tables {', '.join(APPENDICES)}")
    p.add_argument("which", choices=APPENDICES)
    p.add_argument("--workers", type=int, default=1)
    _add_format(p)


def _declare_conjecture(sub, name: str) -> None:
    p = sub.add_parser(name, help="primes whose sizes all avoid 2 mod 4")
    p.add_argument("--max", dest="max_prime", type=int, required=True)
    _add_format(p)


def build_parser(argv: list[str] | tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """The parser of every command; or, when argv[0] names a command, of
    that command in full and the others by name only, which parses argv
    the same way with none of the others' imports."""
    parser = _Parser(
        prog="monomod",
        description="Minimal monomial solutions of 2x2 modular matrix"
        " equations: sizes, irreducibility, witnesses, and range scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (declare, _) in _COMMANDS.items():
        if only in (None, name):
            declare(sub, name)
        else:
            sub.add_parser(name)
    return parser


def _emit(
    args,
    obj: dict | list,
    text: Callable[[dict], str] | None = None,
    columns: tuple[str, ...] = (),
) -> int:
    """Print obj, one row or a list of rows, in args.format: one JSON
    value, CSV (see rows_to_csv; columns lead the header), or one line
    per row, which is text(row) for a command with its own text form and
    key=value fields otherwise.  Returns the exit code 0."""
    rows = obj if isinstance(obj, list) else [obj]
    if args.format == "json":
        print(json.dumps(obj))
    elif args.format == "csv":
        from .scan import rows_to_csv

        sys.stdout.write(rows_to_csv(rows, columns))
    else:
        for row in rows:
            print((text or _text_line)(row))
    return 0


def _text_line(row: dict) -> str:
    return " ".join(_text_field(key, value) for key, value in row.items())


def _text_field(key: str, value) -> str:
    if isinstance(value, bool):
        return f"{key}={str(value).lower()}"
    if isinstance(value, (list, tuple)):
        return f"{key}=" + " ".join(str(v) for v in value)
    if isinstance(value, dict):
        return " ".join(_text_field(f"{key}_{k}", v) for k, v in value.items())
    return f"{key}={value}"


def _witness_dict(witness) -> dict:
    return {"x": witness.x, "len": witness.length, "sign": witness.sign}


def _cmd_size(args) -> int:
    ring = ResidueRing(args.N)
    r, eps = minimal_size(ring, args.k)
    row = {"modulus": args.N, "k": ring.canon(args.k), "size": r, "sign": eps}
    return _emit(args, row, text=lambda row: f"r={row['size']} eps={row['sign']}")


def _cmd_report(args) -> int:
    rep = report(ResidueRing(args.N), args.k)
    row: dict = {
        "modulus": rep.modulus,
        "k": rep.k,
        "size": rep.size,
        "sign": rep.sign,
        "irreducible": rep.irreducible,
    }
    if rep.witness is not None:
        row["witness"] = _witness_dict(rep.witness)
    elif args.format == "json":
        row["witness"] = None
    return _emit(args, row)


def _cmd_reduce(args) -> int:
    ring = ResidueRing(args.N)
    witness = find_reduction(ring, args.k)
    row: dict = {"modulus": args.N, "k": ring.canon(args.k), "witness": None}
    if witness is None:
        return _emit(args, row, text=lambda row: "irreducible")
    row["witness"] = _witness_dict(witness)
    return _emit(args, row, text=lambda row: _text_line(row["witness"]))


# The most candidates a JSON verdict lists in checked_k.  Text and csv
# print only their count, so they answer at any N; a JSON list past this
# would take O(N) memory, so it is refused instead.
JSON_CHECKED_MAX = 10**6


def _cmd_classify(args) -> int:
    from .classify import DECIDERS

    verdict = DECIDERS[args.kind](ResidueRing(args.N))
    checked = len(verdict.checked_k)
    if args.format == "json" and checked > JSON_CHECKED_MAX:
        return _fail(
            args,
            f"checked_k would list {checked} candidates, more than the {JSON_CHECKED_MAX}"
            f" that --format json prints; --format text or csv prints the count",
        )
    row: dict = {
        "modulus": verdict.modulus,
        "kind": verdict.kind,
        "verdict": verdict.verdict,
    }
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        row["counterexample"] = {"k": ce.k, **_witness_dict(ce.witness)}
    elif args.format == "json":
        row["counterexample"] = None
    if args.format == "json":
        row["checked_k"] = list(verdict.checked_k)
    else:
        row["checked"] = checked
    return _emit(args, row)


def _cmd_omega(args) -> int:
    from .classify import omega_count

    return _emit(args, {"N": args.N, "omega": omega_count(ResidueRing(args.N))})


def _cmd_sizes_table(args) -> int:
    from .classify import sizes_table

    rows = [{"k": k, "size": r} for k, r in sizes_table(args.p)]
    return _emit(
        args, rows, text=lambda row: f"k={row['k']} r={row['size']}", columns=("k", "size")
    )


def _cmd_witness(args) -> int:
    from . import construct

    builder, _, params = _WITNESSES[args.source]
    cw = getattr(construct, builder)(*(getattr(args, name) for name in params))
    if cw is None:  # prop34: no pattern applies to N
        row = {"modulus": args.N, "witness": None}
        return _emit(args, row, text=lambda row: "not applicable")
    row = {
        "modulus": cw.modulus,
        "k": cw.k,
        "size": cw.size,
        "source": cw.source,
        "x": cw.reducer.entries[0],
        "len": len(cw.reducer),
        "sign": solution_sign(cw.reducer),
        "verified": cw.verify(),
    }
    if not row["verified"]:
        return _fail(args, f"certificate failed verification: {row}", code=1)
    return _emit(args, row)


def _cmd_scan(args) -> int:
    if args.format == "csv" and args.checkpoint:
        # CSV goes out only after the last chunk (its header needs every
        # row), so a crash would leave the checkpoint ahead of the output.
        return _fail(args, "--format csv cannot be combined with --checkpoint; use json or text")
    import dataclasses

    from .scan import ScanJob, run_scan

    # every scan flag's dest is the name of its ScanJob field
    job = ScanJob(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ScanJob)})

    def stream(rows: list[dict]) -> None:
        for row in rows:
            _emit(args, row)
        # run_scan appends the chunk's checkpoint record next; a crash
        # must not leave that record ahead of the output.
        sys.stdout.flush()

    on_rows = None if args.format == "csv" else stream
    result = run_scan(job, on_rows=on_rows, max_chunks=args.max_chunks)
    if args.format == "csv":
        fields = ("phi", "omega") if args.kind == "omega" else ("verdict",)
        _emit(args, result.rows, columns=("N", "kind", *fields))
    if result.anomalies:
        message = f"{len(result.anomalies)} anomalies: " + json.dumps(result.anomalies)
        print(message, file=sys.stderr)
        return 1
    return 0


def _cmd_appendix(args) -> int:
    from .scan import emit_appendix

    return _emit(args, emit_appendix(args.which, workers=args.workers))


def _cmd_conjecture(args) -> int:
    from .scan import scan_conjecture

    primes = scan_conjecture(args.max_prime)
    if args.format == "csv":
        return _emit(args, [{"p": p} for p in primes])
    row = {"max": args.max_prime, "primes": primes}
    return _emit(args, row, text=lambda row: " ".join(str(p) for p in row["primes"]))


# command -> (declaration of its parser, its run), in the order of --help
_COMMANDS = {
    "size": (_query("minimal size r and sign of M(k)**r"), _cmd_size),
    "report": (_query("size, sign, verdict, witness for one (N, k)"), _cmd_report),
    "reduce": (_query("first bordered reduction witness, if any"), _cmd_reduce),
    "classify": (_declare_classify, _cmd_classify),
    "omega": (_declare_omega, _cmd_omega),
    "sizes-table": (_declare_sizes_table, _cmd_sizes_table),
    "witness": (_declare_witness, _cmd_witness),
    "scan": (_declare_scan, _cmd_scan),
    "appendix": (_declare_appendix, _cmd_appendix),
    "conjecture": (_declare_conjecture, _cmd_conjecture),
}


def _fail(args, message: str, code: int = 2) -> int:
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"error": {"message": message, "code": code}}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _asks_json(parser: argparse.ArgumentParser, argv: list[str]) -> bool:
    """Does argv ask for --format json?  The literal --format json and
    --format=json count anywhere, even with no known command.  After the
    command's name, so does every spelling its parser accepts: a prefix
    of --format that starts none of its other options, as in --form json
    or --fo=json."""
    if "--format=json" in argv or ("--format", "json") in zip(argv, argv[1:]):
        return True
    start = 0
    for i, token in enumerate(argv):  # down to the innermost command named
        commands = next(
            (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)),
            {},
        )
        if token in commands:
            parser, start = commands[token], i + 1
    options = [option for action in parser._actions for option in action.option_strings]
    for i in range(start, len(argv)):
        if argv[i] == "--":  # the rest are positionals
            break
        name, eq, value = argv[i].partition("=")
        if len(name) < 3 or not name.startswith("--"):
            continue
        matches = [name] if name in options else [o for o in options if o.startswith(name)]
        if matches != ["--format"]:
            continue
        if (value if eq else "".join(argv[i + 1 : i + 2])) == "json":
            return True
    return False


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        where, message = exc.args
        if _asks_json(parser, argv):
            return _fail(argparse.Namespace(format="json"), message)
        where.print_usage(sys.stderr)
        print(f"{where.prog}: error: {message}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _COMMANDS[args.command][1](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nowhere to report it; point stdout at devnull so the flush at
        # interpreter exit, which would hit the closed pipe again, is silent.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except ValueError as exc:  # scan.CheckpointError included
        return _fail(args, str(exc))
    except MemoryError:
        return _fail(args, "not enough memory for this input")
    except OSError as exc:
        return _fail(args, str(exc), code=1)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

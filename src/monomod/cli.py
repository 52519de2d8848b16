"""Command-line surface for the library.

Every subcommand supports --format text|json|csv.  JSON output is one
object (or one object per row for streaming scans); errors in JSON mode
are a single structured object, never partial output.  Exit codes:
0 success, 1 anomaly (a predictor disagreed or a certificate failed to
verify), 2 usage or bad arguments, 141 (128 + SIGPIPE) when the reader
of stdout went away early, as in `monomod scan ... | head`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import DECIDERS, omega_count, sizes_table
from .construct import (
    ConstructedWitness,
    constructed_prop34,
    witness_lemma41,
    witness_prop36,
    witness_prop51,
)
from .modring import ResidueRing
from .monomial import find_reduction, minimal_size, report
from .scan import (
    SCAN_KINDS,
    CheckpointError,
    ScanJob,
    WORKER_CAP_ENV,
    emit_appendix,
    rows_to_csv,
    run_scan,
    scan_conjecture,
)
from .solutions import solution_sign


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output encoding (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monomod",
        description="Minimal monomial solutions of 2x2 modular matrix"
        " equations: sizes, irreducibility, witnesses, and range scans.",
        epilog=f"The {WORKER_CAP_ENV} environment variable caps --workers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("size", help="minimal size r and sign of M(k)**r")
    p.add_argument("N", type=int)
    p.add_argument("k", type=int)
    _add_format(p)

    p = sub.add_parser("report", help="size, sign, verdict, witness for one (N, k)")
    p.add_argument("N", type=int)
    p.add_argument("k", type=int)
    _add_format(p)

    p = sub.add_parser("reduce", help="first bordered reduction witness, if any")
    p.add_argument("N", type=int)
    p.add_argument("k", type=int)
    _add_format(p)

    p = sub.add_parser("classify", help="class verdict for one modulus")
    p.add_argument("N", type=int)
    p.add_argument(
        "--kind", choices=tuple(DECIDERS), default="monomial", help="class to decide"
    )
    _add_format(p)

    p = sub.add_parser("omega", help="count of irreducible k in [1, N)")
    p.add_argument("N", type=int)
    _add_format(p)

    p = sub.add_parser("sizes-table", help="(k, size) rows for a prime modulus")
    p.add_argument("p", type=int)
    _add_format(p)

    p = sub.add_parser("witness", help="closed-form reducibility certificates")
    wsub = p.add_subparsers(dest="source", required=True)
    w = wsub.add_parser("prop36", help="coprime split N = n*m, m odd, 3 does not divide m")
    w.add_argument("n", type=int)
    w.add_argument("m", type=int)
    _add_format(w)
    w = wsub.add_parser("prop51", help="odd coprime split N = n*m, n < m")
    w.add_argument("n", type=int)
    w.add_argument("m", type=int)
    _add_format(w)
    w = wsub.add_parser("lemma41", help="odd prime power N = p**n, k = a*p**t")
    w.add_argument("p", type=int)
    w.add_argument("n", type=int)
    w.add_argument("t", type=int)
    w.add_argument("a", type=int, nargs="?", default=1)
    _add_format(w)
    w = wsub.add_parser("prop34", help="N/4 or N/p residue when 16 or an odd p*p divides N")
    w.add_argument("N", type=int)
    _add_format(w)

    p = sub.add_parser("scan", help="range scan with checkpointing")
    p.add_argument("--kind", choices=SCAN_KINDS, required=True)
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--chunk", type=int, default=64)
    p.add_argument("--include-odd", action="store_true", help="semi: scan odd N too")
    p.add_argument("--fsync", action="store_true", help="fsync checkpoint per chunk")
    p.add_argument("--max-chunks", type=int, default=None, help="stop after this many chunks")
    _add_format(p)

    p = sub.add_parser("appendix", help="reference tables A, B, C, D")
    p.add_argument("which", choices=("A", "B", "C", "D"))
    p.add_argument("--workers", type=int, default=1)
    _add_format(p)

    p = sub.add_parser("conjecture", help="primes whose sizes all avoid 2 mod 4")
    p.add_argument("--max", dest="max_prime", type=int, required=True)
    _add_format(p)

    return parser


def _emit(args: argparse.Namespace, obj: dict | list) -> None:
    if args.format == "json":
        print(json.dumps(obj))
    elif args.format == "csv":
        rows = obj if isinstance(obj, list) else [obj]
        sys.stdout.write(rows_to_csv(rows))
    else:
        rows = obj if isinstance(obj, list) else [obj]
        for row in rows:
            print(" ".join(_text_field(key, value) for key, value in row.items()))


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
    if args.format == "text":
        print(f"r={r} eps={eps}")
        return 0
    _emit(args, {"modulus": args.N, "k": ring.canon(args.k), "size": r, "sign": eps})
    return 0


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
    _emit(args, row)
    return 0


def _cmd_reduce(args) -> int:
    ring = ResidueRing(args.N)
    witness = find_reduction(ring, args.k)
    if args.format == "text":
        if witness is None:
            print("irreducible")
        else:
            print(f"x={witness.x} len={witness.length} sign={witness.sign}")
        return 0
    row: dict = {"modulus": args.N, "k": ring.canon(args.k)}
    row["witness"] = None if witness is None else _witness_dict(witness)
    _emit(args, row)
    return 0


def _cmd_classify(args) -> int:
    verdict = DECIDERS[args.kind](ResidueRing(args.N))
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
        row["checked"] = len(verdict.checked_k)
    _emit(args, row)
    return 0


def _cmd_omega(args) -> int:
    count = omega_count(ResidueRing(args.N))
    _emit(args, {"N": args.N, "omega": count})
    return 0


def _cmd_sizes_table(args) -> int:
    rows = [{"k": k, "size": r} for k, r in sizes_table(args.p)]
    if args.format == "text":
        for row in rows:
            print(f"k={row['k']} r={row['size']}")
        return 0
    _emit(args, rows)
    return 0


def _cmd_witness(args) -> int:
    if args.source == "prop36":
        cw = witness_prop36(args.n, args.m)
    elif args.source == "prop51":
        cw = witness_prop51(args.n, args.m)
    elif args.source == "lemma41":
        cw = witness_lemma41(args.p, args.n, args.t, args.a)
    else:
        cw = constructed_prop34(args.N)
        if cw is None:
            if args.format == "json":
                print(json.dumps({"modulus": args.N, "witness": None}))
            else:
                print("not applicable")
            return 0
    return _emit_certificate(args, cw)


def _emit_certificate(args, cw: ConstructedWitness) -> int:
    verified = cw.verify()
    row = {
        "modulus": cw.modulus,
        "k": cw.k,
        "size": cw.size,
        "source": cw.source,
        "x": cw.reducer.entries[0],
        "len": len(cw.reducer),
        "sign": solution_sign(cw.reducer),
        "verified": verified,
    }
    if not verified:
        return _fail(args, f"certificate failed verification: {row}", code=1)
    _emit(args, row)
    return 0


def _cmd_scan(args) -> int:
    job = ScanJob(
        kind=args.kind,
        lo=args.lo,
        hi=args.hi,
        chunk=args.chunk,
        checkpoint=args.checkpoint,
        workers=args.workers,
        include_odd=args.include_odd,
        fsync=args.fsync,
    )

    def stream(rows: list[dict]) -> None:
        if args.format == "json":
            for row in rows:
                print(json.dumps(row))
        else:
            _emit(args, rows)
        # run_scan appends the chunk's checkpoint record next; a crash
        # must not leave that record ahead of the output.
        sys.stdout.flush()

    # CSV needs every row for its header, so it is written once at the end.
    on_rows = None if args.format == "csv" else stream
    result = run_scan(job, on_rows=on_rows, max_chunks=args.max_chunks)
    if args.format == "csv":
        sys.stdout.write(rows_to_csv(result.rows))
    if result.anomalies:
        message = f"{len(result.anomalies)} anomalies: " + json.dumps(result.anomalies)
        print(message, file=sys.stderr)
        return 1
    return 0


def _cmd_appendix(args) -> int:
    table = emit_appendix(args.which, workers=args.workers)
    _emit(args, table)
    return 0


def _cmd_conjecture(args) -> int:
    primes = scan_conjecture(args.max_prime)
    if args.format == "text":
        print(" ".join(str(p) for p in primes))
        return 0
    if args.format == "csv":
        _emit(args, [{"p": p} for p in primes])
        return 0
    _emit(args, {"max": args.max_prime, "primes": primes})
    return 0


_COMMANDS = {
    "size": _cmd_size,
    "report": _cmd_report,
    "reduce": _cmd_reduce,
    "classify": _cmd_classify,
    "omega": _cmd_omega,
    "sizes-table": _cmd_sizes_table,
    "witness": _cmd_witness,
    "scan": _cmd_scan,
    "appendix": _cmd_appendix,
    "conjecture": _cmd_conjecture,
}


def _fail(args, message: str, code: int = 2) -> int:
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"error": {"message": message, "code": code}}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nowhere to report it; point stdout at devnull so the flush at
        # interpreter exit, which would hit the closed pipe again, is silent.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (CheckpointError, ValueError) as exc:
        return _fail(args, str(exc))
    except OSError as exc:
        return _fail(args, str(exc), code=1)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

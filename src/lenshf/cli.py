"""Command-line front end.

Subcommands: analyze (one lens space), table (sweep p up to a bound),
verify (recheck a certificate file).  The solver decides and certifies;
this module parses arguments and formats what it returns: table prints
solver.table_rows for each p, with per-p counts under --summary.
Exit codes: 0 success, 1 verification mismatch, 2 domain error, 3 resource
or integrity error, 64 usage error, 65 certificate parse failure, 141 closed pipe.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError, IntegrityError, ResourceError
from .lens import THREE_SPHERE, SpecialCase, normalize
from .solver import minimal_planar_boundaries, table_rows
from .witness import TRACE_FIELDS, _check_verify_budget, certificate_from_json, certificate_to_json, verify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head -1`


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2, which we reserve
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _witness_line(w) -> str:
    if w.n == 1:
        return f"witness: n=1 a={w.a[0]} t={w.t[0]}"
    pairs = ", ".join(f"l{i + 1}{j + 1}={w.l[i][j]}" for i in range(w.n) for j in range(i + 1, w.n))
    return f"witness: n={w.n} a={w.a} t={w.t} {pairs}"


def _trace_lines(trace) -> list[str]:
    return [f"  {name}: {getattr(trace, name)}" for name in TRACE_FIELDS]


def cmd_analyze(args) -> int:
    result = normalize(args.p, args.q)
    if isinstance(result, SpecialCase):
        if args.json:
            import json  # only where output is JSON: it is a tenth of the CLI's import

            payload = {"p": str(args.p), "q": str(args.q), "special": result.kind}
            print(json.dumps(payload, indent=2))
        elif result.kind == THREE_SPHERE:
            print(f"({args.p},{args.q}) is the 3-sphere: fibered by a disk, one boundary component")
        else:
            print(f"({args.p},{args.q}) is not a lens space with p >= 2; out of scope")
        return EXIT_OK
    count, cert = minimal_planar_boundaries(result)
    if args.json:
        print(certificate_to_json(cert, include_trace=args.trace))
        return EXIT_OK
    print(f"{result}: minimal planar fibered surface has {count} boundary components")
    print(_witness_line(cert.witness))
    print(f"determinant: {cert.det}")
    if args.trace and cert.trace is not None:
        print("construction trace:")
        for line in _trace_lines(cert.trace):
            print(line)
    return EXIT_OK


def cmd_table(args) -> int:
    if args.pmax < 2:
        raise DomainError(f"pmax must be >= 2, got {args.pmax}")
    if args.jsonl:
        import json
    write = sys.stdout.write  # one write per line
    for p in range(2, args.pmax + 1):
        count2 = count3 = 0
        for q, count, cert in table_rows(p):
            if count == 2:
                count2 += 1
            else:
                count3 += 1
            if args.jsonl:
                row = {"p": str(p), "q": str(q), "boundaries": str(count), "det": str(cert.det)}
                write(json.dumps(row) + "\n")
            else:
                write(f"{p}\t{q}\t{count}\t{cert.det}\n")
        if args.summary:
            if args.jsonl:
                summary = {"p": str(p), "count2": str(count2), "count3": str(count3)}
                write(json.dumps({"summary": summary}) + "\n")
            else:
                write(f"# p={p}\tcount2={count2}\tcount3={count3}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            cert = certificate_from_json(fh.read())
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"certificate is semantically invalid: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8 and bad JSON as well as bad fields
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _check_verify_budget(cert.lens, cert.witness)
    recomputed = verify(cert.lens, cert.witness)
    try:
        det = str(recomputed.det)
    except ValueError:  # more digits than Python's str() limit allows
        det = f"<{recomputed.det.bit_length()}-bit integer>"
    if recomputed.det != cert.det:
        print(f"determinant mismatch for {cert.lens}: stored {cert.det}, recomputed {det}")
        return EXIT_MISMATCH
    if not recomputed.valid or not cert.valid:
        print(f"certificate for {cert.lens} is not a witness: determinant {det}")
        return EXIT_MISMATCH
    print(f"ok: {cert.lens} witness verifies with determinant {det}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lenshf",
        description="Minimal boundary counts of planar homologically fibered "
        "surfaces in lens spaces, with exact integer certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="decide one lens space L(p, q)")
    pa.add_argument("p", type=int)
    pa.add_argument("q", type=int)
    pa.add_argument("--json", action="store_true", help="emit the certificate as JSON")
    pa.add_argument("--trace", action="store_true", help="include the construction trace")
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("table", help="sweep all L(p, q) with p up to pmax")
    pt.add_argument("pmax", type=int)
    pt.add_argument("--jsonl", action="store_true", help="JSON-lines rows instead of TSV")
    pt.add_argument("--summary", action="store_true", help="append per-p counts")
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="recheck a certificate JSON file")
    pv.add_argument("path")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()

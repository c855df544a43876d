"""Command line front end.

Subcommands answer the questions the library computes: Gotzmann numbers,
least function and scheme regularities, minimal Hilbert functions, class
membership, minimal Castelnuovo-Mumford regularity (global, at a fixed
function regularity, for a fixed Hilbert function, or inside a fixed
projective space), witness construction, certificate verification, and
the recursion trace table.

Every subcommand takes --json for a machine-readable document with a
top-level "schema" field.  Exit codes: 0 success, 1 domain errors (an
empty class, a linear variety, an ambient space that is too small, a
Gotzmann number with more digits than Python prints, a failed
verification), 2 malformed input (a command line the parser
refuses, a certificate file that cannot be read, or a -o file that
cannot be written), 3 a bug
(InternalInconsistency, VerificationFailure, or any other exception, any
other OSError included), reported like the others: an error document
under --json, one `error:` line on stderr otherwise (after the usage
line, for a refused command line).  -h prints the help and returns 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

from .constructions import (certificate_from_dict, verify_witness,
                            witness_min_reg)
from .errors import InputError, MinregError, TooManyDigits
from .functions import (min_function_regularity, min_scheme_regularity,
                        minimal_function, minimal_function_exact,
                        minimal_scheme_function, parse_hilbert_function)
from .polynomials import parse_polynomial
from .regularity import (min_regularity, min_regularity_at,
                         min_regularity_in_space, min_regularity_of_function)

SCHEMA = 1


def _document(payload: dict) -> str:
    """The JSON text of every document: the payload stamped with the
    schema, keys sorted, indented by two."""
    return json.dumps(dict(payload, schema=SCHEMA), indent=2, sort_keys=True)


def _emit(args, payload: dict, lines):
    if args.json:
        print(_document(payload))
    else:
        for line in lines:
            print(line)


def _gotzmann_number(p, n: int) -> int:
    """n, the Gotzmann number of p, or TooManyDigits, with the digit count,
    when n has more digits than Python converts to text."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 8^limit < 10^limit, so n has at most `limit` digits below that size.
    if not limit or n.bit_length() <= 3 * limit:
        return n
    digits = int(math.log10(n)) + 1
    if n >= 10 ** digits:
        digits += 1
    elif n < 10 ** (digits - 1):
        digits -= 1
    if digits <= limit:
        return n
    raise TooManyDigits("the Gotzmann number of %s has %d digits, more than"
                        " the %d that Python converts to text"
                        % (p, digits, limit))


def _trace_payload(report) -> list:
    rows = []
    for row in report.rows:
        rows.append({
            "polynomial": str(row.polynomial),
            "gotzmann_number": _gotzmann_number(row.polynomial,
                                                row.gotzmann_number),
            "rho": row.min_rho,
            "rho_scheme": row.min_scheme_rho,
            "rho_used": row.rho_used,
            "rho_fit": row.rho_fit,
            "regularity": row.regularity,
        })
    return rows


def cmd_gotzmann(args) -> int:
    p = parse_polynomial(args.polynomial)
    g = _gotzmann_number(p, p.gotzmann_number)
    _emit(args, {"command": "gotzmann", "polynomial": str(p),
                 "gotzmann_number": g}, [str(g)])
    return 0


def cmd_rho(args) -> int:
    p = parse_polynomial(args.polynomial)
    _emit(args, {"command": "rho", "polynomial": str(p),
                 "rho": min_function_regularity(p)},
          [str(min_function_regularity(p))])
    return 0


def cmd_rho_bar(args) -> int:
    p = parse_polynomial(args.polynomial)
    _emit(args, {"command": "rho-bar", "polynomial": str(p),
                 "rho_bar": min_scheme_regularity(p)},
          [str(min_scheme_regularity(p))])
    return 0


def cmd_minfn(args) -> int:
    p = parse_polynomial(args.polynomial)
    rho = args.rho if args.rho is not None else min_scheme_regularity(p)
    u = (minimal_function_exact(p, rho) if args.g
         else minimal_function(p, rho))
    _emit(args, {"command": "minfn", "polynomial": str(p), "rho": rho,
                 "exact": bool(args.g), "function": str(u)},
          [str(u)])
    return 0


def cmd_exists(args) -> int:
    p = parse_polynomial(args.polynomial)
    u = minimal_scheme_function(p, args.rho)
    payload = {"command": "exists", "polynomial": str(p), "rho": args.rho,
               "exists": u is not None}
    if u is None:
        _emit(args, payload, ["empty"])
        return 1
    payload["minimum"] = str(u)
    _emit(args, payload, [str(u)])
    return 0


def cmd_minreg(args) -> int:
    if args.hf is not None:
        if args.polynomial is not None or args.rho is not None \
                or args.ambient is not None:
            raise InputError("--hf stands alone; it already carries the"
                             " polynomial as its tail")
        u = parse_hilbert_function(args.hf)
        report = min_regularity_of_function(u)
    elif args.polynomial is None:
        raise InputError("give a polynomial or --hf")
    elif args.rho is not None and args.ambient is not None:
        raise InputError("--rho and --ambient are mutually exclusive")
    else:
        p = parse_polynomial(args.polynomial)
        if args.rho is not None:
            report = min_regularity_at(p, args.rho)
        elif args.ambient is not None:
            report = min_regularity_in_space(p, args.ambient)
        else:
            report = min_regularity(p)
    payload = {"command": "minreg", "polynomial": str(report.polynomial),
               "regularity": report.regularity, "rho_used": report.rho_used}
    if args.json:
        payload["trace"] = _trace_payload(report)
    _emit(args, payload, [str(report.regularity)])
    return 0


def cmd_witness(args) -> int:
    if args.hf is not None:
        u = parse_hilbert_function(args.hf)
        if args.polynomial is not None:
            p = parse_polynomial(args.polynomial)
            if u.tail != p:
                raise InputError("the tail of %s is not %s" % (u, p))
    elif args.polynomial is not None:
        p = parse_polynomial(args.polynomial)
        u = minimal_scheme_function(p, min_scheme_regularity(p))
    else:
        raise InputError("give a polynomial or --hf")
    cert = witness_min_reg(u)
    document = _document(cert.as_dict())
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
        except OSError as exc:
            raise InputError("cannot write %s: %s"
                             % (args.output, exc.strerror or exc)) from None
        if not args.json:
            print("wrote a regularity-%d certificate to %s"
                  % (cert.regularity, args.output))
            return 0
    print(document)
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise InputError("cannot read %s: %s"
                         % (args.certificate, exc.strerror or exc)) from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InputError("%s is not JSON: %s"
                         % (args.certificate, exc)) from None
    cert = certificate_from_dict(payload)
    report = verify_witness(cert)
    lines = ["%s: %s" % (name, "ok" if passed else "FAILED")
             for name, passed in report.checks]
    lines.append("verification %s" % ("passed" if report.ok else "failed"))
    _emit(args, {"command": "verify", "verified": report.ok,
                 "checks": {name: passed for name, passed in report.checks},
                 "regularity": cert.regularity,
                 "hilbert_function": str(cert.hilbert_function)},
          lines)
    return 0 if report.ok else 1


def cmd_table(args) -> int:
    p = parse_polynomial(args.polynomial)
    report = (min_regularity_at(p, args.rho) if args.rho is not None
              else min_regularity(p))
    _emit(args, {"command": "table", "polynomial": str(p),
                 "regularity": report.regularity,
                 "trace": _trace_payload(report)},
          report.table_lines())
    return 0


class UsageError(InputError):
    """A command line that the parser refuses, with its usage line."""

    def __init__(self, message, usage):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage and exit 2,
    so that main reports a refused command line like other bad input."""

    def error(self, message):
        raise UsageError(message, self.format_usage())


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minreg",
        description="Minimal Castelnuovo-Mumford regularity of projective"
                    " schemes with a given Hilbert polynomial, with"
                    " strongly stable witness ideals.",
        epilog="A polynomial that begins with '-' goes after '--':"
               " minreg gotzmann -- -3+5z")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    # Left unset unless given, so --json before the subcommand survives.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("gotzmann", parents=[common],
                       help="Gotzmann number of a polynomial")
    s.add_argument("polynomial")
    s.set_defaults(handler=cmd_gotzmann)

    s = sub.add_parser("rho", parents=[common],
                       help="least regularity of an admissible function"
                            " with the given tail")
    s.add_argument("polynomial")
    s.set_defaults(handler=cmd_rho)

    s = sub.add_parser("rho-bar", parents=[common],
                       help="least regularity of a scheme Hilbert function"
                            " with the given tail")
    s.add_argument("polynomial")
    s.set_defaults(handler=cmd_rho_bar)

    s = sub.add_parser("minfn", parents=[common],
                       help="pointwise minimal function with regularity"
                            " at most rho (exactly rho with --g)")
    s.add_argument("polynomial")
    s.add_argument("--rho", type=int, default=None,
                   help="target regularity (default: the least scheme one)")
    s.add_argument("--g", action="store_true",
                   help="least function with regularity exactly rho")
    s.set_defaults(handler=cmd_minfn)

    s = sub.add_parser("exists", parents=[common],
                       help="is there a scheme function with this tail and"
                            " regularity exactly rho?")
    s.add_argument("polynomial")
    s.add_argument("--rho", type=int, required=True)
    s.set_defaults(handler=cmd_exists)

    s = sub.add_parser("minreg", parents=[common],
                       help="minimal regularity: global, at --rho, for"
                            " --hf, or inside P^n with --ambient")
    s.add_argument("polynomial", nargs="?", default=None)
    s.add_argument("--rho", type=int, default=None)
    s.add_argument("--hf", default=None,
                   help="Hilbert function like '1,5,11 ; 15z-24'")
    s.add_argument("--ambient", type=int, default=None,
                   help="dimension n of the ambient projective space")
    s.set_defaults(handler=cmd_minreg)

    s = sub.add_parser("witness", parents=[common],
                       help="construct and verify a minimal witness ideal,"
                            " emitted as a certificate document")
    s.add_argument("polynomial", nargs="?", default=None)
    s.add_argument("--hf", default=None,
                   help="target Hilbert function (default: the pointwise"
                        " minimum over all schemes with the polynomial)")
    s.add_argument("-o", "--output", default=None,
                   help="write the certificate to this file")
    s.set_defaults(handler=cmd_witness)

    s = sub.add_parser("verify", parents=[common],
                       help="independently check a certificate document")
    s.add_argument("certificate")
    s.set_defaults(handler=cmd_verify)

    s = sub.add_parser("table", parents=[common],
                       help="print the recursion trace table")
    s.add_argument("polynomial")
    s.add_argument("--rho", type=int, default=None)
    s.set_defaults(handler=cmd_table)

    return parser


def _report(exc, json_mode: bool) -> int:
    # a MemoryError, say, has no message: its class name stands in
    message = str(exc) or type(exc).__name__
    if json_mode:
        print(_document({"error": {"code": type(exc).__name__,
                                   "message": message}}))
    else:
        print("error: %s" % message, file=sys.stderr)
    return exc.exit_code if isinstance(exc, MinregError) else 3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        # No parsed flags to read --json from, so the words decide.
        json_mode = "--json" in argv
        if not json_mode:
            sys.stderr.write(exc.usage)
        return _report(exc, json_mode)
    except SystemExit as exc:  # -h printed the help
        return exc.code
    try:
        return args.handler(args)
    except Exception as exc:  # not BaseException: interrupts get through
        return _report(exc, args.json)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

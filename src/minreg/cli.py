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
verification), 2 malformed input (a command line the reader
refuses, a certificate file that cannot be read, or a -o file that
cannot be written), 3 a bug
(InternalInconsistency, VerificationFailure, or any other exception, any
other OSError included), reported like the others: an error document
under --json, one `error:` line on stderr otherwise (after the usage
line, for a refused command line).

The command line is read from one table, COMMANDS, as argparse reads it
on Python 3.11: --json before or after the subcommand, `--opt=value`,
`-ovalue`, unique prefixes of long options (`--amb 4`), negative numbers
such as -3 as values, every word after `--` as a positional, and -h where
argparse would reach it.  A refused line gets an error document when
--json, or a prefix of it such as --js, comes before any `--`.
"""

from __future__ import annotations

import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .constructions import (certificate_from_dict, verify_witness,
                            witness_min_reg)
from .errors import InputError, MinregError, TooManyDigits
from .functions import (min_function_regularity, min_scheme_regularity,
                        minimal_function, minimal_function_exact,
                        minimal_scheme_function, parse_hilbert_function)
from .polynomials import _digit_limit, parse_polynomial
from .regularity import (min_regularity, min_regularity_at,
                         min_regularity_in_space, min_regularity_of_function)

SCHEMA = 1


def _document(payload: dict) -> str:
    """The JSON text of every document: the payload stamped with the
    schema, keys sorted, indented by two."""
    return _write(dict(payload, schema=SCHEMA), "\n")


def _write(value, newline: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for
    dicts with str keys, lists, str, int, bool and None, and TypeError for
    anything else; newline breaks the line and indents to value."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):  # str and int leaves inline, for speed
        items = [_quote(key) + ": " + (
            _quote(item) if type(item) is str else int.__repr__(item)
            if type(item) is int else _write(item, inner))
            for key, item in sorted(value.items())]
    elif isinstance(value, list):  # a certificate holds millions of ints
        items = [int.__repr__(item) if type(item) is int else _quote(item)
                 if type(item) is str else _write(item, inner)
                 for item in value]
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)
    ends = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return ends
    # the brackets join the first and last items, so that a document of
    # millions of numbers is copied once, by the join
    items[0] = ends[0] + inner + items[0]
    items[-1] += newline + ends[1]
    return ("," + inner).join(items)


def _emit(args, payload: dict, lines):
    if args.json:
        print(_document(payload))
    else:
        for line in lines:
            print(line)


def _gotzmann_number(p, n: int) -> int:
    """n, the Gotzmann number of p, or TooManyDigits, with the digit count,
    when n has more digits than Python converts to text."""
    limit = _digit_limit()
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
        descent = min_regularity_of_function(u)
    elif args.polynomial is not None:
        descent = min_regularity(parse_polynomial(args.polynomial))
    else:
        raise InputError("give a polynomial or --hf")
    cert = witness_min_reg(descent)
    document = _document(cert.as_dict())
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                print(document, file=handle)
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
    ok = report.ok
    if args.json:
        print(_document({"command": "verify", "verified": ok,
                         "checks": dict(report.checks),
                         "regularity": cert.regularity,
                         "hilbert_function": str(cert.hilbert_function)}))
    else:
        for name, passed in report.checks:
            print("%s: %s" % (name, "ok" if passed else "FAILED"))
        print("verification %s" % ("passed" if ok else "failed"))
    return 0 if ok else 1


def cmd_table(args) -> int:
    p = parse_polynomial(args.polynomial)
    report = (min_regularity_at(p, args.rho) if args.rho is not None
              else min_regularity(p))
    if args.json:
        print(_document({"command": "table", "polynomial": str(p),
                         "regularity": report.regularity,
                         "trace": _trace_payload(report)}))
        return 0
    for row in report.rows:  # refuse a number past the digit limit first
        _gotzmann_number(row.polynomial, row.gotzmann_number)
    for line in report.table_lines():
        print(line)
    return 0


class UsageError(InputError):
    """A command line that the reader refuses, with its usage line."""

    def __init__(self, message, usage):
        super().__init__(message)
        self.usage = usage


_HELP = (("-h", "--help"), "help", False, "show this help message and exit")
_JSON = (("--json",), "flag", False, "emit machine-readable JSON")
_RHO = (("--rho",), int, False, "")

# A subcommand is (handler, help, positional, whether it is required,
# options after -h and --json); an option is (flags, kind: int, str,
# "flag" or "help", whether it is required, help).  An option's dest is
# its last flag without the dashes, and its metavar that dest in capitals.
COMMANDS = {
    "gotzmann": (cmd_gotzmann, "Gotzmann number of a polynomial",
                 "polynomial", True, ()),
    "rho": (cmd_rho, "least regularity of an admissible function with the"
            " given tail", "polynomial", True, ()),
    "rho-bar": (cmd_rho_bar, "least regularity of a scheme Hilbert function"
                " with the given tail", "polynomial", True, ()),
    "minfn": (cmd_minfn, "pointwise minimal function with regularity at most"
              " rho (exactly rho with --g)", "polynomial", True, (
                  (("--rho",), int, False,
                   "target regularity (default: the least scheme one)"),
                  (("--g",), "flag", False,
                   "least function with regularity exactly rho"))),
    "exists": (cmd_exists, "is there a scheme function with this tail and"
               " regularity exactly rho?", "polynomial", True,
               ((("--rho",), int, True, ""),)),
    "minreg": (cmd_minreg, "minimal regularity: global, at --rho, for --hf,"
               " or inside P^n with --ambient", "polynomial", False, (
                   _RHO, (("--hf",), str, False,
                          "Hilbert function like '1,5,11 ; 15z-24'"),
                   (("--ambient",), int, False,
                    "dimension n of the ambient projective space"))),
    "witness": (cmd_witness, "construct and verify a minimal witness ideal,"
                " emitted as a certificate document", "polynomial", False, (
                    (("--hf",), str, False, "target Hilbert function"
                     " (default: the pointwise minimum over all schemes"
                     " with the polynomial)"),
                    (("-o", "--output"), str, False,
                     "write the certificate to this file"))),
    "verify": (cmd_verify, "independently check a certificate document",
               "certificate", True, ()),
    "table": (cmd_table, "print the recursion trace table", "polynomial",
              True, (_RHO,)),
}
_TOP = (None, "Minimal Castelnuovo-Mumford regularity of projective schemes"
        " with a given\nHilbert polynomial, with strongly stable witness"
        " ideals.", "subcommand", True, ())
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative numbers
_FLAGS = {name: {flag: o for o in (_HELP, _JSON) + own for flag in o[0]}
          for name, (_, _, _, _, own) in [(None, _TOP), *COMMANDS.items()]}


def _dest(option) -> str:
    return option[0][-1].lstrip("-")


def _metavar(option) -> str:
    return " " + _dest(option).upper() if option[1] in (int, str) else ""


def _usage(name) -> str:
    """The usage text of a subcommand, or of the top level for None,
    wrapped as argparse wraps it at its default width of 80 columns."""
    _, _, positional, required, own = COMMANDS.get(name, _TOP)
    prog = "minreg" if name is None else "minreg " + name
    options = [o[0][0] + _metavar(o) for o in (_HELP, _JSON) + own]
    groups = [[part if o[2] else "[%s]" % part
               for part, o in zip(options, (_HELP, _JSON) + own)],
              ["{%s}" % ",".join(COMMANDS), "..."] if name is None else
              [positional if required else "[%s]" % positional]]
    line = " ".join(["usage:", prog] + groups[0] + groups[1])
    if len(line) > 78:  # the options after the name, the positionals below
        lines, line, margin = [], "usage: " + prog, " " * (len(prog) + 7)
        for group in groups:
            for part in group:
                if len(line) + 1 + len(part) > 78 and line.strip():
                    lines.append(line)
                    line = margin
                line += " " + part
            lines.append(line)
            line = margin
        line = "\n".join(lines)
    return line + "\n"


def _help(name) -> str:
    """The -h text of a level: its usage, what it does, and one row for
    each subcommand or its positional and for each option."""
    _, about, positional, _, own = COMMANDS.get(name, _TOP)
    rows = [(key, spec[1]) for key, spec in COMMANDS.items()] \
        if name is None else [(positional, "")]
    rows += [(", ".join(o[0]) + _metavar(o), o[3])
             for o in (_HELP, _JSON) + own]
    width = max(len(left) for left, _ in rows) + 4
    rows = "".join((("  " + left).ljust(width) + right).rstrip() + "\n"
                   for left, right in rows)
    epilog = "" if name else ("\nA polynomial that begins with '-' goes"
                              " after '--': minreg gotzmann -- -3+5z\n")
    return "%s\n%s\n\n%s%s" % (_usage(name), about, rows, epilog)


def _kind(word, flags, refuse):
    """How argparse reads a word before `--`: None for a positional, else
    (its option, None if unknown; the flag; the explicit value or None)."""
    if word[:1] != "-" or word == "-":
        return None
    if word in flags:
        return flags[word], word, None
    flag, eq, value = word.partition("=")
    if eq and flag in flags:
        found = [(flags[flag], flag, value)]
    elif word[1] == "-":  # a unique prefix of a long flag
        found = [(flags[f], f, value if eq else None)
                 for f in flags if f.startswith(flag)]
    else:  # -ovalue
        found = [(flags[f], f, word[2:]) for f in flags if f == word[:2]]
    if len(found) > 1:
        refuse("ambiguous option: %s could match %s"
               % (word, ", ".join(f for _, f, _ in found)))
    if found:
        return found[0]
    return None if _NUMBER.match(word) or " " in word else (None, word, None)


def _walk(name, words, fields):
    """Read the words of one level, the top one for name None, into
    fields, as argparse reads them on Python 3.11; the subcommand takes
    every word after it.  Returns the words left unrecognized, or None
    once -h has printed the help; UsageError on a refused line."""
    _, _, positional, required, own = COMMANDS.get(name, _TOP)
    flags = _FLAGS[name]

    def refuse(message, option=None):
        if option:
            message = "argument %s: %s" % ("/".join(option[0]), message)
        raise UsageError(message, _usage(name))

    # Every word up to `--` is read before any is taken, as argparse does.
    # The top level takes none past its subcommand, so it reads only those
    # there that it refuses: a prefix of both --help and --json.
    n = len(words)
    cut = words.index("--") if "--" in words else n
    kinds = []
    for word in words[:cut]:
        if name or None not in kinds or word[:3] == "--=":
            kinds.append(_kind(word, flags, refuse))
    kinds += ["--"] * (cut < n) + [None] * (n - cut - 1)
    fields[positional] = None
    for option in own:
        fields[_dest(option)] = False if option[1] == "flag" else None
    extras, seen, pending, i = [], set(), True, 0
    while i < n:
        kind = kinds[i]
        if not isinstance(kind, tuple):  # a positional or the `--`
            j = i + (kind == "--")
            if not pending or (j == n and required):
                extras.append(words[i])
                i += 1
            elif name is None:
                if words[i] not in COMMANDS:
                    refuse("argument subcommand: invalid choice: %r (choose"
                           " from %s)" % (words[i], ", ".join(map(repr,
                                                                COMMANDS))))
                fields.update(subcommand=words[i],
                              handler=COMMANDS[words[i]][0])
                rest = _walk(words[i], words[i + 1:], fields)
                return None if rest is None else extras + rest
            else:
                fields[positional] = words[j] if j < n else None
                pending = False
                i = j + 1 + (kinds[j + 1:j + 2] == ["--"])
            continue
        option, flag, explicit = kind
        if option is None:
            extras.append(words[i])
            i += 1
            continue
        taken = []  # -hx is -h then -x
        while option[1] in ("flag", "help") and explicit is not None:
            if flag[1] == "-" or not explicit \
                    or "-" + explicit[0] not in flags:
                refuse("ignored explicit argument %r" % explicit, option)
            taken.append((option, None))
            flag = "-" + explicit[0]
            option, explicit = flags[flag], explicit[1:] or None
        value = explicit
        if option[1] in (int, str) and explicit is None:
            if i + 1 == n or kinds[i + 1] is not None:
                refuse("expected one argument", option)
            i, value = i + 1, words[i + 1]
        i += 1
        for option, value in taken + [(option, value)]:
            if option[1] == "help":
                sys.stdout.write(_help(name))
                return None
            if option[1] is int:
                try:
                    value = int(value)
                except ValueError:
                    refuse("invalid int value: %r" % value, option)
            seen.add(option)
            fields[_dest(option)] = True if option[1] == "flag" else value
    missing = [positional] if pending and required else []
    missing += ["/".join(o[0]) for o in own if o[2] and o not in seen]
    if missing:
        refuse("the following arguments are required: " + ", ".join(missing))
    return extras


def _read(argv):
    """The fields of a command line, or None once -h has printed the
    help; UsageError on a line that argparse would refuse."""
    fields = {"json": False}
    extras = _walk(None, list(argv), fields)
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras),
                         _usage(None))
    return None if extras is None else SimpleNamespace(**fields)


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
        args = _read(argv)
    except UsageError as exc:
        # --json, or a prefix of it such as --js, before any `--`
        words = argv[:list(argv).index("--")] if "--" in argv else argv
        json_mode = any(len(word) > 2 and "--json".startswith(word)
                        for word in words)
        if not json_mode:
            sys.stderr.write(exc.usage)
        return _report(exc, json_mode)
    if args is None:  # -h printed the help
        return 0
    try:
        return args.handler(args)
    except Exception as exc:  # not BaseException: interrupts get through
        return _report(exc, args.json)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

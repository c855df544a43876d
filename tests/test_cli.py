"""End-to-end tests for the command line interface."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import minreg.cli
import minreg.functions
import minreg.polynomials
import minreg.regularity
from conftest import from_writing, reference_parser, writings
from minreg.cli import UsageError, main
from minreg.errors import (InputError, InternalInconsistency,
                           VerificationFailure)
from minreg.polynomials import polynomial_from_coefficients, quotient_tail
from minreg.verify import certificate_from_dict, verify_witness


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gotzmann(capsys):
    code, out, _ = run(capsys, "gotzmann", "5z-3")
    assert (code, out) == (0, "7\n")
    code, out, _ = run(capsys, "gotzmann", "2z^3-6z^2+29z-20")
    assert (code, out) == (0, "218498\n")


def test_rho_flavours(capsys):
    assert run(capsys, "rho", "9z-7")[:2] == (0, "2\n")
    assert run(capsys, "rho-bar", "9z-7")[:2] == (0, "2\n")
    assert run(capsys, "rho", "6z^2-18z+37")[:2] == (0, "1\n")
    assert run(capsys, "rho-bar", "6z^2-18z+37")[:2] == (0, "4\n")


def test_minfn(capsys):
    code, out, _ = run(capsys, "minfn", "15z-24", "--rho", "3")
    assert (code, out) == (0, "1,5,11 ; 15z-24\n")
    code, out, _ = run(capsys, "minfn", "12z-25", "--rho", "7", "--g")
    assert (code, out) == (0, "1,4,9,16,25,36,48 ; 12z-25\n")
    # --g keeps the minimal function when its regularity is already rho
    code, out, _ = run(capsys, "minfn", "14", "--rho", "1", "--g")
    assert (code, out) == (0, "1 ; 14\n")
    code, out, _ = run(capsys, "minfn", "3/2z^2+15/2z-18", "--rho", "4", "--g")
    assert (code, out) == (0, "1,5,11,21 ; 3/2z^2+15/2z-18\n")
    # a bump at 0 would leave the value 2 there
    assert run(capsys, "minfn", "2z+1", "--rho", "1", "--g")[0] == 1
    # the default rho is the least scheme regularity
    code, out, _ = run(capsys, "minfn", "5z-3")
    assert (code, out) == (0, "1,4,8 ; 5z-3\n")


def test_exists(capsys):
    code, out, _ = run(capsys, "exists", "5z-3", "--rho", "4")
    assert (code, out) == (1, "empty\n")
    code, out, _ = run(capsys, "exists", "5z-3", "--rho", "3")
    assert (code, out) == (0, "1,4,8 ; 5z-3\n")
    # rho at or past the Gotzmann number: empty without walking rho steps
    code, out, _ = run(capsys, "exists", "5z-3", "--rho", "10000000")
    assert (code, out) == (1, "empty\n")


def test_minreg_global(capsys):
    code, out, _ = run(capsys, "minreg", "2z^3-6z^2+29z-20")
    assert (code, out) == (0, "7\n")
    code, out, _ = run(capsys, "minreg", "1/3z^3+2z^2+14/3z-4")
    assert (code, out) == (0, "5\n")


def test_minreg_modes(capsys):
    assert run(capsys, "minreg", "12z-25", "--rho", "7")[:2] == (0, "9\n")
    assert run(capsys, "minreg", "12z-25", "--rho", "6")[:2] == (0, "8\n")
    assert run(capsys, "minreg", "15z-24", "--ambient", "4")[:2] == (0, "5\n")
    code, out, _ = run(capsys, "minreg", "--hf", "1,4,9,16,25,36,48 ; 12z-25")
    assert (code, out) == (0, "9\n")


def test_minreg_input_validation(capsys):
    assert run(capsys, "minreg")[0] == 2
    assert run(capsys, "minreg", "5z-3", "--hf", "1,4,8 ; 5z-3")[0] == 2
    assert run(capsys, "minreg", "5z-3", "--rho", "3",
               "--ambient", "4")[0] == 2


def test_minreg_domain_errors(capsys):
    code, _, err = run(capsys, "minreg", "5z-3", "--rho", "4")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "minreg", "12z-25", "--rho", "3000")
    assert code == 1
    assert "regularity 3000" in err
    code, _, err = run(capsys, "minreg", "z+1")
    assert code == 1
    assert "linear variety" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "minreg", "zz+1")
    assert code == 2
    assert "error" in err
    for argv in (["gotzmann", "1/0z"], ["minreg", "--hf", "1,2 ; 1/0z"]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "zero denominator" in err


def _error(code, message):
    return {"error": {"code": code, "message": message}, "schema": 1}


def _too_long(term):
    return pytest.param(term, (2, _error(
        "ParseError", "term %r has more digits than Python converts" % term)),
        None, id="%s-digits" % term.replace("1" * 5000, "5000"))


# Each token's exit code and document from gotzmann, and from minreg
# --hf "1,2 ; token" where they differ: the term grammar's refusals, and
# bracket lists read by Fraction's grammar.  A numeral of 5000 digits is
# past the 4300 that int() converts by default.
@pytest.mark.parametrize("token,gotzmann,hf", [
    ("1/0z", (2, _error("ParseError", "zero denominator in '1/0z'")), None),
    ("[1/0]", (2, _error("ParseError", "bad coefficient list '[1/0]'")),
     None),
    ("[1/-2]", (2, _error("ParseError", "bad coefficient list '[1/-2]'")),
     None),
    ("[1.5,2]", (1, _error("NotAdmissible", "not integer valued at z = 1")),
     None),
    ("[2e1,1]", (0, {"command": "gotzmann", "gotzmann_number": 191,
                     "polynomial": "20z+1", "schema": 1}),
     (1, _error("NotSchemeHF",
                "1,2 ; 20z+1 is not the Hilbert function of a scheme"))),
    ("1//3z", (2, _error("ParseError", "bad term '1//3z' in '1//3z'")),
     None),
    ("z^-2", (2, _error("ParseError", "bad term 'z^' in 'z^-2'")), None),
    _too_long("1" * 5000 + "z"),
    _too_long("z^" + "1" * 5000),
])
def test_token_cases_keep_their_documents(capsys, token, gotzmann, hf):
    code, out, _ = run(capsys, "gotzmann", token, "--json")
    assert (code, json.loads(out)) == gotzmann
    code, out, _ = run(capsys, "minreg", "--hf", "1,2 ; " + token, "--json")
    assert (code, json.loads(out)) == (hf or gotzmann)


def _low_exponents(text):
    """At most degree 12, as an exponent or a bracket list's length: the
    Gotzmann runs of z^20 alone take minutes."""
    return (all(int(e) <= 12 for e in re.findall(r"\^(\d+)", text))
            and text.count(",") <= 12)


_terms = st.lists(
    st.tuples(st.sampled_from(["", "+", "-"]),
              st.sampled_from(["", "0", "1", "2", "3", "12", "1/2", "3/2",
                               "5/6", "14/3"]),
              st.sampled_from(["", "z", "z^0", "z^2", "z^3", "z^12"])),
    min_size=1, max_size=5).map(lambda ts: "".join("".join(t) for t in ts))
_texts = st.one_of(st.text("0123456789z^+-/[]., ", max_size=24),
                   _terms).filter(_low_exponents)


@settings(max_examples=120, deadline=10000)
@given(_texts)
def test_any_text_ends_in_one_document(text):
    """Arbitrary text over the grammar's alphabet, and sums of terms,
    through gotzmann and through minreg --hf: an answer, a domain refusal
    or a parse refusal, as one JSON document, and never a bug.  The text
    follows `--`, as argparse would read a bare `-h` or `--` as an
    option."""
    for argv in (["gotzmann", "--json", "--", text],
                 ["minreg", "--hf", "1,2 ; " + text, "--json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), (argv, out.getvalue())
        json.loads(out.getvalue())


@st.composite
def _questions(draw):
    """A command line asking one question of a random admissible
    polynomial: every subcommand that takes one, with or without its
    options, in text or --json."""
    p = polynomial_from_coefficients(from_writing(draw(writings)))
    rho = ["--rho", str(draw(st.integers(-3, 30)))]
    ambient = ["--ambient", str(draw(st.integers(-1, 12)))]
    command, *options = draw(st.sampled_from([
        ["rho"], ["rho-bar"], ["minfn"], ["minfn", "--g"], ["minfn"] + rho,
        ["minfn", "--g"] + rho, ["exists"] + rho, ["minreg"],
        ["minreg"] + rho, ["minreg"] + ambient, ["table"], ["table"] + rho,
        ["witness"]]))
    json_flag = draw(st.sampled_from([[], ["--json"]]))
    return [command, str(p)] + options + json_flag


@settings(max_examples=300, deadline=None)
@given(_questions())
def test_every_question_ends_in_one_answer(argv):
    """An answer, a domain refusal or a refused line, never a bug or a
    traceback; under --json exactly one document on stdout and nothing
    on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, out, err)
    assert "Traceback" not in out + err, argv
    if "--json" in argv:
        assert json.loads(out)["schema"] == 1, argv
        assert err == "", argv


def test_too_many_digits_is_a_domain_error(capsys):
    # The Gotzmann number of z^10 has 6410 digits, past Python's 4300-digit
    # int-to-str limit: a domain limit, refused before it is printed.
    message = ("the Gotzmann number of z^10 has 6410 digits, more than the"
               " 4300 that Python converts to text")
    for command in ("gotzmann", "table"):
        code, out, err = run(capsys, command, "z^10")
        assert (code, out, err) == (1, "", "error: %s\n" % message)
        code, out, err = run(capsys, command, "z^10", "--json")
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == {"code": "TooManyDigits",
                                            "message": message}
    # minreg prints the number only in its --json trace
    assert run(capsys, "minreg", "z^10") == (0, "7\n", "")
    code, out, _ = run(capsys, "minreg", "z^10", "--json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "TooManyDigits"
    # 2693 digits still print
    code, out, _ = run(capsys, "gotzmann", "z^9")
    assert (code, len(out)) == (0, 2694)


def test_bugs_exit_three(capsys, monkeypatch):
    for error in (InternalInconsistency, VerificationFailure):
        def broken(*args, error=error):
            raise error("broken on purpose")
        monkeypatch.setattr(minreg.cli, "witness_min_reg", broken)
        code, out, _ = run(capsys, "witness", "5z-3", "--json")
        assert code == 3
        assert json.loads(out)["error"] == {"code": error.__name__,
                                            "message": "broken on purpose"}


def test_unreadable_and_unwritable_files_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "verify", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read ")
    code, out, _ = run(capsys, "verify", str(missing), "--json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "InputError"
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "verify", str(binary))
    assert (code, out) == (2, "")
    assert "is not JSON" in err
    unwritable = tmp_path / "no-such-directory" / "cert.json"
    code, out, err = run(capsys, "witness", "5z-3", "-o", str(unwritable))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ")


def test_other_os_errors_are_bugs(capsys, monkeypatch):
    # only the certificate read and the -o write are input errors; an
    # OSError from anywhere else, a TimeoutError included, is a bug
    for error in (OSError, TimeoutError):
        def broken(*args, error=error):
            raise error("broken on purpose")
        monkeypatch.setattr(minreg.cli, "witness_min_reg", broken)
        code, out, err = run(capsys, "witness", "5z-3")
        assert (code, out, err) == (3, "", "error: broken on purpose\n")


def test_an_error_without_a_message_is_named(capsys, monkeypatch):
    # a MemoryError carries no message; the error line names its class
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(minreg.cli, "witness_min_reg", exhausted)
    code, out, err = run(capsys, "witness", "5z-3")
    assert (code, out, err) == (3, "", "error: MemoryError\n")
    code, out, _ = run(capsys, "witness", "5z-3", "--json")
    assert code == 3
    assert json.loads(out)["error"] == {"code": "MemoryError",
                                        "message": "MemoryError"}


def test_interrupts_are_not_caught(capsys, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(minreg.cli, "min_regularity", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["minreg", "5z-3"])


def test_unknown_subcommand_exits_two(capsys):
    code, out, err = run(capsys, "no-such-command")
    assert (code, out) == (2, "")
    assert err.startswith("usage: minreg")
    assert "invalid choice: 'no-such-command'" in err


def test_refused_options_return_two_with_the_usage_line(capsys):
    code, out, err = run(capsys, "exists", "5z-3", "--rho", "x")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "usage: minreg exists [-h] [--json] --rho RHO polynomial",
        "error: argument --rho: invalid int value: 'x'"]


@pytest.mark.parametrize("argv", [
    ["exists", "5z-3", "--rho", "x", "--json"],
    ["--json", "exists", "5z-3", "--rho", "x"],
    ["--json", "no-such-command"],
    ["exists", "5z-3", "--json"],
    # a prefix of --json reads as --json, and asks for a document too
    ["--js", "no-such"],
    ["gotzmann", "--js"],
])
def test_refused_options_give_an_error_document_under_json(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["error"]["code"] == "UsageError"


def test_json_after_the_double_dash_is_a_positional(capsys):
    code, out, err = run(capsys, "gotzmann", "5z-3", "--", "--json")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: unrecognized arguments: --json"
    assert err.startswith("usage: minreg [-h] [--json]\n")


# Words for command lines: the subcommands, their options, prefixes of
# them (--js, --he, --r, --am, --out; --h is ambiguous under minreg and
# witness), the forms -ofile and --rho=3, `--`, `-`, negative numbers and
# a polynomial that begins with '-', and an unknown option.
_WORDS = ["gotzmann", "rho", "rho-bar", "minfn", "exists", "minreg",
          "witness", "verify", "table", "--json", "--js", "-h", "--help",
          "--he", "--h", "--rho", "--rho=3", "--r", "--am", "--ambient",
          "--hf", "--g", "-o", "-ofile", "--out", "--", "-", "5z-3", "-3",
          "-3+5z", "x", "3", "1,4,8 ; 5z-3", "--bogus"]


def _outcome(read, argv):
    """What a reader makes of argv: its fields, its refusal (message and
    usage words: Python 3.13 wraps the top usage line elsewhere), or the
    help it printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            fields = read(list(argv))
    except UsageError as exc:
        return "refused", str(exc), exc.usage.split()
    except SystemExit as exc:
        fields = None
        assert exc.code == 0
    if fields is None:
        assert out.getvalue().startswith("usage: minreg")
        return "help", out.getvalue().split("\n")[0]
    return "read", vars(fields)


_REFERENCE = reference_parser()


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_WORDS), max_size=6))
@example(["minreg", "--amb", "4", "5z-3"])
@example(["minreg", "--h"])
@example(["--json", "minreg", "-3", "--rho", "-3", "--rho=3"])
@example(["witness", "-ofile", "--", "-3+5z"])
@example(["minfn", "5z-3", "x"])
@example(["exists", "--rho", "x", "-h"])
@example(["minreg", "5z-3", "--=x"])
def test_the_reader_reads_as_argparse_does(argv):
    """The table reader against the argparse parser it replaced: the same
    fields, the same refusal, or the help of the same level."""
    assert _outcome(minreg.cli._read, argv) == \
        _outcome(_REFERENCE.parse_args, argv)


@pytest.mark.parametrize("argv,message", [
    # Python 3.13's argparse prints the help for -hx; 3.10 and 3.11 refuse
    # it, as the reader does
    (["gotzmann", "-hx"], "argument -h/--help: ignored explicit argument"
                          " 'x'"),
    (["minreg", "--json=x"], "argument --json: ignored explicit argument"
                             " 'x'"),
    (["minreg", "--=x"], "ambiguous option: --=x could match --help, --json"),
    (["-h=x"], "argument -h/--help: ignored explicit argument 'x'"),
    # 3.10 and 3.11 drop an explicit `--` and set rho to an empty list,
    # which no handler expects; 3.13 reads the word, as the reader does
    (["minreg", "5z-3", "--rho=--"], "argument --rho: invalid int value:"
                                     " '--'"),
])
def test_the_reader_refuses_explicit_values(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: " + message


def test_the_reader_takes_the_forms_of_a_value():
    read = minreg.cli._read
    assert {read(argv).ambient for argv in (
        ["minreg", "--ambient", "4", "15z-24"],
        ["minreg", "--ambient=4", "15z-24"],
        ["minreg", "--amb", "4", "15z-24"],
        ["minreg", "15z-24", "--ambient", "9", "--ambient", "4"])} == {4}
    assert {read(["witness"] + words).output for words in (
        ["-o", "c.json"], ["-oc.json"], ["-o=c.json"],
        ["--output", "c.json"], ["--out=c.json"])} == {"c.json"}
    assert read(["minreg", "--rho", "-3"]).rho == -3
    assert read(["gotzmann", "--", "-3+5z"]).polynomial == "-3+5z"
    assert read(["gotzmann", "5z-3", "--json"]).json
    assert read(["--json", "gotzmann", "5z-3"]).json


def test_help_lists_the_table(capsys):
    code, out, _ = run(capsys, "-h")
    assert code == 0
    for name in minreg.cli.COMMANDS:
        assert re.search(r"^  %s  " % re.escape(name), out, re.M), name
    assert "minreg gotzmann -- -3+5z" in out
    code, out, _ = run(capsys, "witness", "--he")
    assert code == 0
    assert out.startswith("usage: minreg witness [-h] [--json] [--hf HF]"
                          " [-o OUTPUT] [polynomial]\n")
    assert re.search(r"^  -o, --output OUTPUT +write the certificate", out,
                     re.M)


@pytest.mark.parametrize("argv", [["-h"], ["exists", "-h"]])
def test_help_is_printed_and_returns_zero(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: minreg")


def test_table_reproduces_the_trace(capsys):
    code, out, _ = run(capsys, "table", "1/3z^3+2z^2+14/3z-4")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[0] == ["polynomial", "gotzmann", "rho", "rho_scheme",
                       "rho_used", "rho_fit", "regularity"]
    assert rows[1] == ["1/3z^3+2z^2+14/3z-4", "10", "3", "3", "3", "4", "5"]
    assert rows[2] == ["z^2+3z+3", "6", "1", "1", "4", "2", "5"]
    assert rows[3] == ["2z+2", "3", "1", "1", "2", "1", "3"]
    assert rows[4] == ["2", "2", "1", "1", "1", "-", "2"]


def test_table_for_the_second_appendix_polynomial(capsys):
    code, out, _ = run(capsys, "table", "2z^3-6z^2+29z-20")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[1] == ["2z^3-6z^2+29z-20", "218498", "2", "2", "2", "4", "7"]
    assert rows[2] == ["6z^2-18z+37", "678", "1", "4", "4", "5", "7"]
    assert rows[3] == ["12z-24", "42", "5", "5", "5", "6", "7"]
    assert rows[4] == ["12", "12", "1", "1", "6", "-", "7"]


def test_table_builds_only_the_output_it_prints(capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("built for the other mode")

    text = run(capsys, "table", "2z^3-6z^2+29z-20")[1]
    document = run(capsys, "table", "2z^3-6z^2+29z-20", "--json")[1]
    monkeypatch.setattr(minreg.cli, "_trace_payload", unused)
    assert run(capsys, "table", "2z^3-6z^2+29z-20") == (0, text, "")
    monkeypatch.undo()
    monkeypatch.setattr(minreg.regularity.RegularityReport, "table_lines",
                        unused)
    assert run(capsys, "table", "2z^3-6z^2+29z-20", "--json") == \
        (0, document, "")


def test_high_degree_polynomials_descend_without_recursion(capsys):
    # The quadric hypersurface in P^300: one descent level per degree,
    # 299 of them, each finding the minima of the levels below kept.
    p = quotient_tail({(300, 2): 1}, 301)
    assert run(capsys, "minreg", str(p)) == (0, "2\n", "")
    code, out, _ = run(capsys, "table", str(p))
    assert code == 0
    assert len(out.splitlines()) == 1 + p.degree + 1


def test_json_mode(capsys):
    code, out, _ = run(capsys, "minreg", "12z-24", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["regularity"] == 7
    assert payload["trace"][0]["polynomial"] == "12z-24"
    assert payload["trace"][-1]["rho_fit"] is None


def test_json_flag_before_the_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "gotzmann", "5z-3")
    assert code == 0
    assert json.loads(out)["gotzmann_number"] == 7
    # the parser is built once per process; --json must not stick
    assert run(capsys, "gotzmann", "5z-3")[:2] == (0, "7\n")


def test_json_error_document(capsys):
    code, out, _ = run(capsys, "exists", "5z-3", "--rho", "4", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["exists"] is False
    code, out, _ = run(capsys, "minreg", "5z-3", "--rho", "4", "--json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "EmptyClass"
    code, out, _ = run(capsys, "--json", "minreg", "zz+1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "ParseError"


def test_witness_document_round_trips(capsys):
    code, out, _ = run(capsys, "witness", "15z-24",
                       "--hf", "1,5,11 ; 15z-24")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["regularity"] == 5
    cert = certificate_from_dict(payload)
    assert verify_witness(cert).ok
    assert cert.as_dict()["ideal"] == payload["ideal"]


def test_witness_defaults_to_the_global_minimum(capsys):
    code, out, _ = run(capsys, "witness", "5z-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["regularity"] == 5
    assert payload["hilbert_function"] == "1,4,8 ; 5z-3"


def test_witness_rejects_a_mismatched_tail(capsys):
    code = run(capsys, "witness", "9z-7", "--hf", "1,5,11 ; 15z-24")[0]
    assert code == 2
    assert run(capsys, "witness")[0] == 2
    assert run(capsys, "witness", "--hf", "1,2,3")[0] == 2


@pytest.mark.parametrize("text", ["1 ; 0", "1,3 ; 0", "1 ; 1",
                                  "1,2,3 ; z+1", "1,4 ; 5z-3"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_witness_refuses_what_minreg_refuses(capsys, text, flags):
    # A function outside the descent's domain, a zero tail included, is
    # a domain outcome for both commands, with the same error.
    refused = run(capsys, "witness", "--hf", text, *flags)
    assert refused == run(capsys, "minreg", "--hf", text, *flags)
    assert refused[0] == 1


def test_witness_of_a_polynomial_tests_its_function_once(capsys,
                                                        monkeypatch):
    """`witness p` takes its descent from min_regularity, in which the
    minimal scheme function is built and passes its scheme test, and
    hands the report to the builder, which neither tests nor rebuilds
    it; `witness --hf` keeps its own test."""
    tested, built = [], []

    def counted(h, real=minreg.functions.is_scheme_function):
        tested.append(str(h))
        return real(h)

    def counted_build(p, rho, real=minreg.functions.minimal_function):
        built.append((str(p), rho))
        return real(p, rho)

    for module in (minreg.functions, minreg.regularity, minreg.cli):
        if hasattr(module, "is_scheme_function"):
            monkeypatch.setattr(module, "is_scheme_function", counted)
        monkeypatch.setattr(module, "minimal_function", counted_build)
    # 9z-7 parses to a fresh record, with no descent kept on it
    minreg.polynomials.parse_tail.cache_clear()
    code, out, _ = run(capsys, "witness", "9z-7", "--json")
    assert code == 0
    assert tested == [json.loads(out)["hilbert_function"]]
    assert built == [("9z-7", 2)]
    tested.clear()
    code, out, _ = run(capsys, "witness", "--hf", "1,4 ; 5z-3", "--json")
    assert code == 1 and tested == ["1,4 ; 5z-3"]
    assert json.loads(out)["error"]["code"] == "NotSchemeHF"


def test_a_session_reads_each_polynomial_text_once(capsys, monkeypatch):
    """Ten questions about one polynomial read its text once: every
    later one takes the record parse_tail keeps."""
    read = []

    def counted(text, real=minreg.polynomials.parse_coefficients):
        read.append(text)
        return real(text)

    monkeypatch.setattr(minreg.polynomials, "parse_coefficients", counted)
    minreg.polynomials.parse_tail.cache_clear()
    for argv in (["gotzmann"], ["rho"], ["rho-bar"], ["minfn"],
                 ["minfn", "--rho", "5"], ["exists", "--rho", "5"],
                 ["minreg"], ["minreg", "--rho", "5"],
                 ["minreg", "--ambient", "4"], ["table"]):
        assert run(capsys, argv[0], "6z-9", *argv[1:])[0] in (0, 1)
    assert read == ["6z-9"]


_HELD_BY_A_SESSION = """
import contextlib, gc, io, tracemalloc
from minreg.cli import main

def ask(n):
    text = "%dz+%d" % (2 + n % 40, n // 40 + 1)
    for argv in (["minreg", text], ["table", text, "--json"],
                 ["exists", text, "--rho", "3"]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)

for n in range(1000):
    ask(n)
gc.collect()
tracemalloc.start()
for n in range(1000, 4000):
    ask(n)
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_a_long_session_holds_memory_bounded_by_its_caches():
    # 3,000 distinct texts after 1,000 of warm-up: the facts derived
    # from a polynomial live as long as its record, so the session keeps
    # no more than its bounded caches do, however many texts it reads.
    # Tables of facts keyed on the records would hold about 1.5 KB a
    # text, 4.5 MB here.  A fresh interpreter counts what this session
    # keeps, whatever earlier tests have built.
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        minreg.cli.__file__)))
    held = subprocess.run(
        [sys.executable, "-c", _HELD_BY_A_SESSION],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True, timeout=120).stdout
    assert int(held) < 1 << 20


def test_witness_and_verify_through_files(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "witness", "15z-24",
                       "--hf", "1,5,11 ; 15z-24", "-o", str(path))
    assert code == 0
    assert "regularity-5 certificate" in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "verification passed" in out
    code, out, _ = run(capsys, "verify", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert all(payload["checks"].values())


def test_verify_flags_a_tampered_certificate(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, "witness", "15z-24", "--hf", "1,5,11 ; 15z-24",
        "-o", str(path))
    payload = json.loads(path.read_text())
    payload["ideal"]["generators"] = payload["ideal"]["generators"][1:]
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAILED" in out
    assert "verification failed" in out


def test_verify_refuses_redundant_listed_generators(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, "witness", "5z-3", "-o", str(path))
    payload = json.loads(path.read_text())
    assert payload["regularity"] == 5
    payload["ideal"]["generators"].append([0, 0, 1, 6])
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "minimal generators: FAILED" in out


def line_certificate(**changes):
    """The certificate of the line (x1) in two variables, as a document."""
    document = {"ideal": {"vars": 2, "generators": [[0, 1]]},
                "hilbert_function": "; 1", "regularity": 1}
    document["ideal"].update(changes.pop("ideal", {}))
    document.update(changes)
    return document


def test_verify_rejects_malformed_documents(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(line_certificate()))
    assert run(capsys, "verify", str(path))[0] == 0
    path.write_text("{ not json")
    assert run(capsys, "verify", str(path))[0] == 2
    path.write_text(json.dumps({"regularity": 3}))
    assert run(capsys, "verify", str(path))[0] == 2
    missing = tmp_path / "missing.json"
    assert run(capsys, "verify", str(missing))[0] == 2
    # integers are not truncated: bools and floats are malformed
    for document in (line_certificate(ideal={"vars": 0}),
                     line_certificate(ideal={"generators": [[0, 1.5]]}),
                     line_certificate(ideal={"generators": [[0, True]]}),
                     line_certificate(regularity=1.9),
                     line_certificate(ideal={"generators": [[0, 1], [0, 1]]})):
        path.write_text(json.dumps(document))
        assert run(capsys, "verify", str(path))[0] == 2, document
    # a generator listed twice is named, not folded into one
    assert "generator [0, 1] is listed twice" in run(capsys, "verify",
                                                      str(path))[2]
    # the log is absent or a list of strings; no other iterable is read
    # line by line
    for log in ("abc", {"a": 1}, [1, None], 5):
        path.write_text(json.dumps(line_certificate(log=log)))
        assert run(capsys, "verify", str(path)) == (
            2, "", "error: malformed certificate: log is not a list of"
            " strings\n"), log


def test_the_loader_reads_the_log_as_a_list_of_strings():
    assert certificate_from_dict(line_certificate()).log == ()
    assert certificate_from_dict(
        line_certificate(log=["a", "b"])).log == ("a", "b")
    for log in ("abc", {"a": 1}, [1, None], 5, None, ["a", ["b"]]):
        with pytest.raises(InputError, match="^malformed certificate: log is"
                           " not a list of strings$"):
            certificate_from_dict(line_certificate(log=log))


def test_verify_refuses_a_false_regularity_at_once(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(line_certificate(regularity=100000)))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "regularity: FAILED" in out
    assert "hilbert function by enumeration: FAILED" in out


_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(-2 ** 70, -2 ** 64) | st.text())
_payloads = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _payloads, max_size=5))
@example({"a": [True, 1, False, 0, None], "b": {}, "c": [], "d": [[], {}],
          "\u00e9\u2603\U0001f600": "\x00\x1f\"\\\u2028\n",
          "n": [-(10 ** 40), 10 ** 40, -1]})
def test_the_writer_writes_what_json_dumps_writes(payload):
    expected = json.dumps(dict(payload, schema=1), indent=2, sort_keys=True)
    assert minreg.cli._document(payload) == expected


@pytest.mark.parametrize("value", [1.5, (1, 2), {1, 2}, {1: "a"},
                                   [b"bytes"], {"a": [object()]}])
def test_the_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        minreg.cli._document({"value": value})

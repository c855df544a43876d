"""The package's public surface: the names it exports, the standard
modules its CLI leaves unloaded, the layering of its modules, and the
README's library example and command lines, run as written."""

import ast
import os
import re
import shlex
import subprocess
import sys

import pytest

import minreg
from conftest import readme_block
from minreg import cli

PUBLIC = [
    "AdmissiblePolynomial", "AmbientTooSmall", "DomainError", "EmptyClass",
    "HilbertFunction", "InputError", "InternalInconsistency",
    "LinearVariety", "MinregError", "NegativeDerivative", "NotAdmissible",
    "NotSchemeHF", "ParseError", "RegularityReport",
    "RhoTooSmall", "StronglyStableIdeal", "TooManyDigits",
    "VerificationFailure", "VerificationReport", "WitnessCertificate",
    "certificate_from_dict",
    "is_admissible_function", "is_scheme_function",
    "min_function_regularity", "min_regularity", "min_regularity_at",
    "min_regularity_in_space", "min_regularity_of_function",
    "min_scheme_regularity", "minimal_function", "minimal_function_exact",
    "minimal_scheme_function", "parse_hilbert_function", "parse_polynomial",
    "polynomial_from_coefficients", "verify_witness", "witness_min_reg",
]

# The paper's stepwise constructions and their helpers, which the witness
# route does not run, the Borel order, which no construction compares
# terms by, and the Eliahou-Kervaire indices, which the verifier reads off
# its own table; the tests keep them in conftest.  NotSaturated went with
# the ideal's own Hilbert function.
REMOVED = [
    "DegreeMismatch", "NoRemovableTerm", "NotSaturated",
    "PreconditionViolation", "artinian_lift", "borel_leq", "degrevlex_key",
    "ek_index", "expanded_lifting", "ideal_graft", "lex_segment_ideal",
    "min_index", "minus_minus", "remove_minimal_term",
]

def test_the_public_api_is_pinned():
    assert minreg.__all__ == sorted(PUBLIC)
    assert len(PUBLIC) == 37
    for name in PUBLIC:
        assert getattr(minreg, name) is not None, name
    modules = [minreg.binomials, minreg.borel, minreg.cli,
               minreg.constructions, minreg.errors, minreg.functions,
               minreg.polynomials, minreg.regularity]
    for name in REMOVED:
        with pytest.raises(ImportError):
            exec("from minreg import %s" % name, {})
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)


def test_the_cli_imports_neither_fractions_nor_decimal_nor_dataclasses():
    # Polynomial text is parsed and printed in integers; Fraction is
    # imported only for inputs outside the term grammar.  The records are
    # plain classes and named tuples, so dataclasses, which loads inspect,
    # is never compiled and imported by a command.  The command line is
    # read from cli's own table, so neither argparse nor the gettext it
    # loads is imported either.
    src = os.path.dirname(os.path.dirname(os.path.abspath(minreg.__file__)))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, minreg.cli; print(sorted("
         "{'fractions', 'decimal', 'dataclasses', 'inspect', 'argparse',"
         " 'gettext'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True, timeout=60).stdout
    assert loaded == "[]\n"


def test_the_witness_builder_does_not_import_the_descent():
    # witness_min_reg takes a descent report and reads its function,
    # regularity and trace; it runs no descent of its own.
    with open(minreg.constructions.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert imported >= {"borel", "functions"}
    assert not {"regularity", "minreg.regularity"} & imported


def test_the_readme_library_example_runs():
    exec("\n".join(readme_block("Library example", "python")), {})


# A comment that starts with the printed answer: a number, a function
# like "1,5 ; 9z-7", or a quoted word.
ANSWER = re.compile(r'(?:"(?P<quoted>[^"]*)"|(?P<plain>\d[\d,]*(?: ; \S+)?))'
                    r'(?:,|$)')


def test_the_readme_command_lines_give_their_answers(tmp_path, capsys,
                                                     monkeypatch):
    # Run in a scratch directory: one line writes cert.json and the next
    # verifies it.
    monkeypatch.chdir(tmp_path)
    lines = readme_block("CLI usage")
    answered = 0
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "minreg", line
        code = cli.main(argv[1:])
        out = capsys.readouterr().out
        exit_code = re.search(r"exit (\d)", comment)
        assert code == (int(exit_code.group(1)) if exit_code else 0), line
        answer = ANSWER.match(comment.strip())
        if answer:
            assert out.strip() == (answer.group("quoted")
                                   or answer.group("plain")), line
            answered += 1
    assert (len(lines), answered) == (12, 8)

"""Rewrite tests/data/answers.json, the table of command lines whose
answers tests/test_answers.py holds the program to.

Each entry is [argv, exit code, the first 16 hex digits of the sha256 of
stdout], argv as minreg reads it after the program name.  The command
lines, run in this order in one scratch directory:

* minreg, table and witness on the paper's fixtures, in text and --json;
* the README's command lines, its witness -o cert.json and verify
  cert.json pair included;
* the zero-tail and digit-limit cases;
* every queries and witness item of benchmark seeds 1 and 2, listed by
  bench/workloads.py.

Run from the repository root:

    PYTHONPATH=src python tests/make_answers.py

A change that alters an answer on purpose rewrites the file and lists
each changed command line, with its reason, in CHANGES.md.
"""

import json
import os
import shlex
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS = os.path.join(HERE, "data", "answers.json")
sys.path.insert(0, os.path.join(HERE, os.pardir, "bench"))

import workloads  # noqa: E402
from conftest import answer, readme_block  # noqa: E402

SPECIAL = [
    ["witness", "--hf", "1 ; 0"],
    ["gotzmann", "0"],
    ["gotzmann", "z^10"],
    ["table", "z^10"],
    ["minreg", "z^10", "--json"],
    ["gotzmann", "1" * 5000],
]


def command_lines():
    argvs = [[command, text] + flags for text in workloads.FIXTURES
             for command in ("minreg", "table", "witness")
             for flags in ([], ["--json"])]
    for line in readme_block("CLI usage"):
        argv = shlex.split(line.partition("#")[0])
        assert argv[0] == "minreg", line
        argvs.append(argv[1:])
    argvs += SPECIAL
    for seed in (1, 2):
        for workload in (workloads.queries, workloads.witness):
            argvs += [item["argv"] for item in workload(seed)]
    return argvs


def main():
    argvs = command_lines()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        entries = [[argv, *answer(argv)] for argv in argvs]
        os.chdir(home)
    with open(ANSWERS, "w", encoding="utf-8") as handle:
        handle.write("[\n%s\n]\n" % ",\n".join(
            json.dumps(entry) for entry in entries))
    print("wrote %d command lines to %s" % (len(entries), ANSWERS))


if __name__ == "__main__":
    main()

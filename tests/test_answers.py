"""The same answers: every command line in tests/data/answers.json gives
the exit code and stdout digest the file holds for it.

tests/make_answers.py lists the command lines and rewrites the file; a
change that alters an answer on purpose rewrites it and names each
changed command line in CHANGES.md.
"""

import json
import os

import make_answers
from conftest import answer

ANSWERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "answers.json")


def test_every_command_line_gives_its_recorded_answer(tmp_path, monkeypatch):
    # In file order, in a scratch directory: a README line writes
    # cert.json and the next one verifies it.
    monkeypatch.chdir(tmp_path)
    with open(ANSWERS, encoding="utf-8") as handle:
        table = json.load(handle)
    got = [[argv, *answer(argv)] for argv, _, _ in table]
    assert [(was, now) for was, now in zip(table, got) if was != now] == []


def test_a_warm_session_gives_the_recorded_answers(tmp_path, monkeypatch):
    # The table twice in one process: no answer may depend on the
    # records and reports that earlier command lines left in the caches.
    monkeypatch.chdir(tmp_path)
    with open(ANSWERS, encoding="utf-8") as handle:
        table = json.load(handle)
    for _ in range(2):
        got = [[argv, *answer(argv)] for argv, _, _ in table]
        assert [(was, now) for was, now in zip(table, got) if was != now] \
            == []


def test_the_table_lists_the_command_lines_make_answers_lists():
    # The table is only rewritten by make_answers, so a command line
    # added to or dropped from its list must show here, not go untested.
    with open(ANSWERS, encoding="utf-8") as handle:
        table = json.load(handle)
    assert [argv for argv, _, _ in table] == make_answers.command_lines()

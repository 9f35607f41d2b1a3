"""The README's examples, run as written: the Python snippet must print the
values its comments state, and each CLI example must exit 0."""

import contextlib
import io
import json
import os
import re

import pytest

from cubekh.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def fenced(language: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


CLI_EXAMPLES = [m for block in fenced("sh")
                for m in re.findall(r"echo '(.*)'\s*\|\s*cubekh (--command \w+)", block)]


def test_python_snippet_prints_what_it_states():
    (snippet,) = fenced("python")
    stated = [line.split("#", 1)[1].strip() for line in snippet.splitlines()
              if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    printed = out.getvalue().splitlines()
    assert printed == ["{0: 1, 1: 1, 3: 1}", "3", "3"]
    assert len(printed) == len(stated)
    for value, comment in zip(printed, stated):
        assert re.match(re.escape(value) + r"(,|$)", comment), (value, comment)


def test_cli_examples_found():
    assert [args for _, args in CLI_EXAMPLES] == [
        "--command khr", "--command det", "--command plumbing", "--command lspace"]


@pytest.mark.parametrize("payload, args", CLI_EXAMPLES,
                         ids=[args.split()[-1] for _, args in CLI_EXAMPLES])
def test_cli_example_exits_zero(capsys, monkeypatch, payload, args):
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(args.split()) == 0
    assert "error" not in json.loads(capsys.readouterr().out)

"""README's examples print what README shows: the Python API block, run as
it stands, and each `$ nomfix ...` command, run from the repository root."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from nomfix.cli import main

ROOT = pathlib.Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# a command example: a block of '$ nomfix ...' and the lines it prints
COMMANDS = re.findall(r"```sh\n\$ nomfix ([^\n]*)\n(.*?)```", README, re.S)


def test_python_api_example_prints_what_readme_shows():
    code, shown = re.search(r"## Python API\n\n```python\n(.*?)```\n\n[^\n]*\n\n```text\n(.*?)```", README, re.S).groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == shown


@pytest.mark.parametrize("argv,shown", COMMANDS, ids=[argv for argv, _ in COMMANDS])
def test_command_example_prints_what_readme_shows(capsys, monkeypatch, argv, shown):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(argv))
    assert code == 0 and capsys.readouterr().out == shown


def test_every_command_example_is_run():
    assert [argv for argv, _ in COMMANDS] == ["cunify tests/data/cunify_two_mgu.nom"]
    assert README.count("$ nomfix") == len(COMMANDS)

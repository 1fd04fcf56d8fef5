"""Every CLI output over the corpus, pinned: the sha256 of the exit code,
stdout and stderr of nomfix.cli.main, run in-process on each
tests/data/*.nom under each flag set below, compared with a recorded
copy.  So a change meant to keep the CLI's output cannot change a byte of
it unseen.  The files are named relative to tests/data, so no output
depends on where the repository lies.
Regenerate the expected file only for an intended change of output,
stated in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_outputs.py > tests/data/cli_outputs.json
"""

import hashlib
import io
import json
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

from nomfix.cli import main

DATA = pathlib.Path(__file__).parent / "data"
FLAG_SETS = [
    "alpha",
    "alpha --trace",
    "alpha --json --trace",
    "fresh --trace",
    "fresh --json --trace",
    "fixp --trace",
    "fixp --json --trace",
    "unify",
    "unify --trace",
    "unify --json --trace",
    "cunify",
    "cunify --tree --dedup",
    "cunify --json --tree",
    "cunify --json --dedup",
    "translate --trace",
    "translate --json --trace",
]


def digest(argv: list[str]) -> str:
    """The sha256 of main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def record() -> dict:
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        return {
            f"{flags} {path.name}": digest([*flags.split(), path.name])
            for path in sorted(DATA.glob("*.nom"))
            for flags in FLAG_SETS
        }
    finally:
        os.chdir(cwd)


def test_outputs_match_recording():
    want = json.loads((DATA / "cli_outputs.json").read_text())
    got = record()
    assert list(got) == list(want)
    assert [key for key in want if got[key] != want[key]] == []


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    print()

"""The CLI's ``--help`` texts and argument errors are pinned.

``--help`` and every subcommand's ``--help`` print to stdout and return 0
(``run_cli`` turns argparse's exit into its return code); their argv, exit
code, stdout and stderr hash to a pinned digest, with the help width fixed
at 80 columns.  A bad invocation prints one ``error:`` line to stderr and
exits 1.  argparse words both, so the pins also hold its wording as CPython
3.11 prints it.
"""

import hashlib

import pytest

from bellbox.cli import run_cli

HELP_DIGEST = "dd6e9650d561b03bc4f82356c613ffdeb31b69cb068fa965f839bbf981a47630"

SUBCOMMANDS = ("exact", "sample", "chsh", "nosig", "membership", "classify", "show")

USAGE_ERRORS = [
    ([], "error: the following arguments are required: command\n"),
    (
        ["nope"],
        "error: argument command: invalid choice: 'nope' (choose from 'exact', 'sample', "
        "'chsh', 'nosig', 'membership', 'classify', 'show')\n",
    ),
    (["exact"], "error: the following arguments are required: input\n"),
    (
        ["exact", "socks-on", "--output", "x"],
        "error: argument --output: invalid choice: 'x' (choose from 'table', 'machine')\n",
    ),
    (["sample", "socks-on", "--seed", "x"], "error: argument --seed: invalid int value: 'x'\n"),
    (["exact", "socks-on", "--bogus"], "error: unrecognized arguments: --bogus\n"),
]


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_help_texts_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv in [["--help"], *[[sub, "--help"] for sub in SUBCOMMANDS]]:
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: bellbox ")
        digest.update(repr((argv, code, captured.out, captured.err)).encode("utf-8"))
        digest.update(b"\0")
    assert digest.hexdigest() == HELP_DIGEST


@pytest.mark.parametrize("argv, stderr", USAGE_ERRORS)
def test_usage_errors_are_pinned(capsys, argv, stderr):
    assert run_cli(argv) == 1
    assert capsys.readouterr() == ("", stderr)

"""The CLI's output over every subcommand and builtin hashes to a pinned digest.

The argv set is every subcommand x every builtin (the ``singlet`` alias
too) x ``--output table``, ``--output table --decimal`` and ``--output
machine``; ``sample`` runs with a small fixed ``--trials`` and ``--seed``
under the ``cycle``, ``uniform`` and ``fixed:A,B`` schedules.  For every
argv the digest covers the argv, the exit code, stdout and stderr of
``run_cli``, so any change to what the CLI prints or how it exits changes
the digest.  The pinned value was captured before tables built their own
integer view and remembered their own check.
"""

import hashlib

from bellbox import BUILTIN_NAMES
from bellbox.cli import run_cli

DIGEST = "08384c6baba6882bf8eb45351f67b7ac97f7735683cb83327fdb8d7a8ab43bee"

SUBCOMMANDS = ("exact", "sample", "chsh", "nosig", "membership", "classify", "show")
MODES = (("--output", "table"), ("--output", "table", "--decimal"), ("--output", "machine"))
SCHEDULES = ("cycle", "uniform", "fixed:A,B")


def _argvs() -> list[list[str]]:
    argvs = []
    for name in (*BUILTIN_NAMES, "singlet"):
        for sub in SUBCOMMANDS:
            for mode in MODES:
                if sub != "sample":
                    argvs.append([sub, name, *mode])
                    continue
                for schedule in SCHEDULES:
                    argvs.append([sub, name, *mode, "--seed", "7", "--trials", "120", "--schedule", schedule])
    return argvs


def test_cli_digest_is_pinned(capsys):
    digest = hashlib.sha256()
    argvs = _argvs()
    assert len(argvs) == (len(BUILTIN_NAMES) + 1) * (len(SUBCOMMANDS) + 2) * len(MODES)
    codes = set()
    for argv in argvs:
        code = run_cli(argv)
        captured = capsys.readouterr()
        codes.add(code)
        digest.update(repr((argv, code, captured.out, captured.err)).encode("utf-8"))
        digest.update(b"\0")
    assert codes == {0, 1}
    assert digest.hexdigest() == DIGEST

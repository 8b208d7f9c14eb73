"""The CLI's output over file inputs hashes to a pinned digest.

The files are seeded ``_docgen.random_document`` texts, two of each payload
kind (exact behavior, ``numbers = float`` behavior, noncontextual,
contextual, singlet): one over a 2x2 scenario, which every subcommand can
analyze, and one over another shape.  Then come a behavior written with
decimal literals (NOTE diagnostics on stderr), a malformed text (exit 1)
and an empty ``[behavior]`` over a 12x12 scenario (100 diagnostics and the
``… N more diagnostics`` line).  Each file runs under every subcommand x
``--output table``, ``--output table --decimal`` and ``--output machine``;
``sample`` runs with a small fixed ``--trials`` and ``--seed``.  For every
argv the digest covers the argv, the exit code, stdout and stderr of
``run_cli``, with the temporary directory replaced by ``<tmp>``.  The
pinned value was captured while the parser still lived in ``document.py``.
"""

import hashlib
import random

from _docgen import random_document
from bellbox import serialize_document
from bellbox.cli import run_cli

DIGEST = "70f133b5991ee03898c6b083bba3001475408b72a029eb2174d7478620c339b8"

SUBCOMMANDS = ("exact", "sample", "chsh", "nosig", "membership", "classify", "show")
MODES = (("--output", "table"), ("--output", "table", "--decimal"), ("--output", "machine"))
KINDS = ("behavior", "behavior-float", "noncontextual", "contextual", "singlet")

DECIMAL_TEXT = """\
bellbox-format 1
[scenario]
alice = A A'
bob = B B'
[behavior]
P(1,1 | A,B) = 0.5
P(2,2 | A,B) = 0.5
P(1,2 | A,B') = 0.3333333
P(2,1 | A,B') = 0.6666667
P(1,1 | A',B) = .25
P(1,2 | A',B) = 0.25
P(2,1 | A',B) = 1/4
P(2,2 | A',B) = 2.5e-1
P(1,1 | A',B') = 1
"""

MALFORMED_TEXT = """\
bellbox-format 1
[scenario]
alice = A A
bob = B
[behavior]
P(1,1 | A,B) = 1/0
"""


def _empty_behavior_text(settings: int) -> str:
    alice = " ".join(f"A{i}" for i in range(settings))
    bob = " ".join(f"B{i}" for i in range(settings))
    return f"bellbox-format 1\n[scenario]\nalice = {alice}\nbob = {bob}\n[behavior]\n"


def _kind(document) -> str:
    if document.behavior is not None and not document.behavior.exact:
        return "behavior-float"
    return document.kind


def _texts() -> dict[str, str]:
    """File name -> text, in a fixed order."""
    rand = random.Random(20191)
    wanted = [f"{kind}-{shape}.bellbox" for kind in KINDS for shape in ("2x2", "other")]
    found: dict[str, str] = {}
    while len(found) < len(wanted):
        document = random_document(rand)
        shape = "2x2" if document.scenario.is_two_by_two() else "other"
        found.setdefault(f"{_kind(document)}-{shape}.bellbox", serialize_document(document))
    texts = {name: found[name] for name in wanted}
    texts["decimal.bellbox"] = DECIMAL_TEXT
    texts["malformed.bellbox"] = MALFORMED_TEXT
    texts["empty-12x12.bellbox"] = _empty_behavior_text(12)
    return texts


def test_cli_file_digest_is_pinned(tmp_path, capsys):
    prefix = str(tmp_path)
    digest = hashlib.sha256()
    codes, stderr_seen = set(), []
    for name, text in _texts().items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        for sub in SUBCOMMANDS:
            extra = ["--seed", "7", "--trials", "120"] if sub == "sample" else []
            for mode in MODES:
                argv = [sub, str(path), *mode, *extra]
                code = run_cli(argv)
                captured = capsys.readouterr()
                codes.add(code)
                stderr_seen.append(captured.err)
                shown = [a.replace(prefix, "<tmp>") for a in argv]
                out, err = (s.replace(prefix, "<tmp>") for s in (captured.out, captured.err))
                digest.update(repr((shown, code, out, err)).encode("utf-8"))
                digest.update(b"\0")
    assert codes == {0, 1}
    assert any("note:" in err for err in stderr_seen)
    assert any("… 44 more diagnostics" in err for err in stderr_seen)
    assert digest.hexdigest() == DIGEST

"""The CLI process ends through ``main()`` and loses nothing on the way.

``main()`` runs ``run_cli``, then freezes the garbage collector and exits
with ``run_cli``'s code, so interpreter shutdown does not collect what the
run loaded.  A child running ``main()`` must print, write and return exactly
what ``run_cli`` does in process.  Only ``cli.main`` may touch ``gc``:
library callers keep their own collector state.
"""

import ast
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellbox
import bellbox.cli as cli

SRC = Path(bellbox.__file__).resolve().parent
BOOT = "import bellbox.cli; bellbox.cli.main()"

CASES = {  # argv and exit code
    "sample machine": (["sample", "socks-off", "--trials", "20000", "--output", "machine"], 0),
    "input error": (["exact", "no-such-model"], 1),
    "help": (["--help"], 0),
}


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the child inherits it, so help wraps alike


def _main_in_child(argv: list[str]) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + (os.pathsep + path if path else ""))
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered std streams must still be flushed at exit
    command = [sys.executable, "-c", BOOT, *argv]
    return subprocess.run(command, env=env, capture_output=True, timeout=60, check=False)


def _in_process(argv: list[str], capsys) -> tuple[int, bytes, bytes]:
    code = cli.run_cli(argv)
    out, err = capsys.readouterr()
    return code, out.encode("utf-8"), err.encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_main_in_a_child_matches_run_cli(case, capsys):
    argv, code = CASES[case]
    expected = _in_process(argv, capsys)
    assert expected[0] == code and (expected[1] or expected[2])
    done = _main_in_child(argv)
    assert (done.returncode, done.stdout, done.stderr) == expected


def test_main_in_a_child_writes_the_out_file(tmp_path, capsys):
    expected = _in_process(["show", "socks-on", "--out", str(tmp_path / "run_cli.bellbox")], capsys)
    done = _main_in_child(["show", "socks-on", "--out", str(tmp_path / "main.bellbox")])
    assert (done.returncode, done.stdout, done.stderr) == expected == (0, b"", b"")
    written = (tmp_path / "main.bellbox").read_bytes()
    assert written == (tmp_path / "run_cli.bellbox").read_bytes()
    assert written.startswith(b"bellbox-format 1")


def test_main_freezes_once_after_run_cli_and_exits_with_its_code(monkeypatch):
    events = []

    def run_cli(argv):
        events.append(("run_cli", argv))
        return 3

    # Patched, so this test process is never frozen.
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli, "run_cli", run_cli)
    monkeypatch.setattr(sys, "argv", ["bellbox", "exact", "socks-on"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    assert events == [("run_cli", ["exact", "socks-on"]), "freeze"]


def _gc_uses(tree: ast.Module, allowed: str | None = None) -> list[int]:
    """Lines that import ``gc`` or name it, outside the module-level function ``allowed``."""
    lines = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[0] == "gc" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.level == 0 and (node.module or "").split(".")[0] == "gc"
            else:
                hit = isinstance(node, ast.Name) and node.id == "gc"
            if hit:
                lines.append(node.lineno)
    return lines


def test_only_cli_main_touches_gc():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found[path.name] = _gc_uses(tree, "main" if path.name == "cli.py" else None)
    assert {name: lines for name, lines in found.items() if lines} == {}
    cli_tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert _gc_uses(cli_tree)  # the guard sees main's own use


def test_the_gc_guard_sees_every_form():
    tree = ast.parse(
        "import gc\nfrom gc import freeze\nimport gc as collector\ndef f():\n    gc.collect()\n"
        "def main():\n    import gc\n    gc.freeze()\nclass C:\n    def main(self):\n        gc.disable()\n"
    )
    assert _gc_uses(tree, "main") == [1, 2, 3, 5, 11]

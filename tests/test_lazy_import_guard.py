"""The package, the CLI, ``document`` and ``analysis`` import no heavy layer at module level.

``analysis`` and ``sampler`` load on first use: through
``bellbox.__getattr__`` for library callers and inside the CLI handlers
that run them.  ``simplex`` loads on the first membership test, inside
``analysis``.  The parser, ``_parser``, loads on the first call of
``document.parse_document``.  An eager import of any of them at module
level would load them on every start-up again.  Imports under ``if
TYPE_CHECKING:`` never run and are allowed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bellbox"
GUARDED = ("__init__.py", "cli.py", "document.py", "analysis.py")
HEAVY = {"analysis", "simplex", "sampler", "_parser"}


def _module_level(body):
    """Statements that run when the module is imported, outside ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from _module_level(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_level(getattr(node, field, []))


def _imports_heavy(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [alias.name for alias in node.names]
    else:
        return False
    return any(HEAVY & set(name.split(".")) for name in names)


def test_no_module_level_import_of_a_heavy_layer():
    found = []
    for filename in GUARDED:
        path = PACKAGE / filename
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{filename}:{node.lineno}" for node in _module_level(tree.body) if _imports_heavy(node)]
    assert found == []


def test_the_guard_sees_an_eager_import():
    tree = ast.parse(
        "import sys\nfrom . import analysis\ntry:\n    from .sampler import Schedule\nexcept ImportError:\n    pass\n"
        "if TYPE_CHECKING:\n    from . import simplex\ndef f():\n    from . import sampler\n"
    )
    assert [node.lineno for node in _module_level(tree.body) if _imports_heavy(node)] == [2, 4]

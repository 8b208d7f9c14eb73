"""The package loads submodules on first use, and the CLI only what it runs.

``import bellbox`` imports no submodule; a name resolves on first access
(PEP 562) to the very object its submodule defines.  Each CLI subcommand
leaves exactly the modules it needs in ``sys.modules``: on a builtin no
parser, on a file the parser (``bellbox._parser``) too.  ``dir(bellbox)``
and ``from bellbox import *`` are pinned to the names the package had when
it imported every submodule eagerly.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellbox
from bellbox.cli import run_cli

SRC = str(Path(bellbox.__file__).resolve().parent.parent)

DIR_NAMES = [
    "AnalysisReport", "BUILTIN_NAMES", "Behavior", "BellboxError", "Cause",
    "Classification", "Context", "ContextBlock", "ContextualModel",
    "DeterministicStrategy", "EmpiricalBehavior", "ExperimentPlan",
    "ExperimentRun", "InfeasibilityCertificate", "InvalidBehaviorError",
    "LocalDecomposition", "MarginalTable", "MembershipError",
    "MembershipResult", "MixtureError", "ModelDocument", "ModelError",
    "NonContextualModel", "ParseDiagnostic", "ParseResult", "Prob",
    "QuantumDirections", "ResponseFunction", "SamplerError", "Scenario",
    "ScenarioShapeError", "Schedule", "SingletSpec", "TrialRecord",
    "UnknownBuiltinError", "Validation", "__builtins__", "__cached__",
    "__doc__", "__file__", "__loader__", "__name__", "__package__",
    "__path__", "__spec__", "__version__", "analysis", "arrangement_str",
    "builtin_document", "chsh_arrangements", "chsh_max", "chsh_value",
    "classify", "condition_on_cause", "deterministic_row", "document",
    "empirical_deviation", "enumerate_strategies", "errors",
    "exact_behavior", "expectation", "local_membership",
    "marginals", "mix", "models", "nosignaling_residual", "outcome_sign",
    "parse_document", "random_noncontextual_model", "require_valid",
    "run_experiment", "sample_trial", "sampler", "scenario",
    "serialize_document", "simplex", "singlet_behavior",
    "singlet_optimal_directions", "socks_color", "socks_off", "socks_on",
    "strategy_behavior", "trial_lines", "unit_draw", "validate_behavior",
    "validate_model", "write_trials",
]  # fmt: skip
SUBMODULES = ["analysis", "document", "errors", "models", "sampler", "scenario", "simplex"]
STAR_NAMES = [name for name in DIR_NAMES if not name.startswith("_")]

CLI_BASE = {"bellbox", "bellbox.cli", "bellbox.document", "bellbox.errors", "bellbox.models", "bellbox.scenario"}
ANALYSIS = CLI_BASE | {"bellbox.analysis", "bellbox.simplex"}
LOADED_BY = {
    "show": CLI_BASE,
    "exact": CLI_BASE,
    "sample": CLI_BASE | {"bellbox.sampler"},
    "chsh": CLI_BASE | {"bellbox.analysis"},
    "nosig": CLI_BASE | {"bellbox.analysis"},
    "membership": ANALYSIS,
    "classify": ANALYSIS,
}
SAMPLE_FLAGS = ["--trials", "200"]
PARSER = "bellbox._parser"


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60, check=False)


def _argv(command: str, source: str = "socks-off") -> list[str]:
    return [command, source, *(SAMPLE_FLAGS if command == "sample" else [])]


_NAMES = """\
import json, bellbox
namespace = {}
exec("from bellbox import *", namespace)
print(json.dumps([dir(bellbox), sorted(set(namespace) - {"__builtins__"})]))
"""


def test_dir_and_star_import_are_pinned():
    done = _python("-c", _NAMES)
    assert done.returncode == 0, done.stderr
    dir_names, star_names = json.loads(done.stdout)
    assert (len(dir_names), len(star_names)) == (87, 77)
    assert dir_names == DIR_NAMES
    assert star_names == STAR_NAMES


def test_every_name_is_its_submodules_attribute():
    for name in STAR_NAMES:
        if name in SUBMODULES:
            assert getattr(bellbox, name) is importlib.import_module(f"bellbox.{name}")
        else:
            home = importlib.import_module(f"bellbox.{bellbox._HOME[name]}")
            assert getattr(bellbox, name) is vars(home)[name], name
        assert name in vars(bellbox)  # stored: the next lookup skips __getattr__


def test_unknown_name_raises_attribute_error():
    assert not hasattr(bellbox, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        bellbox.no_such_name  # noqa: B018


def test_import_alone_loads_no_submodule():
    done = _python("-c", "import sys, bellbox; print(sorted(m for m in sys.modules if m.startswith('bellbox')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().split() == ["['bellbox']"]


_PROBE = """\
import contextlib, io, sys
import bellbox.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = bellbox.cli.run_cli(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("bellbox"))))
sys.exit(code)
"""


@pytest.mark.parametrize("command", sorted(LOADED_BY))
def test_subcommand_loads_only_what_it_runs(command):
    done = _python("-c", _PROBE, *_argv(command))
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.decode().split()) == LOADED_BY[command]


@pytest.mark.parametrize("command", sorted(LOADED_BY))
def test_subcommand_on_a_file_also_loads_the_parser(command, tmp_path):
    path = tmp_path / "socks-off.bellbox"
    text = bellbox.serialize_document(bellbox.builtin_document("socks-off"))
    path.write_text(text, encoding="utf-8")
    done = _python("-c", _PROBE, *_argv(command, str(path)))
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.decode().split()) == LOADED_BY[command] | {PARSER}


_PARSE_PROBE = f"""\
import sys
import bellbox.document
before = {PARSER!r} in sys.modules
bellbox.document.parse_document("bellbox-format 1")
print(before, {PARSER!r} in sys.modules)
"""


def test_document_loads_the_parser_on_first_parse():
    done = _python("-c", _PARSE_PROBE)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"False True\n"


_THREADS = """\
import importlib, threading
import bellbox

NAMES = ["classify", "ModelDocument", "BellboxError", "socks_off",
         "run_experiment", "Scenario", "simplex", "chsh_max"]
barrier = threading.Barrier(len(NAMES))
seen = [None] * len(NAMES)

def first_access(i):
    order = NAMES[i:] + NAMES[:i]  # each thread starts on a different name
    barrier.wait()
    seen[i] = {name: getattr(bellbox, name) for name in order}

threads = [threading.Thread(target=first_access, args=(i,)) for i in range(len(NAMES))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
for name in NAMES:
    want = getattr(bellbox, name)
    assert all(got[name] is want for got in seen), name
    home = "simplex" if name == "simplex" else bellbox._HOME[name]
    module = importlib.import_module("bellbox." + home)
    assert want is (module if name == "simplex" else getattr(module, name)), name
print("ok")
"""


def test_first_access_from_eight_threads_agrees():
    for _ in range(3):
        done = _python("-c", _THREADS)
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"ok\n"


@pytest.mark.parametrize("command", sorted(LOADED_BY))
def test_subcommand_under_python_O(command, capsys):
    code = run_cli(_argv(command))
    expected = capsys.readouterr().out
    done = _python("-O", "-m", "bellbox.cli", *_argv(command))
    assert (done.returncode, done.stderr) == (code, b"")
    assert done.stdout == expected.encode("utf-8")

"""Capture the cli workload's golden outputs from the current sources.

    python3 perfbench/capture_goldens.py

Run from the repository root.  Runs every invocation the cli workload can
draw (each subcommand x builtin x output mode, each subcommand x output
mode on every pool file, and the malformed file) in a child process, and
writes the exit code and exact standard output of each to
``perfbench/goldens.json``.  The goldens define correct output, so capture
them only on a commit whose output is known to be right.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.chdir(BENCH_DIR.parent)
    work = workloads.WORK_DIR / "cli"
    work.mkdir(parents=True, exist_ok=True)
    paths = workloads.write_cli_inputs(work)
    pool, malformed = paths[:-1], paths[-1]
    argvs = [
        gen.cli_argv(sub, target, mode)
        for target in list(gen.CLI_BUILTINS) + pool
        for sub in gen.CLI_SUBCOMMANDS
        for mode in gen.CLI_MODES
    ]
    argvs.append(gen.cli_argv("classify", malformed, "table"))
    env = workloads.child_env()
    out, err = str(work / "stdout"), str(work / "stderr")
    entries = {}
    for argv in argvs:
        code, _, _ = measure.run_child([sys.executable, "-c", workloads.CLI_BOOT, *argv], env, out, err)
        stdout = Path(out).read_text(encoding="utf-8")
        if code == 2 or (code == 0 and not stdout):
            print(f"refusing to capture {argv}: exit {code}\n{Path(err).read_text()}", file=sys.stderr)
            return 1
        entries[gen.golden_key(argv)] = {"exit": code, "stdout": stdout}
    goldens = {"pool_sha256": workloads.pool_digest(paths), "entries": entries}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"captured {len(entries)} goldens into {workloads.GOLDENS.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

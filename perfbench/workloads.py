"""The four workloads: set-up, one operation, and the output check.

Each workload is driven by one caller in a closed loop: the next operation
starts when the previous one has returned.  Operations look the program's
functions up through its modules on every call, so the traced run's
wrappers are seen exactly while they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from time import perf_counter

import gen
import measure
import oracles

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json"
WORK_DIR = Path(".perfbench_work")
CLI_BOOT = "import bellbox.cli; bellbox.cli.main()"
WARMUP_OPS = 8


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def builtin_texts(goldens: dict) -> dict[str, str]:
    """Canonical builtin documents, as ``bellbox show`` printed them at capture."""
    return {
        name: goldens["entries"][gen.golden_key(gen.cli_argv("show", name, "table"))]["stdout"]
        for name in gen.BUILTIN_MODELS
    }


class Workload:
    name = ""
    in_process = False

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def key(self, i: int):
        """The input operation ``i`` runs, or None for one left out of the timings and per-layer figures."""
        raise NotImplementedError

    def op(self, i: int):
        """Run operation ``i``; return ``(output kept for checking, work units)``."""
        raise NotImplementedError

    def check(self, i: int, output) -> str | None:
        """Why ``output`` of operation ``i`` is wrong, or None."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return measure.self_peak_rss_mb()


class Analyze(Workload):
    """Parse, lower and classify a seeded stream of 2x2 documents."""

    name = "analyze"

    def setup(self, seed: int) -> None:
        import bellbox.analysis
        import bellbox.document

        self.analysis, self.document = bellbox.analysis, bellbox.document
        self.specs = gen.analyze_specs(seed)
        self.texts = [oracles.render(spec) for spec in self.specs]
        for i in range(WARMUP_OPS):
            self.op(i)

    def key(self, i: int) -> int:
        return i % len(self.texts)

    def op(self, i: int):
        text = self.texts[self.key(i)]
        doc = self.document.parse_document(text).document
        report = self.analysis.classify(doc.to_behavior())
        canonical = self.document.serialize_document(doc)
        cert = report.certificate
        return (
            oracles.Outcome(
                report.classification.value,
                report.chsh_max,
                report.decomposition is not None,
                cert is not None,
                cert is not None and cert.behavior_value > cert.local_bound,
                canonical == text,
            ),
            1,
        )

    def check(self, i: int, output) -> str | None:
        return oracles.check_outcome(self.specs[self.key(i)], output)


class _HashSink:
    """Text stream that keeps only a SHA-256 digest and a byte count."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> None:
        self._digest.update(text.encode("utf-8"))
        self.bytes += len(text)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


class Sample(Workload):
    """``run_experiment`` plus ``empirical_deviation``, optionally exporting every trial.

    Operation 0 is one large experiment, run once so that retained records
    show in peak memory; the plans after it cycle.
    """

    def __init__(self, export: bool) -> None:
        self.export = export
        self.name = "sample-export" if export else "sample-counts"
        self.expected: dict = {}

    def setup(self, seed: int) -> None:
        import bellbox.document
        import bellbox.models
        import bellbox.sampler
        import bellbox.scenario

        self.sampler, self.scenario = bellbox.sampler, bellbox.scenario
        self.specs = gen.sample_models(seed, builtin_texts(load_goldens()))
        self.models = [
            bellbox.document.parse_document(oracles.render(spec)).document.model()
            for spec in self.specs
        ]
        self.exact = [bellbox.models.exact_behavior(model) for model in self.models]
        self.large, self.ops = gen.sample_ops(seed, self.specs)
        for m in range(len(self.models)):
            self._run(gen.SampleOp(m, 64, "uniform", None, seed))

    def key(self, i: int) -> int | None:
        return None if i == 0 else (i - 1) % len(self.ops)

    def _op(self, i: int) -> gen.SampleOp:
        return self.large if i == 0 else self.ops[self.key(i)]

    def _run(self, op: gen.SampleOp):
        sampler, model = self.sampler, self.models[op.model]
        if op.schedule == "fixed":
            schedule = sampler.Schedule.fixed(self.scenario.Context(*op.context))
        else:
            schedule = sampler.Schedule(op.schedule)
        run = sampler.run_experiment(model, sampler.ExperimentPlan(op.seed, op.trials, schedule))
        empirical = run.empirical
        deviation = None
        if len(empirical.sampled_contexts()) == len(model.scenario.contexts()):
            deviation = sampler.empirical_deviation(empirical, self.exact[op.model])
        stream = None
        if self.export:
            sink = _HashSink()
            sampler.write_trials(sink, model.scenario, run.records)
            stream = (sink.hexdigest(), sink.bytes)
        return empirical.counts, deviation, stream

    def op(self, i: int):
        op = self._op(i)
        return self._run(op), op.trials

    def check(self, i: int, output) -> str | None:
        op = self._op(i)
        spec = self.specs[op.model]
        counts, deviation, stream = output
        if op not in self.expected:
            self.expected[op] = oracles.simulate(spec, op.trials, op.schedule, op.context, op.seed, self.export)
        want, digest = self.expected[op]
        got = {(ctx.alice, ctx.bob): [list(row) for row in rows] for ctx, rows in counts.items()}
        if got != want:
            return f"{op}: counts differ from the contract sampler"
        full = len(want) == len(spec.contexts())
        if (deviation is not None) != full:
            return f"{op}: deviation reported={deviation is not None}, full coverage={full}"
        if full and deviation != oracles.deviation(want, oracles.exact_table(spec)):
            return f"{op}: deviation {deviation} differs from the exact table"
        if self.export and stream[0] != digest:
            return f"{op}: trial stream differs from the contract sampler"
        return None


class Cli(Workload):
    """One child at a time running ``bellbox.cli.main()`` on a seeded argv list."""

    name = "cli"

    def setup(self, seed: int) -> None:
        import bellbox.cli

        self.cli = bellbox.cli
        self.goldens = load_goldens()
        work = WORK_DIR / "cli"
        work.mkdir(parents=True, exist_ok=True)
        pool_paths = write_cli_inputs(work)
        if pool_digest(pool_paths) != self.goldens["pool_sha256"]:
            raise RuntimeError("generated cli inputs differ from the ones the goldens were captured on")
        self.ops = gen.cli_ops(seed, pool_paths[:-1], pool_paths[-1])
        self.out_path, self.err_path = str(work / "stdout"), str(work / "stderr")
        self.env = child_env()
        self.child_rss: list[float] = []
        self.child_wall: list[float] = []
        self.inproc: list[float] = []
        self.run_in_process(gen.cli_argv("show", "socks-on", "table"))

    def run_in_process(self, argv: list[str]) -> tuple[int, bytes, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = self.cli.run_cli(argv)
            seconds = perf_counter() - start
        return code, out.getvalue().encode("utf-8"), seconds

    def key(self, i: int) -> int:
        return i % len(self.ops)

    def op(self, i: int):
        argv = self.ops[self.key(i)]
        code, wall, rss = measure.run_child(
            [sys.executable, "-c", CLI_BOOT, *argv], self.env, self.out_path, self.err_path
        )
        stdout = Path(self.out_path).read_bytes()
        self.child_rss.append(rss)
        self.child_wall.append(wall)
        in_process = None
        if self.in_process:
            code_in, stdout_in, seconds = self.run_in_process(argv)
            self.inproc.append(seconds)
            in_process = (code_in, stdout_in)
        return (code, stdout, in_process), 1

    def check(self, i: int, output) -> str | None:
        argv = self.ops[self.key(i)]
        golden = self.goldens["entries"].get(gen.golden_key(argv))
        code, stdout, in_process = output
        why = oracles.check_cli(golden, code, stdout)
        if why is None and in_process is not None:
            why = oracles.check_cli(golden, *in_process)
            why = why and f"in-process run_cli: {why}"
        return why and f"{gen.golden_key(argv)}: {why}"

    def peak_rss_mb(self) -> float:
        return max(self.child_rss)


def child_env() -> dict:
    """Environment for a child that must import bellbox from ``src/`` (run from the root)."""
    return dict(os.environ, PYTHONPATH=str(Path("src").resolve()))


def write_cli_inputs(work: Path) -> list[str]:
    """Write the file pool and the malformed document; return their relative paths."""
    paths = []
    for i, spec in enumerate(gen.cli_pool()):
        path = work / f"pool-{i:02d}.bellbox"
        path.write_text(oracles.render(spec), encoding="utf-8")
        paths.append(str(path))
    malformed = work / "malformed.bellbox"
    malformed.write_text(gen.MALFORMED_TEXT, encoding="utf-8")
    return paths + [str(malformed)]


def pool_digest(paths: list[str]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


WORKLOADS = {
    "analyze": Analyze,
    "sample-counts": lambda: Sample(export=False),
    "sample-export": lambda: Sample(export=True),
    "cli": Cli,
}


def setup_child(name: str, seed: int, import_s: float) -> None:
    """Body of a set-up child: the parent has timed ``import bellbox`` already."""
    workload = WORKLOADS[name]()
    start = perf_counter()
    workload.setup(seed)
    print(json.dumps({"setup_s": import_s + perf_counter() - start}))

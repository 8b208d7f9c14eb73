"""bellbox benchmark: one workload, one seed, one timed closed loop.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run pins itself to one CPU and scales
every end-to-end timing by the speed a probe measures on that CPU around
it (``measure.SpeedProbe``).  ``--trace 0`` reports the end-to-end metrics
(set-up time, throughput, latency median and tail, peak memory); ``--trace
1`` installs span wrappers, reports the per-layer metrics per operation,
and compares its throughput with an untraced loop of the same length to
give the tracing overhead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads and
metrics are listed in ``BENCHMARK.json``; ``perfbench/README.md`` explains
them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import measure
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 7
# The tail is the 11th-slowest operation.  A burst of load beside the CPU
# can slow a few operations by more than the probe sees, so the slowest 22
# are timed twice more after the loop and each keeps its fastest time.
RETIMED = 2 * (measure.TAIL_BEYOND + 1)
RETIMES = 2
# Probe samples taken next to each child: a child lasts long enough that the
# probe's regular samples would be few around it.
CHILD_SAMPLES = 5
IMPORT_REPEATS = 5
MAX_REPORTED_FAILURES = 5
CLI_UNITS = {"cli.import_ms": "ms", "cli.run_cli.s": "s/op", "cli.startup_ms": "ms", "cli.child_rss_mb": "MB",
             "cli.stdout_bytes": "bytes/op"}

SETUP_BOOT = """\
import time
start = time.perf_counter()
import bellbox
{extra}
import_s = time.perf_counter() - start
import sys
sys.path.insert(0, {bench!r})
import workloads
workloads.setup_child({name!r}, {seed!r}, import_s)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("analyze", "sample-counts", "sample-export", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(workload, i: int):
    """``(output, work units, start, wall seconds)`` of operation ``i``; a raised exception is its output."""
    t0 = perf_counter()
    try:
        output, units = workload.op(i)
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
        output, units = exc, 0
    return output, units, t0, perf_counter() - t0


def timed_loop(workload, seconds: float, probe, recorder=None) -> dict:
    """Closed loop for ``seconds``: per-op key, wall and scaled latency, output and work units."""
    keys, starts, latencies, outputs, work = [], [], [], [], []
    i = 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        probe.due()
        key = workload.key(i)
        if recorder is not None:
            recorder.op = -1 if key is None else i
        output, units, t0, latency = run_op(workload, i)
        keys.append(key)
        starts.append(t0)
        latencies.append(latency)
        outputs.append(output)
        work.append(units)
        i += 1
        if t0 + latency >= deadline:
            break
    elapsed = perf_counter() - start
    if recorder is not None:
        recorder.op = -1
    probe.sample()
    scaled = [lat * probe.scale(t0, t0 + lat) for t0, lat in zip(starts, latencies)]
    return {"keys": keys, "latencies": latencies, "scaled": scaled, "outputs": outputs, "work": work,
            "elapsed": elapsed, "retimed": []}


def retime_slowest(workload, loop: dict, probe) -> list[float]:
    """Scaled latencies in which each of the ``RETIMED`` slowest measured operations keeps the fastest
    of its first time and ``RETIMES`` more; the new outputs go to ``loop["retimed"]`` to be checked."""
    scaled = list(loop["scaled"])
    measured = [i for i, key in enumerate(loop["keys"]) if key is not None]
    slowest = sorted(measured, key=lambda i: scaled[i], reverse=True)[:RETIMED]
    runs = []
    for _ in range(RETIMES):
        for i in slowest:
            probe.due()
            output, _, t0, latency = run_op(workload, i)
            runs.append((i, t0, latency))
            loop["retimed"].append((i, output))
    probe.sample()
    for i, t0, latency in runs:
        scaled[i] = min(scaled[i], latency * probe.scale(t0, t0 + latency))
    return scaled


def settle() -> None:
    """Move every object alive now out of the collector's sight.

    The inputs a workload generates would otherwise make each full
    collection inside the timed loop scan them (40 ms on ``analyze``); the
    program's own objects made during the loop are still collected.
    """
    gc.collect()
    gc.freeze()


def measured(loop: dict, values: list) -> list:
    """The entries of ``values`` that belong to measured operations (those with a key)."""
    return [value for key, value in zip(loop["keys"], values) if key is not None]


def ops_per_s(loop: dict) -> float:
    """Measured operations per second of their scaled time."""
    scaled = measured(loop, loop["scaled"])
    return len(scaled) / sum(scaled)


def check_outputs(workload, outputs) -> list[str]:
    """Every failed operation of ``(index, output)`` pairs, each with its reason; run outside the timed region."""
    failures = []
    for i, output in outputs:
        if isinstance(output, Exception):
            why = f"raised {type(output).__name__}: {output}"
        else:
            try:
                why = workload.check(i, output)
            except Exception as exc:  # noqa: BLE001 - an output the check cannot read is wrong
                why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            failures.append(f"op {i}: {why}")
    return failures


def child_setups(name: str, seed: int, probe) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes (import, inputs, warm-up): ``(wall, scaled)``."""
    boot = SETUP_BOOT.format(
        extra="import bellbox.cli" if name == "cli" else "",
        bench=str(BENCH_DIR),
        name=name,
        seed=seed,
    )
    env = workloads.child_env()
    spans_, walls = [], []
    for _ in range(SETUP_CHILDREN):
        probe.sample(CHILD_SAMPLES)
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", boot], env=env, capture_output=True, text=True, timeout=120, check=False
        )
        spans_.append((t0, perf_counter()))
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        walls.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    probe.sample(CHILD_SAMPLES)
    return walls, [wall * probe.scale(t0, t1) for wall, (t0, t1) in zip(walls, spans_)]


def import_children(probe) -> list[float]:
    """Scaled wall times of children that only import ``bellbox.cli``."""
    env = workloads.child_env()
    work = Path(".perfbench_work")
    work.mkdir(exist_ok=True)
    runs = []
    for _ in range(IMPORT_REPEATS):
        probe.sample(CHILD_SAMPLES)
        t0 = perf_counter()
        code, wall, _ = measure.run_child(
            [sys.executable, "-c", "import bellbox.cli"], env, str(work / "import.out"), str(work / "import.err")
        )
        if code != 0:
            raise RuntimeError("importing bellbox.cli failed in a child")
        runs.append((t0, wall))
    probe.sample(CHILD_SAMPLES)
    return [wall * probe.scale(t0, t0 + wall) for t0, wall in runs]


def e2e_metrics(workload, loop: dict, retimed: list[float], setups: tuple[list[float], list[float]]):
    """End-to-end metrics over the measured operations; the sample workloads' one large
    experiment has no probe sample inside its seconds, so it is run and checked but not timed."""
    scaled = measured(loop, loop["scaled"])
    busy = sum(scaled)
    tail_value, tail_pct, beyond = measure.tail(measured(loop, retimed))
    setup_wall, setup_scaled = setups
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (ops_per_s(loop), "1/s"),
        "work_per_s": (sum(measured(loop, loop["work"])) / busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    notes = [
        f"latency_tail_ms is p{tail_pct:.2f} of n={len(scaled)} operations ({beyond} beyond it), "
        f"the slowest {RETIMED} timed {RETIMES} more times",
        f"setup_s is the median of {len(setup_scaled)} fresh processes: "
        + ", ".join(f"{t:.4f}" for t in setup_scaled),
        f"unscaled: {len(scaled) / sum(measured(loop, loop['latencies'])):.6g} ops per second of operation "
        f"time, latency p50 {1e3 * statistics.median(measured(loop, loop['latencies'])):.6g} ms, "
        f"setup {statistics.median(setup_wall):.6g} s; mean scale {busy / sum(measured(loop, loop['latencies'])):.4f}",
    ]
    notes += [
        f"operation {i} (not timed) took {loop['latencies'][i]:.4f} s, scaled {loop['scaled'][i]:.4f} s"
        for i, key in enumerate(loop["keys"]) if key is None
    ]
    return metrics, notes


def install_spans(recorder) -> None:
    """Wrap each layer's public functions where the program's callers find them.

    The counting hooks count only inside measured operations; the largest
    ``run.records`` is taken over every operation.
    """
    import bellbox.analysis as analysis
    import bellbox.document as document
    import bellbox.models as models
    import bellbox.sampler as sampler
    import bellbox.scenario as scenario
    import bellbox.simplex as simplex

    counts, maxima = recorder.counts, recorder.maxima

    def parsed(rec, args, result):
        if rec.op >= 0:
            counts["document.parse_document.bytes"] += len(args[0].encode("utf-8"))

    def classified(rec, args, result):
        if rec.op >= 0:
            counts["analysis.verdict." + result.classification.value] += 1

    def membership(rec, args, result):
        if rec.op >= 0 and not args[0].exact:
            counts["analysis.snapped"] += 1
            maxima["analysis.snap_error_max"] = max(maxima["analysis.snap_error_max"], result.snap_error)

    def solved(rec, args, result):
        if rec.op >= 0:
            counts["simplex.solve.infeasible"] += result.certificate is not None
            matrix = args[0]
            maxima["simplex.rows"] = max(maxima["simplex.rows"], len(matrix))
            maxima["simplex.cols"] = max(maxima["simplex.cols"], len(matrix[0]) if matrix else 0)

    def experiment(rec, args, result):
        maxima["sampler.records_retained"] = max(maxima["sampler.records_retained"], len(result.records))
        if rec.op >= 0:
            counts["sampler.trials"] += args[1].trials

    def line(rec, args, item):
        if rec.op >= 0:
            counts["sampler.export_bytes"] += len(item) + 1

    recorder.patch_function("document.parse_document", document.parse_document, parsed)
    recorder.patch_function("document.serialize_document", document.serialize_document)
    recorder.patch_method("document.to_behavior", document.ModelDocument, "to_behavior")
    recorder.patch_function("models.exact_behavior", models.exact_behavior)
    recorder.patch_function("models.singlet_behavior", models.singlet_behavior)
    for fn in ("validate_behavior", "expectation", "marginals", "mix"):
        recorder.patch_function("scenario." + fn, getattr(scenario, fn))
    recorder.patch_function("analysis.classify", analysis.classify, classified)
    recorder.patch_function("analysis.chsh_max", analysis.chsh_max)
    recorder.patch_function("analysis.nosignaling_residual", analysis.nosignaling_residual)
    recorder.patch_function("analysis.local_membership", analysis.local_membership, membership)
    recorder.patch_method("analysis.certificate_verify", analysis.InfeasibilityCertificate, "verify")
    recorder.patch_method("analysis.decomposition_check", analysis.LocalDecomposition, "to_behavior")
    recorder.patch_function("simplex.solve", simplex.solve_equality_feasibility, solved)
    recorder.patch_function("sampler.run_experiment", sampler.run_experiment, experiment)
    recorder.patch_function("sampler.trial_lines", sampler.trial_lines, line)
    recorder.patch_function("sampler.empirical_deviation", sampler.empirical_deviation)


def layer_metrics(recorder, workload, traced: dict, untraced: dict, probe) -> dict:
    """Per-layer figures per measured operation of the traced loop, so that they do not grow with speed.

    Times are scaled by the traced loop's mean scale, like the end-to-end times.
    """
    ops = sum(key is not None for key in traced["keys"])
    speed = sum(measured(traced, traced["scaled"])) / sum(measured(traced, traced["latencies"]))
    totals = recorder.totals()
    counts, maxima = recorder.counts, recorder.maxima

    def total(name, field):
        value = totals[name][field] if name in totals else 0
        return value * speed if field != "calls" else value

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("document.parse_document", "models.exact_behavior", "scenario.validate_behavior",
                 "analysis.classify", "analysis.local_membership", "simplex.solve", "sampler.run_experiment"):
        m[name + ".calls"] = (total(name, "calls") / ops, "calls/op")
    for name in ("document.parse_document", "document.serialize_document", "document.to_behavior",
                 "models.exact_behavior", "models.singlet_behavior", "scenario.validate_behavior",
                 "scenario.expectation", "scenario.marginals", "scenario.mix", "analysis.classify",
                 "analysis.chsh_max", "analysis.nosignaling_residual", "analysis.local_membership",
                 "analysis.certificate_verify", "analysis.decomposition_check", "simplex.solve",
                 "sampler.run_experiment", "sampler.trial_lines", "sampler.empirical_deviation"):
        m[name + ".s"] = (total(name, "s") / ops, "s/op")
    for name in ("analysis.classify", "analysis.local_membership"):
        m[name + ".self_s"] = (total(name, "self_s") / ops, "s/op")
    m["document.parse_document.bytes"] = (counts["document.parse_document.bytes"] / ops, "bytes/op")

    # Shares of classify: only the work classify itself caused, so a cli
    # `membership` call (local_membership without classify) does not count.
    lp_calls = recorder.nested("analysis.local_membership", "analysis.classify")[1]
    solve_s = recorder.nested("simplex.solve", "analysis.classify")[0]
    m["analysis.lp_share"] = (ratio(lp_calls, total("analysis.classify", "calls")), "ratio")
    m["simplex.solve.share_of_classify"] = (ratio(speed * solve_s, total("analysis.classify", "s")), "ratio")

    for verdict in ("LOCAL", "NONLOCAL_NOSIGNALING", "SIGNALING"):
        m["analysis.verdict." + verdict] = (counts["analysis.verdict." + verdict] / ops, "1/op")
    m["analysis.snapped"] = (counts["analysis.snapped"] / ops, "1/op")
    m["analysis.snap_error_max"] = (maxima["analysis.snap_error_max"], "1")
    m["simplex.solve.infeasible"] = (counts["simplex.solve.infeasible"] / ops, "1/op")
    m["simplex.rows"] = (maxima["simplex.rows"], "count")
    m["simplex.cols"] = (maxima["simplex.cols"], "count")
    m["sampler.trials"] = (counts["sampler.trials"] / ops, "trials/op")
    m["sampler.ns_per_trial"] = (ratio(1e9 * total("sampler.run_experiment", "s"), counts["sampler.trials"]), "ns")
    m["sampler.records_retained"] = (maxima["sampler.records_retained"], "count")
    m["sampler.export_bytes"] = (counts["sampler.export_bytes"] / ops, "bytes/op")

    cli = {"cli.import_ms": 0.0, "cli.run_cli.s": 0.0, "cli.startup_ms": 0.0, "cli.child_rss_mb": 0.0,
           "cli.stdout_bytes": 0.0}
    if workload.name == "cli":
        n = len(traced["outputs"])
        walls, inproc = workload.child_wall[:n], workload.inproc[:n]
        scales = [s / t for s, t in zip(traced["scaled"], traced["latencies"])]
        cli = {
            "cli.import_ms": 1e3 * statistics.median(import_children(probe)),
            "cli.run_cli.s": sum(t * k for t, k in zip(inproc, scales)) / n,
            "cli.startup_ms": 1e3 * statistics.median((w - t) * k for w, t, k in zip(walls, inproc, scales)),
            "cli.child_rss_mb": statistics.median(workload.child_rss[:n]),
            "cli.stdout_bytes": sum(len(o[1]) for o in traced["outputs"] if not isinstance(o, Exception)) / n,
        }
    for name, value in cli.items():
        m[name] = (value, CLI_UNITS[name])

    traced_rate, untraced_rate = ops_per_s(traced), ops_per_s(untraced)
    m["trace.ops_per_s"] = (traced_rate, "1/s")
    m["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    m["trace.overhead"] = (ratio(untraced_rate, traced_rate), "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellbox" / "__init__.py").is_file():
        print(f"perfbench: no bellbox sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import bellbox

    if Path(bellbox.__file__).resolve().parent != SRC / "bellbox":
        print(f"perfbench: imported bellbox from {bellbox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    measure.pin_to_one_cpu()
    probe = measure.SpeedProbe()
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        recorder = spans.Recorder()
        if args.workload == "cli":
            import bellbox.cli  # noqa: F401 - the wrappers must reach its bindings too
        install_spans(recorder)
        # On cli both loops also run each argv in process, so that they do the same work.
        workload.in_process = True
        try:
            workload.setup(args.seed)
            settle()
            traced = timed_loop(workload, args.seconds, probe, recorder)
        finally:
            recorder.restore()
        untraced = timed_loop(workload, args.seconds, probe)
        metrics = layer_metrics(recorder, workload, traced, untraced, probe)
        loops = [traced, untraced]
        notes = [f"{len(recorder.spans)} spans; per-layer figures are per measured operation of the traced loop"]
    else:
        setups = child_setups(args.workload, args.seed, probe)
        workload.setup(args.seed)
        settle()
        loop = timed_loop(workload, args.seconds, probe)
        metrics, notes = e2e_metrics(workload, loop, retime_slowest(workload, loop, probe), setups)
        loops = [loop]

    failures = []
    attempted = 0
    for loop in loops:
        outputs = list(enumerate(loop["outputs"])) + loop["retimed"]
        failures += check_outputs(workload, outputs)
        attempted += len(outputs)
    for why in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {why}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} operations, {len(failures)} failed "
          f"(fail_ratio {len(failures) / attempted:.6g})")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

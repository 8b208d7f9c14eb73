"""Run every workload over several seeds and record medians, spreads and the machine.

    python3 perfbench/steady.py --out perfbench/results/seed_baseline.json
    python3 perfbench/steady.py --runs 1             # one run each: prints every metric
    python3 perfbench/steady.py --first-seed 11 --against perfbench/results/seed_baseline.json \
        --out perfbench/results/second.json

Run from the repository root.  For each workload it runs ``run.py`` once per
seed (one process at a time), then once more with ``--trace 1``.  For every
end-to-end metric it reports the median and the spread, the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
With ``--against`` it also reports how much worse each median is than the
same median in an earlier record, as a share of that median, next to the
bound.  With ``--out`` it writes all of that, every run's figures and the
traced run's per-layer metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``; quartiles need two or more values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse(median: float, earlier: float, better: str) -> float:
    """How much worse ``median`` is than ``earlier``, as a share of ``earlier`` (negative: better)."""
    change = (median - earlier) / earlier
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", help="an earlier record whose medians this one is compared with")
    parser.add_argument("--out", help="write the record as JSON to this path")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else None
    record = {"machine": machine(), "run_seconds": spec["run_seconds"], "first_seed": args.first_seed,
              "against": args.against, "workloads": {}}
    print(f"machine: {record['machine']}")
    worst_spread = worst_change = 0.0
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(spec["command"], name, seed, spec["run_seconds"], 0))
            runs[-1]["seed"] = seed
        entry = {"runs": runs, "end_to_end": {}}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{name}: {args.runs} runs, {attempted} operations, {failed} failed "
              f"(fail_ratio {failed / attempted:.6g})")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med, q1, q3, share = spread(values)
            bound = bounds[metric["name"]]
            figures = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3, "spread": share, "bound": bound}
            worst_spread = max(worst_spread, share / bound)
            line = (f"  {metric['name']:<16} median {med:12.6g} {metric['unit']:<6} "
                    f"spread {share:7.4f}  bound {bound:.2f}  spread/bound {share / bound:5.2f}")
            if earlier is not None:
                figures["worse_than_against"] = worse(med, earlier[name]["end_to_end"][metric["name"]]["median"],
                                                      metric["better"])
                worst_change = max(worst_change, figures["worse_than_against"] / bound)
                line += f"  worse by {figures['worse_than_against']:7.4f}"
            entry["end_to_end"][metric["name"]] = figures
            print(line)
        traced = run_once(spec["command"], name, args.first_seed, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
        print(f"  traced run: tracing overhead {entry['per_layer']['trace.overhead']:.3f} "
              f"(untraced ops/s over traced ops/s), {traced['failed']} failed")
        record["workloads"][name] = entry
    print(f"\nlargest spread/bound: {worst_spread:.2f}")
    if earlier is not None:
        print(f"largest median change for the worse, over its bound: {worst_change:.2f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

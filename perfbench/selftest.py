"""Self-tests of the benchmark's generators, tail rule, span arithmetic and oracles.

    python3 perfbench/selftest.py

Run from the repository root.  Only the last test imports bellbox (from
``src/``); it checks that the contract sampler agrees with the program.
"""

from __future__ import annotations

import sys
import types
import unittest
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import measure  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

Ctx = namedtuple("Ctx", "alice bob")


def rendered(specs) -> list[str]:
    return [oracles.render(spec) for spec in specs]


class GeneratorTest(unittest.TestCase):
    def test_analyze_stream_is_a_function_of_the_seed(self):
        self.assertEqual(rendered(gen.analyze_specs(5, 40)), rendered(gen.analyze_specs(5, 40)))
        self.assertNotEqual(rendered(gen.analyze_specs(5, 40)), rendered(gen.analyze_specs(6, 40)))

    def test_analyze_mix_is_the_same_for_every_seed(self):
        def mix(seed):
            return Counter((spec.kind, spec.label) for spec in gen.analyze_specs(seed, 2000)[:200])

        self.assertEqual(mix(9), mix(10))
        self.assertEqual(mix(9)[("noncontextual", "LOCAL")], 60)
        self.assertEqual(mix(9)[("singlet", "LOCAL")], mix(9)[("singlet", "NONLOCAL_NOSIGNALING")])
        self.assertEqual(mix(9)[("contextual", "SIGNALING")], 40)

    def test_sample_inputs_are_a_function_of_the_seed(self):
        texts = workloads.builtin_texts(workloads.load_goldens())
        first = gen.sample_models(3, texts), gen.sample_ops(3, gen.sample_models(3, texts))
        again = gen.sample_models(3, texts), gen.sample_ops(3, gen.sample_models(3, texts))
        other = gen.sample_models(4, texts), gen.sample_ops(4, gen.sample_models(4, texts))
        self.assertEqual(rendered(first[0]), rendered(again[0]))
        self.assertEqual(first[1], again[1])
        self.assertNotEqual(rendered(first[0]), rendered(other[0]))
        self.assertNotEqual(first[1], other[1])
        large, ops = first[1]
        self.assertEqual(large.trials, gen.LARGE_TRIALS)
        self.assertEqual(len(ops), 8 * len(gen.SAMPLE_TRIALS) * len(gen.SAMPLE_SCHEDULES))

    def test_cli_ops_are_a_function_of_the_seed(self):
        pool = [f"pool-{i}" for i in range(gen.CLI_POOL_SIZE)]
        self.assertEqual(gen.cli_ops(1, pool, "bad"), gen.cli_ops(1, pool, "bad"))
        self.assertNotEqual(gen.cli_ops(1, pool, "bad"), gen.cli_ops(2, pool, "bad"))

    def test_canonical_text_round_trips_through_the_reader(self):
        for spec in gen.analyze_specs(2, 20) + gen.cli_pool():
            text = oracles.render(spec)
            self.assertEqual(oracles.render(gen.read_canonical(text)), text)


class TailTest(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        value, percentile, beyond = measure.tail(list(range(100, 0, -1)))
        self.assertEqual((value, percentile, beyond), (90, 90.0, 10))

    def test_tail_percentile_rises_with_the_sample_count(self):
        value, percentile, _ = measure.tail(list(range(1, 1001)))
        self.assertEqual((value, percentile), (990, 99.0))
        value, percentile, _ = measure.tail(list(range(1, 12)))
        self.assertEqual(value, 1)
        self.assertAlmostEqual(percentile, 100 / 11)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(measure.tail([3, 1, 2]), (3, 100.0, 0))


class SpeedProbeTest(unittest.TestCase):
    def test_scale_uses_the_median_sample_near_the_operation(self):
        probe = measure.SpeedProbe()
        probe.times = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2, 10.3]
        probe.samples = [1e-3, 9e-3, 5e-4, 5e-4, 1e-3, 5e-4, 9e-3]
        ref = measure.SpeedProbe.REFERENCE_S
        self.assertAlmostEqual(probe.scale(0.05, 0.06), ref / 1e-3)
        self.assertAlmostEqual(probe.scale(10.05, 10.15), ref / 7.5e-4)
        self.assertAlmostEqual(probe.scale(5.0, 5.1), ref / 5e-4)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans_ = [
            ("parent", 0, 100, -1, 0),
            ("a", 10, 30, 0, 0),
            ("b", 40, 70, 0, 0),
            ("grandchild", 50, 60, 2, 0),
        ]
        self.assertEqual(spans.self_times(spans_), [50, 20, 20, 10])

    def test_overlapping_and_overhanging_children_count_as_their_union(self):
        spans_ = [
            ("parent", 0, 100, -1, 0),
            ("a", 10, 40, 0, 0),
            ("b", 30, 60, 0, 0),
            ("c", 90, 130, 0, 0),
        ]
        self.assertEqual(spans.self_times(spans_)[0], 100 - 50 - 10)

    def test_nested_counts_only_spans_inside_the_ancestor(self):
        recorder = spans.Recorder()
        recorder.spans = [
            ("classify", 0, 100, -1, 0),
            ("membership", 10, 60, 0, 0),
            ("solve", 20, 50, 1, 0),
            ("solve", 200, 240, -1, 1),
            ("classify", 300, 400, -1, -1),
            ("solve", 310, 320, 4, -1),
        ]
        self.assertEqual(recorder.nested("solve", "classify"), (30 / 1e9, 1))
        self.assertEqual(recorder.totals()["solve"]["calls"], 2)

    def test_recorder_wraps_and_restores_bindings(self):
        package = types.ModuleType("fakepkg")
        inner = types.ModuleType("fakepkg.inner")

        def double(x):
            return 2 * x

        package.double = inner.double = double
        sys.modules["fakepkg"], sys.modules["fakepkg.inner"] = package, inner
        try:
            recorder = spans.Recorder()
            recorder.patch_function("fake.double", double, package="fakepkg")
            self.assertIsNot(inner.double, double)
            self.assertEqual(package.double(3), 6)
            recorder.op = 0
            self.assertEqual(package.double(4), 8)
            self.assertEqual(inner.double(5), 10)
            recorder.restore()
            self.assertIs(inner.double, double)
            self.assertIs(package.double, double)
            self.assertEqual(recorder.totals()["fake.double"]["calls"], 2)
        finally:
            del sys.modules["fakepkg"], sys.modules["fakepkg.inner"]


class OracleTest(unittest.TestCase):
    def outcome_for(self, spec, **changes) -> oracles.Outcome:
        verdict = spec.label
        fields = dict(
            verdict=verdict,
            chsh_max=oracles.chsh_max(oracles.exact_table(spec)),
            has_decomposition=verdict == "LOCAL",
            has_certificate=verdict == "NONLOCAL_NOSIGNALING",
            separates=verdict == "NONLOCAL_NOSIGNALING",
            round_trip=True,
        )
        fields.update(changes)
        return oracles.Outcome(**fields)

    def test_right_verdicts_pass_and_wrong_ones_fail(self):
        for spec in gen.analyze_specs(4, 40):
            self.assertIsNone(oracles.check_outcome(spec, self.outcome_for(spec)), spec.name)
            wrong = "SIGNALING" if spec.label != "SIGNALING" else "LOCAL"
            self.assertIsNotNone(oracles.check_outcome(spec, self.outcome_for(spec, verdict=wrong)))
            self.assertIsNotNone(oracles.check_outcome(spec, self.outcome_for(spec, round_trip=False)))

    def test_fine_criterion_catches_a_wrong_label(self):
        import random

        spec = gen.prbox_mixture(random.Random(1), "x")
        spec.label = "LOCAL" if spec.label != "LOCAL" else "NONLOCAL_NOSIGNALING"
        self.assertIn("Fine", oracles.check_outcome(spec, self.outcome_for(spec)))

    def test_prbox_boundary_is_local(self):
        spec = gen.prbox_mixture(random_with(v=8), "edge")
        self.assertEqual(oracles.chsh_max(oracles.exact_table(spec)), 2)
        self.assertEqual(oracles.fine_verdict(spec), "LOCAL")

    def sample_check(self, corrupt):
        import random

        workload = workloads.Sample(export=True)
        spec = gen.random_contextual(random.Random(7), "m", dyadic=False)
        workload.specs = [spec]
        workload.large = gen.SampleOp(0, 3000, "uniform", None, 12345)
        workload.ops = []
        counts, digest = oracles.simulate(spec, 3000, "uniform", None, 12345, lines=True)
        deviation = oracles.deviation(counts, oracles.exact_table(spec))
        output = [{Ctx(*ctx): rows for ctx, rows in counts.items()}, deviation, (digest, 0)]
        corrupt(output)
        return workload.check(0, output)

    def test_sample_oracle_accepts_the_contract_stream(self):
        self.assertIsNone(self.sample_check(lambda output: None))

    def test_sample_oracle_rejects_a_moved_count(self):
        def corrupt(output):
            rows = next(iter(output[0].values()))
            rows[0][0] += 1
            rows[-1][-1] -= 1

        self.assertIn("counts", self.sample_check(corrupt))

    def test_sample_oracle_rejects_a_corrupted_stream(self):
        def corrupt(output):
            output[2] = ("0" * 64, 0)

        self.assertIn("stream", self.sample_check(corrupt))

    def test_sample_oracle_rejects_a_wrong_deviation(self):
        def corrupt(output):
            output[1] += Fraction(1, 10**9)

        self.assertIn("deviation", self.sample_check(corrupt))

    def test_cli_oracle(self):
        golden = {"exit": 0, "stdout": "LOCAL\n"}
        self.assertIsNone(oracles.check_cli(golden, 0, b"LOCAL\n"))
        self.assertIsNotNone(oracles.check_cli(golden, 0, b"LOCAL \n"))
        self.assertIsNotNone(oracles.check_cli(golden, 1, b"LOCAL\n"))
        self.assertIsNotNone(oracles.check_cli({"exit": 0, "stdout": ""}, 0, b""))
        self.assertIsNone(oracles.check_cli({"exit": 1, "stdout": ""}, 1, b""))
        self.assertIsNotNone(oracles.check_cli(None, 0, b"x"))


def random_with(v: int):
    """A Random whose first draws make ``prbox_mixture`` pick ``v / 16``."""

    class Fixed:
        def random(self):
            return 0.0

        def randint(self, lo, hi):
            return v

        def randrange(self, n):
            return 0

    return Fixed()


@unittest.skipUnless((BENCH_DIR.parent / "src" / "bellbox").is_dir(), "needs the bellbox sources")
class ContractAgreementTest(unittest.TestCase):
    def test_contract_sampler_matches_run_experiment(self):
        sys.path.insert(0, str(BENCH_DIR.parent / "src"))
        import bellbox

        texts = workloads.builtin_texts(workloads.load_goldens())
        specs = gen.sample_models(8, texts)
        _, ops = gen.sample_ops(8, specs)
        for op in ops[:12]:
            spec = specs[op.model]
            model = bellbox.parse_document(oracles.render(spec)).document.model()
            schedule = (
                bellbox.Schedule.fixed(bellbox.Context(*op.context))
                if op.schedule == "fixed"
                else bellbox.Schedule(op.schedule)
            )
            run = bellbox.run_experiment(model, bellbox.ExperimentPlan(op.seed, 300, schedule))
            got = {(c.alice, c.bob): [list(r) for r in rows] for c, rows in run.empirical.counts.items()}
            want, digest = oracles.simulate(spec, 300, op.schedule, op.context, op.seed, lines=True)
            self.assertEqual(got, want, op)
            sink = workloads._HashSink()
            bellbox.write_trials(sink, model.scenario, run.records)
            self.assertEqual(sink.hexdigest(), digest, op)


if __name__ == "__main__":
    unittest.main()

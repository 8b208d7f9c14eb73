"""Sampler determinism, convergence, schedules, and the trial export format."""

import hashlib
import io
from bisect import bisect_right
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from bellbox import (
    BUILTIN_NAMES,
    Cause,
    Context,
    ContextBlock,
    ContextualModel,
    EmpiricalBehavior,
    ExperimentPlan,
    ModelError,
    NonContextualModel,
    ResponseFunction,
    SamplerError,
    Scenario,
    Schedule,
    builtin_document,
    deterministic_row,
    empirical_deviation,
    exact_behavior,
    parse_document,
    run_experiment,
    sample_trial,
    socks_off,
    socks_on,
    serialize_document,
    trial_lines,
    unit_draw,
    write_trials,
)
from bellbox import models, sampler
from bellbox.sampler import _cuts, _threshold, keyed_word
from _docgen import random_document
from _tables import STANDARD_SCENARIO

F = Fraction

# Pinned generator outputs: the keyed mixer is a documented compatibility
# contract, so these exact words must never change.
PINNED_WORDS = {
    (0, 0, 0): 5759618596413743954,
    (1, 0, 0): 6893422980855778110,
    (0, 1, 0): 507172892062531785,
    (0, 0, 1): 4830651097145053336,
    (42, 1000, 3): 10827057837835169441,
    (2**64 - 1, 123, 2): 14783499883541731863,
}


def test_keyed_word_is_pinned():
    for key, word in PINNED_WORDS.items():
        assert keyed_word(*key) == word


class TestUnitDraw:
    def test_range_and_determinism(self):
        for seed in (0, 1, 2**63):
            for trial in (0, 1, 999999):
                for draw in (0, 1, 2, 3):
                    u = unit_draw(seed, trial, draw)
                    assert 0.0 <= u < 1.0
                    assert u == unit_draw(seed, trial, draw)

    def test_keys_are_distinguished(self):
        values = {
            unit_draw(s, t, d)
            for s in range(4)
            for t in range(16)
            for d in range(4)
        }
        assert len(values) == 4 * 16 * 4

    def test_roughly_uniform(self):
        n = 20000
        mean = sum(unit_draw(42, i, 1) for i in range(n)) / n
        assert abs(mean - 0.5) < 0.01


def _stochastic_model() -> NonContextualModel:
    """Two causes with genuinely random responses, for factorization checks."""
    causes = (Cause("c1", F(3, 8)), Cause("c2", F(5, 8)))
    rows = {
        "c1": ((F(1, 4), F(3, 4)), (F(2, 3), F(1, 3))),
        "c2": ((F(1, 2), F(1, 2)), (F(1, 5), F(4, 5))),
    }
    alice = ResponseFunction(
        "alice",
        {(x, c): rows[c][x] for x in range(2) for c in ("c1", "c2")},
    )
    bob = ResponseFunction(
        "bob",
        {(y, c): rows[c][1 - y] for y in range(2) for c in ("c1", "c2")},
    )
    return NonContextualModel(STANDARD_SCENARIO, causes, alice, bob)


class TestSampleTrial:
    def test_deterministic_single_cause(self):
        causes = (Cause("only", F(1)),)
        alice = ResponseFunction(
            "alice", {(x, "only"): deterministic_row(2, 1) for x in range(2)}
        )
        bob = ResponseFunction(
            "bob", {(y, "only"): deterministic_row(2, 2) for y in range(2)}
        )
        model = NonContextualModel(STANDARD_SCENARIO, causes, alice, bob)
        for seed in (0, 7, 123456789):
            record = sample_trial(model, Context(0, 0), 0, seed)
            assert (record.cause_id, record.alice_outcome, record.bob_outcome) == (
                "only",
                1,
                2,
            )

    def test_socks_off_forced_context_support(self):
        model = socks_off()
        ctx = Context(1, 0)  # left-side correlation question plus handkerchief
        seen_causes = set()
        for i in range(200):
            record = sample_trial(model, ctx, i, 11)
            seen_causes.add(record.cause_id)
            assert (record.alice_outcome, record.bob_outcome) in {(1, 1), (2, 2)}
        assert seen_causes == {"nu1", "nu2"}

    def test_socks_off_attention_coin_balance(self):
        model = socks_off()
        ctx = Context(1, 1)
        counts = {}
        n = 10000
        for i in range(n):
            record = sample_trial(model, ctx, i, 202)
            counts[record.cause_id] = counts.get(record.cause_id, 0) + 1
        assert set(counts) == {"lambda1", "lambda2", "lambda3", "lambda4"}
        left = (counts["lambda1"] + counts["lambda4"]) / n
        assert abs(left - 0.5) < 0.01

    def test_matches_run_experiment(self):
        model = socks_on()
        plan = ExperimentPlan(5, 50, Schedule.cycle())
        run = run_experiment(model, plan)
        for record in run.records:
            assert record == sample_trial(model, record.context, record.index, 5)


class TestRunExperiment:
    def test_single_trial_fixed(self):
        run = run_experiment(
            socks_on(), ExperimentPlan(3, 1, Schedule.fixed(Context(0, 0)))
        )
        assert len(run.records) == 1
        assert run.records[0].context == Context(0, 0)
        assert run.empirical.total(Context(0, 0)) == 1

    def test_same_seed_identical_streams(self):
        plan = ExperimentPlan(17, 4000, Schedule.uniform())
        first = run_experiment(socks_off(), plan)
        second = run_experiment(socks_off(), plan)
        assert first.records == second.records
        assert first.empirical == second.empirical

    def test_different_seeds_differ(self):
        a = run_experiment(socks_off(), ExperimentPlan(1, 500, Schedule.cycle()))
        b = run_experiment(socks_off(), ExperimentPlan(2, 500, Schedule.cycle()))
        assert a.records != b.records

    def test_cycle_covers_contexts_evenly(self):
        run = run_experiment(socks_on(), ExperimentPlan(8, 400, Schedule.cycle()))
        for ctx in STANDARD_SCENARIO.contexts():
            assert run.empirical.total(ctx) == 100

    def test_uniform_hits_every_context(self):
        run = run_experiment(socks_on(), ExperimentPlan(21, 4000, Schedule.uniform()))
        for ctx in STANDARD_SCENARIO.contexts():
            assert abs(run.empirical.total(ctx) - 1000) < 150

    def test_parallel_partitions_match_serial(self):
        model = socks_off()
        plan = ExperimentPlan(99, 8000, Schedule.uniform())
        serial = run_experiment(model, plan)

        def chunk(bounds):
            lo, hi = bounds
            records = [
                sample_trial(
                    model,
                    serial.records[i].context,  # context from the shared schedule
                    i,
                    99,
                )
                for i in range(lo, hi)
            ]
            counts: dict = {}
            for r in records:
                grid = counts.setdefault(
                    r.context, [[0, 0], [0, 0]]
                )
                grid[r.alice_outcome - 1][r.bob_outcome - 1] += 1
            empirical = EmpiricalBehavior(
                model.scenario,
                {
                    ctx: tuple(tuple(row) for row in grid)
                    for ctx, grid in counts.items()
                },
            )
            return records, empirical

        bounds = [(0, 2000), (2000, 4500), (4500, 8000)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            parts = list(pool.map(chunk, bounds))
        merged_records = [r for records, _ in parts for r in records]
        merged_empirical = parts[0][1].merge(parts[1][1]).merge(parts[2][1])
        assert tuple(merged_records) == serial.records
        assert merged_empirical == serial.empirical

    def test_bad_plan_rejected(self):
        with pytest.raises(SamplerError):
            ExperimentPlan(1, 0, Schedule.cycle())
        with pytest.raises(SamplerError):
            Schedule("warp")
        with pytest.raises(SamplerError):
            Schedule.fixed(None)  # type: ignore[arg-type]

    def test_context_that_is_not_a_context_rejected(self):
        for call in (
            lambda: Schedule.fixed((0, 0)),  # type: ignore[arg-type]
            lambda: sample_trial(socks_off(), (0, 0), 0, 1),  # type: ignore[arg-type]
        ):
            with pytest.raises(SamplerError) as info:
                call()
            assert info.value.code == "BAD_PLAN"

    @pytest.mark.parametrize(
        "seed, trials",
        [(1, 2.5), (1, "3"), (1, math.nan), (1.5, 3), (None, 3)],
        ids=["float-trials", "str-trials", "nan-trials", "float-seed", "none-seed"],
    )
    def test_non_integer_plan_rejected(self, seed, trials):
        with pytest.raises(SamplerError) as info:
            ExperimentPlan(seed, trials, Schedule.cycle())
        assert info.value.code == "BAD_PLAN"

    def test_integer_like_plan_accepted(self):
        numpy = pytest.importorskip("numpy")

        class Count(int):
            pass

        plan = ExperimentPlan(numpy.int64(14), Count(500), Schedule.uniform())
        same = ExperimentPlan(14, 500, Schedule.uniform())
        assert plan == same
        assert run_experiment(socks_off(), plan) == run_experiment(socks_off(), same)


class TestEmpiricalDeviation:
    def test_exact_frequencies_give_zero(self):
        empirical = EmpiricalBehavior(
            STANDARD_SCENARIO,
            {
                ctx: ((25, 25), (25, 25))
                for ctx in STANDARD_SCENARIO.contexts()
            },
        )
        from _tables import UNIFORM_TABLE, behavior_from

        assert empirical_deviation(
            empirical, behavior_from(STANDARD_SCENARIO, UNIFORM_TABLE)
        ) == 0

    def test_unsampled_context_rejected(self):
        run = run_experiment(
            socks_on(), ExperimentPlan(4, 10, Schedule.fixed(Context(0, 0)))
        )
        with pytest.raises(SamplerError) as exc:
            empirical_deviation(run.empirical, exact_behavior(socks_on()))
        assert exc.value.code == "UNSAMPLED_CONTEXT"

    def test_converges_to_own_model(self):
        run = run_experiment(socks_off(), ExperimentPlan(31, 40000, Schedule.cycle()))
        deviation = empirical_deviation(run.empirical, exact_behavior(socks_off()))
        assert deviation <= 0.02

    def test_separates_different_models(self):
        # Mixed-kind contexts differ by 1/4 between the two sock models.
        run = run_experiment(socks_on(), ExperimentPlan(32, 40000, Schedule.cycle()))
        deviation = empirical_deviation(run.empirical, exact_behavior(socks_off()))
        assert deviation >= F(1, 5)

    def test_scenario_mismatch(self):
        from bellbox import socks_color

        run = run_experiment(socks_on(), ExperimentPlan(1, 40, Schedule.cycle()))
        with pytest.raises(SamplerError):
            empirical_deviation(run.empirical, exact_behavior(socks_color()))


class TestConditionalFactorization:
    def test_joint_frequencies_factor_given_the_cause(self):
        model = _stochastic_model()
        ctx = Context(0, 1)
        n = 30000
        by_cause: dict = {}
        for i in range(n):
            r = sample_trial(model, ctx, i, 777)
            a_counts, b_counts, ab_counts, totals = by_cause.setdefault(
                r.cause_id, ([0, 0], [0, 0], [[0, 0], [0, 0]], [0])
            )
            a_counts[r.alice_outcome - 1] += 1
            b_counts[r.bob_outcome - 1] += 1
            ab_counts[r.alice_outcome - 1][r.bob_outcome - 1] += 1
            totals[0] += 1
        assert set(by_cause) == {"c1", "c2"}
        for a_counts, b_counts, ab_counts, (total,) in by_cause.values():
            for a in range(2):
                for b in range(2):
                    joint = ab_counts[a][b] / total
                    product = (a_counts[a] / total) * (b_counts[b] / total)
                    se = (max(product * (1 - product), 1e-9) / total) ** 0.5
                    assert abs(joint - product) <= 3 * se


class TestExport:
    def test_header_and_fields(self):
        run = run_experiment(
            socks_off(), ExperimentPlan(12, 4, Schedule.cycle())
        )
        lines = list(trial_lines(STANDARD_SCENARIO, run.records))
        assert lines[0] == "trial,alice_setting,bob_setting,cause,a,b"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] in ("A", "A'")
        assert first[2] in ("B", "B'")
        assert first[4] in ("1", "2") and first[5] in ("1", "2")

    def test_write_trials_round_trips_lines(self):
        run = run_experiment(
            socks_on(), ExperimentPlan(13, 7, Schedule.uniform())
        )
        buffer = io.StringIO()
        write_trials(buffer, STANDARD_SCENARIO, run.records)
        assert buffer.getvalue().splitlines() == list(
            trial_lines(STANDARD_SCENARIO, run.records)
        )

    def test_streams_are_byte_identical_across_runs(self):
        plan = ExperimentPlan(14, 500, Schedule.uniform())
        first = io.StringIO()
        second = io.StringIO()
        write_trials(first, STANDARD_SCENARIO, run_experiment(socks_off(), plan).records)
        write_trials(second, STANDARD_SCENARIO, run_experiment(socks_off(), plan).records)
        assert first.getvalue() == second.getvalue()

    @pytest.mark.parametrize("kind", ["fixed", "uniform", "cycle"])
    def test_write_trials_writes_whole_line_blocks(self, kind):
        block = sampler._WRITE_BLOCK
        schedule = Schedule.fixed(Context(1, 0)) if kind == "fixed" else Schedule(kind)
        run = run_experiment(socks_off(), ExperimentPlan(15, 2 * block + 1, schedule))
        for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
            records = run.records[:n]
            want = "".join(line + "\n" for line in trial_lines(STANDARD_SCENARIO, records))
            for given in (records, (r for r in records)):
                writes = []
                write_trials(SimpleNamespace(write=writes.append), STANDARD_SCENARIO, given)
                assert "".join(writes) == want
                assert all(w.endswith("\n") and w.count("\n") <= block for w in writes)


def _contract_pick(weights, u: float) -> int:
    """Inverse CDF as the contract states it: exact ``u < cumulative`` tests."""
    kept = [(index, w) for index, w in enumerate(weights) if w != 0]
    acc = F(0)
    for index, w in kept:
        acc = acc + w
        if u < acc:
            return index
    return kept[-1][0]


class TestIntegerThresholds:
    """``m / 2**53 < c`` is decided exactly as ``m < ceil(c * 2**53)``."""

    @pytest.mark.parametrize(
        "c", [F(1, 3), F(2, 7), F(1, 10), 0.1, 0.3, 1 - 1e-13]
    )
    def test_agrees_with_exact_comparison(self, c):
        t = _threshold(c)
        rng = random.Random(53)
        ms = [t - 1, t, t + 1]
        ms += [rng.randrange(2**53) for _ in range(200)]
        ms += [t + rng.randrange(-(2**12), 2**12) for _ in range(200)]
        for m in ms:
            assert (m < t) == (F(m, 2**53) < F(c))
            assert (m < t) == (m * 2.0**-53 < c)

    # 0.375 + 0.1 / 2**53 rounds down to 0.375 as a float, so after a tiny
    # float weight the running sum's threshold falls below the first one.
    _BELOW_FLOAT = F(10 * 3 * 2**51 + 1, 10 * 2**53)

    @pytest.mark.parametrize(
        "weights",
        [
            [F(1, 3), F(2, 7), F(8, 21)],
            [0.1] * 10,  # float sum 1 - 2**-53: the top draw falls past it
            [_BELOW_FLOAT, 1e-300, 1 - _BELOW_FLOAT],
        ],
    )
    def test_cuts_pick_like_the_contract(self, weights):
        cuts = _cuts(weights)
        ms = {0, 2**53 - 1}
        for t in cuts[:-1]:
            ms.update((t - 1, t, t + 1))
        for m in sorted(ms):
            expected = _contract_pick(weights, m * 2.0**-53)
            assert bisect_right(cuts, m) == expected


# A 2x3 scenario with a three-outcome setting on each side, so contexts are
# not a power of two (the uniform pick rounds) and outcome tables are longer.
_DIGEST_SCENARIO = Scenario(("X", "X'"), ("Y", "Y'", "Y''"), (2, 3), (2, 2, 3))


def _rational_row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Random distribution over ``n`` entries in 3rds to 13ths, zeros allowed."""
    den = rng.choice((3, 5, 7, 9, 11, 13))
    cuts = sorted(rng.randrange(den + 1) for _ in range(n - 1))
    bounds = [0, *cuts, den]
    return tuple(F(hi - lo, den) for lo, hi in zip(bounds, bounds[1:]))


def _digest_model(as_float: bool, rng_seed: int) -> ContextualModel:
    rng = random.Random(rng_seed)
    convert = float if as_float else (lambda p: p)
    blocks = {}
    for ctx in _DIGEST_SCENARIO.contexts():
        weights = _rational_row(rng, rng.randint(3, 6))
        causes = tuple(Cause(f"k{j}", convert(w)) for j, w in enumerate(weights))
        rows = {}
        for party, setting, n in (
            ("alice", ctx.alice, _DIGEST_SCENARIO.alice_outcomes[ctx.alice]),
            ("bob", ctx.bob, _DIGEST_SCENARIO.bob_outcomes[ctx.bob]),
        ):
            rows[party] = {
                (setting, c.id): tuple(convert(p) for p in _rational_row(rng, n))
                for c in causes
            }
        blocks[ctx] = ContextBlock(
            causes,
            ResponseFunction("alice", rows["alice"]),
            ResponseFunction("bob", rows["bob"]),
        )
    return ContextualModel(_DIGEST_SCENARIO, blocks)


_DIGEST_SCHEDULES = {
    "fixed": Schedule.fixed(Context(1, 2)),
    "uniform": Schedule.uniform(),
    "cycle": Schedule.cycle(),
}

# SHA-256 of the write_trials stream (seed 20240601, 3000 trials), captured
# from the Fraction/float-threshold sampler that the integer thresholds
# replaced.  They pin the streams against any change of pick rule.
RATIONAL_STREAM_DIGESTS = {
    "fixed": "38616043f3813eac295f7369d914691d57834f733fdb1412bb101437f117d495",
    "uniform": "b64a9679e1d0546ca4cc2326fa29a770940f8be171d9f2560056ce570a6afeae",
    "cycle": "2857e2c5276a3a3e4ea02a47ec6baea403a8b556493ec5dee20f17f937c3fe6c",
}
FLOAT_STREAM_DIGESTS = {
    "fixed": "857d5eb86cec7c6b768bebda5aec67f87baf84a90e21042d6536fe5c85a64215",
    "uniform": "0c42c4f95e10851bfaca9ac53d63746aa8f2d67465f5bae7e51896989a906753",
    "cycle": "619212a19a6b91bd79b01acb53c9db57b7335839a45c08e963f2d8067125454e",
}


def _stream_digest(model, schedule: Schedule) -> str:
    run = run_experiment(model, ExperimentPlan(20240601, 3000, schedule))
    buffer = io.StringIO()
    write_trials(buffer, model.scenario, run.records)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def _contract_record(model: ContextualModel, schedule: Schedule, seed: int, i: int):
    contexts = model.scenario.contexts()
    if schedule.kind == "fixed":
        ctx = schedule.context
    elif schedule.kind == "cycle":
        ctx = contexts[i % len(contexts)]
    else:
        ctx = contexts[int(unit_draw(seed, i, 0) * len(contexts))]
    block = model.blocks[ctx]
    weights = [c.weight for c in block.causes]
    cause = block.causes[_contract_pick(weights, unit_draw(seed, i, 1))]
    alice_row = block.alice_response.outcome_probs(ctx.alice, cause.id)
    bob_row = block.bob_response.outcome_probs(ctx.bob, cause.id)
    a = 1 + _contract_pick(alice_row, unit_draw(seed, i, 2))
    b = 1 + _contract_pick(bob_row, unit_draw(seed, i, 3))
    return (i, ctx, cause.id, a, b)


class TestPinnedStreams:
    @pytest.mark.parametrize("as_float", [False, True])
    @pytest.mark.parametrize("kind", sorted(_DIGEST_SCHEDULES))
    def test_records_follow_the_contract(self, kind, as_float):
        model = _digest_model(as_float=as_float, rng_seed=11)
        schedule = _DIGEST_SCHEDULES[kind]
        run = run_experiment(model, ExperimentPlan(5, 600, schedule))
        assert [
            (r.index, r.context, r.cause_id, r.alice_outcome, r.bob_outcome)
            for r in run.records
        ] == [_contract_record(model, schedule, 5, i) for i in range(600)]

    @pytest.mark.parametrize("kind", sorted(_DIGEST_SCHEDULES))
    def test_non_dyadic_rational_weights(self, kind):
        model = _digest_model(as_float=False, rng_seed=2024)
        digest = _stream_digest(model, _DIGEST_SCHEDULES[kind])
        assert digest == RATIONAL_STREAM_DIGESTS[kind]

    @pytest.mark.parametrize("kind", sorted(_DIGEST_SCHEDULES))
    def test_float_weights(self, kind):
        model = _digest_model(as_float=True, rng_seed=7)
        digest = _stream_digest(model, _DIGEST_SCHEDULES[kind])
        assert digest == FLOAT_STREAM_DIGESTS[kind]


class TestNonFiniteModels:
    def _nan_socks_on(self):
        model = socks_on()
        causes = (*model.causes[:3], replace(model.causes[3], weight=math.nan))
        return replace(model, causes=causes)

    def test_run_experiment_rejects_nan_weight(self):
        plan = ExperimentPlan(1, 10, Schedule.cycle())
        with pytest.raises(ModelError) as exc:
            run_experiment(self._nan_socks_on(), plan)
        assert exc.value.code == "MODEL_INVALID"

    def test_sample_trial_rejects_nan_weight(self):
        with pytest.raises(ModelError) as exc:
            sample_trial(self._nan_socks_on(), Context(0, 0), 0, 1)
        assert exc.value.code == "MODEL_INVALID"


@pytest.fixture(scope="module")
def parsed_models():
    """Every builtin model and 120 ``_docgen`` models, each parsed from its text."""
    docs = [builtin_document(name) for name in BUILTIN_NAMES]
    rand = random.Random(812)
    found = []
    while len(found) < 3 + 120:
        doc = docs.pop(0) if docs else random_document(rand)
        parsed = parse_document(serialize_document(doc)).document
        if parsed.model() is not None:
            found.append(parsed.model())
    return found


class TestSamplerReadsTheTerms:
    """A parsed model samples from the terms the parser set; a replaced copy
    from terms lowered on its first use.  Both give the same trials."""

    def test_run_experiment_matches_a_fresh_lowering(self, parsed_models):
        for model in parsed_models:
            assert model._terms is not None
            contexts = model.scenario.contexts()
            schedules = (Schedule.fixed(contexts[-1]), Schedule.cycle(), Schedule.uniform())
            for schedule in schedules:
                plan = ExperimentPlan(17, 300, schedule)
                fresh = replace(model)
                assert fresh._terms is None
                run, expected = run_experiment(model, plan), run_experiment(fresh, plan)
                assert run.empirical == expected.empirical
                assert run.records == expected.records

    def test_sample_trial_matches_a_fresh_lowering(self, parsed_models):
        for model in parsed_models:
            for ctx in model.scenario.contexts():
                for index in (0, 41, 2**63, 2**64 - 1):
                    fresh = replace(model)
                    assert sample_trial(model, ctx, index, 5) == sample_trial(fresh, ctx, index, 5)

    def test_each_call_validates_once_and_builds_no_table(self, monkeypatch):
        validated = []

        def count(model):
            validated.append(model)
            return model

        def refuse(model):
            raise AssertionError("the sampler built an exact table")

        monkeypatch.setattr(sampler, "validate_model", count)
        monkeypatch.setattr(models, "exact_behavior", refuse)
        model = socks_off()
        plan = ExperimentPlan(3, 50, Schedule.cycle())
        assert run_experiment(model, plan) == run_experiment(model, plan)
        sample_trial(model, Context(1, 1), 9, 3)
        assert validated == [model, model, model]


def test_merge_of_runs_with_different_fixed_schedules():
    """Runs fixed on different contexts share no context, so each merged context is held by
    one side alone; the merge equals the counts tallied trial by trial."""
    model = socks_off()
    parts = [(Context(0, 0), 300), (Context(1, 1), 200), (Context(1, 1), 100), (Context(0, 1), 50)]
    runs = [run_experiment(model, ExperimentPlan(5 + k, n, Schedule.fixed(ctx))) for k, (ctx, n) in enumerate(parts)]
    counts: dict = {}
    for k, (ctx, n) in enumerate(parts):
        grid = counts.setdefault(ctx, [[0, 0], [0, 0]])
        for i in range(n):
            record = sample_trial(model, ctx, i, 5 + k)
            grid[record.alice_outcome - 1][record.bob_outcome - 1] += 1
    serial = EmpiricalBehavior(model.scenario, {ctx: tuple(map(tuple, grid)) for ctx, grid in counts.items()})
    merged = runs[0].empirical
    for run in runs[1:]:
        merged = merged.merge(run.empirical)
    assert merged == serial
    assert merged.sampled_contexts() == (Context(0, 0), Context(0, 1), Context(1, 1))
    assert runs[1].empirical.merge(runs[0].empirical) == runs[0].empirical.merge(runs[1].empirical)
    empty = EmpiricalBehavior(model.scenario, {})
    assert empty.merge(runs[0].empirical) == runs[0].empirical == runs[0].empirical.merge(empty)
    assert merged.total(Context(1, 1)) == 300

"""``ExperimentRun.records`` is built from per-trial cell codes on first access."""

import copy
import dataclasses
import gc
import pickle
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from bellbox import (
    Cause,
    Context,
    ContextualModel,
    ContextBlock,
    ExperimentPlan,
    ResponseFunction,
    Scenario,
    Schedule,
    TrialRecord,
    run_experiment,
    sample_trial,
    socks_off,
)

F = Fraction

_SCHEDULES = {
    "fixed": Schedule.fixed(Context(1, 0)),
    "uniform": Schedule.uniform(),
    "cycle": Schedule.cycle(),
}


def test_counts_only_run_retains_no_records():
    # Tracing the run itself would make its 200k trials about 40x slower, so
    # the run is measured by what it keeps: its code array and no new objects
    # for the collector; tracemalloc then shows the records being built.
    plan = ExperimentPlan(3, 200_000, Schedule.uniform())
    model = socks_off()
    gc.collect()
    objects = len(gc.get_objects())
    run = run_experiment(model, plan)
    gc.collect()
    assert len(gc.get_objects()) - objects < 100
    codes = run._codes
    assert len(codes) == 200_000
    assert sys.getsizeof(codes) < 2_000_000
    assert sum(run.empirical.total(ctx) for ctx in run.empirical.counts) == 200_000
    tracemalloc.start()
    try:
        assert len(run.records) == 200_000
        built, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built > 10_000_000
    # Slotted records take about 21.6 MB with their tuple; records with a
    # ``__dict__`` took about 29.6 MB.
    assert built < 25_000_000


def test_records_are_one_cached_tuple():
    run = run_experiment(socks_off(), ExperimentPlan(8, 300, Schedule.cycle()))
    records = run.records
    assert type(records) is tuple
    assert run.records is records


@pytest.mark.parametrize("kind", sorted(_SCHEDULES))
def test_records_equal_single_trials(kind):
    model = socks_off()
    seed = 2024
    run = run_experiment(model, ExperimentPlan(seed, 5000, _SCHEDULES[kind]))
    contexts = model.scenario.contexts()
    for i in random.Random(kind).sample(range(5000), 150):
        record = run.records[i]
        assert record.index == i
        if kind == "cycle":
            assert record.context == contexts[i % len(contexts)]
        assert record == sample_trial(model, record.context, i, seed)


def test_concurrent_first_access_gives_equal_tuples():
    plan = ExperimentPlan(61, 20_000, Schedule.uniform())
    run = run_experiment(socks_off(), plan)
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(lambda: run.records) for _ in range(16)]
        results = [f.result(timeout=60) for f in futures]
    assert all(r == results[0] for r in results)
    assert results[0] == run_experiment(socks_off(), plan).records


def test_runs_compare_by_counts_and_records():
    plan = ExperimentPlan(4, 400, Schedule.uniform())
    first = run_experiment(socks_off(), plan)
    assert first == run_experiment(socks_off(), plan)
    assert first != run_experiment(socks_off(), ExperimentPlan(5, 400, Schedule.uniform()))
    longer = run_experiment(socks_off(), ExperimentPlan(4, 401, Schedule.uniform()))
    assert first != longer and longer.records[:400] == first.records


def _wide_model(causes: int, outcomes: int) -> ContextualModel:
    """A 2x1 scenario whose cells per context are causes x outcomes**2."""
    scenario = Scenario(("X", "X'"), ("Y",), (outcomes, 2), (outcomes,))
    rng = random.Random(causes * 1000 + outcomes)
    blocks = {}
    for ctx in scenario.contexts():
        weights = [F(1 + rng.randrange(5)) for _ in range(causes)]
        total = sum(weights)
        block_causes = tuple(Cause(f"c{j}", w / total) for j, w in enumerate(weights))

        def row(n):
            raw = [F(1 + rng.randrange(3)) for _ in range(n)]
            return tuple(v / sum(raw) for v in raw)

        blocks[ctx] = ContextBlock(
            block_causes,
            ResponseFunction(
                "alice",
                {(ctx.alice, c.id): row(scenario.alice_outcomes[ctx.alice]) for c in block_causes},
            ),
            ResponseFunction(
                "bob",
                {(ctx.bob, c.id): row(scenario.bob_outcomes[ctx.bob]) for c in block_causes},
            ),
        )
    return ContextualModel(scenario, blocks)


@pytest.mark.parametrize(
    "causes, outcomes, itemsize", [(3, 5, 1), (12, 5, 2), (260, 16, 4)]
)
def test_wide_models_round_trip(causes, outcomes, itemsize):
    model = _wide_model(causes, outcomes)
    seed = 77
    run = run_experiment(model, ExperimentPlan(seed, 600, Schedule.cycle()))
    assert run._codes.itemsize >= itemsize
    for i in random.Random(seed).sample(range(600), 12):
        record = run.records[i]
        assert record == sample_trial(model, record.context, i, seed)
    counts = {}
    for record in run.records:
        rows = counts.setdefault(record.context, {})
        key = (record.alice_outcome, record.bob_outcome)
        rows[key] = rows.get(key, 0) + 1
    for ctx, rows in run.empirical.counts.items():
        assert {
            (a, b): n
            for a, row in enumerate(rows, start=1)
            for b, n in enumerate(row, start=1)
            if n
        } == counts[ctx]


@pytest.mark.parametrize("kind", sorted(_SCHEDULES))
def test_built_records_behave_like_constructed_ones(kind):
    model = socks_off()
    seed = 31
    run = run_experiment(model, ExperimentPlan(seed, 40, _SCHEDULES[kind]))
    for built in run.records:
        values = (built.index, built.context, built.cause_id,
                  built.alice_outcome, built.bob_outcome)
        constructed = TrialRecord(*values)
        assert built == constructed == sample_trial(model, built.context, built.index, seed)
        assert hash(built) == hash(constructed)
        assert repr(built) == repr(constructed)
        assert dataclasses.fields(built) == dataclasses.fields(constructed)
        assert [f.name for f in dataclasses.fields(built)] == [
            "index", "context", "cause_id", "alice_outcome", "bob_outcome"
        ]
        assert dataclasses.astuple(built) == dataclasses.astuple(constructed)
        moved = dataclasses.replace(built, index=built.index + 1)
        assert moved == TrialRecord(built.index + 1, *values[1:])
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(built, protocol))
            assert loaded == constructed and repr(loaded) == repr(constructed)
        assert copy.copy(built) == copy.deepcopy(built) == constructed
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.index = 0


# TrialRecord(7, Context(1, 0), "k", 2, 1) pickled before the class had
# slots, when the pickled state was the instance ``__dict__``.
_DICT_STATE_PICKLES = (
    b"ccopy_reg\n_reconstructor\np0\n(cbellbox.sampler\nTrialRecord\np1\nc__builtin__"
    b"\nobject\np2\nNtp3\nRp4\n(dp5\nVindex\np6\nI7\nsVcontext\np7\ng0\n(cbellbox."
    b"scenario\nContext\np8\ng2\nNtp9\nRp10\n(dp11\nValice\np12\nI1\nsVbob\np13\nI0"
    b"\nsbsVcause_id\np14\nVk\np15\nsValice_outcome\np16\nI2\nsVbob_outcome\np17\nI1"
    b"\nsb.",
    b"\x80\x04\x95\xa9\x00\x00\x00\x00\x00\x00\x00\x8c\x0fbellbox.sampler\x94\x8c"
    b"\x0bTrialRecord\x94\x93\x94)\x81\x94}\x94(\x8c\x05index\x94K\x07\x8c\x07context"
    b"\x94\x8c\x10bellbox.scenario\x94\x8c\x07Context\x94\x93\x94)\x81\x94}\x94(\x8c"
    b"\x05alice\x94K\x01\x8c\x03bob\x94K\x00ub\x8c\x08cause_id\x94\x8c\x01k\x94\x8c"
    b"\ralice_outcome\x94K\x02\x8c\x0bbob_outcome\x94K\x01ub.",
)


@pytest.mark.parametrize("data", _DICT_STATE_PICKLES, ids=["protocol0", "protocol4"])
def test_pickles_with_dict_state_still_load(data):
    loaded = pickle.loads(data)
    assert loaded == TrialRecord(7, Context(1, 0), "k", 2, 1)
    assert loaded.index == 7 and loaded.cause_id == "k"

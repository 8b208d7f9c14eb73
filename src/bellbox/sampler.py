"""Deterministic Monte Carlo simulation of common-cause models.

Every random draw is a pure function of ``(seed, trial_index, draw_index)``;
there is no shared generator state, so trials can be computed in any order
or split across workers and still produce bit-identical records.

The generator is fixed and part of this repository's compatibility
contract.  With 64-bit wrapping arithmetic and ``mix`` the splitmix64
finalizer ::

    mix(x): x ^= x >> 30;  x *= 0xBF58476D1CE4E5B9
            x ^= x >> 27;  x *= 0x94D049BB133111EB
            x ^= x >> 31

    word(seed, trial, draw) =
        mix(mix(mix(seed ^ K0) ^ mix(trial ^ K1)) ^ mix(draw ^ K2))

    K0 = 0x9E3779B97F4A7C15   K1 = 0xD1B54A32D192ED03   K2 = 0x8CB92BA72F3D8DD7

and the unit draw is ``(word >> 11) / 2**53``, uniform on [0, 1) with full
double precision.  Draw indices: 0 selects the context (uniform schedule),
1 the cause, 2 Alice's outcome, 3 Bob's outcome.

Sampling is inverse-CDF over causes and outcomes in declaration order;
zero-weight entries are pruned first so exact cumulative sums are strictly
increasing and ties are impossible.  Inverse-CDF comparisons are exact,
because ``u < c`` holds exactly when ``(word >> 11) < ceil(c * 2**53)``,
for rational and float cumulative weights ``c`` alike.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import IO, Iterable, Iterator, Sequence

from .errors import SamplerError
from .models import Model, NonContextualModel, validate_model
from .scenario import Behavior, Context, Prob, Scenario

_MASK64 = (1 << 64) - 1
_K0 = 0x9E3779B97F4A7C15
_K1 = 0xD1B54A32D192ED03
_K2 = 0x8CB92BA72F3D8DD7
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

TRIAL_HEADER = "trial,alice_setting,bob_setting,cause,a,b"


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _C1) & _MASK64
    x = ((x ^ (x >> 27)) * _C2) & _MASK64
    return x ^ (x >> 31)


def keyed_word(seed: int, trial_index: int, draw_index: int) -> int:
    """The contract generator: a 64-bit word from the three key components."""
    h = _mix64((seed & _MASK64) ^ _K0)
    h = _mix64(h ^ _mix64((trial_index & _MASK64) ^ _K1))
    return _mix64(h ^ _mix64((draw_index & _MASK64) ^ _K2))


def unit_draw(seed: int, trial_index: int, draw_index: int) -> float:
    """Uniform float in [0, 1), a pure function of its three arguments."""
    return (keyed_word(seed, trial_index, draw_index) >> 11) * 2.0**-53


@dataclass(frozen=True)
class TrialRecord:
    """One joint-measurement run: actualized cause and both outcomes."""

    index: int
    context: Context
    cause_id: str
    alice_outcome: int
    bob_outcome: int


@dataclass(frozen=True)
class Schedule:
    """How contexts are assigned to trials."""

    kind: str  # "fixed" | "uniform" | "cycle"
    context: Context | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform", "cycle"):
            raise SamplerError(f"unknown schedule kind {self.kind!r}", code="BAD_PLAN")
        if (self.kind == "fixed") != (self.context is not None):
            raise SamplerError(
                "fixed schedules carry a context; uniform/cycle do not",
                code="BAD_PLAN",
            )

    @staticmethod
    def fixed(context: Context) -> "Schedule":
        return Schedule("fixed", context)

    @staticmethod
    def uniform() -> "Schedule":
        return Schedule("uniform")

    @staticmethod
    def cycle() -> "Schedule":
        return Schedule("cycle")


@dataclass(frozen=True)
class ExperimentPlan:
    seed: int
    trials: int
    schedule: Schedule

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SamplerError("plan needs at least one trial", code="BAD_PLAN")


@dataclass(frozen=True)
class EmpiricalBehavior:
    """Outcome counts per context, with exact frequency tables on demand."""

    scenario: Scenario
    counts: dict[Context, tuple[tuple[int, ...], ...]]

    def total(self, context: Context) -> int:
        rows = self.counts.get(context)
        if rows is None:
            return 0
        return sum(v for row in rows for v in row)

    def frequencies(self, context: Context) -> tuple[tuple[Fraction, ...], ...]:
        total = self.total(context)
        if total == 0:
            raise SamplerError(
                f"context ({context.alice},{context.bob}) was never sampled",
                code="UNSAMPLED_CONTEXT",
            )
        return tuple(
            tuple(Fraction(v, total) for v in row) for row in self.counts[context]
        )

    def sampled_contexts(self) -> tuple[Context, ...]:
        return tuple(
            ctx for ctx in self.scenario.contexts() if self.total(ctx) > 0
        )

    def merge(self, other: "EmpiricalBehavior") -> "EmpiricalBehavior":
        """Add counts; commutative and associative, so partial runs combine freely."""
        if other.scenario != self.scenario:
            raise SamplerError(
                "cannot merge counts from different scenarios",
                code="SCENARIO_MISMATCH",
            )
        merged = {}
        for ctx in self.scenario.contexts():
            mine = self.counts.get(ctx)
            theirs = other.counts.get(ctx)
            if mine is None and theirs is None:
                continue
            if mine is None:
                merged[ctx] = theirs
            elif theirs is None:
                merged[ctx] = mine
            else:
                merged[ctx] = tuple(
                    tuple(x + y for x, y in zip(row_a, row_b))
                    for row_a, row_b in zip(mine, theirs)
                )
        return EmpiricalBehavior(self.scenario, merged)


@dataclass(frozen=True)
class ExperimentRun:
    empirical: EmpiricalBehavior
    records: tuple[TrialRecord, ...]


class _Arm:
    """Pre-pruned inverse-CDF tables for one context of one model.

    Cumulative weights are stored as integer thresholds (``_cuts``), so the
    kernel picks a cause or an outcome by ``bisect_right`` over integers.
    ``branches[k]`` holds the ``k``-th kept cause: its id, then Alice's and
    Bob's outcome thresholds, each followed by the outcome numbers they pick.
    """

    __slots__ = ("cause_cuts", "branches")

    def __init__(self, model: Model, ctx: Context) -> None:
        if isinstance(model, NonContextualModel):
            causes, alice, bob = model.causes, model.alice_response, model.bob_response
        else:
            block = model.blocks[ctx]
            causes, alice, bob = block.causes, block.alice_response, block.bob_response
        kept = [c for c in causes if c.weight != 0]
        self.cause_cuts = _cuts(c.weight for c in kept)
        self.branches = [
            (
                c.id,
                *_outcome_table(alice.outcome_probs(ctx.alice, c.id)),
                *_outcome_table(bob.outcome_probs(ctx.bob, c.id)),
            )
            for c in kept
        ]


def _cuts(weights: Iterable[Prob]) -> list[int]:
    """Integer inverse-CDF thresholds: the first one above a draw ``m`` picks.

    A cumulative weight ``c`` becomes ``ceil(c * 2**53)``, so for the 53-bit
    draw ``m`` the test ``m / 2**53 < c`` is exactly ``m < threshold``.  Weights
    accumulate in declaration order as the contract says, float sums rounding
    as floats.  The running maximum keeps the list sorted without changing
    which entry is the first above ``m``, and the last threshold is raised to
    ``2**53``, above every draw, so the last entry takes whatever rounding
    leaves at the top.
    """
    cuts: list[int] = []
    acc: Prob = Fraction(0)
    for weight in weights:
        acc = acc + weight
        cuts.append(_threshold(acc))
    cuts = list(accumulate(cuts, max))
    cuts[-1] = 1 << 53
    return cuts


def _threshold(value: Prob) -> int:
    """``ceil(value * 2**53)``, exact for rational and float ``value``."""
    c = Fraction(value)
    return -((-c.numerator << 53) // c.denominator)


def _outcome_table(row: Sequence[Prob]) -> tuple[list[int], list[int]]:
    outcomes = [index for index, p in enumerate(row, start=1) if p != 0]
    return _cuts(p for p in row if p != 0), outcomes


def _grid(scenario: Scenario, ctx: Context) -> list[list[int]]:
    return [
        [0] * scenario.bob_outcomes[ctx.bob]
        for _ in range(scenario.alice_outcomes[ctx.alice])
    ]


# mix(draw ^ K2) for draw indices 0-3: the last key component of every word.
_DRAW_KEYS = tuple(_mix64(draw ^ _K2) for draw in range(4))


def _sample(
    arms: Sequence[_Arm],
    contexts: Sequence[Context],
    grids: Sequence[list[list[int]]],
    seed: int,
    indices: range,
    kind: str,
    fixed: int = 0,
) -> list[TrialRecord]:
    """The one sampling kernel: a record per trial, each also counted in ``grids``.

    ``arms``, ``contexts`` and ``grids`` are parallel, indexed by context
    position: ``fixed`` under the fixed schedule, ``i % len(contexts)`` under
    cycle, the draw-0 pick under uniform.  Each word is ``keyed_word(seed, i,
    draw)`` with the fixed parts hoisted: ``mix(seed ^ K0)`` once per call,
    the trial key once per trial and ``mix(draw ^ K2)`` from ``_DRAW_KEYS``,
    so each draw is one ``mix``, written out inline.
    """
    n_ctx = len(contexts)
    uniform = kind == "uniform"
    cycle = kind == "cycle"
    mask, k1, c1, c2 = _MASK64, _K1, _C1, _C2
    d0, d1, d2, d3 = _DRAW_KEYS
    run_key = _mix64((seed & mask) ^ _K0)
    records: list[TrialRecord] = []
    append = records.append
    for i in indices:
        x = (i & mask) ^ k1
        x = ((x ^ (x >> 30)) * c1) & mask
        x = ((x ^ (x >> 27)) * c2) & mask
        x = run_key ^ x ^ (x >> 31)
        x = ((x ^ (x >> 30)) * c1) & mask
        x = ((x ^ (x >> 27)) * c2) & mask
        key = x ^ (x >> 31)
        if uniform:
            x = key ^ d0
            x = ((x ^ (x >> 30)) * c1) & mask
            x = ((x ^ (x >> 27)) * c2) & mask
            pos = int(((x ^ (x >> 31)) >> 11) * 2.0**-53 * n_ctx)
        elif cycle:
            pos = i % n_ctx
        else:
            pos = fixed
        arm = arms[pos]
        x = key ^ d1
        x = ((x ^ (x >> 30)) * c1) & mask
        x = ((x ^ (x >> 27)) * c2) & mask
        cause_id, a_cuts, a_outcomes, b_cuts, b_outcomes = arm.branches[
            bisect_right(arm.cause_cuts, (x ^ (x >> 31)) >> 11)
        ]
        x = key ^ d2
        x = ((x ^ (x >> 30)) * c1) & mask
        x = ((x ^ (x >> 27)) * c2) & mask
        a = a_outcomes[bisect_right(a_cuts, (x ^ (x >> 31)) >> 11)]
        x = key ^ d3
        x = ((x ^ (x >> 30)) * c1) & mask
        x = ((x ^ (x >> 27)) * c2) & mask
        b = b_outcomes[bisect_right(b_cuts, (x ^ (x >> 31)) >> 11)]
        append(TrialRecord(i, contexts[pos], cause_id, a, b))
        grids[pos][a - 1][b - 1] += 1
    return records


def sample_trial(
    model: Model, context: Context, trial_index: int, seed: int
) -> TrialRecord:
    """Run one joint measurement: actualize a cause, then both outcomes.

    A pure function of ``(seed, trial_index)`` for a given model and
    context; repeated calls return the identical record.
    """
    validate_model(model)
    scenario = model.scenario
    if context not in scenario.contexts():
        raise SamplerError(
            f"model has no context ({context.alice},{context.bob})",
            code="BAD_PLAN",
        )
    (record,) = _sample(
        [_Arm(model, context)],
        [context],
        [_grid(scenario, context)],
        seed,
        range(trial_index, trial_index + 1),
        "fixed",
    )
    return record


def run_experiment(model: Model, plan: ExperimentPlan) -> ExperimentRun:
    """Sample ``plan.trials`` runs; the result is independent of execution order.

    Trial ``i`` depends only on ``(plan.seed, i)``, so parallel partitions of
    the index range merge (via ``EmpiricalBehavior.merge``) into exactly the
    serial result.
    """
    validate_model(model)
    scenario = model.scenario
    contexts = scenario.contexts()
    schedule = plan.schedule
    fixed = 0
    if schedule.kind == "fixed":
        if schedule.context not in contexts:
            raise SamplerError(
                f"fixed schedule names a context outside the scenario: "
                f"({schedule.context.alice},{schedule.context.bob})",
                code="BAD_PLAN",
            )
        fixed = contexts.index(schedule.context)
    grids = [_grid(scenario, ctx) for ctx in contexts]
    records = _sample(
        [_Arm(model, ctx) for ctx in contexts],
        contexts,
        grids,
        plan.seed,
        range(plan.trials),
        schedule.kind,
        fixed,
    )
    empirical = EmpiricalBehavior(
        scenario,
        {
            ctx: tuple(tuple(row) for row in grid)
            for ctx, grid in zip(contexts, grids)
            if any(v for row in grid for v in row)
        },
    )
    return ExperimentRun(empirical, tuple(records))


def empirical_deviation(empirical: EmpiricalBehavior, behavior: Behavior) -> Prob:
    """Largest entrywise gap between observed frequencies and exact probabilities.

    Every context of the scenario must have been sampled at least once.
    """
    if empirical.scenario != behavior.scenario:
        raise SamplerError(
            "empirical data and behavior use different scenarios",
            code="SCENARIO_MISMATCH",
        )
    deviation: Prob = Fraction(0)
    for ctx in behavior.scenario.contexts():
        freqs = empirical.frequencies(ctx)
        grid = behavior.table[ctx]
        for freq_row, prob_row in zip(freqs, grid):
            for f, p in zip(freq_row, prob_row):
                gap = abs(f - p)
                if gap > deviation:
                    deviation = gap
    return deviation


def trial_lines(scenario: Scenario, records: Iterable[TrialRecord]) -> Iterator[str]:
    """Line-oriented export: header, then one comma-separated record per line."""
    yield TRIAL_HEADER
    for r in records:
        yield (
            f"{r.index},{scenario.alice_settings[r.context.alice]},"
            f"{scenario.bob_settings[r.context.bob]},{r.cause_id},"
            f"{r.alice_outcome},{r.bob_outcome}"
        )


def write_trials(
    stream: IO[str], scenario: Scenario, records: Iterable[TrialRecord]
) -> None:
    for line in trial_lines(scenario, records):
        stream.write(line + "\n")

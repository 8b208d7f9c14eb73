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
for rational and float cumulative weights ``c`` alike.  Every call validates
its model, then reads only the model's checked per-context terms
``(cause_id, weight, alice_row, bob_row)`` (``models.Term``), kept on it.

A run samples its trials in one pass that stores a small integer per trial:
the index of its cell ``(context, cause, a, b)``.  The counts are read from
those codes at once; the :class:`TrialRecord` tuple is built from them only
when ``ExperimentRun.records`` is first read, so a caller that needs only
counts never builds a record.  Records are slotted and built there without a
per-record ``__init__``; ``write_trials`` writes the lines of ``trial_lines``
in blocks of whole lines, the same byte stream as one line per write.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import IO, Iterable, Iterator, Sequence

from .errors import SamplerError
from .models import Model, Term, _checked, validate_model
from .scenario import Behavior, Context, Prob, Scenario, SealedDict, printable

_MASK64 = (1 << 64) - 1
_K0 = 0x9E3779B97F4A7C15
_K1 = 0xD1B54A32D192ED03
_K2 = 0x8CB92BA72F3D8DD7
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

TRIAL_HEADER = "trial,alice_setting,bob_setting,cause,a,b"
# Lines per ``write`` call of ``write_trials``.
_WRITE_BLOCK = 1024


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


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One joint-measurement run: actualized cause and both outcomes."""

    index: int
    context: Context
    cause_id: str
    alice_outcome: int
    bob_outcome: int

    def __setstate__(self, state) -> None:
        # Pickles of this class before it had slots carry its ``__dict__``.
        if isinstance(state, dict):
            state = [state[f.name] for f in fields(self)]
        for f, value in zip(fields(self), state):
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class Schedule:
    """How contexts are assigned to trials."""

    kind: str  # "fixed" | "uniform" | "cycle"
    context: Context | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform", "cycle"):
            raise SamplerError(f"unknown schedule kind {printable(self.kind, repr)}", code="BAD_PLAN")
        if (self.kind == "fixed") != (self.context is not None):
            raise SamplerError(
                "fixed schedules carry a context; uniform/cycle do not",
                code="BAD_PLAN",
            )
        if self.context is not None and not isinstance(self.context, Context):
            raise SamplerError(f"not a Context: {printable(self.context, repr)}", code="BAD_PLAN")

    @staticmethod
    def fixed(context: Context) -> "Schedule":
        return Schedule("fixed", context)

    @staticmethod
    def uniform() -> "Schedule":
        return Schedule("uniform")

    @staticmethod
    def cycle() -> "Schedule":
        return Schedule("cycle")


def _integer(name: str, value: object) -> int:
    """``operator.index(value)``; ``BAD_PLAN`` naming ``name`` when it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        message = f"{name} must be an integer, not {printable(value, repr)}"
        raise SamplerError(message, code="BAD_PLAN") from None


@dataclass(frozen=True)
class ExperimentPlan:
    seed: int
    trials: int
    schedule: Schedule

    def __post_init__(self) -> None:
        for name in ("seed", "trials"):
            object.__setattr__(self, name, _integer(f"plan {name}", getattr(self, name)))
        if self.trials < 1:
            raise SamplerError("plan needs at least one trial", code="BAD_PLAN")


@dataclass(frozen=True)
class EmpiricalBehavior:
    """Outcome counts per context, with exact frequency tables on demand."""

    scenario: Scenario
    counts: dict[Context, tuple[tuple[int, ...], ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", SealedDict(self.counts))

    def total(self, context: Context) -> int:
        rows = self.counts.get(context)
        if rows is None:
            return 0
        return sum(v for row in rows for v in row)

    def frequencies(self, context: Context) -> tuple[tuple[Fraction, ...], ...]:
        total = self.total(context)
        if total == 0:
            raise SamplerError(
                f"context {context.index_text()} was never sampled", code="UNSAMPLED_CONTEXT"
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
            grids = [grid for grid in (self.counts.get(ctx), other.counts.get(ctx)) if grid is not None]
            if grids:  # each cell summed over the grids present
                merged[ctx] = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*grids))
        return EmpiricalBehavior(self.scenario, merged)


# One sampled outcome cell: (context, cause id, Alice's outcome, Bob's outcome).
_Cell = tuple[Context, str, int, int]


@dataclass(frozen=True, eq=False)
class ExperimentRun:
    """The counts of a run, and its trial records built on first access.

    The run keeps one cell code per trial (``_codes``, indices into
    ``_cells``); ``records`` turns them into :class:`TrialRecord` objects the
    first time it is read and caches the tuple.  Two runs are equal when
    their counts and records are.
    """

    empirical: EmpiricalBehavior
    _cells: list[_Cell] = field(repr=False)
    _codes: array = field(repr=False)

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        """Every trial's record in trial order, built on first access."""
        cells, codes = self._cells, self._codes
        # Each record is set through its slots, which skips the frozen
        # ``__init__`` and its five ``object.__setattr__`` calls.
        new = TrialRecord.__new__
        set_index, set_context, set_cause, set_a, set_b = (
            getattr(TrialRecord, f.name).__set__ for f in fields(TrialRecord)
        )

        def build() -> Iterator[TrialRecord]:
            for i, code in enumerate(codes):
                record = new(TrialRecord)
                context, cause_id, a, b = cells[code]
                set_index(record, i)
                set_context(record, context)
                set_cause(record, cause_id)
                set_a(record, a)
                set_b(record, b)
                yield record

        # From a generator, not a list: the tuple then grows alone, so building
        # it needs no second array of record pointers.
        return tuple(build())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentRun):
            return NotImplemented
        return self.empirical == other.empirical and self.records == other.records


def _arm(ctx: Context, terms: Sequence[Term], cells: list[_Cell]) -> tuple[list[int], list]:
    """Pre-pruned inverse-CDF tables for one context, from its checked terms.

    Returns the cause thresholds and, for the ``k``-th kept cause, a branch of
    Alice's outcome thresholds, the code of each of her outcomes' first cell,
    and Bob's outcome thresholds.  The cells ``(ctx, cause, a, b)`` of the
    kept outcomes are appended to ``cells`` Bob-fastest, so the code of a
    trial is its Alice base plus the position of Bob's outcome.
    """
    kept = [term for term in terms if term[1] != 0]
    branches = []
    for cause_id, _, a_row, b_row in kept:
        b_kept = [b for b, p in enumerate(b_row, start=1) if p != 0]
        bases = []
        for a, p in enumerate(a_row, start=1):
            if p != 0:
                bases.append(len(cells))
                cells.extend([(ctx, cause_id, a, b) for b in b_kept])
        branches.append(
            (_cuts([p for p in a_row if p != 0]), bases, _cuts([p for p in b_row if p != 0]))
        )
    return _cuts([weight for _, weight, _, _ in kept]), branches


def _cuts(weights: Iterable[Prob]) -> list[int]:
    """Integer inverse-CDF thresholds: the first one above a draw ``m`` picks.

    A cumulative weight ``c`` becomes ``ceil(c * 2**53)``, so for the 53-bit
    draw ``m`` the test ``m / 2**53 < c`` is exactly ``m < threshold``.  Weights
    accumulate in declaration order as the contract says: exactly while they
    are rational, and from the first float weight on as a float sum, which
    starts from the rational sum so far rounded to a float, as ``Fraction``
    addition does.  The running maximum keeps the list sorted without
    changing which entry is the first above ``m``, and the last threshold is
    raised to ``2**53``, above every draw, so the last entry takes whatever
    rounding leaves at the top.
    """
    cuts: list[int] = []
    top = 0
    num, den = 0, 1  # the exact running sum num/den, not reduced
    acc: float | None = None  # the float running sum, once a float weight came
    for weight in weights:
        if acc is None and not isinstance(weight, float):
            p, q = weight.numerator, weight.denominator
            if q == den:
                num += p
            else:
                g = math.gcd(den, q)
                num = num * (q // g) + p * (den // g)
                den = den // g * q
            cut = -((-num << 53) // den)
        else:
            acc = (num / den if acc is None else acc) + float(weight)
            cut = _threshold(acc)
        if cut > top:
            top = cut
        cuts.append(top)
    cuts[-1] = 1 << 53
    return cuts


def _threshold(value: Prob) -> int:
    """``ceil(value * 2**53)``, exact for rational and float ``value``."""
    if isinstance(value, float):
        # Scaling by a power of two is exact for every float below 2**970.
        return math.ceil(value * 9007199254740992.0)
    return -((-value.numerator << 53) // value.denominator)


# mix(draw ^ K2) for draw indices 0-3: the last key component of every word.
_DRAW_KEYS = tuple(_mix64(draw ^ _K2) for draw in range(4))


def _sample(
    terms: dict[Context, list[Term]],
    contexts: Sequence[Context],
    seed: int,
    indices: range,
    kind: str,
    fixed: int = 0,
) -> tuple[list[_Cell], array]:
    """The one sampling kernel: the cells of ``contexts`` and a cell code per trial.

    The context of trial ``i`` is ``contexts[fixed]`` under the fixed
    schedule, ``contexts[i % len(contexts)]`` under cycle and the draw-0
    pick under uniform.  Each word is ``keyed_word(seed, i, draw)`` with the
    fixed parts hoisted: ``mix(seed ^ K0)`` once per call, the trial key
    once per trial and ``mix(draw ^ K2)`` from ``_DRAW_KEYS``, so each draw
    is one ``mix``, written out inline.  Codes are stored in the narrowest
    array type that holds every cell index.
    """
    cells: list[_Cell] = []
    arms = [_arm(ctx, terms[ctx], cells) for ctx in contexts]
    typecode = next(t for t in "BHIQ" if len(cells) <= 256 ** array(t).itemsize)
    codes = array(typecode)
    append = codes.append
    n_ctx = len(contexts)
    uniform = kind == "uniform"
    cycle = kind == "cycle"
    mask, k1, c1, c2 = _MASK64, _K1, _C1, _C2
    d0, d1, d2, d3 = _DRAW_KEYS
    run_key = _mix64((seed & mask) ^ _K0)
    cause_cuts, branches = arms[fixed]
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
            cause_cuts, branches = arms[int(((x ^ (x >> 31)) >> 11) * 2.0**-53 * n_ctx)]
        elif cycle:
            cause_cuts, branches = arms[i % n_ctx]
        x = key ^ d1
        x = ((x ^ (x >> 30)) * c1) & mask
        x = ((x ^ (x >> 27)) * c2) & mask
        a_cuts, a_bases, b_cuts = branches[bisect_right(cause_cuts, (x ^ (x >> 31)) >> 11)]
        x = key ^ d2
        x = ((x ^ (x >> 30)) * c1) & mask
        x = ((x ^ (x >> 27)) * c2) & mask
        y = key ^ d3
        y = ((y ^ (y >> 30)) * c1) & mask
        y = ((y ^ (y >> 27)) * c2) & mask
        append(
            a_bases[bisect_right(a_cuts, (x ^ (x >> 31)) >> 11)]
            + bisect_right(b_cuts, (y ^ (y >> 31)) >> 11)
        )
    return cells, codes


def sample_trial(
    model: Model, context: Context, trial_index: int, seed: int
) -> TrialRecord:
    """Run one joint measurement: actualize a cause, then both outcomes.

    A pure function of ``(seed, trial_index)`` for a given model and
    context; repeated calls return the identical record.
    """
    validate_model(model)
    terms = _checked(model)._terms
    if not isinstance(context, Context):
        raise SamplerError(f"not a Context: {printable(context, repr)}", code="BAD_PLAN")
    if context not in model.scenario.contexts():
        raise SamplerError(f"model has no context {context.index_text()}", code="BAD_PLAN")
    trial_index, seed = _integer("trial_index", trial_index), _integer("seed", seed)
    cells, (code,) = _sample(
        terms, [context], seed, range(trial_index, trial_index + 1), "fixed"
    )
    return TrialRecord(trial_index, *cells[code])


def run_experiment(model: Model, plan: ExperimentPlan) -> ExperimentRun:
    """Sample ``plan.trials`` runs; the result is independent of execution order.

    Trial ``i`` depends only on ``(plan.seed, i)``, so parallel partitions of
    the index range merge (via ``EmpiricalBehavior.merge``) into exactly the
    serial result.
    """
    validate_model(model)
    terms = _checked(model)._terms
    scenario = model.scenario
    contexts = scenario.contexts()
    schedule = plan.schedule
    fixed = 0
    if schedule.kind == "fixed":
        if schedule.context not in contexts:
            raise SamplerError(
                f"fixed schedule names a context outside the scenario: {schedule.context.index_text()}",
                code="BAD_PLAN",
            )
        fixed = contexts.index(schedule.context)
    cells, codes = _sample(
        terms, contexts, plan.seed, range(plan.trials), schedule.kind, fixed
    )
    grids = {
        ctx: [
            [0] * scenario.bob_outcomes[ctx.bob]
            for _ in range(scenario.alice_outcomes[ctx.alice])
        ]
        for ctx in contexts
    }
    for code, n in Counter(codes).items():
        ctx, _, a, b = cells[code]
        grids[ctx][a - 1][b - 1] += n
    empirical = EmpiricalBehavior(
        scenario,
        {
            ctx: tuple(tuple(row) for row in grid)
            for ctx, grid in grids.items()
            if any(v for row in grid for v in row)
        },
    )
    return ExperimentRun(empirical, cells, codes)


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
    """Write ``trial_lines``, each ended by a newline, in blocks of whole lines."""
    lines = trial_lines(scenario, records)
    while block := list(islice(lines, _WRITE_BLOCK)):
        stream.write("\n".join(block) + "\n")

"""Measurement scenarios, contexts, and the joint-probability table algebra.

Probabilities are either exact :class:`fractions.Fraction` values or Python
floats; the runtime type of an entry is its representation tag.  Operations
on all-exact inputs stay exact (bit-identical results along any evaluation
path); arithmetic that mixes the two kinds promotes to float, with
normalization checked against ``FLOAT_ATOL``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Literal, Sequence, Union

from .errors import InvalidBehaviorError, MixtureError, ScenarioShapeError

Prob = Union[Fraction, float]
Party = Literal["alice", "bob"]

PARTIES: tuple[Party, Party] = ("alice", "bob")

#: Normalization slack accepted for floating-point tables.
FLOAT_ATOL = 1e-12

#: Largest integer view of a table, in entries times denominator bits.  A table past it (many
#: contexts with unrelated denominators) keeps the per-context Fraction paths and their cost.
_VIEW_BITS = 1 << 22


def is_exact(value: Prob) -> bool:
    """True when ``value`` participates in exact-rational arithmetic."""
    # A float is never one; testing it first skips ``Fraction``'s ABC instance check.
    return not isinstance(value, float) and isinstance(value, (Fraction, int))


_ONE = Fraction(1)


def exact_sum(values: Iterable[Prob]) -> Prob:
    """``Fraction(0) + v1 + v2 + ...`` in order, computed on integers.

    Exact values (ints and Fractions) are summed as one numerator over a
    common denominator, and one Fraction is built at the end.  The first
    other value continues the sum as ``Fraction`` addition does: a float
    starts a float sum from the rational sum so far rounded to a float.
    Values, types and raised errors equal those of the ``Fraction`` loop.
    """
    num, den = 0, 1  # the exact running sum num/den, not reduced
    values = iter(values)
    for value in values:
        # A float is tested first: it skips ``Fraction``'s ABC instance check.
        if not isinstance(value, float) and isinstance(value, (int, Fraction)):
            p, q = value.numerator, value.denominator
            if q == den:
                num += p
            else:
                g = math.gcd(den, q)
                num = num * (q // g) + p * (den // g)
                den = den // g * q
            continue
        # int / int rounds once, as ``float(Fraction(num, den))`` does.
        total = num / den + value if isinstance(value, float) else Fraction(num, den) + value
        for value in values:
            total = total + value
        return total
    return _ONE if num == den else Fraction(num, den)


def printable(value: object) -> str:
    """``str(value)``, or a stand-in when CPython refuses to print an integer in it.

    Integers longer than ``sys.get_int_max_str_digits()`` digits do not
    convert to text, and a sum of long exact literals can be one.  Such a
    rational is shown as ``<N-digit integer>/<M-digit integer>``, with its sign.
    """
    try:
        return str(value)
    except ValueError:
        if not isinstance(value, (int, Fraction)):
            return f"<{type(value).__name__} too long to print>"
        parts = [f"<{_digit_count(abs(value.numerator))}-digit integer>"]
        if value.denominator != 1:
            parts.append(f"<{_digit_count(value.denominator)}-digit integer>")
        return ("-" if value < 0 else "") + "/".join(parts)


def _digit_count(n: int) -> int:
    """Decimal digits of ``n >= 0``: 10**(k-1) <= n, and n has k or k + 1 digits."""
    k = int((n.bit_length() - 1) * math.log10(2)) + 1
    return k + (n >= 10**k)


def sums_to_one(total: Prob) -> bool:
    """The normalization rule: an exact total is 1, a float one within ``FLOAT_ATOL``.

    A NaN float total passes; callers that must reject it check first.
    """
    return not abs(total - 1) > FLOAT_ATOL if isinstance(total, float) else total == 1


class SealedDict(dict):
    """A read-only ``dict``: the type of every mapping field of a frozen dataclass.

    Every mutator raises ``TypeError``.  ``repr``, equality and ``isinstance(x,
    dict)`` are a plain dict's, and pickling or copying gives a sealed copy.
    """

    __slots__ = ()

    def _refuse(self, *args: object, **kwargs: object) -> None:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self) -> tuple:
        return type(self), (dict(self),)


def outcome_sign(index: int) -> int:
    """Signed value of a two-outcome measurement: index 1 is +1, index 2 is -1.

    Outcome indices are 1-based everywhere in this package.  Settings with
    more than two outcomes have no signed-value convention.
    """
    if index == 1:
        return 1
    if index == 2:
        return -1
    raise ScenarioShapeError(
        f"outcome index {index} has no signed value; only two-outcome "
        "settings map onto +1/-1",
        code="NON_BINARY_SETTING",
    )


@dataclass(frozen=True)
class Scenario:
    """Two-party measurement layout: setting labels and outcome counts.

    ``alice_outcomes[i]`` is the number of outcomes of Alice's ``i``-th
    setting (and likewise for Bob); every setting needs at least two.
    """

    alice_settings: tuple[str, ...]
    bob_settings: tuple[str, ...]
    alice_outcomes: tuple[int, ...]
    bob_outcomes: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("alice_settings", "bob_settings", "alice_outcomes", "bob_outcomes"):
            given = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(given))
            except TypeError:
                message = f"{name.replace('_', ' ')} must be iterable, not {type(given).__name__}"
                raise ScenarioShapeError(message, code="SCENARIO_SHAPE") from None
        for name in ("alice_outcomes", "bob_outcomes"):
            counts = []
            for count in getattr(self, name):
                try:
                    counts.append(operator.index(count))
                except TypeError:
                    message = f"outcome counts must be integers, not {count!r}"
                    raise ScenarioShapeError(message, code="SCENARIO_SHAPE") from None
            object.__setattr__(self, name, tuple(counts))
        for party in PARTIES:
            labels = self.settings(party)
            counts = self.outcome_counts(party)
            if not labels:
                raise ScenarioShapeError(
                    f"{party} needs at least one setting", code="SCENARIO_SHAPE"
                )
            if len(set(labels)) != len(labels):
                raise ScenarioShapeError(
                    f"duplicate setting label for {party}: {printable(labels)}",
                    code="SCENARIO_SHAPE",
                )
            if len(counts) != len(labels):
                raise ScenarioShapeError(
                    f"{party} has {len(labels)} settings but "
                    f"{len(counts)} outcome counts",
                    code="SCENARIO_SHAPE",
                )
            for count in counts:
                if count < 2:
                    raise ScenarioShapeError(
                        f"every {party} setting needs at least 2 outcomes, got {printable(count)}",
                        code="SCENARIO_SHAPE",
                    )
        # Built once; not a field, so equality, hashing and repr ignore it.
        contexts = [
            Context(x, y)
            for x in range(len(self.alice_settings))
            for y in range(len(self.bob_settings))
        ]
        object.__setattr__(self, "_contexts", tuple(contexts))

    @staticmethod
    def binary(
        alice_settings: Sequence[str], bob_settings: Sequence[str]
    ) -> "Scenario":
        """Scenario in which every setting has exactly two outcomes."""
        return Scenario(
            tuple(alice_settings),
            tuple(bob_settings),
            (2,) * len(alice_settings),
            (2,) * len(bob_settings),
        )

    def settings(self, party: Party) -> tuple[str, ...]:
        return self.alice_settings if party == "alice" else self.bob_settings

    def outcome_counts(self, party: Party) -> tuple[int, ...]:
        return self.alice_outcomes if party == "alice" else self.bob_outcomes

    def setting_index(self, party: Party, label: str) -> int:
        try:
            return self.settings(party).index(label)
        except ValueError:
            raise ScenarioShapeError(
                f"{party} has no setting {label!r}", code="SCENARIO_SHAPE"
            ) from None

    def contexts(self) -> tuple["Context", ...]:
        """All joint-setting pairs, ordered lexicographically by index."""
        return self._contexts

    def is_binary(self) -> bool:
        """Every setting of both parties has exactly two outcomes."""
        return set(self.alice_outcomes) == {2} and set(self.bob_outcomes) == {2}

    def is_two_by_two(self) -> bool:
        """Two settings per party, two outcomes everywhere."""
        return len(self.alice_settings) == 2 and len(self.bob_settings) == 2 and self.is_binary()


@dataclass(frozen=True, order=True)
class Context:
    """One joint measurement: a setting index for each party."""

    alice: int
    bob: int

    def label(self, scenario: Scenario) -> str:
        return (
            f"({scenario.alice_settings[self.alice]},"
            f"{scenario.bob_settings[self.bob]})"
        )


@dataclass(frozen=True)
class Behavior:
    """Joint outcome probabilities ``table[ctx][a-1][b-1]`` for every context.

    Instances are immutable; all operations return new objects.  A table holds two caches,
    each filled once: an exact one's integer view (``_int_view``), read by validation,
    expectations, CHSH, the residual and the membership test, and the fact that
    ``validate_behavior`` passed it with normalization, after which it is not checked again.
    A table made here fills both on first need.  The tables of ``exact_behavior`` and of the
    membership snap are made from their integers (``_from_integers``): they come with their
    view, and with their validity once an integer check of those integers has passed.
    """

    scenario: Scenario
    table: dict[Context, tuple[tuple[Prob, ...], ...]]

    # ``_view`` is the view or False (none); ``_validated`` is True once ``validate_behavior``
    # passed the table.  Not fields, so ``==``, repr and ``replace`` skip them; two threads may
    # set equal values, and the sealed table keeps both true.
    _view = None
    _validated = False

    def __post_init__(self) -> None:
        frozen = {ctx: tuple([tuple(row) for row in rows]) for ctx, rows in self.table.items()}
        object.__setattr__(self, "table", SealedDict(frozen))

    def prob(self, context: Context, a: int, b: int) -> Prob:
        """Entry for 1-based outcome indices ``a`` (Alice) and ``b`` (Bob)."""
        if a < 1 or b < 1:
            raise IndexError(f"outcome indices start at 1, got ({a}, {b})")
        return self.table[context][a - 1][b - 1]

    def entries(self) -> Iterator[tuple[Context, int, int, Prob]]:
        """All entries in canonical order: contexts lexicographic, (a, b) row-major."""
        for ctx in self.scenario.contexts():
            rows = self.table[ctx]
            for a, row in enumerate(rows, start=1):
                for b, value in enumerate(row, start=1):
                    yield ctx, a, b, value

    @classmethod
    def _from_integers(cls, scenario: Scenario, parts: dict[Context, tuple]) -> "Behavior":
        """The table of ``{ctx: (rows of integer numerators, den > 0)}``, built with its view.

        Each context's den is divided by ``gcd(den, *numerators)``.  The lcm of those is then
        the lcm of the entries' denominators, so the view is the one ``_int_view`` would build
        (``False`` past ``_VIEW_BITS``).  The table is marked valid when ``_check_integers``
        passes ``parts``; otherwise ``validate_behavior`` checks it in full.
        """
        count = sum([len(row) for rows, _ in parts.values() for row in rows])
        table, reduced, den = {}, [], 1
        for ctx, (rows, d) in parts.items():
            table[ctx] = tuple([tuple([Fraction(n, d) for n in row]) for row in rows])
            g = math.gcd(d, *[n for row in rows for n in row])
            reduced.append((ctx, rows, g, d // g))
            if den:
                den = math.lcm(den, d // g)
                if den.bit_length() * count > _VIEW_BITS:
                    den = 0  # no view
        behavior = cls(scenario, table)
        view = (den, {}) if den else False
        for ctx, rows, g, d in reduced if view else ():
            k = den // d
            view[1][ctx] = tuple([tuple([n // g * k for n in row]) for row in rows])
        object.__setattr__(behavior, "_view", view)
        if _check_integers(scenario, parts):
            object.__setattr__(behavior, "_validated", True)
        return behavior

    def _int_view(self) -> tuple[int, dict[Context, tuple[tuple[int, ...], ...]]] | None:
        """``(den, {ctx: rows of integer numerators over den})``, den the least common
        denominator of the entries; ``None`` if inexact or once ``den`` takes more than
        ``_VIEW_BITS`` bits over all the entries."""
        if self._view is None:
            values = [v for rows in self.table.values() for row in rows for v in row]
            view, den = self.exact, 1
            for q in {v.denominator for v in values} if view else ():
                den = math.lcm(den, q)
                if den.bit_length() * len(values) > _VIEW_BITS:
                    view = False
                    break
            object.__setattr__(self, "_view", view and (den, {
                ctx: tuple([tuple([v.numerator * (den // v.denominator) for v in row]) for row in rows])
                for ctx, rows in self.table.items()
            }))
        return self._view or None

    @property
    def exact(self) -> bool:
        """Every entry is an int or a Fraction: true once there is a view, else found by a scan
        that stops at the first other entry."""
        return bool(self._view) or all(is_exact(v) for rows in self.table.values() for row in rows for v in row)


@dataclass(frozen=True)
class Validation:
    """Outcome of a behavior check; ``code``/``context`` name the first violation."""

    ok: bool
    code: str | None = None
    context: Context | None = None
    message: str = ""


def validate_behavior(behavior: Behavior, *, normalized: bool = True) -> Validation:
    """Check finiteness, non-negativity, per-context normalization, and coverage.

    Exact tables must sum to 1 exactly; tables containing floats may deviate
    by at most ``FLOAT_ATOL``.  ``normalized=False`` skips the sum check
    (every other check still runs on every context).  The first violated
    invariant is reported.  A table that passes with ``normalized`` on is
    remembered as valid and returns at once from then on; a failing one is
    checked again on every call.
    """
    if behavior._validated:
        return Validation(True)
    result = _check_entries(behavior, normalized)
    if result.ok and normalized:
        object.__setattr__(behavior, "_validated", True)
    return result


def _check_integers(scenario: Scenario, parts: dict[Context, tuple]) -> bool:
    """Whether ``{ctx: (rows of integer numerators, den)}`` passes ``_check_entries``, seen on
    its integers alone: the scenario's contexts in its order, each of its shape, with
    numerators >= 0 that sum to its den."""
    if tuple(parts) != scenario.contexts():
        return False
    alice, bob = scenario.alice_outcomes, scenario.bob_outcomes
    for ctx, (rows, den) in parts.items():
        if [len(row) for row in rows] != [bob[ctx.bob]] * alice[ctx.alice]:
            return False
        numerators = [n for row in rows for n in row]
        if min(numerators) < 0 or sum(numerators) != den:
            return False
    return True


def _check_entries(behavior: Behavior, normalized: bool) -> Validation:
    """``validate_behavior``'s checks, run in full."""
    scenario = behavior.scenario
    view = behavior._int_view()
    known = set(scenario.contexts())
    for ctx in behavior.table:
        if ctx not in known:
            return Validation(
                False,
                "MISSING_CONTEXT",
                ctx,
                f"table mentions context ({ctx.alice},{ctx.bob}) outside the scenario",
            )
    for ctx in scenario.contexts():
        rows = behavior.table.get(ctx)
        if rows is None:
            return Validation(
                False, "MISSING_CONTEXT", ctx, f"no table for context {ctx.label(scenario)}"
            )
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        if len(rows) != na or any(len(row) != nb for row in rows):
            return Validation(
                False,
                "MISSING_CONTEXT",
                ctx,
                f"table for context {ctx.label(scenario)} is not {na}x{nb}",
            )
        values = [value for row in rows for value in row]
        checked = [n for row in view[1][ctx] for n in row] if view else values  # signs kept: den > 0
        for k, value in enumerate(checked):
            if not view and not is_exact(value) and not math.isfinite(value):
                code, problem = "NON_FINITE_ENTRY", "non-finite"
            elif value < 0:
                code, problem = "NEGATIVE_ENTRY", "negative"
            else:
                continue
            # Summing in entry order raises (a sum beyond float range meeting
            # a float) before a later entry is checked; keep that order.
            exact_sum(values[:k])
            return Validation(
                False,
                code,
                ctx,
                f"{problem} probability {printable(values[k])} in context {ctx.label(scenario)}",
            )
        total = Fraction(sum(checked), view[0]) if view else exact_sum(values)
        if normalized and not sums_to_one(total):
            within = "" if isinstance(total, Fraction) else f" within {FLOAT_ATOL}"
            return Validation(
                False,
                "UNNORMALIZED_CONTEXT",
                ctx,
                f"context {ctx.label(scenario)} sums to {printable(total)}, expected 1{within}",
            )
    return Validation(True)


def require_valid(behavior: Behavior) -> Behavior:
    """Return the behavior unchanged, raising on any invariant violation."""
    result = validate_behavior(behavior)
    if not result.ok:
        raise InvalidBehaviorError(result.message, code=result.code or "INTERNAL")
    return behavior


@dataclass(frozen=True)
class MarginalTable:
    """Single-party outcome distributions, one row per co-party setting.

    ``rows[(party, setting, co_setting)]`` is the outcome distribution of
    ``setting`` observed jointly with the other party's ``co_setting``.
    Setting-independence of these rows across co-settings is exactly the
    no-signaling condition.
    """

    scenario: Scenario
    rows: dict[tuple[Party, int, int], tuple[Prob, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", SealedDict(self.rows))

    def row(self, party: Party, setting: int, co_setting: int) -> tuple[Prob, ...]:
        return self.rows[(party, setting, co_setting)]


def marginals(behavior: Behavior) -> MarginalTable:
    """Marginal distributions of a valid behavior; exact on exact input."""
    require_valid(behavior)
    return MarginalTable(behavior.scenario, _marginal_rows(behavior.scenario, behavior.table, exact_sum))


def _marginal_rows(scenario: Scenario, grids: dict, add) -> dict[tuple[Party, int, int], tuple]:
    """Each context's row sums (Alice) and column sums (Bob), each summed by ``add``."""
    rows: dict[tuple[Party, int, int], tuple] = {}
    for ctx in scenario.contexts():
        grid = grids[ctx]
        rows[("alice", ctx.alice, ctx.bob)] = tuple([add(row) for row in grid])
        rows[("bob", ctx.bob, ctx.alice)] = tuple([add(column) for column in zip(*grid)])
    return rows


def expectation(behavior: Behavior, context: Context) -> Prob:
    """Signed correlation of one context: P(1,1)+P(2,2)-P(1,2)-P(2,1).

    Defined only when both settings of the context are two-outcome.
    """
    scenario = behavior.scenario
    if (
        scenario.alice_outcomes[context.alice] != 2
        or scenario.bob_outcomes[context.bob] != 2
    ):
        raise ScenarioShapeError(
            f"expectation needs two-outcome settings in context "
            f"{context.label(scenario)}",
            code="NON_BINARY_SETTING",
        )
    grid = behavior.table[context]
    if (view := behavior._int_view()) is None:
        return grid[0][0] + grid[1][1] - grid[0][1] - grid[1][0]
    rows = view[1][context]
    num = rows[0][0] + rows[1][1] - rows[0][1] - rows[1][0]
    ints = all([isinstance(v, int) for v in (grid[0][0], grid[1][1], grid[0][1], grid[1][0])])
    return num // view[0] if ints else Fraction(num, view[0])


def mix(components: Sequence[tuple[Prob, Behavior]]) -> Behavior:
    """Entrywise convex combination of behaviors over one scenario.

    Weights must be non-negative and sum to 1 (exactly when every weight is
    exact, within ``FLOAT_ATOL`` otherwise).
    """
    if not components:
        raise MixtureError("mixture needs at least one component", code="BAD_WEIGHTS")
    scenario = components[0][1].scenario
    weights = []
    for weight, behavior in components:
        if behavior.scenario != scenario:
            raise MixtureError(
                "all mixture components must share one scenario",
                code="SCENARIO_MISMATCH",
            )
        if weight < 0:
            raise MixtureError(f"negative weight {printable(weight)}", code="BAD_WEIGHTS")
        if weight != weight:
            raise MixtureError("weight is NaN", code="BAD_WEIGHTS")
        weights.append(Fraction(weight) if isinstance(weight, int) else weight)
    total = exact_sum(weights)
    if not sums_to_one(total):
        raise MixtureError(f"weights sum to {printable(total)}, expected 1", code="BAD_WEIGHTS")

    table: dict[Context, tuple[tuple[Prob, ...], ...]] = {}
    for ctx in scenario.contexts():
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        table[ctx] = tuple(
            tuple(
                exact_sum(
                    w * comp.table[ctx][a][b]
                    for w, (_, comp) in zip(weights, components)
                )
                for b in range(nb)
            )
            for a in range(na)
        )
    return Behavior(scenario, table)

"""CHSH functionals, marginal-law residuals, and local-polytope membership.

Membership is decided by exact-rational linear feasibility over the 16
deterministic strategies of a two-setting/two-outcome scenario; the answer
comes with either an explicit convex decomposition or a verified separating
functional, so both the positive and negative cases are checkable.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BellboxError,
    InvalidBehaviorError,
    MembershipError,
    MixtureError,
    ScenarioShapeError,
)
from .scenario import (
    Behavior,
    Context,
    Prob,
    Scenario,
    SealedDict,
    _marginal_rows,
    exact_sum,
    expectation,
    printable,
    require_valid,
    validate_behavior,
)

if TYPE_CHECKING:  # annotations only; the solver loads on the first membership test
    from .simplex import ConstraintMatrix

Arrangement = tuple[int, int, int, int]

#: Residual above which a floating behavior counts as signaling.
SIGNALING_ATOL = 1e-9

#: Floats entering the membership solver are snapped to rationals with
#: denominator at most this.
SNAP_DENOMINATOR = 10**6


def arrangement_str(arrangement: Sequence[int]) -> str:
    return "".join("+" if s > 0 else "-" for s in arrangement)


def chsh_arrangements() -> tuple[Arrangement, ...]:
    """The 8 admissible sign vectors: four signs with an odd number of minuses.

    Ordered by their ``+``/``-`` string, which puts the standard
    ``(+,+,+,-)`` combination first.
    """
    odd = [
        signs
        for signs in itertools.product((1, -1), repeat=4)
        if sum(1 for s in signs if s < 0) % 2 == 1
    ]
    return tuple(sorted(odd, key=arrangement_str))


_ARRANGEMENTS = chsh_arrangements()


def _require_two_by_two(scenario: Scenario) -> None:
    if not scenario.is_two_by_two():
        raise ScenarioShapeError(
            "CHSH analysis needs two settings per party with two outcomes each",
            code="SCENARIO_SHAPE",
        )


def chsh_value(behavior: Behavior, arrangement: Arrangement) -> Prob:
    """Signed sum of the four context expectations, contexts in lexicographic order."""
    _require_two_by_two(behavior.scenario)
    contexts = behavior.scenario.contexts()
    return exact_sum([sign * expectation(behavior, ctx) for sign, ctx in zip(arrangement, contexts)])


def chsh_max(behavior: Behavior) -> tuple[Prob, Arrangement]:
    """Maximum |CHSH| over the 8 arrangements, ties broken by sign-string order.

    Exact correlators are integer numerators over the view's denominator;
    otherwise each arrangement is summed from ``Fraction(0)`` in context
    order, as ``chsh_value`` does, so float results are the same bits.
    """
    _require_two_by_two(behavior.scenario)
    contexts, view = behavior.scenario.contexts(), behavior._int_view()
    if view:
        nums = [r[0][0] + r[1][1] - r[0][1] - r[1][0] for r in [view[1][ctx] for ctx in contexts]]
        values = [abs(sum([s * n for s, n in zip(arr, nums)])) for arr in _ARRANGEMENTS]
    else:
        correlators = [expectation(behavior, ctx) for ctx in contexts]
        values = [abs(exact_sum([s * e for s, e in zip(arr, correlators)])) for arr in _ARRANGEMENTS]
    best = 0
    for k, value in enumerate(values):
        if value > values[best]:
            best = k
    value = Fraction(values[best], view[0]) if view else values[best]
    return value, _ARRANGEMENTS[best]


def nosignaling_residual(behavior: Behavior) -> Prob:
    """Largest marginal shift any party can detect across co-party settings.

    Zero (exactly, for exact tables, whose marginals are summed in the
    view) iff the behavior satisfies the no-signaling conditions.  The
    behavior is validated first, which a valid table remembers.
    """
    require_valid(behavior)
    scenario, view = behavior.scenario, behavior._int_view()
    table = _marginal_rows(scenario, *((view[1], sum) if view else (behavior.table, exact_sum)))
    residual: Prob = 0
    for party, own_count, co_count in (
        ("alice", len(scenario.alice_settings), len(scenario.bob_settings)),
        ("bob", len(scenario.bob_settings), len(scenario.alice_settings)),
    ):
        for own in range(own_count):
            rows = [table[(party, own, co)] for co in range(co_count)]
            for values in zip(*rows):
                gap = max(values) - min(values)
                if gap > residual:
                    residual = gap
    return Fraction(residual, view[0]) if view else residual or Fraction(0)


# ---------------------------------------------------------------------------
# Deterministic strategies and the local polytope
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class DeterministicStrategy:
    """Fixed outcome (1-based) for every setting of each party."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def hits(self, ctx: Context, a: int, b: int) -> bool:
        return self.alice[ctx.alice] == a and self.bob[ctx.bob] == b


def enumerate_strategies(scenario: Scenario) -> tuple[DeterministicStrategy, ...]:
    """All deterministic strategies, in lexicographic order."""
    return _polytope(scenario.alice_outcomes, scenario.bob_outcomes)[0]


def strategy_behavior(scenario: Scenario, strategy: DeterministicStrategy) -> Behavior:
    """Point table of one deterministic strategy (a single entry 1 per context)."""
    alice_outcomes, bob_outcomes = scenario.alice_outcomes, scenario.bob_outcomes
    return Behavior(scenario, {
        ctx: [[Fraction(int(strategy.hits(ctx, a, b))) for b in range(1, bob_outcomes[ctx.bob] + 1)]
              for a in range(1, alice_outcomes[ctx.alice] + 1)]
        for ctx in scenario.contexts()
    })


@functools.lru_cache(maxsize=16)
def _polytope(alice_outcomes: tuple[int, ...], bob_outcomes: tuple[int, ...]) -> tuple:
    """Strategies and entry keys, both in lexicographic order, and per strategy the positions
    of the entries it hits, one per context; immutable, so callers share them.  None depends
    on setting labels, so they are built once per outcome-count shape."""
    strategies = [
        DeterministicStrategy(alice, bob)
        for alice in itertools.product(*[range(1, n + 1) for n in alice_outcomes])
        for bob in itertools.product(*[range(1, n + 1) for n in bob_outcomes])
    ]
    keys = [
        (Context(x, y), a, b)
        for x, na in enumerate(alice_outcomes)
        for y, nb in enumerate(bob_outcomes)
        for a in range(1, na + 1)
        for b in range(1, nb + 1)
    ]
    hits = [tuple([i for i, (ctx, a, b) in enumerate(keys) if s.hits(ctx, a, b)]) for s in strategies]
    return tuple(strategies), tuple(keys), tuple(hits)


@functools.lru_cache(maxsize=16)
def _membership_matrix(
    alice_outcomes: tuple[int, ...], bob_outcomes: tuple[int, ...]
) -> ConstraintMatrix:
    """The membership system's matrix, read once for the solver: the 0/1
    incidence rows of the strategies on the entries, then the all-ones
    weight row."""
    from .simplex import ConstraintMatrix

    _, keys, hits = _polytope(alice_outcomes, bob_outcomes)
    rows = [[int(i in hit) for hit in hits] for i in range(len(keys))]
    rows.append([1] * len(hits))
    return ConstraintMatrix(rows)


@dataclass(frozen=True)
class LocalDecomposition:
    """Convex combination of deterministic strategies reproducing a behavior."""

    scenario: Scenario
    weights: tuple[tuple[DeterministicStrategy, Fraction], ...]

    def to_behavior(self) -> Behavior:
        """The mixture: each entry is the total weight of the strategies hitting it.

        Weights must be non-negative and sum to 1, as for ``mix``.  Every
        entry is summed afresh, in strategy order, with ``exact_sum``.
        """
        weights = [w for _, w in self.weights]
        if any(w < 0 for w in weights):
            raise MixtureError(f"negative weight in {printable(weights)}", code="BAD_WEIGHTS")
        total = exact_sum(weights)
        if total != 1:
            raise MixtureError(
                f"weights sum to {printable(total)}, expected 1", code="BAD_WEIGHTS"
            )
        scenario = self.scenario
        hits: dict[Context, list[list[list[Prob]]]] = {
            ctx: [
                [[] for _ in range(scenario.bob_outcomes[ctx.bob])]
                for _ in range(scenario.alice_outcomes[ctx.alice])
            ]
            for ctx in scenario.contexts()
        }
        for strategy, weight in self.weights:
            for ctx, grid in hits.items():
                grid[strategy.alice[ctx.alice] - 1][strategy.bob[ctx.bob] - 1].append(weight)
        table = {ctx: tuple([tuple([exact_sum(c) for c in row]) for row in grid]) for ctx, grid in hits.items()}
        return Behavior(scenario, table)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Separating functional: its value on the behavior exceeds the local bound.

    ``coefficients`` assigns an integer-valued Fraction to every table entry;
    ``local_bound`` is the functional's maximum over all deterministic
    strategies, and ``behavior_value > local_bound`` witnesses that the
    behavior lies outside the local polytope.
    """

    scenario: Scenario
    coefficients: dict[tuple[Context, int, int], Fraction]
    behavior_value: Fraction
    local_bound: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", SealedDict(self.coefficients))

    def evaluate(self, behavior: Behavior) -> Prob:
        """Sum of coefficient times entry over the entries, in entry order."""
        pairs = [(self.coefficients.get((ctx, a, b), 0), v) for ctx, a, b, v in behavior.entries()]
        return exact_sum([c * v for c, v in pairs if c != 0])

    def strategy_bound(self) -> Fraction:
        """The functional's maximum over the deterministic strategies."""
        scenario = self.scenario
        strategies, entry_keys, _ = _polytope(scenario.alice_outcomes, scenario.bob_outcomes)
        known = set(entry_keys)
        for key in self.coefficients:
            if key not in known:
                raise ScenarioShapeError(
                    f"certificate coefficient for {printable(key)} is not an entry "
                    "of the scenario",
                    code="SCENARIO_SHAPE",
                )
        items = self.coefficients.items()
        return max(exact_sum([c for (ctx, a, b), c in items if s.hits(ctx, a, b)]) for s in strategies)

    def verify(self, behavior: Behavior) -> bool:
        """Recompute both sides from scratch against ``behavior``."""
        return (
            self.strategy_bound() == self.local_bound
            and self.evaluate(behavior) > self.local_bound
        )


@dataclass(frozen=True)
class MembershipResult:
    """Answer of the local-polytope test, with its exactly-solved instance.

    ``tested`` is the exact behavior the solver actually decided: the input
    itself when exact, otherwise its snapped-and-renormalized rational
    version (``snap_error`` bounds the entrywise distortion).
    """

    feasible: bool
    decomposition: LocalDecomposition | None
    certificate: InfeasibilityCertificate | None
    tested: Behavior
    snap_error: float


def _snap(value: Prob) -> tuple[int, int]:
    """``Fraction(value).limit_denominator(SNAP_DENOMINATOR)`` as ``(numerator, denominator)``:
    the same continued-fraction walk, on the integers of ``value.as_integer_ratio()``."""
    n0, d0 = value.as_integer_ratio()
    if d0 <= SNAP_DENOMINATOR:
        return n0, d0
    p0, q0, p1, q1, n, d = 0, 1, 1, 0, n0, d0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > SNAP_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (SNAP_DENOMINATOR - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    # The nearer of the two bounds p1/q1 and p/q; a tie goes to p1/q1.
    return (p1, q1) if abs(p1 * d0 - n0 * q1) * q <= abs(p * d0 - n0 * q) * q1 else (p, q)


def _snap_behavior(behavior: Behavior) -> tuple[Behavior, float]:
    """Exact-rational stand-in for a floating behavior.

    Float entries are snapped to denominators <=
    SNAP_DENOMINATOR (``_snap``) and each context renormalized exactly: its
    integer numerators over their total, from which the table is built
    with its view.  Contexts further than SIGNALING_ATOL from normalization
    are rejected.
    """
    scenario = behavior.scenario
    parts = {}
    snap_error = 0.0
    for ctx in scenario.contexts():
        rows = behavior.table[ctx]
        pairs = [[_snap(v) if isinstance(v, float) else v.as_integer_ratio() for v in row] for row in rows]
        den = math.lcm(*[q for row in pairs for _, q in row])
        nums = [[p * (den // q) for p, q in row] for row in pairs]
        total = sum([sum(row) for row in nums])
        if abs(total / den - 1.0) > SIGNALING_ATOL:
            raise MembershipError(
                f"context {ctx.label(scenario)} sums to {total / den!r}; "
                "normalize before membership testing",
                code="NUMERIC_INPUT_UNNORMALIZED",
            )
        for row, orig_row in zip(nums, rows):
            for n, orig in zip(row, orig_row):
                snap_error = max(snap_error, abs(n / total - float(orig)))
        parts[ctx] = nums, total
    return Behavior._from_integers(scenario, parts), snap_error


def local_membership(behavior: Behavior) -> MembershipResult:
    """Decide whether the behavior mixes from deterministic strategies.

    The feasibility system asks for weights w >= 0 over the 16 strategies
    with the strategy indicators reproducing every table entry and the
    weights summing to 1.  Solved in exact rational arithmetic; floating
    input is snapped first (see ``MembershipResult.tested``) and needs to be
    normalized only within the snap's tolerance.  A table validated before is
    not checked again.  The system solved has the right-hand side ``entries + [den]``: the
    tested table's integer view, or its entries over 1 when it has no view.  Scaling b by
    ``den > 0`` changes no ratio test, so the pivots and the certificate are those of the
    table's own values, and the solution is ``den`` times the weights.  Both proofs are checked
    on integers, entry by position: the solution over its lcm must be >= 0 and rebuild the
    entries, so the weights sum to 1; a certificate's value is read from the same entries and
    its bound is its largest sum over one strategy's hits.
    """
    from .simplex import solve_equality_feasibility

    _require_two_by_two(behavior.scenario)
    if behavior.exact:
        require_valid(behavior)
        tested, snap_error = behavior, 0.0
    else:
        # Floating input gets the membership tolerance, not the stricter
        # behavior invariant: every other check still runs on every context,
        # but normalization is enforced by the snap step below.
        result = validate_behavior(behavior, normalized=False)
        if not result.ok:
            raise InvalidBehaviorError(result.message, code=result.code or "INTERNAL")
        tested, snap_error = _snap_behavior(behavior)
    scenario = tested.scenario
    shape = (scenario.alice_outcomes, scenario.bob_outcomes)
    strategies, entry_keys, hits = _polytope(*shape)
    contexts, view = scenario.contexts(), tested._int_view()
    # The tested entries in entry order over den: the view's numerators, else the entries.
    grids, den = (view[1], view[0]) if view else (tested.table, 1)
    entries = [v for ctx in contexts for row in grids[ctx] for v in row]

    # The proof checks below guard the solver: they raise, never assert, so
    # an unproven verdict cannot escape under ``python -O`` either.
    outcome = solve_equality_feasibility(_membership_matrix(*shape), entries + [den])
    if outcome.solution is not None:
        support = [(s, w.as_integer_ratio(), hit) for s, w, hit in zip(strategies, outcome.solution, hits) if w]
        if not _mixes_to(support, entries):
            raise BellboxError(
                "local decomposition does not reproduce the tested behavior",
                code="INTERNAL",
            )
        # The weights are the solution over den.  A list, not a generator: tuple(generator)
        # allocates spare slots and shrinks, and the shrunk tuple later idles in a per-size free list.
        weights = tuple([(strategy, Fraction(p, q * den)) for strategy, (p, q), _ in support])
        return MembershipResult(True, LocalDecomposition(scenario, weights), None, tested, snap_error)

    if outcome.certificate is None:
        raise BellboxError("membership solver returned no certificate", code="INTERNAL")
    # Drop the weight-normalization row and rescale to an integer
    # functional; scaling by a positive constant preserves the separation.
    # Each c * lcm(denominators) / gcd(numerators) is an integer.
    coeffs = outcome.certificate[: len(entry_keys)]
    lcm = math.lcm(*[c.denominator for c in coeffs])
    gcd = math.gcd(*[c.numerator for c in coeffs]) or 1
    ints = [c.numerator * (lcm // c.denominator) // gcd for c in coeffs]
    # The functional's value over den, and its bound: the most it takes on one strategy's hits.
    value = sum([c * v for c, v in zip(ints, entries)])
    bound = max([sum([ints[i] for i in hit]) for hit in hits])
    if not value > bound * den:
        raise BellboxError(
            "separating functional does not separate the tested behavior",
            code="INTERNAL",
        )
    coefficients = {key: Fraction(c) for key, c in zip(entry_keys, ints) if c}
    certificate = InfeasibilityCertificate(scenario, coefficients, Fraction(value, den), Fraction(bound))
    return MembershipResult(False, None, certificate, tested, snap_error)


def _mixes_to(support: Sequence[tuple], entries: list) -> bool:
    """Whether the nonzero weights, ``(strategy, (p, q), hits)`` each, are >= 0 and mix their
    strategies into the entries (integers, or exact entries): each weight's numerator over
    the weights' lcm goes to the one entry per context that its strategy hits.  Every context
    of the entries sums to the same total, den, so weights that pass sum to den as well."""
    scale = math.lcm(*[q for _, (_, q), _ in support])
    mixed = [0] * len(entries)
    for _, (p, q), hit in support:
        n = p * (scale // q)
        if n < 0:
            return False
        for i in hit:
            mixed[i] += n
    return all([m == v * scale for m, v in zip(mixed, entries)])


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class Classification(enum.Enum):
    LOCAL = "LOCAL"
    NONLOCAL_NOSIGNALING = "NONLOCAL_NOSIGNALING"
    SIGNALING = "SIGNALING"


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the classifier computed about one behavior."""

    behavior: Behavior
    expectations: tuple[Prob, ...]
    chsh_max: Prob
    chsh_arrangement: Arrangement
    nosignaling_residual: Prob
    classification: Classification
    decomposition: LocalDecomposition | None
    certificate: InfeasibilityCertificate | None
    snap_error: float


def classify(behavior: Behavior) -> AnalysisReport:
    """Full analysis: expectations, CHSH maximum, residual, and class.

    A behavior is SIGNALING when its marginal residual is nonzero (above
    ``SIGNALING_ATOL`` for floating tables); otherwise LOCAL exactly when the
    membership test finds a decomposition, else NONLOCAL_NOSIGNALING.  The
    behavior is validated here, once: the residual and the membership test
    find it remembered as valid.
    """
    require_valid(behavior)
    _require_two_by_two(behavior.scenario)
    expectations = tuple(
        [expectation(behavior, ctx) for ctx in behavior.scenario.contexts()]
    )
    best, best_arrangement = chsh_max(behavior)
    residual = nosignaling_residual(behavior)
    # The residual is >= 0, so a truth test stands for ``> 0``; it costs no ABC instance check.
    signaling = bool(residual) and (behavior.exact or residual > SIGNALING_ATOL)
    if signaling:
        classification, proofs = Classification.SIGNALING, (None, None, 0.0)
    else:
        membership = local_membership(behavior)
        classification = (
            Classification.LOCAL if membership.feasible else Classification.NONLOCAL_NOSIGNALING
        )
        proofs = (membership.decomposition, membership.certificate, membership.snap_error)
    return AnalysisReport(
        behavior, expectations, best, best_arrangement, residual, classification, *proofs
    )

"""The exact layer as it stood before it moved to integer arithmetic.

Every function and method below is copied verbatim from ``bellbox`` as it
stood before its exact layer moved to integers: the ``Fraction`` sums of
``scenario._exact_sum``, ``validate_behavior``, ``marginals`` and ``mix``;
the model checks and both ``exact_behavior_*`` loops of ``models``; and
``chsh_value``, ``chsh_max``, ``nosignaling_residual``, the membership test
with its certificate builder, ``LocalDecomposition.to_behavior``,
``InfeasibilityCertificate.evaluate``/``strategy_bound``/``verify`` and
``classify`` of ``analysis``.  The two proof classes subclass the package's
ones so that only the copied methods differ.  Unchanged helpers (the simplex,
``expectation``, the strategy enumeration) are imported.  The module is the
oracle for the integer versions: outputs, types and errors must agree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import bellbox.analysis as _analysis
from bellbox.analysis import (
    SIGNALING_ATOL,
    SNAP_DENOMINATOR,
    AnalysisReport,
    Arrangement,
    Classification,
    MembershipResult,
    _require_two_by_two,
    chsh_arrangements,
    enumerate_strategies,
)
from bellbox.errors import (
    BellboxError,
    InvalidBehaviorError,
    MembershipError,
    MixtureError,
    ModelError,
)
from bellbox.models import ContextualModel, NonContextualModel, Model
from bellbox.scenario import (
    FLOAT_ATOL,
    Behavior,
    Context,
    MarginalTable,
    Party,
    Prob,
    Validation,
    expectation,
    is_exact,
)
from bellbox.simplex import solve_equality_feasibility

# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


def validate_behavior(behavior: Behavior, *, normalized: bool = True) -> Validation:
    """Check finiteness, non-negativity, per-context normalization, and coverage.

    Exact tables must sum to 1 exactly; tables containing floats may deviate
    by at most ``FLOAT_ATOL``.  ``normalized=False`` skips the sum check
    (every other check still runs on every context).  The first violated
    invariant is reported.
    """
    scenario = behavior.scenario
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
        label = ctx.label(scenario)
        if rows is None:
            return Validation(
                False, "MISSING_CONTEXT", ctx, f"no table for context {label}"
            )
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        if len(rows) != na or any(len(row) != nb for row in rows):
            return Validation(
                False,
                "MISSING_CONTEXT",
                ctx,
                f"table for context {label} is not {na}x{nb}",
            )
        total: Prob = Fraction(0)
        all_exact = True
        for row in rows:
            for value in row:
                exact = is_exact(value)
                if not exact and not math.isfinite(value):
                    return Validation(
                        False,
                        "NON_FINITE_ENTRY",
                        ctx,
                        f"non-finite probability {value} in context {label}",
                    )
                if value < 0:
                    return Validation(
                        False,
                        "NEGATIVE_ENTRY",
                        ctx,
                        f"negative probability {value} in context {label}",
                    )
                all_exact = all_exact and exact
                total = total + value
        if not normalized:
            continue
        if all_exact:
            if total != 1:
                return Validation(
                    False,
                    "UNNORMALIZED_CONTEXT",
                    ctx,
                    f"context {label} sums to {total}, expected 1",
                )
        elif abs(total - 1) > FLOAT_ATOL:
            return Validation(
                False,
                "UNNORMALIZED_CONTEXT",
                ctx,
                f"context {label} sums to {total!r}, expected 1 within {FLOAT_ATOL}",
            )
    return Validation(True)


def require_valid(behavior: Behavior) -> Behavior:
    """Return the behavior unchanged, raising on any invariant violation."""
    result = validate_behavior(behavior)
    if not result.ok:
        raise InvalidBehaviorError(result.message, code=result.code or "INTERNAL")
    return behavior


def marginals(behavior: Behavior) -> MarginalTable:
    """Marginal distributions of a valid behavior; exact on exact input."""
    require_valid(behavior)
    scenario = behavior.scenario
    rows: dict[tuple[Party, int, int], tuple[Prob, ...]] = {}
    for ctx in scenario.contexts():
        grid = behavior.table[ctx]
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        rows[("alice", ctx.alice, ctx.bob)] = tuple(
            _exact_sum(grid[a][b] for b in range(nb)) for a in range(na)
        )
        rows[("bob", ctx.bob, ctx.alice)] = tuple(
            _exact_sum(grid[a][b] for a in range(na)) for b in range(nb)
        )
    return MarginalTable(scenario, rows)


def _exact_sum(values: Iterable[Prob]) -> Prob:
    total: Prob = Fraction(0)
    for v in values:
        total = total + v
    return total


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
            raise MixtureError(f"negative weight {weight}", code="BAD_WEIGHTS")
        weights.append(Fraction(weight) if isinstance(weight, int) else weight)
    total = _exact_sum(weights)
    if all(is_exact(w) for w in weights):
        if total != 1:
            raise MixtureError(f"weights sum to {total}, expected 1", code="BAD_WEIGHTS")
    elif abs(total - 1) > FLOAT_ATOL:
        raise MixtureError(f"weights sum to {total!r}, expected 1", code="BAD_WEIGHTS")

    table: dict[Context, tuple[tuple[Prob, ...], ...]] = {}
    for ctx in scenario.contexts():
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        table[ctx] = tuple(
            tuple(
                _exact_sum(
                    w * comp.table[ctx][a][b]
                    for w, (_, comp) in zip(weights, components)
                )
                for b in range(nb)
            )
            for a in range(na)
        )
    return Behavior(scenario, table)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _check_causes(causes: Sequence[Cause], where: str) -> None:
    if not causes:
        raise ModelError(f"{where}: empty cause set", code="MODEL_INVALID")
    ids = [c.id for c in causes]
    if len(set(ids)) != len(ids):
        raise ModelError(f"{where}: duplicate cause ids {ids}", code="MODEL_INVALID")
    total: Prob = Fraction(0)
    for cause in causes:
        if cause.weight < 0:
            raise ModelError(
                f"{where}: negative weight for cause {cause.id!r}",
                code="MODEL_INVALID",
            )
        total = total + cause.weight
    if all(is_exact(c.weight) for c in causes):
        if total != 1:
            raise ModelError(
                f"{where}: cause weights sum to {total}, expected 1",
                code="MODEL_INVALID",
            )
    elif not math.isfinite(total):
        bad = [
            c.id
            for c in causes
            if not is_exact(c.weight) and not math.isfinite(c.weight)
        ]
        raise ModelError(
            f"{where}: non-finite weight for cause(s) {bad}", code="MODEL_INVALID"
        )
    elif abs(total - 1) > FLOAT_ATOL:
        raise ModelError(
            f"{where}: cause weights sum to {total!r}, expected 1",
            code="MODEL_INVALID",
        )


def _check_response_row(
    response: ResponseFunction,
    setting: int,
    cause_id: str,
    n_outcomes: int,
    where: str,
) -> None:
    row = response.outcome_probs(setting, cause_id)
    if len(row) != n_outcomes:
        raise ModelError(
            f"{where}: {response.party} row for setting {setting}, cause "
            f"{cause_id!r} has {len(row)} entries, expected {n_outcomes}",
            code="MODEL_INVALID",
        )
    total: Prob = Fraction(0)
    for value in row:
        if value < 0:
            raise ModelError(
                f"{where}: negative response probability for cause {cause_id!r}",
                code="MODEL_INVALID",
            )
        total = total + value
    if all(is_exact(v) for v in row):
        if total != 1:
            raise ModelError(
                f"{where}: {response.party} row for setting {setting}, cause "
                f"{cause_id!r} sums to {total}",
                code="MODEL_INVALID",
            )
    elif not math.isfinite(total):
        raise ModelError(
            f"{where}: {response.party} row for setting {setting}, cause "
            f"{cause_id!r} has a non-finite probability: {row!r}",
            code="MODEL_INVALID",
        )
    elif abs(total - 1) > FLOAT_ATOL:
        raise ModelError(
            f"{where}: {response.party} row for setting {setting}, cause "
            f"{cause_id!r} sums to {total!r}",
            code="MODEL_INVALID",
        )


def validate_noncontextual(model: NonContextualModel) -> NonContextualModel:
    """Raise ``ModelError`` unless the model is fully specified and normalized."""
    _check_causes(model.causes, "model")
    scenario = model.scenario
    for cause in model.causes:
        for x, n in enumerate(scenario.alice_outcomes):
            _check_response_row(model.alice_response, x, cause.id, n, "model")
        for y, n in enumerate(scenario.bob_outcomes):
            _check_response_row(model.bob_response, y, cause.id, n, "model")
    return model


def validate_contextual(model: ContextualModel) -> ContextualModel:
    """Raise ``ModelError`` unless every context block is complete and normalized."""
    scenario = model.scenario
    for ctx in scenario.contexts():
        block = model.blocks.get(ctx)
        where = f"context {ctx.label(scenario)}"
        if block is None:
            raise ModelError(f"missing block for {where}", code="MODEL_INVALID")
        _check_causes(block.causes, where)
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        for cause in block.causes:
            _check_response_row(block.alice_response, ctx.alice, cause.id, na, where)
            _check_response_row(block.bob_response, ctx.bob, cause.id, nb, where)
    for ctx in model.blocks:
        if ctx not in set(scenario.contexts()):
            raise ModelError(
                f"block for unknown context ({ctx.alice},{ctx.bob})",
                code="MODEL_INVALID",
            )
    return model


def validate_model(model: Model) -> Model:
    if isinstance(model, NonContextualModel):
        return validate_noncontextual(model)
    return validate_contextual(model)


def exact_behavior_noncontextual(model: NonContextualModel) -> Behavior:
    """Cause-weighted mixture of per-cause product tables; exact on exact input."""
    validate_noncontextual(model)
    scenario = model.scenario
    table: dict[Context, tuple[tuple[Prob, ...], ...]] = {}
    for ctx in scenario.contexts():
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        cells = [[Fraction(0) for _ in range(nb)] for _ in range(na)]
        for cause in model.causes:
            ra = model.alice_response.outcome_probs(ctx.alice, cause.id)
            rb = model.bob_response.outcome_probs(ctx.bob, cause.id)
            for a in range(na):
                if ra[a] == 0:
                    continue
                wa = cause.weight * ra[a]
                for b in range(nb):
                    cells[a][b] = cells[a][b] + wa * rb[b]
        table[ctx] = tuple(tuple(row) for row in cells)
    return Behavior(scenario, table)


def exact_behavior_contextual(model: ContextualModel) -> Behavior:
    """Per-context cause mixtures; each context uses its own cause set."""
    validate_contextual(model)
    scenario = model.scenario
    table: dict[Context, tuple[tuple[Prob, ...], ...]] = {}
    for ctx in scenario.contexts():
        block = model.blocks[ctx]
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        cells = [[Fraction(0) for _ in range(nb)] for _ in range(na)]
        for cause in block.causes:
            ra = block.alice_response.outcome_probs(ctx.alice, cause.id)
            rb = block.bob_response.outcome_probs(ctx.bob, cause.id)
            for a in range(na):
                if ra[a] == 0:
                    continue
                wa = cause.weight * ra[a]
                for b in range(nb):
                    cells[a][b] = cells[a][b] + wa * rb[b]
        table[ctx] = tuple(tuple(row) for row in cells)
    return Behavior(scenario, table)


def exact_behavior(model: Model) -> Behavior:
    """Dispatch to the right exact-behavior computation for the model family."""
    if isinstance(model, NonContextualModel):
        return exact_behavior_noncontextual(model)
    return exact_behavior_contextual(model)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def chsh_value(behavior: Behavior, arrangement: Arrangement) -> Prob:
    """Signed sum of the four context expectations, contexts in lexicographic order."""
    _require_two_by_two(behavior.scenario)
    contexts = behavior.scenario.contexts()
    total: Prob = Fraction(0)
    for sign, ctx in zip(arrangement, contexts):
        total = total + sign * expectation(behavior, ctx)
    return total


def chsh_max(behavior: Behavior) -> tuple[Prob, Arrangement]:
    """Maximum |CHSH| over the 8 arrangements, ties broken by sign-string order."""
    best: Prob | None = None
    best_arrangement: Arrangement | None = None
    for arrangement in chsh_arrangements():
        value = abs(chsh_value(behavior, arrangement))
        if best is None or value > best:
            best = value
            best_arrangement = arrangement
    assert best is not None and best_arrangement is not None
    return best, best_arrangement


def nosignaling_residual(behavior: Behavior) -> Prob:
    """Largest marginal shift any party can detect across co-party settings.

    Zero (exactly, for exact tables) iff the behavior satisfies the
    no-signaling conditions.
    """
    table = marginals(behavior)
    scenario = behavior.scenario
    residual: Prob = Fraction(0)
    for party, own_count, co_count in (
        ("alice", len(scenario.alice_settings), len(scenario.bob_settings)),
        ("bob", len(scenario.bob_settings), len(scenario.alice_settings)),
    ):
        for own in range(own_count):
            rows = [table.row(party, own, co) for co in range(co_count)]
            for outcome in range(len(rows[0])):
                values = [row[outcome] for row in rows]
                gap = max(values) - min(values)
                if gap > residual:
                    residual = gap
    return residual


class LocalDecomposition(_analysis.LocalDecomposition):
    def to_behavior(self) -> Behavior:
        """The mixture: each entry is the total weight of the strategies hitting it.

        Weights must be non-negative and sum to 1, as for ``mix``.
        """
        weights = [w for _, w in self.weights]
        if any(w < 0 for w in weights):
            raise MixtureError(f"negative weight in {weights}", code="BAD_WEIGHTS")
        total = sum(weights, Fraction(0))
        if total != 1:
            raise MixtureError(f"weights sum to {total}, expected 1", code="BAD_WEIGHTS")
        scenario = self.scenario
        contexts = scenario.contexts()
        grids = {
            ctx: [
                [Fraction(0)] * scenario.bob_outcomes[ctx.bob]
                for _ in range(scenario.alice_outcomes[ctx.alice])
            ]
            for ctx in contexts
        }
        for strategy, weight in self.weights:
            for ctx in contexts:
                grid = grids[ctx]
                a = strategy.alice[ctx.alice] - 1
                b = strategy.bob[ctx.bob] - 1
                grid[a][b] += weight
        return Behavior(scenario, {ctx: tuple(map(tuple, g)) for ctx, g in grids.items()})


class InfeasibilityCertificate(_analysis.InfeasibilityCertificate):
    def evaluate(self, behavior: Behavior) -> Prob:
        total: Prob = Fraction(0)
        for ctx, a, b, value in behavior.entries():
            coeff = self.coefficients.get((ctx, a, b), Fraction(0))
            if coeff != 0:
                total = total + coeff * value
        return total

    def strategy_bound(self) -> Fraction:
        best: Fraction | None = None
        for strategy in enumerate_strategies(self.scenario):
            value = Fraction(0)
            for (ctx, a, b), coeff in self.coefficients.items():
                if strategy.hits(ctx, a, b):
                    value += coeff
            if best is None or value > best:
                best = value
        assert best is not None
        return best

    def verify(self, behavior: Behavior) -> bool:
        """Recompute both sides from scratch against ``behavior``."""
        return (
            self.strategy_bound() == self.local_bound
            and self.evaluate(behavior) > self.local_bound
        )


def _snap_behavior(behavior: Behavior) -> tuple[Behavior, float]:
    """Exact-rational stand-in for a floating behavior.

    Entries are snapped to denominators <= SNAP_DENOMINATOR and each context
    renormalized exactly; contexts further than SIGNALING_ATOL from
    normalization are rejected.
    """
    scenario = behavior.scenario
    table = {}
    snap_error = 0.0
    for ctx in scenario.contexts():
        rows = [
            [
                v if isinstance(v, Fraction) else Fraction(v).limit_denominator(SNAP_DENOMINATOR)
                for v in row
            ]
            for row in behavior.table[ctx]
        ]
        total = sum(v for row in rows for v in row)
        if abs(float(total) - 1.0) > SIGNALING_ATOL:
            raise MembershipError(
                f"context {ctx.label(scenario)} sums to {float(total)!r}; "
                "normalize before membership testing",
                code="NUMERIC_INPUT_UNNORMALIZED",
            )
        normalized = [[v / total for v in row] for row in rows]
        for row, orig_row in zip(normalized, behavior.table[ctx]):
            for v, orig in zip(row, orig_row):
                snap_error = max(snap_error, abs(float(v) - float(orig)))
        table[ctx] = tuple(tuple(row) for row in normalized)
    return Behavior(scenario, table), snap_error


def local_membership(behavior: Behavior) -> MembershipResult:
    """Decide whether the behavior mixes from deterministic strategies.

    The feasibility system asks for weights w >= 0 over the 16 strategies
    with the strategy indicators reproducing every table entry and the
    weights summing to 1.  Solved in exact rational arithmetic; floating
    input is snapped first (see ``MembershipResult.tested``).
    """
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
    strategies = enumerate_strategies(scenario)
    entry_keys = [(ctx, a, b) for ctx, a, b, _ in tested.entries()]

    matrix = [[int(s.hits(ctx, a, b)) for s in strategies] for ctx, a, b in entry_keys]
    rhs = [Fraction(tested.prob(ctx, a, b)) for ctx, a, b in entry_keys]
    matrix.append([1] * len(strategies))
    rhs.append(Fraction(1))

    # The proof checks below guard the solver: they raise, never assert, so
    # an unproven verdict cannot escape under ``python -O`` either.
    outcome = solve_equality_feasibility(matrix, rhs)
    if outcome.solution is not None:
        # A list, not a generator: tuple(generator) allocates spare slots and
        # shrinks, and the shrunk tuple later idles in a per-size free list.
        weights = tuple(
            [
                (strategy, weight)
                for strategy, weight in zip(strategies, outcome.solution)
                if weight != 0
            ]
        )
        decomposition = LocalDecomposition(scenario, weights)
        try:
            reproduced = decomposition.to_behavior() == tested
        except MixtureError:
            reproduced = False
        if not reproduced:
            raise BellboxError(
                "local decomposition does not reproduce the tested behavior",
                code="INTERNAL",
            )
        return MembershipResult(True, decomposition, None, tested, snap_error)

    if outcome.certificate is None:
        raise BellboxError("membership solver returned no certificate", code="INTERNAL")
    certificate = _build_certificate(tested, entry_keys, outcome.certificate)
    if not certificate.verify(tested):
        raise BellboxError(
            "separating functional does not separate the tested behavior",
            code="INTERNAL",
        )
    return MembershipResult(False, None, certificate, tested, snap_error)


def _build_certificate(
    tested: Behavior,
    entry_keys: list[tuple[Context, int, int]],
    farkas: tuple[Fraction, ...],
) -> InfeasibilityCertificate:
    # Drop the weight-normalization row and rescale to an integer
    # functional; scaling by a positive constant preserves the separation.
    coeffs = list(farkas[: len(entry_keys)])
    denominators = [c.denominator for c in coeffs if c != 0]
    numerators = [abs(c.numerator) for c in coeffs if c != 0]
    if numerators:
        scale = Fraction(math.lcm(*denominators), math.gcd(*numerators))
        coeffs = [c * scale for c in coeffs]
    coefficients = {
        key: coeff for key, coeff in zip(entry_keys, coeffs) if coeff != 0
    }
    certificate = InfeasibilityCertificate(
        tested.scenario,
        coefficients,
        behavior_value=Fraction(0),
        local_bound=Fraction(0),
    )
    value = certificate.evaluate(tested)
    assert isinstance(value, Fraction)
    bound = certificate.strategy_bound()
    return InfeasibilityCertificate(tested.scenario, coefficients, value, bound)


def classify(behavior: Behavior) -> AnalysisReport:
    """Full analysis: expectations, CHSH maximum, residual, and class.

    A behavior is SIGNALING when its marginal residual is nonzero (above
    ``SIGNALING_ATOL`` for floating tables); otherwise LOCAL exactly when the
    membership test finds a decomposition, else NONLOCAL_NOSIGNALING.
    """
    require_valid(behavior)
    _require_two_by_two(behavior.scenario)
    expectations = tuple(
        expectation(behavior, ctx) for ctx in behavior.scenario.contexts()
    )
    best, best_arrangement = chsh_max(behavior)
    residual = nosignaling_residual(behavior)
    signaling = residual > 0 if behavior.exact else residual > SIGNALING_ATOL
    if signaling:
        return AnalysisReport(
            behavior,
            expectations,
            best,
            best_arrangement,
            residual,
            Classification.SIGNALING,
            None,
            None,
            0.0,
        )
    membership = local_membership(behavior)
    classification = (
        Classification.LOCAL if membership.feasible else Classification.NONLOCAL_NOSIGNALING
    )
    return AnalysisReport(
        behavior,
        expectations,
        best,
        best_arrangement,
        residual,
        classification,
        membership.decomposition,
        membership.certificate,
        membership.snap_error,
    )

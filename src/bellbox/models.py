"""Common-cause models and the canonical instances shipped with the package.

Two families are supported:

* :class:`NonContextualModel`: one weighted set of hidden causes shared by
  every context, fixed before the parties choose their settings.  Each party
  answers through a response function of (setting, cause) alone, so the joint
  table is a cause-weighted mixture of product tables.  Behaviors of this
  form always satisfy the CHSH bound of 2 and the no-signaling conditions.
* :class:`ContextualModel`: every context carries its own weighted cause
  set, actualized by the joint measurement itself.  Such models can reach
  the algebraic CHSH maximum of 4 and may or may not respect no-signaling.

The families differ only in one function, ``_cause_sets``, and in the
parser's ``context`` line.  Validation, the lowering of a model to
per-context :data:`Term` lists and the serializer walk it; the exact table
and the sampler read only the terms, which a model keeps once checked.

The canonical instances model a subject carrying two pocket handkerchiefs
that always share one color (pink half the time) and a pair of socks of
which exactly one is pink.  Alice questions the left side of the subject,
Bob the right.  The three share one wardrobe and one question table per
question kind (``_MATCH``, ``_COLOR``) and differ only in when the causes
are fixed: :func:`socks_on` fixes them before any question is asked, while
:func:`socks_off` and :func:`socks_color` let each context's joint question
actualize its own (``_ACTUALIZED``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .errors import ModelError
from .scenario import (
    Behavior,
    Context,
    Party,
    Prob,
    Scenario,
    SealedDict,
    exact_sum,
    is_exact,
    printable,
    sums_to_one,
)

Model = Union["NonContextualModel", "ContextualModel"]


@dataclass(frozen=True)
class Cause:
    """One hidden state with its probability weight."""

    id: str
    weight: Prob


@dataclass(frozen=True)
class ResponseFunction:
    """One party's outcome distributions, keyed by (setting index, cause id)."""

    party: Party
    table: dict[tuple[int, str], tuple[Prob, ...]]

    def __post_init__(self) -> None:
        frozen = {key: tuple(row) for key, row in self.table.items()}
        object.__setattr__(self, "table", SealedDict(frozen))

    def outcome_probs(self, setting: int, cause_id: str) -> tuple[Prob, ...]:
        try:
            return self.table[(setting, cause_id)]
        except KeyError:
            raise ModelError(
                f"{self.party} response undefined for setting {setting}, "
                f"cause {cause_id!r}",
                code="MODEL_INVALID",
            ) from None


def deterministic_row(n_outcomes: int, outcome: int) -> tuple[Fraction, ...]:
    """Distribution putting all mass on one 1-based outcome index."""
    if not 1 <= outcome <= n_outcomes:
        raise ModelError(
            f"outcome {outcome} out of range 1..{n_outcomes}", code="MODEL_INVALID"
        )
    return tuple(
        Fraction(1) if i == outcome else Fraction(0)
        for i in range(1, n_outcomes + 1)
    )


@dataclass(frozen=True)
class NonContextualModel:
    """One cause set shared by all contexts, with per-party responses."""

    scenario: Scenario
    causes: tuple[Cause, ...]
    alice_response: ResponseFunction
    bob_response: ResponseFunction

    # context -> its checked ``Term``s, set once (``_checked``).  Not a field, so
    # equality, repr and ``dataclasses.replace`` leave it out.
    _terms = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "causes", tuple(self.causes))

    def cause(self, cause_id: str) -> Cause:
        for cause in self.causes:
            if cause.id == cause_id:
                return cause
        raise ModelError(f"no cause {cause_id!r} in model", code="UNKNOWN_CAUSE")


@dataclass(frozen=True)
class ContextBlock:
    """Cause set and responses private to one context."""

    causes: tuple[Cause, ...]
    alice_response: ResponseFunction
    bob_response: ResponseFunction

    def __post_init__(self) -> None:
        object.__setattr__(self, "causes", tuple(self.causes))


@dataclass(frozen=True)
class ContextualModel:
    """A separate weighted cause set per context."""

    scenario: Scenario
    blocks: dict[Context, ContextBlock]

    _terms = None  # as on NonContextualModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", SealedDict(self.blocks))


def _distribution_fault(values: Sequence[Prob]) -> tuple[str, Prob] | None:
    """The first rule ``values`` break as a distribution, with its detail, or ``None``.

    ``("negative", k)`` names the first negative entry, ``("non-finite", total)``
    an infinite or NaN total and ``("sum", total)`` a total that is not 1.
    """
    for k, value in enumerate(values):
        if value < 0:
            # Summing in order raises first where an earlier entry would.
            exact_sum(values[:k])
            return "negative", k
    total = exact_sum(values)
    if not isinstance(total, Fraction) and not math.isfinite(total):
        return "non-finite", total
    if not sums_to_one(total):
        return "sum", total
    return None


def _check_causes(causes: Sequence[Cause], where: str) -> None:
    if not causes:
        raise ModelError(f"{where}: empty cause set", code="MODEL_INVALID")
    ids = [c.id for c in causes]
    if len(set(ids)) != len(ids):
        raise ModelError(f"{where}: duplicate cause ids {ids}", code="MODEL_INVALID")
    fault = _distribution_fault([c.weight for c in causes])
    if fault is None:
        return
    rule, detail = fault
    if rule == "negative":
        message = f"negative weight for cause {causes[detail].id!r}"
    elif rule == "non-finite":
        bad = [
            c.id
            for c in causes
            if not is_exact(c.weight) and not math.isfinite(c.weight)
        ]
        message = f"non-finite weight for cause(s) {bad}"
    else:
        message = f"cause weights sum to {printable(detail)}, expected 1"
    raise ModelError(f"{where}: {message}", code="MODEL_INVALID")


def _check_response_row(
    response: ResponseFunction,
    setting: int,
    cause_id: str,
    n_outcomes: int,
    where: str,
) -> None:
    row = response.outcome_probs(setting, cause_id)
    fault = ("entries", len(row)) if len(row) != n_outcomes else _distribution_fault(row)
    if fault is None:
        return
    rule, detail = fault
    head = f"{where}: {response.party} row for setting {setting}, cause {cause_id!r}"
    if rule == "entries":
        message = f"{head} has {detail} entries, expected {n_outcomes}"
    elif rule == "negative":
        message = f"{where}: negative response probability for cause {cause_id!r}"
    elif rule == "non-finite":
        message = f"{head} has a non-finite probability: {printable(row)}"
    else:
        message = f"{head} sums to {printable(detail)}"
    raise ModelError(message, code="MODEL_INVALID")


def _answered_settings(scenario: Scenario, ctx: Context | None) -> tuple[tuple[int, ...], ...]:
    """Alice's and Bob's settings a cause answers: all of them when ``ctx`` is ``None``."""
    if ctx is None:
        return tuple(range(len(scenario.alice_settings))), tuple(range(len(scenario.bob_settings)))
    return (ctx.alice,), (ctx.bob,)


def _cause_sets(model: Model) -> Iterator[tuple]:
    """``(where, ctx, group, alice_settings, bob_settings)`` per cause set, in check order.

    The two families differ only here and in the parser's ``context`` line.
    A noncontextual model is one set, shared by every context (``ctx`` is
    ``None``).  A contextual model has one per context, in scenario order:
    ``group`` is the context's block.  A missing block raises
    ``MODEL_INVALID`` when its context is reached, and a block for any other
    key once the last context's block has been yielded.
    """
    scenario = model.scenario
    if isinstance(model, NonContextualModel):
        yield ("model", None, model, *_answered_settings(scenario, None))
        return
    contexts = scenario.contexts()
    for ctx in contexts:
        where = f"context {ctx.label(scenario)}"
        block = model.blocks.get(ctx)
        if block is None:
            raise ModelError(f"missing block for {where}", code="MODEL_INVALID")
        yield (where, ctx, block, *_answered_settings(scenario, ctx))
    if len(model.blocks) > len(contexts):  # every context has its block: the rest are unknown
        known = set(contexts)
        key = next(key for key in model.blocks if key not in known)
        shown = f"({key.alice},{key.bob})" if isinstance(key, Context) else repr(key)
        raise ModelError(f"block for unknown context {shown}", code="MODEL_INVALID")


def validate_model(model: Model) -> Model:
    """Raise ``ModelError`` unless every cause set is complete and normalized."""
    scenario = model.scenario
    for where, _, group, xs, ys in _cause_sets(model):
        _check_causes(group.causes, where)
        for cause in group.causes:
            for x in xs:
                _check_response_row(
                    group.alice_response, x, cause.id, scenario.alice_outcomes[x], where
                )
            for y in ys:
                _check_response_row(
                    group.bob_response, y, cause.id, scenario.bob_outcomes[y], where
                )
    return model


def _product_grid(
    alice_row: tuple[Prob, ...], bob_row: tuple[Prob, ...]
) -> tuple[tuple[Prob, ...], ...]:
    return tuple(tuple(pa * pb for pb in bob_row) for pa in alice_row)


def exact_behavior(model: Model) -> Behavior:
    """Validate a model of either family, once (``_checked``), and compute its joint table.

    Entry ``(a, b)`` of a context is the sum over its causes of
    ``weight * alice_row[a] * bob_row[b]``.  Exact contexts are summed on
    integers over one common denominator and give the same Fractions as
    ``Fraction`` arithmetic; contexts with a float add the products in cause
    order from ``Fraction(0)``, skipping Alice's zero entries.
    """
    if model._terms is None:
        _checked(validate_model(model))
    return _mixture_table(model.scenario, model._terms)


def _checked(model: Model) -> Model:
    """A model known to be valid, given its terms once so that it is not validated again."""
    if model._terms is None:
        # Two threads may both set them; the terms are equal, so either one stands.
        object.__setattr__(model, "_terms", _model_terms(model))
    return model


#: One cause acting in one context: ``(cause_id, weight, alice_row, bob_row)``.
Term = tuple[str, Prob, tuple[Prob, ...], tuple[Prob, ...]]


def _model_terms(model: Model) -> dict[Context, list[Term]]:
    """The terms of every context of a model, causes in model order."""
    contexts = model.scenario.contexts()
    terms: dict[Context, list[Term]] = {}
    for _, shared, group, _, _ in _cause_sets(model):
        alice, bob = group.alice_response, group.bob_response
        for ctx in contexts if shared is None else (shared,):
            x, y = ctx.alice, ctx.bob
            terms[ctx] = [
                (c.id, c.weight, alice.outcome_probs(x, c.id), bob.outcome_probs(y, c.id))
                for c in group.causes
            ]
    return terms


def _mixture_table(scenario: Scenario, by_context: dict[Context, Sequence[Term]]) -> Behavior:
    """The joint table of per-context terms known to be valid: built from its integers, with
    its view, when every context is exact."""
    grids = {}
    for ctx in scenario.contexts():
        terms, shape = by_context[ctx], (scenario.alice_outcomes[ctx.alice], scenario.bob_outcomes[ctx.bob])
        exact = all([isinstance(v, (int, Fraction)) for _, w, ra, rb in terms for v in (w, *ra, *rb)])
        grids[ctx] = _exact_grid(terms, *shape) if exact else (_float_grid(terms, *shape), None)
    if all([den for _, den in grids.values()]):
        return Behavior._from_integers(scenario, grids)
    return Behavior(scenario, {
        ctx: cells if den is None else [[Fraction(n, den) for n in row] for row in cells]
        for ctx, (cells, den) in grids.items()
    })


def _exact_grid(terms: Sequence[Term], na: int, nb: int) -> tuple[list[list[int]], int]:
    # Integer numerators over one den: weights, Alice entries and Bob entries each over
    # their own lcm, so every product is an integer over den, their product.
    ratio = [(w.as_integer_ratio(), [v.as_integer_ratio() for v in ra], [v.as_integer_ratio() for v in rb])
             for _, w, ra, rb in terms]
    lw = math.lcm(*[q for (_, q), _, _ in ratio])
    la = math.lcm(*[q for _, ra, _ in ratio for _, q in ra])
    lb = math.lcm(*[q for _, _, rb in ratio for _, q in rb])
    cells = [[0] * nb for _ in range(na)]
    for (wp, wq), ra, rb in ratio:
        wn = wp * (lw // wq)
        bn = [p * (lb // q) for p, q in rb]
        for a, (p, q) in enumerate(ra):
            if p:
                wa = wn * p * (la // q)
                row = cells[a]
                for b, pb in enumerate(bn):
                    row[b] += wa * pb
    return cells, lw * la * lb


def _float_grid(terms: Sequence[Term], na: int, nb: int) -> tuple[tuple[Prob, ...], ...]:
    cells: list[list[Prob]] = [[Fraction(0) for _ in range(nb)] for _ in range(na)]
    for _, w, ra, rb in terms:
        for a in range(na):
            if ra[a] == 0:
                continue
            wa = w * ra[a]
            for b in range(nb):
                cells[a][b] = cells[a][b] + wa * rb[b]
    return tuple(tuple(row) for row in cells)


def condition_on_cause(model: NonContextualModel, cause_id: str) -> Behavior:
    """Behavior with one cause held fixed: a product table in every context."""
    if not isinstance(model, NonContextualModel):
        raise ModelError("conditioning needs a noncontextual model", code="MODEL_INVALID")
    validate_model(model)
    model.cause(cause_id)
    scenario = model.scenario
    table = {
        ctx: _product_grid(
            model.alice_response.outcome_probs(ctx.alice, cause_id),
            model.bob_response.outcome_probs(ctx.bob, cause_id),
        )
        for ctx in scenario.contexts()
    }
    return Behavior(scenario, table)


# ---------------------------------------------------------------------------
# Canonical instances
# ---------------------------------------------------------------------------

# A hidden state is (cause id, handkerchief pink?, pink sock on left foot?).
_WARDROBE = (
    ("lambda1", True, True),
    ("lambda2", True, False),
    ("lambda3", False, False),
    ("lambda4", False, True),
)

# Per party, each setting's question as a predicate of a state's two facts; yes is
# outcome 1.  The first setting asks whether that side's handkerchief is pink.
_MATCH = (  # A', B': do that side's handkerchief and sock match (both pink or neither)?
    {"A": lambda pink, left: pink, "A'": lambda pink, left: pink == left},
    {"B": lambda pink, left: pink, "B'": lambda pink, left: pink != left},
)
_COLOR = (  # A'', B'': is that side's sock pink?
    {"A": lambda pink, left: pink, "A''": lambda pink, left: left},
    {"B": lambda pink, left: pink, "B''": lambda pink, left: not left},
)

# The causes each context's joint question actualizes, when the socks start in a
# briefcase.  The handkerchief coin always acts; setting 1 is the sock question.
_ACTUALIZED = {
    Context(0, 0): (("mu1", True, None), ("mu2", False, None)),  # no sock question, none on
    Context(1, 0): (("nu1", True, True), ("nu2", False, True)),  # pink sock pulled left
    Context(0, 1): (("sigma1", True, False), ("sigma2", False, False)),  # pulled right
    Context(1, 1): _WARDROBE,  # a fair attention coin picks the pink sock's foot
}


def _scenario(questions: tuple[dict, dict]) -> Scenario:
    return Scenario.binary(tuple(questions[0]), tuple(questions[1]))


def _dress(
    states: Sequence[tuple], questions: tuple[dict, dict], xs: Sequence[int], ys: Sequence[int]
) -> tuple:
    """``(causes, alice_response, bob_response)``: equal-weight causes, one per state, and
    each party's deterministic answers to its settings ``xs``/``ys``."""
    causes = tuple(Cause(name, Fraction(1, len(states))) for name, *_ in states)
    responses = []
    for party, asked, settings in zip(("alice", "bob"), questions, (xs, ys)):
        ask = tuple(asked.values())
        table = {
            (s, name): deterministic_row(2, 1 if ask[s](*facts) else 2)
            for name, *facts in states
            for s in settings
        }
        responses.append(ResponseFunction(party, table))
    return (causes, *responses)


def socks_on() -> NonContextualModel:
    """Four equal-weight wardrobe states fixed before any question is asked.

    The subject dressed in the morning: the two handkerchiefs share a color
    (pink with probability 1/2) and the pink sock went on the left or right
    foot with probability 1/2.  Setting ``A`` asks whether the left
    handkerchief is pink, ``A'`` whether left handkerchief and left sock
    match (both pink or both non-pink); ``B``/``B'`` ask the same on the
    right.  Outcome index 1 is the affirmative answer.
    """
    return NonContextualModel(_scenario(_MATCH), *_dress(_WARDROBE, _MATCH, (0, 1), (0, 1)))


def _actualized(questions: tuple[dict, dict]) -> ContextualModel:
    """One block per context, answering its questions on the causes it actualizes."""
    blocks = {
        ctx: ContextBlock(*_dress(states, questions, (ctx.alice,), (ctx.bob,)))
        for ctx, states in _ACTUALIZED.items()
    }
    return ContextualModel(_scenario(questions), blocks)


def socks_off() -> ContextualModel:
    """The ``socks_on`` questions, with causes actualized by the joint question itself.

    The subject starts with bare feet and both socks in a briefcase; a
    correlation question (``A'`` or ``B'``) makes them dress on the spot,
    pink sock first on the foot currently attended to:

    * ``(A,B)``: no sock question; only the handkerchief coin acts.
    * ``(A',B)``: Alice's question pulls the pink sock onto the left foot.
    * ``(A,B')``: mirror image, the pink sock lands on the right foot.
    * ``(A',B')``: questions from both sides; a fair attention coin picks
      the pink-sock foot, jointly with the handkerchief coin.

    The resulting behavior reaches the algebraic CHSH maximum of 4 while its
    marginals stay independent of the co-party setting.
    """
    return _actualized(_MATCH)


def socks_color() -> ContextualModel:
    """Variant whose second settings ask for the sock color itself.

    ``A''`` asks whether the left sock is pink, ``B''`` whether the right
    sock is pink.  The causes are actualized as in ``socks_off``.

    Under these dynamics one party's sock-color statistics depend on whether
    the other party asked a sock question, so the marginal (no-signaling)
    laws are violated with residual 1/2, while the maximal CHSH value over
    sign arrangements is 2.  See the README for why this model is shipped
    with the signaling behavior reported as computed.
    """
    return _actualized(_COLOR)


# ---------------------------------------------------------------------------
# Quantum behavior generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumDirections:
    """Measurement angles (radians) in a shared plane, one per setting."""

    alice_angles: tuple[float, ...]
    bob_angles: tuple[float, ...]

    def __post_init__(self) -> None:
        # float() also parses text, so text is refused before it gets there.
        for name in ("alice_angles", "bob_angles"):
            try:
                angles = tuple(getattr(self, name))
                if any([isinstance(a, (str, bytes, bytearray, memoryview)) for a in angles]):
                    raise TypeError
                object.__setattr__(self, name, tuple([float(a) for a in angles]))
            except OverflowError:
                message = "measurement angle too large for a float"
                raise ModelError(message, code="ANGLES_MISSING") from None
            except (TypeError, ValueError):
                message = f"{name.replace('_', ' ')} must be a sequence of real numbers"
                raise ModelError(message, code="ANGLES_MISSING") from None
        for angle in self.alice_angles + self.bob_angles:
            if not math.isfinite(angle):
                raise ModelError(
                    f"measurement angle must be finite, got {angle!r}",
                    code="ANGLES_MISSING",
                )


def _primed_labels(base: str, count: int) -> tuple[str, ...]:
    return tuple(base + "'" * i for i in range(count))


def singlet_behavior(
    directions: QuantumDirections, scenario: Scenario | None = None
) -> Behavior:
    """Joint outcome table for the rotationally invariant two-spin zero state.

    Measuring the total-spin-zero state of two spin-1/2 entities along
    coplanar directions at angles theta (Alice) and phi (Bob) gives

        P(a, b | theta, phi) = (1 - sign(a) * sign(b) * cos(theta - phi)) / 4

    for outcome indices a, b in {1, 2} with sign(1) = +1, sign(2) = -1.
    Depends only on angle differences, so a common rotation of all
    directions leaves the table unchanged.  Entries are floats.
    """
    if scenario is None:
        scenario = Scenario.binary(
            _primed_labels("A", len(directions.alice_angles)),
            _primed_labels("B", len(directions.bob_angles)),
        )
    if len(directions.alice_angles) != len(scenario.alice_settings) or len(
        directions.bob_angles
    ) != len(scenario.bob_settings):
        raise ModelError(
            "need one angle per setting: got "
            f"{len(directions.alice_angles)}/{len(scenario.alice_settings)} for "
            f"alice, {len(directions.bob_angles)}/{len(scenario.bob_settings)} "
            "for bob",
            code="ANGLES_MISSING",
        )
    if not scenario.is_binary():
        raise ModelError(
            "spin measurements are two-outcome; scenario has other counts",
            code="ANGLES_MISSING",
        )
    table: dict[Context, tuple[tuple[Prob, ...], ...]] = {}
    for ctx in scenario.contexts():
        c = math.cos(directions.alice_angles[ctx.alice] - directions.bob_angles[ctx.bob])
        table[ctx] = (
            ((1.0 - c) / 4.0, (1.0 + c) / 4.0),
            ((1.0 + c) / 4.0, (1.0 - c) / 4.0),
        )
    return Behavior(scenario, table)


def singlet_optimal_directions() -> QuantumDirections:
    """Angle choice reaching the maximal quantum CHSH value 2*sqrt(2)."""
    return QuantumDirections((0.0, math.pi / 2), (math.pi / 4, 3 * math.pi / 4))


# ---------------------------------------------------------------------------
# Seeded random models (property-test support)
# ---------------------------------------------------------------------------


def random_noncontextual_model(
    rand: random.Random,
    *,
    max_causes: int = 8,
    denominator: int = 64,
) -> NonContextualModel:
    """Random exact-rational model over the standard 2x2 binary scenario.

    Cause count is uniform on 1..max_causes; weights are integer multiples
    of 1/denominator (normalized exactly); each response row is
    deterministic with probability 1/2, otherwise a random rational
    distribution.  Every value is a Fraction, so downstream checks such as
    the CHSH bound can assert exact results.
    """
    scenario = Scenario.binary(("A", "A'"), ("B", "B'"))
    n_causes = rand.randint(1, max_causes)
    raw = [rand.randint(1, denominator) for _ in range(n_causes)]
    total = sum(raw)
    causes = tuple(
        Cause(f"c{i + 1}", Fraction(raw[i], total)) for i in range(n_causes)
    )

    def random_distribution(n: int) -> tuple[Fraction, ...]:
        if rand.random() < 0.5:
            return deterministic_row(n, rand.randint(1, n))
        parts = [rand.randint(1, denominator) for _ in range(n)]
        s = sum(parts)
        return tuple(Fraction(p, s) for p in parts)

    alice: dict[tuple[int, str], tuple[Prob, ...]] = {}
    bob: dict[tuple[int, str], tuple[Prob, ...]] = {}
    for cause in causes:
        for x, n in enumerate(scenario.alice_outcomes):
            alice[(x, cause.id)] = random_distribution(n)
        for y, n in enumerate(scenario.bob_outcomes):
            bob[(y, cause.id)] = random_distribution(n)
    return NonContextualModel(
        scenario,
        causes,
        ResponseFunction("alice", alice),
        ResponseFunction("bob", bob),
    )

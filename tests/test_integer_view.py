"""The integer view of an exact table: the snap that makes one and the view itself.

``analysis._snap`` walks the continued fraction of ``value.as_integer_ratio()``
and must return exactly ``Fraction(value).limit_denominator(SNAP_DENOMINATOR)``,
its tie rule included.  (The two bounds compared are neighbouring fractions
whose denominators add up to more than SNAP_DENOMINATOR, so a float, whose
denominator is a power of two, is never exactly halfway between them; the
exact midpoints ``(p + 0.5)/q`` below are the nearest cases.)
``_snap_behavior`` must agree with the ``Fraction``
code it replaced (``_fraction_exact``), errors included.  The tables of
``models._mixture_table`` and ``_snap_behavior`` are built from their
integers (``Behavior._from_integers``) with the lowest view, and marked
valid once their integers pass one check; other tables, such as those of
``strategy_behavior``, build the same view themselves on first read.
Copies, equality, ``repr`` and value types must not see it.  A table whose
view would pass ``_VIEW_BITS`` has none and keeps the Fraction paths, so
many contexts with unrelated denominators cost what they did.  A table that
passes ``validate_behavior`` is checked once; a failing one every time.
"""

import copy
import dataclasses
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

import _fraction_exact as oracle
from _docgen import random_document
from bellbox import BUILTIN_NAMES, analysis, builtin_document, models, scenario
from bellbox.analysis import SNAP_DENOMINATOR, _snap, _snap_behavior, nosignaling_residual
from bellbox.cli import run_cli
from bellbox.errors import InvalidBehaviorError
from bellbox.models import (
    Cause,
    ContextBlock,
    ContextualModel,
    QuantumDirections,
    ResponseFunction,
    singlet_behavior,
)
from bellbox.scenario import (
    Behavior,
    Context,
    Scenario,
    Validation,
    expectation,
    marginals,
    require_valid,
    validate_behavior,
)
from test_exact_oracle import STANDARD, _behavior, _key, _row

F = Fraction


def _snap_values(rng: random.Random) -> list[float]:
    values = [5e-324, -5e-324, 0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3, 2.0**-53, 1 - 2.0**-53, 1e-300, 1e300]
    for _ in range(25_000):
        # A grid point k/10**6 and its neighbouring floats on both sides.
        v = rng.randint(0, 10**6) / 10**6
        values += [v, math.nextafter(v, 2.0), math.nextafter(v, -1.0)]
    for _ in range(25_000):
        # Exact midpoints between two fractions of one denominator: the tie rule.
        q = rng.choice((rng.randint(1, 10**6), 2 ** rng.randint(10, 30), 3 * 2 ** rng.randint(5, 25)))
        p = rng.randrange(q)
        values += [(p + 0.5) / q, (2 * p + 1) / (2 * q)]
    for _ in range(25_000):
        values += [rng.random(), rng.random() * 2.0 ** -rng.randint(1, 60), rng.uniform(-3, 3)]
    for _ in range(25_000):
        # Near a fraction with a denominator just beyond the limit.
        q = rng.randint(SNAP_DENOMINATOR // 2, 3 * SNAP_DENOMINATOR)
        values.append(-rng.randrange(q) / q if rng.random() < 0.2 else rng.randrange(q) / q)
    return values


def test_snap_is_limit_denominator():
    values = _snap_values(random.Random(1301))
    assert len(values) >= 200_000
    for v in values:
        expected = Fraction(v).limit_denominator(SNAP_DENOMINATOR)
        assert _snap(v) == (expected.numerator, expected.denominator), v


def _float_tables(rng: random.Random):
    for _ in range(300):
        angles = [math.radians(rng.randrange(1440) / 4) for _ in range(4)]
        yield singlet_behavior(QuantumDirections(angles[:2], angles[2:]))
    for _ in range(300):
        table = {}
        for ctx in STANDARD.contexts():
            flat = _row(rng, 4, rng.choice(("mixed", "float", "float", "exact", "int")), perturb=False)
            if rng.random() < 0.25:
                # Off normalization by about the membership tolerance, either side of it.
                scale = 1 + rng.choice((1e-8, -1e-8, 2e-9, 5e-10, -5e-10))
                flat = [float(v) * scale for v in flat]
            table[ctx] = [flat[:2], flat[2:]]
        yield Behavior(STANDARD, table)


def _snapped(behavior: Behavior):
    try:
        tested, error = _snap_behavior(behavior)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc), getattr(exc, "code", None))
    return ("ok", _key(tested), repr(error))


def test_snap_behavior_matches_the_fraction_code():
    outcomes = set()
    for behavior in _float_tables(random.Random(1302)):
        new, old = _snapped(behavior), _snapped_by_oracle(behavior)
        assert new == old
        outcomes.add(new[0] if new[0] == "ok" else new[3])
        if new[0] == "ok":
            tested = _snap_behavior(behavior)[0]
            assert tested._int_view() == _fresh(tested)._int_view()
    assert outcomes == {"ok", "NUMERIC_INPUT_UNNORMALIZED"}


def _snapped_by_oracle(behavior: Behavior):
    try:
        tested, error = oracle._snap_behavior(behavior)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc), getattr(exc, "code", None))
    return ("ok", _key(tested), repr(error))


# ---------------------------------------------------------------------------
# The view itself
# ---------------------------------------------------------------------------


def _fresh(behavior: Behavior) -> Behavior:
    """The same table with no view yet: it is built from the table on first read."""
    fresh = Behavior(behavior.scenario, behavior.table)
    assert "_view" not in vars(fresh)
    return fresh


def _lowest_view(behavior: Behavior):
    """The view by its definition, from the table's Fractions."""
    values = [v for rows in behavior.table.values() for row in rows for v in row]
    den = math.lcm(*[F(v).denominator for v in values])
    return den, {
        ctx: tuple(tuple(F(v).numerator * (den // F(v).denominator) for v in row) for row in rows)
        for ctx, rows in behavior.table.items()
    }


def _exact_tables():
    """The exact tables of the builtin models and of 300 random model documents."""
    for name in BUILTIN_NAMES:
        document = builtin_document(name)
        if document.model() is not None:
            yield models.exact_behavior(dataclasses.replace(document.model()))
    rng = random.Random(1303)
    count = 0
    while count < 300:
        model = random_document(rng).model()
        if model is not None:
            count += 1
            yield models.exact_behavior(model)


def _produced_tables():
    """``(table, whether it was built with its view)``, for exact and strategy tables."""
    for behavior in _exact_tables():
        yield behavior, True
    for strategy in analysis.enumerate_strategies(STANDARD):
        yield analysis.strategy_behavior(STANDARD, strategy), False


def test_produced_tables_build_the_view_that_the_table_gives():
    produced = list(_produced_tables())
    assert len(produced) >= 300
    for behavior, built_with_view in produced:
        if built_with_view:
            assert vars(behavior)["_view"] == _lowest_view(behavior)  # set by the producer
        else:
            assert "_view" not in vars(behavior)  # built on first read, not by the producer
        view = behavior._int_view()
        assert view == _fresh(behavior)._int_view() == _lowest_view(behavior)
        assert view[0] > 0


def test_tables_built_from_integers_come_valid_with_their_view():
    tables = list(_exact_tables())
    singlets = itertools.islice(_float_tables(random.Random(1302)), 300)  # the first 300 are singlets
    tables += [_snap_behavior(singlet)[0] for singlet in singlets]
    assert len(tables) >= 600
    for behavior in tables:
        assert vars(behavior)["_view"] == _lowest_view(behavior)
        assert scenario._check_entries(behavior, True).ok
        assert behavior._validated


def test_integers_that_fail_the_check_are_not_marked_valid():
    half = ((1, 1), (1, 1))
    cases = {
        "unnormalized": {ctx: (half, 3) for ctx in STANDARD.contexts()},
        "negative": {ctx: (((3, -1), (1, 1)), 4) if ctx.alice else (half, 4) for ctx in STANDARD.contexts()},
        "missing context": {ctx: (half, 4) for ctx in STANDARD.contexts()[1:]},
        "wrong shape": {ctx: (((1, 1, 0), (1, 1, 0)), 4) for ctx in STANDARD.contexts()},
    }
    for name, parts in cases.items():
        built = Behavior._from_integers(STANDARD, parts)
        assert not built._validated, name
        plain = Behavior(STANDARD, {ctx: [[F(n, den) for n in row] for row in rows] for ctx, (rows, den) in parts.items()})
        assert built == plain
        with pytest.raises(InvalidBehaviorError) as expected:
            analysis.classify(plain)
        with pytest.raises(InvalidBehaviorError) as raised:
            analysis.classify(built)
        assert (str(raised.value), raised.value.code) == (str(expected.value), expected.value.code), name
        assert not built._validated


def _table(rng: random.Random) -> Behavior:
    """A table over a random shape whose rows are exact, float, mixed or int."""
    shape = _behavior(rng).scenario
    mode = rng.choice(("exact", "float", "mixed", "int"))
    table = {}
    for ctx in shape.contexts():
        na, nb = shape.alice_outcomes[ctx.alice], shape.bob_outcomes[ctx.bob]
        flat = _row(rng, na * nb, mode, perturb=False)
        table[ctx] = [flat[a * nb : (a + 1) * nb] for a in range(na)]
    return Behavior(shape, table)


def test_copies_carry_a_correct_view():
    rng = random.Random(1304)
    behaviors = [models.exact_behavior(models.socks_off()), _fresh(models.exact_behavior(models.socks_on()))]
    behaviors += [_table(rng) for _ in range(80)]
    assert {b.exact for b in behaviors} == {True, False}
    for behavior in behaviors:
        expected = _fresh(behavior)._int_view()
        behavior._int_view()
        for clone in (
            pickle.loads(pickle.dumps(behavior)),
            copy.copy(behavior),
            copy.deepcopy(behavior),
            dataclasses.replace(behavior),
        ):
            assert clone == behavior
            assert clone._int_view() == expected
            assert clone.exact == behavior.exact


def test_equality_and_repr_ignore_the_view():
    produced = models.exact_behavior(models.socks_off())
    fresh = _fresh(produced)
    produced._int_view()
    assert "_view" in vars(produced) and "_view" not in vars(fresh)
    assert produced == fresh and repr(produced) == repr(fresh)
    assert "_view" not in repr(produced)
    fresh._int_view()
    assert produced == fresh and repr(produced) == repr(fresh)
    ints = Behavior(STANDARD, {ctx: ((1, 0), (0, 0)) for ctx in STANDARD.contexts()})
    fractions = Behavior(STANDARD, {ctx: ((F(1), F(0)), (F(0), F(0))) for ctx in STANDARD.contexts()})
    assert ints == fractions and ints._int_view() == fractions._int_view()


def test_expectations_keep_their_value_types():
    rng = random.Random(1305)
    kinds = (
        lambda: rng.choice((0, 1)),
        lambda: rng.choice((True, False)),
        lambda: F(rng.randint(0, 7), rng.randint(1, 7)),
        lambda: F(rng.randint(0, 3)),
    )
    seen = set()
    for _ in range(400):
        table = {}
        for ctx in STANDARD.contexts():
            table[ctx] = [[rng.choice(kinds)() for _ in range(2)] for _ in range(2)]
        behavior = Behavior(STANDARD, table)
        for ctx in STANDARD.contexts():
            grid = behavior.table[ctx]
            expected = grid[0][0] + grid[1][1] - grid[0][1] - grid[1][0]
            value = expectation(behavior, ctx)
            assert type(value) is type(expected) and value == expected
            seen.add(type(value))
    assert seen == {int, Fraction}
    all_ints = Behavior(STANDARD, {ctx: ((1, 0), (0, 0)) for ctx in STANDARD.contexts()})
    assert expectation(all_ints, Context(0, 0)) == 1 and type(expectation(all_ints, Context(0, 0))) is int
    bools = Behavior(STANDARD, {ctx: ((True, False), (False, False)) for ctx in STANDARD.contexts()})
    assert type(expectation(bools, Context(1, 1))) is int


def test_exact_flag_follows_the_entry_types():
    rng = random.Random(1306)
    kinds = (lambda: 1, lambda: True, lambda: F(1, 3), lambda: 0.25, lambda: 10**400, lambda: F(-1, 7))
    shape = Scenario.binary(("A",), ("B", "B'"))
    for _ in range(500):
        table = {ctx: [[rng.choice(kinds)() for _ in range(2)] for _ in range(2)] for ctx in shape.contexts()}
        behavior = Behavior(shape, table)
        entries = [v for rows in behavior.table.values() for row in rows for v in row]
        exact = all(isinstance(v, (int, Fraction)) for v in entries)
        assert behavior.exact is exact
        assert (behavior._int_view() is not None) is exact
    assert Behavior(shape, {}).exact


def _primes(count: int) -> list[int]:
    primes, candidate = [], 1000
    while len(primes) < count:
        candidate += 1
        if all(candidate % p for p in range(2, math.isqrt(candidate) + 1)):
            primes.append(candidate)
    return primes


def test_a_table_past_the_view_budget_has_no_view():
    # 3,600 contexts, each over its own prime: one common denominator would
    # take ≈50,000 bits for each of the 14,400 entries.
    shape = Scenario.binary([f"A{i}" for i in range(60)], [f"B{i}" for i in range(60)])
    primes = _primes(len(shape.contexts()))
    table = {ctx: ((F(1, p), F(1, p)), (F(1, p), F(p - 3, p))) for ctx, p in zip(shape.contexts(), primes)}
    behavior = Behavior(shape, table)
    assert behavior._int_view() is None and behavior.exact
    assert behavior._view is False
    assert validate_behavior(behavior) == oracle.validate_behavior(behavior)
    assert _key(nosignaling_residual(behavior)) == _key(oracle.nosignaling_residual(behavior))
    # The exact table of a contextual model of the same kind has none either.
    shape = Scenario.binary([f"A{i}" for i in range(40)], [f"B{i}" for i in range(40)])
    blocks = {}
    for ctx, p in zip(shape.contexts(), primes):
        rows = {"x": (F(1), F(0)), "y": (F(0), F(1))}
        blocks[ctx] = ContextBlock(
            (Cause("x", F(1, p)), Cause("y", F(p - 1, p))),
            ResponseFunction("alice", {(ctx.alice, c): r for c, r in rows.items()}),
            ResponseFunction("bob", {(ctx.bob, c): r for c, r in rows.items()}),
        )
    model = ContextualModel(shape, blocks)
    produced = models.exact_behavior(model)
    assert produced._int_view() is None and produced._view is False and produced.exact
    assert _key(produced) == _key(oracle.exact_behavior(model))


# ---------------------------------------------------------------------------
# Checked once
# ---------------------------------------------------------------------------


def _spy_checks(monkeypatch, integers: bool = False) -> list[bool]:
    """The ``normalized`` flag of every full check of a table, in call order.  With
    ``integers``, the check a table built from its integers gets then counts too, as True:
    it checks normalization."""
    calls = []
    check, check_integers = scenario._check_entries, scenario._check_integers

    def spy(behavior: Behavior, normalized: bool):
        calls.append(normalized)
        return check(behavior, normalized)

    def integer_spy(shape: Scenario, parts: dict):
        calls.append(True)
        return check_integers(shape, parts)

    monkeypatch.setattr(scenario, "_check_entries", spy)
    if integers:
        monkeypatch.setattr(scenario, "_check_integers", integer_spy)
    return calls


def test_a_valid_table_is_checked_once(monkeypatch):
    calls = _spy_checks(monkeypatch, integers=True)
    # The exact tables are checked once, as they are built.  The singlet is checked once,
    # and so is each of the two snapped tables that classify and local_membership test.
    cases = [
        (lambda: models.exact_behavior(models.socks_off()), 1),
        (lambda: models.exact_behavior(models.socks_on()), 1),
        (lambda: singlet_behavior(models.singlet_optimal_directions()), 3),
    ]
    for build, tables in cases:
        calls.clear()
        behavior = build()
        analysis.classify(behavior)
        nosignaling_residual(behavior)
        analysis.local_membership(behavior)
        marginals(behavior)
        assert require_valid(behavior) is behavior
        assert validate_behavior(behavior) == validate_behavior(behavior, normalized=False) == Validation(True)
        assert calls == [True] * tables


def test_the_cli_checks_its_table_once(monkeypatch):
    calls = _spy_checks(monkeypatch, integers=True)
    for command in ("nosig", "membership", "classify"):
        calls.clear()
        assert run_cli([command, "socks-off"]) == 0
        assert calls == [True], command


def test_a_failing_table_is_checked_on_every_call(monkeypatch):
    calls = _spy_checks(monkeypatch)
    table = {ctx: ((F(1, 2), F(1, 4)), (F(0), F(1, 3))) for ctx in STANDARD.contexts()}
    behavior = Behavior(STANDARD, table)
    errors = []
    for check in (analysis.classify, nosignaling_residual, analysis.local_membership, marginals, require_valid):
        for _ in range(2):
            with pytest.raises(InvalidBehaviorError) as info:
                check(behavior)
            errors.append((str(info.value), info.value.code))
    assert set(errors) == {("context (A,B) sums to 13/12, expected 1", "UNNORMALIZED_CONTEXT")}
    assert calls == [True] * 10 and not behavior._validated


def test_a_check_without_normalization_is_not_remembered(monkeypatch):
    calls = _spy_checks(monkeypatch)
    # Off by 1e-10: past FLOAT_ATOL, within the membership snap's tolerance.
    table = {ctx: ((0.5, 0.25), (0.125, 0.125 + 1e-10)) for ctx in STANDARD.contexts()}
    behavior = Behavior(STANDARD, table)
    assert validate_behavior(behavior, normalized=False).ok
    assert not behavior._validated
    assert analysis.local_membership(behavior).feasible
    assert validate_behavior(behavior).code == "UNNORMALIZED_CONTEXT"
    with pytest.raises(InvalidBehaviorError):
        analysis.classify(behavior)
    assert calls == [False, False, True, True] and not behavior._validated


def test_copies_keep_both_caches_and_replace_starts_without_them():
    behavior = models.exact_behavior(models.socks_off())
    require_valid(behavior)
    view = behavior._int_view()
    assert view == _fresh(behavior)._int_view() and behavior._validated
    for clone in (pickle.loads(pickle.dumps(behavior)), copy.copy(behavior), copy.deepcopy(behavior)):
        assert clone == behavior and clone._validated
        assert clone._int_view() == view
    replaced = dataclasses.replace(behavior)
    assert replaced == behavior
    assert "_view" not in vars(replaced) and "_validated" not in vars(replaced)
    unnormalized = dataclasses.replace(behavior, table={ctx: ((F(1), F(1)), (F(0), F(0))) for ctx in STANDARD.contexts()})
    assert validate_behavior(unnormalized).code == "UNNORMALIZED_CONTEXT"

"""Scenario, behavior validation, marginals, expectations, mixtures."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bellbox import (
    Behavior,
    Context,
    InvalidBehaviorError,
    MixtureError,
    Scenario,
    ScenarioShapeError,
    expectation,
    marginals,
    mix,
    outcome_sign,
    require_valid,
    validate_behavior,
)
from bellbox.models import exact_behavior, socks_off
from _tables import (
    H,
    Q,
    SOCKS_ON_TABLE,
    STANDARD_SCENARIO,
    UNIFORM_TABLE,
    Z,
    behavior_from,
)

F = Fraction


class TestScenario:
    def test_contexts_are_lexicographic(self):
        ctxs = STANDARD_SCENARIO.contexts()
        assert ctxs == (Context(0, 0), Context(0, 1), Context(1, 0), Context(1, 1))

    def test_contexts_are_built_once(self):
        scenario = Scenario(("A", "A'", "A''"), ("B", "B'"), (2, 3, 2), (2, 2))
        ctxs = scenario.contexts()
        assert ctxs is scenario.contexts()
        assert ctxs == tuple(sorted(ctxs))
        assert ctxs == tuple(Context(x, y) for x in range(3) for y in range(2))
        twin = Scenario(("A", "A'", "A''"), ("B", "B'"), (2, 3, 2), (2, 2))
        assert twin == scenario and hash(twin) == hash(scenario)
        assert repr(twin) == repr(scenario)
        assert scenario != Scenario(("A", "A'", "A''"), ("B", "B'"), (2, 2, 2), (2, 2))
        wider = replace(scenario, bob_settings=("B", "B'", "B''"), bob_outcomes=(2, 2, 2))
        assert wider.contexts() == tuple(
            Context(x, y) for x in range(3) for y in range(3)
        )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ScenarioShapeError) as exc:
            Scenario.binary(("A", "A"), ("B", "B'"))
        assert exc.value.code == "SCENARIO_SHAPE"

    def test_empty_party_rejected(self):
        with pytest.raises(ScenarioShapeError):
            Scenario.binary((), ("B",))

    def test_outcome_counts_must_match_settings(self):
        with pytest.raises(ScenarioShapeError):
            Scenario(("A",), ("B",), (2, 2), (2,))

    def test_single_outcome_setting_rejected(self):
        with pytest.raises(ScenarioShapeError):
            Scenario(("A",), ("B",), (1,), (2,))

    @pytest.mark.parametrize("count", [2.5, "2", None], ids=["float", "str", "none"])
    def test_non_integer_outcome_count_rejected(self, count):
        with pytest.raises(ScenarioShapeError) as exc:
            Scenario(("A",), ("B",), (count,), (2,))
        assert exc.value.code == "SCENARIO_SHAPE"

    @pytest.mark.parametrize(
        "fields",
        [(("A",), ("B",), 2, (2,)), (("A",), ("B",), (2,), None), (1, ("B",), (2,), (2,)), (("A",), 0.5, (2,), (2,))],
        ids=["alice-outcomes", "bob-outcomes", "alice-settings", "bob-settings"],
    )
    def test_non_iterable_fields_rejected(self, fields):
        with pytest.raises(ScenarioShapeError) as exc:
            Scenario(*fields)
        assert exc.value.code == "SCENARIO_SHAPE"
        assert "must be iterable" in str(exc.value)

    def test_message_names_a_count_too_long_to_print(self):
        with pytest.raises(ScenarioShapeError) as exc:
            Scenario(("A", "A'"), ("B",), (10**5000, 1), (2,))
        assert exc.value.code == "SCENARIO_SHAPE"
        assert str(exc.value) == "every alice setting needs at least 2 outcomes, got 1"
        with pytest.raises(ScenarioShapeError) as exc:
            Scenario(("A", "A'"), ("B",), (2, -(10**5000)), (2,))
        assert str(exc.value) == "every alice setting needs at least 2 outcomes, got -<5001-digit integer>"

    def test_integer_like_outcome_counts_stored_as_int(self):
        numpy = pytest.importorskip("numpy")

        class Count(int):
            pass

        scenario = Scenario(("A",), ("B",), (Count(3),), (numpy.int64(4),))
        assert scenario == Scenario(("A",), ("B",), (3,), (4,))
        assert [type(c) for c in scenario.alice_outcomes + scenario.bob_outcomes] == [int, int]

    def test_setting_index(self):
        assert STANDARD_SCENARIO.setting_index("alice", "A'") == 1
        with pytest.raises(ScenarioShapeError):
            STANDARD_SCENARIO.setting_index("bob", "nope")

    def test_is_binary(self):
        assert STANDARD_SCENARIO.is_binary() and STANDARD_SCENARIO.is_two_by_two()
        wide = Scenario.binary(("A",), ("B", "B'", "B''"))
        assert wide.is_binary() and not wide.is_two_by_two()
        for shape in (Scenario(("A", "A'"), ("B", "B'"), (2, 3), (2, 2)), Scenario(("A",), ("B",), (2,), (3,))):
            assert not shape.is_binary() and not shape.is_two_by_two()


class TestProb:
    def test_indices_are_one_based(self):
        # Index 0 must not wrap round to the last row or column: (0, 1) is not P(2,1 | A',B').
        behavior = exact_behavior(socks_off())
        ctx = Context(1, 1)
        grid = [[behavior.prob(ctx, a, b) for b in (1, 2)] for a in (1, 2)]
        assert grid == [list(row) for row in behavior.table[ctx]]
        for a, b in ((0, 1), (1, 0), (0, 0), (-1, 2), (2, -1), (3, 1), (1, 3)):
            with pytest.raises(IndexError):
                behavior.prob(ctx, a, b)


class TestOutcomeSign:
    def test_convention(self):
        assert outcome_sign(1) == 1
        assert outcome_sign(2) == -1

    def test_out_of_range(self):
        with pytest.raises(ScenarioShapeError) as exc:
            outcome_sign(3)
        assert exc.value.code == "NON_BINARY_SETTING"


class TestValidateBehavior:
    def test_socks_on_table_is_valid(self):
        b = behavior_from(STANDARD_SCENARIO, SOCKS_ON_TABLE)
        assert validate_behavior(b).ok

    def test_uniform_table_is_valid(self):
        b = behavior_from(STANDARD_SCENARIO, UNIFORM_TABLE)
        assert validate_behavior(b).ok

    def test_unnormalized_context_reported(self):
        table = dict(UNIFORM_TABLE)
        table[(0, 0)] = ((F(3, 4), F(1, 8)), (F(1, 8), F(1, 8)))  # sums to 9/8
        b = behavior_from(STANDARD_SCENARIO, table)
        result = validate_behavior(b)
        assert not result.ok
        assert result.code == "UNNORMALIZED_CONTEXT"
        assert result.context == Context(0, 0)
        assert "9/8" in result.message

    def test_negative_entry_reported(self):
        table = dict(UNIFORM_TABLE)
        table[(1, 0)] = ((F(-1, 4), F(1, 2)), (F(1, 2), F(1, 4)))
        result = validate_behavior(behavior_from(STANDARD_SCENARIO, table))
        assert (result.ok, result.code) == (False, "NEGATIVE_ENTRY")

    def test_missing_context_reported(self):
        table = dict(UNIFORM_TABLE)
        del table[(1, 1)]
        result = validate_behavior(behavior_from(STANDARD_SCENARIO, table))
        assert (result.ok, result.code) == (False, "MISSING_CONTEXT")

    def test_require_valid_raises(self):
        table = dict(UNIFORM_TABLE)
        del table[(0, 1)]
        with pytest.raises(InvalidBehaviorError) as exc:
            require_valid(behavior_from(STANDARD_SCENARIO, table))
        assert exc.value.code == "MISSING_CONTEXT"

    def test_float_tolerance(self):
        table = {
            key: tuple(tuple(float(v) for v in row) for row in grid)
            for key, grid in UNIFORM_TABLE.items()
        }
        assert validate_behavior(behavior_from(STANDARD_SCENARIO, table)).ok


class TestMarginals:
    def test_product_behavior_marginals(self):
        p = (F(1, 3), F(2, 3))
        q = (F(1, 5), F(4, 5))
        table = {
            key: tuple(tuple(pa * qb for qb in q) for pa in p)
            for key in UNIFORM_TABLE
        }
        b = behavior_from(STANDARD_SCENARIO, table)
        m = marginals(b)
        for own in (0, 1):
            for co in (0, 1):
                assert m.row("alice", own, co) == p
                assert m.row("bob", own, co) == q

    def test_rows_sum_to_one_and_match_entries(self):
        b = behavior_from(STANDARD_SCENARIO, SOCKS_ON_TABLE)
        m = marginals(b)
        for (party, own, co), row in m.rows.items():
            assert sum(row) == 1
            ctx = Context(own, co) if party == "alice" else Context(co, own)
            if party == "alice":
                expected = tuple(sum(b.table[ctx][a]) for a in range(2))
            else:
                expected = tuple(
                    b.table[ctx][0][o] + b.table[ctx][1][o] for o in range(2)
                )
            assert row == expected

    def test_marginals_commute_with_mix(self):
        rand = random.Random(411)
        for _ in range(30):
            b1 = _random_behavior(rand)
            b2 = _random_behavior(rand)
            w = F(rand.randint(0, 16), 16)
            mixed = mix([(w, b1), (1 - w, b2)])
            lhs = marginals(mixed).rows
            m1, m2 = marginals(b1).rows, marginals(b2).rows
            for key, row in lhs.items():
                combined = tuple(
                    w * a + (1 - w) * c for a, c in zip(m1[key], m2[key])
                )
                assert row == combined  # exact, no rounding


class TestExpectation:
    def test_socks_on_values(self):
        b = behavior_from(STANDARD_SCENARIO, SOCKS_ON_TABLE)
        values = tuple(expectation(b, c) for c in STANDARD_SCENARIO.contexts())
        assert values == (1, 0, 0, -1)
        assert all(isinstance(v, Fraction) for v in values)

    def test_uniform_is_zero(self):
        b = behavior_from(STANDARD_SCENARIO, UNIFORM_TABLE)
        assert all(
            expectation(b, c) == 0 for c in STANDARD_SCENARIO.contexts()
        )

    def test_non_binary_rejected(self):
        scenario = Scenario(("A",), ("B",), (3,), (2,))
        table = {
            Context(0, 0): (
                (F(1, 3), Z),
                (F(1, 3), Z),
                (Z, F(1, 3)),
            )
        }
        b = Behavior(scenario, table)
        with pytest.raises(ScenarioShapeError) as exc:
            expectation(b, Context(0, 0))
        assert exc.value.code == "NON_BINARY_SETTING"

    def test_bounds_and_equality_condition(self):
        rand = random.Random(412)
        for _ in range(200):
            b = _random_behavior(rand)
            for ctx in STANDARD_SCENARIO.contexts():
                e = expectation(b, ctx)
                grid = b.table[ctx]
                assert abs(e) <= 1
                off_diag_zero = grid[0][1] == 0 and grid[1][0] == 0
                diag_zero = grid[0][0] == 0 and grid[1][1] == 0
                assert (abs(e) == 1) == (off_diag_zero or diag_zero)


class TestMix:
    def test_weight_one_identity(self):
        b = behavior_from(STANDARD_SCENARIO, SOCKS_ON_TABLE)
        assert mix([(F(1), b)]) == b

    def test_anticorrelated_halves(self):
        point1 = {key: ((F(1), Z), (Z, Z)) for key in UNIFORM_TABLE}
        point2 = {key: ((Z, Z), (Z, F(1))) for key in UNIFORM_TABLE}
        b = mix(
            [
                (H, behavior_from(STANDARD_SCENARIO, point1)),
                (H, behavior_from(STANDARD_SCENARIO, point2)),
            ]
        )
        for ctx in STANDARD_SCENARIO.contexts():
            assert b.table[ctx] == ((H, Z), (Z, H))

    def test_scenario_mismatch(self):
        other = Scenario.binary(("X",), ("Y",))
        table = {Context(0, 0): ((H, Z), (Z, H))}
        with pytest.raises(MixtureError) as exc:
            mix(
                [
                    (H, behavior_from(STANDARD_SCENARIO, UNIFORM_TABLE)),
                    (H, Behavior(other, table)),
                ]
            )
        assert exc.value.code == "SCENARIO_MISMATCH"

    def test_bad_weights(self):
        b = behavior_from(STANDARD_SCENARIO, UNIFORM_TABLE)
        with pytest.raises(MixtureError):
            mix([(F(1, 2), b)])
        with pytest.raises(MixtureError):
            mix([(F(-1, 2), b), (F(3, 2), b)])

    def test_mixing_exact_with_float_promotes(self):
        exact = behavior_from(STANDARD_SCENARIO, UNIFORM_TABLE)
        floaty = behavior_from(
            STANDARD_SCENARIO,
            {
                key: tuple(tuple(float(v) for v in row) for row in grid)
                for key, grid in SOCKS_ON_TABLE.items()
            },
        )
        mixed = mix([(F(1, 2), exact), (F(1, 2), floaty)])
        assert not mixed.exact
        assert mixed.prob(Context(0, 0), 1, 1) == pytest.approx(0.375, abs=1e-12)


def _random_behavior(rand: random.Random) -> Behavior:
    table = {}
    for key in UNIFORM_TABLE:
        parts = [rand.randint(0, 12) for _ in range(4)]
        if sum(parts) == 0:
            parts[rand.randrange(4)] = 1
        total = sum(parts)
        flat = [F(p, total) for p in parts]
        table[key] = ((flat[0], flat[1]), (flat[2], flat[3]))
    return behavior_from(STANDARD_SCENARIO, table)

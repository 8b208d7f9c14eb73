"""Cause models: canonical instances, conditioning, mixtures, singlet tables."""

import math
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

from bellbox import (
    Cause,
    Context,
    ModelError,
    NonContextualModel,
    QuantumDirections,
    ResponseFunction,
    Scenario,
    chsh_max,
    condition_on_cause,
    deterministic_row,
    exact_behavior,
    expectation,
    marginals,
    mix,
    nosignaling_residual,
    random_noncontextual_model,
    singlet_behavior,
    singlet_optimal_directions,
    socks_color,
    socks_off,
    socks_on,
    validate_model,
)
from _oracles import color_variant_table, singlet_state_table
from _tables import (
    LAMBDA1_MARGINALS,
    LAMBDA1_TABLE,
    SOCKS_COLOR_TABLE,
    SOCKS_OFF_EXPECTATIONS,
    SOCKS_OFF_TABLE,
    SOCKS_ON_EXPECTATIONS,
    SOCKS_ON_TABLE,
    STANDARD_SCENARIO,
    behavior_from,
)

F = Fraction


def _as_plain_table(behavior):
    return {
        (ctx.alice, ctx.bob): behavior.table[ctx]
        for ctx in behavior.scenario.contexts()
    }


class TestSocksOn:
    def test_structure(self):
        model = socks_on()
        assert [c.id for c in model.causes] == [
            "lambda1",
            "lambda2",
            "lambda3",
            "lambda4",
        ]
        assert all(c.weight == F(1, 4) for c in model.causes)

    def test_exact_behavior_matches_frozen_table(self):
        b = exact_behavior(socks_on())
        assert _as_plain_table(b) == SOCKS_ON_TABLE
        assert b.exact

    def test_expectations(self):
        b = exact_behavior(socks_on())
        values = tuple(expectation(b, c) for c in b.scenario.contexts())
        assert values == SOCKS_ON_EXPECTATIONS

    def test_chsh_combination_is_two(self):
        b = exact_behavior(socks_on())
        e = [expectation(b, c) for c in b.scenario.contexts()]
        assert e[0] + e[1] + e[2] - e[3] == 2


class TestConditioning:
    def test_lambda1_table(self):
        cond = condition_on_cause(socks_on(), "lambda1")
        assert _as_plain_table(cond) == LAMBDA1_TABLE

    def test_lambda1_marginals(self):
        cond = condition_on_cause(socks_on(), "lambda1")
        table = marginals(cond)
        for (party, own, _co), row in table.rows.items():
            assert row == LAMBDA1_MARGINALS[(party, own)]

    def test_every_cause_factorizes(self):
        model = socks_on()
        for cause in model.causes:
            cond = condition_on_cause(model, cause.id)
            m = marginals(cond)
            for ctx in model.scenario.contexts():
                pa = m.row("alice", ctx.alice, ctx.bob)
                pb = m.row("bob", ctx.bob, ctx.alice)
                for a in range(2):
                    for b in range(2):
                        assert cond.table[ctx][a][b] == pa[a] * pb[b]

    def test_random_models_factorize(self):
        rand = random.Random(2026)
        for _ in range(25):
            model = random_noncontextual_model(rand)
            cause = rand.choice(model.causes)
            cond = condition_on_cause(model, cause.id)
            m = marginals(cond)
            for ctx in model.scenario.contexts():
                pa = m.row("alice", ctx.alice, ctx.bob)
                pb = m.row("bob", ctx.bob, ctx.alice)
                for a in range(2):
                    for b in range(2):
                        assert cond.table[ctx][a][b] == pa[a] * pb[b]

    def test_unknown_cause(self):
        with pytest.raises(ModelError) as exc:
            condition_on_cause(socks_on(), "lambda9")
        assert exc.value.code == "UNKNOWN_CAUSE"

    def test_contextual_model_is_refused(self):
        # Refused before validation: a contextual model with no blocks at all
        # gets the same error, not the validator's missing-block one.
        for model in (socks_off(), socks_color(), replace(socks_off(), blocks={})):
            with pytest.raises(ModelError) as exc:
                condition_on_cause(model, "mu1")
            assert exc.value.code == "MODEL_INVALID"
            assert str(exc.value) == "conditioning needs a noncontextual model"

    def test_mixture_identity(self):
        model = socks_on()
        mixed = mix(
            [(c.weight, condition_on_cause(model, c.id)) for c in model.causes]
        )
        assert mixed == exact_behavior(model)

    def test_mixture_identity_random_models(self):
        rand = random.Random(2027)
        for _ in range(25):
            model = random_noncontextual_model(rand)
            mixed = mix(
                [(c.weight, condition_on_cause(model, c.id)) for c in model.causes]
            )
            assert mixed == exact_behavior(model)


class TestDegenerateModels:
    def test_single_deterministic_cause_gives_point_table(self):
        scenario = STANDARD_SCENARIO
        causes = (Cause("only", F(1)),)
        alice = ResponseFunction(
            "alice", {(x, "only"): deterministic_row(2, 1) for x in range(2)}
        )
        bob = ResponseFunction(
            "bob", {(y, "only"): deterministic_row(2, 2) for y in range(2)}
        )
        b = exact_behavior(
            NonContextualModel(scenario, causes, alice, bob)
        )
        for ctx in scenario.contexts():
            assert b.table[ctx] == ((F(0), F(1)), (F(0), F(0)))

    def test_identical_causes_collapse(self):
        scenario = STANDARD_SCENARIO
        row = (F(1, 3), F(2, 3))
        single = NonContextualModel(
            scenario,
            (Cause("c1", F(1)),),
            ResponseFunction("alice", {(x, "c1"): row for x in range(2)}),
            ResponseFunction("bob", {(y, "c1"): row for y in range(2)}),
        )
        double = NonContextualModel(
            scenario,
            (Cause("c1", F(1, 2)), Cause("c2", F(1, 2))),
            ResponseFunction(
                "alice", {(x, c): row for x in range(2) for c in ("c1", "c2")}
            ),
            ResponseFunction(
                "bob", {(y, c): row for y in range(2) for c in ("c1", "c2")}
            ),
        )
        assert exact_behavior(single) == exact_behavior(
            double
        )

    def test_invalid_weights_rejected(self):
        scenario = STANDARD_SCENARIO
        causes = (Cause("c1", F(1, 2)),)
        alice = ResponseFunction(
            "alice", {(x, "c1"): deterministic_row(2, 1) for x in range(2)}
        )
        bob = ResponseFunction(
            "bob", {(y, "c1"): deterministic_row(2, 1) for y in range(2)}
        )
        with pytest.raises(ModelError) as exc:
            exact_behavior(
                NonContextualModel(scenario, causes, alice, bob)
            )
        assert exc.value.code == "MODEL_INVALID"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_cause_weight_rejected(self, bad):
        model = socks_on()
        causes = (replace(model.causes[0], weight=bad), *model.causes[1:])
        with pytest.raises(ModelError) as exc:
            validate_model(replace(model, causes=causes))
        assert exc.value.code == "MODEL_INVALID"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_response_probability_rejected(self, bad):
        model = socks_off()
        ctx = Context(1, 1)
        block = model.blocks[ctx]
        table = dict(block.bob_response.table)
        key = (ctx.bob, block.causes[0].id)
        table[key] = (bad, 1.0)
        blocks = dict(model.blocks)
        bob = replace(block.bob_response, table=table)
        blocks[ctx] = replace(block, bob_response=bob)
        with pytest.raises(ModelError) as exc:
            validate_model(replace(model, blocks=blocks))
        assert exc.value.code == "MODEL_INVALID"

    def test_missing_response_rejected(self):
        scenario = STANDARD_SCENARIO
        causes = (Cause("c1", F(1)),)
        alice = ResponseFunction("alice", {(0, "c1"): deterministic_row(2, 1)})
        bob = ResponseFunction(
            "bob", {(y, "c1"): deterministic_row(2, 1) for y in range(2)}
        )
        with pytest.raises(ModelError):
            exact_behavior(
                NonContextualModel(scenario, causes, alice, bob)
            )

    @pytest.mark.parametrize(
        "key, shown", [(Context(5, 5), "(5,5)"), ((0, 0), "(0, 0)")], ids=["unknown", "not-a-context"]
    )
    def test_block_outside_the_scenario_rejected(self, key, shown):
        model = socks_off()
        extra = replace(model, blocks={**model.blocks, key: model.blocks[Context(0, 0)]})
        for check in (validate_model, exact_behavior):
            with pytest.raises(ModelError) as exc:
                check(extra)
            assert exc.value.code == "MODEL_INVALID"
            assert f"block for unknown context {shown}" in str(exc.value)


class TestSocksOff:
    def test_exact_behavior_matches_frozen_table(self):
        b = exact_behavior(socks_off())
        assert _as_plain_table(b) == SOCKS_OFF_TABLE

    def test_expectations_and_chsh(self):
        b = exact_behavior(socks_off())
        values = tuple(expectation(b, c) for c in b.scenario.contexts())
        assert values == SOCKS_OFF_EXPECTATIONS
        value, _ = chsh_max(b)
        assert value == 4

    def test_no_signaling(self):
        assert nosignaling_residual(exact_behavior(socks_off())) == 0

    def test_marginals_are_half_under_either_co_setting(self):
        m = marginals(exact_behavior(socks_off()))
        for co in (0, 1):
            assert m.row("alice", 0, co) == (F(1, 2), F(1, 2))

    def test_cause_families_per_context(self):
        model = socks_off()
        prefixes = {
            Context(0, 0): ("mu1", "mu2"),
            Context(0, 1): ("sigma1", "sigma2"),
            Context(1, 0): ("nu1", "nu2"),
            Context(1, 1): ("lambda1", "lambda2", "lambda3", "lambda4"),
        }
        for ctx, expected in prefixes.items():
            assert tuple(c.id for c in model.blocks[ctx].causes) == expected

    def test_contextual_copies_of_noncontextual_degenerate(self):
        from bellbox import ContextBlock, ContextualModel

        source = socks_on()
        blocks = {}
        for ctx in source.scenario.contexts():
            blocks[ctx] = ContextBlock(
                source.causes, source.alice_response, source.bob_response
            )
        clone = ContextualModel(source.scenario, blocks)
        assert exact_behavior(clone) == exact_behavior(
            source
        )


class TestSocksColor:
    def test_behavior_matches_enumeration_oracle(self):
        b = exact_behavior(socks_color())
        assert _as_plain_table(b) == color_variant_table()
        assert _as_plain_table(b) == SOCKS_COLOR_TABLE

    def test_marginal_asymmetry(self):
        b = exact_behavior(socks_color())
        m = marginals(b)
        # Alice's sock-color question: certainty when Bob asks about his
        # handkerchief, a fair coin when Bob asks about his sock.
        assert m.row("alice", 1, 0) == (F(1), F(0))
        assert m.row("alice", 1, 1) == (F(1, 2), F(1, 2))

    def test_residual_is_half(self):
        assert nosignaling_residual(exact_behavior(socks_color())) == F(1, 2)

    def test_both_sock_questions_anticorrelate(self):
        b = exact_behavior(socks_color())
        assert expectation(b, Context(1, 1)) == -1

    def test_handkerchief_context_correlates(self):
        b = exact_behavior(socks_color())
        assert expectation(b, Context(0, 0)) == 1


class TestSingletBehavior:
    def test_matches_state_vector_oracle(self):
        rand = random.Random(99)
        for _ in range(50):
            alice = (rand.uniform(0, 2 * math.pi), rand.uniform(0, 2 * math.pi))
            bob = (rand.uniform(0, 2 * math.pi), rand.uniform(0, 2 * math.pi))
            b = singlet_behavior(QuantumDirections(alice, bob))
            oracle = singlet_state_table(alice, bob)
            for ctx in b.scenario.contexts():
                key = (ctx.alice, ctx.bob)
                for a in range(2):
                    for b_idx in range(2):
                        assert b.table[ctx][a][b_idx] == pytest.approx(
                            oracle[key][a][b_idx], abs=1e-12
                        )

    def test_equal_angles_anticorrelate(self):
        b = singlet_behavior(QuantumDirections((0.7, 1.1), (0.7, 2.0)))
        ctx = Context(0, 0)
        assert b.table[ctx][0][0] == pytest.approx(0.0, abs=1e-15)
        assert expectation(b, ctx) == pytest.approx(-1.0, abs=1e-15)

    def test_orthogonal_angles_decouple(self):
        b = singlet_behavior(QuantumDirections((0.0,), (math.pi / 2,)))
        ctx = Context(0, 0)
        for a in range(2):
            for b_idx in range(2):
                assert b.table[ctx][a][b_idx] == pytest.approx(0.25, abs=1e-12)
        assert expectation(b, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_optimal_angles_reach_quantum_maximum(self):
        b = singlet_behavior(singlet_optimal_directions())
        value, _ = chsh_max(b)
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_rotational_invariance(self):
        rand = random.Random(100)
        base = QuantumDirections((0.0, math.pi / 2), (math.pi / 4, 3 * math.pi / 4))
        reference = singlet_behavior(base)
        for _ in range(20):
            offset = rand.uniform(-6, 6)
            shifted = singlet_behavior(
                QuantumDirections(
                    tuple(a + offset for a in base.alice_angles),
                    tuple(a + offset for a in base.bob_angles),
                )
            )
            for ctx in reference.scenario.contexts():
                for a in range(2):
                    for b_idx in range(2):
                        assert abs(
                            shifted.table[ctx][a][b_idx]
                            - reference.table[ctx][a][b_idx]
                        ) < 1e-12

    def test_angle_count_mismatch_rejected(self):
        with pytest.raises(ModelError) as exc:
            singlet_behavior(
                QuantumDirections((0.0,), (0.0, 1.0)),
                Scenario.binary(("A", "A'"), ("B", "B'")),
            )
        assert exc.value.code == "ANGLES_MISSING"

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ModelError):
            QuantumDirections((float("nan"),), (0.0,))

    @pytest.mark.parametrize("angle", ["1.5", "x", None, 1j, [0.0]], ids=["numeric-str", "str", "none", "complex", "list"])
    def test_angle_that_is_not_a_real_number_rejected(self, angle):
        for angles in (((angle,), (0.0,)), ((0.0,), (angle,))):
            with pytest.raises(ModelError) as exc:
                QuantumDirections(*angles)
            assert exc.value.code == "ANGLES_MISSING"
            assert "must be a sequence of real numbers" in str(exc.value)

    def test_angles_that_are_not_iterable_rejected(self):
        with pytest.raises(ModelError) as exc:
            QuantumDirections(0.0, (0.0,))
        assert exc.value.code == "ANGLES_MISSING"

    def test_real_angles_of_every_kind_accepted(self):
        directions = QuantumDirections((0, Fraction(1, 2)), (True, 0.25, Decimal("0.75")))
        assert directions == QuantumDirections((0.0, 0.5), (1.0, 0.25, 0.75))
        assert {type(a) for a in directions.alice_angles + directions.bob_angles} == {float}

    @pytest.mark.parametrize("angle", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_angle_too_large_for_a_float_rejected(self, angle):
        with pytest.raises(ModelError) as exc:
            QuantumDirections((0.0,), (angle,))
        assert exc.value.code == "ANGLES_MISSING"


class TestRandomNonContextualSoundness:
    def test_chsh_bound_and_no_signaling_hold_exactly(self):
        rand = random.Random(7)
        for _ in range(200):
            model = random_noncontextual_model(rand)
            b = exact_behavior(model)
            assert b.exact
            value, _ = chsh_max(b)
            assert isinstance(value, Fraction) and value <= 2
            assert nosignaling_residual(b) == 0

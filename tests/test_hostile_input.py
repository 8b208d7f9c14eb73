"""Hostile input: non-finite entries and oversized literals are clean errors."""

import math
import random
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

from bellbox import (
    BUILTIN_NAMES,
    Behavior,
    Cause,
    Context,
    ContextualModel,
    EmpiricalBehavior,
    ExperimentPlan,
    InfeasibilityCertificate,
    InvalidBehaviorError,
    LocalDecomposition,
    MixtureError,
    ModelError,
    NonContextualModel,
    ResponseFunction,
    SamplerError,
    Scenario,
    Schedule,
    ScenarioShapeError,
    UnknownBuiltinError,
    builtin_document,
    classify,
    deterministic_row,
    enumerate_strategies,
    exact_behavior,
    local_membership,
    mix,
    outcome_sign,
    parse_document,
    run_experiment,
    sample_trial,
    serialize_document,
    socks_off,
    socks_on,
    validate_behavior,
    validate_model,
)
from bellbox.cli import MAX_PRINTED_DIAGNOSTICS, run_cli
from bellbox.document import MAX_LITERAL_DIGITS
from bellbox.scenario import printable
from _docgen import inflate_literal
from _tables import STANDARD_SCENARIO

BIG = "7" * 5000


def _float_table(**overrides):
    """Uniform float table over the standard scenario; ``overrides`` maps
    ``"x_y"`` context keys to replacement grids."""
    table = {
        Context(x, y): ((0.25, 0.25), (0.25, 0.25)) for x in range(2) for y in range(2)
    }
    for key, grid in overrides.items():
        x, y = map(int, key.split("_"))
        table[Context(x, y)] = grid
    return Behavior(STANDARD_SCENARIO, table)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteEntries:
    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_validate_rejects(self, value):
        result = validate_behavior(_float_table(**{"1_0": ((value, 0.25), (0.25, 0.25))}))
        assert not result.ok
        assert result.code == "NON_FINITE_ENTRY"
        assert result.context == Context(1, 0)

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_classify_raises_invalid_behavior(self, value):
        behavior = _float_table(**{"0_1": ((0.25, value), (0.25, 0.25))})
        with pytest.raises(InvalidBehaviorError) as exc:
            classify(behavior)
        assert exc.value.code == "NON_FINITE_ENTRY"

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_membership_raises_invalid_behavior(self, value):
        behavior = _float_table(**{"1_1": ((0.25, 0.25), (0.25, value))})
        with pytest.raises(InvalidBehaviorError) as exc:
            local_membership(behavior)
        assert exc.value.code == "NON_FINITE_ENTRY"

    def test_membership_checks_contexts_after_an_unnormalized_one(self):
        # The first context is off by 1e-11: beyond FLOAT_ATOL, inside the
        # snap tolerance, so membership goes on; the NaN after it must
        # still be rejected, not reach the rational snap.
        behavior = _float_table(
            **{
                "0_0": ((0.25 + 1e-11, 0.25), (0.25, 0.25)),
                "1_1": ((0.25, 0.25), (0.25, math.nan)),
            }
        )
        assert validate_behavior(behavior).code == "UNNORMALIZED_CONTEXT"
        with pytest.raises(InvalidBehaviorError) as exc:
            local_membership(behavior)
        assert exc.value.code == "NON_FINITE_ENTRY"


def _socks_on_text():
    return serialize_document(builtin_document("socks-on"))


BEHAVIOR_HEAD = "bellbox-format 1\n\n[scenario]\nalice = A A'\nbob = B B'\n\n[behavior]\n"


def _messages(text):
    result = parse_document(text)  # must not raise
    assert not result.ok
    return [d.message for d in result.errors()]


class TestMalformedTables:
    """``validate_behavior`` returns a failed ``Validation`` for any table it is given, and a
    table that is not a mapping of rows raises ``InvalidBehaviorError`` when it is made."""

    @pytest.mark.parametrize("value", ["x", None, 1j, Decimal("0.5")], ids=repr)
    def test_an_entry_neither_exact_nor_a_float(self, value):
        behavior = _float_table(**{"1_0": ((0.5, value), (0.25, 0.25))})
        result = validate_behavior(behavior)
        assert (result.ok, result.code, result.context) == (False, "NON_NUMERIC_ENTRY", Context(1, 0))
        shown = f"non-numeric ({type(value).__name__}) probability {value} in context (A',B)"
        assert result.message == shown
        for check in (classify, local_membership):
            with pytest.raises(InvalidBehaviorError) as exc:
                check(behavior)
            assert (str(exc.value), exc.value.code) == (shown, "NON_NUMERIC_ENTRY")

    def test_real_entries_of_other_types_are_checked_as_floats(self):
        numpy = pytest.importorskip("numpy")
        grid = numpy.array([[0.25, 0.25], [0.25, 0.25]], dtype=numpy.float32)
        assert validate_behavior(_float_table(**{"1_0": grid})).ok
        result = validate_behavior(_float_table(**{"1_0": -grid}))
        assert (result.code, result.context) == ("NEGATIVE_ENTRY", Context(1, 0))

    @pytest.mark.parametrize(
        "key, shown",
        [("ctx", "'ctx'"), ((0, 0), "(0, 0)"), (Context(10**5000, 0), "(<5001-digit integer>,0)")],
        ids=["str", "tuple", "huge index"],
    )
    def test_a_key_that_is_not_a_context_of_the_scenario(self, key, shown):
        table = dict(exact_behavior(socks_on()).table)
        table[key] = ((Fraction(1), 0), (0, 0))
        result = validate_behavior(Behavior(STANDARD_SCENARIO, table))
        assert (result.ok, result.code) == (False, "MISSING_CONTEXT")
        assert result.message == f"table mentions context {shown} outside the scenario"

    @pytest.mark.parametrize(
        "table",
        [None, 5, [((1, 0), (0, 0))], {Context(0, 0): 5}, {Context(0, 0): (1, 0)}],
        ids=["None", "int", "list", "int rows", "int row"],
    )
    def test_a_table_that_is_not_a_mapping_of_rows(self, table):
        with pytest.raises(InvalidBehaviorError) as exc:
            Behavior(STANDARD_SCENARIO, table)
        assert exc.value.code == "MALFORMED_TABLE"
        assert str(exc.value) == "a behavior table maps each context to an iterable of rows of entries"

    def test_an_exact_table_over_something_that_is_not_a_scenario_still_builds(self):
        table = exact_behavior(socks_on()).table
        behavior = Behavior(None, table)
        assert behavior.table == table and behavior._int_view() and not behavior._validated


@pytest.mark.parametrize(
    "trial_index, seed, shown",
    [
        ("1", 1, "trial_index must be an integer, not '1'"),
        (1, 1.5, "seed must be an integer, not 1.5"),
        (Fraction(10**5000, 3), 1, "trial_index must be an integer, not <5001-digit integer>/<1-digit integer>"),
    ],
    ids=["trial_index", "seed", "too long to print"],
)
def test_sample_trial_takes_integers_only(trial_index, seed, shown):
    with pytest.raises(SamplerError) as exc:
        sample_trial(socks_on(), Context(0, 0), trial_index, seed)
    assert (str(exc.value), exc.value.code) == (shown, "BAD_PLAN")


class TestOversizedLiterals:
    def test_weight_denominator(self):
        text = _socks_on_text().replace("weight 1/4", "weight 1/" + BIG, 1)
        messages = _messages(text)
        assert f"SYNTAX: integer literal longer than {MAX_LITERAL_DIGITS} digits" in messages

    def test_cli_exits_1_with_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "big.bellbox"
        path.write_text(_socks_on_text().replace("weight 1/4", "weight 1/" + BIG, 1))
        assert run_cli(["classify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "integer literal longer than" in err
        assert "Traceback" not in err

    def test_longest_accepted_literal_still_parses(self):
        digits = "1" + "0" * (MAX_LITERAL_DIGITS - 1)
        text = _socks_on_text().replace("weight 1/4", f"weight {digits}/{4 * int(digits)}", 1)
        assert parse_document(text).ok

    @pytest.mark.parametrize(
        "line",
        [
            f"P({BIG},1 | A,B) = 1/4",
            f"P(1,{BIG} | A,B) = 1/4",
            f"P(1,1 | A,B) = {BIG}",
            f"P(1,1 | A,B) = -{BIG}/3",
        ],
    )
    def test_behavior_rows(self, line):
        assert any("longer than" in m for m in _messages(BEHAVIOR_HEAD + line + "\n"))

    def test_outcome_counts(self):
        text = _socks_on_text().replace("alice_outcomes = 2 2", f"alice_outcomes = 2 {BIG}")
        assert any("longer than" in m for m in _messages(text))

    def test_version_header(self):
        text = _socks_on_text().replace("bellbox-format 1", "bellbox-format " + BIG)
        assert any(m.startswith("VERSION_UNSUPPORTED") for m in _messages(text))

    @pytest.mark.parametrize("literal", ["1" + "0" * 400 + "/3", "1" + "0" * 400])
    def test_float_mode_out_of_range(self, literal):
        text = BEHAVIOR_HEAD + f"numbers = float\nP(1,1 | A,B) = {literal}\n"
        assert "SYNTAX: number out of range" in _messages(text)

    def test_angle_out_of_range(self):
        text = serialize_document(builtin_document("singlet-optimal"))
        text = text.replace("0.0 90.0", "1" + "0" * 400 + "/7 90.0")
        assert "SYNTAX: number out of range" in _messages(text)

    def test_fuzz_inflated_literals_never_crash(self):
        rand = random.Random(4300)
        sources = [serialize_document(builtin_document(n)) for n in BUILTIN_NAMES]
        sources.append(BEHAVIOR_HEAD + "numbers = float\nP(1,1 | A,B) = 1\n")
        rejected = 0
        for _ in range(150):
            text = inflate_literal(rand, rand.choice(sources))
            result = parse_document(text)  # must not raise
            n_lines = max(1, len(text.splitlines()))
            for diag in result.diagnostics:
                assert 1 <= diag.line <= n_lines
                assert diag.column >= 1
            rejected += not result.ok
        assert rejected > 50

    def test_fuzz_payload_literals_at_the_cap_never_crash(self):
        # Literals of exactly MAX_LITERAL_DIGITS digits are accepted, and sums
        # of them can be too long to print.  Outcome counts stay small: a
        # scenario with that many outcomes is a different, open problem.
        rand = random.Random(4301)
        sources = [serialize_document(builtin_document(n)) for n in BUILTIN_NAMES]
        sources.append(BEHAVIOR_HEAD + "P(1,1 | A,B) = 1/2\nP(2,2 | A,B) = 1/2\n")
        standins = 0
        for _ in range(200):
            text = rand.choice(sources)
            start = re.search(r"^\[(behavior|noncontextual|contextual|singlet)\]", text, re.M)
            start = start.start()
            text = text[:start] + inflate_literal(rand, text[start:], digits=MAX_LITERAL_DIGITS)
            result = parse_document(text)  # must not raise
            n_lines = max(1, len(text.splitlines()))
            for diag in result.diagnostics:
                assert 1 <= diag.line <= n_lines
                assert diag.column >= 1
            standins += any("-digit integer>" in d.message for d in result.diagnostics)
        assert standins > 3


# Two accepted literals whose sum is too long for CPython's int->str limit.
LONG_A = int("7" * MAX_LITERAL_DIGITS)
LONG_B = int("3" + "7" * (MAX_LITERAL_DIGITS - 1))
LONG_SUM = Fraction(1, LONG_A) + Fraction(1, LONG_B)
STANDIN = "<4301-digit integer>/<8600-digit integer>"


def _with_causes(*causes):
    """``socks_on()`` with its causes replaced; responses to other ids are left out."""
    model = socks_on()
    return NonContextualModel(model.scenario, causes, model.alice_response, model.bob_response)


class TestTotalsTooLongToPrint:
    def test_printable(self):
        assert printable(LONG_SUM) == STANDIN
        assert printable(-LONG_SUM) == "-" + STANDIN
        assert printable(-(10**5000)) == "-<5001-digit integer>"
        for value in (Fraction(1, 3), Fraction(-2), 0.5, math.nan, (Fraction(1, 3),)):
            assert printable(value) == str(value)
        assert printable((LONG_SUM,)) == "<tuple too long to print>"

    def test_response_row(self):
        text = _socks_on_text().replace(
            "respond alice A -> 1 0", f"respond alice A -> 1/{LONG_A} 1/{LONG_B}", 1
        )
        assert f"UNNORMALIZED: response row sums to {STANDIN} in the cause set" in _messages(text)

    def test_cause_weights(self):
        text = _socks_on_text().replace("weight 1/4", f"weight 1/{LONG_A}", 1)
        text = text.replace("weight 1/4", f"weight 1/{LONG_B}", 1)
        messages = _messages(text)
        prefix = "UNNORMALIZED: cause weights in the cause set sum to <"
        assert any(m.startswith(prefix) for m in messages)

    def test_behavior_rows(self):
        text = BEHAVIOR_HEAD + f"P(1,1 | A,B) = 1/{LONG_A}\nP(1,2 | A,B) = 1/{LONG_B}\n"
        messages = _messages(text)
        assert f"UNNORMALIZED: behavior rows for context (A,B) sum to {STANDIN}" in messages

    def test_cli_exits_1_without_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "long-total.bellbox"
        path.write_text(
            _socks_on_text().replace(
                "respond alice A -> 1 0", f"respond alice A -> 1/{LONG_A} 1/{LONG_B}", 1
            )
        )
        assert run_cli(["exact", str(path)]) == 1
        err = capsys.readouterr().err
        assert STANDIN in err
        assert "Traceback" not in err

    def test_validate_model(self):
        good = socks_on()
        causes = (Cause("a", Fraction(1, LONG_A)), Cause("b", Fraction(1, LONG_B)))
        response = {(x, c.id): (Fraction(1), Fraction(0)) for x in range(2) for c in causes}
        alice, bob = ResponseFunction("alice", response), ResponseFunction("bob", response)
        model = NonContextualModel(good.scenario, causes, alice, bob)
        with pytest.raises(ModelError) as exc:
            validate_model(model)
        assert str(exc.value) == f"model: cause weights sum to {STANDIN}, expected 1"
        row = {key: (Fraction(1, LONG_A), Fraction(1, LONG_B)) for key in good.alice_response.table}
        model = NonContextualModel(
            good.scenario, good.causes, ResponseFunction("alice", row), good.bob_response
        )
        with pytest.raises(ModelError) as exc:
            validate_model(model)
        assert str(exc.value).endswith(f"sums to {STANDIN}")

    def test_mix(self):
        table = exact_behavior(socks_on())
        with pytest.raises(MixtureError) as exc:
            mix([(Fraction(1, LONG_A), table), (Fraction(1, LONG_B), table)])
        assert str(exc.value) == f"weights sum to {STANDIN}, expected 1"
        assert exc.value.code == "BAD_WEIGHTS"
        with pytest.raises(MixtureError) as exc:
            mix([(-LONG_SUM, table)])
        assert str(exc.value) == f"negative weight -{STANDIN}"

    def test_validate_behavior(self):
        table = exact_behavior(socks_on()).table
        grid = ((Fraction(1, LONG_A), Fraction(1, LONG_B)), (0, 0))
        result = validate_behavior(Behavior(socks_on().scenario, {**table, Context(0, 0): grid}))
        assert result.message == f"context (A,B) sums to {STANDIN}, expected 1"
        grid = ((-LONG_SUM, 1), (0, 0))
        result = validate_behavior(Behavior(socks_on().scenario, {**table, Context(0, 0): grid}))
        assert result.message == f"negative probability -{STANDIN} in context (A,B)"

    def test_decomposition(self):
        strategies = enumerate_strategies(socks_on().scenario)
        weights = ((strategies[0], Fraction(1, LONG_A)), (strategies[1], Fraction(1, LONG_B)))
        with pytest.raises(MixtureError) as exc:
            LocalDecomposition(socks_on().scenario, weights).to_behavior()
        assert str(exc.value) == f"weights sum to {STANDIN}, expected 1"

    @pytest.mark.parametrize(
        "build, error, value, shown, template",
        [
            (lambda v: Schedule(v), SamplerError, "daily", "'daily'", "unknown schedule kind {}"),
            (lambda v: Schedule("fixed", v), SamplerError, (0, 0), "(0, 0)", "not a Context: {}"),
            (lambda v: sample_trial(socks_on(), v, 0, 1), SamplerError, (0, 0), "(0, 0)", "not a Context: {}"),
            (lambda v: sample_trial(socks_on(), Context(v, 0), 0, 1), SamplerError, 7, "7", "model has no context ({},0)"),
            (
                lambda v: run_experiment(socks_on(), ExperimentPlan(1, 1, Schedule.fixed(Context(0, v)))),
                SamplerError,
                7,
                "7",
                "fixed schedule names a context outside the scenario: (0,{})",
            ),
            (
                lambda v: socks_on().alice_response.outcome_probs(v, "lambda1"),
                ModelError,
                7,
                "7",
                "alice response undefined for setting {}, cause 'lambda1'",
            ),
            (
                lambda v: socks_on().alice_response.outcome_probs(0, v),
                ModelError,
                "mu",
                "'mu'",
                "alice response undefined for setting 0, cause {}",
            ),
            (
                lambda v: ResponseFunction(v, {}).outcome_probs(0, "mu"),
                ModelError,
                "alice",
                "alice",
                "{} response undefined for setting 0, cause 'mu'",
            ),
            (lambda v: socks_on().cause(v), ModelError, "mu", "'mu'", "no cause {} in model"),
            (
                lambda v: EmpiricalBehavior(socks_on().scenario, {}).frequencies(Context(0, v)),
                SamplerError,
                1,
                "1",
                "context (0,{}) was never sampled",
            ),
            (
                lambda v: validate_model(ContextualModel(socks_off().scenario, {**socks_off().blocks, v: None})),
                ModelError,
                "mu",
                "'mu'",
                "block for unknown context {}",
            ),
            (lambda v: deterministic_row(2, v), ModelError, 3, "3", "outcome {} out of range 1..2"),
            (
                lambda v: outcome_sign(v),
                ScenarioShapeError,
                3,
                "3",
                "outcome index {} has no signed value; only two-outcome settings map onto +1/-1",
            ),
            (
                lambda v: builtin_document(v),
                UnknownBuiltinError,
                "socks",
                "'socks'",
                "no builtin named {}; available: socks-on, socks-off, socks-color, singlet-optimal",
            ),
            (
                lambda v: validate_model(_with_causes(Cause(v, Fraction(1, 2)), Cause(v, Fraction(1, 2)))),
                ModelError,
                "mu",
                "['mu', 'mu']",
                "model: duplicate cause ids {}",
            ),
            (
                lambda v: validate_model(_with_causes(Cause(v, Fraction(-1, 2)), Cause("b", Fraction(3, 2)))),
                ModelError,
                "mu",
                "'mu'",
                "model: negative weight for cause {}",
            ),
            (
                lambda v: validate_model(_with_causes(Cause(v, math.inf), Cause("b", 0.5))),
                ModelError,
                "mu",
                "['mu']",
                "model: non-finite weight for cause(s) {}",
            ),
        ],
        ids=[
            "schedule kind",
            "schedule context",
            "sample_trial context",
            "sample_trial context outside",
            "run_experiment fixed context",
            "response setting",
            "response cause",
            "response party",
            "model cause",
            "unsampled context",
            "unknown block key",
            "deterministic_row",
            "outcome_sign",
            "builtin_document",
            "duplicate cause ids",
            "negative weight",
            "non-finite weight",
        ],
    )
    def test_messages_naming_a_value(self, build, error, value, shown, template):
        """A value that prints is named as before (``shown``); one too long to print by its
        stand-in, and a list holding one by the list's."""
        huge = "<list too long to print>" if shown.startswith("[") else "<5001-digit integer>"
        for given, text in ((value, shown), (10**5000, huge)):
            with pytest.raises(error) as exc:
                build(given)
            assert str(exc.value) == template.format(text)


def test_mix_rejects_a_nan_weight():
    table = exact_behavior(socks_on())
    for components in ([(math.nan, table)], [(0.5, table), (math.nan, table), (0.5, table)]):
        with pytest.raises(MixtureError) as exc:
            mix(components)
        assert exc.value.code == "BAD_WEIGHTS"


@pytest.mark.parametrize(
    "key",
    [(Context(5, 0), 1, 1), (Context(-1, 0), 1, 1), (Context(0, 2), 1, 1), (Context(0, 0), 3, 1)],
    ids=repr,
)
def test_certificate_key_outside_the_scenario(key):
    table = exact_behavior(socks_on())
    certificate = InfeasibilityCertificate(
        table.scenario, {key: Fraction(1)}, Fraction(2), Fraction(1)
    )
    for check in (certificate.strategy_bound, lambda: certificate.verify(table)):
        with pytest.raises(ScenarioShapeError) as exc:
            check()
        assert exc.value.code == "SCENARIO_SHAPE"


def test_cli_caps_the_diagnostics_it_prints(tmp_path, capsys):
    """150x150 settings of 2 outcomes with an empty [behavior]: one missing-row
    diagnostic per context, of which the CLI prints a fixed number."""
    alice = " ".join(f"A{i}" for i in range(150))
    bob = " ".join(f"B{i}" for i in range(150))
    text = f"bellbox-format 1\n\n[scenario]\nalice = {alice}\nbob = {bob}\n\n[behavior]\n"
    assert len(parse_document(text).diagnostics) == 150 * 150
    path = tmp_path / "wide.bellbox"
    path.write_text(text)
    assert run_cli(["classify", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == MAX_PRINTED_DIAGNOSTICS + 2
    assert all(line.startswith(f"{path}:error:") for line in lines[:MAX_PRINTED_DIAGNOSTICS])
    assert lines[-2:] == [
        f"{path}: … {150 * 150 - MAX_PRINTED_DIAGNOSTICS} more diagnostics",
        f"error: {path} did not parse",
    ]


NON_REAL = [("x", "(str) {} x"), (None, "(NoneType) {} None"), (Decimal("0.5"), "(Decimal) {} 0.5")]


class TestRealnessOfWeightsAndEntries:
    """A weight or entry that is neither a float nor a ``numbers.Real`` is refused with a typed
    error that names it, checked in entry order before the sign, so a negative value ahead of it
    is still reported as negative."""

    @pytest.mark.parametrize("value, shown", NON_REAL, ids=repr)
    def test_mix(self, value, shown):
        table = exact_behavior(socks_on())
        with pytest.raises(MixtureError) as exc:
            mix([(Fraction(1, 2), table), (value, table)])
        assert (exc.value.code, str(exc.value)) == ("BAD_WEIGHTS", "non-numeric " + shown.format("weight"))
        with pytest.raises(MixtureError) as exc:
            mix([(-1, table), (value, table)])
        assert str(exc.value) == "negative weight -1"

    @pytest.mark.parametrize("value, shown", NON_REAL, ids=repr)
    def test_validate_model(self, value, shown):
        model = socks_on()
        with pytest.raises(ModelError) as exc:
            validate_model(_with_causes(Cause("lambda1", value), *model.causes[1:]))
        expected = f"model: non-numeric {shown.format('weight')} for cause 'lambda1'"
        assert (exc.value.code, str(exc.value)) == ("MODEL_INVALID", expected)
        with pytest.raises(ModelError) as exc:
            validate_model(_with_causes(Cause("lambda1", Fraction(-1, 4)), Cause("lambda2", value)))
        assert str(exc.value) == "model: negative weight for cause 'lambda1'"
        rows = {**model.alice_response.table, (1, "lambda2"): (Fraction(1), value)}
        hostile = NonContextualModel(
            model.scenario, model.causes, ResponseFunction("alice", rows), model.bob_response
        )
        with pytest.raises(ModelError) as exc:
            validate_model(hostile)
        expected = f"model: alice row for setting 1, cause 'lambda2' has a non-numeric {shown.format('entry')}"
        assert (exc.value.code, str(exc.value)) == ("MODEL_INVALID", expected)

    @pytest.mark.parametrize("value, shown", NON_REAL, ids=repr)
    def test_decomposition(self, value, shown):
        scenario = socks_on().scenario
        strategies = enumerate_strategies(scenario)
        with pytest.raises(MixtureError) as exc:
            LocalDecomposition(scenario, ((strategies[0], value),)).to_behavior()
        assert (exc.value.code, str(exc.value)) == ("BAD_WEIGHTS", "non-numeric " + shown.format("weight"))
        weights = ((strategies[0], -1), (strategies[1], value))
        with pytest.raises(MixtureError) as exc:
            LocalDecomposition(scenario, weights).to_behavior()
        assert str(exc.value) == f"negative weight in {printable([-1, value])}"


def test_context_labels_go_through_printable():
    huge = 10**5000
    scenario = Scenario((huge, "A'"), ("B", "B'"), (2, 2), (2, 2))
    result = validate_behavior(Behavior(scenario, {Context(0, 0): ((1, 0), (0, 0))}))
    assert (result.code, result.message) == ("MISSING_CONTEXT", "no table for context (<5001-digit integer>,B')")
    model = socks_off()
    scenario = Scenario(("A", huge), ("B", "B'"), (2, 2), (2, 2))
    blocks = {**model.blocks, Context(1, 1): replace(model.blocks[Context(1, 1)], causes=())}
    assert validate_model(ContextualModel(scenario, model.blocks)).scenario is scenario
    with pytest.raises(ModelError) as exc:
        validate_model(ContextualModel(scenario, blocks))
    assert str(exc.value) == "context (<5001-digit integer>,B'): empty cause set"


@pytest.mark.parametrize("name, shown", [(["x"], "['x']"), ({}, "{}")], ids=repr)
def test_builtin_document_with_an_unhashable_name(name, shown):
    with pytest.raises(UnknownBuiltinError) as exc:
        builtin_document(name)
    assert str(exc.value) == f"no builtin named {shown}; available: {', '.join(BUILTIN_NAMES)}"

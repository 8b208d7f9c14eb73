"""Error branches of the parser, the CLI, mixtures, model checks and the sampler, each pinned
by exception type, code, message and, for diagnostics, line and column."""

from fractions import Fraction

import pytest

from bellbox import (
    EmpiricalBehavior,
    MixtureError,
    ModelError,
    NonContextualModel,
    ResponseFunction,
    SamplerError,
    Scenario,
    builtin_document,
    mix,
    parse_document,
    serialize_document,
    singlet_behavior,
    singlet_optimal_directions,
    socks_color,
    socks_on,
    validate_model,
)
from bellbox.cli import run_cli

SOCKS_ON = serialize_document(builtin_document("socks-on"))
SINGLET = serialize_document(builtin_document("singlet-optimal"))
RESPOND_FIRST = "SYNTAX: 'respond' before any 'cause' line"


def _diagnostics(text):
    result = parse_document(text)
    assert not result.ok
    return [(d.severity, d.line, d.column, d.message, d.token) for d in result.diagnostics]


@pytest.mark.parametrize(
    "text, expected",
    [
        (SOCKS_ON + "[scenario]\nalice = A\n", [("error", 34, 1, "SYNTAX: duplicate section", "[scenario]")]),
        (
            SOCKS_ON.replace("[metadata]\n", "[metadata]\nname = x\n", 1),
            [("error", 6, 1, "SYNTAX: duplicate metadata key", "name")],
        ),
        (
            SOCKS_ON.replace("[scenario]\n", "[scenario]\nbob = B B'\n", 1),
            [("error", 11, 1, "SYNTAX: duplicate scenario key", "bob")],
        ),
        (
            SOCKS_ON.replace("weight 1/4", "weight -1/2", 1),
            [("error", 14, 22, "UNNORMALIZED: negative weight in the cause set", "")]
            + [("error", line, 1, RESPOND_FIRST, "respond") for line in range(15, 19)]
            + [("error", 19, 1, "UNNORMALIZED: cause weights in the cause set sum to 3/4", "")],
        ),
        (SINGLET + "bob_angles_deg = 1 2\n", [("error", 16, 1, "SYNTAX: duplicate key", "bob_angles_deg")]),
    ],
    ids=["section", "metadata key", "scenario key", "negative cause weight", "singlet key"],
)
def test_parser_diagnostics(text, expected):
    assert _diagnostics(text) == expected


@pytest.mark.parametrize(
    "schedule, message",
    [
        ("fixed:A", "fixed schedule syntax is fixed:<x>,<y>"),
        ("fixed:A,B,B", "fixed schedule syntax is fixed:<x>,<y>"),
        ("fixed:Z,B", "'Z' is not an alice setting"),
        ("fixed:A,Z", "'Z' is not a bob setting"),
    ],
)
def test_cli_fixed_schedule_errors(schedule, message, capsys):
    assert run_cli(["sample", "socks-on", "--schedule", schedule]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_mix_of_nothing():
    with pytest.raises(MixtureError) as exc:
        mix([])
    assert (exc.value.code, str(exc.value)) == ("BAD_WEIGHTS", "mixture needs at least one component")


def test_validate_model_empty_cause_set():
    model = socks_on()
    empty = NonContextualModel(model.scenario, (), model.alice_response, model.bob_response)
    with pytest.raises(ModelError) as exc:
        validate_model(empty)
    assert (exc.value.code, str(exc.value)) == ("MODEL_INVALID", "model: empty cause set")


def test_validate_model_row_of_the_wrong_length():
    model = socks_on()
    rows = {**model.alice_response.table, (0, "lambda1"): (Fraction(1), Fraction(0), Fraction(0))}
    long_row = NonContextualModel(
        model.scenario, model.causes, ResponseFunction("alice", rows), model.bob_response
    )
    with pytest.raises(ModelError) as exc:
        validate_model(long_row)
    expected = "model: alice row for setting 0, cause 'lambda1' has 3 entries, expected 2"
    assert (exc.value.code, str(exc.value)) == ("MODEL_INVALID", expected)


def test_singlet_on_a_non_binary_scenario():
    scenario = Scenario(("A", "A'"), ("B", "B'"), (3, 2), (2, 2))
    with pytest.raises(ModelError) as exc:
        singlet_behavior(singlet_optimal_directions(), scenario)
    expected = "spin measurements are two-outcome; scenario has other counts"
    assert (exc.value.code, str(exc.value)) == ("ANGLES_MISSING", expected)


def test_merge_across_scenarios():
    mine = EmpiricalBehavior(socks_on().scenario, {})
    with pytest.raises(SamplerError) as exc:
        mine.merge(EmpiricalBehavior(socks_color().scenario, {}))
    expected = "cannot merge counts from different scenarios"
    assert (exc.value.code, str(exc.value)) == ("SCENARIO_MISMATCH", expected)

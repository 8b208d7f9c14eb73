"""Sizes the text format cannot carry: long exact values on output, huge tables on input."""

import time
from fractions import Fraction

import pytest

from bellbox import (
    BellboxError,
    Cause,
    ContextBlock,
    ContextualModel,
    ResponseFunction,
    Scenario,
    builtin_document,
    exact_behavior,
    serialize_document,
    validate_model,
)
from bellbox.cli import run_cli
from bellbox.document import (
    MAX_LITERAL_DIGITS,
    MAX_TABLE_CELLS,
    ModelDocument,
    fraction_text,
    parse_document,
)

# Two accepted 4,300-digit denominators.  Each response row sums to 1, so
# the model is valid, but its table entries have 8,600-digit denominators.
LONG_A = int("7" * MAX_LITERAL_DIGITS)
LONG_B = int("3" + "7" * (MAX_LITERAL_DIGITS - 1))


def _long_socks_on() -> str:
    text = serialize_document(builtin_document("socks-on"))
    text = text.replace(
        "respond alice A -> 1 0", f"respond alice A -> 1/{LONG_A} {LONG_A - 1}/{LONG_A}", 1
    )
    return text.replace(
        "respond bob B -> 1 0", f"respond bob B -> 1/{LONG_B} {LONG_B - 1}/{LONG_B}", 1
    )


class TestValuesTooLongToPrint:
    def test_fraction_text(self):
        longest = int("9" * MAX_LITERAL_DIGITS)
        for value in (Fraction(1, 3), Fraction(-longest, 7), Fraction(7, longest)):
            assert fraction_text(value) == str(value)
        for value in (Fraction(longest + 1), Fraction(-(longest + 1), 7), Fraction(1, LONG_A * LONG_B)):
            with pytest.raises(BellboxError) as exc:
                fraction_text(value)
            assert exc.value.code == "TOO_LONG_TO_PRINT"
        with pytest.raises(BellboxError) as exc:
            fraction_text(Fraction(1, LONG_A * LONG_B))
        assert str(exc.value).startswith("<1-digit integer>/<8600-digit integer> is too long to print")

    def test_the_document_is_valid_and_shows(self, tmp_path, capsys):
        path = tmp_path / "long.bellbox"
        path.write_text(_long_socks_on())
        assert parse_document(path.read_text()).ok
        assert run_cli(["show", str(path)]) == 0
        assert capsys.readouterr().out == path.read_text()

    @pytest.mark.parametrize("mode", ["table", "machine"])
    @pytest.mark.parametrize("command", ["exact", "chsh", "nosig", "membership", "classify"])
    def test_cli_exits_1_with_one_error_line(self, tmp_path, capsys, command, mode):
        path = tmp_path / "long.bellbox"
        path.write_text(_long_socks_on())
        assert run_cli([command, str(path), "--output", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[TOO_LONG_TO_PRINT]: ")
        assert "-digit integer>" in lines[0]

    def test_serializing_the_table_raises_the_input_error(self):
        document = parse_document(_long_socks_on()).document
        behavior = exact_behavior(document.model())
        with pytest.raises(BellboxError) as exc:
            serialize_document(ModelDocument(scenario=behavior.scenario, behavior=behavior))
        assert exc.value.code == "TOO_LONG_TO_PRINT"


def _one_row_behavior(alice_outcomes: str) -> str:
    return (
        "bellbox-format 1\n\n[scenario]\nalice = A\nbob = B\n"
        f"alice_outcomes = {alice_outcomes}\nbob_outcomes = 2\n\n"
        "[behavior]\nP(1,1 | A,B) = 1\n"
    )


class TestTableCellCap:
    @pytest.mark.parametrize(
        "count, cells",
        [("1000000", "2000000"), ("9" * MAX_LITERAL_DIGITS, "<4301-digit integer>")],
        ids=["7 digits", "4300 digits"],
    )
    def test_oversized_scenario_is_one_quick_diagnostic(self, count, cells):
        start = time.perf_counter()
        result = parse_document(_one_row_behavior(count))
        assert time.perf_counter() - start < 0.5
        assert result.document is None
        assert [(d.line, d.message) for d in result.diagnostics] == [
            (4, f"SYNTAX: scenario has {cells} table cells, more than {MAX_TABLE_CELLS}")
        ]

    def test_cells_are_summed_over_every_context(self):
        # Two alice settings of 3 outcomes and one bob setting of n: 6n cells.
        n = MAX_TABLE_CELLS // 6 + 1
        text = (
            "bellbox-format 1\n\n[scenario]\nalice = A A'\nalice_outcomes = 3 3\nbob = B\n"
            f"bob_outcomes = {n}\n\n[behavior]\nP(1,1 | A,B) = 1\nP(1,1 | A',B) = 1\n"
        )
        assert [d.message for d in parse_document(text).diagnostics] == [
            f"SYNTAX: scenario has {6 * n} table cells, more than {MAX_TABLE_CELLS}"
        ]

    def test_a_scenario_at_the_cap_parses(self):
        assert MAX_TABLE_CELLS % 2 == 0
        assert parse_document(_one_row_behavior(str(MAX_TABLE_CELLS // 2))).ok


_SCENARIO_HEAD = "bellbox-format 1\n\n[scenario]\n"
_TOKENS = 20_000


class TestManyTokensOnOneLine:
    """A line of many tokens, each with its own diagnostic, parses in one pass over the line."""

    @pytest.mark.parametrize(
        "text, diagnostics",
        [
            (
                _SCENARIO_HEAD
                + "alice = A\nbob = B\nalice_outcomes = "
                + " ".join(["1"] * _TOKENS)
                + "\nbob_outcomes = 2\n",
                _TOKENS + 2,
            ),
            (
                _SCENARIO_HEAD
                + "alice = "
                + " ".join(["A"] * _TOKENS)
                + "\nbob = B\nalice_outcomes = 2\nbob_outcomes = 2\n",
                _TOKENS,
            ),
            (
                _SCENARIO_HEAD
                + "alice = "
                + " ".join(["@"] * _TOKENS)
                + "\nbob = B\nalice_outcomes = 2\nbob_outcomes = 2\n",
                _TOKENS + 2,
            ),
            (
                _SCENARIO_HEAD
                + "alice = A\nbob = B\n\n[singlet]\nalice_angles_deg = "
                + " ".join(["x"] * _TOKENS)
                + "\nbob_angles_deg = 0\n",
                _TOKENS + 1,
            ),
        ],
        ids=["bad outcome counts", "duplicate labels", "bad labels", "bad angles"],
    )
    def test_one_diagnostic_per_token_is_quick(self, text, diagnostics):
        start = time.perf_counter()
        result = parse_document(text)
        assert time.perf_counter() - start < 0.5
        assert result.document is None
        assert len(result.diagnostics) == diagnostics
        # Each token is one character, so the last one on the long line is at its length.
        assert max(d.column for d in result.diagnostics) == max(map(len, text.splitlines()))

    def test_many_distinct_labels_are_quick(self):
        labels = " ".join(f"A{i}" for i in range(_TOKENS))
        start = time.perf_counter()
        result = parse_document(_SCENARIO_HEAD + f"alice = {labels}\nbob = B\n")
        assert time.perf_counter() - start < 0.5
        # The scenario reads; only the payload is missing.
        [diagnostic] = result.diagnostics
        assert diagnostic.message.startswith("SYNTAX: document needs exactly one of [behavior]")


class TestManyContextsAndCauses:
    """Model checks stay linear in the number of contexts and of causes."""

    def test_a_contextual_model_at_the_cell_cap_validates_quickly(self):
        n = 158
        assert (2 * n) ** 2 <= MAX_TABLE_CELLS
        scenario = Scenario.binary([f"A{i}" for i in range(n)], [f"B{i}" for i in range(n)])
        one = (Fraction(1), Fraction(0))
        blocks = {
            ctx: ContextBlock(
                (Cause("c", Fraction(1)),),
                ResponseFunction("alice", {(ctx.alice, "c"): one}),
                ResponseFunction("bob", {(ctx.bob, "c"): one}),
            )
            for ctx in scenario.contexts()
        }
        model = ContextualModel(scenario, blocks)
        start = time.perf_counter()
        assert validate_model(model) is model
        assert time.perf_counter() - start < 1.0

    def test_twenty_thousand_causes_parse_quickly(self):
        k = 20_000
        lines = ["bellbox-format 1", "[scenario]", "alice = A", "bob = B", "[noncontextual]"]
        for i in range(k):
            lines += [f"cause c{i} weight 1/{k}", "respond alice A -> 1 0", "respond bob B -> 0 1"]
        lines.append("cause c0 weight 0")
        text = "\n".join(lines) + "\n"
        seconds = []
        for _ in range(2):  # the faster of two parses, so one stall on a busy host does not count
            start = time.perf_counter()
            result = parse_document(text)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 1.0
        assert [d.render() for d in result.diagnostics] == [
            f"error:{len(lines)}:7: SYNTAX: duplicate cause id near 'c0'"
        ]

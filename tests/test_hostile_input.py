"""Hostile input: non-finite entries and oversized literals are clean errors."""

import math
import random

import pytest

from bellbox import (
    BUILTIN_NAMES,
    Behavior,
    Context,
    InvalidBehaviorError,
    builtin_document,
    classify,
    local_membership,
    parse_document,
    serialize_document,
    validate_behavior,
)
from bellbox.cli import run_cli
from bellbox.document import MAX_LITERAL_DIGITS
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

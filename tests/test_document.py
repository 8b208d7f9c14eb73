"""Document parsing, canonical serialization, builtins, and fuzz totality."""

import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest

from bellbox import document
from bellbox import (
    BUILTIN_NAMES,
    Behavior,
    BellboxError,
    Cause,
    Context,
    ModelDocument,
    ModelError,
    NonContextualModel,
    ResponseFunction,
    Scenario,
    SingletSpec,
    UnknownBuiltinError,
    builtin_document,
    exact_behavior,
    parse_document,
    serialize_document,
    socks_off,
    socks_on,
    validate_model,
)
from _docgen import mutate_text, random_document
from _tables import SOCKS_ON_TABLE, UNIFORM_TABLE, behavior_from, STANDARD_SCENARIO

F = Fraction


class TestBuiltins:
    def test_names(self):
        assert BUILTIN_NAMES == (
            "socks-on",
            "socks-off",
            "socks-color",
            "singlet-optimal",
        )

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_each_builtin_parses_back(self, name):
        doc = builtin_document(name)
        result = parse_document(serialize_document(doc))
        assert result.ok, [d.render() for d in result.diagnostics]
        assert result.document == doc

    def test_unknown_name(self):
        with pytest.raises(UnknownBuiltinError) as exc:
            builtin_document("nonexistent")
        assert exc.value.code == "UNKNOWN_BUILTIN"

    def test_socks_on_document_behavior(self):
        doc = builtin_document("socks-on")
        assert doc.kind == "noncontextual"
        assert doc.to_behavior() == behavior_from(STANDARD_SCENARIO, SOCKS_ON_TABLE)

    def test_socks_on_document_chsh_combination(self):
        from bellbox import expectation

        b = builtin_document("socks-on").to_behavior()
        e = [expectation(b, c) for c in b.scenario.contexts()]
        assert e[0] + e[1] + e[2] - e[3] == 2

    def test_singlet_optimal_angles(self):
        doc = builtin_document("singlet-optimal")
        assert doc.kind == "singlet"
        assert doc.singlet.alice_angles_deg == (0.0, 90.0)
        assert doc.singlet.bob_angles_deg == (45.0, 135.0)

    def test_serialization_is_idempotent(self):
        for name in BUILTIN_NAMES:
            text = serialize_document(builtin_document(name))
            again = serialize_document(parse_document(text).document)
            assert again == text


BEHAVIOR_DOC = """\
bellbox-format 1

[scenario]
alice = A A'
bob = B B'

[behavior]
P(1,1 | A,B) = 1/4
P(1,2 | A,B) = 1/4
P(2,1 | A,B) = 1/4
P(2,2 | A,B) = 1/4
P(1,1 | A,B') = 1/4
P(1,2 | A,B') = 1/4
P(2,1 | A,B') = 1/4
P(2,2 | A,B') = 1/4
P(1,1 | A',B) = 1/4
P(1,2 | A',B) = 1/4
P(2,1 | A',B) = 1/4
P(2,2 | A',B) = 1/4
P(1,1 | A',B') = 1/4
P(1,2 | A',B') = 1/4
P(2,1 | A',B') = 1/4
P(2,2 | A',B') = 1/4
"""


class TestParsing:
    def test_uniform_behavior_document(self):
        result = parse_document(BEHAVIOR_DOC)
        assert result.ok
        assert result.document.to_behavior() == behavior_from(
            STANDARD_SCENARIO, UNIFORM_TABLE
        )

    def test_outcome_counts_default_to_two(self):
        assert parse_document(BEHAVIOR_DOC).document.scenario.alice_outcomes == (2, 2)

    def test_sparse_zeros_allowed(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nP(1,1 | A,B) = 1/2\nP(2,2 | A,B) = 1/2\n"
        )
        result = parse_document(text)
        assert result.ok
        assert result.document.behavior.prob(Context(0, 0), 1, 2) == 0

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# leading comment\nbellbox-format 1\n\n[scenario]  # trailing\n"
            "alice = A\nbob = B\n# middle\n[behavior]\nP(1,1 | A,B) = 1  # done\n"
        )
        assert parse_document(text).ok

    def test_comment_follows_exactly_the_str_isspace_characters(self):
        # A '#' starts a comment after a character for which str.isspace()
        # holds; the parser's compiled pattern must agree on every code point.
        chars = [chr(c) for c in range(sys.maxunicode + 1)]
        text = "".join(c + "#" for c in chars)
        hits = [m.start() // 2 for m in document._COMMENT_RE.finditer(text)]
        assert hits == [i for i, c in enumerate(chars) if c.isspace()]
        # Columns come from the same class: its tokens are str.split()'s.
        assert [m.group() for m in document._TOKEN_RE.finditer(text)] == text.split()

    def test_unnormalized_cause_set_names_the_block(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[noncontextual]\n"
            "cause c1 weight 1/2\nrespond alice A -> 1 0\nrespond bob B -> 1 0\n"
            "cause c2 weight 1/4\nrespond alice A -> 0 1\nrespond bob B -> 0 1\n"
        )
        result = parse_document(text)
        assert not result.ok
        messages = [d.message for d in result.errors()]
        assert any("UNNORMALIZED" in m and "3/4" in m for m in messages)

    def test_unknown_label_position(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nP(1,1 | A,Bogus) = 1\n"
        )
        result = parse_document(text)
        assert not result.ok
        diag = result.errors()[0]
        assert diag.message.startswith("UNKNOWN_LABEL")
        assert diag.line == 6
        assert diag.token == "Bogus"
        assert text.splitlines()[diag.line - 1][diag.column - 1 :].startswith("Bogus")

    def test_version_unsupported(self):
        result = parse_document("bellbox-format 2\n[scenario]\nalice = A\nbob = B\n")
        assert not result.ok
        assert any("VERSION_UNSUPPORTED" in d.message for d in result.errors())

    def test_missing_version_header(self):
        result = parse_document("[scenario]\nalice = A\nbob = B\n")
        assert not result.ok
        assert any("SYNTAX" in d.message for d in result.errors())

    def test_decimal_gets_note_and_snaps(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nP(1,1 | A,B) = 0.5\nP(2,2 | A,B) = 0.5\n"
        )
        result = parse_document(text)
        assert result.ok
        notes = [d for d in result.diagnostics if d.severity == "note"]
        assert len(notes) == 2
        value = result.document.behavior.prob(Context(0, 0), 1, 1)
        assert value == F(1, 2) and isinstance(value, Fraction)

    def test_float_mode_keeps_floats(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nnumbers = float\nP(1,1 | A,B) = 0.5\nP(2,2 | A,B) = 0.5\n"
        )
        result = parse_document(text)
        assert result.ok
        value = result.document.behavior.prob(Context(0, 0), 1, 1)
        assert value == 0.5 and isinstance(value, float)
        assert not [d for d in result.diagnostics if d.severity == "note"]

    def test_second_numbers_key_is_a_duplicate(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nnumbers = float\n  numbers = exact\n"
            "P(1,1 | A,B) = 0.5\nP(2,2 | A,B) = 0.5\n"
        )
        result = parse_document(text)
        assert not result.ok
        assert [d.render() for d in result.errors()] == [
            "error:7:3: SYNTAX: duplicate behavior key near 'numbers'"
        ]

    def test_duplicate_entry_rejected(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nP(1,1 | A,B) = 1/2\nP(1,1 | A,B) = 1/2\n"
        )
        result = parse_document(text)
        assert not result.ok
        assert any("duplicate" in d.message for d in result.errors())

    def test_respond_before_cause(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[noncontextual]\nrespond alice A -> 1 0\n"
        )
        result = parse_document(text)
        assert not result.ok
        assert any("before any 'cause'" in d.message for d in result.errors())

    def test_missing_response_row(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A A'\nbob = B\n"
            "[noncontextual]\ncause c1 weight 1\n"
            "respond alice A -> 1 0\nrespond bob B -> 1 0\n"
        )
        result = parse_document(text)
        assert not result.ok
        assert any("no response for alice setting A'" in d.message for d in result.errors())

    def test_contextual_missing_block(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A A'\nbob = B\n"
            "[contextual]\ncontext A B\ncause k weight 1\n"
            "respond alice A -> 1 0\nrespond bob B -> 1 0\n"
        )
        result = parse_document(text)
        assert not result.ok
        assert any("missing block for context (A',B)" in d.message for d in result.errors())

    def test_two_payload_sections_rejected(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nP(1,1 | A,B) = 1\n"
            "[singlet]\nalice_angles_deg = 0\nbob_angles_deg = 0\n"
        )
        result = parse_document(text)
        assert not result.ok
        assert any("exactly one of" in d.message for d in result.errors())

    def test_zero_denominator_is_a_diagnostic(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nP(1,1 | A,B) = 1/0\n"
        )
        result = parse_document(text)
        assert not result.ok
        assert any("zero denominator" in d.message for d in result.errors())

    def test_singlet_needs_binary_outcomes(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "alice_outcomes = 3\n"
            "[singlet]\nalice_angles_deg = 0\nbob_angles_deg = 45\n"
        )
        result = parse_document(text)
        assert not result.ok
        assert any("two-outcome" in d.message for d in result.errors())

    def test_negative_float_entry_rejected(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nnumbers = float\nP(1,1 | A,B) = -0.5\nP(2,2 | A,B) = 1.5\n"
        )
        result = parse_document(text)
        assert not result.ok
        assert any("negative" in d.message for d in result.errors())

    def test_empty_model_sections(self):
        for section in ("[noncontextual]", "[contextual]"):
            text = f"bellbox-format 1\n[scenario]\nalice = A\nbob = B\n{section}\n"
            result = parse_document(text)
            assert not result.ok
            assert result.errors()


_HEAD_2X2 = "bellbox-format 1\n[scenario]\nalice = A A'\nbob = B B'\n"
_SHARED_SET = (
    "cause k weight 1\nrespond alice A -> 1 0\nrespond alice A' -> 1 0\n"
    "respond bob B -> 1 0\nrespond bob B' -> 1 0\n"
)
_ALL_CONTEXTS = (("A", "B"), ("A", "B'"), ("A'", "B"), ("A'", "B'"))


def _blocks(*contexts: tuple[str, str]) -> str:
    return "".join(
        f"context {x} {y}\ncause k weight 1\nrespond alice {x} -> 1 0\nrespond bob {y} -> 1 0\n"
        for x, y in contexts
    )


# Each model-section diagnostic that depends on the section kind, pinned by value:
# (line, column, message, token) of every diagnostic, in order.
MODEL_SECTION_DIAGNOSTICS = {
    "duplicate-context": (
        _HEAD_2X2 + "[contextual]\n" + _blocks(*_ALL_CONTEXTS) + _blocks(("A'", "B")),
        [
            (22, 9, "SYNTAX: duplicate block for context (A',B)", ""),
            (23, 1, "SYNTAX: 'cause' before any 'context' line", ""),
            (24, 1, "SYNTAX: 'respond' before any 'context' line", ""),
            (25, 1, "SYNTAX: 'respond' before any 'context' line", ""),
        ],
    ),
    "context-in-noncontextual": (
        _HEAD_2X2 + "[noncontextual]\ncontext A B\n" + _SHARED_SET,
        [(6, 1, "SYNTAX: expected 'cause' or 'respond'", "context")],
    ),
    "cause-before-context": (
        _HEAD_2X2 + "[contextual]\ncause k weight 1\nrespond alice A -> 1 0\n"
        + _blocks(*_ALL_CONTEXTS),
        [
            (6, 1, "SYNTAX: 'cause' before any 'context' line", ""),
            (7, 1, "SYNTAX: 'respond' before any 'context' line", ""),
        ],
    ),
    "context-arity": (
        _HEAD_2X2 + "[contextual]\ncontext A\n" + _blocks(*_ALL_CONTEXTS) + "context A B B'\n",
        [
            (6, 1, "SYNTAX: expected 'context <x> <y>'", "context"),
            (23, 1, "SYNTAX: expected 'context <x> <y>'", "context"),
        ],
    ),
    "missing-block": (
        _HEAD_2X2 + "# blocks\n\n[contextual]\n" + _blocks(("A", "B"), ("A'", "B'")),
        [
            (8, 1, "SYNTAX: missing block for context (A,B')", ""),
            (8, 1, "SYNTAX: missing block for context (A',B)", ""),
        ],
    ),
    "missing-every-block": (
        _HEAD_2X2 + "\n[contextual]\n",
        [
            (1, 1, "SYNTAX: missing block for context (A,B)", ""),
            (1, 1, "SYNTAX: missing block for context (A,B')", ""),
            (1, 1, "SYNTAX: missing block for context (A',B)", ""),
            (1, 1, "SYNTAX: missing block for context (A',B')", ""),
        ],
    ),
    "empty-shared-set": (
        _HEAD_2X2 + "\n[noncontextual]\n",
        [(1, 1, "SYNTAX: the cause set declares no causes", "")],
    ),
    "empty-block": (
        _HEAD_2X2 + "[contextual]\ncontext A B\n" + _blocks(*_ALL_CONTEXTS[1:]),
        [(6, 1, "SYNTAX: context (A,B) declares no causes", "")],
    ),
    "unknown-line-contextual": (
        _HEAD_2X2 + "[contextual]\n" + _blocks(*_ALL_CONTEXTS) + "weight k 1\n",
        [(22, 1, "SYNTAX: expected 'context', 'cause' or 'respond'", "weight")],
    ),
    "unknown-line-noncontextual": (
        _HEAD_2X2 + "[noncontextual]\n" + _SHARED_SET + "weight k 1\n",
        [(11, 1, "SYNTAX: expected 'cause' or 'respond'", "weight")],
    ),
    "unknown-context-label": (
        _HEAD_2X2 + "[contextual]\ncontext A B''\ncontext A'' B\n" + _blocks(*_ALL_CONTEXTS),
        [
            (6, 11, "UNKNOWN_LABEL: not a bob setting", "B''"),
            (7, 9, "UNKNOWN_LABEL: not an alice setting", "A''"),
        ],
    ),
    "setting-outside-context": (
        _HEAD_2X2 + "[contextual]\n" + _blocks(*_ALL_CONTEXTS).replace(
            "respond bob B' -> 1 0\n", "respond bob B' -> 1 0\nrespond bob B -> 1 0\n", 1
        ),
        [(14, 13, "SYNTAX: setting B is not part of context (A,B')", "B")],
    ),
    "unnormalized-block": (
        _HEAD_2X2 + "[contextual]\n" + _blocks(*_ALL_CONTEXTS).replace("weight 1", "weight 1/2", 1),
        [(7, 1, "UNNORMALIZED: cause weights in context (A,B) sum to 1/2", "")],
    ),
}


@pytest.mark.parametrize("case", sorted(MODEL_SECTION_DIAGNOSTICS))
def test_model_section_diagnostics_are_pinned(case):
    text, expected = MODEL_SECTION_DIAGNOSTICS[case]
    result = parse_document(text)
    assert result.document is None
    got = [(d.line, d.column, d.message, d.token) for d in result.diagnostics]
    assert got == expected
    assert all(d.severity == "error" for d in result.diagnostics)



class TestRoundTrip:
    def test_random_documents_round_trip(self):
        rand = random.Random(1234)
        for _ in range(120):
            doc = random_document(rand)
            text = serialize_document(doc)
            result = parse_document(text)
            assert result.ok, (
                text,
                [d.render() for d in result.errors()],
            )
            assert result.document == doc
            assert serialize_document(result.document) == text

    def test_rationals_serialize_reduced(self):
        text = (
            "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
            "[behavior]\nP(1,1 | A,B) = 2/4\nP(2,2 | A,B) = 4/8\n"
        )
        result = parse_document(text)
        assert result.ok
        out = serialize_document(result.document)
        assert "P(1,1 | A,B) = 1/2" in out
        assert "2/4" not in out

    @pytest.mark.parametrize("key", ["name", "description"])
    @pytest.mark.parametrize(
        "value", ["a #b", "#lead", "  padded  ", "x\ny", "a\x0cb", "a\u2028b", "tail\t"]
    )
    def test_metadata_that_would_not_read_back_is_refused(self, key, value):
        doc = dataclasses.replace(builtin_document("socks-on"), **{key: value})
        with pytest.raises(BellboxError) as exc:
            serialize_document(doc)
        assert exc.value.code == "UNREADABLE_METADATA"

    @pytest.mark.parametrize("value", ["", "a#b", "a = b", "tab\tinside", "[scenario]"])
    def test_metadata_that_reads_back_round_trips(self, value):
        doc = dataclasses.replace(builtin_document("socks-on"), name=value, description=value)
        assert parse_document(serialize_document(doc)).document == doc

    @pytest.mark.parametrize("label", ["A B", "#a", "a=b", "", "é"])
    def test_setting_label_that_would_not_read_back_is_refused(self, label):
        scenario = Scenario.binary((label, "X"), ("B", "Y"))
        doc = ModelDocument(scenario=scenario, behavior=behavior_from(scenario, UNIFORM_TABLE))
        _assert_unreadable(doc, repr(label))

    def test_bob_setting_label_is_checked_too(self):
        scenario = Scenario.binary(("A", "X"), ("B", "Y Z"))
        doc = ModelDocument(scenario=scenario, behavior=behavior_from(scenario, UNIFORM_TABLE))
        _assert_unreadable(doc, "'Y Z'")

    def test_cause_id_that_would_not_read_back_is_refused(self):
        model = socks_on()
        rename = {model.causes[0].id: "lam 1"}
        causes = tuple(Cause(rename.get(c.id, c.id), c.weight) for c in model.causes)
        alice, bob = (
            ResponseFunction(r.party, {(x, rename.get(c, c)): row for (x, c), row in r.table.items()})
            for r in (model.alice_response, model.bob_response)
        )
        renamed = NonContextualModel(model.scenario, causes, alice, bob)
        validate_model(renamed)  # otherwise valid
        doc = ModelDocument(scenario=model.scenario, noncontextual=renamed)
        _assert_unreadable(doc, "'lam 1'")

    # No float equals 1/3 or 2**53 + 1: the one would not parse, the other would read back as 2**53.
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, F(1, 3), 2**53 + 1])
    def test_singlet_angle_that_would_not_read_back_is_refused(self, angle):
        doc = ModelDocument(STANDARD_SCENARIO, singlet=SingletSpec((0.0, angle), (45.0, 135.0)))
        _assert_unreadable(doc, repr(str(angle)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_entry_that_would_not_read_back_is_refused(self, value):
        table = {ctx: ((0.25, 0.25), (0.25, 0.25)) for ctx in STANDARD_SCENARIO.contexts()}
        table[Context(1, 0)] = ((0.25, value), (0.25, 0.25))
        doc = ModelDocument(STANDARD_SCENARIO, behavior=Behavior(STANDARD_SCENARIO, table))
        _assert_unreadable(doc, repr(str(value)))

    def test_float_model_values_read_back_exactly(self):
        # A model section is read exactly, so its floats are written as the p/q of their
        # as_integer_ratio(): they read back with no diagnostic and equal.
        model = socks_on()
        first = model.causes[0].id
        causes = tuple(
            dataclasses.replace(c, weight=w) for c, w in zip(model.causes, (0.125, 0.375, 0.25, 0.25))
        )
        alice = ResponseFunction("alice", {**model.alice_response.table, (0, first): (0.5, 0.5)})
        floats = dataclasses.replace(model, causes=causes, alice_response=alice)
        validate_model(floats)
        doc = ModelDocument(model.scenario, noncontextual=floats)
        text = serialize_document(doc)
        assert f"cause {first} weight 1/8\nrespond alice A -> 1/2 1/2\n" in text
        result = parse_document(text)
        assert result.diagnostics == []
        assert result.document == doc
        assert serialize_document(result.document) == text

    def test_float_weights_normalized_only_as_floats_keep_repr(self):
        # 0.1 and 0.4 are 3602879701896397 / 2**55 and 3602879701896397 / 2**53, so with
        # 1/8 and 3/8 the exact weights sum to 1 + 2**-55, which the reader would refuse.
        # They are written by repr instead and read back as decimals, with a NOTE each.
        model = socks_on()
        causes = tuple(
            dataclasses.replace(c, weight=w) for c, w in zip(model.causes, (0.125, 0.375, 0.1, 0.4))
        )
        floats = dataclasses.replace(model, causes=causes)
        validate_model(floats)  # normalized within FLOAT_ATOL
        text = serialize_document(ModelDocument(model.scenario, noncontextual=floats))
        assert f"cause {causes[2].id} weight 0.1\n" in text
        result = parse_document(text)
        assert [d.severity for d in result.diagnostics] == ["note"] * 4
        read = result.document.noncontextual
        assert [c.weight for c in read.causes] == [F(1, 8), F(3, 8), F(1, 10), F(2, 5)]

    def test_float_row_normalized_only_as_floats_keeps_repr(self):
        model = socks_on()
        row = {(1, model.causes[2].id): (0.1, 0.9)}
        floats = dataclasses.replace(
            model, bob_response=ResponseFunction("bob", {**model.bob_response.table, **row})
        )
        validate_model(floats)
        text = serialize_document(ModelDocument(model.scenario, noncontextual=floats))
        assert "-> 0.1 0.9\n" in text
        result = parse_document(text)
        assert [d.severity for d in result.diagnostics] == ["note"] * 2
        assert result.document.noncontextual.bob_response.outcome_probs(1, model.causes[2].id) == (
            F(1, 10),
            F(9, 10),
        )

    def test_singlet_angle_too_large_for_a_float_is_refused(self):
        doc = ModelDocument(STANDARD_SCENARIO, singlet=SingletSpec((0.0, 10**400), (45.0, 135.0)))
        _assert_unreadable(doc, "'1" + "0" * 400 + "'")

    @pytest.mark.parametrize(
        "angle, text", [(F(90), "90.0"), (90, "90"), (2**53 + 2, "9007199254740994"), (0.1, "0.1")]
    )
    def test_singlet_angle_a_float_equals_reads_back_equal(self, angle, text):
        # An int or a float keeps its repr; another number is written as the float it equals.
        doc = ModelDocument(STANDARD_SCENARIO, singlet=SingletSpec((0.0, angle), (45.0, 135.0)))
        written = serialize_document(doc)
        assert f"alice_angles_deg = 0.0 {text}\n" in written
        result = parse_document(written)
        assert result.diagnostics == []
        assert result.document == doc

    def test_contexts_canonicalized_in_order(self):
        doc = builtin_document("socks-off")
        text = serialize_document(doc)
        blocks = [line for line in text.splitlines() if line.startswith("context ")]
        assert blocks == ["context A B", "context A B'", "context A' B", "context A' B'"]

    def test_contextual_document_with_a_missing_block_is_refused(self):
        # The parser requires every block, so only a library-built document
        # can lack one; serializing it is a model error, not a KeyError.
        model = builtin_document("socks-off").contextual
        blocks = {ctx: block for ctx, block in model.blocks.items() if ctx != Context(1, 1)}
        doc = document.ModelDocument(
            scenario=model.scenario, contextual=dataclasses.replace(model, blocks=blocks)
        )
        with pytest.raises(ModelError) as exc:
            serialize_document(doc)
        assert exc.value.code == "MODEL_INVALID"
        assert "missing block for context (A',B')" in str(exc.value)

    def test_contextual_document_with_an_unknown_block_is_refused(self):
        # The serializer writes one block per scenario context, so a block for
        # a context outside the scenario would be dropped from the text.
        model = socks_off()
        blocks = {**model.blocks, Context(5, 5): model.blocks[Context(0, 0)]}
        doc = ModelDocument(model.scenario, contextual=dataclasses.replace(model, blocks=blocks))
        with pytest.raises(ModelError) as exc:
            serialize_document(doc)
        assert exc.value.code == "MODEL_INVALID"
        assert "block for unknown context (5,5)" in str(exc.value)


def _assert_unreadable(doc, shown: str) -> None:
    with pytest.raises(BellboxError) as exc:
        serialize_document(doc)
    assert exc.value.code == "UNREADABLE_VALUE"
    assert shown in str(exc.value)


class TestFuzzTotality:
    def test_mutated_documents_never_crash(self):
        rand = random.Random(31337)
        sources = [serialize_document(builtin_document(n)) for n in BUILTIN_NAMES]
        sources.append(BEHAVIOR_DOC)
        produced_errors = 0
        for i in range(300):
            text = mutate_text(rand, rand.choice(sources))
            result = parse_document(text)  # must not raise
            n_lines = max(1, len(text.splitlines()))
            for diag in result.diagnostics:
                assert 1 <= diag.line <= n_lines
                assert diag.column >= 1
            if not result.ok:
                produced_errors += 1
                assert result.errors()
        assert produced_errors > 150

    def test_garbage_inputs(self):
        for text in ("", "\n\n\n", "\x00\x01\x02", "[", "]" * 50, "bellbox-format"):
            result = parse_document(text)
            assert not result.ok
            assert result.errors()


@pytest.mark.parametrize("version", [7, 0, 10**5000], ids=["7", "0", "huge"])
def test_serialize_refuses_a_version_it_cannot_write(version):
    """The text carries only ``FORMAT_VERSION``: any other version would parse back to an
    unequal document, so it is refused like any value the text cannot carry."""
    doc = dataclasses.replace(builtin_document("socks-on"), version=version)
    with pytest.raises(BellboxError) as exc:
        serialize_document(doc)
    shown = "<5001-digit integer>" if version == 10**5000 else str(version)
    assert exc.value.code == "UNREADABLE_VALUE"
    assert str(exc.value) == f"format version {shown!r} would not read back from the text format"
    assert serialize_document(dataclasses.replace(doc, version=document.FORMAT_VERSION)).startswith(
        document.FORMAT_HEADER + "\n"
    )

"""A parsed model builds its table from the terms its parser checked.

The parser keeps the ``(weight, alice_row, bob_row)`` terms on the model it
builds, so ``to_behavior`` and ``exact_behavior`` on a parsed noncontextual
or contextual model do not validate it a second time; every other model,
including one made by ``dataclasses.replace``, is validated on its first
``exact_behavior``.  Both must give the same table, value for value and
type for type.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from bellbox import (
    Cause,
    ModelDocument,
    ModelError,
    NonContextualModel,
    ResponseFunction,
    Scenario,
    builtin_document,
    exact_behavior,
    models,
    parse_document,
    serialize_document,
)
from _docgen import random_document
from test_parse_golden import _corpus


def _typed(behavior):
    return [(ctx, a, b, type(v), v) for ctx, a, b, v in behavior.entries()]


def _assert_same_table(doc):
    parsed = doc.to_behavior()
    expected = exact_behavior(doc.model())
    assert parsed == expected
    assert _typed(parsed) == _typed(expected)


def test_parse_golden_corpus_model_documents_match_exact_behavior():
    checked = 0
    for text in _corpus():
        doc = parse_document(text).document
        if doc is not None and doc.model() is not None:
            _assert_same_table(doc)
            checked += 1
    assert checked > 200


def test_random_document_stream_matches_exact_behavior():
    rand = random.Random(2024)
    checked = 0
    for _ in range(300):
        doc = parse_document(serialize_document(random_document(rand))).document
        if doc.model() is not None:
            _assert_same_table(doc)
            checked += 1
    assert checked > 100


def test_parsed_terms_match_a_fresh_lowering_of_the_model():
    # ``dataclasses.replace`` builds a model without the parsed terms, so its
    # table comes from validating and lowering the model's own fields.
    rand = random.Random(2024)
    texts = _corpus() + [serialize_document(random_document(rand)) for _ in range(300)]
    checked = 0
    for text in texts:
        doc = parse_document(text).document
        if doc is not None and doc.model() is not None:
            fresh = exact_behavior(dataclasses.replace(doc.model()))
            assert _typed(doc.to_behavior()) == _typed(fresh)
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("name", ["socks-on", "socks-off", "socks-color"])
def test_parsed_model_document_does_not_validate_again(monkeypatch, name):
    doc = parse_document(serialize_document(builtin_document(name))).document
    # A replaced copy has none of the parsed terms, so this validates the copy
    # and leaves the parsed model as the parser built it.
    expected = _typed(exact_behavior(dataclasses.replace(doc.model())))

    def refuse(model):
        raise AssertionError("a parsed model validated again")

    monkeypatch.setattr(models, "validate_model", refuse)
    assert _typed(doc.to_behavior()) == expected
    assert _typed(exact_behavior(doc.model())) == expected


def _half_weight_model():
    scenario = Scenario.binary(("A",), ("B",))
    one = (Fraction(1), Fraction(0))
    return NonContextualModel(
        scenario,
        (Cause("c1", Fraction(1, 2)),),
        ResponseFunction("alice", {(0, "c1"): one}),
        ResponseFunction("bob", {(0, "c1"): one}),
    )


def test_library_built_document_with_invalid_model_raises():
    model = _half_weight_model()
    doc = ModelDocument(scenario=model.scenario, noncontextual=model)
    with pytest.raises(ModelError) as exc:
        doc.to_behavior()
    assert exc.value.code == "MODEL_INVALID"


def test_replaced_parsed_document_with_broken_block_raises():
    doc = parse_document(serialize_document(builtin_document("socks-off"))).document
    model = doc.contextual
    ctx, block = next(iter(model.blocks.items()))
    heavy = (Cause(block.causes[0].id, Fraction(2)),) + block.causes[1:]
    broken = {**model.blocks, ctx: dataclasses.replace(block, causes=heavy)}
    replaced = dataclasses.replace(doc, contextual=dataclasses.replace(model, blocks=broken))
    with pytest.raises(ModelError) as exc:
        replaced.to_behavior()
    assert exc.value.code == "MODEL_INVALID"
    # The parsed original still builds its table from its own terms.
    assert doc.to_behavior() == exact_behavior(model)


def test_replace_keeps_equality_and_repr_of_parsed_document():
    doc = parse_document(serialize_document(builtin_document("socks-on"))).document
    same = dataclasses.replace(doc)
    assert same == doc
    assert repr(same) == repr(doc)
    assert same.to_behavior() == doc.to_behavior()

"""The mappings of frozen dataclasses are read-only, and a model keeps its checked terms.

``Behavior.table``, ``ResponseFunction.table``, ``ContextualModel.blocks``,
``InfeasibilityCertificate.coefficients``, ``MarginalTable.rows`` and
``EmpiricalBehavior.counts`` are ``SealedDict``s: every mutator raises
``TypeError``, while ``repr``, equality, pickling and copying behave as for
a plain dict.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from bellbox import (
    Cause,
    Context,
    ExperimentPlan,
    ModelError,
    Schedule,
    builtin_document,
    exact_behavior,
    local_membership,
    marginals,
    models,
    parse_document,
    run_experiment,
    serialize_document,
    socks_off,
    socks_on,
)
from bellbox.scenario import SealedDict


def _owners():
    """(owner, field name) for one instance of each dataclass with a mapping field."""
    behavior = exact_behavior(socks_off())
    certificate = local_membership(behavior).certificate
    run = run_experiment(socks_off(), ExperimentPlan(7, 200, Schedule.uniform()))
    return {
        "Behavior.table": (behavior, "table"),
        "ResponseFunction.table": (socks_on().alice_response, "table"),
        "ContextualModel.blocks": (socks_off(), "blocks"),
        "InfeasibilityCertificate.coefficients": (certificate, "coefficients"),
        "MarginalTable.rows": (marginals(behavior), "rows"),
        "EmpiricalBehavior.counts": (run.empirical, "counts"),
    }


OWNERS = sorted(_owners())


def _mutators(mapping):
    key, value = next(iter(mapping.items()))
    return {
        "setitem": lambda: mapping.__setitem__(key, value),
        "delitem": lambda: mapping.__delitem__(key),
        "ior": lambda: mapping.__ior__({key: value}),
        "clear": mapping.clear,
        "pop": lambda: mapping.pop(key),
        "popitem": mapping.popitem,
        "setdefault": lambda: mapping.setdefault(key, value),
        "update": lambda: mapping.update({key: value}),
    }


@pytest.mark.parametrize("name", OWNERS)
def test_every_mutator_raises(name):
    owner, field = _owners()[name]
    mapping = getattr(owner, field)
    before = dict(mapping)
    for mutator in _mutators(mapping).values():
        with pytest.raises(TypeError):
            mutator()
    with pytest.raises(TypeError):
        mapping |= {}
    assert mapping == before


@pytest.mark.parametrize("name", OWNERS)
def test_repr_and_equality_are_those_of_a_plain_dict(name):
    owner, field = _owners()[name]
    mapping = getattr(owner, field)
    plain = dict(mapping)
    assert type(mapping) is SealedDict
    assert isinstance(mapping, dict)
    assert repr(mapping) == repr(plain)
    assert mapping == plain and plain == mapping
    assert not mapping != plain


@pytest.mark.parametrize("name", OWNERS)
def test_pickle_and_deepcopy_round_trip_sealed(name):
    owner, field = _owners()[name]
    mapping = getattr(owner, field)
    for copied in (pickle.loads(pickle.dumps(mapping)), copy.deepcopy(mapping), copy.copy(mapping)):
        assert type(copied) is SealedDict
        assert copied == mapping
    for copied_owner in (pickle.loads(pickle.dumps(owner)), copy.deepcopy(owner)):
        assert type(getattr(copied_owner, field)) is SealedDict
        assert getattr(copied_owner, field) == mapping


def test_a_parsed_models_blocks_cannot_be_swapped():
    doc = parse_document(serialize_document(builtin_document("socks-off"))).document
    other = builtin_document("socks-color").contextual.blocks[Context(1, 0)]
    with pytest.raises(TypeError):
        doc.contextual.blocks[Context(1, 0)] = other
    # The table still comes from the model as it is, checked anew.
    assert doc.to_behavior() == exact_behavior(dataclasses.replace(doc.contextual))


def test_exact_behavior_validates_a_built_model_once(monkeypatch):
    model = socks_off()
    first = exact_behavior(model)

    def refuse(model):
        raise AssertionError("a model validated again")

    monkeypatch.setattr(models, "validate_model", refuse)
    assert exact_behavior(model) == first
    with pytest.raises(AssertionError):
        exact_behavior(dataclasses.replace(model))


def test_a_replaced_built_model_with_a_broken_cause_is_checked():
    model = socks_on()
    exact_behavior(model)
    broken = dataclasses.replace(model, causes=(Cause("lambda1", Fraction(2)),) + model.causes[1:])
    with pytest.raises(ModelError) as exc:
        exact_behavior(broken)
    assert exc.value.code == "MODEL_INVALID"

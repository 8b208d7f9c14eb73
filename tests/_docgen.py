"""Seeded generators for round-trip and robustness testing of documents."""

import random
import re
from fractions import Fraction

from bellbox import (
    Behavior,
    Cause,
    Context,
    ContextBlock,
    ContextualModel,
    ModelDocument,
    NonContextualModel,
    ResponseFunction,
    Scenario,
)
from bellbox.document import SingletSpec

_LABEL_POOL = ["A", "A'", "A''", "B", "B'", "X1", "Y_2", "M+", "left", "right", "up.2"]


def _random_scenario(rand: random.Random, *, binary_only: bool = False) -> Scenario:
    n_alice = rand.randint(1, 3)
    n_bob = rand.randint(1, 3)
    labels = rand.sample(_LABEL_POOL, n_alice + n_bob)
    pick = (lambda: 2) if binary_only else (lambda: rand.randint(2, 3))
    return Scenario(
        tuple(labels[:n_alice]),
        tuple(labels[n_alice:]),
        tuple(pick() for _ in range(n_alice)),
        tuple(pick() for _ in range(n_bob)),
    )


def _random_distribution(rand: random.Random, n: int) -> tuple[Fraction, ...]:
    parts = [rand.randint(1, 16) for _ in range(n)]
    total = sum(parts)
    return tuple(Fraction(p, total) for p in parts)


def _dyadic_distribution(rand: random.Random, n: int) -> tuple[float, ...]:
    # Dyadic weights stay exact as floats, keeping float tables normalized.
    while True:
        parts = [rand.randint(0, 64) for _ in range(n)]
        if sum(parts) > 0:
            break
    shortfall = 64 * n - sum(parts)
    parts[rand.randrange(n)] += shortfall
    return tuple(p / (64 * n) for p in parts)


def _random_behavior(rand: random.Random, scenario: Scenario, as_float: bool) -> Behavior:
    table = {}
    for ctx in scenario.contexts():
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        flat = (
            _dyadic_distribution(rand, na * nb)
            if as_float
            else _random_distribution(rand, na * nb)
        )
        table[ctx] = tuple(tuple(flat[a * nb + b] for b in range(nb)) for a in range(na))
    return Behavior(scenario, table)


def _random_cause_set(rand: random.Random, prefix: str, count: int):
    weights = _random_distribution(rand, count)
    return tuple(Cause(f"{prefix}{i + 1}", w) for i, w in enumerate(weights))


def _random_noncontextual(rand: random.Random, scenario: Scenario) -> NonContextualModel:
    causes = _random_cause_set(rand, "c", rand.randint(1, 4))
    alice = {}
    bob = {}
    for cause in causes:
        for x, n in enumerate(scenario.alice_outcomes):
            alice[(x, cause.id)] = _random_distribution(rand, n)
        for y, n in enumerate(scenario.bob_outcomes):
            bob[(y, cause.id)] = _random_distribution(rand, n)
    return NonContextualModel(
        scenario, causes, ResponseFunction("alice", alice), ResponseFunction("bob", bob)
    )


def _random_contextual(rand: random.Random, scenario: Scenario) -> ContextualModel:
    blocks = {}
    for ctx in scenario.contexts():
        causes = _random_cause_set(rand, f"k{ctx.alice}{ctx.bob}_", rand.randint(1, 3))
        alice = {}
        bob = {}
        for cause in causes:
            alice[(ctx.alice, cause.id)] = _random_distribution(
                rand, scenario.alice_outcomes[ctx.alice]
            )
            bob[(ctx.bob, cause.id)] = _random_distribution(
                rand, scenario.bob_outcomes[ctx.bob]
            )
        blocks[ctx] = ContextBlock(
            causes, ResponseFunction("alice", alice), ResponseFunction("bob", bob)
        )
    return ContextualModel(scenario, blocks)


def random_document(rand: random.Random) -> ModelDocument:
    kind = rand.choice(
        ["behavior", "behavior-float", "noncontextual", "contextual", "singlet"]
    )
    binary_only = kind == "singlet"
    scenario = _random_scenario(rand, binary_only=binary_only)
    name = rand.choice([None, f"doc-{rand.randint(0, 999)}"])
    description = rand.choice([None, "generated for round-trip testing"])
    if kind == "behavior":
        payload = {"behavior": _random_behavior(rand, scenario, as_float=False)}
    elif kind == "behavior-float":
        payload = {"behavior": _random_behavior(rand, scenario, as_float=True)}
    elif kind == "noncontextual":
        payload = {"noncontextual": _random_noncontextual(rand, scenario)}
    elif kind == "contextual":
        payload = {"contextual": _random_contextual(rand, scenario)}
    else:
        payload = {
            "singlet": SingletSpec(
                tuple(
                    float(rand.randint(0, 3600)) / 10
                    for _ in scenario.alice_settings
                ),
                tuple(
                    float(rand.randint(0, 3600)) / 10 for _ in scenario.bob_settings
                ),
            )
        }
    return ModelDocument(scenario=scenario, name=name, description=description, **payload)


_JUNK_TOKENS = ["???", "p/q", "1/0", "[[", "]]", "==", "respond", "cause", "-1/3", "1e999"]


def mutate_text(rand: random.Random, text: str) -> str:
    """One random corruption of a serialized document."""
    lines = text.splitlines()
    op = rand.randrange(8)
    if op == 0 and lines:
        del lines[rand.randrange(len(lines))]
    elif op == 1 and lines:
        lines.insert(rand.randrange(len(lines) + 1), rand.choice(_JUNK_TOKENS))
    elif op == 2 and lines:
        i = rand.randrange(len(lines))
        if lines[i]:
            j = rand.randrange(len(lines[i]))
            lines[i] = lines[i][:j] + rand.choice("()=|,#[]~") + lines[i][j + 1 :]
    elif op == 3:
        lines = lines[: rand.randrange(len(lines) + 1)]
    elif op == 4 and lines:
        i = rand.randrange(len(lines))
        lines[i] = lines[i] + " " + rand.choice(_JUNK_TOKENS)
    elif op == 5:
        lines.insert(0, rand.choice(["bellbox-format 99", "bellbox-format x", ""]))
    elif op == 6 and lines:
        i = rand.randrange(len(lines))
        lines[i] = lines[i].replace("1", "9", 1)
    else:
        i = rand.randrange(len(lines)) if lines else 0
        lines[i:i] = ["[mystery]", "key = value"]
    return "\n".join(lines)


def inflate_literal(rand: random.Random, text: str, digits: int = 5000) -> str:
    """Replace one run of digits in the text with a ``digits``-digit literal.

    Hits version headers, probabilities, outcome counts, ``P(a,b|...)``
    indices, angles and digits inside labels alike.
    """
    runs = [m.span() for m in re.finditer(r"\d+", text)]
    if not runs:
        return text
    start, end = rand.choice(runs)
    tail = "".join(rand.choice("0123456789") for _ in range(digits - 1))
    literal = str(rand.randint(1, 9)) + tail
    return text[:start] + literal + text[end:]

"""The integer exact layer agrees with the ``Fraction`` code it replaced.

``_fraction_exact`` holds the replaced code verbatim.  Seeded inputs cover
rationals with denominators up to 10**40, ints and floats, mixed lists with
the first float at every position, zero rows, NaN, +-inf, unnormalized and
negative entries and values beyond the float range.  Each pair of results
must agree in value, type and text (``repr``), or raise the same exception
type with the same code and message.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

import _fraction_exact as oracle
from bellbox import analysis, models, scenario
from bellbox.analysis import (
    InfeasibilityCertificate,
    LocalDecomposition,
    classify,
    enumerate_strategies,
    local_membership,
)
from bellbox.document import BUILTIN_NAMES, builtin_document
from bellbox.models import (
    Cause,
    ContextBlock,
    ContextualModel,
    NonContextualModel,
    QuantumDirections,
    ResponseFunction,
    random_noncontextual_model,
    singlet_behavior,
)
from bellbox.errors import MixtureError
from bellbox.scenario import Behavior, Scenario, exact_sum, mix

F = Fraction
STANDARD = Scenario.binary(("A", "A'"), ("B", "B'"))
SPECIALS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 1e308, 5e-324)


def _key(value):
    """Value, type and text of a result, recursing into containers."""
    if isinstance(value, (tuple, list)):
        return tuple(_key(v) for v in value)
    if isinstance(value, Behavior):
        return ("Behavior", value.scenario, {c: _key(r) for c, r in value.table.items()})
    return (type(value), repr(value))


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", _key(fn(*args, **kwargs)))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc), getattr(exc, "code", None))


def _same(new, old, *args, **kwargs):
    assert _outcome(new, *args, **kwargs) == _outcome(old, *args, **kwargs), args


# ---------------------------------------------------------------------------
# Seeded values
# ---------------------------------------------------------------------------


def _rational(rng: random.Random, *, negative: bool = False) -> Fraction:
    kind = rng.randrange(6)
    if kind == 0:
        den = rng.randint(1, 13)
    elif kind == 1:
        den = 2 ** rng.randint(0, 60)
    elif kind == 2:
        den = rng.randint(1, 10**12)
    elif kind == 3:
        den = rng.randint(1, 10**40)
    elif kind == 4:
        return F(rng.choice((0, 1)))
    else:
        den = rng.choice((3, 7, 10**40 + 1))
    low = -den if negative and rng.random() < 0.3 else 0
    return F(rng.randint(low, den), den)


def _float(rng: random.Random) -> float:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.random()
    if kind == 1:
        return float(_rational(rng))
    if kind == 2:
        return rng.choice((0.1, 0.25, 2.0**-53, 1 - 2.0**-53, 1e-300))
    if kind == 3:
        return rng.random() * 2.0 ** -rng.randint(1, 80)
    return rng.choice(SPECIALS)


def _value(rng: random.Random) -> object:
    kind = rng.randrange(4)
    if kind == 0:
        return _rational(rng, negative=True)
    if kind == 1:
        return _float(rng)
    if kind == 2:
        return rng.choice((0, 1, 2, -1))
    return rng.choice((F(1, 2), F(1, 3), 0.5, F(10**400), 10**400, F(-(10**400))))


def _sum_lists(rng: random.Random) -> list[list]:
    lists: list[list] = [[], [F(0)], [0], [0.0], [F(0)] * 4, [0.1] * 10, [F(1, 3)] * 3]
    for _ in range(800):
        lists.append([_rational(rng) for _ in range(rng.randint(1, 8))])
    for _ in range(300):
        lists.append([_float(rng) for _ in range(rng.randint(1, 8))])
    # Exact values, then the first float at every position, then anything.
    for _ in range(120):
        n = rng.randint(1, 9)
        for first in range(n):
            values = [_rational(rng) if rng.random() < 0.8 else rng.randint(0, 3) for _ in range(first)]
            values.append(_float(rng))
            values += [_value(rng) for _ in range(n - first - 1)]
            lists.append(values)
    for _ in range(400):
        lists.append([_value(rng) for _ in range(rng.randint(1, 6))])
    return lists


def test_exact_sum_matches_fraction_addition():
    lists = _sum_lists(random.Random(5101))
    assert len(lists) > 2000
    for values in lists:
        _same(exact_sum, oracle._exact_sum, values)
        _same(lambda: exact_sum(iter(values)), lambda: oracle._exact_sum(iter(values)))


def test_exact_sum_overflow_and_type_errors_match():
    for values in (
        [F(10**400), 0.5],
        [10**400, 0.5],
        [0.5, 10**400],
        [0.5, F(10**400)],
        [F(1, 3), "x"],
        [F(1, 3), 0.5, "x"],
        [F(1, 3), 1j],
    ):
        _same(exact_sum, oracle._exact_sum, values)


# ---------------------------------------------------------------------------
# Behaviors: validation, marginals, mixtures, CHSH
# ---------------------------------------------------------------------------


def _row(rng: random.Random, n: int, mode: str, perturb: bool = True) -> list:
    """A distribution over ``n`` entries, a quarter of them perturbed."""
    den = rng.choice((2, 3, 10, 2**53, 10**9 + 7, rng.randint(2, 10**40)))
    cuts = sorted(rng.randrange(den + 1) for _ in range(n - 1))
    bounds = [0, *cuts, den]
    row: list = [F(hi - lo, den) for lo, hi in zip(bounds, bounds[1:])]
    if mode == "float":
        row = [float(v) for v in row]
    elif mode == "mixed":
        row = [float(v) if rng.random() < 0.5 else v for v in row]
    elif mode == "int":
        row = [0] * n
        row[rng.randrange(n)] = 1
    if perturb and rng.random() < 0.25:
        row[rng.randrange(n)] = _value(rng)
    return row


def _random_scenario(rng: random.Random) -> Scenario:
    na, nb = rng.randint(1, 3), rng.randint(1, 3)
    return Scenario(
        tuple(f"A{i}" for i in range(na)),
        tuple(f"B{i}" for i in range(nb)),
        tuple(rng.randint(2, 3) for _ in range(na)),
        tuple(rng.randint(2, 3) for _ in range(nb)),
    )


def _behavior(rng: random.Random, shape: Scenario | None = None) -> Behavior:
    shape = shape or (STANDARD if rng.random() < 0.6 else _random_scenario(rng))
    mode = rng.choice(("exact", "exact", "float", "mixed", "int"))
    table = {}
    for ctx in shape.contexts():
        na, nb = shape.alice_outcomes[ctx.alice], shape.bob_outcomes[ctx.bob]
        flat = _row(rng, na * nb, mode)
        table[ctx] = [flat[a * nb : (a + 1) * nb] for a in range(na)]
    return Behavior(shape, table)


def test_behavior_checks_match():
    rng = random.Random(5102)
    for _ in range(600):
        b = _behavior(rng)
        _same(scenario.validate_behavior, oracle.validate_behavior, b)
        _same(scenario.validate_behavior, oracle.validate_behavior, b, normalized=False)
        _same(scenario.marginals, oracle.marginals, b)
        if b.scenario.is_two_by_two():
            _same(analysis.chsh_max, oracle.chsh_max, b)
            _same(analysis.nosignaling_residual, oracle.nosignaling_residual, b)


def test_chsh_max_matches_on_every_kind_of_table():
    rng = random.Random(5103)
    for _ in range(400):
        b = _behavior(rng, STANDARD)
        _same(analysis.chsh_max, oracle.chsh_max, b)
        for arrangement in analysis.chsh_arrangements():
            _same(analysis.chsh_value, oracle.chsh_value, b, arrangement)
    # Ties between arrangements keep the first in sign-string order.
    for table in ([[F(1, 4)] * 2] * 2, [[0.25] * 2] * 2, [[F(1, 2), 0], [0, F(1, 2)]]):
        b = Behavior(STANDARD, {ctx: table for ctx in STANDARD.contexts()})
        _same(analysis.chsh_max, oracle.chsh_max, b)


def test_mix_matches():
    rng = random.Random(5104)
    for _ in range(200):
        shape = STANDARD if rng.random() < 0.5 else _random_scenario(rng)
        n = rng.randint(1, 4)
        weights = _row(rng, n, rng.choice(("exact", "float", "mixed", "int")))
        components = [(w, _behavior(rng, shape)) for w in weights]
        if any(w != w for w in weights):  # NaN: the oracle accepts it, mix rejects it
            with pytest.raises(MixtureError) as exc:
                mix(components)
            assert exc.value.code == "BAD_WEIGHTS"
            continue
        _same(mix, oracle.mix, components)


# ---------------------------------------------------------------------------
# Models: checks and exact tables
# ---------------------------------------------------------------------------


def _model(rng: random.Random):
    shape = STANDARD if rng.random() < 0.6 else _random_scenario(rng)
    mode = rng.choice(("exact", "exact", "float", "mixed", "int"))

    def block(prefix: str, settings: list[tuple[int, int]]):
        n = rng.randint(1, 5)
        weights = _row(rng, n, mode) if rng.random() < 0.9 else [_value(rng) for _ in range(n)]
        causes = tuple(Cause(f"{prefix}{i}", w) for i, w in enumerate(weights))
        alice, bob = {}, {}
        for cause in causes:
            for x, y in settings:
                alice[(x, cause.id)] = _row(rng, shape.alice_outcomes[x], mode)
                bob[(y, cause.id)] = _row(rng, shape.bob_outcomes[y], mode)
        return causes, ResponseFunction("alice", alice), ResponseFunction("bob", bob)

    if rng.random() < 0.5:
        pairs = [(x, y) for x in range(len(shape.alice_settings)) for y in range(len(shape.bob_settings))]
        return NonContextualModel(shape, *block("c", pairs))
    blocks = {
        ctx: ContextBlock(*block(f"k{ctx.alice}{ctx.bob}_", [(ctx.alice, ctx.bob)]))
        for ctx in shape.contexts()
    }
    return ContextualModel(shape, blocks)


def test_model_checks_and_exact_tables_match():
    rng = random.Random(5105)
    for _ in range(700):
        model = _model(rng)
        _same(models.validate_model, oracle.validate_model, model)
        _same(models.exact_behavior, oracle.exact_behavior, model)


def test_cause_and_row_checks_match():
    rng = random.Random(5106)
    for _ in range(600):
        n = rng.randint(1, 6)
        weights = _row(rng, n, rng.choice(("exact", "float", "mixed", "int")))
        causes = [Cause(f"c{i}", w) for i, w in enumerate(weights)]
        _same(models._check_causes, oracle._check_causes, causes, "model")
        row = ResponseFunction("alice", {(0, "c0"): weights})
        _same(models._check_response_row, oracle._check_response_row, row, 0, "c0", n, "model")


# ---------------------------------------------------------------------------
# Proof objects and classification
# ---------------------------------------------------------------------------

STRATEGIES = enumerate_strategies(STANDARD)


def _decomposition(rng: random.Random) -> LocalDecomposition:
    chosen = rng.sample(STRATEGIES, rng.randint(1, 9))
    weights = _row(rng, len(chosen), rng.choice(("exact", "exact", "float", "mixed", "int")))
    return LocalDecomposition(STANDARD, tuple(zip(chosen, weights)))


def _coefficients(rng: random.Random) -> dict:
    keys = [(ctx, a, b) for ctx in STANDARD.contexts() for a in (1, 2) for b in (1, 2)]
    rng.shuffle(keys)
    pick = rng.random()
    coeffs = {}
    for key in keys[: rng.randint(1, 16)]:
        if pick < 0.7:
            coeffs[key] = F(rng.randint(-9, 9))
        elif pick < 0.9:
            coeffs[key] = _rational(rng, negative=True)
        else:
            coeffs[key] = rng.choice((F(rng.randint(-9, 9)), rng.uniform(-3, 3)))
    return coeffs


def test_proof_arithmetic_matches():
    rng = random.Random(5107)
    for _ in range(500):
        d = _decomposition(rng)
        old = oracle.LocalDecomposition(d.scenario, d.weights)
        _same(d.to_behavior, old.to_behavior)
        coeffs = _coefficients(rng)
        b = _behavior(rng, STANDARD)
        cert = InfeasibilityCertificate(STANDARD, coeffs, F(0), F(0))
        old_cert = oracle.InfeasibilityCertificate(STANDARD, coeffs, F(0), F(0))
        _same(cert.evaluate, old_cert.evaluate, b)
        _same(cert.strategy_bound, old_cert.strategy_bound)
        _same(cert.verify, old_cert.verify, b)


def _report_key(report):
    decomposition = report.decomposition
    certificate = report.certificate
    return (
        _key(report.behavior),
        _key(report.expectations),
        _key(report.chsh_max),
        report.chsh_arrangement,
        _key(report.nosignaling_residual),
        report.classification,
        None if decomposition is None else (decomposition.scenario, _key(decomposition.weights)),
        None
        if certificate is None
        else (
            certificate.scenario,
            _key(list(certificate.coefficients.items())),
            _key(certificate.behavior_value),
            _key(certificate.local_bound),
        ),
        repr(report.snap_error),
    )


def _half(rng: random.Random) -> tuple:
    return (F(1, 2), F(1, 2)) if rng.random() < 0.5 else (F(1), F(0))


def _pr_mixture(rng: random.Random, v: Fraction) -> ContextualModel:
    """``v`` PR box plus ``1 - v`` noise, relabelled by random bits."""
    alpha, beta, gamma = (rng.randrange(2) for _ in range(3))
    det = {0: (F(1), F(0)), 1: (F(0), F(1))}
    blocks = {}
    for ctx in STANDARD.contexts():
        target = (ctx.alice * ctx.bob) ^ (alpha * ctx.alice) ^ (beta * ctx.bob) ^ gamma
        causes = [Cause(f"pr{a}", v / 2) for a in (0, 1)] + [Cause("noise", 1 - v)]
        alice = {(ctx.alice, f"pr{a}"): det[a] for a in (0, 1)}
        bob = {(ctx.bob, f"pr{a}"): det[a ^ target] for a in (0, 1)}
        alice[(ctx.alice, "noise")] = bob[(ctx.bob, "noise")] = (F(1, 2), F(1, 2))
        blocks[ctx] = ContextBlock(causes, ResponseFunction("alice", alice), ResponseFunction("bob", bob))
    return ContextualModel(STANDARD, blocks)


def _signaling(rng: random.Random) -> ContextualModel:
    blocks = {}
    for ctx in STANDARD.contexts():
        n = rng.randint(1, 4)
        causes = [Cause(f"k{i}", w) for i, w in enumerate(_row(rng, n, "exact", False))]
        alice = {(ctx.alice, c.id): _row(rng, 2, "exact", False) for c in causes}
        bob = {(ctx.bob, c.id): _row(rng, 2, "exact", False) for c in causes}
        blocks[ctx] = ContextBlock(causes, ResponseFunction("alice", alice), ResponseFunction("bob", bob))
    return ContextualModel(STANDARD, blocks)


def _classified_behaviors():
    for name in BUILTIN_NAMES:
        yield builtin_document(name).to_behavior()
    rng = random.Random(5108)
    for k in range(12):
        model = random_noncontextual_model(rng, max_causes=6, denominator=32)
        yield models.exact_behavior(model)
        yield models.exact_behavior(_pr_mixture(rng, F(6 + k % 5, 16)))
        yield models.exact_behavior(_pr_mixture(rng, F(35 + 3 * k, 100)))
        yield models.exact_behavior(_signaling(rng))
        angles = [rng.randrange(1440) / 4 for _ in range(4)]
        yield singlet_behavior(QuantumDirections([math.radians(a) for a in angles[:2]],
                                                 [math.radians(a) for a in angles[2:]]))
        yield _behavior(rng, STANDARD)


def test_classify_reports_match():
    verdicts = set()
    for b in _classified_behaviors():
        new, old = _outcome(classify, b), _outcome(oracle.classify, b)
        assert new[0] == old[0], (new, old)
        if new[0] == "raised":
            assert new == old
            continue
        new_report, old_report = classify(b), oracle.classify(b)
        assert _report_key(new_report) == _report_key(old_report)
        verdicts.add(new_report.classification)
    assert len(verdicts) == 3


def test_proof_checks_recompute_on_every_call():
    nonlocal_ = local_membership(models.exact_behavior(models.socks_off()))
    local = local_membership(models.exact_behavior(models.socks_on()))
    certificate = nonlocal_.certificate
    assert certificate.verify(nonlocal_.tested)
    assert not certificate.verify(local.tested)
    assert certificate.verify(nonlocal_.tested)
    decomposition = local.decomposition
    assert decomposition.to_behavior() == local.tested
    (first, w1), (second, w2), *rest = decomposition.weights
    swapped = dataclasses.replace(decomposition, weights=((first, w2), (second, w1), *rest))
    assert (swapped.to_behavior() == local.tested) == (w1 == w2)
    assert decomposition.to_behavior() == local.tested


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entries_match(value):
    table = {ctx: [[F(1, 4)] * 2] * 2 for ctx in STANDARD.contexts()}
    for ctx in STANDARD.contexts():
        for position in range(4):
            flat = [F(1, 4)] * 4
            flat[position] = value
            b = Behavior(STANDARD, {**table, ctx: [flat[:2], flat[2:]]})
            _same(scenario.validate_behavior, oracle.validate_behavior, b)
            _same(classify, oracle.classify, b)
            _same(local_membership, oracle.local_membership, b)

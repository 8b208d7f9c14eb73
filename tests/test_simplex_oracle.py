"""Differential tests: the integer simplex against the Fraction reference.

``_fraction_simplex`` is the Fraction-tableau solver the integer kernel
replaced.  Both run Bland's rule on the same rational values, so every
``FeasibilityOutcome`` (solution or certificate, entry by entry) must be
equal, not merely equally valid.
"""

import math
import random
from fractions import Fraction

import pytest

import bellbox.simplex as simplex
from bellbox import (
    BUILTIN_NAMES,
    Behavior,
    QuantumDirections,
    Scenario,
    builtin_document,
    enumerate_strategies,
    local_membership,
    mix,
    singlet_behavior,
    strategy_behavior,
)
from bellbox.simplex import ConstraintMatrix, solve_equality_feasibility
from _fraction_simplex import solve_equality_feasibility as fraction_solve
from _tables import STANDARD_SCENARIO, UNIFORM_TABLE, behavior_from

F = Fraction


def _random_system(rand: random.Random):
    """One small system; the kinds cover every branch of the pivot loop."""
    m = rand.randint(1, 6)
    n = rand.randint(1, 8)
    density = rand.choice((0.3, 0.7, 1.0))
    matrix = [
        [
            F(rand.randint(-5, 5), rand.randint(1, 6)) if rand.random() < density else F(0)
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    kind = rand.randrange(5)
    if kind == 0:
        # Forced feasible from a sparse (degenerate) non-negative witness.
        witness = [
            F(rand.randint(1, 4), rand.randint(1, 3)) if rand.random() < 0.4 else F(0)
            for _ in range(n)
        ]
        rhs = [sum((c * x for c, x in zip(row, witness)), F(0)) for row in matrix]
    elif kind == 1:
        # Redundant rows: scaled copies and sums of earlier rows.
        rhs = [F(rand.randint(-6, 6), rand.randint(1, 4)) for _ in range(m)]
        for _ in range(rand.randint(1, 3)):
            i, k = rand.randrange(m), rand.randrange(m)
            scale = F(rand.choice((-2, -1, 1, 3)), rand.randint(1, 3))
            matrix.append([scale * a + b for a, b in zip(matrix[i], matrix[k])])
            rhs.append(scale * rhs[i] + rhs[k])
    elif kind == 2:
        # Zero rows (consistent or not) and zero columns.
        rhs = [F(rand.randint(-6, 6), rand.randint(1, 4)) for _ in range(m)]
        matrix[rand.randrange(m)] = [F(0)] * n
        column = rand.randrange(n)
        for row in matrix:
            row[column] = F(0)
        if rand.random() < 0.5:
            rhs[rand.randrange(m)] = F(0)
    elif kind == 3:
        # Negative right-hand sides throughout.
        rhs = [F(-rand.randint(1, 6), rand.randint(1, 4)) for _ in range(m)]
    else:
        rhs = [F(rand.randint(-6, 6), rand.randint(1, 4)) for _ in range(m)]
    return matrix, rhs


def test_random_rational_systems_match_the_fraction_solver():
    rand = random.Random(20240613)
    feasible = infeasible = 0
    for _ in range(2400):
        matrix, rhs = _random_system(rand)
        expected = fraction_solve(matrix, rhs)
        assert solve_equality_feasibility(matrix, rhs) == expected, (matrix, rhs)
        if expected.feasible:
            feasible += 1
        else:
            infeasible += 1
    assert feasible > 600 and infeasible > 600


def test_integer_and_fraction_inputs_are_read_alike():
    matrix = [[1, 0, 2], [0, 1, -1]]
    rhs = [F(1, 2), -1]
    as_fractions = [[F(v) for v in row] for row in matrix]
    expected = fraction_solve(as_fractions, [F(v) for v in rhs])
    assert solve_equality_feasibility(matrix, rhs) == expected


def test_wide_denominators_stay_exact():
    # Denominators of 40+ digits, as snapped singlet tables produce.
    rand = random.Random(5)
    for _ in range(40):
        n = 5
        witness = [F(rand.randint(0, 10**20), 10**20 + rand.randint(1, 99)) for _ in range(n)]
        matrix = [
            [F(rand.randint(-9, 9), 10**12 + rand.randint(1, 99)) for _ in range(n)]
            for _ in range(3)
        ]
        rhs = [sum((c * x for c, x in zip(row, witness)), F(0)) for row in matrix]
        expected = fraction_solve(matrix, rhs)
        assert expected.feasible
        assert solve_equality_feasibility(matrix, rhs) == expected


def test_edge_shapes_match():
    assert solve_equality_feasibility([], []) == fraction_solve([], [])
    assert solve_equality_feasibility([[]], [F(0)]) == fraction_solve([[]], [F(0)])
    assert solve_equality_feasibility([[]], [F(1)]) == fraction_solve([[]], [F(1)])
    with pytest.raises(ValueError):
        solve_equality_feasibility([[F(1)], [F(1), F(2)]], [F(1), F(1)])


# ---------------------------------------------------------------------------
# Every membership system the analysis builds
# ---------------------------------------------------------------------------


def _pr_box():
    h, z = F(1, 2), F(0)
    agree = ((h, z), (z, h))
    disagree = ((z, h), (h, z))
    return behavior_from(
        STANDARD_SCENARIO,
        {(0, 0): agree, (0, 1): agree, (1, 0): agree, (1, 1): disagree},
    )


def _membership_behaviors():
    for name in BUILTIN_NAMES:
        yield builtin_document(name).to_behavior()
    pr = _pr_box()
    uniform = behavior_from(STANDARD_SCENARIO, UNIFORM_TABLE)
    # CHSH = 4q: the boundary q = 1/2 and points within 1e-3 .. 1e-12 of it.
    for k in (3, 6, 9, 12):
        for q in (F(1, 2) - F(1, 10**k), F(1, 2), F(1, 2) + F(1, 10**k)):
            yield mix([(q, pr), (1 - q, uniform)])
    rand = random.Random(77)
    for _ in range(12):
        directions = QuantumDirections(
            tuple(math.radians(rand.uniform(0, 360)) for _ in range(2)),
            tuple(math.radians(rand.uniform(0, 360)) for _ in range(2)),
        )
        yield singlet_behavior(directions)


def test_membership_systems_match_the_fraction_solver(monkeypatch):
    systems = []

    def both(matrix, rhs):
        outcome = solve_equality_feasibility(matrix, rhs)
        systems.append((matrix, rhs, outcome))
        return outcome

    monkeypatch.setattr(simplex, "solve_equality_feasibility", both)
    verdicts = {local_membership(b).feasible for b in _membership_behaviors()}
    assert verdicts == {True, False}
    assert len(systems) >= 20
    for matrix, rhs, outcome in systems:
        fractions = [[F(v) for v in row] for row in matrix]
        assert outcome == fraction_solve(fractions, rhs)


def _recorded_systems(monkeypatch, behaviors):
    """Every (matrix, rhs, outcome) the membership test hands to the solver."""
    systems = []

    def both(matrix, rhs):
        outcome = solve_equality_feasibility(matrix, rhs)
        systems.append((matrix, rhs, outcome))
        return outcome

    monkeypatch.setattr(simplex, "solve_equality_feasibility", both)
    for behavior in behaviors:
        local_membership(behavior)
    return systems


def _assert_match_the_fraction_solver(systems):
    for matrix, rhs, outcome in systems:
        fractions = [[F(v) for v in row] for row in matrix]
        assert outcome == fraction_solve(fractions, rhs), rhs


def test_the_membership_matrix_is_17_rows_of_16_ints(monkeypatch):
    relabeled = Scenario.binary(("X", "Y"), ("U", "V"))
    behaviors = [builtin_document("socks-on").to_behavior()]
    behaviors.append(Behavior(relabeled, dict(behaviors[0].table)))
    systems = _recorded_systems(monkeypatch, behaviors)
    assert len(systems) == 2
    matrix = systems[0][0]
    assert len(matrix) == 17
    assert all(len(row) == 16 and all(type(v) is int for v in row) for row in matrix)
    # Built once per outcome-count shape: labels do not enter it.
    assert systems[1][0] is matrix
    assert systems[0][1] == systems[1][1]


def test_snapped_singlets_with_long_denominators_match(monkeypatch):
    # Snapped and renormalized singlet tables carry denominators of 20+
    # digits; mixing them with each other and with the PR box compounds them.
    rand = random.Random(4646)
    snapped = []
    for _ in range(10):
        directions = QuantumDirections(
            tuple(math.radians(rand.uniform(0, 360)) for _ in range(2)),
            tuple(math.radians(rand.uniform(0, 360)) for _ in range(2)),
        )
        snapped.append(local_membership(singlet_behavior(directions)).tested)
    behaviors = list(snapped)
    for _ in range(12):
        q = F(rand.randint(1, 10**6 - 1), 10**6 + rand.randint(1, 10**3))
        behaviors.append(mix([(q, rand.choice(snapped)), (1 - q, rand.choice(snapped + [_pr_box()]))]))
    systems = _recorded_systems(monkeypatch, behaviors)
    assert max(v.denominator for _, rhs, _ in systems for v in rhs) > 10**25
    assert {outcome.feasible for _, _, outcome in systems} == {True, False}
    _assert_match_the_fraction_solver(systems)


def test_zero_entries_and_degenerate_ties_match(monkeypatch):
    # Deterministic points and mixtures of them.  In sparse mixtures most
    # rhs entries are zero, so many ratio tests tie at 0; dense ones have
    # many decompositions.  Either way the basis-index rule decides.
    strategies = enumerate_strategies(STANDARD_SCENARIO)
    points = [strategy_behavior(STANDARD_SCENARIO, s) for s in strategies]
    rand = random.Random(1977)
    behaviors = list(points)
    for size in (2, 3, 4, 6, 8, 16):
        for _ in range(12):
            picked = rand.sample(points, size)
            weights = [F(rand.randint(1, 5)) for _ in picked]
            total = sum(weights)
            behaviors.append(mix([(w / total, p) for w, p in zip(weights, picked)]))
    for k in (1, 2, 3):
        behaviors.append(mix([(F(k, 4), _pr_box()), (1 - F(k, 4), rand.choice(points))]))
    systems = _recorded_systems(monkeypatch, behaviors)
    assert sum(v == 0 for _, rhs, _ in systems for v in rhs) > len(systems) * 4
    assert {outcome.feasible for _, _, outcome in systems} == {True, False}
    _assert_match_the_fraction_solver(systems)


def test_relabeled_scenario_matches(monkeypatch):
    relabeled = Scenario.binary(("left", "right"), ("up", "down"))
    behaviors = list(_membership_behaviors())
    moved = [Behavior(relabeled, dict(b.table)) for b in behaviors]
    systems = _recorded_systems(monkeypatch, behaviors + moved)
    half = len(behaviors)
    for (_, rhs, outcome), (_, moved_rhs, moved_outcome) in zip(systems[:half], systems[half:]):
        assert (rhs, outcome) == (moved_rhs, moved_outcome)
    _assert_match_the_fraction_solver(systems[half:])


def test_one_constraint_matrix_serves_many_right_hand_sides():
    rand = random.Random(3131)
    for _ in range(60):
        matrix, _ = _random_system(rand)
        shared = ConstraintMatrix(matrix)
        before = (tuple(shared), shared.tableau, shared.z, shared.z_den)
        for _ in range(8):
            rhs = [F(rand.randint(-6, 6), rand.randint(1, 4)) for _ in matrix]
            expected = fraction_solve(matrix, rhs)
            assert solve_equality_feasibility(shared, rhs) == expected
            assert solve_equality_feasibility(matrix, rhs) == expected
        assert (tuple(shared), shared.tableau, shared.z, shared.z_den) == before


def test_rhs_length_must_match_the_rows():
    with pytest.raises(ValueError):
        solve_equality_feasibility([[F(1)], [F(2)]], [F(1)])
    with pytest.raises(ValueError):
        solve_equality_feasibility([[F(1)]], [F(1), F(1)])

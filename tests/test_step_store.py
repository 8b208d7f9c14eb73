"""The simplex's step store: stored, replayed and fresh solves agree exactly.

A ``ConstraintMatrix`` records per (sign vector, ordered basis) state what
the next step reads, so a solve over a matrix that has seen its states
pivots b alone, and one that meets an unseen state replays its pivots.
Each system below is solved three ways, which must give equal
``FeasibilityOutcome``s: warm (twice on one shared matrix, the second pass
from the store), cold (on a fresh matrix) and by the ``Fraction`` reference.
"""

import random
import sys
import threading
from fractions import Fraction

import bellbox.simplex as simplex
from _docgen import random_document
from _fraction_simplex import solve_equality_feasibility as fraction_solve
from bellbox import local_membership
from bellbox.errors import MembershipError
from bellbox.simplex import ConstraintMatrix, solve_equality_feasibility
from test_simplex_oracle import (
    _degenerate_behaviors,
    _long_denominator_behaviors,
    _membership_behaviors,
    _random_system,
    _recorded_systems,
)

F = Fraction


def _assert_three_ways_agree(matrix, rhss):
    """Solve every rhs over ``matrix`` warm, cold and by the reference; return the shared matrix."""
    shared = ConstraintMatrix(matrix)
    first = [solve_equality_feasibility(shared, rhs) for rhs in rhss]
    stored = len(shared._steps)
    warm = [solve_equality_feasibility(shared, rhs) for rhs in rhss]
    # Every state of the second pass was recorded by the first.
    assert len(shared._steps) == stored < simplex._STEP_CAP
    fractions = [[F(v) for v in row] for row in matrix]
    for rhs, a, b in zip(rhss, first, warm):
        expected = fraction_solve(fractions, rhs)
        assert a == b == expected, rhs
        assert solve_equality_feasibility(ConstraintMatrix(matrix), rhs) == expected, rhs
    return shared


def _docgen_behaviors(count):
    """The first ``count`` generated 2x2 behaviors that the membership test takes."""
    rand = random.Random(2207)
    found = []
    while len(found) < count:
        document = random_document(rand)
        if document.scenario.is_two_by_two():
            behavior = document.to_behavior()
            try:
                local_membership(behavior)
            except MembershipError:  # floats too far from normalized
                continue
            found.append(behavior)
    return found


def _membership_systems(monkeypatch, behaviors):
    systems = _recorded_systems(monkeypatch, behaviors)
    assert {outcome.feasible for _, _, outcome in systems} == {True, False}
    matrix = systems[0][0]
    assert all(m is matrix for m, _, _ in systems)
    return matrix, [rhs for _, rhs, _ in systems]


def test_oracle_membership_systems_agree(monkeypatch):
    behaviors = list(_membership_behaviors()) + _long_denominator_behaviors() + _degenerate_behaviors()
    matrix, rhss = _membership_systems(monkeypatch, behaviors)
    _assert_three_ways_agree(matrix, rhss)


def test_docgen_membership_systems_agree(monkeypatch):
    matrix, rhss = _membership_systems(monkeypatch, _docgen_behaviors(300))
    assert len(rhss) >= 300
    _assert_three_ways_agree(matrix, rhss)


def test_replayed_solves_agree(monkeypatch):
    # Mixed kinds of rhs over one matrix: solves leave the stored states
    # part-way, so the rows are rebuilt by replaying a non-empty path.
    replays = []
    replay = simplex._replay

    def counted(system, sign, path):
        replays.append(len(path))
        return replay(system, sign, path)

    monkeypatch.setattr(simplex, "_replay", counted)
    behaviors = _degenerate_behaviors() + list(_membership_behaviors())
    random.Random(9).shuffle(behaviors)
    matrix, rhss = _membership_systems(monkeypatch, behaviors)
    replays.clear()
    _assert_three_ways_agree(matrix, rhss)
    assert max(replays) > 0


def test_sign_flipped_rows_and_row_denominators_agree():
    rand = random.Random(2290)
    flipped = long_rows = 0
    for _ in range(80):
        matrix, _ = _random_system(rand)
        rhss = [[F(rand.randint(-6, 6), rand.randint(1, 4)) for _ in matrix] for _ in range(10)]
        # The first three again with their signs turned: one basis, other sign vectors.
        rhss += [[-v for v in rhs] for rhs in rhss[:3]]
        shared = _assert_three_ways_agree(matrix, rhss)
        flipped += sum(any(v < 0 for v in rhs) for rhs in rhss)
        long_rows += any(enter is not None and den > 1 for enter, _, den in shared._steps.values())
    assert flipped > 400 and long_rows > 10


def test_infeasible_certificates_agree():
    # A 0/1 matrix and right-hand sides of which many have no solution x >= 0.
    rand = random.Random(31)
    matrix = [[int(k == j or (k + j) % 5 == 0) for j in range(9)] for k in range(6)]
    rhss = [[F(rand.randint(-3, 3), rand.randint(1, 3)) for _ in range(6)] for _ in range(60)]
    _assert_three_ways_agree(matrix, rhss)
    outcomes = [solve_equality_feasibility(matrix, rhs) for rhs in rhss]
    assert sum(not outcome.feasible for outcome in outcomes) > 10


def test_the_store_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(simplex, "_STEP_CAP", 8)
    rand = random.Random(808)
    matrix, _ = _random_system(rand)
    while len(matrix) < 4:
        matrix, _ = _random_system(rand)
    shared = ConstraintMatrix(matrix)
    rhss = {tuple(F(rand.randint(-9, 9), rand.randint(1, 5)) for _ in matrix) for _ in range(60)}
    rhss = sorted(rhss)[:50]
    assert len(rhss) == 50
    for rhs in rhss:
        assert solve_equality_feasibility(shared, rhs) == fraction_solve(matrix, rhs)
        assert len(shared._steps) <= 8
    assert len(shared._steps) == 8


def test_threads_sharing_a_matrix_give_the_serial_results(monkeypatch):
    matrix, rhss = _membership_systems(monkeypatch, _docgen_behaviors(120) + _degenerate_behaviors())
    serial = [solve_equality_feasibility(ConstraintMatrix(matrix), rhs) for rhs in rhss]
    shared = ConstraintMatrix(matrix)
    start = threading.Barrier(8)
    results = [None] * 8

    def solve_all(k):
        order = list(range(len(rhss)))
        random.Random(k).shuffle(order)
        start.wait()
        results[k] = {i: solve_equality_feasibility(shared, rhss[i]) for i in order}

    threads = [threading.Thread(target=solve_all, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        assert [result[i] for i in range(len(rhss))] == serial
    # The store holds what one serial pass records, whichever thread wrote it.
    alone = ConstraintMatrix(matrix)
    for rhs in rhss:
        solve_equality_feasibility(alone, rhs)
    assert shared._steps == alone._steps


def test_matrices_wider_than_a_byte_agree():
    # n + m > 256: basis indices pass 255, so the store's keys are tuples.
    # Non-negative entries make every rhs with a negative entry infeasible.
    rand = random.Random(257)
    matrix = [[rand.choice((0, 0, 1, 2, F(1, 3))) for _ in range(260)] for _ in range(4)]
    rhss = [[F(rand.randint(-3, 5), rand.randint(1, 3)) for _ in range(4)] for _ in range(30)]
    shared = _assert_three_ways_agree(matrix, rhss)
    assert shared._pack is tuple
    assert any(max(key) >= 256 for key in shared._steps)
    assert {solve_equality_feasibility(shared, rhs).feasible for rhs in rhss} == {True, False}

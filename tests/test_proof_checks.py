"""Membership verdicts are checked proofs, also when the solver misbehaves.

The checks must raise, not assert, so they also hold under ``python -O``.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import bellbox
import bellbox.analysis as analysis
import bellbox.scenario as scenario
import bellbox.simplex as simplex
from bellbox import BellboxError, exact_behavior, local_membership, socks_off, socks_on
from bellbox.cli import run_cli
from bellbox.simplex import FeasibilityOutcome

F = Fraction
STRATEGIES = 16
ROWS = 17  # 16 table entries plus the weight normalization


def _solver_returning(outcome):
    return lambda matrix, rhs: outcome


def _honest_weights(model):
    """The honest solver's weight for each strategy, in strategy order."""
    result = local_membership(exact_behavior(model()))
    weights = dict(result.decomposition.weights)
    return [weights.get(s, F(0)) for s in analysis.enumerate_strategies(result.tested.scenario)]


HONEST = _honest_weights(socks_on)
USED = [k for k, w in enumerate(HONEST) if w]  # socks-on mixes four strategies
UNUSED = HONEST.index(0)
EPS = F(1, 10**9)


def _changed(changes):
    """socks-on's honest weights plus ``{strategy index: change}``, as a solver outcome."""
    weights = list(HONEST)
    for k, change in changes.items():
        weights[k] += change
    return FeasibilityOutcome(tuple(weights), None)


BOGUS = {
    # Strategy 0 alone does not reproduce socks-on.
    "wrong solution": (socks_on, FeasibilityOutcome((F(1),) + (F(0),) * 15, None)),
    # Reproduces nothing and is not a convex combination.
    "negative weights": (socks_on, FeasibilityOutcome((F(2), F(-1)) + (F(0),) * 14, None)),
    # The all-ones functional equals its local bound on every behavior.
    "bogus certificate": (socks_off, FeasibilityOutcome(None, (F(1),) * ROWS)),
    "neither": (socks_off, FeasibilityOutcome(None, None)),
    # Non-negative and summing to 1, but 1/10^9 moved between two strategies: a wrong table.
    "weight moved": (socks_on, _changed({USED[0]: EPS, USED[1]: -EPS})),
    # The honest weights with 1/10^9 added to one of them: they sum to 1 + 1/10^9.
    "weights over one": (socks_on, _changed({USED[0]: EPS})),
    # A zero-weight strategy carries the weight of one the table needs.
    "unused strategy": (socks_on, _changed({USED[0]: -HONEST[USED[0]], UNUSED: HONEST[USED[0]]})),
    # The right table and a sum of 1, but from an affine combination, not a convex one.
    # Strategies 0, 12, 4 and 8 pair Bob's first strategy with Alice's (1,1), (2,2), (1,2)
    # and (2,1); the first two together give the same table as the last two.
    "affine weights": (socks_on, _changed({0: F(1), 12: F(1), 4: F(-1), 8: F(-1)})),
}


@pytest.mark.parametrize("case", sorted(BOGUS))
def test_unproven_verdict_raises_internal(monkeypatch, case):
    model, outcome = BOGUS[case]
    monkeypatch.setattr(simplex, "solve_equality_feasibility", _solver_returning(outcome))
    with pytest.raises(BellboxError) as exc:
        local_membership(exact_behavior(model()))
    assert exc.value.code == "INTERNAL"


@pytest.mark.parametrize("case", sorted(BOGUS))
def test_unproven_verdict_raises_internal_without_an_integer_view(monkeypatch, case):
    # A table past the view's size bound has its decomposition checked against its
    # Fraction entries over 1, not against integer numerators.
    monkeypatch.setattr(scenario, "_VIEW_BITS", 0)
    model, outcome = BOGUS[case]
    monkeypatch.setattr(simplex, "solve_equality_feasibility", _solver_returning(outcome))
    behavior = exact_behavior(model())
    assert not behavior._int_view()
    with pytest.raises(BellboxError) as exc:
        local_membership(behavior)
    assert exc.value.code == "INTERNAL"


def test_cli_reports_a_failed_proof_as_internal(monkeypatch, capsys):
    model, outcome = BOGUS["bogus certificate"]
    monkeypatch.setattr(simplex, "solve_equality_feasibility", _solver_returning(outcome))
    assert run_cli(["membership", "socks-off"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err


def test_checks_survive_python_O():
    script = textwrap.dedent(
        """
        from fractions import Fraction as F
        import bellbox.simplex as simplex
        from bellbox import BellboxError, exact_behavior, local_membership, socks_off, socks_on
        from bellbox.simplex import FeasibilityOutcome

        assert False, "assert statements must be stripped under -O"
        cases = [
            (socks_off, FeasibilityOutcome(None, (F(1),) * 17)),
            (socks_on, FeasibilityOutcome((F(1),) + (F(0),) * 15, None)),
        ]
        for model, outcome in cases:
            simplex.solve_equality_feasibility = lambda m, r, o=outcome: o
            try:
                local_membership(exact_behavior(model()))
            except BellboxError as exc:
                print(exc.code)
        """
    )
    src = str(Path(bellbox.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["INTERNAL", "INTERNAL"]


@pytest.mark.parametrize("model", [socks_on, socks_off])
def test_honest_solver_passes_the_checks(model):
    result = local_membership(exact_behavior(model()))
    if result.feasible:
        assert result.decomposition.to_behavior() == result.tested
    else:
        assert result.certificate.verify(result.tested)

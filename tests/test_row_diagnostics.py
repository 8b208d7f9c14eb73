"""Response rows and cause weights at the edges of the parser's row check.

Each row is checked on integer numerators, and each token is read through the
parse's own literal cache, so every diagnostic is pinned here in full.
"""

from fractions import Fraction

import pytest

from bellbox import parse_document

F = Fraction
D, D1 = "1" + "0" * 4299, "9" * 4299  # 10**4299 (4300 digits) and 10**4299 - 1
E, E1 = D + "0", D1 + "9"  # 10**4300 (4301 digits) and 10**4300 - 1 (4300 digits)
TOO_LONG = f"SYNTAX: integer literal longer than 4300 digits near '{E[:40]}...'"
NO_ALICE = "SYNTAX: cause {} has no response for alice setting A"


def _note(line, column, value, token):
    return f"note:{line}:{column}: decimal literal converted to rational {value} near '{token}'"


# name -> (Alice's outcome count, section lines, rendered diagnostics, (weights, Alice's
# rows) of the parsed model or None).  Section lines start at line 7.
CASES = {
    "mixed denominators": (
        3,
        ["cause c weight 1", "respond alice A -> 1/2 1/4 1/4", "respond bob B -> 1 0"],
        [],
        ([F(1)], {(0, "c"): (F(1, 2), F(1, 4), F(1, 4))}),
    ),
    "mixed denominators off by 1/12": (
        3,
        ["cause c weight 1", "respond alice A -> 1/2 1/4 1/3", "respond bob B -> 1 0"],
        [
            "error:8:20: UNNORMALIZED: response row sums to 13/12 in the cause set",
            "error:7:1: " + NO_ALICE.format("c"),
        ],
        None,
    ),
    "unreduced literals": (
        2,
        ["cause c weight 2/2", "respond alice A -> 2/4 1/2", "respond bob B -> 3/6 4/8"],
        [],
        ([F(1)], {(0, "c"): (F(1, 2), F(1, 2))}),
    ),
    "negative entry in a row summing to 1": (
        2,
        ["cause c weight 1", "respond alice A -> 3/2 -1/2", "respond bob B -> 1 0"],
        [
            "error:8:20: UNNORMALIZED: response row sums to 1 in the cause set",
            "error:7:1: " + NO_ALICE.format("c"),
        ],
        None,
    ),
    "decimal rows keep their notes": (
        2,
        [
            "cause c weight 0.5",
            "respond alice A -> 0.5 0.5",
            "respond bob B -> 0.5 0.5",
            "cause d weight 1/2",
            "respond alice A -> 0.5 0.5",
            "respond bob B -> 0.25 0.75",
        ],
        [
            _note(7, 16, "1/2", "0.5"),
            _note(8, 20, "1/2", "0.5"),
            _note(8, 24, "1/2", "0.5"),
            _note(9, 18, "1/2", "0.5"),
            _note(9, 22, "1/2", "0.5"),
            _note(11, 20, "1/2", "0.5"),
            _note(11, 24, "1/2", "0.5"),
            _note(12, 18, "1/4", "0.25"),
            _note(12, 23, "3/4", "0.75"),
        ],
        ([F(1, 2), F(1, 2)], {(0, "c"): (F(1, 2), F(1, 2)), (0, "d"): (F(1, 2), F(1, 2))}),
    ),
    "zero denominator": (
        2,
        ["cause c weight 1", "respond alice A -> 1/0 1", "respond bob B -> 1 0"],
        ["error:8:20: SYNTAX: zero denominator near '1/0'", "error:7:1: " + NO_ALICE.format("c")],
        None,
    ),
    "4300-digit literals": (
        2,
        ["cause c weight 1", f"respond alice A -> 1/{D} {D1}/{D}", "respond bob B -> 1 0"],
        [],
        ([F(1)], {(0, "c"): (F(1, 10**4299), F(10**4299 - 1, 10**4299))}),
    ),
    "4301-digit literals": (
        2,
        ["cause c weight 1", f"respond alice A -> 1/{E} {E1}/{E}", f"respond bob B -> {E}/{E} 0"],
        [
            f"error:8:20: {TOO_LONG}",
            f"error:9:18: {TOO_LONG}",
            f"error:9:18: {TOO_LONG}",
            "error:7:1: " + NO_ALICE.format("c"),
            "error:7:1: SYNTAX: cause c has no response for bob setting B",
        ],
        None,
    ),
    "one token across rows and causes": (
        2,
        [
            "cause c weight 1/2",
            "respond alice A -> 1/2 1/2",
            "respond bob B -> 1/2 1/2",
            "cause d weight 1/2",
            "respond alice A -> 1/2 1/2",
            "respond bob B -> 1 0",
        ],
        [],
        ([F(1, 2), F(1, 2)], {(0, "c"): (F(1, 2), F(1, 2)), (0, "d"): (F(1, 2), F(1, 2))}),
    ),
    "one bad token across rows": (
        2,
        [
            "cause c weight 1/2",
            "respond alice A -> 1/0 1",
            "respond bob B -> 1/2 1/2",
            "cause d weight 1/2",
            "respond alice A -> 1/0 1",
            "respond bob B -> 1/2 1/0",
        ],
        [
            "error:8:20: SYNTAX: zero denominator near '1/0'",
            "error:11:20: SYNTAX: zero denominator near '1/0'",
            "error:12:22: SYNTAX: zero denominator near '1/0'",
            "error:7:1: " + NO_ALICE.format("c"),
            "error:10:1: " + NO_ALICE.format("d"),
            "error:10:1: SYNTAX: cause d has no response for bob setting B",
        ],
        None,
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_row_diagnostics(case):
    alice_outcomes, lines, diagnostics, parsed = CASES[case]
    text = (
        "bellbox-format 1\n[scenario]\nalice = A\nbob = B\n"
        f"alice_outcomes = {alice_outcomes}\n[noncontextual]\n" + "\n".join(lines) + "\n"
    )
    result = parse_document(text)
    assert [d.render() for d in result.diagnostics] == diagnostics
    if parsed is None:
        assert result.document is None
        return
    model = result.document.noncontextual
    weights, alice_rows = parsed
    assert [c.weight for c in model.causes] == weights
    assert dict(model.alice_response.table) == alice_rows

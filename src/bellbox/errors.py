"""Exception hierarchy.

Every error carries a stable machine-readable ``code`` so callers (and the
CLI) can branch on the failure kind without string matching.
"""

from __future__ import annotations


class BellboxError(Exception):
    """Base class for all library errors.

    Raised as itself with codes INTERNAL (a failed proof check),
    TOO_LONG_TO_PRINT (a rational the text format cannot carry),
    UNREADABLE_METADATA (a metadata value the text format cannot carry) and
    UNREADABLE_VALUE (a label, cause id or float it cannot carry).
    """

    def __init__(self, message: str, *, code: str = "INTERNAL") -> None:
        super().__init__(message)
        self.code = code


class InvalidBehaviorError(BellboxError):
    """A probability table violates a behavior invariant.

    Codes: NON_FINITE_ENTRY (NaN or an infinity), NON_NUMERIC_ENTRY (not a
    real number: a string, None, a complex or a Decimal), NEGATIVE_ENTRY,
    UNNORMALIZED_CONTEXT, MISSING_CONTEXT (also a table key that is not a context of the scenario),
    MALFORMED_TABLE (a table that is not a mapping of contexts to rows of
    entries, raised when the behavior is made).
    """


class ScenarioShapeError(BellboxError):
    """The scenario does not have the shape an operation requires.

    Codes: SCENARIO_SHAPE, NON_BINARY_SETTING.
    """


class MixtureError(BellboxError):
    """Convex mixture arguments are unusable.

    Codes: SCENARIO_MISMATCH, BAD_WEIGHTS.
    """


class ModelError(BellboxError):
    """A cause model or direction set is malformed.

    Codes: MODEL_INVALID, UNKNOWN_CAUSE, ANGLES_MISSING.
    """


class MembershipError(BellboxError):
    """Membership testing rejected its numeric input.

    Codes: NUMERIC_INPUT_UNNORMALIZED.
    """


class SamplerError(BellboxError):
    """A sampling plan or empirical comparison is unusable.

    Codes: BAD_PLAN, UNSAMPLED_CONTEXT, SCENARIO_MISMATCH.
    """


class UnknownBuiltinError(BellboxError):
    """Requested builtin document name does not exist (UNKNOWN_BUILTIN)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="UNKNOWN_BUILTIN")

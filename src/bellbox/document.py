"""The ``.bellbox`` declarative text format: types, serializer, builtins.

A document is line-oriented 8-bit clean text.  It opens with the version
header ``bellbox-format 1``, contains a ``[scenario]`` section, exactly one
payload section (``[behavior]``, ``[noncontextual]``, ``[contextual]`` or
``[singlet]``), and optionally ``[metadata]``.  ``#`` starts a comment when
it begins the line or follows whitespace.  The full grammar lives in
``docs/format.md``.

This module holds the parsed types, the serializer and the builtin
documents.  The parser lives in ``_parser.py``, which :func:`parse_document`
loads on first call, so a program that never parses a text (the CLI on a
builtin, say) never loads it.  Serialization is canonical (fixed section
order, sorted keys, reduced rationals, contexts in lexicographic order) and
idempotent, and ``parse(serialize(d))`` returns a structurally equal
document; a value the text cannot carry raises instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BellboxError, UnknownBuiltinError
from .models import (
    ContextBlock,
    ContextualModel,
    NonContextualModel,
    QuantumDirections,
    _cause_sets,
    exact_behavior,
    singlet_behavior,
    socks_color,
    socks_off,
    socks_on,
)
from .scenario import PARTIES, Behavior, Prob, Scenario, exact_sum, printable

FORMAT_VERSION = 1

#: Denominator cap when decimal literals are converted to rationals.
DECIMAL_DENOMINATOR = 10**6

#: Longest integer literal (digits, sign not counted) the parser converts;
#: longer ones get a diagnostic.  Equal to CPython's default cap on
#: integer-string conversion, so every literal below it converts.
MAX_LITERAL_DIGITS = 4300

#: Integers below this have at most ``MAX_LITERAL_DIGITS`` digits.
_LITERAL_LIMIT = 10**MAX_LITERAL_DIGITS

#: Most table cells (sum over contexts of alice outcomes times bob outcomes)
#: a scenario may declare; a larger one gets a diagnostic before any cell
#: is built.
MAX_TABLE_CELLS = 100_000

_PAYLOAD_NAMES = ("behavior", "noncontextual", "contextual", "singlet")

_LABEL_RE = re.compile(r"[A-Za-z0-9_'\"\.\+\-]+")
_KEYVALUE_RE = re.compile(r"^\s*([A-Za-z][A-Za-z0-9_]*)\s*=\s*(.*?)\s*$")
# ``\S`` is the complement of ``str.isspace()``: a test pins that.  So a
# ``_TOKEN_RE`` match is a ``str.split()`` token.
_COMMENT_RE = re.compile(r"(?<!\S)#")
_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class ParseDiagnostic:
    """One parser message; ``line``/``column`` are 1-based source positions."""

    severity: str  # "error" | "note"
    line: int
    column: int
    message: str
    token: str = ""

    def render(self) -> str:
        tail = f" near {self.token!r}" if self.token else ""
        return f"{self.severity}:{self.line}:{self.column}: {self.message}{tail}"


@dataclass(frozen=True)
class SingletSpec:
    """Measurement angles stored in degrees (exact through serialization)."""

    alice_angles_deg: tuple[float, ...]
    bob_angles_deg: tuple[float, ...]

    def directions(self) -> QuantumDirections:
        return QuantumDirections(
            tuple(math.radians(a) for a in self.alice_angles_deg),
            tuple(math.radians(a) for a in self.bob_angles_deg),
        )


@dataclass(frozen=True)
class ModelDocument:
    """Parsed document: scenario plus exactly one payload."""

    scenario: Scenario
    version: int = FORMAT_VERSION
    name: str | None = None
    description: str | None = None
    behavior: Behavior | None = None
    noncontextual: NonContextualModel | None = None
    contextual: ContextualModel | None = None
    singlet: SingletSpec | None = None

    def __post_init__(self) -> None:
        if sum(getattr(self, name) is not None for name in _PAYLOAD_NAMES) != 1:
            raise ValueError("document needs exactly one payload section")

    @property
    def kind(self) -> str:
        return next(name for name in _PAYLOAD_NAMES if getattr(self, name) is not None)

    def model(self) -> NonContextualModel | ContextualModel | None:
        """The cause model carried by this document, if any."""
        if self.noncontextual is not None:
            return self.noncontextual
        return self.contextual

    def to_behavior(self) -> Behavior:
        """The behavior this document denotes (computed for model payloads)."""
        if self.behavior is not None:
            return self.behavior
        if self.singlet is not None:
            return singlet_behavior(self.singlet.directions(), self.scenario)
        return exact_behavior(self.model())  # type: ignore[arg-type]


@dataclass
class ParseResult:
    document: ModelDocument | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.document is not None

    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


def parse_document(text: str) -> ParseResult:
    """Parse a document; never raises on malformed input.

    On failure ``ParseResult.document`` is None and ``diagnostics`` explains
    why; NOTE-level entries (e.g. decimal conversions) can accompany success.
    """
    from . import _parser  # the parser loads on first parse

    return _parser.parse(text)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def fraction_text(value: Fraction) -> str:
    """``str(value)``, for a rational whose integers the format can carry.

    A numerator or denominator longer than ``MAX_LITERAL_DIGITS`` digits
    could not be read back, and CPython may refuse to print it, so such a
    value raises ``BellboxError`` ``TOO_LONG_TO_PRINT``, named through
    ``printable``.  A text of at most ``MAX_LITERAL_DIGITS`` characters is
    returned at once: neither integer in it can be longer.
    """
    try:
        text = str(value)
        if len(text) <= MAX_LITERAL_DIGITS:
            return text
    except ValueError:  # past CPython's int-string limit: the check below names the value
        pass
    if abs(value.numerator) >= _LITERAL_LIMIT or value.denominator >= _LITERAL_LIMIT:
        raise BellboxError(
            f"{printable(value)} is too long to print: the format carries integers "
            f"of at most {MAX_LITERAL_DIGITS} digits",
            code="TOO_LONG_TO_PRINT",
        )
    return str(value)


def _unreadable(noun: str, value: object) -> BellboxError:
    return BellboxError(
        f"{noun} {printable(value)!r} would not read back from the text format",
        code="UNREADABLE_VALUE",
    )


def _label_text(value: str, noun: str) -> str:
    """``value``, or ``UNREADABLE_VALUE`` if the parser's label rule refuses it."""
    if not (isinstance(value, str) and _LABEL_RE.fullmatch(value)):
        raise _unreadable(noun, value)
    return value


def _float_text(value: float) -> str:
    """Text that reads back as a float equal to ``value``: ``repr`` of an int, else of the
    float.  A value no finite float equals raises ``UNREADABLE_VALUE``: NaN, the infinities,
    an integer too large for a float or between two floats, or a rational such as 1/3."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number) or number != value:
        raise _unreadable("number", value)
    return repr(value if type(value) is int else number)


def _exact_texts(values: tuple[Prob, ...]) -> list[str]:
    """Literals of a model section, which the parser reads exactly.  Floats whose exact values
    sum to 1 with the others are written as the ``p/q`` of their ``as_integer_ratio()``, so
    they read back as the same numbers; other floats by ``repr``, read back as decimals."""
    texts = [None if isinstance(v, float) else fraction_text(v) for v in values]
    if None in texts:
        texts = [t or _float_text(v) for t, v in zip(texts, values)]  # NaN and the infinities raise
        exact = [Fraction(v) for v in values]
        if exact_sum(exact) == 1:
            texts = [fraction_text(v) for v in exact]
    return texts


def serialize_document(document: ModelDocument) -> str:
    """Canonical text form; idempotent and structurally round-trippable."""
    out: list[str] = [f"bellbox-format {FORMAT_VERSION}", ""]
    if document.name is not None or document.description is not None:
        out.append("[metadata]")
        for key in ("description", "name"):
            if getattr(document, key) is not None:
                out.append(_metadata_line(key, getattr(document, key)))
        out.append("")
    scenario = document.scenario
    out.append("[scenario]")
    for party in PARTIES:
        labels = [_label_text(label, "setting label") for label in scenario.settings(party)]
        out.append(f"{party} = " + " ".join(labels))
        out.append(f"{party}_outcomes = " + " ".join(map(str, scenario.outcome_counts(party))))
    out.append("")

    if document.behavior is not None:
        out.extend(_serialize_behavior(document.behavior))
    elif document.singlet is None:
        out.append(f"[{document.kind}]")
        for _, ctx, group, *settings in _cause_sets(document.model()):
            if ctx is not None:
                out.append(
                    f"context {scenario.alice_settings[ctx.alice]} "
                    f"{scenario.bob_settings[ctx.bob]}"
                )
            out.extend(_serialize_causes(scenario, group, settings))
    else:
        out.append("[singlet]")
        for key in ("alice_angles_deg", "bob_angles_deg"):
            angles = [_float_text(a) for a in getattr(document.singlet, key)]
            out.append(f"{key} = " + " ".join(angles))
    out.append("")
    return "\n".join(out)


def _metadata_line(key: str, value: str) -> str:
    """``key = value``, or ``UNREADABLE_METADATA`` if it would not read back as ``value``."""
    line = f"{key} = {value}"
    m = _KEYVALUE_RE.match(_COMMENT_RE.split(line, 1)[0])
    if line.splitlines() != [line] or m is None or m.group(2) != value:
        raise BellboxError(
            f"metadata {key} {value!r} would not read back from the text format",
            code="UNREADABLE_METADATA",
        )
    return line


def _serialize_behavior(behavior: Behavior) -> list[str]:
    out = ["[behavior]"]
    if not behavior.exact:
        out.append("numbers = float")
    scenario = behavior.scenario
    for ctx, a, b, value in behavior.entries():
        x = scenario.alice_settings[ctx.alice]
        y = scenario.bob_settings[ctx.bob]
        text = fraction_text(value) if isinstance(value, Fraction) else _float_text(value)
        out.append(f"P({a},{b} | {x},{y}) = {text}")
    return out


def _serialize_causes(
    scenario: Scenario,
    source: NonContextualModel | ContextBlock,
    settings: list[tuple[int, ...]],
) -> list[str]:
    out = []
    responses = (source.alice_response, source.bob_response)
    weights = _exact_texts(tuple([cause.weight for cause in source.causes]))
    for cause, weight in zip(source.causes, weights):
        out.append(f"cause {_label_text(cause.id, 'cause id')} weight {weight}")
        for party, response, answered in zip(("alice", "bob"), responses, settings):
            labels = scenario.settings(party)  # type: ignore[arg-type]
            for setting in answered:
                row = _exact_texts(response.outcome_probs(setting, cause.id))
                out.append(f"respond {party} {labels[setting]} -> " + " ".join(row))
    return out


# ---------------------------------------------------------------------------
# Builtin documents
# ---------------------------------------------------------------------------

#: name -> (payload kind, payload builder, description)
_BUILTINS = {
    "socks-on": (
        "noncontextual",
        socks_on,
        "Four equal-weight hidden states fixed before measurement; "
        "local behavior with CHSH maximum 2.",
    ),
    "socks-off": (
        "contextual",
        socks_off,
        "Per-context causes actualized by the joint question; reaches the "
        "algebraic CHSH maximum 4 with no-signaling marginals.",
    ),
    "socks-color": (
        "contextual",
        socks_color,
        "Sock-color questions pull the pink sock to the asking side, or "
        "trigger an attention coin when both sides ask; marginals shift by "
        "1/2 (signaling) and the computed CHSH maximum is 2.",
    ),
    "singlet-optimal": (
        "singlet",
        lambda: SingletSpec((0.0, 90.0), (45.0, 135.0)),
        "Two-spin zero state measured at the angle set reaching the quantum "
        "CHSH maximum 2*sqrt(2).",
    ),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_document(name: str) -> ModelDocument:
    """One of the shipped canonical documents; UNKNOWN_BUILTIN otherwise."""
    if name not in _BUILTINS:
        raise UnknownBuiltinError(
            f"no builtin named {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    kind, build, description = _BUILTINS[name]
    payload = build()
    scenario = (
        Scenario.binary(("A", "A'"), ("B", "B'")) if kind == "singlet" else payload.scenario
    )
    return ModelDocument(
        scenario=scenario, name=name, description=description, **{kind: payload}
    )

"""The ``.bellbox`` parser, which ``document.parse_document`` loads on first call.

Parsing is total: malformed input produces :class:`ParseDiagnostic` entries
with line and column positions, never an exception.  Each cause weight and
response row is checked once, on integer numerators, as it is read, and a
parsed model keeps the terms so checked.  One reader takes both model sections:
the families differ only in ``models._cause_sets`` and in the ``context`` line.

Probability literals are rationals ``p/q`` or decimals.  In the default
exact mode a decimal is converted to a rational with denominator at most
10**6 and a NOTE diagnostic records the conversion; a behavior section may
instead declare ``numbers = float``, in which case its literals are floats
and round-trip exactly through ``repr``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import partial
from typing import Callable

from .document import (
    DECIMAL_DENOMINATOR, FORMAT_HEADER, FORMAT_VERSION, MAX_LITERAL_DIGITS, MAX_TABLE_CELLS,
    _COMMENT_RE, _KEYVALUE_RE, _LABEL_RE, _PAYLOAD_NAMES, _TOKEN_RE, ModelDocument,
    ParseDiagnostic, ParseResult, SingletSpec, _entry_label,
)  # fmt: skip
from .models import Cause, ContextBlock, ContextualModel, NonContextualModel, ResponseFunction
from .models import _answered_settings, _checked
from .scenario import PARTIES, Behavior, Context, Prob, Scenario, exact_sum, printable, sums_to_one

_SECTION_NAMES = ("metadata", "scenario", "behavior", "noncontextual", "contextual", "singlet")
_SECTION_RE = re.compile(r"^\s*\[([A-Za-z]+)\]\s*$")
_PROW_RE = re.compile(
    r"^\s*P\(\s*(\d+)\s*,\s*(\d+)\s*\|\s*([^\s,()|=#]+)\s*,\s*([^\s,()|=#]+)\s*\)"
    r"\s*=\s*(\S+)\s*$"
)
_RATIONAL_RE = re.compile(r"^([+-]?\d+)/(\d+)$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")


class _DocParser:
    def __init__(self, text: str) -> None:
        self.diags: list[ParseDiagnostic] = []
        self.errors = 0  # how many of self.diags are errors
        self.lines = text.splitlines()
        self.exact_literals: dict[str, Fraction] = {}  # token -> value, this parse only
        self.labels: set[str] = set()  # labels ``_LABEL_RE`` accepted, this parse only
        self.token_starts: dict[str, list[int]] = {}  # text -> its tokens' starts, this parse only

    def column(self, text: str, k: int, offset: int = 0) -> int:
        """1-based column of the ``k``-th ``str.split()`` token of ``text``, ``offset`` columns in.

        Readers pass a column as an int or as these arguments, so that it is
        computed only when a diagnostic needs it; each text is scanned once,
        however many of its tokens are reported.
        """
        starts = self.token_starts.get(text)
        if starts is None:
            starts = self.token_starts[text] = [m.start() for m in _TOKEN_RE.finditer(text)]
        return offset + starts[k] + 1

    def error(self, line: int, column: int | tuple, message: str, token: str = "") -> None:
        column = column if isinstance(column, int) else self.column(*column)
        self.diags.append(ParseDiagnostic("error", line, column, message, token))
        self.errors += 1

    def note(self, line: int, column: int | tuple, message: str, token: str = "") -> None:
        column = column if isinstance(column, int) else self.column(*column)
        self.diags.append(ParseDiagnostic("note", line, column, message, token))

    def error_at_head(self, line: int, text: str, message: str) -> None:
        """An error at the first token of a line, naming it."""
        self.error(line, (text, 0), message, text.split()[0])

    # -- numeric literals ---------------------------------------------------

    def parse_int(self, token: str, line: int, column: int | tuple) -> int | None:
        """Digits with an optional sign; None (with a diagnostic) when too long."""
        if len(token.lstrip("+-")) > MAX_LITERAL_DIGITS:
            self.error(
                line,
                column,
                f"SYNTAX: integer literal longer than {MAX_LITERAL_DIGITS} digits",
                token[:40] + "...",
            )
            return None
        return int(token)

    def parse_probability(
        self,
        token: str,
        line: int,
        column: int | tuple,
        *,
        as_float: bool,
        noun: str = "a probability literal",
    ) -> Prob | None:
        """Rational/decimal literal; None (with a diagnostic naming ``noun``) when malformed."""
        if not as_float and token in self.exact_literals:
            return self.exact_literals[token]
        m = _RATIONAL_RE.match(token)
        # In float mode a plain integer is read by float() below, as a decimal.
        if m or (not as_float and _INT_RE.match(token)):
            numerator = self.parse_int(m.group(1) if m else token, line, column)
            denominator = self.parse_int(m.group(2), line, column) if m else 1
            if numerator is None or denominator is None:
                return None
            if denominator == 0:
                self.error(line, column, "SYNTAX: zero denominator", token)
                return None
            value = Fraction(numerator, denominator)
            if not as_float:
                self.exact_literals[token] = value
                return value
            try:
                return float(value)
            except OverflowError:
                self.error(line, column, "SYNTAX: number out of range", token)
                return None
        if _DECIMAL_RE.match(token):
            value = float(token)
            if not math.isfinite(value):
                self.error(line, column, "SYNTAX: number out of range", token)
                return None
            if as_float:
                return value
            snapped = Fraction(value).limit_denominator(DECIMAL_DENOMINATOR)
            self.note(
                line,
                column,
                f"decimal literal converted to rational {snapped}",
                token,
            )
            return snapped
        self.error(line, column, f"SYNTAX: expected {noun}", token)
        return None

    def parse_label(self, token: str, line: int, column: int | tuple) -> str | None:
        if token not in self.labels:
            if not _LABEL_RE.fullmatch(token):
                self.error(line, column, "SYNTAX: invalid label", token)
                return None
            self.labels.add(token)
        return token


def parse(text: str) -> ParseResult:
    p = _DocParser(text)
    sections = _split_sections(p)
    if sections is None or p.errors:
        return ParseResult(None, p.diags)

    entries = _key_values(p, sections.get("metadata", []), ("name", "description"), "metadata")
    metadata = {key: value for key, (_, _, value) in entries.items()}
    scenario_lines = sections.get("scenario")
    if scenario_lines is None:
        p.error(1, 1, "SYNTAX: missing [scenario] section")
        return ParseResult(None, p.diags)
    scenario = _build_scenario(p, scenario_lines)

    present = [name for name in _PAYLOAD_NAMES if name in sections]
    if len(present) != 1:
        p.error(
            1,
            1,
            "SYNTAX: document needs exactly one of "
            "[behavior], [noncontextual], [contextual], [singlet]; "
            f"found {len(present)}",
        )
        return ParseResult(None, p.diags)

    if scenario is None or p.errors:
        return ParseResult(None, p.diags)

    kind = present[0]
    builders: dict[str, Callable] = {
        "behavior": _build_behavior,
        "noncontextual": _build_model,
        "contextual": partial(_build_model, contextual=True),
        "singlet": _build_singlet,
    }
    payload = builders[kind](p, scenario, sections[kind])
    if payload is None or p.errors:
        return ParseResult(None, p.diags)

    document = ModelDocument(
        scenario=scenario,
        name=metadata.get("name"),
        description=metadata.get("description"),
        **{kind: payload},
    )
    return ParseResult(document, p.diags)


_Line = tuple[int, str]  # (1-based line number, content with comments removed)


def _split_sections(p: _DocParser) -> dict[str, list[_Line]] | None:
    content: list[_Line] = []
    for i, raw in enumerate(p.lines, start=1):
        stripped = _COMMENT_RE.split(raw, 1)[0] if "#" in raw else raw
        if stripped.strip():
            content.append((i, stripped))
    if not content:
        p.error(1, 1, "SYNTAX: empty document")
        return None

    header_line, header_text = content[0]
    tokens = header_text.split()
    if len(tokens) != 2 or tokens[0] != "bellbox-format":
        message = f"SYNTAX: expected version header '{FORMAT_HEADER}'"
        p.error_at_head(header_line, header_text, message)
        return None
    version = tokens[1]
    if (
        not _INT_RE.match(version)
        or len(version) > MAX_LITERAL_DIGITS
        or int(version) != FORMAT_VERSION
    ):
        p.error(
            header_line,
            (header_text, 1),
            f"VERSION_UNSUPPORTED: this reader handles version {FORMAT_VERSION}",
            version,
        )
        return None

    sections: dict[str, list[_Line]] = {}
    current: list[_Line] | None = None
    for line_no, text in content[1:]:
        m = _SECTION_RE.match(text) if "[" in text else None
        if m:
            name = m.group(1)
            column = text.index("[") + 1
            if name not in _SECTION_NAMES:
                p.error(line_no, column, "SYNTAX: unknown section", f"[{name}]")
                current = []  # swallow the body of the unknown section
                continue
            if name in sections:
                p.error(line_no, column, "SYNTAX: duplicate section", f"[{name}]")
                current = []
                continue
            sections[name] = []
            current = sections[name]
            continue
        if current is None:
            p.error_at_head(line_no, text, "SYNTAX: content before any section")
            continue
        current.append((line_no, text))
    return sections


def _key_values(
    p: _DocParser, lines: list[_Line], keys: tuple[str, ...], section: str
) -> dict[str, tuple[int, int, str]]:
    """``key = value`` lines of one section: key -> (line, value column, value)."""
    out: dict[str, tuple[int, int, str]] = {}
    for line_no, text in lines:
        m = _KEYVALUE_RE.match(text)
        if not m:
            p.error_at_head(line_no, text, "SYNTAX: expected 'key = value'")
            continue
        key = m.group(1)
        if key not in keys:
            p.error(line_no, m.start(1) + 1, f"SYNTAX: unknown {section} key", key)
            continue
        if key in out:
            p.error(line_no, m.start(1) + 1, f"SYNTAX: duplicate {section} key", key)
            continue
        out[key] = (line_no, m.start(2) + 1, m.group(2))
    return out


def _build_scenario(p: _DocParser, lines: list[_Line]) -> Scenario | None:
    first_line = lines[0][0] if lines else 1
    raw = _key_values(p, lines, ("alice", "bob", "alice_outcomes", "bob_outcomes"), "scenario")

    settings: dict[str, tuple[str, ...]] = {}
    for key in ("alice", "bob"):
        if key not in raw:
            p.error(first_line, 1, f"SYNTAX: scenario needs '{key} = <labels>'")
            continue
        line_no, column, value = raw[key]
        labels: dict[str, None] = {}  # ordered, with O(1) membership
        for k, tok in enumerate(value.split()):
            col = (value, k, column - 1)
            label = p.parse_label(tok, line_no, col)
            if label is not None:
                if label in labels:
                    p.error(line_no, col, "SYNTAX: duplicate setting label", label)
                else:
                    labels[label] = None
        if labels:
            settings[key] = tuple(labels)
        else:
            p.error(line_no, column, f"SYNTAX: {key} needs at least one setting")

    counts: dict[str, tuple[int, ...]] = {}
    for key, party in (("alice_outcomes", "alice"), ("bob_outcomes", "bob")):
        if party not in settings:
            continue
        if key not in raw:
            counts[party] = (2,) * len(settings[party])
            continue
        line_no, column, value = raw[key]
        parsed = []
        for k, tok in enumerate(value.split()):
            col = (value, k, column - 1)
            count = p.parse_int(tok, line_no, col) if _INT_RE.match(tok) else 0
            if count is not None and count < 2:
                p.error(line_no, col, "SYNTAX: outcome counts are integers >= 2", tok)
            elif count is not None:
                parsed.append(count)
        if len(parsed) != len(settings[party]):
            p.error(
                line_no,
                column,
                f"SYNTAX: {key} needs one count per {party} setting "
                f"({len(settings[party])})",
            )
        else:
            counts[party] = tuple(parsed)

    if p.errors or "alice" not in settings or "bob" not in settings:
        return None
    cells = sum(counts["alice"]) * sum(counts["bob"])
    if cells > MAX_TABLE_CELLS:
        p.error(
            first_line,
            1,
            f"SYNTAX: scenario has {printable(cells)} table cells, more than {MAX_TABLE_CELLS}",
        )
        return None
    return Scenario(settings["alice"], settings["bob"], counts["alice"], counts["bob"])


def _context(
    p: _DocParser,
    scenario: Scenario,
    line_no: int,
    x_label: str,
    y_label: str,
    x_col: int | tuple,
    y_col: int | tuple,
) -> Context | None:
    """Context of an alice and a bob label; None (with a diagnostic) if unknown."""
    if x_label not in scenario.alice_settings:
        p.error(line_no, x_col, "UNKNOWN_LABEL: not an alice setting", x_label)
        return None
    if y_label not in scenario.bob_settings:
        p.error(line_no, y_col, "UNKNOWN_LABEL: not a bob setting", y_label)
        return None
    return Context(scenario.alice_settings.index(x_label), scenario.bob_settings.index(y_label))


def _build_behavior(
    p: _DocParser, scenario: Scenario, lines: list[_Line]
) -> Behavior | None:
    as_float = numbers_seen = False
    cells: dict[tuple[Context, int, int], Prob] = {}
    cell_pos: dict[Context, tuple[int, int]] = {}
    body: list[_Line] = []
    for line_no, text in lines:
        m = _KEYVALUE_RE.match(text)
        if m and m.group(1) == "numbers":
            if numbers_seen:
                p.error(line_no, m.start(1) + 1, "SYNTAX: duplicate behavior key", "numbers")
            elif m.group(2) == "float":
                as_float = True
            elif m.group(2) != "exact":
                p.error(
                    line_no,
                    m.start(2) + 1,
                    "SYNTAX: numbers mode is 'exact' or 'float'",
                    m.group(2),
                )
            numbers_seen = True
            continue
        body.append((line_no, text))

    for line_no, text in body:
        m = _PROW_RE.match(text)
        if not m:
            p.error_at_head(line_no, text, "SYNTAX: expected 'P(a,b | x,y) = value'")
            continue
        a = p.parse_int(m.group(1), line_no, m.start(1) + 1)
        b = p.parse_int(m.group(2), line_no, m.start(2) + 1)
        if a is None or b is None:
            continue
        x_label, y_label = m.group(3), m.group(4)
        ctx = _context(p, scenario, line_no, x_label, y_label, m.start(3) + 1, m.start(4) + 1)
        if ctx is None:
            continue
        if not (1 <= a <= scenario.alice_outcomes[ctx.alice]) or not (
            1 <= b <= scenario.bob_outcomes[ctx.bob]
        ):
            p.error(
                line_no,
                m.start(1) + 1,
                f"SYNTAX: outcome pair ({a},{b}) out of range for context "
                f"{ctx.label(scenario)}",
            )
            continue
        value = p.parse_probability(
            m.group(5), line_no, m.start(5) + 1, as_float=as_float
        )
        if value is None:
            continue
        key = (ctx, a, b)
        if key in cells:
            p.error(
                line_no,
                m.start(1) + 1,
                f"SYNTAX: duplicate entry for {_entry_label(scenario, ctx, a, b)}",
            )
            continue
        cells[key] = value
        cell_pos.setdefault(ctx, (line_no, 1))

    if p.errors:
        return None

    zero: Prob = 0.0 if as_float else Fraction(0)
    section_pos = (lines[0][0] if lines else 1, 1)  # of a context with no entry
    table: dict[Context, tuple[tuple[Prob, ...], ...]] = {}
    for ctx in scenario.contexts():
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        grid = [
            [cells.get((ctx, a, b), zero) for b in range(1, nb + 1)]
            for a in range(1, na + 1)
        ]
        line_no, column = cell_pos.get(ctx, section_pos)
        total = exact_sum([v for row in grid for v in row])
        negative = any(v < 0 for row in grid for v in row)
        if negative:
            p.error(
                line_no,
                column,
                f"UNNORMALIZED: negative probability in behavior rows for "
                f"context {ctx.label(scenario)}",
            )
        elif not sums_to_one(total):
            p.error(
                line_no,
                column,
                f"UNNORMALIZED: behavior rows for context {ctx.label(scenario)} "
                f"sum to {printable(total)}",
            )
        table[ctx] = tuple(tuple(row) for row in grid)
    if p.errors:
        return None
    return Behavior(scenario, table)


class _CauseAccumulator:
    """Shared cause/respond line handling for model sections."""

    def __init__(
        self, p: _DocParser, scenario: Scenario, where: str, ctx: Context | None = None
    ) -> None:
        self.p = p
        self.scenario = scenario
        self.where = where
        self.causes: list[tuple[str, Prob, int]] = []  # (id, weight, line)
        self.ids: set[str] = set()  # of self.causes
        # party -> {(setting index, cause id): row}, as ResponseFunction takes it
        self.rows: dict[str, dict[tuple[int, str], tuple[Prob, ...]]] = {"alice": {}, "bob": {}}
        # party -> {label: (setting index, outcome count, rows)} of the settings causes answer
        self.answers = {party: {
            scenario.settings(party)[s]: (s, scenario.outcome_counts(party)[s], self.rows[party])
            for s in answered
        } for party, answered in zip(PARTIES, _answered_settings(scenario, ctx))}

    def on_cause(self, line_no: int, text: str, tokens: list[str]) -> None:
        if len(tokens) != 4 or tokens[2] != "weight":
            self.p.error_at_head(line_no, text, "SYNTAX: expected 'cause <id> weight <p/q>'")
            return
        cause_id = self.p.parse_label(tokens[1], line_no, (text, 1))
        weight = self.p.parse_probability(tokens[3], line_no, (text, 3), as_float=False)
        if cause_id is None or weight is None:
            return
        if cause_id in self.ids:
            self.p.error(line_no, (text, 1), "SYNTAX: duplicate cause id", cause_id)
            return
        if weight.numerator < 0:
            self.p.error(line_no, (text, 3), f"UNNORMALIZED: negative weight in {self.where}")
            return
        self.ids.add(cause_id)
        self.causes.append((cause_id, weight, line_no))

    def on_respond(self, line_no: int, text: str, tokens: list[str]) -> None:
        if not self.causes:
            self.p.error_at_head(line_no, text, "SYNTAX: 'respond' before any 'cause' line")
            return
        if len(tokens) < 5 or tokens[3] != "->":
            self.p.error_at_head(
                line_no, text, "SYNTAX: expected 'respond <party> <setting> -> <probabilities>'"
            )
            return
        party, label = tokens[1], tokens[2]
        answers = self.answers.get(party)
        if answers is None:
            self.p.error(line_no, (text, 1), "SYNTAX: party is 'alice' or 'bob'", party)
            return
        answer = answers.get(label)
        if answer is None:
            if label not in self.scenario.settings(party):  # type: ignore[arg-type]
                self.p.error(line_no, (text, 2), f"UNKNOWN_LABEL: not a {party} setting", label)
            else:
                message = f"SYNTAX: setting {label} is not part of {self.where}"
                self.p.error(line_no, (text, 2), message, label)
            return
        setting, count, rows = answer
        row: list[Fraction] = []
        for k in range(4, len(tokens)):
            value = self.p.parse_probability(tokens[k], line_no, (text, k), as_float=False)
            if value is None:
                return
            row.append(value)
        if len(row) != count:
            message = f"SYNTAX: {party} setting {label} needs {count} probabilities"
            self.p.error(line_no, (text, 4), f"{message}, got {len(row)}")
            return
        if not _is_distribution(row):
            message = f"UNNORMALIZED: response row sums to {printable(exact_sum(row))}"
            self.p.error(line_no, (text, 4), f"{message} in {self.where}")
            return
        cause_id = self.causes[-1][0]
        if (setting, cause_id) in rows:
            self.p.error(
                line_no,
                (text, 2),
                f"SYNTAX: duplicate response for {party} setting {label} "
                f"under cause {cause_id}",
            )
            return
        rows[(setting, cause_id)] = tuple(row)

    def finish(
        self, section_line: int
    ) -> tuple[tuple[Cause, ...], ResponseFunction, ResponseFunction] | None:
        if not self.causes:
            self.p.error(section_line, 1, f"SYNTAX: {self.where} declares no causes")
            return None
        weights = [w for _, w, _ in self.causes]
        if not _is_distribution(weights):  # they are >= 0: on_cause refuses the others
            message = f"UNNORMALIZED: cause weights in {self.where} sum to"
            self.p.error(self.causes[0][2], 1, f"{message} {printable(exact_sum(weights))}")
        # Rows are keyed by an answered setting and a cause id, once each: all are there
        # exactly when each party has one per setting and cause.
        n, rows = len(self.causes), self.rows
        if any(len(rows[party]) != n * len(answers) for party, answers in self.answers.items()):
            for cause_id, _, cause_line in self.causes:
                for party, answers in self.answers.items():
                    for label, (setting, _, _) in answers.items():
                        if (setting, cause_id) not in rows[party]:
                            self.p.error(
                                cause_line,
                                1,
                                f"SYNTAX: cause {cause_id} has no response for "
                                f"{party} setting {label}",
                            )
        if self.p.errors:
            return None
        # A list, not a generator: tuple(generator) allocates spare slots and
        # shrinks, and the shrunk tuple later idles in a per-size free list.
        causes = tuple([Cause(cid, w) for cid, w, _ in self.causes])
        return (causes, *[ResponseFunction(party, rows[party]) for party in PARTIES])


def _is_distribution(values: list[Fraction]) -> bool:
    """Every value is >= 0 and they sum to exactly 1, checked on integer numerators over one
    denominator: the values' own when they share it, else the lcm of theirs."""
    den, total = values[0].denominator, 0
    for v in values:
        if v.denominator != den:
            dens = [v.denominator for v in values]
            den = math.lcm(*dens)
            nums = [v.numerator * (den // d) for v, d in zip(values, dens)]
            return min(nums) >= 0 and sum(nums) == den
        if v.numerator < 0:
            return False
        total += v.numerator
    return total == den


def _build_model(
    p: _DocParser, scenario: Scenario, lines: list[_Line], contextual: bool = False
) -> NonContextualModel | ContextualModel | None:
    """The model of a ``[noncontextual]`` section, or with ``contextual`` of a ``[contextual]`` one.

    A ``[noncontextual]`` section is the one cause set that answers every
    setting (the ``ctx is None`` set of ``models._cause_sets``); in a
    ``[contextual]`` section each ``context <x> <y>`` line opens the cause set
    of its context, and every context needs one.
    """
    section_line = lines[0][0] if lines else 1
    acc = None if contextual else _CauseAccumulator(p, scenario, "the cause set")
    sets = {} if acc is None else {None: (section_line, acc)}  # ctx -> (its line, its set)
    heads = "'context', 'cause' or 'respond'" if contextual else "'cause' or 'respond'"
    for line_no, text in lines:
        tokens = text.split()
        head = tokens[0]
        if head == "context" and contextual:
            acc = None
            if len(tokens) != 3:
                p.error_at_head(line_no, text, "SYNTAX: expected 'context <x> <y>'")
                continue
            ctx = _context(p, scenario, line_no, tokens[1], tokens[2], (text, 1), (text, 2))
            if ctx is None:
                continue
            if ctx in sets:
                message = f"SYNTAX: duplicate block for context {ctx.label(scenario)}"
                p.error(line_no, (text, 1), message)
                continue
            acc = _CauseAccumulator(p, scenario, f"context {ctx.label(scenario)}", ctx)
            sets[ctx] = (line_no, acc)
        elif head not in ("cause", "respond"):
            p.error_at_head(line_no, text, f"SYNTAX: expected {heads}")
        elif acc is None:
            p.error(line_no, (text, 0), f"SYNTAX: '{head}' before any 'context' line")
        elif head == "cause":
            acc.on_cause(line_no, text, tokens)
        else:
            acc.on_respond(line_no, text, tokens)

    built = {ctx: set_acc.finish(set_line) for ctx, (set_line, set_acc) in sets.items()}
    for ctx in scenario.contexts() if contextual else ():
        if ctx not in sets:
            p.error(section_line, 1, f"SYNTAX: missing block for context {ctx.label(scenario)}")
    if p.errors:
        return None
    if contextual:
        model = ContextualModel(scenario, {ctx: ContextBlock(*b) for ctx, b in built.items()})
    else:
        model = NonContextualModel(scenario, *built[None])
    return _checked(model)


def _build_singlet(
    p: _DocParser, scenario: Scenario, lines: list[_Line]
) -> SingletSpec | None:
    section_line = lines[0][0] if lines else 1
    if not scenario.is_binary():
        p.error(section_line, 1, "SYNTAX: singlet documents need two-outcome settings")
        return None
    angles: dict[str, tuple[float, ...]] = {}
    for line_no, text in lines:
        m = _KEYVALUE_RE.match(text)
        if not m or m.group(1) not in ("alice_angles_deg", "bob_angles_deg"):
            message = "SYNTAX: expected 'alice_angles_deg = ...' or 'bob_angles_deg = ...'"
            p.error_at_head(line_no, text, message)
            continue
        key = m.group(1)
        if key in angles:
            p.error(line_no, m.start(1) + 1, "SYNTAX: duplicate key", key)
            continue
        values, value_text = [], m.group(2)
        for k, tok in enumerate(value_text.split()):
            column = (value_text, k, m.start(2))
            value = p.parse_probability(tok, line_no, column, as_float=True, noun="a number")
            if value is not None:
                values.append(value)
        angles[key] = tuple(values)
    for key, party in (("alice_angles_deg", "alice"), ("bob_angles_deg", "bob")):
        expected = len(scenario.settings(party))  # type: ignore[arg-type]
        got = angles.get(key)
        if got is None or len(got) != expected:
            p.error(section_line, 1, f"SYNTAX: {key} needs exactly {expected} angles")
    if p.errors:
        return None
    return SingletSpec(angles["alice_angles_deg"], angles["bob_angles_deg"])

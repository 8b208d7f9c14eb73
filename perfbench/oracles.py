"""Independent answers for checking the program's outputs (standard library only).

Nothing here imports ``bellbox``: tables, CHSH values and residuals are
computed from the generator's specs, the sampler is re-implemented from the
randomness contract stated in the README, and CLI output is compared with
goldens captured at the commit that defined this benchmark.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

FLOAT_SIGNALING_ATOL = 1e-9

ARRANGEMENTS = tuple(
    sorted(
        (s for s in itertools.product((1, -1), repeat=4) if s.count(-1) % 2 == 1),
        key=lambda s: "".join("+" if v > 0 else "-" for v in s),
    )
)


# ---------------------------------------------------------------------------
# Canonical text
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return str(value) if isinstance(value, Fraction) else repr(value)


def render(spec) -> str:
    """Canonical ``.bellbox`` text of a spec, as ``bellbox show`` prints it."""
    out = ["bellbox-format 1", ""]
    if spec.name is not None or spec.description is not None:
        out.append("[metadata]")
        if spec.description is not None:
            out.append(f"description = {spec.description}")
        if spec.name is not None:
            out.append(f"name = {spec.name}")
        out.append("")
    out += [
        "[scenario]",
        "alice = " + " ".join(spec.alice),
        "alice_outcomes = " + " ".join(map(str, spec.alice_outcomes)),
        "bob = " + " ".join(spec.bob),
        "bob_outcomes = " + " ".join(map(str, spec.bob_outcomes)),
        "",
    ]

    def cause_lines(cid, weight, alice_rows, bob_rows):
        out.append(f"cause {cid} weight {_fmt(weight)}")
        for x, row in alice_rows:
            out.append(f"respond alice {spec.alice[x]} -> " + " ".join(map(_fmt, row)))
        for y, row in bob_rows:
            out.append(f"respond bob {spec.bob[y]} -> " + " ".join(map(_fmt, row)))

    if spec.kind == "noncontextual":
        out.append("[noncontextual]")
        for cid, weight, arows, brows in spec.causes:
            cause_lines(cid, weight, sorted(arows.items()), sorted(brows.items()))
    elif spec.kind == "contextual":
        out.append("[contextual]")
        for x, y in spec.contexts():
            out.append(f"context {spec.alice[x]} {spec.bob[y]}")
            for cid, weight, arow, brow in spec.blocks[(x, y)]:
                cause_lines(cid, weight, [(x, arow)], [(y, brow)])
    else:
        out.append("[singlet]")
        out.append("alice_angles_deg = " + " ".join(map(repr, spec.angles[0])))
        out.append("bob_angles_deg = " + " ".join(map(repr, spec.angles[1])))
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Exact tables, residual, CHSH and Fine's criterion
# ---------------------------------------------------------------------------


def exact_table(spec) -> dict:
    """``{(x, y): rows}``: exact Fractions for models, floats for singlets."""
    table = {}
    for x, y in spec.contexts():
        na, nb = spec.alice_outcomes[x], spec.bob_outcomes[y]
        if spec.kind == "singlet":
            c = math.cos(math.radians(spec.angles[0][x]) - math.radians(spec.angles[1][y]))
            same, diff = (1.0 - c) / 4.0, (1.0 + c) / 4.0
            table[(x, y)] = [[same, diff], [diff, same]]
            continue
        cells = [[Fraction(0)] * nb for _ in range(na)]
        for _, weight, arow, brow in spec.context_causes((x, y)):
            for a in range(na):
                for b in range(nb):
                    cells[a][b] += weight * arow[a] * brow[b]
        table[(x, y)] = cells
    return table


def residual(table: dict):
    """Largest marginal gap of either party across the other's settings."""
    alice: dict = {}
    bob: dict = {}
    for (x, y), rows in table.items():
        alice.setdefault(x, []).append([sum(row) for row in rows])
        bob.setdefault(y, []).append([sum(col) for col in zip(*rows)])
    gap = 0
    for per_setting in (alice, bob):
        for rows in per_setting.values():
            for values in zip(*rows):
                gap = max(gap, max(values) - min(values))
    return gap


def chsh_max(table: dict):
    e = [table[ctx][0][0] + table[ctx][1][1] - table[ctx][0][1] - table[ctx][1][0] for ctx in sorted(table)]
    return max(abs(sum(s * v for s, v in zip(signs, e))) for signs in ARRANGEMENTS)


def fine_verdict(spec) -> str:
    """SIGNALING if marginals shift, else LOCAL exactly when max |CHSH| <= 2 (Fine 1982)."""
    table = exact_table(spec)
    gap = residual(table)
    if gap > (FLOAT_SIGNALING_ATOL if spec.kind == "singlet" else 0):
        return "SIGNALING"
    return "LOCAL" if chsh_max(table) <= 2 else "NONLOCAL_NOSIGNALING"


class Outcome(NamedTuple):
    """What the benchmark keeps of one analyze operation for checking."""

    verdict: str
    chsh_max: object
    has_decomposition: bool
    has_certificate: bool
    separates: bool
    round_trip: bool


_PROOFS = {
    "LOCAL": (True, False),
    "NONLOCAL_NOSIGNALING": (False, True),
    "SIGNALING": (False, False),
}


def check_outcome(spec, outcome: Outcome) -> str | None:
    """Why an analyze outcome is wrong for ``spec``, or None when it is right."""
    if outcome.verdict != spec.label:
        return f"{spec.name}: verdict {outcome.verdict}, generator label {spec.label}"
    fine = fine_verdict(spec)
    if outcome.verdict != fine:
        return f"{spec.name}: verdict {outcome.verdict}, Fine's criterion {fine}"
    want = chsh_max(exact_table(spec))
    if spec.kind == "singlet":
        if abs(float(outcome.chsh_max) - want) > 1e-9:
            return f"{spec.name}: chsh_max {outcome.chsh_max} != {want}"
    elif outcome.chsh_max != want:
        return f"{spec.name}: chsh_max {outcome.chsh_max} != {want}"
    proofs = (outcome.has_decomposition, outcome.has_certificate)
    if proofs != _PROOFS.get(outcome.verdict):
        return f"{spec.name}: {outcome.verdict} with (decomposition, certificate) = {proofs}"
    if outcome.has_certificate and not outcome.separates:
        return f"{spec.name}: certificate does not separate"
    if not outcome.round_trip:
        return f"{spec.name}: serialize_document(parse_document(text)) != text"
    return None


# ---------------------------------------------------------------------------
# The randomness contract, re-implemented
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1
_K0 = 0x9E3779B97F4A7C15
_K1 = 0xD1B54A32D192ED03
_K2 = 0x8CB92BA72F3D8DD7
TRIAL_HEADER = "trial,alice_setting,bob_setting,cause,a,b"


def _mix(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


_DRAW_KEYS = tuple(_mix(d ^ _K2) for d in range(4))


def _threshold(value: Fraction):
    # Same comparison as the exact Fraction, but float-to-float when exact.
    as_float = float(value)
    return as_float if Fraction(as_float) == value else value


def _cdf(pairs) -> list:
    """``[(threshold, item)]`` over the positive entries, cumulative in order."""
    out, acc = [], Fraction(0)
    for item, weight in pairs:
        if weight:
            acc += weight
            out.append((_threshold(acc), item))
    return out


def _pick(cdf, u: float):
    for threshold, item in cdf:
        if u < threshold:
            return item
    return cdf[-1][1]


def simulate(spec, trials: int, schedule: str, context, seed: int, lines: bool = False):
    """Counts ``{(x, y): rows}`` of the pinned sampler, plus the trial stream's digest.

    The digest is the SHA-256 of the header and record lines, each ending in
    a newline, and is ``None`` unless ``lines`` is set.
    """
    contexts = spec.contexts()
    arms = {}
    for ctx in contexts:
        causes = spec.context_causes(ctx)
        arms[ctx] = (
            _cdf((i, w) for i, (_, w, _, _) in enumerate(causes)),
            [_cdf(enumerate(arow, 1)) for _, _, arow, _ in causes],
            [_cdf(enumerate(brow, 1)) for _, _, _, brow in causes],
            [cid for cid, _, _, _ in causes],
        )
    counts = {
        (x, y): [[0] * spec.bob_outcomes[y] for _ in range(spec.alice_outcomes[x])]
        for x, y in contexts
    }
    digest = hashlib.sha256((TRIAL_HEADER + "\n").encode()) if lines else None
    mix, d0, d1, d2, d3 = _mix, *_DRAW_KEYS
    seed_key = mix((seed & _M64) ^ _K0)
    n_ctx = len(contexts)
    for i in range(trials):
        t = mix(seed_key ^ mix(i ^ _K1))
        if schedule == "fixed":
            ctx = context
        elif schedule == "cycle":
            ctx = contexts[i % n_ctx]
        else:
            ctx = contexts[int((mix(t ^ d0) >> 11) * 2.0**-53 * n_ctx)]
        cause_cdf, alice_cdfs, bob_cdfs, ids = arms[ctx]
        k = _pick(cause_cdf, (mix(t ^ d1) >> 11) * 2.0**-53)
        a = _pick(alice_cdfs[k], (mix(t ^ d2) >> 11) * 2.0**-53)
        b = _pick(bob_cdfs[k], (mix(t ^ d3) >> 11) * 2.0**-53)
        counts[ctx][a - 1][b - 1] += 1
        if digest is not None:
            x, y = ctx
            digest.update(f"{i},{spec.alice[x]},{spec.bob[y]},{ids[k]},{a},{b}\n".encode())
    sampled = {ctx: rows for ctx, rows in counts.items() if any(map(any, rows))}
    return sampled, (digest.hexdigest() if digest is not None else None)


def deviation(counts: dict, table: dict):
    """Largest gap between observed frequencies and exact probabilities."""
    gap = Fraction(0)
    for ctx, rows in table.items():
        total = sum(map(sum, counts[ctx]))
        for count_row, prob_row in zip(counts[ctx], rows):
            for count, p in zip(count_row, prob_row):
                gap = max(gap, abs(Fraction(count, total) - p))
    return gap


# ---------------------------------------------------------------------------
# CLI goldens
# ---------------------------------------------------------------------------


def check_cli(golden: dict | None, code: int, stdout: bytes) -> str | None:
    """Why one CLI result differs from its golden, or None when it matches."""
    if golden is None:
        return "no golden for this invocation"
    if code != golden["exit"]:
        return f"exit {code}, golden {golden['exit']}"
    if code == 0 and not stdout:
        return "exit 0 with empty stdout"
    if stdout != golden["stdout"].encode("utf-8"):
        return f"stdout differs from golden ({len(stdout)} vs {len(golden['stdout'])} bytes)"
    return None

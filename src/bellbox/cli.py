"""Command-line front end: exact tables, sampling, CHSH, membership, classification.

Usage::

    bellbox <subcommand> <builtin-name | path.bellbox> [flags]

Subcommands: exact, sample, chsh, nosig, membership, classify, show.
Exit codes: 0 success, 1 input or parse error (diagnostics on stderr),
2 internal invariant violation.

Each handler imports the analysis or sampler layer itself, so a subcommand
loads only the modules it runs; the document parser loads only for a file.

``main()`` (the console script, also ``python -m bellbox.cli``) calls
``gc.freeze()`` once ``run_cli`` has written its output, then exits with its
code: the process ends there, so interpreter shutdown need not collect the
cycles of every loaded module, class and function.  ``run_cli`` leaves the
collector alone, so library callers keep their own collector state.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import document, models
from .errors import BellboxError
from .scenario import Behavior, Context, Prob, Scenario, expectation, marginals

if TYPE_CHECKING:  # annotations only
    from . import analysis, sampler

_BUILTIN_ALIASES = {"singlet": "singlet-optimal"}

# Diagnostics printed per document; the rest are counted in one line.
MAX_PRINTED_DIAGNOSTICS = 100


class _CliInputError(Exception):
    """Bad invocation or bad input document; maps to exit code 1."""


class _ParserExit(Exception):
    """argparse ended the invocation itself (``--help``); ``args[0]`` is the exit code."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2)
        raise _CliInputError(message)

    def exit(self, status: int = 0, message: str | None = None) -> None:  # argparse would sys.exit
        raise _ParserExit(status)  # only --help gets here: error() above takes every message


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bellbox",
        description=(
            "Analyze two-party correlation behaviors: exact tables, CHSH "
            "values, no-signaling residuals, local-polytope membership, and "
            "seeded Monte Carlo sampling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "input",
            help=(
                "builtin name (socks-on, socks-off, socks-color, singlet) "
                "or path to a .bellbox file"
            ),
        )
        p.add_argument(
            "--output",
            choices=("table", "machine"),
            default="table",
            help="human table or canonical key/value sections",
        )
        p.add_argument(
            "--decimal",
            action="store_true",
            help="print rationals as decimals in tables",
        )
        p.add_argument("--out", metavar="PATH", help="write output to a file")
        return p

    add("exact", "print the exact behavior table and expectations")
    p_sample = add("sample", "run a seeded experiment and compare to the exact table")
    p_sample.add_argument("--seed", type=int, default=1, help="64-bit experiment seed")
    p_sample.add_argument(
        "--trials", type=int, default=40000, help="number of trials (>= 1)"
    )
    p_sample.add_argument(
        "--schedule",
        default="cycle",
        help="fixed:<x>,<y> | uniform | cycle",
    )
    add("chsh", "print all 8 CHSH arrangement values and the maximum")
    add("nosig", "print the no-signaling residual and every marginal pair")
    add("membership", "decide local-polytope membership with a proof")
    add("classify", "full report: expectations, CHSH, residual, class")
    add("show", "print the canonical document")
    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = _dispatch(args)
    except _ParserExit as exc:
        return exc.args[0]
    except _CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BellboxError as exc:
        if exc.code == "INTERNAL":  # a failed proof check, not bad input
            import traceback  # only internal errors pay for the import

            traceback.print_exc()
            return 2
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - internal invariant violation
        import traceback

        traceback.print_exc()
        return 2
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    import gc

    code = run_cli(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _load_document(selector: str) -> document.ModelDocument:
    name = _BUILTIN_ALIASES.get(selector, selector)
    if name in document.BUILTIN_NAMES:
        return document.builtin_document(name)
    path = Path(selector)
    if not path.exists():
        raise _CliInputError(
            f"{selector!r} is neither a builtin "
            f"({', '.join(document.BUILTIN_NAMES)}, singlet) nor a file"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliInputError(f"cannot read {selector}: {exc}") from exc
    result = document.parse_document(text)
    for diag in result.diagnostics[:MAX_PRINTED_DIAGNOSTICS]:
        print(f"{selector}:{diag.render()}", file=sys.stderr)
    hidden = len(result.diagnostics) - MAX_PRINTED_DIAGNOSTICS
    if hidden > 0:
        print(f"{selector}: … {hidden} more diagnostics", file=sys.stderr)
    if result.document is None:
        raise _CliInputError(f"{selector} did not parse")
    return result.document


def _dispatch(args: argparse.Namespace) -> str:
    doc = _load_document(args.input)
    handlers = {
        "exact": _cmd_exact,
        "sample": _cmd_sample,
        "chsh": _cmd_chsh,
        "nosig": _cmd_nosig,
        "membership": _cmd_membership,
        "classify": _cmd_classify,
        "show": _cmd_show,
    }
    return handlers[args.command](args, doc)


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _fmt(value: Prob, decimal: bool = False) -> str:
    """Every rational the CLI prints goes through here."""
    if isinstance(value, Fraction):
        if decimal:
            return f"{float(value):.12g}"
        return document.fraction_text(value)
    return f"{value:.12g}"


def _behavior_table(behavior: Behavior, decimal: bool) -> list[str]:
    scenario = behavior.scenario
    groups: dict[tuple[int, int], list[tuple[str, list[str]]]] = {}
    for ctx in scenario.contexts():
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        values = [
            _fmt(behavior.prob(ctx, a, b), decimal)
            for a in range(1, na + 1)
            for b in range(1, nb + 1)
        ]
        groups.setdefault((na, nb), []).append((ctx.label(scenario), values))

    lines = []
    for (na, nb), rows in groups.items():
        headers = [f"({a},{b})" for a in range(1, na + 1) for b in range(1, nb + 1)]
        widths = [
            max(len(h), *(len(row[i]) for _, row in rows))
            for i, h in enumerate(headers)
        ]
        pad = max(len("context"), *(len(label) for label, _ in rows))
        lines.append(
            "context".ljust(pad)
            + "  "
            + "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        )
        for label, row in rows:
            lines.append(
                label.ljust(pad)
                + "  "
                + "  ".join(v.rjust(w) for v, w in zip(row, widths))
            )
    return lines


def _strategy_text(scenario: Scenario, strategy: analysis.DeterministicStrategy) -> str:
    alice = " ".join(
        f"{label}->{outcome}"
        for label, outcome in zip(scenario.alice_settings, strategy.alice)
    )
    bob = " ".join(
        f"{label}->{outcome}"
        for label, outcome in zip(scenario.bob_settings, strategy.bob)
    )
    return f"alice({alice}) bob({bob})"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_show(args: argparse.Namespace, doc: document.ModelDocument) -> str:
    return document.serialize_document(doc)


def _cmd_exact(args: argparse.Namespace, doc: document.ModelDocument) -> str:
    behavior = doc.to_behavior()
    if args.output == "machine":
        return document.serialize_document(
            document.ModelDocument(scenario=behavior.scenario, behavior=behavior)
        )
    scenario = behavior.scenario
    lines = [f"behavior of {doc.name or args.input} ({doc.kind})"]
    lines.extend(_behavior_table(behavior, args.decimal))
    if scenario.is_binary():
        lines.append("expectations:")
        for ctx in scenario.contexts():
            lines.append(
                f"E{ctx.label(scenario)} = "
                f"{_fmt(expectation(behavior, ctx), args.decimal)}"
            )
    return "\n".join(lines) + "\n"


def _cmd_chsh(args: argparse.Namespace, doc: document.ModelDocument) -> str:
    from . import analysis

    behavior = doc.to_behavior()
    values = [
        (arr, analysis.chsh_value(behavior, arr))
        for arr in analysis.chsh_arrangements()
    ]
    best, best_arr = analysis.chsh_max(behavior)
    if args.output == "machine":
        lines = [document.FORMAT_HEADER, "", "[chsh]"]
        for arr, value in values:
            lines.append(f"value {analysis.arrangement_str(arr)} = {_fmt(value)}")
        lines.append(f"max = {_fmt(best)}")
        lines.append(f"arrangement = {analysis.arrangement_str(best_arr)}")
        return "\n".join(lines) + "\n"
    lines = ["CHSH arrangement values:"]
    for arr, value in values:
        lines.append(f"  {analysis.arrangement_str(arr)}  ->  {_fmt(value, args.decimal)}")
    lines.append(
        f"max |CHSH| = {_fmt(best, args.decimal)}  "
        f"(arrangement {analysis.arrangement_str(best_arr)})"
    )
    return "\n".join(lines) + "\n"


def _marginal_pairs(behavior: Behavior) -> list[tuple[str, str, int, list[Prob]]]:
    """(party, setting label, outcome, per-co-setting marginals) rows."""
    scenario = behavior.scenario
    table = marginals(behavior)
    rows = []
    for party in ("alice", "bob"):
        own_labels = scenario.settings(party)  # type: ignore[arg-type]
        co_count = len(scenario.settings("bob" if party == "alice" else "alice"))  # type: ignore[arg-type]
        counts = scenario.outcome_counts(party)  # type: ignore[arg-type]
        for own, label in enumerate(own_labels):
            for outcome in range(1, counts[own] + 1):
                values = [
                    table.row(party, own, co)[outcome - 1] for co in range(co_count)  # type: ignore[arg-type]
                ]
                rows.append((party, label, outcome, values))
    return rows


def _cmd_nosig(args: argparse.Namespace, doc: document.ModelDocument) -> str:
    from . import analysis

    behavior = doc.to_behavior()
    residual = analysis.nosignaling_residual(behavior)
    rows = _marginal_pairs(behavior)
    scenario = behavior.scenario
    if args.output == "machine":
        lines = [document.FORMAT_HEADER, "", "[nosig]", f"residual = {_fmt(residual)}"]
        for party, label, outcome, values in rows:
            co_labels = scenario.settings("bob" if party == "alice" else "alice")  # type: ignore[arg-type]
            for co_label, value in zip(co_labels, values):
                lines.append(
                    f"marginal {party} {label} {outcome} | {co_label} = {_fmt(value)}"
                )
        return "\n".join(lines) + "\n"
    lines = [f"no-signaling residual = {_fmt(residual, args.decimal)}"]
    for party, label, outcome, values in rows:
        co_labels = scenario.settings("bob" if party == "alice" else "alice")  # type: ignore[arg-type]
        shown = ", ".join(
            f"P|{co}={_fmt(v, args.decimal)}" for co, v in zip(co_labels, values)
        )
        gap = max(values) - min(values)
        lines.append(
            f"  {party} {label} outcome {outcome}: {shown}  (gap {_fmt(gap, args.decimal)})"
        )
    return "\n".join(lines) + "\n"


def _decomposition_lines(
    scenario: Scenario, decomposition: analysis.LocalDecomposition, machine: bool
) -> list[str]:
    lines = []
    for strategy, weight in decomposition.weights:
        if machine:
            alice = ",".join(str(o) for o in strategy.alice)
            bob = ",".join(str(o) for o in strategy.bob)
            lines.append(f"weight ({alice};{bob}) = {_fmt(weight)}")
        else:
            lines.append(f"  weight {_fmt(weight)}  {_strategy_text(scenario, strategy)}")
    return lines


def _certificate_lines(
    scenario: Scenario, certificate: analysis.InfeasibilityCertificate, machine: bool
) -> list[str]:
    lines = []
    prefix = "coeff " if machine else "  "
    for ctx in scenario.contexts():
        na = scenario.alice_outcomes[ctx.alice]
        nb = scenario.bob_outcomes[ctx.bob]
        for a in range(1, na + 1):
            for b in range(1, nb + 1):
                coeff = certificate.coefficients.get((ctx, a, b))
                if coeff:
                    lines.append(
                        f"{prefix}{document._entry_label(scenario, ctx, a, b)} = {_fmt(coeff)}"
                    )
    value, bound = _fmt(certificate.behavior_value), _fmt(certificate.local_bound)
    if machine:
        lines.extend([f"value = {value}", f"local_bound = {bound}"])
    else:
        lines.append(f"  functional value on behavior = {value} > local bound = {bound}")
    return lines


def _cmd_membership(args: argparse.Namespace, doc: document.ModelDocument) -> str:
    from . import analysis

    behavior = doc.to_behavior()
    result = analysis.local_membership(behavior)
    scenario = behavior.scenario
    machine = args.output == "machine"
    lines = [document.FORMAT_HEADER, "", "[membership]"] if machine else []
    status = "LOCAL" if result.feasible else "INFEASIBLE"
    lines.append(f"status = {status}" if machine else status)
    if result.snap_error:
        lines.append(
            f"snap_error = {result.snap_error:.12g}"
            if machine
            else f"  (floating input snapped to rationals; max shift {result.snap_error:.3g})"
        )
    if result.decomposition is not None:
        if not machine:
            lines[0] = "LOCAL: the behavior is a mixture of deterministic strategies"
        lines.extend(_decomposition_lines(scenario, result.decomposition, machine))
        if not machine:
            lines.append("  reconstruction from the mixture is exact")
    else:
        if not machine:
            lines[0] = (
                "INFEASIBLE: no mixture of deterministic strategies matches; "
                "separating functional:"
            )
        lines.extend(_certificate_lines(scenario, result.certificate, machine))
    return "\n".join(lines) + "\n"


def _cmd_classify(args: argparse.Namespace, doc: document.ModelDocument) -> str:
    from . import analysis

    behavior = doc.to_behavior()
    report = analysis.classify(behavior)
    scenario = behavior.scenario
    machine = args.output == "machine"
    contexts = scenario.contexts()
    if machine:
        lines = [document.FORMAT_HEADER, "", "[classify]"]
        lines.append(f"classification = {report.classification.value}")
        lines.append(f"chsh_max = {_fmt(report.chsh_max)}")
        lines.append(
            f"arrangement = {analysis.arrangement_str(report.chsh_arrangement)}"
        )
        lines.append(f"residual = {_fmt(report.nosignaling_residual)}")
        for ctx, value in zip(contexts, report.expectations):
            lines.append(f"expectation {ctx.label(scenario)} = {_fmt(value)}")
        if report.snap_error:
            lines.append(f"snap_error = {report.snap_error:.12g}")
        if report.decomposition is not None:
            lines.extend(_decomposition_lines(scenario, report.decomposition, True))
        if report.certificate is not None:
            lines.extend(_certificate_lines(scenario, report.certificate, True))
        return "\n".join(lines) + "\n"
    lines = [f"classification: {report.classification.value}"]
    lines.append("expectations:")
    for ctx, value in zip(contexts, report.expectations):
        lines.append(f"  E{ctx.label(scenario)} = {_fmt(value, args.decimal)}")
    lines.append(
        f"max |CHSH| = {_fmt(report.chsh_max, args.decimal)}  "
        f"(arrangement {analysis.arrangement_str(report.chsh_arrangement)})"
    )
    lines.append(
        f"no-signaling residual = {_fmt(report.nosignaling_residual, args.decimal)}"
    )
    if report.decomposition is not None:
        lines.append("local decomposition:")
        lines.extend(_decomposition_lines(scenario, report.decomposition, False))
    if report.certificate is not None:
        lines.append("separating functional:")
        lines.extend(_certificate_lines(scenario, report.certificate, False))
    return "\n".join(lines) + "\n"


def _parse_schedule(text: str, scenario: Scenario) -> sampler.Schedule:
    from . import sampler

    if text == "uniform":
        return sampler.Schedule.uniform()
    if text == "cycle":
        return sampler.Schedule.cycle()
    if text.startswith("fixed:"):
        parts = text[len("fixed:") :].split(",")
        if len(parts) != 2:
            raise _CliInputError("fixed schedule syntax is fixed:<x>,<y>")
        x, y = parts[0].strip(), parts[1].strip()
        if x not in scenario.alice_settings:
            raise _CliInputError(f"{x!r} is not an alice setting")
        if y not in scenario.bob_settings:
            raise _CliInputError(f"{y!r} is not a bob setting")
        return sampler.Schedule.fixed(
            Context(
                scenario.alice_settings.index(x), scenario.bob_settings.index(y)
            )
        )
    raise _CliInputError(f"unknown schedule {text!r}; use fixed:<x>,<y>|uniform|cycle")


def _cmd_sample(args: argparse.Namespace, doc: document.ModelDocument) -> str:
    from . import sampler

    model = doc.model()
    if model is None:
        raise _CliInputError(
            f"{args.input} carries no cause model; sampling needs a "
            "noncontextual or contextual document"
        )
    if args.trials < 1:
        raise _CliInputError("--trials must be at least 1")
    if not 0 <= args.seed < 2**64:
        raise _CliInputError("--seed must lie in [0, 2**64)")
    scenario = model.scenario
    schedule = _parse_schedule(args.schedule, scenario)
    plan = sampler.ExperimentPlan(args.seed, args.trials, schedule)
    run = sampler.run_experiment(model, plan)
    exact = models.exact_behavior(model)
    sampled = run.empirical.sampled_contexts()
    full_coverage = set(sampled) == set(scenario.contexts())

    if args.output == "machine":
        lines = [document.FORMAT_HEADER, "", "[sample]"]
        lines.append(f"seed = {args.seed}")
        lines.append(f"trials = {args.trials}")
        lines.append(f"schedule = {args.schedule}")
        if full_coverage:
            deviation = sampler.empirical_deviation(run.empirical, exact)
            lines.append(f"deviation = {_fmt(deviation)}")
        for ctx in sampled:
            x = scenario.alice_settings[ctx.alice]
            y = scenario.bob_settings[ctx.bob]
            for a, row in enumerate(run.empirical.counts[ctx], start=1):
                for b, count in enumerate(row, start=1):
                    lines.append(f"count({a},{b} | {x},{y}) = {count}")
        lines.append("")
        lines.append("[trials]")
        lines.extend(sampler.trial_lines(scenario, run.records))
        return "\n".join(lines) + "\n"

    lines = [
        f"plan: seed={args.seed} trials={args.trials} schedule={args.schedule}",
        "empirical frequencies:",
    ]
    for ctx in sampled:
        total = run.empirical.total(ctx)
        freqs = run.empirical.frequencies(ctx)
        label = ctx.label(scenario)
        cells = ", ".join(
            f"({a},{b})={_fmt(float(freqs[a - 1][b - 1]), True)}"
            for a in range(1, len(freqs) + 1)
            for b in range(1, len(freqs[0]) + 1)
        )
        lines.append(f"  {label} [{total} trials]: {cells}")
    if full_coverage:
        deviation = sampler.empirical_deviation(run.empirical, exact)
        lines.append(f"max deviation vs exact table = {_fmt(float(deviation), True)}")
    else:
        lines.append("(deviation reported only when every context is sampled)")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()

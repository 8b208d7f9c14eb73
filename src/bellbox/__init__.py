"""Two-party correlation behaviors driven by common-cause models.

Exact probability tables, CHSH analysis, no-signaling residuals,
local-polytope membership with explicit proofs, seeded Monte Carlo
sampling, and the ``.bellbox`` document format.

Each submodule loads on first access to one of its names (PEP 562), so
``import bellbox`` itself imports none of them.
"""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "analysis": (
        "AnalysisReport",
        "Classification",
        "DeterministicStrategy",
        "InfeasibilityCertificate",
        "LocalDecomposition",
        "MembershipResult",
        "arrangement_str",
        "chsh_arrangements",
        "chsh_max",
        "chsh_value",
        "classify",
        "enumerate_strategies",
        "local_membership",
        "nosignaling_residual",
        "strategy_behavior",
    ),
    "document": (
        "BUILTIN_NAMES",
        "ModelDocument",
        "ParseDiagnostic",
        "ParseResult",
        "SingletSpec",
        "builtin_document",
        "parse_document",
        "serialize_document",
    ),
    "errors": (
        "BellboxError",
        "InvalidBehaviorError",
        "MembershipError",
        "MixtureError",
        "ModelError",
        "SamplerError",
        "ScenarioShapeError",
        "UnknownBuiltinError",
    ),
    "models": (
        "Cause",
        "ContextBlock",
        "ContextualModel",
        "NonContextualModel",
        "QuantumDirections",
        "ResponseFunction",
        "condition_on_cause",
        "deterministic_row",
        "exact_behavior",
        "random_noncontextual_model",
        "singlet_behavior",
        "singlet_optimal_directions",
        "socks_color",
        "socks_off",
        "socks_on",
        "validate_model",
    ),
    "sampler": (
        "EmpiricalBehavior",
        "ExperimentPlan",
        "ExperimentRun",
        "Schedule",
        "TrialRecord",
        "empirical_deviation",
        "run_experiment",
        "sample_trial",
        "trial_lines",
        "unit_draw",
        "write_trials",
    ),
    "scenario": (
        "Behavior",
        "Context",
        "MarginalTable",
        "Prob",
        "Scenario",
        "Validation",
        "expectation",
        "marginals",
        "mix",
        "outcome_sign",
        "require_valid",
        "validate_behavior",
    ),
    "simplex": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__() -> list[str]:
    """Every public name, loaded or not, beside the module's own attributes."""
    own = {name for name in globals() if name.startswith("__") or not name.startswith("_")}
    return sorted((own - {"__all__", "__dir__", "__getattr__", "importlib"}) | set(__all__))

"""Ternary-outcome Bell inequality toolkit.

Subpackages by role: core (outcome types and probability algebra), lhv
(local models and the exhaustive bound verification), qm (cascade-photon
closed forms), inequalities (evaluators and reports), montecarlo
(deterministic coincidence sampling), optimizer (angle scans), cli.

Importing the package loads only this file. Each submodule, and each
re-exported name (with its home module), loads on first attribute access
(PEP 562), so a command compiles only the layers it runs: ``eval`` loads
cli, core, inequalities and qm; ``verify-theorem`` adds lhv; ``mc`` adds
montecarlo and numpy, which only it and lhv.random_model load; ``scan``
adds optimizer. With PYTHONDONTWRITEBYTECODE=1, a fresh ``import
belltest`` adds under 3 ms to a bare interpreter's start (medians of 40
runs on 2 vCPUs).
"""

__version__ = "0.1.0"

_HOMES = {  # re-exported name -> home module, in __all__ order
    "BellTestError": "core",
    "DetectionRates": "core",
    "DeterministicAssignment": "lhv",
    "FourAxisModel": "lhv",
    "InequalityReport": "inequalities",
    "Outcome": "core",
    "PairProbabilities": "core",
    "SettingsQuad": "inequalities",
    "SinglesProbabilities": "core",
    "TheoremReport": "lhv",
    "UndefinedRatioError": "core",
    "ValidationError": "core",
}
_SUBMODULES = ("cli", "core", "inequalities", "lhv", "montecarlo", "optimizer", "qm")

__all__ = [*_HOMES, *_SUBMODULES, "__version__"]


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        # import_module also binds the submodule on the package, so this
        # hook runs at most once per name.
        return import_module(f"{__name__}.{name}")
    if name in _HOMES:
        value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

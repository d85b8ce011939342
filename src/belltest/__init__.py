"""Ternary-outcome Bell inequality toolkit.

Subpackages by role: core (outcome types and probability algebra), lhv
(local models and the exhaustive bound verification), qm (cascade-photon
closed forms), inequalities (evaluators and reports), montecarlo
(deterministic coincidence sampling), optimizer (angle scans), cli.

Importing the package loads core, inequalities, lhv and qm, none of
which needs numpy. cli, montecarlo and optimizer are imported on first
attribute access (PEP 562), so ``belltest verify-theorem`` and
``belltest eval`` start without loading numpy.
"""

from . import core, inequalities, lhv, qm
from .core import (
    BellTestError,
    DetectionRates,
    EventDistribution,
    Outcome,
    PairProbabilities,
    SinglesProbabilities,
    UndefinedRatioError,
    ValidationError,
)
from .inequalities import InequalityReport, SettingsQuad
from .lhv import DeterministicAssignment, FourAxisModel, TheoremReport

__version__ = "0.1.0"

__all__ = [
    "BellTestError",
    "DetectionRates",
    "DeterministicAssignment",
    "EventDistribution",
    "FourAxisModel",
    "InequalityReport",
    "Outcome",
    "PairProbabilities",
    "SettingsQuad",
    "SinglesProbabilities",
    "TheoremReport",
    "UndefinedRatioError",
    "ValidationError",
    "cli",
    "core",
    "inequalities",
    "lhv",
    "montecarlo",
    "optimizer",
    "qm",
    "__version__",
]

_LAZY_SUBMODULES = frozenset({"cli", "montecarlo", "optimizer"})


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        # import_module also binds the submodule on the package, so this
        # hook runs at most once per name.
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY_SUBMODULES)

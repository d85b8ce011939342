"""Search for the setting quad that maximizes an inequality violation.

The quads are parameterized by three physical axis angles (a, b, a')
with b' locked to a', so every evaluated quad is realizable by actual
coplanar polarizer axes. The scan optimizes within that slice, whose
optimum is -1.5. Free quads go further, to 1 - 2 sqrt(2) for the
ternary form at axes (0, 67.5, 135, 112.5), in line with Tsirelson's
bound for CHSH. Every scanned form depends on the axes only through
their differences, so the coarse phase sweeps just the a = 0 plane of
the grid (n^2 points, not n^3) with each form's plane formula; a
derivative-free coordinate refinement then halves the step around the
incumbent, re-scoring candidates with the exact scalar evaluator so
both computation paths stay honest. lhs_planes streams the full n^3
surface one a-plane at a time in O(n^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from . import qm
from .core import ValidationError, require_in_range
from .inequalities import (  # noqa: F401 - the scan limits are re-exported
    INEQUALITIES,
    LOCAL_BOUND,
    MAX_AXIS_POINTS,
    MAX_REFINE_ROUNDS,
    MAX_STEP_DEG,
    MIN_STEP_DEG,
    Form,
    SettingsQuad,
    form_for,
)


@dataclass(frozen=True)
class ScanResult:
    """Best quad found by a scan; lhs_planes gives the grid samples.

    surface is always None. perfbench/tracing.py reads it from every
    grid_scan, so it stays until the tracer stops wrapping grid_scan.
    """

    best_quad: SettingsQuad
    best_lhs: float
    best_factor: float
    best_diffs: tuple[float, float, float, float]
    surface: None = None


def _scan_form(inequality: str, source: qm.IdealSource | qm.RealSource) -> Form:
    if inequality not in INEQUALITIES:
        raise ValidationError(
            f"cannot scan inequality {inequality!r}; expected one of {INEQUALITIES}"
        )
    return form_for(inequality, source)


def objective(
    quad: SettingsQuad,
    inequality: str,
    source: qm.IdealSource | qm.RealSource,
) -> float:
    """Inequality left-hand side at a quad from closed-form inputs."""
    return _scan_form(inequality, source).evaluate(quad, source).lhs


def lhs_planes(
    inequality: str,
    source: qm.IdealSource | qm.RealSource,
    step_deg: float,
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Grid axis values and the lhs over the full (a, b, a') grid.

    The axis holds [0, 180) at step_deg; the planes, computed from the
    form's plane (see inequalities.Form), are yielded lazily, one per a
    value in axis order, each indexed (b, a') with b' = a'. No grid is
    built before the first plane is asked for, and only one plane is
    alive at a time, so memory stays O(n^2).
    """
    scale, offset = _scan_form(inequality, source).plane(source)
    require_in_range("step_deg", step_deg, MIN_STEP_DEG, MAX_STEP_DEG)
    axes = np.arange(0.0, 180.0, float(step_deg))

    def planes() -> Iterator[np.ndarray]:
        # fringes[i, j] = cos 2(axes_i - axes_j); at a = axes[i] the three
        # cross pairs (a,b), (b',a) with b' = a', and (b,a') give the sum below
        fringes = np.cos(np.radians(2.0 * (axes[:, None] - axes[None, :])))
        for row in fringes:
            yield scale * (row[:, None] + row[None, :] + fringes) + offset

    return axes, planes()


def grid_scan(
    inequality: str,
    source: qm.IdealSource | qm.RealSource,
    step_deg: float = 1.0,
    refine_rounds: int = 6,
) -> ScanResult:
    """Minimize the inequality lhs over feasible quads.

    The coarse phase scores only the a = 0 plane of the (a, b, a') grid
    over [0, 180) at step_deg: rotating all axes together leaves every
    form unchanged, so when 180 / step_deg is an integer that plane holds
    the optimum of the whole grid. refine_rounds rounds of coordinate
    refinement follow, each halving the step and re-scoring a local
    5x5x5 neighborhood in (a, b, a') with the scalar objective;
    refine_rounds is at most MAX_REFINE_ROUNDS. Ties break toward the
    lexicographically smallest quad.
    """
    axes, planes = lhs_planes(inequality, source, step_deg)
    require_in_range("refine_rounds", refine_rounds, 0, MAX_REFINE_ROUNDS)
    j, k = divmod(int(np.argmin(next(planes))), axes.size)  # argmin keeps the first minimum

    b0, ap0 = float(axes[j]), float(axes[k])
    # From here on everything goes through the scalar evaluator so that
    # the reported optimum is consistent with objective().
    best_axes = (0.0, b0, ap0)
    best_lhs = objective(SettingsQuad.of(0.0, b0, ap0, ap0), inequality, source)

    span = float(step_deg)
    for _ in range(refine_rounds):
        span /= 2.0
        offsets = (-2.0 * span, -span, 0.0, span, 2.0 * span)
        center = best_axes
        for da, db, dap in product(offsets, repeat=3):
            quad = SettingsQuad.of(center[0] + da, center[1] + db,
                                   center[2] + dap, center[2] + dap)
            normalized = quad.axes_degrees()[:3]
            value = objective(quad, inequality, source)
            if (value, normalized) < (best_lhs, best_axes):
                best_lhs = value
                best_axes = normalized

    best_quad = SettingsQuad.of(best_axes[0], best_axes[1], best_axes[2], best_axes[2])
    ratio = best_lhs / LOCAL_BOUND
    factor = ratio if ratio > 1.0 else 1.0
    return ScanResult(
        best_quad=best_quad,
        best_lhs=best_lhs,
        best_factor=factor,
        best_diffs=best_quad.differences(),
    )

"""Search for the setting quad that maximizes an inequality violation.

The quads are parameterized by three physical axis angles (a, b, a')
with b' locked to a', which matches the configuration that achieves the
maximal violation and guarantees every evaluated quad is realizable by
actual coplanar polarizer axes. Every scanned form depends on the axes
only through their differences, so the coarse phase sweeps just the
a = 0 plane of the grid (n^2 points, not n^3) with vectorized closed
forms; a derivative-free coordinate refinement then halves the step
around the incumbent, re-scoring candidates with the exact scalar
evaluator so both computation paths stay honest. The full n^3 surface
is available one a-plane at a time from lhs_planes, so a caller can
stream it out in O(n^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterator

import numpy as np

from . import qm
from .core import ValidationError
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
    """Best quad found by a scan, with the grid samples if requested."""

    best_quad: SettingsQuad
    best_lhs: float
    best_factor: float
    best_diffs: tuple[float, float, float, float]
    surface: tuple[tuple[float, float, float, float, float], ...] | None = None


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


def _fast_lhs_planes(axes: np.ndarray, inequality: str, source) -> Iterator[np.ndarray]:
    """Vectorized lhs over the (a, b, a') grid, one a-slice at a time.

    With b' = a' the primed-pair and singles terms reduce to constants,
    leaving a three-fringe sum (scaled by the depolarization factor for
    the detection form). Yields 2d planes indexed (b, a').
    """
    two_theta = np.radians(2.0 * (axes[:, None] - axes[None, :]))
    fringes = np.cos(two_theta)  # fringes[i, j] = cos 2(axes_i - axes_j)
    if inequality == "ternary":
        scale, offset = 1.0, 0.0
    else:
        f = source.geometry.f_factor
        scale, offset = f, 1.0 - f
    for i in range(axes.size):
        # terms (a,b), (b',a) with b'=a', (b,a') at fixed a = axes[i]
        yield scale * (
            fringes[i, :][:, None] + fringes[i, :][None, :] + fringes
        ) + offset


def lhs_planes(
    inequality: str,
    source: qm.IdealSource | qm.RealSource,
    step_deg: float,
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Grid axis values and the lhs over the full (a, b, a') grid.

    The axis holds [0, 180) at step_deg; the planes are yielded lazily,
    one per a value in axis order, each indexed (b, a') with b' = a'.
    Only one plane is alive at a time, so memory stays O(n^2).
    """
    _scan_form(inequality, source)
    if not MIN_STEP_DEG <= step_deg <= MAX_STEP_DEG:
        raise ValidationError(
            f"step_deg must be in [{MIN_STEP_DEG!r}, {MAX_STEP_DEG!r}], got {step_deg!r}"
        )
    axes = np.arange(0.0, 180.0, float(step_deg))
    return axes, _fast_lhs_planes(axes, inequality, source)


def grid_scan(
    inequality: str,
    source: qm.IdealSource | qm.RealSource,
    step_deg: float = 1.0,
    refine_rounds: int = 6,
    collect_surface: bool = False,
) -> ScanResult:
    """Minimize the inequality lhs over feasible quads.

    The coarse phase scores only the a = 0 plane of the (a, b, a') grid
    over [0, 180) at step_deg: rotating all axes together leaves every
    form unchanged, so when 180 / step_deg is an integer that plane holds
    the optimum of the whole grid. refine_rounds rounds of coordinate
    refinement follow, each halving the step and
    re-scoring a local 5x5x5 neighborhood in (a, b, a') with the scalar
    objective; refine_rounds is at most MAX_REFINE_ROUNDS. Ties break
    toward the lexicographically smallest quad.
    Collecting the surface stores one sample per point of the full n^3
    grid, so keep steps coarse when asking for it; lhs_planes streams
    the same values without holding them.
    """
    axes, planes = lhs_planes(inequality, source, step_deg)
    if not 0 <= refine_rounds <= MAX_REFINE_ROUNDS:
        raise ValidationError(
            f"refine_rounds must be in [0, {MAX_REFINE_ROUNDS}], got {refine_rounds}"
        )
    first = next(planes)
    j, k = divmod(int(np.argmin(first)), axes.size)  # argmin keeps the first minimum
    surface = None
    if collect_surface:
        values = axes.tolist()
        surface = tuple(
            (a, b, ap, ap, lhs)
            for a, plane in zip(values, chain((first,), planes))
            for (b, ap), lhs in zip(product(values, repeat=2), plane.ravel().tolist())
        )

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
        surface=surface,
    )

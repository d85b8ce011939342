"""Search for the setting quad that maximizes an inequality violation.

The quads are parameterized by three physical axis angles (a, b, a')
with b' locked to a', so every evaluated quad is realizable by actual
coplanar polarizer axes. The scan optimizes within that slice, whose
optimum is -1.5. Free quads go further, to 1 - 2 sqrt(2) for the
ternary form at axes (0, 67.5, 135, 112.5), in line with Tsirelson's
bound for CHSH. Every scanned form depends on the axes only through
their differences, so the scan holds a = 0 and searches (b, a'). The
coarse phase finds the first minimum of the a = 0 plane of the grid
(n^2 points, not n^3) from each form's plane formula, but scores only
the rows (values of b) whose exact lower bound can still beat the
incumbent: 1 to 4 of the n rows over 1,500 random steps and fringe
factors. A derivative-free coordinate refinement then halves the step
around the incumbent in (b, a'), re-scoring candidates with the exact
scalar evaluator so both computation paths stay honest. lhs_planes
streams the full n^3 grid, one a-plane at a time, from the same axis and
cells, and write_surface writes it as the CSV of scan --surface.
"""

from __future__ import annotations

import math
import struct
from array import array
from itertools import product
from typing import Iterable, Iterator

from . import qm
from .core import Record, ValidationError, cos_double_angle, require_in_range
from .inequalities import (  # noqa: F401 - the scan limits are re-exported
    INEQUALITIES,
    MAX_AXIS_POINTS,
    MAX_REFINE_ROUNDS,
    MAX_STEP_DEG,
    MAX_SURFACE_AXIS_POINTS,
    MIN_STEP_DEG,
    MIN_SURFACE_STEP_DEG,
    Form,
    SettingsQuad,
    form_for,
)


class ScanResult(Record):
    """Best quad found by a scan; lhs_planes gives the grid samples.

    surface is always None. perfbench/tracing.py reads it from every
    grid_scan, so it stays until the tracer stops wrapping grid_scan.
    """

    best_quad: SettingsQuad
    best_lhs: float
    best_factor: float
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


def _axis(step_deg: float) -> list[float]:
    return [i * step_deg for i in range(math.ceil(180.0 / step_deg))]


def _fringes(x: float, axis: list[float]) -> list[float]:
    return [cos_double_angle(x - y) for y in axis]


def _plane_row(scale: float, offset: float, first: float, a_row: list[float],
               row: list[float]) -> list[float]:
    """Row x_j of plane a: scale * (cos 2(a - x_j) + cos 2(a - x_k) + cos 2(x_j - x_k)) + offset."""
    return [scale * (first + cell + fringe) + offset for cell, fringe in zip(a_row, row)]


def lhs_planes(
    inequality: str,
    source: qm.IdealSource | qm.RealSource,
    step_deg: float,
) -> tuple[list[float], Iterator[array]]:
    """Grid axis values and the lhs over the full (a, b, a') grid.

    The axis holds [0, 180) at step_deg, at least MIN_SURFACE_STEP_DEG.
    The planes, one per a value in axis order, are row-major array('d')s
    over (b, a') with b' = a', each built when it is asked for, so memory
    stays O(n^2).
    """
    scale, offset = _scan_form(inequality, source).plane(source)
    require_in_range("step_deg", step_deg, MIN_SURFACE_STEP_DEG, MAX_STEP_DEG)
    axis = _axis(float(step_deg))

    def planes() -> Iterator[array]:
        fringes = [_fringes(x, axis) for x in axis]
        for a_row in fringes:
            plane = array("d")
            for first, row in zip(a_row, fringes):
                plane.fromlist(_plane_row(scale, offset, first, a_row, row))
            yield plane

    return axis, planes()


class _ReprByBits(dict):
    """float64 bit pattern -> the value's repr and a newline (a float key would merge -0.0, 0.0)."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = repr(struct.unpack("d", struct.pack("q", bits))[0]) + "\n"
        return text


def write_surface(path: str, axes: Iterable[float], planes: Iterable[array]) -> None:
    """Write lhs_planes' grid to path as CSV rows a,b,a_prime,b_prime,lhs.

    Rows follow the planes (C-contiguous float64 buffers): a in axis order,
    then (b, a') row-major, with b' = a'. Every number prints as its repr,
    and each lhs text is made once per bit pattern; the patterns are
    forgotten once they outnumber a plane's cells, so memory stays O(n^2).
    An axis of more than MAX_SURFACE_AXIS_POINTS values raises
    ValidationError before path is opened.
    """
    labels = [repr(float(value)) for value in axes]
    if len(labels) > MAX_SURFACE_AXIS_POINTS:
        raise ValidationError(
            f"a surface axis holds at most {MAX_SURFACE_AXIS_POINTS} values "
            f"({MAX_SURFACE_AXIS_POINTS}^3 rows), got {len(labels)}"
        )
    cells = [f",{b},{ap},{ap}," for b in labels for ap in labels]
    parts = [""] * (3 * len(cells))  # a, ",b,a',a',", lhs per row
    parts[1::3] = cells
    texts = _ReprByBits()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("a,b,a_prime,b_prime,lhs\n")
        for a, plane in zip(labels, planes):
            if len(texts) > len(cells):
                texts.clear()
            parts[0::3] = [a] * len(cells)
            parts[2::3] = map(texts.__getitem__, memoryview(plane).cast("B").cast("q").tolist())
            handle.write("".join(parts))


def _coarse_optimum(scale: float, offset: float, step_deg: float) -> tuple[float, float]:
    """(b, a') of the first minimum of the a = 0 plane of the scan grid.

    The plane is the one lhs_planes yields first, from the same _axis and
    _plane_row, with b = x_j at row j and a' = b' = x_k at column k. Ties
    go to the first cell in row-major order, as with np.argmin. scale must
    be >= 0, as every Form.plane's is.

    A row is scored only if it can hold the minimum. Since
    cos 2x_k + cos 2(x_k - x_j) = 2 cos x_j cos(2x_k - x_j) >= -2|cos x_j|,
    every value in row j is at least
    bound_j = scale * (cos 2x_j - 2|cos x_j| - 1e-9) + offset.
    The slack covers the rounding of the cosines and sums; it sits inside
    the product so that rounding, being monotone, keeps bound_j a bound
    even when scale is 0 or subnormal. The row with the smallest bound is
    scored first; then row j is scored only while (bound_j, j) is below
    the incumbent's (value, row).
    """
    axis = _axis(step_deg)
    row0 = _fringes(0.0, axis)  # cos 2(a - x) at a = 0

    def score(j: int) -> tuple[float, int, int]:
        row = _plane_row(scale, offset, row0[j], row0, _fringes(axis[j], axis))
        value = min(row)
        return value, j, row.index(value)

    bounds = [
        scale * (cell - 2.0 * abs(math.cos(math.radians(x))) - 1e-9) + offset
        for x, cell in zip(axis, row0)
    ]
    start = min(range(len(axis)), key=bounds.__getitem__)
    best = score(start)
    for j, bound in enumerate(bounds):
        if j != start and (bound, j) < best[:2]:
            best = min(best, score(j))
    return axis[best[1]], axis[best[2]]


def grid_scan(
    inequality: str,
    source: qm.IdealSource | qm.RealSource,
    step_deg: float = 1.0,
    refine_rounds: int = 6,
) -> ScanResult:
    """Minimize the inequality lhs over feasible quads.

    Rotating all axes together leaves every form unchanged, so the scan
    holds a = 0 and searches (b, a') with b' = a'. The coarse phase finds
    the first minimum of the a = 0 plane of lhs_planes' grid over [0, 180)
    at step_deg, scoring only the rows that a lower bound cannot rule out
    (see _coarse_optimum); when 180 / step_deg is an integer that plane
    holds the optimum of the whole (a, b, a') grid. refine_rounds rounds
    of coordinate refinement follow, each halving the step and re-scoring
    a local 5x5 neighborhood in (b, a') with the scalar objective;
    refine_rounds is at most MAX_REFINE_ROUNDS. Ties break toward the
    smallest normalized (b, a').
    """
    form = _scan_form(inequality, source)
    require_in_range("step_deg", step_deg, MIN_STEP_DEG, MAX_STEP_DEG)
    require_in_range("refine_rounds", refine_rounds, 0, MAX_REFINE_ROUNDS)
    b, ap = _coarse_optimum(*form.plane(source), float(step_deg))

    # From here on everything goes through the scalar evaluator so that
    # the reported optimum is consistent with objective().
    best_quad = SettingsQuad.of(0.0, b, ap, ap)
    best_key = (objective(best_quad, inequality, source), best_quad.b, best_quad.a_prime)

    span = float(step_deg)
    for _ in range(refine_rounds):
        span /= 2.0
        offsets = (-2.0 * span, -span, 0.0, span, 2.0 * span)
        center = best_quad
        for db, dap in product(offsets, repeat=2):
            ap = center.a_prime + dap
            quad = SettingsQuad.of(0.0, center.b + db, ap, ap)
            key = (objective(quad, inequality, source), quad.b, quad.a_prime)
            if key < best_key:
                best_quad, best_key = quad, key

    report = form.evaluate(best_quad, source)
    return ScanResult(
        best_quad=best_quad,
        best_lhs=report.lhs,
        best_factor=report.violation_factor,
    )

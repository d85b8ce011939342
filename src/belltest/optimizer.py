"""Search for the setting quad that maximizes an inequality violation.

The quads are parameterized by three physical axis angles (a, b, a')
with b' locked to a', so every evaluated quad is realizable by actual
coplanar polarizer axes. The scan optimizes within that slice, whose
optimum is -1.5. Free quads go further, to 1 - 2 sqrt(2) for the
ternary form at axes (0, 67.5, 135, 112.5), in line with Tsirelson's
bound for CHSH. Every scanned form depends on the axes only through
their differences, so the scan holds a = 0 and searches (b, a'). The
grid holds the lhs at grid offsets: the fringe between axis values x_j
and x_k is c[|j - k|] = cos 2(|j - k| step), equal to cos 2(x_j - x_k)
wherever that difference is exact. The coarse phase finds the first
minimum of the a = 0 plane (n^2 points, not n^3) from each form's plane
formula, but scores only the rows (values of b) whose exact lower bound
can still beat the incumbent: 1 to 4 of the n rows over 1,500 random
steps and fringe factors. A derivative-free coordinate refinement then
halves the step around the incumbent in (b, a'), re-scoring candidates
with the exact scalar evaluator so both computation paths stay honest.
write_surface writes the full n^3 grid as the CSV of scan --surface,
each a-plane a window of one table of lhs texts over grid offsets.
"""

from __future__ import annotations

import math
from itertools import chain, product

from . import qm
from .core import Record, ValidationError, cos_double_angle, require_in_range
from .inequalities import (  # noqa: F401 - the scan limits are re-exported
    INEQUALITIES,
    MAX_AXIS_POINTS,
    MAX_REFINE_ROUNDS,
    MAX_STEP_DEG,
    MIN_STEP_DEG,
    MIN_SURFACE_STEP_DEG,
    Form,
    SettingsQuad,
    form_for,
)


class ScanResult(Record):
    """Best quad found by a scan; write_surface writes the grid samples.

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
    """i * step_deg for each i with a product below 180.0 by more than
    rounding (1e-9). The count alone can overshoot: at step 180 / 227,
    227 * step_deg == 180.0, and at 180 / 161, 161 * step_deg is 180 - 1 ulp."""
    values = (i * step_deg for i in range(math.ceil(180.0 / step_deg)))
    return [x for x in values if x < 180.0 - 1e-9]


def _cosines(step_deg: float, count: int) -> list[float]:
    """c[d] = cos 2(d * step_deg) for d < count; grid values j, k have fringe c[|j - k|]."""
    return [cos_double_angle(d * step_deg) for d in range(count)]


def _plane_row(scale: float, offset: float, c: list[float], cells: list[float],
               j: int) -> list[float]:
    """Row j of the plane scale * (cells[j] + cells[k] + c[|j - k|]) + offset."""
    first = cells[j]
    fringes = c[j:0:-1] + c[:len(cells) - j]
    return [scale * (first + cell + fringe) + offset for cell, fringe in zip(cells, fringes)]


def write_surface(
    path: str,
    inequality: str,
    source: qm.IdealSource | qm.RealSource,
    step_deg: float,
) -> None:
    """Write the lhs over the (a, b, a') grid to path as CSV rows a,b,a_prime,b_prime,lhs.

    The axis holds [0, 180) at step_deg, from MIN_SURFACE_STEP_DEG (256
    values) to MAX_STEP_DEG; the form and the step are checked before path
    is opened. Rows run over a in axis order, then (b, a') row-major, with
    b' = a'. Every number prints as its repr. The lhs at grid values
    (i, j, k) is the lhs at grid offsets u = j - i and v = k - i,
    scale * (c[|u|] + c[|v|] + c[|u - v|]) + offset over _cosines, equal
    to the lhs at x_j - x_k wherever that difference is exact. The texts
    of all (2n - 1)^2 offsets are formatted once, and a-plane i is their
    n x n window starting at (-i, -i).
    """
    scale, offset = _scan_form(inequality, source).plane(source)
    require_in_range("step_deg", step_deg, MIN_SURFACE_STEP_DEG, MAX_STEP_DEG)
    axis = _axis(float(step_deg))
    n = len(axis)
    c = _cosines(float(step_deg), 2 * n - 1)
    fringes = c[n - 1:0:-1] + c[:n]  # c[|u|] at index u + n - 1
    table = [
        [repr(lhs) + "\n" for lhs in _plane_row(scale, offset, c, fringes, u)]
        for u in range(2 * n - 1)
    ]
    labels = [repr(x) for x in axis]
    cells = [f",{b},{ap},{ap}," for b in labels for ap in labels]
    parts = [""] * (3 * len(cells))  # a, ",b,a',a',", lhs per row
    parts[1::3] = cells
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("a,b,a_prime,b_prime,lhs\n")
        for i, a in enumerate(labels):
            window = slice(n - 1 - i, 2 * n - 1 - i)
            parts[0::3] = [a] * len(cells)
            parts[2::3] = chain.from_iterable(row[window] for row in table[window])
            handle.write("".join(parts))


def _coarse_optimum(scale: float, offset: float, step_deg: float) -> tuple[float, float]:
    """(b, a') of the first minimum of the a = 0 plane of the scan grid.

    The plane is write_surface's first, from the same _axis, _cosines and
    _plane_row, with b = x_j at row j and a' = b' = x_k at column k (the
    lhs at grid offsets). Ties go to the first cell in row-major order, as
    with np.argmin. scale must be >= 0, as every Form.plane's is.

    A row is scored only if it can hold the minimum. Since
    cos 2x_k + cos 2(x_k - x_j) = 2 cos x_j cos(2x_k - x_j) >= -2|cos x_j|,
    every value in row j is at least
    bound_j = scale * (cos 2x_j - 2|cos x_j| - 1e-9) + offset.
    The slack covers the rounding of the cosines, sums and offsets; it sits
    inside the product so that rounding, being monotone, keeps bound_j a
    bound even when scale is 0 or subnormal. The row with the smallest
    bound is scored first; then row j is scored only while (bound_j, j) is
    below the incumbent's (value, row).
    """
    axis = _axis(step_deg)
    c = _cosines(step_deg, len(axis))  # also cos 2(a - x_k) at a = 0

    def score(j: int) -> tuple[float, int, int]:
        row = _plane_row(scale, offset, c, c, j)
        value = min(row)
        return value, j, row.index(value)

    bounds = [
        scale * (cell - 2.0 * abs(math.cos(math.radians(x))) - 1e-9) + offset
        for x, cell in zip(axis, c)
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
    the first minimum of the a = 0 plane of write_surface's grid over [0, 180)
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

"""Search for the setting quad that maximizes an inequality violation.

The quads are parameterized by three physical axis angles (a, b, a')
with b' locked to a', so every evaluated quad is realizable by actual
coplanar polarizer axes. The scan optimizes within that slice, whose
optimum is -1.5. Free quads go further, to 1 - 2 sqrt(2) for the
ternary form at axes (0, 67.5, 135, 112.5), in line with Tsirelson's
bound for CHSH. Every scanned form depends on the axes only through
their differences, so the scan holds a = 0 and searches (b, a'): the
coarse phase sweeps the a = 0 plane of the grid (n^2 points, not n^3)
with each form's plane formula, and a derivative-free coordinate
refinement then halves the step around the incumbent in (b, a'),
re-scoring candidates with the exact scalar evaluator so both
computation paths stay honest. lhs_planes streams the full n^3 surface
one a-plane at a time in O(n^2) memory, and write_surface writes it as
the CSV of scan --surface as the planes arrive.
"""

from __future__ import annotations

import struct
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from . import qm
from .core import Record, ValidationError, require_in_range
from .inequalities import (  # noqa: F401 - the scan limits are re-exported
    INEQUALITIES,
    MAX_AXIS_POINTS,
    MAX_REFINE_ROUNDS,
    MAX_STEP_DEG,
    MAX_SURFACE_AXIS_POINTS,
    MIN_STEP_DEG,
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


class _ReprByBits(dict):
    """float64 bit pattern -> the value's repr and a newline (a float key would merge -0.0, 0.0)."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = repr(struct.unpack("d", struct.pack("q", bits))[0]) + "\n"
        return text


def write_surface(path: str, axes: Iterable[float], planes: Iterable[np.ndarray]) -> None:
    """Write lhs_planes' grid to path as CSV rows a,b,a_prime,b_prime,lhs.

    Rows follow the planes: a in axis order, then (b, a') row-major, with
    b' = a'. Every number prints as its repr, and each lhs text is made
    once per bit pattern; the patterns are forgotten once they outnumber a
    plane's cells, so memory stays O(n^2). An axis of more than
    MAX_SURFACE_AXIS_POINTS values raises ValidationError before path is
    opened.
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
            parts[2::3] = map(texts.__getitem__, plane.ravel().view(np.int64).tolist())
            handle.write("".join(parts))


def grid_scan(
    inequality: str,
    source: qm.IdealSource | qm.RealSource,
    step_deg: float = 1.0,
    refine_rounds: int = 6,
) -> ScanResult:
    """Minimize the inequality lhs over feasible quads.

    Rotating all axes together leaves every form unchanged, so the scan
    holds a = 0 and searches (b, a') with b' = a'. The coarse phase scores
    the a = 0 plane of the grid over [0, 180) at step_deg; when
    180 / step_deg is an integer that plane holds the optimum of the whole
    (a, b, a') grid. refine_rounds rounds of coordinate refinement follow,
    each halving the step and re-scoring a local 5x5 neighborhood in
    (b, a') with the scalar objective; refine_rounds is at most
    MAX_REFINE_ROUNDS. Ties break toward the smallest normalized (b, a').
    """
    axes, planes = lhs_planes(inequality, source, step_deg)
    require_in_range("refine_rounds", refine_rounds, 0, MAX_REFINE_ROUNDS)
    j, k = divmod(int(np.argmin(next(planes))), axes.size)  # argmin keeps the first minimum

    # From here on everything goes through the scalar evaluator so that
    # the reported optimum is consistent with objective().
    best_quad = SettingsQuad.of(0.0, float(axes[j]), float(axes[k]), float(axes[k]))
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

    report = _scan_form(inequality, source).evaluate(best_quad, source)
    return ScanResult(
        best_quad=best_quad,
        best_lhs=report.lhs,
        best_factor=report.violation_factor,
    )

import math
from itertools import product

import numpy as np
import pytest

from belltest import optimizer, qm
from belltest.core import ValidationError, cos_double_angle
from belltest.inequalities import FORMS, SettingsQuad, quad_from_differences
from belltest.optimizer import grid_scan, objective

IDEAL = qm.IdealSource()
REAL_F1 = qm.RealSource(qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=1.0))
REAL = qm.RealSource(qm.CascadeGeometry(eta=0.3, phi_deg=41.7))

TARGET_DIFFS = (120.0, 120.0, 120.0, 0.0)


def _surface(path, inequality, source, step):
    """Every (a, b, a', b', lhs) row of the surface write_surface writes, in order."""
    optimizer.write_surface(str(path), inequality, source, step)
    with open(path, encoding="utf-8") as handle:
        next(handle)
        return [tuple(map(float, line.split(","))) for line in handle]


def _numpy_axis(step):
    """The scan axis by numpy: i * step below 180 by more than rounding."""
    return np.arange(0.0, 180.0 - 1e-9, step)


def _numpy_planes(scale, offset, step, differences=False):
    """The a-planes of the scan grid by numpy broadcasting, each indexed (b, a'):
    an independent reference for write_surface. The fringe between axis values
    x_j and x_k is cos_double_angle(|j - k| * step), the lhs at grid offsets, or
    with differences=True cos_double_angle(x_j - x_k); the two agree wherever
    x_j - x_k is exact. It checks indexing and summation order, not whether a
    numpy build's cosine matches math.cos."""
    axes = _numpy_axis(step)
    index = np.arange(axes.size)
    args = axes[:, None] - axes[None, :] if differences else np.abs(index[:, None] - index) * step
    # each distinct argument once: a fine axis has n**2 cells but few distinct values
    values, where = np.unique(args, return_inverse=True)
    fringes = np.array([cos_double_angle(d) for d in values.tolist()])[where]
    fringes = fringes.reshape(axes.size, axes.size)
    for row in fringes:
        yield scale * (row[:, None] + row[None, :] + fringes) + offset


def fold(diff):
    """Canonical fringe-equivalent representative in [0, 90]."""
    d = diff % 180.0
    return min(d, 180.0 - d)


class TestObjective:
    def test_canonical_quad(self):
        quad = quad_from_differences(*TARGET_DIFFS)
        assert objective(quad, "ternary", IDEAL) == pytest.approx(-1.5, abs=1e-12)

    def test_aligned_quad(self):
        quad = SettingsQuad.of(0, 0, 0, 0)
        assert objective(quad, "ternary", IDEAL) == pytest.approx(3.0, abs=1e-12)

    def test_detection_canonical(self):
        quad = quad_from_differences(*TARGET_DIFFS)
        assert objective(quad, "detection", REAL_F1) == pytest.approx(-1.5, abs=1e-12)

    def test_combo_validation(self):
        quad = SettingsQuad.of(0, 0, 0, 0)
        with pytest.raises(ValidationError):
            objective(quad, "ternary", REAL_F1)
        with pytest.raises(ValidationError):
            objective(quad, "detection", IDEAL)
        with pytest.raises(ValidationError):
            objective(quad, "nonsense", IDEAL)


class TestGridScan:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            grid_scan("ternary", IDEAL, step_deg=60.0)
        with pytest.raises(ValidationError):
            grid_scan("ternary", IDEAL, step_deg=0.0)
        with pytest.raises(ValidationError):
            grid_scan("ternary", IDEAL, refine_rounds=-1)

    def test_rounds_above_budget_rejected(self):
        # Rejected before the coarse plane is scored, so a huge value is cheap.
        for rounds in (optimizer.MAX_REFINE_ROUNDS + 1, 10**8):
            with pytest.raises(ValidationError, match="refine_rounds"):
                grid_scan("ternary", IDEAL, step_deg=45.0, refine_rounds=rounds)

    def test_scan_limits_live_in_inequalities(self):
        from belltest import inequalities

        for name in ("INEQUALITIES", "MAX_AXIS_POINTS", "MIN_STEP_DEG", "MAX_STEP_DEG",
                     "MAX_REFINE_ROUNDS"):
            assert getattr(optimizer, name) is getattr(inequalities, name)

    def test_step_below_axis_budget_rejected(self):
        for step in (1e-300, 0.01, optimizer.MIN_STEP_DEG / 2.0):
            with pytest.raises(ValidationError, match="step_deg"):
                grid_scan("ternary", IDEAL, step_deg=step, refine_rounds=0)

    def test_tenth_degree_step_still_runs(self):
        result = grid_scan("ternary", IDEAL, step_deg=0.1, refine_rounds=0)
        assert result.best_lhs == pytest.approx(-1.5, abs=1e-9)

    @pytest.mark.parametrize("step", [45.0, 22.5, 15.0, 9.0, 5.0])
    @pytest.mark.parametrize("inequality,source", [("ternary", IDEAL), ("detection", REAL_F1)])
    def test_coarse_plane_matches_full_grid(self, tmp_path, step, inequality, source):
        # Brute force: the first minimum over all n^3 rows of the written surface.
        rows = _surface(tmp_path / "surface.csv", inequality, source, step)
        a, b, ap, bp, _ = min(rows, key=lambda row: row[4])
        expected = SettingsQuad.of(a, b, ap, bp)
        result = grid_scan(inequality, source, step_deg=step, refine_rounds=0)
        assert result.best_quad == expected
        assert result.best_lhs == objective(expected, inequality, source)

    def test_coarse_scan_minimum_dominates_surface(self, tmp_path):
        result = grid_scan("ternary", IDEAL, step_deg=45.0, refine_rounds=0)
        surface = _surface(tmp_path / "surface.csv", "ternary", IDEAL, 45.0)
        assert surface
        assert len(surface) == 4 ** 3
        for *_, lhs in surface:
            assert result.best_lhs <= lhs + 1e-12

    def test_deterministic(self):
        first = grid_scan("ternary", IDEAL, step_deg=15.0, refine_rounds=3)
        second = grid_scan("ternary", IDEAL, step_deg=15.0, refine_rounds=3)
        assert first == second

    def test_surface_matches_scalar_objective(self, tmp_path):
        for a, b, ap, bp, lhs in _surface(tmp_path / "surface.csv", "ternary", IDEAL, 22.5):
            scalar = objective(SettingsQuad.of(a, b, ap, bp), "ternary", IDEAL)
            assert lhs == pytest.approx(scalar, abs=1e-12)

    def test_detection_surface_matches_scalar_objective(self, tmp_path):
        surface = _surface(tmp_path / "surface.csv", "detection", REAL_F1, 22.5)
        for a, b, ap, bp, lhs in surface:
            scalar = objective(SettingsQuad.of(a, b, ap, bp), "detection", REAL_F1)
            assert lhs == pytest.approx(scalar, abs=1e-12)

    def test_finds_canonical_optimum_quickly(self):
        result = grid_scan("ternary", IDEAL, step_deg=5.0, refine_rounds=4)
        assert result.best_lhs == pytest.approx(-1.5, abs=1e-6)
        for found, target in zip(result.best_quad.differences(), TARGET_DIFFS):
            assert fold(found) == pytest.approx(fold(target), abs=0.5)

    def test_detection_scan_same_optimum(self):
        result = grid_scan("detection", REAL_F1, step_deg=5.0, refine_rounds=4)
        assert result.best_lhs == pytest.approx(-1.5, abs=1e-6)
        assert result.best_factor == pytest.approx(1.5, abs=1e-6)

    def test_feasible_by_construction(self):
        result = grid_scan("ternary", IDEAL, step_deg=30.0, refine_rounds=2)
        assert result.best_quad.a_prime == result.best_quad.b_prime

    def test_never_beats_global_optimum(self):
        result = grid_scan("ternary", IDEAL, step_deg=9.0, refine_rounds=5)
        assert result.best_lhs >= -1.5 - 1e-9


REAL = qm.RealSource(qm.CascadeGeometry(eta=0.2, phi_deg=30.0))
REAL_OPTIMUM = 1.0 - 2.5 * REAL.geometry.f_factor
"""The detection form's optimum within b' = a' at F < 1."""


class TestRefinementAtAZero:
    @pytest.mark.parametrize("rounds", [0, 1, 6])
    def test_scores_25_quads_a_round(self, monkeypatch, rounds):
        scored = []

        def counting(quad, *args):
            scored.append(quad)
            return objective(quad, *args)

        monkeypatch.setattr(optimizer, "objective", counting)
        grid_scan("ternary", IDEAL, step_deg=15.0, refine_rounds=rounds)
        assert len(scored) == 1 + 25 * rounds
        assert all(q.a == 0.0 and q.b_prime == q.a_prime for q in scored)

    @pytest.mark.parametrize("inequality,source,step,rounds,optimum,tol", [
        ("ternary", IDEAL, 45.0, 64, -1.5, 1e-12),
        ("ternary", IDEAL, 13.7, 20, -1.5, 1e-12),
        ("detection", REAL, 0.7, 20, REAL_OPTIMUM, 1e-12),
        # six rounds leave a span of 0.7 / 64 degrees, so lhs is still ~2e-8 above
        ("detection", REAL, 0.7, 6, REAL_OPTIMUM, 1e-7),
    ], ids=["ternary-45-r64", "ternary-13.7-r20", "detection-0.7-r20", "detection-0.7-r6"])
    def test_reports_a_zero_at_the_slice_optimum(self, inequality, source, step, rounds,
                                                 optimum, tol):
        result = grid_scan(inequality, source, step_deg=step, refine_rounds=rounds)
        assert result.best_quad.a == 0.0
        assert result.best_quad.b_prime == result.best_quad.a_prime
        assert optimum - 1e-12 <= result.best_lhs <= optimum + tol
        report = FORMS[inequality].evaluate(result.best_quad, source)
        assert (result.best_lhs, result.best_factor) == (report.lhs, report.violation_factor)


UNSCANNED = [name for name, form in FORMS.items() if form.plane is None]


@pytest.mark.parametrize("name", UNSCANNED)
class TestUnscannedFormsRefused:
    @staticmethod
    def source(name):
        return IDEAL if FORMS[name].source is qm.IdealSource else REAL_F1

    def test_objective(self, name):
        with pytest.raises(ValidationError, match="cannot scan"):
            objective(SettingsQuad.of(0, 120, 60, 60), name, self.source(name))

    def test_write_surface(self, tmp_path, name):
        path = tmp_path / "surface.csv"
        with pytest.raises(ValidationError, match="cannot scan"):
            optimizer.write_surface(str(path), name, self.source(name), 45.0)
        assert not path.exists()

    def test_grid_scan(self, name):
        with pytest.raises(ValidationError, match="cannot scan"):
            grid_scan(name, self.source(name), step_deg=45.0, refine_rounds=0)


class TestDenseOracle:
    def test_quarter_degree_grid_respects_global_minimum(self):
        # Independent check of the -1.5 optimum within b' = a': sweep a dense grid
        # with numpy broadcasting and confirm nothing dips below it.
        global_min = np.inf
        for plane in _numpy_planes(*FORMS["ternary"].plane(IDEAL), 0.25):
            global_min = min(global_min, float(plane.min()))
        assert global_min >= -1.5 - 1e-9
        assert global_min == pytest.approx(-1.5, abs=1e-6)


def surface_reference(axes, planes):
    """Surface CSV bytes with every number formatted by its own repr call."""
    rows = [
        f"{a!r},{b!r},{ap!r},{ap!r},{lhs!r}"
        for a, plane in zip(axes, planes)
        for (b, ap), lhs in zip(product(axes, repeat=2), np.asarray(plane).ravel().tolist())
    ]
    return ("\n".join(["a,b,a_prime,b_prime,lhs", *rows]) + "\n").encode("utf-8")


class TestWriteSurface:
    """optimizer.write_surface against the numpy planes formatted by per-value repr."""

    @staticmethod
    def write(tmp_path, inequality, source, step):
        path = tmp_path / "surface.csv"
        optimizer.write_surface(str(path), inequality, source, step)
        return path.read_bytes()

    @staticmethod
    def reference(inequality, source, step, differences=False):
        planes = _numpy_planes(*FORMS[inequality].plane(source), step, differences)
        return surface_reference(_numpy_axis(step).tolist(), planes)

    # Exact steps: the coarsest, and a 64-value axis (262,144 rows). Every
    # x_j - x_k is exact, so the lhs at offsets is the lhs at differences.
    @pytest.mark.parametrize("step", [45.0, 2.8125])
    @pytest.mark.parametrize("inequality,source", [("ternary", IDEAL), ("detection", REAL)])
    def test_bytes_match_numpy_reference(self, tmp_path, step, inequality, source):
        written = self.write(tmp_path, inequality, source, step)
        assert written == self.reference(inequality, source, step)
        assert written == self.reference(inequality, source, step, differences=True)

    # Steps at which some axis differences round: the surface holds the lhs
    # at grid offsets, which there differs from the lhs at axis differences.
    @pytest.mark.parametrize("step", [7.3, 13.7])
    @pytest.mark.parametrize("inequality,source", [("ternary", IDEAL), ("detection", REAL)])
    def test_bytes_match_numpy_reference_where_differences_round(
        self, tmp_path, step, inequality, source
    ):
        axes = _numpy_axis(step).tolist()
        assert any(
            axes[j] - axes[k] != axes[j - k] for j in range(len(axes)) for k in range(j)
        )
        expected = self.reference(inequality, source, step)
        assert self.write(tmp_path, inequality, source, step) == expected
        assert expected != self.reference(inequality, source, step, differences=True)

    @pytest.mark.parametrize("inequality,source", [("ternary", IDEAL), ("detection", REAL)])
    def test_planes_are_shifted_copies_of_the_first(self, tmp_path, inequality, source):
        # Also where differences round: the lhs at (i, j, k) is the lhs at
        # (0, j - i, k - i) for all j, k >= i.
        rows = _surface(tmp_path / "surface.csv", inequality, source, 7.3)
        n = _numpy_axis(7.3).size
        lhs = np.array([row[4] for row in rows]).reshape(n, n, n)
        for i in range(n):
            assert np.array_equal(lhs[i, i:, i:], lhs[0, :n - i, :n - i])

    def test_no_file_below_the_surface_step(self, tmp_path):
        # 180 / the step would exceed 256 axis values; refused before open
        path = tmp_path / "surface.csv"
        step = math.nextafter(optimizer.MIN_SURFACE_STEP_DEG, 0.0)
        with pytest.raises(ValidationError, match="step_deg"):
            optimizer.write_surface(str(path), "ternary", IDEAL, step)
        assert not path.exists()


class TestAxis:
    def test_180_over_k_gives_k_values(self):
        # The count ceil(180 / step) overshoots at 38 of these steps (180/227
        # among them: 227 * step == 180.0), and at 31 others (180/161 among
        # them) k * step is 180 - 1 ulp, the first value again up to rounding.
        for k in range(4, 2049):
            step = 180.0 / k
            assert optimizer._axis(step) == [i * step for i in range(k)]


class TestCoarseOptimum:
    # Plane (F, 1 - F) of the detection form; F = 1 is the ternary form's (1, 0).
    @pytest.mark.parametrize("f", [0.0, 5e-324, 1e-17, 0.8, 1.0])
    def test_scores_a_few_rows_at_the_finest_step(self, monkeypatch, f):
        calls = []

        def counting(diff_deg):
            calls.append(diff_deg)
            return cos_double_angle(diff_deg)

        monkeypatch.setattr(optimizer, "cos_double_angle", counting)
        optimizer._coarse_optimum(f, 1.0 - f, optimizer.MIN_STEP_DEG)
        assert len(calls) <= 16 * optimizer.MAX_AXIS_POINTS

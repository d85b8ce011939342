from itertools import product

import numpy as np
import pytest

from belltest import optimizer, qm
from belltest.core import ValidationError
from belltest.inequalities import FORMS, SettingsQuad, quad_from_differences
from belltest.optimizer import grid_scan, objective

IDEAL = qm.IdealSource()
REAL_F1 = qm.RealSource(qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=1.0))

TARGET_DIFFS = (120.0, 120.0, 120.0, 0.0)


def _surface(inequality, source, step):
    """Every (a, b, a', b', lhs) sample of the scan grid, planes in order."""
    axes, planes = optimizer.lhs_planes(inequality, source, step)
    values = axes.tolist()
    return [
        (a, b, ap, ap, lhs)
        for a, plane in zip(values, planes)
        for (b, ap), lhs in zip(product(values, repeat=2), plane.ravel().tolist())
    ]


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
    def test_coarse_plane_matches_full_grid(self, step, inequality, source):
        # Brute force: the first minimum over all n^3 points, planes in order.
        axes, planes = optimizer.lhs_planes(inequality, source, step)
        best_value, best_axes = np.inf, None
        for a, plane in zip(axes, planes):
            j, k = divmod(int(np.argmin(plane)), axes.size)
            if plane[j, k] < best_value:
                best_value, best_axes = plane[j, k], (a, axes[j], axes[k])
        a, b, ap = (float(x) for x in best_axes)
        expected = SettingsQuad.of(a, b, ap, ap)
        result = grid_scan(inequality, source, step_deg=step, refine_rounds=0)
        assert result.best_quad == expected
        assert result.best_lhs == objective(expected, inequality, source)

    def test_coarse_scan_minimum_dominates_surface(self):
        result = grid_scan("ternary", IDEAL, step_deg=45.0, refine_rounds=0)
        surface = _surface("ternary", IDEAL, 45.0)
        assert surface
        assert len(surface) == 4 ** 3
        for *_, lhs in surface:
            assert result.best_lhs <= lhs + 1e-12

    def test_deterministic(self):
        first = grid_scan("ternary", IDEAL, step_deg=15.0, refine_rounds=3)
        second = grid_scan("ternary", IDEAL, step_deg=15.0, refine_rounds=3)
        assert first == second

    def test_surface_matches_scalar_objective(self):
        for a, b, ap, bp, lhs in _surface("ternary", IDEAL, 22.5):
            scalar = objective(SettingsQuad.of(a, b, ap, bp), "ternary", IDEAL)
            assert lhs == pytest.approx(scalar, abs=1e-12)

    def test_detection_surface_matches_scalar_objective(self):
        for a, b, ap, bp, lhs in _surface("detection", REAL_F1, 22.5):
            scalar = objective(SettingsQuad.of(a, b, ap, bp), "detection", REAL_F1)
            assert lhs == pytest.approx(scalar, abs=1e-12)

    def test_finds_canonical_optimum_quickly(self):
        result = grid_scan("ternary", IDEAL, step_deg=5.0, refine_rounds=4)
        assert result.best_lhs == pytest.approx(-1.5, abs=1e-6)
        for found, target in zip(result.best_diffs, TARGET_DIFFS):
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


UNSCANNED = [name for name, form in FORMS.items() if form.plane is None]


@pytest.mark.parametrize("name", UNSCANNED)
class TestUnscannedFormsRefused:
    @staticmethod
    def source(name):
        return IDEAL if FORMS[name].source is qm.IdealSource else REAL_F1

    def test_objective(self, name):
        with pytest.raises(ValidationError, match="cannot scan"):
            objective(SettingsQuad.of(0, 120, 60, 60), name, self.source(name))

    def test_lhs_planes(self, name):
        with pytest.raises(ValidationError, match="cannot scan"):
            optimizer.lhs_planes(name, self.source(name), 45.0)

    def test_grid_scan(self, name):
        with pytest.raises(ValidationError, match="cannot scan"):
            grid_scan(name, self.source(name), step_deg=45.0, refine_rounds=0)


class TestDenseOracle:
    def test_quarter_degree_grid_respects_global_minimum(self):
        # Independent check of the -1.5 optimum within b' = a': sweep a dense grid
        # with the vectorized path and confirm nothing dips below it.
        global_min = np.inf
        for plane in optimizer.lhs_planes("ternary", IDEAL, 0.25)[1]:
            global_min = min(global_min, float(plane.min()))
        assert global_min >= -1.5 - 1e-9
        assert global_min == pytest.approx(-1.5, abs=1e-6)

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


def _surface(inequality, source, step):
    """Every (a, b, a', b', lhs) sample of the scan grid, planes in order."""
    axes, planes = optimizer.lhs_planes(inequality, source, step)
    values = np.asarray(axes).tolist()
    return [
        (a, b, ap, ap, lhs)
        for a, plane in zip(values, planes)
        for (b, ap), lhs in zip(product(values, repeat=2), np.asarray(plane).tolist())
    ]


def _numpy_planes(scale, offset, step):
    """The a-planes of the scan grid by numpy broadcasting, each indexed (b, a'):
    an independent reference for lhs_planes. Its fringes are cos_double_angle
    of numpy's axis differences, so it checks indexing and summation order, not
    whether a numpy build's cosine matches math.cos."""
    axes = np.arange(0.0, 180.0, step)
    # each distinct difference once: a fine axis has n**2 cells but few distinct values
    diffs, where = np.unique(axes[:, None] - axes[None, :], return_inverse=True)
    fringes = np.array([cos_double_angle(d) for d in diffs.tolist()])[where]
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
    def test_coarse_plane_matches_full_grid(self, step, inequality, source):
        # Brute force: the first minimum over all n^3 points, planes in order.
        axes, planes = optimizer.lhs_planes(inequality, source, step)
        axes = np.asarray(axes)
        best_value, best_axes = np.inf, None
        for a, plane in zip(axes, planes):
            plane = np.asarray(plane).reshape(axes.size, axes.size)
            j, k = divmod(int(np.argmin(plane)), axes.size)
            if plane[j, k] < best_value:
                best_value, best_axes = plane[j, k], (a, axes[j], axes[k])
        a, b, ap = (float(x) for x in best_axes)
        expected = SettingsQuad.of(a, b, ap, ap)
        result = grid_scan(inequality, source, step_deg=step, refine_rounds=0)
        assert result.best_quad == expected
        assert result.best_lhs == objective(expected, inequality, source)

    # Finer and coarser than the steps whose surface digests are pinned.
    @pytest.mark.parametrize("step", [45.0, 1.40625])
    @pytest.mark.parametrize("inequality,source", [("ternary", IDEAL), ("detection", REAL)])
    def test_planes_match_numpy_reference_bit_for_bit(self, step, inequality, source):
        axes, planes = optimizer.lhs_planes(inequality, source, step)
        assert axes == np.arange(0.0, 180.0, step).tolist()
        reference = _numpy_planes(*FORMS[inequality].plane(source), step)
        for plane, expected in zip(planes, reference, strict=True):
            assert plane.tobytes() == expected.tobytes()

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

    def test_lhs_planes(self, name):
        with pytest.raises(ValidationError, match="cannot scan"):
            optimizer.lhs_planes(name, self.source(name), 45.0)

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
    """optimizer.write_surface on synthetic planes, against per-value repr."""

    @staticmethod
    def write(tmp_path, axes, planes):
        path = tmp_path / "surface.csv"
        optimizer.write_surface(str(path), axes, iter(planes))
        return path.read_bytes()

    def test_signed_zeros_and_special_values(self, tmp_path):
        # 0.0 and -0.0 share a plane (and compare equal); both recur in the
        # second plane; 5e-324 is the smallest subnormal
        planes = [
            np.array([[0.0, -0.0], [5e-324, 1e16]]),
            np.array([[-1.5, 0.1 + 0.2], [-0.0, 0.0]]),
        ]
        expected = (
            b"a,b,a_prime,b_prime,lhs\n"
            b"0.0,0.0,0.0,0.0,0.0\n"
            b"0.0,0.0,90.0,90.0,-0.0\n"
            b"0.0,90.0,0.0,0.0,5e-324\n"
            b"0.0,90.0,90.0,90.0,1e+16\n"
            b"90.0,0.0,0.0,0.0,-1.5\n"
            b"90.0,0.0,90.0,90.0,0.30000000000000004\n"
            b"90.0,90.0,0.0,0.0,-0.0\n"
            b"90.0,90.0,90.0,90.0,0.0\n"
        )
        assert surface_reference([0.0, 90.0], planes) == expected
        assert self.write(tmp_path, [0.0, 90.0], planes) == expected

    def test_one_by_one_grid(self, tmp_path):
        expected = b"a,b,a_prime,b_prime,lhs\n45.0,45.0,45.0,45.0,-0.0\n"
        assert self.write(tmp_path, [45.0], [np.array([[-0.0]])]) == expected

    def test_axis_over_the_surface_budget_writes_nothing(self, tmp_path):
        # 257 values would be 257^3 rows; the planes are never asked for
        axis = [float(i) for i in range(optimizer.MAX_SURFACE_AXIS_POINTS + 1)]

        def planes():
            raise AssertionError("a plane was drawn")
            yield

        path = tmp_path / "surface.csv"
        with pytest.raises(ValidationError, match="at most 256 values .* got 257"):
            optimizer.write_surface(str(path), axis, planes())
        assert not path.exists()

    def test_values_shared_and_unshared_across_planes(self, tmp_path):
        # more distinct values over the planes than one plane has cells
        pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
                         -1.5, 0.1 + 0.2, 1.0 / 3.0, -1e-300, 1.0, -1.0])
        rng = np.random.default_rng(8)
        axes = [0.0, 60.0, 120.0]
        planes = [rng.choice(pool, size=(3, 3)) for _ in axes]
        planes[2][0, :2] = [-0.0, 0.0]  # signed zeros side by side
        assert len({value.tobytes() for plane in planes for value in plane.ravel()}) > 9
        assert self.write(tmp_path, axes, planes) == surface_reference(axes, planes)

    def test_pattern_cache_holds_at_most_two_planes(self, tmp_path, monkeypatch):
        # each of the three planes has 9 patterns of its own: the cache is
        # cleared before a plane once it holds more than a plane's 9 cells
        sizes = []
        missing = optimizer._ReprByBits.__missing__

        def recording(texts, bits):
            sizes.append(len(texts))
            return missing(texts, bits)

        monkeypatch.setattr(optimizer._ReprByBits, "__missing__", recording)
        axes = [0.0, 60.0, 120.0]
        planes = list(np.arange(27.0).reshape(3, 3, 3) + 0.5)
        assert self.write(tmp_path, axes, planes) == surface_reference(axes, planes)
        assert len(sizes) == 27
        assert max(sizes) < 2 * 9


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

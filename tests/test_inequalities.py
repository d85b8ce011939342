import math

import numpy as np
import pytest

from belltest import core, lhv, qm
from belltest.core import (
    DetectionRates,
    SinglesProbabilities,
    UndefinedRatioError,
    ValidationError,
    cos_double_angle,
)
from belltest.inequalities import (
    FORMS,
    SettingsQuad,
    bell_1965,
    chsh,
    detection_inequality,
    detection_inequality_symmetric,
    quad_from_differences,
    ternary_inequality,
    ternary_inequality_symmetric,
)

HALF = SinglesProbabilities(p_plus=0.5, p_zero=0.0, p_minus=0.5)
ABSORBED = SinglesProbabilities(p_plus=0.0, p_zero=1.0, p_minus=0.0)
GEOM_F1 = qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=1.0)
GEOM_NATURAL = qm.CascadeGeometry(eta=0.2, phi_deg=30.0)


def ideal_inputs(d1, d2, d3, d4):
    """Closed-form ideal inputs for the general ternary inequality."""
    return dict(
        e_ab=cos_double_angle(d1),
        e_bpa=cos_double_angle(d2),
        e_bap=cos_double_angle(d3),
        pair_apbp=qm.ideal_pair_probabilities(d4),
        singles_ap=HALF,
        singles_bp=HALF,
    )


def detection_inputs(geom, d1=120.0, d2=120.0, d3=120.0, d4=0.0):
    single = geom.single_rate
    return dict(
        rates_ab=qm.detection_rates(0.0, d1, geom),
        rates_bpa=qm.detection_rates(0.0, d2, geom),
        rates_bap=qm.detection_rates(0.0, d3, geom),
        rates_apbp=qm.detection_rates(0.0, d4, geom),
        singles_ap=(single, single),
        singles_bp=(single, single),
    )


class TestReportSemantics:
    def test_violated_means_below_bound(self):
        report = ternary_inequality(**ideal_inputs(120, 120, 120, 0))
        assert report.violated
        assert report.margin == pytest.approx(-0.5, abs=1e-12)

    def test_factor_at_least_one(self):
        report = bell_1965(1.0, 1.0, 1.0)
        assert not report.violated
        assert report.violation_factor == 1.0

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            bell_1965(1.5, 0.0, 0.0)


class TestTernaryInequality:
    def test_canonical_violation(self):
        report = ternary_inequality(**ideal_inputs(120, 120, 120, 0))
        assert report.lhs == pytest.approx(-1.5, abs=1e-12)
        assert report.violation_factor == pytest.approx(1.5, abs=1e-12)

    def test_all_absorbed_not_violated(self):
        pair = core.PairProbabilities(pp=0, pm=0, mp=0, mm=0, zz=1.0)
        report = ternary_inequality(0.0, 0.0, 0.0, pair, ABSORBED, ABSORBED)
        assert report.lhs == 0.0
        assert not report.violated

    def test_local_models_respect_bound(self):
        for seed in range(150):
            model = lhv.random_model(seed)
            report = _model_report(model)
            assert report.margin >= -1e-12

    def test_point_masses_respect_bound(self):
        for assignment in lhv.enumerate_assignments():
            report = _model_report(lhv.FourAxisModel.point_mass(assignment))
            assert report.margin >= -1e-12


def _model_report(model):
    def correlation(s1, s2):
        return core.expectation(lhv.pair_probabilities(model, s1, s2))

    pair = lhv.pair_probabilities(model, "a_prime", "b_prime")
    singles_ap, singles_bp = core.marginals(pair)
    return ternary_inequality(
        correlation("a", "b"),
        correlation("a", "b_prime"),
        correlation("a_prime", "b"),
        pair,
        singles_ap,
        singles_bp,
    )


class TestTernarySymmetric:
    def test_ideal_values(self):
        report = ternary_inequality_symmetric(-0.5, 0.5, 0.5, (0.5, 0.5, 0.5, 0.5))
        assert report.lhs == pytest.approx(-1.5, abs=1e-12)

    def test_zeros(self):
        report = ternary_inequality_symmetric(0.0, 0.0, 0.0, (0, 0, 0, 0))
        assert report.lhs == 0.0

    def test_matches_general_form_for_symmetrized_models(self):
        for seed in range(25):
            model = lhv.random_model(seed)
            general = _model_report(model)
            pair = lhv.pair_probabilities(model, "a_prime", "b_prime")
            singles_ap, singles_bp = core.marginals(pair)
            e_avg = (
                core.expectation(lhv.pair_probabilities(model, "a", "b"))
                + core.expectation(lhv.pair_probabilities(model, "a", "b_prime"))
                + core.expectation(lhv.pair_probabilities(model, "a_prime", "b"))
            ) / 3.0
            symmetric = ternary_inequality_symmetric(
                e_avg, pair.pp, pair.mm,
                (singles_ap.p_plus, singles_ap.p_minus,
                 singles_bp.p_plus, singles_bp.p_minus),
            )
            assert symmetric.lhs == pytest.approx(general.lhs, abs=1e-12)
            assert symmetric.margin >= -1e-12

    def test_requires_four_singles(self):
        with pytest.raises(ValidationError):
            ternary_inequality_symmetric(0.0, 0.0, 0.0, (0.5, 0.5))


class TestBell1965:
    def test_ideal_violation(self):
        c = cos_double_angle(120.0)
        report = bell_1965(c, c, c)
        assert report.lhs == pytest.approx(-1.5, abs=1e-12)
        assert report.violation_factor == pytest.approx(1.5, abs=1e-12)

    def test_no_violation_at_ones(self):
        report = bell_1965(1.0, 1.0, 1.0)
        assert report.lhs == 3.0
        assert not report.violated

    def test_ternary_reduces_to_bell_when_primed_axes_merge(self):
        rng = np.random.default_rng(20240818)
        for _ in range(100):
            d1, d2, d3 = (float(x) for x in rng.uniform(0, 180, size=3))
            ternary = ternary_inequality(**ideal_inputs(d1, d2, d3, 0.0))
            bell = bell_1965(
                cos_double_angle(d1), cos_double_angle(d2), cos_double_angle(d3)
            )
            assert ternary.lhs == pytest.approx(bell.lhs, abs=1e-12)


class TestDetectionInequality:
    def test_undamped_fringe_violation(self):
        report = detection_inequality(**detection_inputs(GEOM_F1))
        assert report.lhs == pytest.approx(-1.5, abs=1e-12)
        assert report.violation_factor == pytest.approx(1.5, abs=1e-12)

    def test_natural_fringe_closed_form(self):
        report = detection_inequality(**detection_inputs(GEOM_NATURAL))
        f = qm.depolarization_factor(30.0)
        assert report.lhs == pytest.approx(1.0 - 2.5 * f, abs=1e-9)

    def test_scale_invariance(self):
        inputs = detection_inputs(GEOM_F1)
        base = detection_inequality(**inputs)
        scaled_inputs = dict(
            rates_ab=inputs["rates_ab"].scaled(7.3),
            rates_bpa=inputs["rates_bpa"].scaled(7.3),
            rates_bap=inputs["rates_bap"].scaled(7.3),
            rates_apbp=inputs["rates_apbp"].scaled(7.3),
            singles_ap=tuple(7.3 * x for x in inputs["singles_ap"]),
            singles_bp=tuple(7.3 * x for x in inputs["singles_bp"]),
        )
        scaled = detection_inequality(**scaled_inputs)
        assert scaled.lhs == pytest.approx(base.lhs, abs=1e-12)

    def test_zero_total_raises(self):
        inputs = detection_inputs(GEOM_F1)
        inputs["rates_ab"] = DetectionRates(0, 0, 0, 0, 0.1, 0.1, 0.1, 0.1)
        with pytest.raises(UndefinedRatioError):
            detection_inequality(**inputs)


class TestDetectionSymmetric:
    def test_undamped_fringe(self):
        rates_cross = qm.detection_rates(0.0, 120.0, GEOM_F1)
        rates_primed = qm.detection_rates(0.0, 0.0, GEOM_F1)
        single = GEOM_F1.single_rate
        report = detection_inequality_symmetric(
            core.detection_expectation(rates_cross),
            core.coincidence_total(rates_cross),
            rates_primed.d_pp,
            rates_primed.d_mm,
            core.coincidence_total(rates_primed),
            single,
            single,
            2 * single,
        )
        assert report.lhs == pytest.approx(-1.5, abs=1e-12)

    def test_uncorrelated_inputs(self):
        report = detection_inequality_symmetric(
            0.0, 1.0, 0.25, 0.25, 1.0, 0.5, 0.5, 1.0
        )
        assert report.lhs == pytest.approx(1.0, abs=1e-15)

    def test_matches_general_form_at_symmetric_quads(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            d = float(rng.uniform(0, 180))
            d4 = float(rng.uniform(0, 180))
            general = detection_inequality(**detection_inputs(GEOM_NATURAL, d, d, d, d4))
            rates_cross = qm.detection_rates(0.0, d, GEOM_NATURAL)
            rates_primed = qm.detection_rates(0.0, d4, GEOM_NATURAL)
            single = GEOM_NATURAL.single_rate
            symmetric = detection_inequality_symmetric(
                core.detection_expectation(rates_cross),
                core.coincidence_total(rates_cross),
                rates_primed.d_pp,
                rates_primed.d_mm,
                core.coincidence_total(rates_primed),
                single,
                single,
                2 * single,
            )
            assert symmetric.lhs == pytest.approx(general.lhs, abs=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(UndefinedRatioError):
            detection_inequality_symmetric(0.0, 0.0, 0.1, 0.1, 1.0, 0.5, 0.5, 1.0)
        with pytest.raises(UndefinedRatioError):
            detection_inequality_symmetric(0.0, 1.0, 0.1, 0.1, 1.0, 0.0, 0.0, 0.0)


SYMMETRIC_ARGS = dict(
    e_cross=0.0, total_cross=1.0, d_pp_primed=0.25, d_mm_primed=0.25, total_primed=1.0,
    d_plus_primed=0.5, d_minus_primed=0.5, singles_total_primed=1.0,
)
BAD_VALUES = (math.nan, math.inf, -1.0)


class TestMeasurableInputValidation:
    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("arg", ["singles_ap", "singles_bp"])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_detection_rejects_bad_singles(self, arg, slot, bad):
        inputs = detection_inputs(GEOM_F1)
        singles = list(inputs[arg])
        singles[slot] = bad
        inputs[arg] = tuple(singles)
        with pytest.raises(ValidationError, match=rf"^{arg}\[{slot}\] must be finite and >= 0"):
            detection_inequality(**inputs)

    @pytest.mark.parametrize("length", [0, 1, 3])
    @pytest.mark.parametrize("arg", ["singles_ap", "singles_bp"])
    def test_detection_rejects_singles_of_wrong_length(self, arg, length):
        # A third value used to go unchecked; one or none failed to unpack.
        inputs = dict(detection_inputs(GEOM_F1), **{arg: (0.3,) * length})
        with pytest.raises(ValidationError, match=rf"^{arg} must hold 2 values \(D\+, D-\), got {length}$"):
            detection_inequality(**inputs)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("arg", list(SYMMETRIC_ARGS))
    def test_symmetric_rejects_bad_inputs(self, arg, bad):
        inputs = dict(SYMMETRIC_ARGS, **{arg: bad})
        if arg == "e_cross" and bad == -1.0:  # a correlation count may be negative
            assert detection_inequality_symmetric(**inputs).lhs == pytest.approx(-2.0, abs=1e-15)
            return
        with pytest.raises(ValidationError, match=rf"^{arg} must be finite"):
            detection_inequality_symmetric(**inputs)

    @pytest.mark.parametrize("changes, rule", [
        # like-sign coincidences of 4 against a primed total of 1 read as lhs -6.0
        (dict(d_pp_primed=2.0, d_mm_primed=2.0), r"d_pp_primed \+ d_mm_primed <= total_primed"),
        (dict(e_cross=5.0), r"\|e_cross\| <= total_cross"),  # read as 16.0
        (dict(e_cross=-5.0), r"\|e_cross\| <= total_cross"),
        # singles of 0.5 + 0.5 against a total of 0.1 read as 19.0
        (dict(singles_total_primed=0.1), r"singles_total_primed = d_plus_primed \+ d_minus_primed"),
    ], ids=["like-sign", "e-above", "e-below", "singles-total"])
    def test_symmetric_rejects_inconsistent_inputs(self, changes, rule):
        with pytest.raises(ValidationError, match=rf"^inputs break {rule} by "):
            detection_inequality_symmetric(**dict(SYMMETRIC_ARGS, **changes))

    @pytest.mark.parametrize("changes", [
        dict(d_pp_primed=0.5, d_mm_primed=0.5),
        dict(d_pp_primed=0.5, d_mm_primed=0.5 + 5e-13),
        dict(e_cross=1.0),
        dict(e_cross=-1.0 - 5e-13),
        dict(singles_total_primed=1.0 + 5e-13),
        dict(singles_total_primed=1.0 - 5e-13),
        dict(total_cross=1e6, e_cross=-1e6 - 1e-7),  # the slack is relative to the total
    ])
    def test_symmetric_accepts_consistency_boundaries(self, changes):
        detection_inequality_symmetric(**dict(SYMMETRIC_ARGS, **changes))

    @pytest.mark.parametrize("changes", [
        dict(d_pp_primed=0.5, d_mm_primed=0.5 + 2e-12),
        dict(e_cross=-1.0 - 2e-12),
        dict(singles_total_primed=1.0 - 2e-12),
    ])
    def test_symmetric_rejects_just_beyond_the_slack(self, changes):
        with pytest.raises(ValidationError, match="^inputs break "):
            detection_inequality_symmetric(**dict(SYMMETRIC_ARGS, **changes))


class TestChsh:
    def test_optimal_settings(self):
        quad = quad_from_differences(22.5, 22.5, 22.5, 67.5)
        a, b, ap, bp = quad.axes_degrees()
        report = chsh(
            cos_double_angle(a - b),
            cos_double_angle(bp - a),
            cos_double_angle(b - ap),
            cos_double_angle(ap - bp),
        )
        assert report.lhs == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert report.violation_factor == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_zeros(self):
        assert chsh(0, 0, 0, 0).lhs == 0.0

    def test_algebraic_maximum(self):
        report = chsh(1.0, 1.0, 1.0, -1.0)
        assert report.lhs == 4.0
        assert report.violation_factor == 2.0
        assert report.violated


MERGED_QUAD = quad_from_differences(120, 120, 120, 0)
FREE_QUAD = SettingsQuad.of(0.0, 67.5, 135.0, 112.5)


class TestFringeThreshold:
    """F*, the fringe factor above which a form is violated, is unchanged when
    a constant is added to the inequality; lhs / bound is not."""

    @pytest.mark.parametrize(
        "quad, f, expected",
        [
            (MERGED_QUAD, 0.8, -1.0),  # 1 - 2.5 F: F* = 0.8
            (MERGED_QUAD, 0.75, -0.875),
            (FREE_QUAD, 1 / math.sqrt(2), -1.0),  # 1 - 2 sqrt(2) F: F* = 1 / sqrt(2), as CHSH
            (FREE_QUAD, 0.75, 1 - 1.5 * math.sqrt(2)),
        ],
    )
    def test_detection_lhs(self, quad, f, expected):
        source = qm.RealSource(qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=f))
        assert abs(FORMS["detection"].evaluate(quad, source).lhs - expected) <= 1e-12

    def test_ternary_free_quad(self):
        lhs = FORMS["ternary"].evaluate(FREE_QUAD, qm.IdealSource()).lhs
        assert abs(lhs - (1 - 2 * math.sqrt(2))) <= 1e-12


class TestQuadConstruction:
    def test_canonical_configuration(self):
        quad = quad_from_differences(120, 120, 120, 0)
        assert quad.a_prime == quad.b_prime
        a, b, ap, bp = quad.axes_degrees()
        assert cos_double_angle(a - b) == pytest.approx(-0.5, abs=1e-12)
        assert cos_double_angle(bp - a) == pytest.approx(-0.5, abs=1e-12)
        assert cos_double_angle(b - ap) == pytest.approx(-0.5, abs=1e-12)

    def test_infeasible_differences_rejected(self):
        with pytest.raises(ValidationError):
            quad_from_differences(90, 90, 90, 0)

    @pytest.mark.parametrize("diffs", [
        (math.inf, 120, 120, 0), (120, 120, 120, math.nan), (120, -math.inf, 120, 0),
    ])
    def test_non_finite_differences_rejected(self, diffs):
        with pytest.raises(ValidationError, match="finite"):
            quad_from_differences(*diffs)

    @pytest.mark.parametrize("diffs", [
        (1e308, 120, 120, 0), (1.7e308, 1.7e308, -1.7e308, 0), (120, -1e308, 1e308, 0),
        (1.0, 1.0, 1.0, 1e308),
    ])
    def test_overflowing_differences_rejected(self, diffs):
        with pytest.raises(ValidationError, match="too large"):
            quad_from_differences(*diffs)

    def test_settings_quad_normalizes(self):
        quad = SettingsQuad.of(0.0, 120.0, 240.0, 240.0)
        assert quad.axes_degrees() == (0.0, 120.0, 60.0, 60.0)


PLANE_SOURCES = {
    qm.IdealSource: [qm.IdealSource()],
    qm.RealSource: [
        qm.RealSource(qm.CascadeGeometry(eta=0.3, phi_deg=40.0)),
        qm.RealSource(GEOM_F1),
    ],
}


class TestPlanes:
    """A form's plane is its lhs with b' = a', as an affine function of the
    three cross fringes; the scan's coarse phase trusts it."""

    @pytest.mark.parametrize("name", [n for n, form in FORMS.items() if form.plane is not None])
    def test_plane_matches_evaluator(self, name):
        form = FORMS[name]
        rng = np.random.default_rng(20240)
        for source in PLANE_SOURCES[form.source]:
            scale, offset = form.plane(source)
            for a, b, ap in rng.uniform(-180.0, 360.0, size=(200, 3)):
                quad = SettingsQuad.of(a, b, ap, ap)
                fringes = (cos_double_angle(a - b) + cos_double_angle(ap - a)
                           + cos_double_angle(b - ap))
                expected = form.evaluate(quad, source).lhs
                assert scale * fringes + offset == pytest.approx(expected, abs=1e-12)

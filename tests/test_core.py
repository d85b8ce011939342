import math

import numpy as np
import pytest

from belltest import core, qm
from belltest.core import (
    AngleDeg,
    DetectionRates,
    Outcome,
    PairProbabilities,
    SinglesProbabilities,
    UndefinedRatioError,
    ValidationError,
)

GEOM_F1 = qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=1.0)


def ideal_pair(theta_deg):
    c = math.cos(math.radians(theta_deg))
    s = math.sin(math.radians(theta_deg))
    return PairProbabilities(pp=c * c / 2, pm=s * s / 2, mp=s * s / 2, mm=c * c / 2)


class TestOutcome:
    def test_numeric_image(self):
        assert {int(o) for o in Outcome} == {1, 0, -1}

    def test_symbol_round_trip(self):
        for o in Outcome:
            assert Outcome.from_symbol(o.symbol) is o

    def test_bad_symbol(self):
        with pytest.raises(ValidationError):
            Outcome.from_symbol("x")


class TestAngles:
    def test_normalization_range(self):
        for d in (0.0, 17.5, 179.999, 180.0, 233.0, 360.0, -30.0, -180.0, 1e6):
            r = core.normalize_degrees(d)
            assert 0.0 <= r < 180.0

    def test_period(self):
        for d in (-50.0, 0.0, 12.25, 90.0, 179.0):
            assert core.normalize_degrees(d + 180.0) == pytest.approx(
                core.normalize_degrees(d), abs=1e-9
            )

    def test_tiny_negative_does_not_land_on_period(self):
        assert core.normalize_degrees(-1e-16) < 180.0

    def test_angle_deg_normalizes(self):
        assert AngleDeg(240.0).degrees == 60.0
        assert AngleDeg(-30.0).degrees == 150.0
        assert core.degrees_of(240.0) == 60.0
        assert core.degrees_of(AngleDeg(10.0)) == 10.0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, value):
        with pytest.raises(ValidationError, match="finite"):
            AngleDeg(value)


class TestPairProbabilities:
    def test_rejects_negative_cell(self):
        with pytest.raises(ValidationError):
            PairProbabilities(pp=-0.1, pm=0.4, mp=0.4, mm=0.3)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            PairProbabilities(pp=0.5, pm=0.5, mp=0.5, mm=0.0)

    def test_prob_accessor(self):
        pair = PairProbabilities(pp=0.1, pm=0.2, mp=0.3, mm=0.4)
        assert pair.prob(Outcome.PLUS, Outcome.MINUS) == 0.2
        assert pair.prob(Outcome.ZERO, Outcome.ZERO) == 0.0

    def test_cell_order_matches_names(self):
        pair = PairProbabilities(pp=1.0, pm=0.0, mp=0.0, mm=0.0)
        assert pair.cells()[0] == 1.0
        assert len(core.CELL_NAMES) == len(core.CELL_OUTCOMES) == 9


class TestExpectation:
    def test_perfect_correlation(self):
        pair = PairProbabilities(pp=0.5, pm=0.0, mp=0.0, mm=0.5)
        assert core.expectation(pair) == 1.0

    def test_ideal_120(self):
        pair = PairProbabilities(pp=0.125, pm=0.375, mp=0.375, mm=0.125)
        assert core.expectation(pair) == pytest.approx(-0.5, abs=1e-12)

    def test_uniform_is_zero(self):
        ninth = 1.0 / 9.0
        pair = PairProbabilities(*([ninth] * 9))
        assert core.expectation(pair) == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_detected_mass(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            cells = rng.random(9)
            cells /= cells.sum()
            pair = PairProbabilities(*cells)
            detected = pair.pp + pair.pm + pair.mp + pair.mm
            assert abs(core.expectation(pair)) <= detected + 1e-12


class TestMarginals:
    def test_all_absorbed(self):
        pair = PairProbabilities(pp=0, pm=0, mp=0, mm=0, zz=1.0)
        side1, side2 = core.marginals(pair)
        assert (side1.p_plus, side1.p_zero, side1.p_minus) == (0.0, 1.0, 0.0)
        assert (side2.p_plus, side2.p_zero, side2.p_minus) == (0.0, 1.0, 0.0)

    def test_ideal_any_angle(self):
        for theta in (0.0, 30.0, 45.0, 120.0, 157.5):
            side1, side2 = core.marginals(ideal_pair(theta))
            for side in (side1, side2):
                assert side.p_plus == pytest.approx(0.5, abs=1e-12)
                assert side.p_zero == pytest.approx(0.0, abs=1e-12)
                assert side.p_minus == pytest.approx(0.5, abs=1e-12)

    def test_mixed_absorption(self):
        pair = PairProbabilities(pp=0, pm=0, mp=0, mm=0, pz=0.3, zz=0.7)
        side1, side2 = core.marginals(pair)
        assert (side1.p_plus, side1.p_zero, side1.p_minus) == (0.3, 0.7, 0.0)
        assert (side2.p_plus, side2.p_zero, side2.p_minus) == (0.0, 1.0, 0.0)

    def test_marginals_always_valid(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            cells = rng.random(9)
            cells /= cells.sum()
            side1, side2 = core.marginals(PairProbabilities(*cells))
            assert isinstance(side1, SinglesProbabilities)
            assert isinstance(side2, SinglesProbabilities)


class TestDetectionRates:
    def test_rejects_coincidences_above_singles(self):
        with pytest.raises(ValidationError):
            DetectionRates(
                d_pp=0.3, d_pm=0.3, d_mp=0.0, d_mm=0.0,
                d_plus_1=0.1, d_minus_1=0.5, d_plus_2=0.5, d_minus_2=0.5,
            )

    def test_qm_rates_always_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            eta = float(rng.uniform(1e-3, 1.0))
            phi = float(rng.uniform(1.0, 90.0))
            geom = qm.CascadeGeometry(eta=eta, phi_deg=phi)
            a, b = rng.uniform(0, 180, size=2)
            rates = qm.detection_rates(float(a), float(b), geom)
            assert isinstance(rates, DetectionRates)

    def test_coincidence_total_examples(self):
        flat = DetectionRates(0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5, 0.5)
        assert core.coincidence_total(flat) == 1.0
        rates = qm.detection_rates(10.0, 40.0, qm.CascadeGeometry(eta=0.2, phi_deg=30.0))
        assert core.coincidence_total(rates) == pytest.approx(
            2.3808567431122686e-4, rel=1e-12
        )
        zero = DetectionRates(0, 0, 0, 0, 0, 0, 0, 0)
        assert core.coincidence_total(zero) == 0.0

    def test_singles_total_examples(self):
        assert core.singles_total(0.5, 0.5) == 1.0
        assert core.singles_total(0.0, 0.0) == 0.0
        geom = qm.CascadeGeometry(eta=0.2, phi_deg=30.0)
        rates = qm.detection_rates(0.0, 0.0, geom)
        assert core.singles_total(rates.d_plus_1, rates.d_minus_1) == pytest.approx(
            1.339745962155613e-2, rel=1e-12
        )
        with pytest.raises(ValidationError):
            core.singles_total(1.5, 0.0)

    def test_detection_expectation_examples(self):
        at0 = qm.detection_rates(25.0, 25.0, GEOM_F1)
        assert core.detection_expectation(at0) == pytest.approx(
            core.coincidence_total(at0), rel=1e-12
        )
        at45 = qm.detection_rates(0.0, 45.0, GEOM_F1)
        assert core.detection_expectation(at45) == pytest.approx(0.0, abs=1e-18)
        at120 = qm.detection_rates(0.0, 120.0, GEOM_F1)
        ratio = core.detection_expectation(at120) / core.coincidence_total(at120)
        assert ratio == pytest.approx(-0.5, abs=1e-12)


class TestNormalizeCoincidences:
    def test_symmetric(self):
        rates = DetectionRates(2e-4, 0, 0, 2e-4, 1e-3, 1e-3, 1e-3, 1e-3)
        pair = core.normalize_coincidences(rates)
        assert pair.pp == pair.mm == 0.5
        assert pair.pm == pair.mp == 0.0

    def test_recovers_ideal_at_120(self):
        pair = core.normalize_coincidences(qm.detection_rates(0.0, 120.0, GEOM_F1))
        assert pair.pp == pytest.approx(0.125, abs=1e-12)
        assert pair.mm == pytest.approx(0.125, abs=1e-12)
        assert pair.pm == pytest.approx(0.375, abs=1e-12)
        assert pair.mp == pytest.approx(0.375, abs=1e-12)

    def test_scale_invariance(self):
        rates = qm.detection_rates(5.0, 77.0, qm.CascadeGeometry(eta=0.4, phi_deg=25.0))
        base = core.normalize_coincidences(rates)
        scaled = core.normalize_coincidences(rates.scaled(10.0))
        for x, y in zip(base.cells(), scaled.cells()):
            assert x == pytest.approx(y, abs=1e-12)

    def test_zero_total_raises(self):
        zero = DetectionRates(0, 0, 0, 0, 0.1, 0.1, 0.1, 0.1)
        with pytest.raises(UndefinedRatioError):
            core.normalize_coincidences(zero)

import math
from fractions import Fraction

import numpy as np
import pytest

from belltest import core, qm
from belltest.core import ValidationError
from belltest.qm import (
    CascadeGeometry,
    InfeasibleModelError,
    angular_correlation,
    depolarization_factor,
    detection_rates,
    event_distribution,
    ideal_pair_probabilities,
    predict_coincidence_total,
    predict_singles_total,
    solid_angle,
)

GEOM = CascadeGeometry(eta=0.2, phi_deg=30.0)
GEOM_F1 = CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=1.0)


class TestGeometryFormulas:
    def test_solid_angle(self):
        assert solid_angle(180.0) == pytest.approx(4 * math.pi, rel=1e-15)
        assert solid_angle(90.0) == pytest.approx(2 * math.pi, rel=1e-15)
        assert solid_angle(30.0) == pytest.approx(0.8417872144769325, rel=1e-15)
        with pytest.raises(ValidationError):
            solid_angle(0.0)
        with pytest.raises(ValidationError):
            solid_angle(181.0)

    def test_angular_correlation(self):
        assert angular_correlation(1e-6) == pytest.approx(1.5, abs=1e-9)
        assert angular_correlation(90.0) == pytest.approx(1.0, rel=1e-15)
        assert angular_correlation(30.0) == pytest.approx(1.3264422632095823, rel=1e-15)
        with pytest.raises(ValidationError):
            angular_correlation(91.0)

    def test_depolarization_factor(self):
        assert depolarization_factor(1e-6) == pytest.approx(1.0, abs=1e-12)
        assert depolarization_factor(30.0) == pytest.approx(0.9880338717125848, rel=1e-15)
        assert round(depolarization_factor(30.0), 2) == 0.99
        assert depolarization_factor(90.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        with pytest.raises(ValidationError):
            depolarization_factor(-5.0)


def _cone_directions(phi_deg):
    """Quadrature over the cone of half-aperture phi_deg about +z: unit
    directions and weights summing to 1. 8 Gauss-Legendre nodes in cos(theta)
    times 8 azimuths average every polynomial of degree 2 in the direction
    exactly, since the solid angle is uniform in cos(theta) and azimuth."""
    c = math.cos(math.radians(phi_deg))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    u = c + (1.0 - c) * (nodes + 1.0) / 2.0
    alpha = 2.0 * np.pi * np.arange(8) / 8.0
    u, alpha = np.meshgrid(u, alpha, indexing="ij")
    sin = np.sqrt(1.0 - u * u)
    k = np.stack([sin * np.cos(alpha), sin * np.sin(alpha), u], axis=-1).reshape(-1, 3)
    w = np.repeat(weights / 2.0 / 8.0, 8)
    return k, w


class TestAngularCorrelationDerivation:
    """g(phi) = 1 + c^2 (1 + c)^2 / 8, c = cos phi, derived a second way: the
    0 -> 1 -> 0 cascade's pair rate goes as 1 + (k1 . k2)^2, whose mean over
    all directions is 4/3. Over back-to-back cones, with A = <k_z^2> =
    (1 + c + c^2) / 3 and B = <k_x^2> = <k_y^2> = (1 - c)(2 + c) / 6, the cone
    mean is 1 + A^2 + 2 B^2, so g = 3/4 (1 + A^2 + 2 B^2)."""

    PHIS = [1e-6, 5.0, 30.0, 37.0, 45.0, 60.0, 63.1, 89.9, 90.0]

    @pytest.mark.parametrize("phi", PHIS)
    def test_closed_form_is_the_cone_moment_identity(self, phi):
        c = Fraction(math.cos(math.radians(phi)))
        a = (1 + c + c * c) / 3
        b = (1 - c) * (2 + c) / 6
        exact = 1 + c * c * (1 + c) ** 2 / 8
        assert Fraction(3, 4) * (1 + a * a + 2 * b * b) == exact
        assert abs(angular_correlation(phi) - float(exact)) <= 2 * math.ulp(float(exact))

    @pytest.mark.parametrize("phi", [5.0, 37.0, 60.0, 90.0])
    def test_closed_form_matches_cone_quadrature(self, phi):
        k1, w1 = _cone_directions(phi)
        k2, w2 = -k1, w1  # the second cone points the opposite way
        mean = w1 @ (1.0 + (k1 @ k2.T) ** 2) @ w2
        assert abs(mean / (4.0 / 3.0) - angular_correlation(phi)) <= 1e-12


class TestCascadeGeometry:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CascadeGeometry(eta=0.0, phi_deg=30.0)
        with pytest.raises(ValidationError):
            CascadeGeometry(eta=1.2, phi_deg=30.0)
        with pytest.raises(ValidationError):
            CascadeGeometry(eta=0.5, phi_deg=0.0)
        with pytest.raises(ValidationError):
            CascadeGeometry(eta=0.5, phi_deg=30.0, f_override=1.5)

    def test_f_factor(self):
        assert GEOM.f_factor == depolarization_factor(30.0)
        assert GEOM_F1.f_factor == 1.0


class TestIdealPairProbabilities:
    def test_aligned(self):
        pair = ideal_pair_probabilities(0.0)
        assert pair.pp == pair.mm == 0.5
        assert pair.pm == pair.mp == 0.0

    def test_at_120(self):
        pair = ideal_pair_probabilities(120.0)
        assert pair.pp == pytest.approx(0.125, abs=1e-12)
        assert pair.mm == pytest.approx(0.125, abs=1e-12)
        assert pair.pm == pytest.approx(0.375, abs=1e-12)
        assert pair.mp == pytest.approx(0.375, abs=1e-12)

    def test_at_45(self):
        pair = ideal_pair_probabilities(45.0)
        for cell in (pair.pp, pair.pm, pair.mp, pair.mm):
            assert cell == pytest.approx(0.25, abs=1e-12)
        assert core.expectation(pair) == pytest.approx(0.0, abs=1e-12)

    def test_expectation_is_double_angle_cosine(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-360, 360, size=50):
            pair = ideal_pair_probabilities(float(theta))
            assert core.expectation(pair) == pytest.approx(
                core.cos_double_angle(float(theta)), abs=1e-12
            )


class TestDetectionRates:
    def test_aligned_f1(self):
        rates = detection_rates(0.0, 0.0, GEOM_F1)
        assert rates.d_pp == pytest.approx(1.1904283715561343e-4, rel=1e-12)
        assert rates.d_mm == rates.d_pp
        assert rates.d_pm == 0.0
        assert rates.d_mp == 0.0

    def test_singles_value(self):
        rates = detection_rates(33.0, 71.0, GEOM)
        for single in (rates.d_plus_1, rates.d_minus_1, rates.d_plus_2, rates.d_minus_2):
            assert single == pytest.approx(6.698729810778065e-3, rel=1e-15)

    def test_all_doubles_equal_at_45(self):
        rates = detection_rates(0.0, 45.0, GEOM)
        assert rates.d_pm == pytest.approx(rates.d_pp, rel=1e-12)
        assert rates.d_mp == pytest.approx(rates.d_pp, rel=1e-12)
        assert rates.d_mm == pytest.approx(rates.d_pp, rel=1e-12)

    def test_depends_only_on_difference_exact_for_integer_rotations(self):
        base = detection_rates(10.0, 130.0, GEOM)
        rng = np.random.default_rng(3)
        for rotation in rng.integers(-720, 720, size=100):
            rotated = detection_rates(10.0 + int(rotation), 130.0 + int(rotation), GEOM)
            assert rotated == base

    def test_depends_only_on_difference_for_real_rotations(self):
        base = detection_rates(10.0, 130.0, GEOM)
        rng = np.random.default_rng(4)
        for rotation in rng.uniform(-720, 720, size=100):
            rotated = detection_rates(10.0 + float(rotation), 130.0 + float(rotation), GEOM)
            for field in ("d_pp", "d_pm", "d_mp", "d_mm"):
                assert getattr(rotated, field) == pytest.approx(
                    getattr(base, field), rel=1e-12
                )

    def test_fringe_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = (float(x) for x in rng.uniform(0, 180, size=2))
            geom = CascadeGeometry(eta=float(rng.uniform(0.05, 1.0)),
                                   phi_deg=float(rng.uniform(5.0, 90.0)))
            rates = detection_rates(a, b, geom)
            ratio = core.detection_expectation(rates) / core.coincidence_total(rates)
            assert ratio == pytest.approx(
                geom.f_factor * core.cos_double_angle(a - b), abs=1e-12
            )


class TestPredictedTotals:
    def test_values(self):
        assert predict_coincidence_total(GEOM) == pytest.approx(
            2.3808567431122686e-4, rel=1e-15
        )
        assert predict_singles_total(GEOM) == pytest.approx(
            1.339745962155613e-2, rel=1e-15
        )

    def test_hemisphere_unit_efficiency(self):
        geom = CascadeGeometry(eta=1.0, phi_deg=90.0)
        assert predict_singles_total(geom) == pytest.approx(0.5, rel=1e-12)

    def test_vanishes_with_efficiency(self):
        geom = CascadeGeometry(eta=1e-9, phi_deg=30.0)
        assert predict_coincidence_total(geom) < 1e-18
        assert predict_singles_total(geom) < 1e-9

    def test_two_path_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            geom = CascadeGeometry(eta=float(rng.uniform(0.01, 1.0)),
                                   phi_deg=float(rng.uniform(1.0, 90.0)))
            a, b = (float(x) for x in rng.uniform(0, 180, size=2))
            rates = detection_rates(a, b, geom)
            assert core.coincidence_total(rates) == pytest.approx(
                predict_coincidence_total(geom), rel=1e-15
            )
            assert rates.d_plus_1 + rates.d_minus_1 == pytest.approx(
                predict_singles_total(geom), rel=1e-15
            )

    def test_normalized_rates_recover_ideal(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            geom = CascadeGeometry(eta=float(rng.uniform(0.05, 1.0)),
                                   phi_deg=float(rng.uniform(5.0, 90.0)),
                                   f_override=1.0)
            a, b = (float(x) for x in rng.uniform(0, 180, size=2))
            observed = core.normalize_coincidences(detection_rates(a, b, geom))
            ideal = ideal_pair_probabilities(a - b)
            for x, y in zip(observed.cells(), ideal.cells()):
                assert x == pytest.approx(y, abs=1e-12)


class TestEventDistribution:
    def test_completion_cell_at_120(self):
        dist = event_distribution(0.0, 120.0, GEOM_F1)
        assert dist.pz == pytest.approx(6.579686973622451e-3, rel=1e-12)

    def test_cells_sum_to_one_with_identity_remainder(self):
        dist = event_distribution(14.0, 95.0, GEOM)
        assert math.fsum(dist.cells()) == pytest.approx(1.0, abs=1e-15)
        expected_zz = 1.0 - 2.0 * predict_singles_total(GEOM) + predict_coincidence_total(GEOM)
        assert dist.zz == pytest.approx(expected_zz, rel=1e-12)

    def test_marginals_reproduce_singles(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            geom = CascadeGeometry(eta=float(rng.uniform(0.05, 1.0)),
                                   phi_deg=float(rng.uniform(5.0, 90.0)))
            a, b = (float(x) for x in rng.uniform(0, 180, size=2))
            dist = event_distribution(a, b, geom)
            rates = detection_rates(a, b, geom)
            side1, side2 = core.marginals(dist)
            assert side1.p_plus == pytest.approx(rates.d_plus_1, rel=5e-16)
            assert side1.p_minus == pytest.approx(rates.d_minus_1, rel=5e-16)
            assert side2.p_plus == pytest.approx(rates.d_plus_2, rel=5e-16)
            assert side2.p_minus == pytest.approx(rates.d_minus_2, rel=5e-16)

    def test_everything_missed_at_tiny_efficiency(self):
        dist = event_distribution(0.0, 10.0, CascadeGeometry(eta=1e-9, phi_deg=30.0))
        assert dist.zz == pytest.approx(1.0, abs=1e-9)

    def test_completion_cells_are_the_partner_missed_cells(self):
        rates = detection_rates(14.0, 95.0, GEOM)
        dist = event_distribution(14.0, 95.0, GEOM)
        assert dist.cells()[:4] == rates.doubles()
        assert {name: getattr(dist, name) for name in rates.partner_missed()} == (
            rates.partner_missed()
        )

    def test_completion_clamps_cells_inside_the_slack(self):
        # pz and zp are -CELL_TOL, which DetectionRates accepts; completion reads 0.
        rates = core.DetectionRates(core.CELL_TOL, 0, 0, 0, 0, 0, 0, 0)
        dist = qm.complete_detection_rates(rates)
        assert (dist.pp, dist.pz, dist.zp, dist.zz) == (core.CELL_TOL, 0.0, 0.0, 1.0 - core.CELL_TOL)

    def test_infeasible_rates_raise(self):
        from belltest.core import DetectionRates

        saturated = DetectionRates(
            d_pp=0.25, d_pm=0.25, d_mp=0.25, d_mm=0.25,
            d_plus_1=0.9, d_minus_1=0.9, d_plus_2=0.9, d_minus_2=0.9,
        )
        with pytest.raises(InfeasibleModelError):
            qm.complete_detection_rates(saturated)

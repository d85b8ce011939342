"""Acceptance suite: every release gate in one module, one test each.

Each test prints a single pass line once its assertions (at the pinned
tolerances) have all held, so `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""

import math
import random
import time

import numpy as np

from belltest import core, lhv, montecarlo as mc, optimizer, qm
from belltest.core import cos_double_angle
from belltest.inequalities import (
    FORMS,
    SettingsQuad,
    bell_1965,
    chsh,
    detection_inequality,
    detection_inequality_symmetric,
    quad_from_differences,
    ternary_inequality,
)

GEOM_F1 = qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=1.0)
CANONICAL_QUAD = quad_from_differences(120.0, 120.0, 120.0, 0.0)


def _passed(number: int, summary: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {summary}")


def _ternary_report_for_model(model):
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


def _detection_inputs(geom):
    single = geom.single_rate
    return dict(
        rates_ab=qm.detection_rates(0.0, 120.0, geom),
        rates_bpa=qm.detection_rates(0.0, 120.0, geom),
        rates_bap=qm.detection_rates(0.0, 120.0, geom),
        rates_apbp=qm.detection_rates(0.0, 0.0, geom),
        singles_ap=(single, single),
        singles_bp=(single, single),
    )


def _detection_sym_report(geom):
    rates_cross = qm.detection_rates(0.0, 120.0, geom)
    rates_primed = qm.detection_rates(0.0, 0.0, geom)
    single = geom.single_rate
    return detection_inequality_symmetric(
        core.detection_expectation(rates_cross),
        core.coincidence_total(rates_cross),
        rates_primed.d_pp,
        rates_primed.d_mm,
        core.coincidence_total(rates_primed),
        single,
        single,
        2.0 * single,
    )


def _symmetric_estimate(pairs, seed, source=None):
    plan = mc.RunPlan(
        quad=CANONICAL_QUAD,
        pairs_per_setting=pairs,
        seed=seed,
        source=source or qm.RealSource(GEOM_F1),
    )
    results = mc.run_experiment(plan)
    cross = mc.merge_counters(results["ab"], results["bpa"], results["bap"])
    return mc.evaluate_symmetric_detection(cross, results["apbp"])


def test_criterion_01_theorem_exhaustiveness():
    start = time.perf_counter()
    report = lhv.verify_theorem()
    elapsed = time.perf_counter() - start
    assert len(lhv.enumerate_assignments()) == 81
    assert report.min_functional_value == -1
    assert tuple(case.min_three_term for case in report.case_bounds) == (
        -1, -1, -3, -3, -2, -2, -2, -2, -1,
    )
    assert report.all_satisfied and report.cases_match_expected
    assert elapsed < 1.0
    _passed(1, f"81-assignment minimum is -1, all nine case bounds match ({elapsed:.3f}s)")


def test_criterion_02_lhv_soundness_suite():
    start = time.perf_counter()
    worst = math.inf
    for assignment in lhv.enumerate_assignments():
        margin = _ternary_report_for_model(lhv.FourAxisModel.point_mass(assignment)).margin
        worst = min(worst, margin)
        assert margin >= -1e-12
    for seed in range(1000):
        margin = _ternary_report_for_model(lhv.random_model(seed)).margin
        worst = min(worst, margin)
        assert margin >= -1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"1081 local models keep margin >= -1e-12 (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_ideal_violation():
    report = ternary_inequality(
        e_ab=cos_double_angle(120.0),
        e_bpa=cos_double_angle(120.0),
        e_bap=cos_double_angle(120.0),
        pair_apbp=qm.ideal_pair_probabilities(0.0),
        singles_ap=core.SinglesProbabilities(0.5, 0.0, 0.5),
        singles_bp=core.SinglesProbabilities(0.5, 0.0, 0.5),
    )
    assert abs(report.lhs - (-1.5)) <= 1e-12
    assert abs(report.violation_factor - 1.5) <= 1e-12
    _passed(3, "ideal configuration (120,120,120,0) reaches lhs -1.5, factor 1.5")


def test_criterion_04_bell_1965_reduction():
    rng = np.random.default_rng(19650101)
    worst = 0.0
    for _ in range(100):
        d1, d2, d3 = (float(x) for x in rng.uniform(0.0, 180.0, size=3))
        merged = ternary_inequality(
            e_ab=cos_double_angle(d1),
            e_bpa=cos_double_angle(d2),
            e_bap=cos_double_angle(d3),
            pair_apbp=qm.ideal_pair_probabilities(0.0),
            singles_ap=core.SinglesProbabilities(0.5, 0.0, 0.5),
            singles_bp=core.SinglesProbabilities(0.5, 0.0, 0.5),
        )
        bell = bell_1965(cos_double_angle(d1), cos_double_angle(d2), cos_double_angle(d3))
        worst = max(worst, abs(merged.lhs - bell.lhs))
        assert abs(merged.lhs - bell.lhs) <= 1e-12
    _passed(4, f"merged primed axes reduce to the 1965 form (max gap {worst:.2e})")


def test_criterion_05_real_experiment_violation():
    general = detection_inequality(**_detection_inputs(GEOM_F1))
    symmetric = _detection_sym_report(GEOM_F1)
    assert abs(general.lhs - (-1.5)) <= 1e-12
    assert abs(symmetric.lhs - (-1.5)) <= 1e-12

    inputs = _detection_inputs(GEOM_F1)
    scaled = detection_inequality(
        rates_ab=inputs["rates_ab"].scaled(1e3),
        rates_bpa=inputs["rates_bpa"].scaled(1e3),
        rates_bap=inputs["rates_bap"].scaled(1e3),
        rates_apbp=inputs["rates_apbp"].scaled(1e3),
        singles_ap=tuple(1e3 * x for x in inputs["singles_ap"]),
        singles_bp=tuple(1e3 * x for x in inputs["singles_bp"]),
    )
    assert abs(scaled.lhs - general.lhs) <= 1e-12

    rates_cross = qm.detection_rates(0.0, 120.0, GEOM_F1)
    rates_primed = qm.detection_rates(0.0, 0.0, GEOM_F1)
    single = GEOM_F1.single_rate
    scaled_symmetric = detection_inequality_symmetric(
        1e3 * core.detection_expectation(rates_cross),
        1e3 * core.coincidence_total(rates_cross),
        1e3 * rates_primed.d_pp,
        1e3 * rates_primed.d_mm,
        1e3 * core.coincidence_total(rates_primed),
        1e3 * single,
        1e3 * single,
        1e3 * 2.0 * single,
    )
    assert abs(scaled_symmetric.lhs - symmetric.lhs) <= 1e-12

    geom_quoted = qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=0.988034)
    assert abs(detection_inequality(**_detection_inputs(geom_quoted)).lhs - (-1.470085)) <= 1e-9
    assert abs(_detection_sym_report(geom_quoted).lhs - (-1.470085)) <= 1e-9

    geom_natural = qm.CascadeGeometry(eta=0.2, phi_deg=30.0)
    natural = detection_inequality(**_detection_inputs(geom_natural))
    assert abs(natural.lhs - (1.0 - 2.5 * qm.depolarization_factor(30.0))) <= 1e-9
    _passed(5, "measurable forms give -1.5 undamped, -1.470085 at the quoted fringe factor")


def test_criterion_06_geometry_formulas():
    omega = qm.solid_angle(30.0)
    g = qm.angular_correlation(30.0)
    assert abs(omega - 0.841787) <= 5e-7
    assert abs(g - 1.3264423) <= 5e-8

    rng = np.random.default_rng(66)
    for _ in range(50):
        geom = qm.CascadeGeometry(
            eta=float(rng.uniform(0.01, 1.0)), phi_deg=float(rng.uniform(1.0, 90.0))
        )
        rates = qm.detection_rates(float(rng.uniform(0, 180)), float(rng.uniform(0, 180)), geom)
        total = core.coincidence_total(rates)
        singles = rates.d_plus_1 + rates.d_minus_1
        assert abs(total - qm.predict_coincidence_total(geom)) <= 1e-15 * abs(total)
        assert abs(singles - qm.predict_singles_total(geom)) <= 1e-15 * abs(singles)
    _passed(6, "aperture formulas and both total-rate paths agree to 1e-15 relative")


def test_criterion_07_monte_carlo_convergence():
    start = time.perf_counter()
    estimated = _symmetric_estimate(10_000_000, seed=42)
    assert abs(estimated.report.lhs - (-1.5)) <= 3.0 * estimated.std_error

    within_two_sigma = 0
    for seed in range(10):
        repeat = _symmetric_estimate(10_000_000, seed=seed)
        if abs(repeat.report.lhs - (-1.5)) <= 2.0 * repeat.std_error:
            within_two_sigma += 1
    elapsed = time.perf_counter() - start
    assert within_two_sigma >= 8
    assert elapsed < 60.0
    _passed(7, f"1e7-emission runs track -1.5 ({within_two_sigma}/10 seeds in 2 sigma, {elapsed:.1f}s)")


def test_criterion_08_optimizer_recovers_configuration():
    start = time.perf_counter()
    result = optimizer.grid_scan("ternary", qm.IdealSource(), step_deg=1.0, refine_rounds=6)
    elapsed = time.perf_counter() - start
    for found, target in zip(result.best_quad.differences(), (120.0, 120.0, 120.0, 0.0)):
        assert abs(found - target) <= 0.5
    assert abs(result.best_lhs - (-1.5)) <= 1e-6
    assert elapsed < 30.0
    _passed(8, f"1-degree scan lands on (120,120,120,0) with lhs -1.5 ({elapsed:.1f}s)")


def test_criterion_09_chsh_comparison():
    quad = quad_from_differences(22.5, 22.5, 22.5, 67.5)
    a, b, ap, bp = quad.axes_degrees()
    report = chsh(
        cos_double_angle(a - b),
        cos_double_angle(bp - a),
        cos_double_angle(b - ap),
        cos_double_angle(ap - bp),
    )
    assert abs(report.violation_factor - math.sqrt(2)) <= 1e-9

    # Compared by the fringe threshold F*, the depolarization factor above
    # which a form is violated: the violation factor moves when a constant
    # is added to an inequality, F* does not.
    def detection_at(quad, f):
        geom = qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=f)
        return FORMS["detection"].evaluate(quad, qm.RealSource(geom))

    for f, violated in ((0.79, False), (0.8, False), (0.81, True)):
        merged = detection_at(CANONICAL_QUAD, f)
        assert abs(merged.lhs - (1.0 - 2.5 * f)) <= 1e-12
        assert merged.violated is violated
    free_quad = SettingsQuad.of(0.0, 67.5, 135.0, 112.5)
    for f, violated in ((1.0 / math.sqrt(2), False), (0.71, True)):
        free = detection_at(free_quad, f)
        assert abs(free.lhs - (1.0 - 2.0 * math.sqrt(2) * f)) <= 1e-12
        assert free.violated is violated
    assert abs(detection_at(free_quad, 1.0 / math.sqrt(2)).lhs - (-1.0)) <= 1e-12
    _passed(9, "CHSH factor sqrt(2); detection needs F > 0.8 at the merged quad, "
            "F > 1/sqrt(2) at the free quad")


def test_criterion_10_parallel_determinism(monkeypatch):
    plan = mc.RunPlan(
        quad=CANONICAL_QUAD,
        pairs_per_setting=7 * mc.CHUNK_EMISSIONS + 12345,
        seed=1234,
        source=qm.RealSource(GEOM_F1),
    )
    baseline = mc.run_experiment(plan, workers=1)
    for workers in (4, 16):
        assert mc.run_experiment(plan, workers=workers) == baseline
    dist = mc.distribution_for(plan.source, plan.quad, "ab")
    p = mc._cell_probabilities(dist)
    pair_seed = mc.derive_seed(plan.seed, 0)
    sizes = mc.chunk_counts(plan.pairs_per_setting)
    # Seed blocks of two chunks, so spans starting at an odd index begin
    # inside a block, and spans of three or more chunks cross one.
    monkeypatch.setattr(mc, "_SEED_BLOCK", 2)
    whole = mc.sample_pair_events(dist, plan.pairs_per_setting, pair_seed)
    assert whole == baseline["ab"]
    shuffle = random.Random(10).shuffle
    for cuts in ((0, 1, 4, 5, 8), (0, 3, 6, 7, 8), (0, 2, 3, 7, 8)):
        spans = list(zip(cuts, cuts[1:]))
        shuffle(spans)
        parts = (
            mc.CoincidenceCounters(
                sum(sizes[start:stop]),
                *mc._draw_chunks(p, pair_seed, start, sizes[start:stop]).tolist(),
            )
            for start, stop in spans
        )
        assert mc.merge_counters(*parts) == whole
    _passed(10, "counters are bit-identical in any partition and order of chunk spans, "
            "and at 1, 4, and 16 workers")

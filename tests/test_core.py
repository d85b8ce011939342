import math

import numpy as np
import pytest

from belltest import core, inequalities, lhv, montecarlo, optimizer, qm
from belltest.core import (
    DetectionRates,
    Outcome,
    PairProbabilities,
    SinglesProbabilities,
    UndefinedRatioError,
    ValidationError,
)
from belltest.inequalities import SettingsQuad

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

    def test_settings_quad_normalizes(self):
        quad = SettingsQuad(240.0, -30.0, 10.0, 180.0)
        assert quad.axes_degrees() == (60.0, 150.0, 10.0, 0.0)
        assert all(type(x) is float for x in quad.axes_degrees())
        assert SettingsQuad.of(240, -30, 10, 180) == quad

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, value):
        for axes in ((value, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, value)):
            with pytest.raises(ValidationError, match=f"angle must be finite, got {value!r}"):
                SettingsQuad(*axes)


class TestPairProbabilities:
    def test_rejects_negative_cell(self):
        with pytest.raises(ValidationError):
            PairProbabilities(pp=-0.1, pm=0.4, mp=0.4, mm=0.3)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            PairProbabilities(pp=0.5, pm=0.5, mp=0.5, mm=0.0)

    def test_prob_reads_every_cell(self):
        pair = PairProbabilities(*(k / 45 for k in range(1, 10)))
        letter = {Outcome.PLUS: "p", Outcome.ZERO: "z", Outcome.MINUS: "m"}
        for i in core.OUTCOMES:
            for j in core.OUTCOMES:
                assert pair.prob(i, j) == getattr(pair, letter[i] + letter[j])

    def test_prob_accessor(self):
        pair = PairProbabilities(pp=0.1, pm=0.2, mp=0.3, mm=0.4)
        assert pair.prob(Outcome.PLUS, Outcome.MINUS) == 0.2
        assert pair.prob(Outcome.ZERO, Outcome.ZERO) == 0.0

    def test_cell_order_matches_names(self):
        pair = PairProbabilities(pp=1.0, pm=0.0, mp=0.0, mm=0.0)
        assert pair.cells()[0] == 1.0
        assert len(core.CELL_NAMES) == len(core.CELL_OUTCOMES) == 9


class TestDistributionRule:
    """One rule for every distribution record: cells finite and >= 0, sum 1."""

    @pytest.mark.parametrize("build, message", [
        (lambda v: PairProbabilities(pp=v, pm=0.5, mp=0.5, mm=0.0), "cell pp"),
        (lambda v: PairProbabilities(pp=0.5, pm=0.5, mp=0.0, mm=0.0, zz=v), "cell zz"),
        (lambda v: SinglesProbabilities(p_plus=v, p_zero=0.5, p_minus=0.5), "p_plus"),
        (lambda v: SinglesProbabilities(p_plus=0.5, p_zero=0.5, p_minus=v), "p_minus"),
    ])
    @pytest.mark.parametrize("value", [-1e-13, -1e-300, math.nan, math.inf, -math.inf])
    def test_cell_outside_rule_rejected_with_text(self, build, message, value):
        with pytest.raises(ValidationError) as info:
            build(value)
        assert str(info.value) == f"{message} must be finite and >= 0, got {value!r}"

    @pytest.mark.parametrize("build, message", [
        (lambda: PairProbabilities(pp=0.5, pm=0.5, mp=0.5, mm=0.0), "cells sum to 1.5, expected 1"),
        (lambda: SinglesProbabilities(p_plus=0.5, p_zero=0.0, p_minus=0.25),
         "singles sum to 0.75, expected 1"),
    ])
    def test_sum_message_is_unchanged(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_tiny_negative_cell_rejected_before_sampling(self):
        # Rejected here as a ValidationError, before numpy's multinomial
        # could see the negative cell and raise a bare ValueError.
        with pytest.raises(ValidationError, match="cell pp must be finite and >= 0, got -1e-13"):
            PairProbabilities(pp=-1e-13, pm=0.5, mp=0.5 + 1e-13, mm=0.0)

    def test_cell_above_one_within_sum_tolerance_marginalizes(self):
        pair = PairProbabilities(pp=1.0 + 5e-10, pm=0.0, mp=0.0, mm=0.0)
        side1, side2 = core.marginals(pair)
        assert side1.p_plus == side2.p_plus == 1.0 + 5e-10

    def test_sum_tolerance_boundary(self):
        # Sums just inside SUM_TOL pass, just outside fail.
        core.require_distribution("cells", ("x", "y"), (0.5, 0.5 + 0.9 * core.SUM_TOL))
        with pytest.raises(ValidationError, match="cells sum to"):
            core.require_distribution("cells", ("x", "y"), (0.5, 0.5 + 1.1 * core.SUM_TOL))


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

    @pytest.mark.parametrize("field", DetectionRates._fields)
    @pytest.mark.parametrize("value", [-1e-13, -5e-324, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_field_is_named(self, field, value):
        # No CELL_TOL slack on nonnegativity: the error names the field as given.
        fields = dict(zip(DetectionRates._fields, (0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5, 0.5)))
        fields[field] = value
        with pytest.raises(ValidationError) as info:
            DetectionRates(**fields)
        assert str(info.value) == f"{field} must be finite and >= 0, got {value!r}"

    def test_partner_missed_cells(self):
        rates = DetectionRates(0.1, 0.2, 0.05, 0.15, 0.5, 0.25, 0.25, 0.5)
        assert rates.partner_missed() == {
            "pz": 0.5 - (0.1 + 0.2),
            "zp": 0.25 - (0.1 + 0.05),
            "mz": 0.25 - (0.05 + 0.15),
            "zm": 0.5 - (0.2 + 0.15),
        }
        assert list(rates.partner_missed()) == [n for n in core.CELL_NAMES if n.count("z") == 1]

    def test_partner_missed_cell_may_reach_minus_cell_tol(self):
        # pz = zp = 0 - 1e-12 exactly: inside the slack; one ulp more is not.
        DetectionRates(core.CELL_TOL, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValidationError, match=r"^partner-missed cell pz is -1.0000000000000002e-12"):
            DetectionRates(_above(core.CELL_TOL), 0, 0, 0, 0, 0, 0, 0)

    def test_the_check_and_the_completion_agree(self):
        # d_pp + d_pm rounds to d_plus_1 + CELL_TOL, so comparing sums passed it,
        # while the completion cell pz = d_plus_1 - (d_pp + d_pm) is below -CELL_TOL.
        x = 0.050000000000500006
        with pytest.raises(ValidationError, match=r"^partner-missed cell pz is -1\.00000"):
            DetectionRates(x, x, 0, 0, 0.1, 0, 0.5, 0.5)

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


def _above(x):
    return math.nextafter(x, math.inf)


def _below(x):
    return math.nextafter(x, -math.inf)


QUAD = SettingsQuad.of(0.0, 120.0, 240.0, 240.0)
IDEAL = qm.IdealSource()
NAN = math.nan
PAIRS = "[1, 1099511627776]"
STEP = "[0.703125, 45.0]"

RANGE_SITES = {
    "chunk_counts": montecarlo.chunk_counts,
    "RunPlan": lambda n: montecarlo.RunPlan(QUAD, n, 0, IDEAL),
    "lhs_planes": lambda step: optimizer.lhs_planes("ternary", IDEAL, step),
    "grid_scan": lambda rounds: optimizer.grid_scan("ternary", IDEAL, 45.0, rounds),
    "eta": lambda eta: qm.CascadeGeometry(eta, 30.0),
    "phi_deg": lambda phi: qm.CascadeGeometry(0.5, phi),
    "f_override": lambda f: qm.CascadeGeometry(0.5, 30.0, f),
    "solid_angle": qm.solid_angle,
    "angular_correlation": qm.angular_correlation,
    "depolarization_factor": qm.depolarization_factor,
}


class TestRangeRule:
    """Every bounded library input goes through core.require_in_range: the
    same bracket, wording and NaN rejection at each site."""

    @pytest.mark.parametrize("site, value, message", [
        ("chunk_counts", 0, f"emission count must be in {PAIRS}, got 0"),
        ("chunk_counts", -5, f"emission count must be in {PAIRS}, got -5"),
        ("chunk_counts", 2**40 + 1, f"emission count must be in {PAIRS}, got 1099511627777"),
        ("chunk_counts", NAN, f"emission count must be in {PAIRS}, got nan"),
        ("RunPlan", 0, f"pairs_per_setting must be in {PAIRS}, got 0"),
        ("RunPlan", 2**40 + 1, f"pairs_per_setting must be in {PAIRS}, got 1099511627777"),
        ("RunPlan", NAN, f"pairs_per_setting must be in {PAIRS}, got nan"),
        ("lhs_planes", _below(optimizer.MIN_SURFACE_STEP_DEG),
         f"step_deg must be in {STEP}, got 0.7031249999999999"),
        ("lhs_planes", _above(45.0), f"step_deg must be in {STEP}, got 45.00000000000001"),
        ("lhs_planes", NAN, f"step_deg must be in {STEP}, got nan"),
        ("grid_scan", -1, "refine_rounds must be in [0, 64], got -1"),
        ("grid_scan", 65, "refine_rounds must be in [0, 64], got 65"),
        ("grid_scan", NAN, "refine_rounds must be in [0, 64], got nan"),
        ("eta", 0.0, "eta must be in (0, 1], got 0.0"),
        ("eta", _above(1.0), "eta must be in (0, 1], got 1.0000000000000002"),
        ("eta", NAN, "eta must be in (0, 1], got nan"),
        ("phi_deg", 0.0, "phi_deg must be in (0, 90], got 0.0"),
        ("phi_deg", _above(90.0), "phi_deg must be in (0, 90], got 90.00000000000001"),
        ("phi_deg", NAN, "phi_deg must be in (0, 90], got nan"),
        ("f_override", _below(0.0), "f_override must be in [0, 1], got -5e-324"),
        ("f_override", _above(1.0), "f_override must be in [0, 1], got 1.0000000000000002"),
        ("f_override", NAN, "f_override must be in [0, 1], got nan"),
        ("solid_angle", 0.0, "half-aperture must be in (0, 180], got 0.0"),
        ("solid_angle", _above(180.0),
         "half-aperture must be in (0, 180], got 180.00000000000003"),
        ("solid_angle", NAN, "half-aperture must be in (0, 180], got nan"),
        ("angular_correlation", 0.0, "half-aperture must be in (0, 90], got 0.0"),
        ("angular_correlation", _above(90.0),
         "half-aperture must be in (0, 90], got 90.00000000000001"),
        ("angular_correlation", NAN, "half-aperture must be in (0, 90], got nan"),
        ("depolarization_factor", 0.0, "half-aperture must be in (0, 90], got 0.0"),
        ("depolarization_factor", _above(90.0),
         "half-aperture must be in (0, 90], got 90.00000000000001"),
        ("depolarization_factor", NAN, "half-aperture must be in (0, 90], got nan"),
    ])
    def test_outside_value_rejected_with_text(self, site, value, message):
        with pytest.raises(ValidationError) as info:
            RANGE_SITES[site](value)
        assert str(info.value) == message

    @pytest.mark.parametrize("site, value", [
        ("chunk_counts", 1),
        ("RunPlan", 1),
        ("RunPlan", 2**40),
        ("lhs_planes", optimizer.MIN_SURFACE_STEP_DEG),
        ("lhs_planes", 45.0),
        ("grid_scan", 0),
        ("grid_scan", 64),
        ("eta", 1.0),
        ("phi_deg", 90.0),
        ("f_override", 0.0),
        ("f_override", 1.0),
        ("solid_angle", 180.0),
        ("angular_correlation", 90.0),
        ("depolarization_factor", 90.0),
    ])
    def test_boundary_value_accepted(self, site, value):
        RANGE_SITES[site](value)

    def test_numpy_scalar_prints_as_plain_number(self):
        with pytest.raises(ValidationError, match=r"got 60\.0$"):
            optimizer.lhs_planes("ternary", IDEAL, np.float64(60.0))

    def test_checks_keep_their_order(self):
        with pytest.raises(ValidationError, match="cannot scan inequality"):
            optimizer.lhs_planes("chsh", IDEAL, NAN)
        with pytest.raises(ValidationError, match="step_deg"):
            optimizer.grid_scan("ternary", IDEAL, NAN, NAN)


_QUAD = SettingsQuad(0.0, 120.0, 240.0, 240.0)
_CASE = lhv.CaseBound(Outcome.PLUS, Outcome.MINUS, -1, -1)
_ASSIGNMENT = lhv.DeterministicAssignment(Outcome.PLUS, Outcome.ZERO, Outcome.MINUS, Outcome.PLUS)
_REPORT_ARGS = ("ternary", -1.5, -1.0, -0.5, True, 1.5)
_REPORT = inequalities.InequalityReport(*_REPORT_ARGS)

RECORD_ARGS = {
    # Every field positionally, in field order.
    PairProbabilities: (0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0),
    SinglesProbabilities: (0.5, 0.0, 0.5),
    DetectionRates: (0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5, 0.5),
    inequalities.InequalityReport: _REPORT_ARGS,
    SettingsQuad: (0.0, 120.0, 60.0, 60.0),
    inequalities.Form: (qm.IdealSource, False, inequalities.FORMS["chsh"].evaluate, None),
    lhv.DeterministicAssignment: (Outcome.PLUS, Outcome.ZERO, Outcome.MINUS, Outcome.PLUS),
    lhv.FourAxisModel: ((1.0 / 81.0,) * 81,),
    lhv.CaseBound: (Outcome.PLUS, Outcome.MINUS, -1, -1),
    lhv.TheoremReport: (-1, (_ASSIGNMENT,), (_CASE,), True),
    qm.CascadeGeometry: (0.2, 30.0, None),
    qm.IdealSource: (),
    qm.RealSource: (GEOM_F1,),
    montecarlo.CoincidenceCounters: (10, 1, 1, 1, 1, 1, 1, 1, 1, 2),
    montecarlo.LhvSource: (lhv.FourAxisModel.uniform(),),
    montecarlo.RunPlan: (_QUAD, 1000, 7, qm.IdealSource()),
    montecarlo.EstimatedReport: (_REPORT, 0.1, 5.0),
    optimizer.ScanResult: (_QUAD, -1.5, 1.5, None),
}
WITH_FIELDS = [cls for cls, args in RECORD_ARGS.items() if args]


def _package_records(base=core.Record):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("belltest."):
            yield cls
        yield from _package_records(cls)


def _name(cls):
    return cls.__name__


class TestRecordContract:
    """Every core.Record in the package keeps the frozen-record contract."""

    def test_every_package_record_is_covered(self):
        assert set(_package_records()) == set(RECORD_ARGS)

    @pytest.mark.parametrize("cls", RECORD_ARGS, ids=_name)
    def test_equality_and_hash_follow_the_field_tuple(self, cls):
        args = RECORD_ARGS[cls]
        record = cls(*args)
        assert record._values() == args and len(cls._fields) == len(args)
        assert record == cls(*args) and not record != cls(*args)
        assert hash(record) == hash(cls(*args)) == hash(args)
        assert cls(**dict(zip(cls._fields, args))) == record
        assert cls(*args[:1], **dict(zip(cls._fields[1:], args[1:]))) == record
        assert list(record._asdict().items()) == list(zip(cls._fields, args))

    @pytest.mark.parametrize("cls", RECORD_ARGS, ids=_name)
    def test_never_equals_a_tuple_or_another_class(self, cls):
        args = RECORD_ARGS[cls]
        record = cls(*args)
        twin = type(f"Twin{cls.__name__}", (cls,), {"__module__": __name__})(*args)
        assert twin._values() == args
        for other in (args, twin, qm.IdealSource() if cls is not qm.IdealSource else _QUAD):
            assert record != other and not record == other
            assert record.__eq__(other) is NotImplemented

    @pytest.mark.parametrize("cls", RECORD_ARGS, ids=_name)
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = cls(*RECORD_ARGS[cls])
        for name in (*cls._fields, "not_a_field"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert record._values() == RECORD_ARGS[cls]

    @pytest.mark.parametrize("cls", WITH_FIELDS, ids=_name)
    def test_bad_arguments_raise_type_error(self, cls):
        args = RECORD_ARGS[cls]
        first = cls._fields[0]
        with pytest.raises(TypeError, match=f"missing required arguments: '{first}'"):
            cls(**dict(zip(cls._fields[1:], args[1:])))
        with pytest.raises(TypeError, match=f"takes {len(args)} arguments but {len(args) + 1} were given"):
            cls(*args, 0)
        with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
            cls(*args, not_a_field=0)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*args, **{first: args[0]})

    def test_defaults(self):
        assert PairProbabilities(0.25, 0.25, 0.25, 0.25).cells()[4:] == (0.0,) * 5
        assert qm.CascadeGeometry(0.2, 30.0).f_override is None
        assert qm.CascadeGeometry(eta=0.2, phi_deg=30.0) == qm.CascadeGeometry(0.2, 30.0, None)
        assert optimizer.ScanResult(_QUAD, -1.5, 1.5).surface is None
        assert montecarlo.CoincidenceCounters(0).cells() == (0,) * 9

    @pytest.mark.parametrize("cls, kind", [
        (qm.IdealSource, "qm-ideal"), (qm.RealSource, "qm-real"), (montecarlo.LhvSource, "lhv"),
    ], ids=["IdealSource", "RealSource", "LhvSource"])
    def test_source_kind_is_a_class_constant_not_a_field(self, cls, kind):
        assert "kind" not in cls._fields
        assert cls.kind == cls(*RECORD_ARGS[cls]).kind == kind

    def test_field_order_is_the_cell_order(self):
        assert PairProbabilities._fields == core.CELL_NAMES
        assert montecarlo.CoincidenceCounters._fields == ("n_emitted", *core.CELL_NAMES)
        for cls, accessor, part in (
            (PairProbabilities, "cells", slice(None)),
            (montecarlo.CoincidenceCounters, "cells", slice(1, None)),
            (DetectionRates, "doubles", slice(4)),
            (SettingsQuad, "axes_degrees", slice(None)),
        ):
            record = cls(*RECORD_ARGS[cls])
            assert getattr(record, accessor)() == record._values()[part] == RECORD_ARGS[cls][part]

    def test_reprs_are_pinned(self):
        # Strings taken from the frozen-dataclass records these replace.
        assert repr(PairProbabilities(0.1, 0.2, 0.3, 0.4)) == (
            "PairProbabilities(pp=0.1, pm=0.2, mp=0.3, mm=0.4, pz=0.0, zp=0.0, mz=0.0, zm=0.0, zz=0.0)"
        )
        assert repr(SettingsQuad(-30, 400, 12.25, 179.99)) == (
            "SettingsQuad(a=150.0, b=40.0, a_prime=12.25, b_prime=179.99)"
        )
        assert repr(qm.CascadeGeometry(eta=0.37, phi_deg=41.3)) == (
            "CascadeGeometry(eta=0.37, phi_deg=41.3, f_override=None)"
        )

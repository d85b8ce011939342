"""Property tests: invariances the closed forms and the local bound must keep
for every input, not only at the hand-picked points of the other tests."""

import contextlib
import io
import json
import math
import os
import tempfile
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from belltest import cli, core, lhv, optimizer, qm  # noqa: E402
from belltest.core import CELL_NAMES, PAIRS, SUM_TOL, normalize_degrees  # noqa: E402
from belltest.inequalities import (  # noqa: E402
    FORMS,
    SettingsQuad,
    detection_inequality,
    detection_inequality_symmetric,
    quad_from_differences,
)
from belltest.montecarlo import (  # noqa: E402
    MAX_PAIRS_PER_SETTING,
    CoincidenceCounters,
    evaluate_symmetric_detection,
)
from test_optimizer import _numpy_planes  # noqa: E402

angles = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)
geometries = st.builds(
    qm.CascadeGeometry,
    eta=st.floats(min_value=0.01, max_value=1.0),
    phi_deg=st.floats(min_value=1.0, max_value=90.0),
    f_override=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
)
signs = st.sampled_from((1.0, -1.0))


@st.composite
def quads_for(draw, form):
    """Four axes; for a symmetric form, three cross pairs at one difference."""
    a = draw(angles)
    if not form.symmetric:
        return (a, draw(angles), draw(angles), draw(angles))
    d = draw(angles)
    b = a + d
    return (a, b, b + draw(signs) * d, a + draw(signs) * d)


@pytest.mark.parametrize("name", list(FORMS))
@settings(max_examples=200, deadline=None)
@given(data=st.data(), theta=angles, geom=geometries)
def test_rigid_rotation_keeps_lhs(name, data, theta, geom):
    form = FORMS[name]
    source = qm.IdealSource() if form.source is qm.IdealSource else qm.RealSource(geom)
    axes = data.draw(quads_for(form))
    lhs = form.evaluate(SettingsQuad.of(*axes), source).lhs
    rotated = form.evaluate(SettingsQuad.of(*(x + theta for x in axes)), source).lhs
    assert rotated == pytest.approx(lhs, abs=1e-9)


@pytest.mark.parametrize("name", ["ternary", "detection"])
@settings(max_examples=200, deadline=None)
@given(axes=st.tuples(angles, angles, angles, angles), theta=angles, geom=geometries)
def test_scan_objective_ignores_a_common_rotation(name, axes, theta, geom):
    # The invariance that lets a scan hold a = 0 in every phase.
    source = qm.IdealSource() if FORMS[name].source is qm.IdealSource else qm.RealSource(geom)
    lhs = optimizer.objective(SettingsQuad.of(*axes), name, source)
    rotated = optimizer.objective(SettingsQuad.of(*(x + theta for x in axes)), name, source)
    assert rotated == pytest.approx(lhs, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(axes=st.tuples(angles, angles, angles, angles))
def test_differences_follow_the_pair_axes(axes):
    # differences() keeps each label's sign: (a,b) and (a',b') subtract the
    # side-2 axis, (b',a) and (b,a') the side-1 axis.
    quad = SettingsQuad.of(*axes)
    assert quad.differences() == tuple(
        normalize_degrees(sign * (x1 - x2))
        for sign, (x1, x2) in zip((1.0, -1.0, -1.0, 1.0), quad.pair_axes())
    )


@settings(max_examples=200, deadline=None)
@given(
    axes=st.tuples(angles, angles, angles, angles),
    geom=geometries,
    scale=st.floats(min_value=1e-6, max_value=1e6),
)
def test_detection_forms_ignore_a_common_rate_scale(axes, geom, scale):
    rates = [qm.detection_rates(x, y, geom) for x, y in SettingsQuad.of(*axes).pair_axes()]
    scaled = [r.scaled(scale) for r in rates]

    def general(rs):
        return detection_inequality(
            *rs,
            singles_ap=(rs[3].d_plus_1, rs[3].d_minus_1),
            singles_bp=(rs[3].d_plus_2, rs[3].d_minus_2),
        ).lhs

    def symmetric(rs):
        cross, primed = rs[0], rs[3]
        return detection_inequality_symmetric(
            cross.d_pp - cross.d_pm - cross.d_mp + cross.d_mm,
            sum(cross.doubles()),
            primed.d_pp,
            primed.d_mm,
            sum(primed.doubles()),
            primed.d_plus_1,
            primed.d_minus_1,
            primed.d_plus_1 + primed.d_minus_1,
        ).lhs

    assert general(scaled) == pytest.approx(general(rates), abs=1e-9)
    assert symmetric(scaled) == pytest.approx(symmetric(rates), abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.floats(min_value=0.01, max_value=10.0),
)
def test_every_local_mixture_obeys_the_bound(seed, alpha):
    weights = np.random.default_rng(seed).dirichlet(np.full(81, alpha))
    model = lhv.FourAxisModel(tuple(float(w) for w in weights))
    assert lhv.mixture_functional(model) >= -1.0 - 1e-12


@settings(max_examples=300, deadline=None)
@given(
    support=st.dictionaries(
        st.integers(min_value=0, max_value=80), st.floats(min_value=1e-300, max_value=1.0),
        min_size=1,
    ),
    drift=st.floats(min_value=-0.9 * SUM_TOL, max_value=0.9 * SUM_TOL),
)
def test_every_accepted_model_marginalizes(support, drift):
    # Any weights FourAxisModel accepts, including sums up to 0.9 SUM_TOL
    # away from 1, give valid pair cells and valid singles at every pair.
    # A small support puts nearly all the mass in one cell of a pair.
    total = math.fsum(support.values())
    model = lhv.FourAxisModel(
        tuple(support.get(i, 0.0) / total * (1.0 + drift) for i in range(81))
    )
    for side1, side2 in PAIRS.values():
        core.marginals(lhv.pair_probabilities(model, side1, side2))


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=9, max_size=9).filter(
    lambda c: math.fsum(c) > 0.0
))
def test_marginals_are_the_row_and_column_sums(cells):
    total = math.fsum(cells)
    p = core.PairProbabilities(*(c / total for c in cells))
    side1, side2 = core.marginals(p)
    # Bit-exact against the hand-written row (side 1) and column (side 2) sums.
    assert (side1.p_plus, side1.p_zero, side1.p_minus) == (
        math.fsum((p.pp, p.pm, p.pz)), math.fsum((p.zp, p.zm, p.zz)), math.fsum((p.mp, p.mm, p.mz))
    )
    assert (side2.p_plus, side2.p_zero, side2.p_minus) == (
        math.fsum((p.pp, p.mp, p.zp)), math.fsum((p.pz, p.mz, p.zz)), math.fsum((p.pm, p.mm, p.zm))
    )


rates_cells = st.floats(min_value=0.0, max_value=0.3)
# A single's excess over its two coincidences, reaching past -CELL_TOL.
excess = st.one_of(
    st.floats(min_value=-3 * core.CELL_TOL, max_value=3 * core.CELL_TOL),
    st.floats(min_value=0.0, max_value=0.3),
)


@settings(max_examples=500, deadline=None)
@given(doubles=st.tuples(*[rates_cells] * 4), excesses=st.tuples(*[excess] * 4),
       scale=st.sampled_from((1.0, 3.0)))
def test_every_accepted_record_completes_unless_detected_mass_exceeds_1(doubles, excesses, scale):
    pp, pm, mp, mm = (d * scale for d in doubles)
    # Singles in field order: d_plus_1, d_minus_1, d_plus_2, d_minus_2.
    singles = (pp + pm, mp + mm, pp + mp, pm + mm)
    singles = tuple(max(s + e, 0.0) for s, e in zip(singles, excesses))
    try:
        rates = core.DetectionRates(pp, pm, mp, mm, *singles)
    except core.ValidationError:
        assume(False)
    # The detected cells the completion places: the doubles and the
    # partner-missed cells, each clamped at 0.
    mass = math.fsum((*rates.doubles(), *(max(v, 0.0) for v in rates.partner_missed().values())))
    if mass <= 1.0:
        dist = qm.complete_detection_rates(rates)
        assert dist.cells()[:4] == rates.doubles()
    elif mass > 1.0 + core.CELL_TOL:
        with pytest.raises(qm.InfeasibleModelError):
            qm.complete_detection_rates(rates)


@st.composite
def detection_records(draw):
    """A DetectionRates with a nonzero coincidence total and positive singles."""
    pp, pm, mp, mm = draw(st.tuples(*[rates_cells] * 4).filter(lambda d: math.fsum(d) > 0.0))
    extra = draw(st.tuples(*[st.floats(min_value=1e-6, max_value=0.3)] * 4))
    singles = (pp + pm, mp + mm, pp + mp, pm + mm)
    return core.DetectionRates(pp, pm, mp, mm, *(s + e for s, e in zip(singles, extra)))


def _correlation(rates):
    """A pair's normalized coincidence correlation E/T0."""
    return core.detection_expectation(rates) / core.coincidence_total(rates)


def _chsh_plus_one(correlations, negated=3):
    return math.fsum(-e if k == negated else e for k, e in enumerate(correlations)) + 1.0


@settings(max_examples=300, deadline=None)
@given(rates=st.tuples(*[detection_records()] * 4))
def test_detection_forms_are_chsh_plus_one(rates):
    e = [_correlation(r) for r in rates]
    cross, primed = rates[0], rates[3]
    general = detection_inequality(
        *rates,
        singles_ap=(primed.d_plus_1, primed.d_minus_1),
        singles_bp=(primed.d_plus_2, primed.d_minus_2),
    )
    assert abs(general.lhs - _chsh_plus_one(e)) <= 1e-12
    symmetric = detection_inequality_symmetric(
        core.detection_expectation(cross),
        core.coincidence_total(cross),
        primed.d_pp,
        primed.d_mm,
        core.coincidence_total(primed),
        primed.d_plus_1,
        primed.d_minus_1,
        primed.d_plus_1 + primed.d_minus_1,
    )
    assert abs(symmetric.lhs - (3.0 * e[0] - e[3] + 1.0)) <= 1e-12


def test_chsh_plus_one_pins_the_negated_slot():
    # The identity above would not hold with the negated slot on E3: at the
    # merged 120-degree quad with an undamped fringe the two differ by 3.
    geom = qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=1.0)
    quad = quad_from_differences(120.0, 120.0, 120.0, 0.0)
    rates = [qm.detection_rates(x, y, geom) for x, y in quad.pair_axes()]
    e = [_correlation(r) for r in rates]
    lhs = detection_inequality(*rates, singles_ap=(1.0, 1.0), singles_bp=(1.0, 1.0)).lhs
    assert abs(lhs - _chsh_plus_one(e)) <= 1e-12
    assert abs(lhs - _chsh_plus_one(e, negated=2)) > 0.1


singles_values = st.floats(min_value=0.0, max_value=1e300)
singles_pairs = st.tuples(singles_values, singles_values).filter(lambda s: s[0] + s[1] > 0.0)
_RATES = core.DetectionRates(0.1, 0.02, 0.03, 0.09, 0.2, 0.2, 0.2, 0.2)


@settings(max_examples=300, deadline=None)
@given(rates=st.tuples(*[detection_records()] * 4), ap=singles_pairs, bp=singles_pairs)
@example(rates=(_RATES,) * 4, ap=(3.0, 7.0), bp=(0.1, 0.2))
def test_detection_lhs_reads_no_singles(rates, ap, bp):
    # Each side's D+/t0 + D-/t0 is 1, so the singles are checked, then counted
    # as 2: any valid singles give the lhs of singles (1, 1) bit for bit.
    cross, primed = rates[0], rates[3]

    def lhs(singles_ap, singles_bp):
        general = detection_inequality(*rates, singles_ap=singles_ap, singles_bp=singles_bp)
        symmetric = detection_inequality_symmetric(
            core.detection_expectation(cross),
            core.coincidence_total(cross),
            primed.d_pp,
            primed.d_mm,
            core.coincidence_total(primed),
            *singles_ap,
            math.fsum(singles_ap),
        )
        return general.lhs, symmetric.lhs

    assert lhs(ap, bp) == lhs((1.0, 1.0), (1.0, 1.0))


# Cells of up to three merged setting pairs; 0 is drawn often, so like or
# unlike coincidences (or both at one setting) are often absent.
counts = st.one_of(st.just(0), st.integers(min_value=0, max_value=3 * MAX_PAIRS_PER_SETTING))
counters = st.lists(counts, min_size=9, max_size=9).filter(lambda c: any(c[:4])).map(
    lambda c: CoincidenceCounters(sum(c), **dict(zip(CELL_NAMES, c)))
)


@settings(max_examples=300, deadline=None)
@given(cross=counters, primed=counters)
def test_coincidences_at_both_settings_always_give_a_report(cross, primed):
    estimated = evaluate_symmetric_detection(cross, primed)
    assert estimated.std_error >= 0.0


def _coincidences(pp, pm, mp=0, mm=0):
    return CoincidenceCounters(pp + pm + mp + mm, pp, pm, mp, mm)


def _exact_std_error(cross, primed):
    """Square root of 36 L U / T^3 + 4 L U / T^3 in exact arithmetic, to 50 digits."""
    variance = Fraction(0)
    for weight, c in ((36, cross), (4, primed)):
        like, unlike = c.pp + c.mm, c.pm + c.mp
        variance += Fraction(weight * like * unlike, (like + unlike) ** 3)
    with localcontext() as context:
        context.prec = 50
        return (Decimal(variance.numerator) / variance.denominator).sqrt()


@settings(max_examples=500, deadline=None)
@given(cross=counters, primed=counters)
@example(cross=_coincidences(10, 0, 0, 7), primed=_coincidences(0, 4, 9))  # U = 0, then L = 0
@example(cross=_coincidences(0, 3), primed=_coincidences(5, 0))  # no variance at all
@example(
    cross=_coincidences(*(3 * MAX_PAIRS_PER_SETTING,) * 4),
    primed=_coincidences(3 * MAX_PAIRS_PER_SETTING, 1, 1, 3 * MAX_PAIRS_PER_SETTING - 1),
)
# Rounding 36.0 * L * U and T**3 apart puts this case 1.32 ulp off.
@example(cross=_coincidences(550051, 544823), primed=_coincidences(597690, 988))
def test_std_error_is_the_exact_first_order_error_within_one_ulp(cross, primed):
    std_error = evaluate_symmetric_detection(cross, primed).std_error
    exact = _exact_std_error(cross, primed)
    if exact == 0:
        assert std_error == 0.0
    else:
        assert abs(Decimal(std_error) - exact) <= Decimal(math.ulp(float(exact)))


def _like_unlike_total(c):
    like, unlike = c.pp + c.mm, c.pm + c.mp
    return like, unlike, like + unlike


@settings(max_examples=500, deadline=None)
@given(cross=counters, primed=counters)
# 11/3: three separately rounded terms summed to 3.666666666666667.
@example(cross=_coincidences(0, 0, 0, 1), primed=_coincidences(2, 0, 1))
@example(
    cross=_coincidences(*(3 * MAX_PAIRS_PER_SETTING,) * 4),
    primed=_coincidences(3 * MAX_PAIRS_PER_SETTING, 1, 1, 3 * MAX_PAIRS_PER_SETTING - 1),
)
def test_mc_lhs_is_the_exact_fraction_rounded_once(cross, primed):
    like_c, unlike_c, total_c = _like_unlike_total(cross)
    like_p, unlike_p, total_p = _like_unlike_total(primed)
    numerator = 3 * (like_c - unlike_c) * total_p - (like_p - unlike_p) * total_c + total_c * total_p
    exact = Fraction(numerator, total_c * total_p)
    # The same value as the ratio form 3 E/T - 2 L/T + 2, the singles counting as 2.
    assert exact == Fraction(3 * (like_c - unlike_c), total_c) - Fraction(2 * like_p, total_p) + 2
    assert evaluate_symmetric_detection(cross, primed).report.lhs == float(exact)


@settings(max_examples=500, deadline=None)
@given(cross=counters, primed=counters)
@example(cross=_coincidences(0, 0, 0, 1), primed=_coincidences(2, 0, 1))
def test_mc_lhs_agrees_with_the_symmetric_evaluator(cross, primed):
    # Both state CHSH + 1 with exact value x = 3 r - 2 q + 2, r = E/T in [-1, 1]
    # and q = L/T in [0, 1], so |x| <= 5. With u = 2**-53, the evaluator rounds r
    # and q (|error| <= u each), then 3.0 * r (<= 3u more, 6u in all; -2.0 * q is
    # exact, 2u), then its fsum (<= 5u): within 13u of x, plus u**2 terms. The
    # estimator rounds x once (<= 5u). So they differ by at most 18u < 20u.
    like_c, unlike_c, total_c = _like_unlike_total(cross)
    _, _, total_p = _like_unlike_total(primed)
    singles = (primed.pp + primed.pm + primed.pz, primed.mp + primed.mm + primed.mz)
    evaluator = detection_inequality_symmetric(
        like_c - unlike_c, total_c, primed.pp, primed.mm, total_p, *singles, sum(singles)
    ).lhs
    lhs = evaluate_symmetric_detection(cross, primed).report.lhs
    assert abs(lhs - evaluator) <= 20 * 2.0**-53


def _numpy_plane_argmin(scale, offset, step):
    """(b, a') at numpy's first argmin of the a = 0 plane, built by numpy broadcasting."""
    axes = np.arange(0.0, 180.0, step)
    plane = next(_numpy_planes(scale, offset, step))
    j, k = divmod(int(np.argmin(plane)), axes.size)
    return float(axes[j]), float(axes[k])


SCAN_F = st.one_of(
    st.sampled_from((0.0, 5e-324, 1e-300, 1e-17, 1.0 / math.sqrt(2.0), 0.8, 1.0)),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=150, deadline=None)
@given(
    step=st.floats(min_value=optimizer.MIN_STEP_DEG, max_value=optimizer.MAX_STEP_DEG),
    f=SCAN_F,
)
@example(step=optimizer.MIN_STEP_DEG, f=0.0)
@example(step=optimizer.MIN_STEP_DEG, f=5e-324)
@example(step=optimizer.MIN_STEP_DEG, f=1.0)
@example(step=0.25, f=1.0 / math.sqrt(2.0))
@example(step=0.7, f=0.8)
def test_coarse_optimum_is_numpys_first_argmin_of_the_plane(step, f):
    # f is the detection form's fringe factor F: its plane is (F, 1 - F), and
    # F = 1 gives the ternary form's (1, 0) scale.
    source = qm.RealSource(qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=f))
    scale, offset = FORMS["detection"].plane(source)
    expected = _numpy_plane_argmin(scale, offset, step)
    assert optimizer._coarse_optimum(scale, offset, step) == expected


@settings(max_examples=100, deadline=None)
@given(geom=geometries)
def test_scan_planes_never_scale_below_zero(geom):
    # _coarse_optimum's row bound holds only for scale >= 0.
    for name in optimizer.INEQUALITIES:
        form = FORMS[name]
        source = qm.IdealSource() if form.source is qm.IdealSource else qm.RealSource(geom)
        assert form.plane(source)[0] >= 0.0


# Command-line robustness: argvs that mix every subcommand's flags with
# hostile values. An in-range --pairs is at most 1e5, and a --surface always
# comes with a --step of at least 3 or one that is rejected, so each argv
# runs in milliseconds.
FLOAT_TEXTS = st.one_of(
    st.sampled_from(("nan", "-nan", "inf", "-inf", "1e400", "-1e400", "5e-324", "-5e-324",
                     "0", "-0", "1", "-1", "0.5", "30", "90", "1e308", "", "x")),
    st.floats().map(repr),
)
INT_TEXTS = st.one_of(
    st.integers(-3, 100).map(str),
    st.sampled_from(("1099511627777", str(10**30), "1e5", "nan", "", "x")),
)
PATH_TEXTS = st.sampled_from(("out.csv", "d", ".", "missing/out.csv", "bad.lhv", ""))
ARGV_FLAGS = {
    "--ineq": st.sampled_from((*FORMS, "nope", "")),
    "--source": st.sampled_from(("qm-ideal", "qm-real", "lhv", "x")),
    "--angles": st.one_of(
        st.sampled_from(("", ",", "1,2", "-30,400,12.25,179.99", "1e400,0,0,0", "a,b,c,d")),
        st.lists(FLOAT_TEXTS, min_size=1, max_size=5).map(",".join),
    ),
    "--diffs": st.one_of(
        st.sampled_from(("", ",", "120,120,120", "120,120,120,0", "1e308,120,120", "1,2,3,4,5")),
        st.lists(FLOAT_TEXTS, min_size=1, max_size=5).map(",".join),
    ),
    "--eta": FLOAT_TEXTS,
    "--phi": FLOAT_TEXTS,
    "--force-F": FLOAT_TEXTS,
    "--format": st.sampled_from(("json", "csv", "xml")),
    "--pairs": st.one_of(
        st.integers(-3, 10**5).map(str),
        st.integers(min_value=MAX_PAIRS_PER_SETTING + 1).map(str),
        st.sampled_from(("1e5", "nan", "", "x")),
    ),
    "--seed": st.one_of(INT_TEXTS, st.integers().map(str)),
    "--model": st.sampled_from(("model.lhv", "bad.lhv", "missing.lhv", "d", "")),
    "--workers": INT_TEXTS,
    "--counters": PATH_TEXTS,
    "--manifest": PATH_TEXTS,
    "--step": st.one_of(
        FLOAT_TEXTS, st.floats(min_value=optimizer.MIN_STEP_DEG, max_value=45.0).map(repr)
    ),
    "--rounds": INT_TEXTS,
    "--surface": PATH_TEXTS,
}
SURFACE_STEP_TEXTS = st.sampled_from(
    ("3", "7", "15", "45", "0.5", "60", "-1", "nan", "inf", "1e400", "5e-324", "", "x")
)


GEOMETRY_FLAGS = ("--source", "--eta", "--phi", "--force-F", "--format")
OWN_FLAGS = {
    "eval": ("--ineq", "--angles", "--diffs", *GEOMETRY_FLAGS),
    "mc": ("--pairs", "--seed", "--model", "--workers", "--angles", "--diffs", "--counters",
           "--manifest", *GEOMETRY_FLAGS),
    "scan": ("--ineq", "--step", "--rounds", "--surface", *GEOMETRY_FLAGS),
}


@st.composite
def argvs(draw):
    """A subcommand (or none, or an unknown one) and up to six distinct
    flags, mostly its own, with one of any subcommand's a quarter of the time."""
    argv = draw(st.sampled_from(([], ["verify-theorem"], ["eval"], ["mc"], ["scan"], ["nope"])))
    own = OWN_FLAGS.get(argv[0] if argv else "", ())
    flags = draw(st.lists(st.sampled_from(own or sorted(ARGV_FLAGS)), max_size=6, unique=True))
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(sorted(set(ARGV_FLAGS) - set(flags)))))
    if "--surface" in flags and "--step" not in flags:
        flags.append("--step")  # the default step of 1 would write 180^3 rows
    for flag in flags:
        surface_step = flag == "--step" and "--surface" in flags
        argv += [flag, draw(SURFACE_STEP_TEXTS if surface_step else ARGV_FLAGS[flag])]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
@example(argv=["scan", "--step", "3", "--surface", "d"])
@example(argv=["mc", "--pairs", "1000", "--source", "lhv", "--model", "bad.lhv"])
@example(argv=["eval", "--ineq", "detection", "--source", "qm-real", "--eta", "5e-324"])
def test_any_argv_exits_0_or_with_one_json_error(argv):
    # Each argv runs in a fresh directory that holds a valid model file, a
    # model with a negative weight and a directory d.
    home = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            lhv.save_model(lhv.FourAxisModel.uniform(), "model.lhv")
            with open("bad.lhv", "w", encoding="utf-8") as handle:
                handle.write("++++ -0.5\n")
            os.mkdir("d")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(home)
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert code == 1, (argv, code, err.getvalue())
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0]), (argv, lines)

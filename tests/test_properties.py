"""Property tests: invariances the closed forms and the local bound must keep
for every input, not only at the hand-picked points of the other tests."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from belltest import lhv, optimizer, qm  # noqa: E402
from belltest.core import normalize_degrees  # noqa: E402
from belltest.inequalities import (  # noqa: E402
    FORMS,
    SettingsQuad,
    detection_inequality,
    detection_inequality_symmetric,
)

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

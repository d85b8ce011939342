"""Quantum predictions for cascade photon pairs (J=1 to J=0).

Two regimes are covered in closed form. With ideal polarizers and
detectors every pair is analyzed and the joint outcome probabilities
depend only on the angle between the polarizer axes. In a real
experiment finite detector apertures and quantum efficiency shrink the
measurable rates: singles and coincidences pick up aperture factors (a
solid-angle fraction, an angular correlation enhancement, and a
depolarization factor that damps the interference fringe). The detector
axes are pinned back to back, the only configuration for which the
aperture factors take these closed forms.
"""

from __future__ import annotations

import math
from typing import ClassVar

from .core import (
    CELL_TOL,
    BellTestError,
    DetectionRates,
    PairProbabilities,
    Record,
    cos_double_angle,
    normalize_degrees,
    require_in_range,
)


class InfeasibleModelError(BellTestError):
    """Detection rates cannot be completed to a full event distribution."""


def solid_angle(phi_deg: float) -> float:
    """Solid angle (steradians) subtended by a cone of half-aperture phi."""
    require_in_range("half-aperture", phi_deg, 0, 180, low_open=True)
    return 2.0 * math.pi * (1.0 - math.cos(math.radians(phi_deg)))


def angular_correlation(phi_deg: float) -> float:
    """Coincidence enhancement for back-to-back detectors of half-aperture phi.

    Equals 1.5 in the pointlike-detector limit and falls to 1 at a full
    hemisphere.
    """
    require_in_range("half-aperture", phi_deg, 0, 90, low_open=True)
    c = math.cos(math.radians(phi_deg))
    return 1.0 + 0.125 * c * c * (1.0 + c) ** 2


def depolarization_factor(phi_deg: float) -> float:
    """Fringe attenuation for back-to-back detectors of half-aperture phi.

    Very close to 1 for realistic apertures; small-aperture form. F > 0.8
    means phi < 63.1 degrees and F > 1/sqrt(2) means phi < 70.3 degrees,
    both outside the small apertures this form is meant for.
    """
    require_in_range("half-aperture", phi_deg, 0, 90, low_open=True)
    c = math.cos(math.radians(phi_deg))
    return 1.0 - (2.0 / 3.0) * (1.0 - c) ** 2


class CascadeGeometry(Record):
    """Detector efficiency and aperture for a real cascade experiment.

    eta is the detector quantum efficiency, phi_deg the half-aperture of
    each detector cone. The detectors face each other across the source;
    that back-to-back axis is fixed, not a parameter. f_override, when
    set, replaces the aperture-derived depolarization factor (forcing 1
    reproduces the undamped fringe).
    """

    eta: float
    phi_deg: float
    f_override: float | None = None

    def __post_init__(self) -> None:
        require_in_range("eta", self.eta, 0, 1, low_open=True)
        require_in_range("phi_deg", self.phi_deg, 0, 90, low_open=True)
        # builtin floats, so the run manifest echoes eta=0.2, never np.float64(0.2)
        fields = self.__dict__
        fields["eta"], fields["phi_deg"] = float(self.eta), float(self.phi_deg)
        if self.f_override is not None:
            require_in_range("f_override", self.f_override, 0, 1)
            fields["f_override"] = float(self.f_override)

    @property
    def f_factor(self) -> float:
        """Effective depolarization factor (override or aperture formula)."""
        if self.f_override is not None:
            return self.f_override
        return depolarization_factor(self.phi_deg)

    @property
    def single_rate(self) -> float:
        """Per-emission single transmission-and-detection probability."""
        return self.eta * solid_angle(self.phi_deg) / (8.0 * math.pi)


def ideal_pair_probabilities(theta_diff_deg: float) -> PairProbabilities:
    """Joint outcome distribution for ideal polarizers at relative angle theta.

    Like outcomes carry cos^2(theta)/2 each, unlike outcomes
    sin^2(theta)/2, nothing is absorbed, and the correlation is
    cos(2 theta).
    """
    theta = normalize_degrees(theta_diff_deg)  # canonical branch, exact fold
    c = math.cos(math.radians(theta))
    s = math.sin(math.radians(theta))
    like = 0.5 * c * c
    unlike = 0.5 * s * s
    # all nine cells positional, so Record skips its keyword binding
    return PairProbabilities(like, unlike, unlike, like, 0.0, 0.0, 0.0, 0.0, 0.0)


def detection_rates(a: float, b: float, geom: CascadeGeometry) -> DetectionRates:
    """Measurable singles and coincidence rates at polarizer axes a and b.

    Each single is eta * Omega / (8 pi). Coincidences share the factor
    (eta * Omega / (8 pi))^2 * g and split into like cells carrying
    1 + F cos 2(a - b) and unlike cells carrying 1 - F cos 2(a - b), so
    they depend on the axes only through their difference.
    """
    single = geom.single_rate
    shared = single * single * angular_correlation(geom.phi_deg)
    # Normalize each axis, then their difference, so rates at rigidly
    # rotated axes are identical to the last bit.
    diff = normalize_degrees(normalize_degrees(a) - normalize_degrees(b))
    fringe = geom.f_factor * cos_double_angle(diff)
    like = shared * (1.0 + fringe)
    unlike = shared * (1.0 - fringe)
    return DetectionRates(like, unlike, unlike, like, single, single, single, single)


def predict_coincidence_total(geom: CascadeGeometry) -> float:
    """Closed-form coincidence total: eta^2 (Omega / 4 pi)^2 g."""
    fraction = solid_angle(geom.phi_deg) / (4.0 * math.pi)
    return geom.eta**2 * fraction**2 * angular_correlation(geom.phi_deg)


def predict_singles_total(geom: CascadeGeometry) -> float:
    """Closed-form singles total per side: eta Omega / (4 pi)."""
    return geom.eta * solid_angle(geom.phi_deg) / (4.0 * math.pi)


def event_distribution(a: float, b: float, geom: CascadeGeometry) -> PairProbabilities:
    """Per-emission sample space completing the measurable rates.

    The four detected-coincidence cells equal the closed-form doubles.
    The detected-but-partner-missed cells are fixed by requiring each
    side's detected mass to equal its singles rate, and the remainder
    lands in the both-missed cell. This is the unique completion
    consistent with the closed-form marginals; it is a modeling choice
    for simulation, not itself a measurable prediction.
    """
    rates = detection_rates(a, b, geom)
    return complete_detection_rates(rates)


def complete_detection_rates(rates: DetectionRates) -> PairProbabilities:
    """Extend detected rates to nine cells; partner-missed cells are clamped at 0."""
    completions = {name: max(value, 0.0) for name, value in rates.partner_missed().items()}
    partial = math.fsum((*rates.doubles(), *completions.values()))
    missed_both = 1.0 - partial
    if missed_both < -CELL_TOL:
        raise InfeasibleModelError(
            f"detected mass exceeds 1 ({partial!r}); "
            "rates are inconsistent with a per-emission sample space"
        )
    return PairProbabilities(*rates.doubles(), **completions, zz=max(missed_both, 0.0))


class IdealSource(Record):
    """Simulation source: ideal polarizers and detectors."""

    kind: ClassVar[str] = "qm-ideal"


class RealSource(Record):
    """Simulation source: finite-aperture detection model."""

    kind: ClassVar[str] = "qm-real"

    geometry: CascadeGeometry

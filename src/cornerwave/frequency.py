"""Almgren-type frequency quotient with the degenerate-weight perturbation.

For a flat-candidate configuration (u vanishing on the non-fluid side) the
frequency function is H(r) = D(r) - V(r) with

    D(r) = r * integral_{B_r} |grad u|^2 / integral_{dB_r} u^2,
    V(r) = (V1(r) + V2(r)),
    V1(r) = r * integral_{B_r} limit_weight * (1 - chi)           / ring,
    V2(r) = [ r * integral_{B_r} (limit_weight - weight) * chi
              + r^{1 - 2 kappa} * integral_0^r h(t) dt ]          / ring,

where ring = integral_{dB_r} u^2, limit_weight freezes the non-degenerate
factor at the stagnation point (|x0|^alpha (sy y)_+^beta for type 1, the
mirror for type 2, the full |x|^alpha |y|^beta for type 3, which also has
no remainder), and h is the monotonicity remainder.  V1 and V2 are stored
already divided by the ring integral so that V = V1 + V2 and H = D - V
hold elementwise by construction.

On a homogeneous harmonic field of degree N supported in a cone and
vanishing on its edges, D(r) = N at every radius.  Flat candidates obey
the lower bound H(r) >= beta/2 + 1, which ``check_frequency_bound``
verifies radius by radius.  The remainder term enters V2 exactly as
printed above.  Its share r^{1 - 2 kappa} * integral_0^r h / ring is the
Weiss profile's ``remainder_integral / J1`` from the same radial sweep.
The module does no file I/O; ``pipeline`` writes the profile as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DegenerateDenominator
from .weiss import RadialSweep, cumulative_remainder


@dataclass
class FrequencyProfile:
    radii: np.ndarray
    D: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    V: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        n = len(self.radii)
        for name in ("D", "V1", "V2", "V", "H"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"profile column {name} has wrong length")


def frequency_profile(sweep: RadialSweep) -> FrequencyProfile:
    radii, k = sweep.radii, sweep.kappa
    h_cum = cumulative_remainder(radii, sweep.remainder)
    D = np.empty_like(radii)
    V1 = np.empty_like(radii)
    V2 = np.empty_like(radii)
    for i, r in enumerate(radii):
        ring = sweep.ring[i]
        if ring <= 1e-300:
            raise DegenerateDenominator(r, ring)
        D[i] = r * sweep.dirichlet[i] / ring
        V1[i] = r * sweep.free_weight[i] / ring
        V2[i] = (r * sweep.weight_gap[i] + r ** (1.0 - 2.0 * k) * h_cum[i]) / ring
    V = V1 + V2
    return FrequencyProfile(radii=radii, D=D, V1=V1, V2=V2, V=V, H=D - V)


@dataclass
class FrequencyBoundReport:
    passed: bool
    threshold: float
    worst_deficit: float
    violating_radii: list[float]


def check_frequency_bound(profile: FrequencyProfile, beta: float,
                          tol: float) -> FrequencyBoundReport:
    """Flag radii where H < beta/2 + 1 - tol."""
    threshold = beta / 2.0 + 1.0
    deficit = threshold - profile.H
    bad = deficit > tol
    return FrequencyBoundReport(
        passed=not bool(np.any(bad)),
        threshold=threshold,
        worst_deficit=float(np.max(deficit)) if len(deficit) else 0.0,
        violating_radii=[float(r) for r in profile.radii[bad]])

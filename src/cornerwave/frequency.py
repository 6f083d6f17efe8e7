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
printed above; ``include_remainder_term=False`` drops it so its size can
be measured separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import (DegenerateDenominator, ProblemSpec, ScalarField,
                     StagnationPoint, _fmt)
from .quadrature import DiskStencil, circle_integral_u2
from .weiss import (_analysis_arrays, _check_radius, _remainder_from_arrays,
                    cumulative_remainder)


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

    def to_csv(self, path) -> None:
        lines = ["r,D,V1,V2,V,H"]
        for k in range(len(self.radii)):
            lines.append(",".join(_fmt(v) for v in (
                self.radii[k], self.D[k], self.V1[k], self.V2[k],
                self.V[k], self.H[k])))
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _limit_weight_nodes(spec: ProblemSpec, grid) -> np.ndarray:
    """Weight with the non-degenerate factor frozen at the stagnation point:
    C * frozen factor * degenerate monomial."""
    X, Y = grid.mesh()
    m = spec.model
    return m.monomial(X, Y, scale=spec.weight_constant * m.frozen)


def frequency_profile(spec: ProblemSpec, u: ScalarField, sp: StagnationPoint,
                      radii, include_remainder_term: bool = True) -> FrequencyProfile:
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    for r in (radii[0], radii[-1]):
        _check_radius(sp, u.grid, r)
    gradsq, w, chi, rem = _analysis_arrays(spec, u)
    lw = _limit_weight_nodes(spec, u.grid)
    k = sp.kappa

    h_vals = np.array([_remainder_from_arrays(spec, u, sp, r, rem) for r in radii])
    h_cum = cumulative_remainder(radii, h_vals) if include_remainder_term \
        else np.zeros_like(radii)

    D = np.empty_like(radii)
    V1 = np.empty_like(radii)
    V2 = np.empty_like(radii)
    for i, r in enumerate(radii):
        ring = circle_integral_u2(u.values, u.grid, sp.location, r)
        if ring <= 1e-300:
            raise DegenerateDenominator(r, ring)
        disk = DiskStencil(u.grid, sp.location, r)
        D[i] = r * disk.integrate(gradsq) / ring
        V1[i] = r * disk.integrate(lw * (1.0 - chi)) / ring
        V2[i] = (r * disk.integrate((lw - w) * chi)
                 + r ** (1.0 - 2.0 * k) * h_cum[i]) / ring
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

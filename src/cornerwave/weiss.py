"""Adjusted boundary energies M(r), their remainder terms, and the
monotonicity checks that force blow-up limits to be homogeneous.

For a stagnation point with rescaling exponent kappa (< 0),

    M(r) = r^{2 kappa} * integral over B_r of (|grad u|^2 + weight * chi)
         + kappa * r^{2 kappa - 1} * integral over dB_r of u^2,

and M(r) - integral_0^r h(s) ds is non-decreasing in r, where the
remainder h accounts for the r-dependence of the frozen non-degenerate
weight factor:

    type 1:  h(r) = r^{2k-1} * integral of alpha*sx*(x - x0)*(sx x)_+^{alpha-1} (sy y)_+^beta chi
    type 2:  h(r) = r^{2k-1} * integral of beta*sy*(y - y0)*(sx x)_+^alpha (sy y)_+^{beta-1} chi
    type 3:  h == 0,

that is, (X - X0) . grad w along the non-degenerate axis; h == 0 wherever
the frozen factor is constant (type 3, type 1 with alpha = 0, type 2 with
beta = 0).

The boundary moment J1(r) = r^{2 kappa - 1} * integral of u^2 over dB_r is
non-decreasing as well.  On an exactly homogeneous profile both M - int h
and J1 are constant, which the checks treat as the equality case.

``radial_sweep`` integrates everything both this profile and the
frequency profile need, one disk stencil and one circle integral per
radius, each kind built for all radii in one batch; ``weiss_profile``
and ``frequency.frequency_profile`` only turn those integrals into
columns.  Neither module does file I/O: ``pipeline`` writes both
profiles as CSV.

The limiting weighted density M(0+) is estimated by rescaling the
positivity set of u to the unit ball at a small radius and integrating the
frozen weight over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (GridSpec, ProblemSpec, ScalarField, StagnationPoint,
                     RadiusOutOfRange, reference_grid, weight_at,
                     weight_gradient_at)
from .quadrature import (circle_integrals_u2, disk_stencils, grad_central,
                         require_circle_inside)

# nodes per side of the reference grid of the density estimate
DENSITY_REFERENCE_N = 257


@dataclass
class WeissProfile:
    """Radius sweep of M, its numerical derivative, remainder data, and J1."""

    radii: np.ndarray
    M: np.ndarray
    dM_numeric: np.ndarray
    remainder: np.ndarray
    remainder_integral: np.ndarray
    J1: np.ndarray

    def __post_init__(self):
        n = len(self.radii)
        for name in ("M", "dM_numeric", "remainder", "remainder_integral", "J1"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"profile column {name} has wrong length")
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")


def check_radii(sp: StagnationPoint, grid: GridSpec, radii) -> np.ndarray:
    """``radii`` as an array; raises unless they increase strictly inside
    (0, delta) and their circles fit in the grid."""
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    for r in (radii[0], radii[-1]):
        if not (0.0 < r < sp.delta):
            raise RadiusOutOfRange(f"radius {r:g} outside (0, delta={sp.delta:g})")
        require_circle_inside(grid, sp.location, r)
    return radii


@dataclass
class RadialSweep:
    """Per-radius integrals over B_r and dB_r shared by the Weiss and
    frequency profiles.  ``remainder`` holds h(r) itself; the frozen
    weight lw is the weight with its non-degenerate factor held at X0."""

    radii: np.ndarray
    kappa: float
    ring: np.ndarray          # integral over dB_r of u^2
    bulk: np.ndarray          # integral over B_r of |grad u|^2 + w chi
    dirichlet: np.ndarray     # integral over B_r of |grad u|^2
    remainder: np.ndarray     # h(r)
    free_weight: np.ndarray   # integral over B_r of lw (1 - chi)
    weight_gap: np.ndarray    # integral over B_r of (lw - w) chi


def _remainder_integrand(spec: ProblemSpec, X, Y) -> np.ndarray:
    # (X - X0) . grad w along the non-degenerate axis, whose factor the
    # frozen weight holds at its X0 value
    m = spec.model
    if m.frozen_exponent == 0:
        return np.zeros_like(np.asarray(X, dtype=float))
    axis = m.degenerate.index(False)
    return ((X, Y)[axis] - m.location[axis]) * weight_gradient_at(spec, X, Y)[axis]


def radial_sweep(spec: ProblemSpec, u: ScalarField, sp: StagnationPoint,
                 radii) -> RadialSweep:
    """The integrals of both profiles from one batch of disk stencils and
    one batch of circle integrals, one disk and one circle per radius.

    The nodewise integrands |grad u|^2 + w chi, |grad u|^2, the remainder
    integrand, lw (1 - chi) and (lw - w) chi are built one at a time, each
    integrated over every disk and freed before the next is built.  So
    besides the disks one integrand is alive at a time, with the factors
    still to come (the mesh, w and chi, |grad u|^2 for the first two, lw
    for the last two): at most about nine full-grid arrays, where building
    the five together held about thirteen."""
    radii = check_radii(sp, u.grid, radii)
    k = sp.kappa
    g = u.grid
    disks = disk_stencils(g, sp.location, radii)

    def integrals(nodewise):
        return [disk.integrate(nodewise) for disk in disks]

    ring = circle_integrals_u2(u.values, g, sp.location, radii)
    ux, uy = grad_central(u.values, g.spacing)
    gradsq = ux * ux + uy * uy
    del ux, uy
    X, Y = g.mesh()
    w = np.asarray(weight_at(spec, X, Y))
    chi = (u.values > 0.0).astype(float)
    bulk = integrals(gradsq + w * chi)
    dirichlet = integrals(gradsq)
    del gradsq
    # the remainder integrand is +0.0 everywhere when the frozen factor is
    # constant, so h is then exactly 0
    remainder = [r ** (2 * k - 1) * v for r, v in zip(
        radii, integrals(_remainder_integrand(spec, X, Y) * chi))]
    m = spec.model
    lw = m.monomial(X, Y, scale=spec.weight_constant * m.frozen)
    del X, Y
    free_weight = integrals(lw * (1.0 - chi))
    weight_gap = integrals((lw - w) * chi)
    return RadialSweep(radii, k, *np.array(
        [ring, bulk, dirichlet, remainder, free_weight, weight_gap]))


def _weiss_energy_at(sweep: RadialSweep, i: int) -> float:
    r, k = sweep.radii[i], sweep.kappa
    return r ** (2 * k) * sweep.bulk[i] + k * r ** (2 * k - 1) * sweep.ring[i]


def cumulative_remainder(radii: np.ndarray, h_values: np.ndarray) -> np.ndarray:
    """Cumulative integral of h from 0 to each radius.  The stretch below
    the first sampled radius contributes h(r_min) * r_min (quadrature
    convention; h stays bounded near 0 on the fields of interest)."""
    radii = np.asarray(radii, dtype=float)
    h_values = np.asarray(h_values, dtype=float)
    out = np.empty_like(h_values)
    out[0] = h_values[0] * radii[0]
    if len(radii) > 1:
        seg = 0.5 * (h_values[1:] + h_values[:-1]) * np.diff(radii)
        out[1:] = out[0] + np.cumsum(seg)
    return out


def weiss_profile(sweep: RadialSweep) -> WeissProfile:
    """Assemble M, dM/dr (central differences in log r), h, int h, J1."""
    radii, k = sweep.radii, sweep.kappa
    M = np.array([_weiss_energy_at(sweep, i) for i in range(len(radii))])
    J1 = np.array([r ** (2 * k - 1) * ring for r, ring in zip(radii, sweep.ring)])
    logr = np.log(radii)
    dM = np.gradient(M, logr) / radii
    return WeissProfile(radii=radii, M=M, dM_numeric=dM, remainder=sweep.remainder,
                        remainder_integral=cumulative_remainder(radii, sweep.remainder),
                        J1=J1)


@dataclass
class MonotonicityReport:
    passed: bool
    worst_violation: float
    worst_radius: float | None
    j1_passed: bool
    j1_worst_violation: float
    j1_worst_radius: float | None
    n_flagged: int

    @property
    def all_passed(self) -> bool:
        return self.passed and self.j1_passed


def check_monotonicity(profile: WeissProfile, tol: float) -> MonotonicityReport:
    """Flag adjacent radius pairs where M - int h (or J1) decreases by more
    than tol; reports the worst drop of each."""
    g = profile.M - profile.remainder_integral
    dg = np.diff(g)
    dj = np.diff(profile.J1)

    def worst(d):
        if d.size == 0:
            return 0.0, None
        i = int(np.argmin(d))
        return float(max(0.0, -d[i])), float(profile.radii[i + 1])

    g_viol, g_rad = worst(dg)
    j_viol, j_rad = worst(dj)
    n_flagged = int(np.sum(dg < -tol)) + int(np.sum(dj < -tol))
    return MonotonicityReport(
        passed=g_viol <= tol, worst_violation=g_viol, worst_radius=g_rad,
        j1_passed=j_viol <= tol, j1_worst_violation=j_viol, j1_worst_radius=j_rad,
        n_flagged=n_flagged)


def limit_density(spec: ProblemSpec, u: ScalarField, sp: StagnationPoint,
                  r_small: float) -> float:
    """Weighted density estimate at scale r_small:

        C * prefactor * integral over B_1 of m(Z) * chi_{u(X0 + r Z) > 0},

    where m is the frozen angular monomial ((sy z2)_+^beta for type 1,
    (sx z1)_+^alpha for type 2, |z1|^alpha |z2|^beta for type 3) and the
    prefactor carries the non-degenerate factor at X0."""
    check_radii(sp, u.grid, [r_small])
    ref = reference_grid(DENSITY_REFERENCE_N)
    Zx, Zy = ref.mesh()
    px = sp.location[0] + r_small * Zx
    py = sp.location[1] + r_small * Zy
    # node-level positivity mask {u > 0}, sampled at the nearest source
    # node (bilinear sampling would dilate the set by up to one cell); the
    # reference-square corners poking past B_1 are clamped and carry zero
    # disk weight anyway
    chi = (u.values[u.grid.nearest_node(px, py)] > 0.0).astype(float)
    disk = disk_stencils(ref, (0.0, 0.0), [1.0])[0]
    val = disk.integrate(spec.model.monomial(Zx, Zy) * chi)
    return spec.weight_constant * spec.model.frozen * val

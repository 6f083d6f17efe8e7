"""Closed-form reference evaluators that the tests check the package
against.

The package does not run any of these: a solve, an analysis, a
classification or the conclusion table reaches none of them.  They are
independent cross-checks (the five-point Laplacian, the gradient and the
grid samples of an exact corner profile, the tangent-chart form of the
type-3 edge condition, the pair-count rule, which type-3 pairs are
symmetric, the Chebyshev coefficients of the velocity potential, and the
Weiss energy at one radius), so they live with the tests.  So do the
earlier all-at-once forms of three package functions that now bound
their working set (the star hull, the solve's energy, the radial sweep),
and the 2-D form of the multigrid's five-point operator, which the
package now takes in flat slices: the package must give their floats and
bits exactly.  ``traced_peak`` is
the tracemalloc measure that the working-set bounds of those functions
and of ``load_field`` are checked with.  The module name does not start
with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from cornerwave.domain import (TWO_PI, GridSpec, InvalidPair, InvalidSpec,
                               ProblemSpec, ScalarField, StagnationPoint,
                               weight_at, wrap_angle)
from cornerwave.oracle import (ClosedFormProfile, _symmetry_offsets,
                               _type3_weight, evaluate_at_points)
from cornerwave.quadrature import (circle_integrals_u2, disk_stencils,
                                   grad_central)
from cornerwave.weiss import (RadialSweep, _remainder_integrand,
                              _weiss_energy_at, check_radii, radial_sweep)


class DomainError(ValueError):
    """Argument outside the domain of a closed-form evaluator."""


def laplacian5(values: np.ndarray, spacing: float) -> np.ndarray:
    """Five-point Laplacian on interior nodes; boundary rows are zero."""
    lap = np.zeros_like(values)
    lap[1:-1, 1:-1] = (values[1:-1, 2:] + values[1:-1, :-2]
                       + values[2:, 1:-1] + values[:-2, 1:-1]
                       - 4.0 * values[1:-1, 1:-1]) / spacing ** 2
    return lap


def harmonic_residual(u: ScalarField, threshold: float) -> float:
    """Max magnitude of the five-point Laplacian over interior nodes with
    u > threshold; 0 for a linear field, 4 for u = |X|^2."""
    if threshold < 0:
        raise InvalidSpec("threshold must be nonnegative")
    lap = laplacian5(u.values, u.grid.spacing)
    sel = np.zeros_like(u.values, dtype=bool)
    sel[1:-1, 1:-1] = u.values[1:-1, 1:-1] > threshold
    if not np.any(sel):
        return 0.0
    return float(np.max(np.abs(lap[sel])))


def profile_gradient_sq(profile: ClosedFormProfile, r, theta):
    """|grad u0|^2 = (degree * prefactor * C0)^2 * r^(2 degree - 2) inside
    the cone, 0 outside (the angular dependence cancels exactly)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dtheta = np.mod(theta - profile.theta1, TWO_PI)
    inside = dtheta <= profile.opening
    d = profile.degree
    amp = (d * profile.prefactor * profile.C0) ** 2
    out = np.where(inside, amp * r ** (2.0 * d - 2.0), 0.0)
    return float(out) if out.ndim == 0 else out


def pair_symmetric(alpha: float, beta: float, theta1: float) -> bool:
    """Whether reflecting the type-3 cone of edge ``theta1`` across a
    coordinate axis (or, for alpha == beta, a diagonal) maps it to
    itself, i.e. its bisector lies within 1e-8 of an axis (or
    diagonal)."""
    A = TWO_PI / (alpha + beta + 2.0)
    m = theta1 + A / 2.0
    q = math.pi / 2.0
    return any(abs((m - o) / q - round((m - o) / q)) * q <= 1e-8
               for o in _symmetry_offsets(alpha, beta))


def profile_field(profile: ClosedFormProfile, grid: GridSpec, center) -> ScalarField:
    """Sample a profile centered at ``center`` onto a grid."""
    X, Y = grid.mesh()
    return ScalarField(grid, evaluate_at_points(profile, X, Y, center))


def angle_condition(s: float, alpha: float, beta: float) -> float:
    """Tangent-chart form of the type-3 edge condition:

        |cos A - s sin A|^alpha |cos A + sin A / s|^beta - 1,

    with A = 2 pi/(alpha+beta+2) and s = tan(theta1); zeros correspond to
    admissible pairs.  ``oracle.solve_angle_pairs`` works in the angle
    variable instead, which has no s = 0 or s = inf chart artifacts."""
    if s == 0:
        raise DomainError("angle condition undefined at s = 0")
    A = TWO_PI / (alpha + beta + 2.0)
    return (abs(math.cos(A) - s * math.sin(A)) ** alpha
            * abs(math.cos(A) + math.sin(A) / s) ** beta - 1.0)


def expected_pair_count(alpha: float, beta: float) -> int:
    """8 or 12 admissible pairs, keyed on tan A vs 2 sqrt(ab)/|a - b| (the
    threshold is +inf at alpha = beta, so the 8-pair regime applies)."""
    A = TWO_PI / (alpha + beta + 2.0)
    if alpha == beta:
        return 8
    threshold = 2.0 * math.sqrt(alpha * beta) / abs(alpha - beta)
    return 12 if math.tan(A) > threshold else 8


def chebyshev_coefficients(theta1: float, alpha: float, beta: float):
    """Angular coefficients of the type-3 velocity potential.

    The potential's angular part g(theta) = a cos(k theta) + b sin(k theta)
    solves the Chebyshev equation (1-z^2) g'' - z g' + k^2 g = 0 with
    k = (alpha+beta+2)/2 and satisfies g'(theta_i) = 0 on both edges; the
    edge-weight equality pins k^2 (a^2 + b^2) and the stream function's
    positivity inside the cone fixes the remaining sign.  Returns
    (a, b, C0, phi0)."""
    k = (alpha + beta + 2.0) / 2.0
    A = TWO_PI / (alpha + beta + 2.0)
    w1 = float(_type3_weight(alpha, beta, theta1))
    w2 = float(_type3_weight(alpha, beta, theta1 + A))
    if abs(w1 - w2) > 1e-8 * max(1.0, w1, w2):
        raise InvalidPair(f"edge weights differ by {abs(w1 - w2):g}")
    M = math.sqrt(w1) / k
    a = -M * math.cos(k * theta1)
    b = -M * math.sin(k * theta1)
    phi0 = wrap_angle(-math.pi / 2.0 - k * theta1)
    return a, b, M, phi0


def weiss_energy(spec: ProblemSpec, u: ScalarField, sp: StagnationPoint,
                 r: float) -> float:
    """The adjusted boundary energy M(r) at one radius, from a radial
    sweep of that radius alone."""
    return float(_weiss_energy_at(radial_sweep(spec, u, sp, [r]), 0))


def star_hull_mask_one_shot(grid: GridSpec, center,
                            ring_positive: np.ndarray) -> np.ndarray:
    """``energy.star_hull_mask`` with every segment rasterised at once:
    the sample coordinates and nearest nodes of all positive ring nodes
    held together."""
    ny, nx = ring_positive.shape
    mask = np.zeros((ny, nx), dtype=bool)
    J, I = np.nonzero(ring_positive)
    if len(J) == 0:
        return mask
    px = grid.origin[0] + grid.spacing * I
    py = grid.origin[1] + grid.spacing * J
    t = np.linspace(0.0, 1.0, 3 * max(nx, ny))[None, :]
    sx = center[0] + (px[:, None] - center[0]) * t
    sy = center[1] + (py[:, None] - center[1]) * t
    jj, ii = grid.nearest_node(sx, sy)
    mask[jj.ravel(), ii.ravel()] = True
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def energy_raw_one_expression(values: np.ndarray, wq: np.ndarray) -> float:
    """``energy._energy_raw`` with both edge arrays and the weight term
    alive together, summed in one expression."""
    ex = np.diff(values, axis=1)
    ey = np.diff(values, axis=0)
    ex *= ex
    ey *= ey
    ex[[0, -1], :] *= 0.5
    ey[:, [0, -1]] *= 0.5
    return float(np.sum(ex) + np.sum(ey) + np.sum(wq * (values > 0.0)))


def radial_sweep_all_at_once(spec: ProblemSpec, u: ScalarField,
                             sp: StagnationPoint, radii) -> RadialSweep:
    """``weiss.radial_sweep`` with the five nodewise integrands built
    together before any is integrated, each disk integrating all five in
    turn."""
    radii = check_radii(sp, u.grid, radii)
    g = u.grid
    ux, uy = grad_central(u.values, g.spacing)
    gradsq = ux * ux + uy * uy
    X, Y = g.mesh()
    w = np.asarray(weight_at(spec, X, Y))
    m = spec.model
    lw = m.monomial(X, Y, scale=spec.weight_constant * m.frozen)
    chi = (u.values > 0.0).astype(float)
    rem = _remainder_integrand(spec, X, Y) * chi
    bulk_f, free_f, gap_f = gradsq + w * chi, lw * (1.0 - chi), (lw - w) * chi
    k = sp.kappa
    cols = np.empty((6, len(radii)))
    cols[0] = circle_integrals_u2(u.values, g, sp.location, radii)
    disks = disk_stencils(g, sp.location, radii)
    for i, (r, disk) in enumerate(zip(radii, disks)):
        cols[1:, i] = (disk.integrate(bulk_f), disk.integrate(gradsq),
                       r ** (2 * k - 1) * disk.integrate(rem),
                       disk.integrate(free_f), disk.integrate(gap_f))
    return RadialSweep(radii, k, *cols)


def five_point_2d(u: np.ndarray, mask: np.ndarray,
                  mirror: bool) -> np.ndarray:
    """``energy._five_point`` on 2-D slices of the interior: 4u, minus the
    rows above and below, minus the columns left and right, times the
    float free ``mask`` there; 0 (+0.0) on the outer ring.  With
    ``mirror`` the last column is a mirror axis: its inner rows are taken
    as well, with the left column for the right one."""
    out = np.zeros_like(u)
    last = u.shape[1] - (not mirror)
    right = np.concatenate([u[1:-1, 2:], u[1:-1, -2:-1]], axis=1)
    c = out[1:-1, 1:last]
    np.multiply(u[1:-1, 1:last], 4.0, out=c)
    c -= u[:-2, 1:last]
    c -= u[2:, 1:last]
    c -= u[1:-1, :last - 1]
    c -= right[:, :last - 1]
    c *= mask[1:-1, 1:last]
    return out


def traced_peak(fn, *args):
    """``fn(*args)`` and the most bytes tracemalloc saw it hold above what
    was allocated at its entry."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - entry
    finally:
        if started:
            tracemalloc.stop()

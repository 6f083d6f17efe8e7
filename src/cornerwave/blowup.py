"""Rescaling at stagnation points, homogeneity and Bernstein checks,
asymptotic directions of the free boundary, and the corner/cusp/flat
classifier.

The rescaled functions u_r(Z) = r^kappa u(X0 + r Z) live on the fixed
reference square [-1, 1]^2.  If u blows up to a homogeneous profile, the
rescalings form a Cauchy sequence in L^2(B_1) and the Euler relation
grad(u0) . Z - degree * u0 = 0 holds in the limit; both are measured here.
The weighted density of the rescaled positivity set discriminates the
three a-priori singular shapes: it equals the corner-cone value for a
corner profile, 0 for a cusp, and the full-ball value for a flat point.
Cusp and flat profiles are theoretically excluded for exact weak
solutions, so those verdicts flag a non-solution input or a numerical
artifact; the classifier notes this.

The analysis works on whole arrays: the asymptotic directions sample the
positivity mask on all annuli at once and bisect every arc endpoint of
every annulus together, one array step per bisection step, and
``blowup_analysis`` builds the B_1 stencil of the reference grid once for
all its L^2 norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (TWO_PI, EmptyPositivity, GridSpec, ProblemSpec,
                     RadiusOutOfRange, ScalarField, StagnationPoint, bilinear,
                     reference_grid, value_envelope_monomial, weight_at,
                     wrap_angle)
from .quadrature import (DiskStencil, disk_stencils, grad_central,
                         require_circle_inside)
from .weiss import limit_density

EXCLUSION_NOTE = ("cusp and flat profiles are excluded for exact weak "
                  "solutions; such a verdict indicates a non-solution field "
                  "or a numerical artifact")


# the analysis scales as fractions of the stagnation point's delta (see
# ``pipeline``), and the nodes per side of the rescaled fields' grid
DENSITY_FRACTION = 0.6
DIRECTION_FRACTION = 0.9
REFERENCE_N = 129


def profile_radii(sp: StagnationPoint) -> np.ndarray:
    """The radii of the Weiss and frequency profiles."""
    return np.geomspace(0.1 * sp.delta, 0.9 * sp.delta, 32)


def stagnation_density(spec: ProblemSpec, u: ScalarField,
                       sp: StagnationPoint) -> float:
    """The weighted density of {u > 0} on B_{0.6 delta}(X0)."""
    return limit_density(spec, u, sp, DENSITY_FRACTION * sp.delta)


def rescale(u: ScalarField, sp: StagnationPoint, r: float) -> ScalarField:
    """u_r(Z) = r^kappa u(X0 + r Z) resampled bilinearly onto the reference
    grid of [-1, 1]^2.

    Requires B_{2r}(X0) inside the grid so every reference node maps to a
    valid sample point."""
    require_circle_inside(u.grid, sp.location, r, factor=2.0)
    ref = reference_grid(REFERENCE_N)
    Zx, Zy = ref.mesh()
    vals = bilinear(u.values, u.grid,
                    sp.location[0] + r * Zx, sp.location[1] + r * Zy)
    return ScalarField(ref, r ** sp.kappa * vals)


def l2_disk_distance(f1: ScalarField, f2: ScalarField,
                     disk: DiskStencil) -> float:
    """L^2(B_1) distance of two fields on the reference square; ``disk``
    is the B_1 stencil of their grid."""
    if f1.grid != f2.grid:
        raise ValueError("fields live on different grids")
    d = f1.values - f2.values
    return math.sqrt(disk.integrate(d * d))


def homogeneity_residual(u0: ScalarField, degree: float,
                         disk: DiskStencil) -> float:
    """L^2(B_1) norm of grad(u) . Z - degree * u on the reference square;
    zero exactly on homogeneous functions of the given degree.  ``disk``
    is the B_1 stencil of the grid."""
    g = u0.grid
    ux, uy = grad_central(u0.values, g.spacing)
    Zx, Zy = g.mesh()
    resid = ux * Zx + uy * Zy - degree * u0.values
    return math.sqrt(disk.integrate(resid * resid))


@dataclass
class BernsteinReport:
    passed: bool
    gradient_ratio: float
    value_ratio: float
    bound: float


def check_bernstein(spec: ProblemSpec, u: ScalarField, sp: StagnationPoint,
                    r0: float, C: float) -> BernsteinReport:
    """Pointwise gradient bound |grad u|^2 <= C * weight over B_{r0}.

    Nodes where the weight vanishes are checked against the integrated
    growth bound u <= C * monomial instead; a positive u where even the
    monomial vanishes fails outright."""
    if not (0 < r0 < sp.delta):
        raise RadiusOutOfRange(f"r0={r0:g} outside (0, delta={sp.delta:g})")
    require_circle_inside(u.grid, sp.location, r0)
    g = u.grid
    X, Y = g.mesh()
    dist = np.hypot(X - sp.location[0], Y - sp.location[1])
    ball = dist <= r0
    w = np.asarray(weight_at(spec, X, Y))
    ux, uy = grad_central(u.values, g.spacing)
    gradsq = ux * ux + uy * uy

    pos_w = ball & (w > 0)
    grad_ratio = float(np.max(gradsq[pos_w] / w[pos_w])) if np.any(pos_w) else 0.0

    zero_w = ball & (w <= 0)
    value_ratio = 0.0
    if np.any(zero_w):
        mono = math.sqrt(spec.weight_constant) * value_envelope_monomial(spec, X, Y)
        m = mono[zero_w]
        uv = u.values[zero_w]
        ok = m > 0
        if np.any(ok):
            value_ratio = float(np.max(uv[ok] / m[ok]))
        if np.any(~ok & (uv > 1e-12 * max(1.0, float(np.max(u.values))))):
            value_ratio = math.inf
    return BernsteinReport(passed=(grad_ratio <= C and value_ratio <= C),
                           gradient_ratio=grad_ratio, value_ratio=value_ratio,
                           bound=C)


@dataclass
class DirectionEstimate:
    theta1: float
    theta2: float
    disconnected: bool
    per_annulus: list[tuple[float, float, float, int]]  # (rho, lo, hi, n_arcs)

    def __post_init__(self):
        if not self.theta1 < self.theta2:
            raise ValueError("directions must satisfy theta1 < theta2")

    @property
    def opening(self) -> float:
        return self.theta2 - self.theta1


# angular samples per circle, and the annuli of the direction estimate
N_THETA = 1440
ANNULI = np.linspace(0.25, 0.85, 8)


def _positive(values: np.ndarray, grid: GridSpec, center, rho, t) -> np.ndarray:
    """The node-level positivity mask {u > 0} at angles ``t`` on circles of
    radius ``rho`` about ``center`` (broadcast against each other),
    sampled at the nearest node.

    Bilinear interpolation would dilate the support by up to one cell
    outward, biasing every opening estimate wide, while nearest-node
    sampling is unbiased to half a cell."""
    px = center[0] + rho * np.cos(t)
    py = center[1] + rho * np.sin(t)
    return values[grid.nearest_node(px, py)] > 0.0


def _positivity_arcs(values: np.ndarray, grid: GridSpec, rhos,
                     center) -> list[list[tuple[float, float]]]:
    """Angular arcs where {u > 0} holds on each circle |X - center| = rho,
    in order of their start angle.  The mask is sampled at N_THETA angles
    on all circles in one ``_positive`` call, then every arc endpoint of
    every circle is refined together: 46 bisection steps of one
    ``_positive`` call each."""
    rhos = np.asarray(rhos, dtype=float)
    dth = TWO_PI / N_THETA
    theta = -math.pi + dth * np.arange(N_THETA)
    masks = _positive(values, grid, center, rhos[:, None], theta[None, :])
    arcs = [[(-math.pi, math.pi)] if mask.all() else [] for mask in masks]
    # a bisection bracket (inside the set, outside it) per arc endpoint:
    # circle by circle, the starts of its arcs, then their ends
    runs, rho, inside, outside = [], [], [], []
    for c, mask in enumerate(masks):
        if mask.all() or not mask.any():
            continue
        rising = np.flatnonzero(mask & ~np.roll(mask, 1))
        falling = np.flatnonzero(mask & ~np.roll(mask, -1))
        # the last index of the run that starts at each rising index
        last = falling[np.searchsorted(falling, rising) % len(falling)]
        last = np.where(last < rising, last + N_THETA, last)
        start = theta[rising]
        runs.append((c, len(rising)))
        rho.append(np.full(2 * len(rising), rhos[c]))
        inside += [start, start + (last - rising) * dth]
        outside += [start - dth, start + (last + 1 - rising) * dth]
    if not runs:
        return arcs
    a, b = np.concatenate(inside), np.concatenate(outside)
    rho = np.concatenate(rho)
    for _ in range(46):
        mid = 0.5 * (a + b)
        pos = _positive(values, grid, center, rho, mid)
        a = np.where(pos, mid, a)
        b = np.where(pos, b, mid)
    ends = (0.5 * (a + b)).tolist()
    k = 0
    for c, n in runs:
        arcs[c] = list(zip(ends[k:k + n], ends[k + n:k + 2 * n]))
        k += 2 * n
    return arcs


def estimate_asymptotic_directions(u0: ScalarField, center,
                                   radius: float) -> DirectionEstimate:
    """Median angular extent of {u0 > 0} over the 8 ANNULI, on circles of
    physical radius ``radius * annulus`` about ``center`` of the source
    field itself (a rescaled field would add the support dilation of its
    interpolation).  The arcs of all annuli are found together by
    ``_positivity_arcs``.  The edges are centred on the wrapped bisector,
    and ``opening`` is their difference.  Raises EmptyPositivity when no
    annulus meets the set; more than one angular component is reported,
    not fatal."""
    per = []
    disconnected = False
    all_arcs = _positivity_arcs(u0.values, u0.grid, ANNULI * radius, center)
    for rho, arcs in zip(ANNULI, all_arcs):
        if not arcs:
            continue
        if len(arcs) > 1:
            disconnected = True
        lo, hi = max(arcs, key=lambda ab: ab[1] - ab[0])
        per.append((float(rho), float(lo), float(hi), len(arcs)))
    if not per:
        raise EmptyPositivity("positivity set misses every annulus")
    # unwrap against the first annulus midpoint before taking medians
    mid0 = 0.5 * (per[0][1] + per[0][2])
    lows, highs = [], []
    for _, lo, hi, _ in per:
        mid = 0.5 * (lo + hi)
        shift = TWO_PI * round((mid0 - mid) / TWO_PI)
        lows.append(lo + shift)
        highs.append(hi + shift)
    t1 = float(np.median(lows))
    t2 = float(np.median(highs))
    mid = wrap_angle(0.5 * (t1 + t2))
    half = 0.5 * (t2 - t1)
    return DirectionEstimate(theta1=mid - half, theta2=mid + half,
                             disconnected=disconnected, per_annulus=per)


def check_schedule(radii, grid: GridSpec, center) -> list[float]:
    """A blow-up radius schedule as floats; raises ValueError unless it is
    a nonempty list of finite positive numbers that strictly decrease,
    each ball B_{2r}(center) inside the grid, the reach ``rescale``
    samples."""
    if np.ndim(radii) != 1 or len(radii) == 0:
        raise ValueError(
            f"blow-up radii must be a nonempty list, not {radii!r}")
    if any(isinstance(r, (bool, np.bool_)) for r in radii):  # True is 1.0
        raise ValueError(f"blow-up radii must be numbers, not {radii!r}")
    try:
        radii = [float(r) for r in radii]
    except (TypeError, ValueError):
        raise ValueError(f"blow-up radii must be numbers, not {radii!r}") from None
    if not np.all(np.isfinite(radii)) or np.any(np.diff(radii) >= 0):
        raise ValueError("blow-up radii must be finite and strictly "
                         f"decreasing, not {radii!r}")
    for r in radii:
        require_circle_inside(grid, center, r, factor=2.0)
    return radii


@dataclass
class BlowupResult:
    rescaled_fields: list[ScalarField]
    radii_used: list[float]
    successive_distance: list[float]
    homogeneity_residual: float
    density_estimate: float
    direction_report: DirectionEstimate | None   # None: no annulus meets u > 0


def blowup_analysis(spec: ProblemSpec, u: ScalarField, sp: StagnationPoint,
                    radii) -> BlowupResult:
    """Rescale along a decreasing radius schedule and collect convergence
    diagnostics, the density estimate on B_{0.6 delta} and the asymptotic
    directions out to 0.9 delta."""
    radii = check_schedule(radii, u.grid, sp.location)
    fields = [rescale(u, sp, r) for r in radii]
    # every rescaled field lives on the reference grid: one B_1 stencil
    disk = disk_stencils(fields[0].grid, (0.0, 0.0), [1.0])[0]
    dists = [l2_disk_distance(fields[i], fields[i + 1], disk)
             for i in range(len(fields) - 1)]
    resid = homogeneity_residual(fields[-1], -sp.kappa, disk)
    dens = stagnation_density(spec, u, sp)
    try:
        est = estimate_asymptotic_directions(
            u, sp.location, DIRECTION_FRACTION * sp.delta)
    except EmptyPositivity:
        est = None
    return BlowupResult(rescaled_fields=fields, radii_used=radii,
                        successive_distance=dists, homogeneity_residual=resid,
                        density_estimate=dens, direction_report=est)


@dataclass
class ClassificationReport:
    verdict: str  # "corner" | "cusp" | "flat"
    density_estimate: float
    distance_to_corner_density: float
    distance_to_zero: float
    distance_to_full_density: float
    theoretical_note: str
    best_corner_density: float


def classify(density_estimate: float, corner_density: float,
             full_density: float) -> ClassificationReport:
    """Nearest-of-three verdict: the corner density of the run's own
    cone, zero (cusp) or the full-ball density (flat)."""
    d_corner = abs(density_estimate - corner_density)
    d_zero = abs(density_estimate)
    d_full = abs(density_estimate - full_density)
    verdict = ("corner", "cusp", "flat")[int(np.argmin([d_corner, d_zero, d_full]))]
    return ClassificationReport(
        verdict=verdict, density_estimate=density_estimate,
        distance_to_corner_density=d_corner, distance_to_zero=d_zero,
        distance_to_full_density=d_full,
        theoretical_note=EXCLUSION_NOTE if verdict in ("cusp", "flat") else "",
        best_corner_density=corner_density)

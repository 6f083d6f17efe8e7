"""Closed-form blow-up limits, weighted densities, and cone-angle equations.

Every admissible stagnation point carries an explicit homogeneous profile

    u0(r, theta) = prefactor * C0 * r^d * cos(d*theta + phi0)   on (theta1, theta2),
    u0 = 0 elsewhere,   d = degree,   theta2 - theta1 = pi/d,

harmonic inside its cone and matching the Bernoulli gradient condition
|grad u0|^2 = weight on both edges.  The edge condition fixes the amplitude,

    d^2 * C0^2 = angular_weight(theta_edge),

and positivity inside the cone fixes the phase phi0 = -d*(theta1+theta2)/2
up to a full turn.  For type-3 points the admissible edge pairs are the
solutions of

    |cos theta1|^alpha |sin theta1|^beta = |cos theta2|^alpha |sin theta2|^beta,
    theta2 = theta1 + 2 pi / (alpha + beta + 2),

found here by dense sampling plus bisection in the angle variable.  Every
profile is built about its spec's cone bisector (``SubcaseModel.bisector``):
the force direction for types 1 and 2, and for type 3 the point's
theta_star, which names one of these pairs by (theta1 + theta2)/2.

Weighted densities are one-dimensional angular quadratures: the radial part
of each density integral is exact, r^(p+1) integrating to 1/(p+2).  The
angular integral is split at the multiples of pi/2, where the weight can
lose smoothness, and each piece is integrated with one fixed tanh-sinh
(double-exponential) rule of Takahasi and Mori (Publ. RIMS 9, 1974),
whose nodes crowd towards the ends of the piece: 203 nodes, step 1/32.
It agrees with 30-digit mpmath quadrature to about 5e-16 relative, for
integer and fractional exponents alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (THETA_DOWN, THETA_LEFT, THETA_RIGHT, THETA_UP, TWO_PI,
                     InvalidPair, InvalidSpec, ProblemSpec, Rect, Type1, Type2,
                     Type3, wrap_angle)


def _edge_tolerance(w1: float, w2: float) -> float:
    """Resolution at which two cone-edge weights count as equal, and one
    as zero: an edge on a coordinate axis evaluates to a rounding residue
    such as cos(pi/2) = 6.1e-17, not to 0."""
    return 1e-10 * max(1.0, w1, w2)


@dataclass(frozen=True)
class ClosedFormProfile:
    """Explicit blow-up limit: amplitude, phase, cone edges, prefactor."""

    degree: float
    C0: float
    phi0: float
    theta1: float
    theta2: float
    prefactor: float

    def __post_init__(self):
        if self.C0 <= 0:
            raise InvalidSpec("profile amplitude must be positive")
        opening = self.theta2 - self.theta1
        if abs(opening - math.pi / self.degree) > 1e-12 * max(1.0, opening):
            raise InvalidSpec("cone opening must equal pi/degree")

    @property
    def opening(self) -> float:
        # pi/degree by definition; theta2 - theta1 can sit an ulp off it
        return math.pi / self.degree


@dataclass(frozen=True)
class AnglePair:
    """Admissible type-3 cone edges theta2 = theta1 + 2 pi/(alpha+beta+2)."""

    theta1: float
    theta2: float


def angular_weight(spec: ProblemSpec, theta):
    """Angular factor of the one-sided weight in the degenerate variable(s).

    type 1: ((sy sin)_+)^beta, type 2: ((sx cos)_+)^alpha,
    type 3: |cos|^alpha |sin|^beta.  The non-degenerate factor and the
    weight constant live in prefactors, not here.
    """
    theta = np.asarray(theta, dtype=float)
    out = spec.model.monomial(np.cos(theta), np.sin(theta))
    return float(out) if out.ndim == 0 else out


def blowup_limit(spec: ProblemSpec) -> ClosedFormProfile:
    """Exact blow-up profile for a spec: the cone of opening pi/degree
    about the model's bisector.  InvalidSpec unless its edge weights agree
    and are positive, which on type 3 holds for the bisectors of
    ``corner_pairs`` only."""
    m = spec.model
    deg = spec.degree
    half = math.pi / (2.0 * deg)
    theta1, theta2 = m.bisector - half, m.bisector + half
    pref = m.frozen_root * math.sqrt(spec.weight_constant)
    w1 = angular_weight(spec, theta1)
    w2 = angular_weight(spec, theta2)
    tol = _edge_tolerance(w1, w2)
    if abs(w1 - w2) > tol:
        raise InvalidSpec(f"edge weights differ: {w1!r} vs {w2!r}")
    if w1 <= tol:
        raise InvalidSpec("degenerate cone: edge weight vanishes")
    C0 = math.sqrt(w1) / deg
    phi0 = wrap_angle(-deg * 0.5 * (theta1 + theta2))
    return ClosedFormProfile(degree=deg, C0=C0, phi0=phi0,
                             theta1=theta1, theta2=theta2, prefactor=pref)


def evaluate_blowup_limit(profile: ClosedFormProfile, r, theta):
    """Evaluate prefactor*C0*r^degree*cos(degree*theta + phi0) inside the
    cone, 0 outside; continuous (and zero) on both edges."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    d = profile.degree
    dtheta = np.mod(theta - profile.theta1, TWO_PI)
    inside = dtheta <= profile.opening
    tc = profile.theta1 + dtheta
    val = profile.prefactor * profile.C0 * r ** d * np.cos(d * tc + profile.phi0)
    out = np.where(inside, np.maximum(val, 0.0), 0.0)
    return float(out) if out.ndim == 0 else out


def evaluate_at_points(profile: ClosedFormProfile, x, y, center):
    dx = np.asarray(x, dtype=float) - center[0]
    dy = np.asarray(y, dtype=float) - center[1]
    return evaluate_blowup_limit(profile, np.hypot(dx, dy), np.arctan2(dy, dx))


def _tanh_sinh_rule(step: float, levels: int):
    """Nodes and weights of the tanh-sinh rule on [-1, 1]: x = tanh(pi/2
    sinh(t)) at t = k * step, |k| <= levels, keeping the nodes that round
    to a point strictly inside (-1, 1).  At step 1/32 the dropped nodes
    weigh below 1e-16 each, against a total weight of 2."""
    t = step * np.arange(-levels, levels + 1)
    u = 0.5 * math.pi * np.sinh(t)
    nodes = np.tanh(u)
    weights = step * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    inside = np.abs(nodes) < 1.0
    return nodes[inside], weights[inside]


_TS_NODES, _TS_WEIGHTS = _tanh_sinh_rule(1.0 / 32.0, 192)


def _angular_integral(spec: ProblemSpec, theta1: float, theta2: float) -> float:
    if theta2 < theta1:
        raise InvalidSpec("need theta1 <= theta2")
    # pieces end at the multiples of pi/2 inside (theta1, theta2), where
    # the weight can be singular; inside a piece it is smooth
    q = math.pi / 2.0
    breaks = [k * q for k in range(math.floor(theta1 / q), math.ceil(theta2 / q) + 1)]
    ends = np.array([theta1] + [t for t in breaks if theta1 < t < theta2] + [theta2])
    mid = 0.5 * (ends[1:] + ends[:-1])[:, None]
    half = 0.5 * (ends[1:] - ends[:-1])[:, None]
    terms = half * _TS_WEIGHTS * angular_weight(spec, mid + half * _TS_NODES)
    return math.fsum(terms.ravel().tolist())


def corner_density(spec: ProblemSpec, theta1: float, theta2: float) -> float:
    """Weighted density of a corner profile with cone (theta1, theta2):

        C * prefactor * (1/(p+2)) * integral of the angular weight,

    p being the degenerate exponent (beta, alpha, or alpha+beta)."""
    if theta1 == theta2:
        return 0.0
    return _density(spec, _angular_integral(spec, theta1, theta2))


def full_ball_density(spec: ProblemSpec) -> float:
    """Weighted density of the flat (everywhere-positive) profile."""
    return _density(spec, _angular_integral(spec, -math.pi, math.pi))


def _density(spec: ProblemSpec, angular: float) -> float:
    m = spec.model
    return spec.weight_constant * m.frozen * angular / (m.power + 2.0)


def _type3_weight(alpha: float, beta: float, theta):
    theta = np.asarray(theta, dtype=float)
    return np.abs(np.cos(theta)) ** alpha * np.abs(np.sin(theta)) ** beta


def edge_weight_mismatch(alpha: float, beta: float, theta1):
    """G(theta1) = w(theta1 + A) - w(theta1) with w = |cos|^a |sin|^b."""
    A = TWO_PI / (alpha + beta + 2.0)
    return _type3_weight(alpha, beta, np.asarray(theta1) + A) \
        - _type3_weight(alpha, beta, theta1)


def _symmetry_offsets(alpha: float, beta: float) -> tuple[float, ...]:
    # bisector positions modulo pi/2 of a symmetric pair: the axes, and
    # for alpha == beta the diagonals too
    return (0.0, math.pi / 4.0) if alpha == beta else (0.0,)


def snap_symmetric_root(alpha: float, beta: float, theta1: float) -> float:
    """Snap a root whose cone bisector falls within 1e-5 of a coordinate
    axis (or, for alpha == beta, a diagonal) onto the exact symmetric
    position.  Axis-symmetric pairs exist for every admissible (alpha,
    beta) by reflection symmetry, and at threshold parameters the crossing
    degenerates to a triple root that sign-based bisection can only locate
    to about cbrt(eps); the symmetry pins it exactly."""
    A = TWO_PI / (alpha + beta + 2.0)
    m = theta1 + A / 2.0
    q = math.pi / 2.0
    for o in _symmetry_offsets(alpha, beta):
        near = round((m - o) / q) * q + o
        if abs(m - near) <= 1e-5:
            return wrap_angle(near - A / 2.0)
    return theta1


def _canonical_degenerate_pairs(alpha: float, beta: float) -> list[float]:
    # alpha = beta = 1 balances the edge weights identically; return the
    # eight pairs that the generic families limit onto (bisectors on the
    # axes and on the diagonals).
    A = TWO_PI / (alpha + beta + 2.0)
    bisectors = [-math.pi / 2.0, 0.0, math.pi / 2.0, math.pi,
                 -3 * math.pi / 4.0, -math.pi / 4.0, math.pi / 4.0, 3 * math.pi / 4.0]
    return [wrap_angle(b - A / 2.0) for b in bisectors]


def solve_angle_pairs(alpha: float, beta: float) -> list[AnglePair]:
    """All admissible type-3 edge pairs over theta1 in [-pi, pi).

    Dense sampling of the edge-weight mismatch at 4096 angles followed by
    bisection on sign changes, all brackets together in at most 100 array
    steps (fewer once a step changes no bracket, as every later step
    would); roots within 1e-8 of each other, modulo 2 pi, are merged.  When the
    mismatch vanishes identically (alpha = beta = 1) every angle is
    admissible and the eight canonical limiting pairs are returned.
    """
    if alpha < 1 or beta < 1:
        raise InvalidSpec("angle pairs require alpha >= 1 and beta >= 1")
    A = TWO_PI / (alpha + beta + 2.0)
    th = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    G = edge_weight_mismatch(alpha, beta, th)
    scale = float(np.max(_type3_weight(alpha, beta, th)))
    if float(np.max(np.abs(G))) <= 1e-12 * max(scale, 1e-300):
        roots = _canonical_degenerate_pairs(alpha, beta)
    else:
        th_next = np.concatenate([th[1:], [th[0] + TWO_PI]])
        bracket = np.flatnonzero(G * np.roll(G, -1) < 0.0)
        lo, hi, glo = th[bracket], th_next[bracket], G[bracket]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            gm = edge_weight_mismatch(alpha, beta, mid)
            # a sign change keeps lo; an exact zero closes the bracket on
            # mid, where later steps leave it
            flip = glo * gm < 0.0
            step = (np.where(flip, lo, mid), np.where(flip | (gm == 0.0), mid, hi),
                    np.where(flip, glo, gm))
            if all(map(np.array_equal, step, (lo, hi, glo))):
                break  # no bracket moved, so no later step would move one
            lo, hi, glo = step
        roots = th[G == 0.0].tolist() + wrap_angle(0.5 * (lo + hi)).tolist()
        roots = [snap_symmetric_root(alpha, beta, t) for t in roots]
        roots = _merge_circular(sorted(roots), 1e-8)
    pairs = [AnglePair(theta1=t, theta2=t + A) for t in sorted(roots)]
    for p in pairs:
        w1 = float(_type3_weight(alpha, beta, p.theta1))
        w2 = float(_type3_weight(alpha, beta, p.theta2))
        if abs(w1 - w2) > _edge_tolerance(w1, w2):
            raise InvalidPair(f"root at {p.theta1:.12g} violates edge equality")
    return pairs


def corner_pairs(alpha: float, beta: float) -> list[AnglePair]:
    """The pairs of ``solve_angle_pairs`` that carry a corner profile,
    i.e. whose bisector ``blowup_limit`` admits as a type-3 theta_star.
    At alpha = beta = 1 this drops the four canonical pairs with a
    diagonal bisector: their edges lie on the axes, where the edge weight
    vanishes."""
    out = []
    for p in solve_angle_pairs(alpha, beta):
        stag = Type3(theta_star=0.5 * (p.theta1 + p.theta2))
        try:
            blowup_limit(ProblemSpec(alpha, beta, stag, Rect(-1.0, -1.0, 1.0, 1.0)))
        except InvalidSpec:
            continue
        out.append(p)
    return out


def _merge_circular(roots: list[float], tol: float) -> list[float]:
    if not roots:
        return roots
    merged = [roots[0]]
    for t in roots[1:]:
        if abs(t - merged[-1]) > tol:
            merged.append(t)
    if len(merged) > 1 and abs((merged[0] + TWO_PI) - merged[-1]) <= tol:
        merged.pop()
    return merged


# ---------------------------------------------------------------------------
# Conclusion table: one row per subcase.

@dataclass(frozen=True)
class ConclusionRow:
    stag_type: int
    subcase: str
    x0: float | None
    y0: float | None
    theta0: float | None          # None renders as N/A
    opening: float
    theta1: float
    theta2: float
    density: float


def _subcase_specs(alpha: float, beta: float):
    """All subcase configurations admissible at these exponents, the
    stagnation point at unit distance from its axis (type 2 needs alpha
    >= 1, type 3 needs both; inadmissible rows are skipped)."""
    big = Rect(-4.0, -4.0, 4.0, 4.0)
    stags = [Type1(x0=x0, theta0=th)
             for x0, th in [(-1.0, THETA_DOWN), (1.0, THETA_UP),
                            (-1.0, THETA_UP), (1.0, THETA_DOWN)]]
    stags += [Type2(y0=y0, theta0=th)
              for y0, th in [(-1.0, THETA_LEFT), (1.0, THETA_RIGHT),
                             (-1.0, THETA_RIGHT), (1.0, THETA_LEFT)]]
    stags.append(Type3())
    out = []
    for stag in stags:
        try:
            out.append(ProblemSpec(alpha, beta, stag, big))
        except InvalidSpec:
            continue
    return out


def conclusion_table(alpha: float, beta: float) -> list[ConclusionRow]:
    """Openings, cone edges, force directions, and densities for all nine
    subcases at the given exponents, the stagnation point at unit distance
    from its axis.  The type-3 row is the cone about the downward axis,
    ``Type3``'s default bisector."""
    rows = []
    for spec in _subcase_specs(alpha, beta):
        m = spec.model
        prof = blowup_limit(spec)
        # the stagnation coordinate off the degenerate axes, if any
        x0, y0 = (None if d else v for v, d in zip(m.location, m.degenerate))
        rows.append(ConclusionRow(
            stag_type=int(m.subcase[0]),
            subcase=m.subcase,
            x0=x0, y0=y0, theta0=m.theta0,
            opening=prof.opening,
            theta1=prof.theta1, theta2=prof.theta2,
            density=corner_density(spec, prof.theta1, prof.theta2),
        ))
    return rows

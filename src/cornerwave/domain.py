"""Problem description, grids, fields, and the degenerate boundary weight.

The laboratory studies nonnegative functions u that are harmonic on their
positivity set and satisfy the Bernoulli gradient condition

    |grad u|^2 = C |x|^alpha |y|^beta        on the free boundary d{u>0},

where the squared-speed prescription degenerates on one or both coordinate
axes.  A stagnation point is a free-boundary point sitting on a degeneracy
axis; three types are distinguished by its location:

    type 1:  X0 = (x0, 0), x0 != 0   (degenerate in y only, beta >= 1)
    type 2:  X0 = (0, y0), y0 != 0   (degenerate in x only, alpha >= 1)
    type 3:  X0 = (0, 0)             (degenerate in both, alpha, beta >= 1)

For types 1 and 2 the weight carries one-sided sign conventions selecting
the quadrant that hosts the fluid, e.g. (-x)^alpha (-y)^beta for a type-1
point with x0 < 0 and downward force.  The force direction theta0 (down or
up for type 1, left or right for type 2) fixes the degenerate factor's
side; the sign of the stagnation coordinate fixes the non-degenerate one.
For types 1 and 2 the fluid cone's bisector points along the force; a
type-3 point admits several cones, and its data name one by its bisector
theta_star, which also places the air half-plane.  These conventions are
derived once per spec, in its SubcaseModel (``ProblemSpec.model``), and
every module reads them from there.

Everything here is immutable value data shared by the solver and the
analysis modules; every value type refuses a non-finite number.  A field
is persisted here as a JSON header line and its raw float64 values.
``save_field`` writes a config's ``problem:`` mapping into the header as
it is, and ``pipeline`` reads it back with that block's own parser, so
the problem has one serialised form.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi


class RadiusOutOfRange(ValueError):
    """Requested radius leaves the analysis window or the grid."""


class InvalidBoundary(ValueError):
    """Boundary data violates the nonnegativity requirement."""


class InvalidSpec(ValueError):
    """Problem description violates a structural invariant."""


class InvalidPair(ValueError):
    """Cone angle pair does not satisfy the edge-weight equality."""


class EmptyPositivity(ValueError):
    """No positivity set where the operation requires one."""


class DegenerateDenominator(ValueError):
    """A boundary-circle integral of u^2 vanished at some radius."""

    def __init__(self, radius: float, value: float):
        super().__init__(f"circle integral of u^2 is {value:g} at r={radius:g}")
        self.radius = radius
        self.value = value


def wrap_angle(theta):
    """Map an angle to the half-open interval (-pi, pi]."""
    t = np.asarray(theta, dtype=float)
    out = t - TWO_PI * np.floor((t + math.pi) / TWO_PI)
    out = np.where(out <= -math.pi, out + TWO_PI, out)
    return float(out) if np.isscalar(theta) or out.ndim == 0 else out


def _require_finite(what: str, *values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise InvalidSpec(f"{what} must be finite")


def _clip(v, lo, hi):
    # np.clip without its Python-level wrapper: the same integers and the
    # same finite floats
    return np.minimum(np.maximum(v, lo), hi)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        _require_finite("rectangle corners", self.x_min, self.y_min,
                        self.x_max, self.y_max)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidSpec(f"degenerate rectangle {self}")

    def contains(self, point) -> bool:
        x, y = point
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def distance_to_boundary(self, point) -> float:
        x, y = point
        return min(x - self.x_min, self.x_max - x, y - self.y_min, self.y_max - y)


THETA_DOWN = 3.0 * math.pi / 2.0
THETA_UP = math.pi / 2.0
THETA_LEFT = math.pi
THETA_RIGHT = 0.0


@dataclass(frozen=True)
class Type1:
    """Stagnation point (x0, 0); force direction theta0 is up or down."""

    x0: float
    theta0: float = THETA_DOWN

    def __post_init__(self):
        _require_finite("type-1 x0", self.x0)
        if self.x0 == 0.0:
            raise InvalidSpec("type-1 stagnation point needs x0 != 0")
        if not (_close(self.theta0, THETA_UP) or _close(self.theta0, THETA_DOWN)):
            raise InvalidSpec(f"type-1 force direction must be pi/2 or 3pi/2, got {self.theta0}")


@dataclass(frozen=True)
class Type2:
    """Stagnation point (0, y0); force direction theta0 is right or left."""

    y0: float
    theta0: float = THETA_RIGHT

    def __post_init__(self):
        _require_finite("type-2 y0", self.y0)
        if self.y0 == 0.0:
            raise InvalidSpec("type-2 stagnation point needs y0 != 0")
        if not (_close(self.theta0, THETA_RIGHT) or _close(self.theta0, THETA_LEFT)):
            raise InvalidSpec(f"type-2 force direction must be 0 or pi, got {self.theta0}")


@dataclass(frozen=True)
class Type3:
    """Stagnation point at the origin; theta_star is the fluid cone's
    bisector, which also places the air half-plane.  Which angles carry a
    cone depends on the exponents (``oracle.blowup_limit`` refuses the
    others)."""

    theta_star: float = -math.pi / 2.0

    def __post_init__(self):
        _require_finite("type-3 theta_star", self.theta_star)


StagnationType = Type1 | Type2 | Type3


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


def _side(v, s):
    """Base of one weight factor: (s v)_+ for s = +-1, |v| for s = 0."""
    return np.abs(v) if s == 0 else np.maximum(s * v, 0.0)


def _side_and_slope(v, s):
    """Base of one weight factor and its derivative (0 where it vanishes)."""
    if s == 0:
        return np.abs(v), np.sign(v)
    b = np.maximum(s * v, 0.0)
    return b, np.where(b > 0, float(s), 0.0)


@dataclass(frozen=True)
class SubcaseModel:
    """Sign and exponent conventions of one stagnation point.

    Each axis factor of the weight C |x|^alpha |y|^beta is one-sided,
    (s v)_+ with s = +-1, or two-sided, |v| with s = 0.  The degenerate
    axes are those whose factor vanishes at X0: y for type 1, x for
    type 2, both for type 3.  The remaining (non-degenerate) factor is
    frozen at X0 by the blow-up.  Built once per spec, see
    ``ProblemSpec.model``.
    """

    subcase: str                     # "1.1" ... "2.4" or "3"
    location: tuple[float, float]    # X0
    exponents: tuple[float, float]   # (alpha, beta)
    signs: tuple[int, int]           # (sx, sy); 0 means two-sided
    degenerate: tuple[bool, bool]    # per axis (x, y)
    power: float                     # degenerate exponent p; kappa = -(p+2)/2
    frozen_exponent: float           # of the non-degenerate factor (0 for type 3)
    frozen: float                    # non-degenerate factor at X0 (1 for type 3)
    frozen_root: float               # its square root, as |x0|^(alpha/2)
    theta0: float | None             # force direction (None for type 3)
    bisector: float                  # fluid-cone bisector (theta_star for type 3)
    air_normal: tuple[float, float]  # air side: (X - X0) . air_normal <= 0

    def bases(self, x, y):
        """Bases of the two weight factors at (x, y)."""
        return _side(x, self.signs[0]), _side(y, self.signs[1])

    def monomial(self, x, y, scale=1.0):
        """scale times the degenerate factors: (sy y)_+^beta for type 1,
        (sx x)_+^alpha for type 2, |x|^alpha |y|^beta for type 3.  The
        scale is applied first, so C * frozen * monomial rounds as
        ``weight_at`` does."""
        out = scale
        for v, s, e, d in zip((x, y), self.signs, self.exponents, self.degenerate):
            if d:
                out = out * _side(v, s) ** e
        return out


def _build_model(spec: ProblemSpec) -> SubcaseModel:
    # the only switch on the stagnation type outside validation and I/O
    a, b, st = spec.alpha, spec.beta, spec.stag
    if isinstance(st, Type1):
        sx, sy = (1 if st.x0 > 0 else -1), (1 if _close(st.theta0, THETA_UP) else -1)
        labels = {(-1, -1): "1.1", (1, 1): "1.2", (-1, 1): "1.3", (1, -1): "1.4"}
        return SubcaseModel(
            subcase=labels[sx, sy], location=(st.x0, 0.0), exponents=(a, b),
            signs=(sx, sy), degenerate=(False, True), power=b,
            frozen_exponent=a, frozen=abs(st.x0) ** a,
            frozen_root=abs(st.x0) ** (a / 2.0), theta0=st.theta0,
            bisector=math.pi / 2.0 if sy > 0 else -math.pi / 2.0,
            air_normal=(math.cos(st.theta0), math.sin(st.theta0)))
    if isinstance(st, Type2):
        sx, sy = (1 if _close(st.theta0, THETA_RIGHT) else -1), (1 if st.y0 > 0 else -1)
        labels = {(-1, -1): "2.1", (1, 1): "2.2", (1, -1): "2.3", (-1, 1): "2.4"}
        return SubcaseModel(
            subcase=labels[sx, sy], location=(0.0, st.y0), exponents=(a, b),
            signs=(sx, sy), degenerate=(True, False), power=a,
            frozen_exponent=b, frozen=abs(st.y0) ** b,
            frozen_root=abs(st.y0) ** (b / 2.0), theta0=st.theta0,
            bisector=0.0 if sx > 0 else math.pi,
            air_normal=(math.cos(st.theta0), math.sin(st.theta0)))
    return SubcaseModel(
        subcase="3", location=(0.0, 0.0), exponents=(a, b), signs=(0, 0),
        degenerate=(True, True), power=a + b, frozen_exponent=0.0, frozen=1.0,
        frozen_root=1.0, theta0=None, bisector=st.theta_star,
        air_normal=(math.cos(st.theta_star), math.sin(st.theta_star)))


@dataclass(frozen=True)
class ProblemSpec:
    """Exponents, stagnation type, domain rectangle, and weight constant."""

    alpha: float
    beta: float
    stag: StagnationType
    domain: Rect
    weight_constant: float = 1.0

    def __post_init__(self):
        _require_finite("alpha, beta and the weight constant", self.alpha,
                        self.beta, self.weight_constant)
        if self.alpha < 0 or self.beta < 0:
            raise InvalidSpec("exponents must be nonnegative")
        if self.alpha + self.beta <= 0:
            raise InvalidSpec("alpha + beta must be positive")
        if self.weight_constant <= 0:
            raise InvalidSpec("weight constant must be positive")
        if isinstance(self.stag, Type1) and self.beta < 1:
            raise InvalidSpec("type 1 requires beta >= 1")
        if isinstance(self.stag, Type2) and self.alpha < 1:
            raise InvalidSpec("type 2 requires alpha >= 1")
        if isinstance(self.stag, Type3) and (self.alpha < 1 or self.beta < 1):
            raise InvalidSpec("type 3 requires alpha >= 1 and beta >= 1")
        if not self.domain.contains(self.stagnation_location):
            raise InvalidSpec("stagnation point lies outside the domain rectangle")

    @cached_property
    def model(self) -> SubcaseModel:
        """The subcase conventions, built on first use (not a field, so
        equality and the persisted header are unaffected)."""
        return _build_model(self)

    @property
    def stagnation_location(self) -> tuple[float, float]:
        return self.model.location

    @property
    def kappa(self) -> float:
        """Rescaling exponent: u_r(X) = r^kappa u(X0 + r X) stays O(1)."""
        return -(self.model.power + 2.0) / 2.0

    @property
    def degree(self) -> float:
        """Positive homogeneity degree of the blow-up limit (= -kappa)."""
        return -self.kappa


def weight_at(spec: ProblemSpec, x, y):
    """Evaluate the one-sided weight C |x|^alpha |y|^beta at coordinates
    x and y, numbers or broadcastable arrays.  The sign conventions of
    the active subcase are applied exactly, e.g. subcase 1.1 evaluates
    C (-x)_+^alpha (-y)_+^beta; the weight vanishes on every degeneracy
    axis and no smoothing is applied.
    """
    xb, yb = spec.model.bases(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = spec.weight_constant * xb ** spec.alpha * yb ** spec.beta
    return float(out) if out.ndim == 0 else out


def weight_gradient_at(spec: ProblemSpec, x, y):
    """Gradient of the one-sided weight, with value 0 where a factor's base
    vanishes (the measure-zero axis set)."""
    a, b, c = spec.alpha, spec.beta, spec.weight_constant
    sx, sy = spec.model.signs
    xb, dxb = _side_and_slope(np.asarray(x, dtype=float), sx)
    yb, dyb = _side_and_slope(np.asarray(y, dtype=float), sy)
    xf = xb ** a
    yf = yb ** b
    with np.errstate(divide="ignore", invalid="ignore"):
        xfm = np.where(xb > 0, xb ** (a - 1.0), 0.0)
        yfm = np.where(yb > 0, yb ** (b - 1.0), 0.0)
    wx = c * a * dxb * xfm * yf if a > 0 else np.zeros_like(xf * yf)
    wy = c * b * dyb * yfm * xf if b > 0 else np.zeros_like(xf * yf)
    return wx, wy


def value_envelope_monomial(spec: ProblemSpec, x, y):
    """Pointwise growth envelope implied by the Bernstein gradient bound
    |grad u|^2 <= C * weight near the stagnation point: one term per
    degenerate axis, that axis's half exponent raised by one,

        type 1: (sx x)_+^{a/2} (sy y)_+^{b/2+1}
        type 2: (sx x)_+^{a/2+1} (sy y)_+^{b/2}
        type 3: |x|^{a/2+1} |y|^{b/2} + |x|^{a/2} |y|^{b/2+1}

    Admissible fields stay below a constant multiple of this; hair-like
    spikes hugging a degeneracy axis violate it."""
    m = spec.model
    xb, yb = m.bases(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    a, b = spec.alpha / 2, spec.beta / 2
    terms = [xb ** (a + dx) * yb ** (b + dy)
             for dx, dy in ((1, 0), (0, 1)) if m.degenerate[dy]]
    return sum(terms[1:], terms[0])


def _require_nodes(nx: int, ny: int) -> None:
    if nx < 16 or ny < 16:
        raise InvalidSpec("grid needs at least 16 nodes per axis")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with square cells; node (i, j) sits at origin + h*(i, j)."""

    nx: int
    ny: int
    origin: tuple[float, float]
    spacing: float

    def __post_init__(self):
        _require_nodes(self.nx, self.ny)
        _require_finite("grid origin and spacing", *self.origin, self.spacing)
        if self.spacing <= 0:
            raise InvalidSpec("grid spacing must be positive")

    @classmethod
    def from_domain(cls, rect: Rect, nx: int, ny: int) -> "GridSpec":
        _require_nodes(nx, ny)  # before the spacing divides by n - 1
        hx = (rect.x_max - rect.x_min) / (nx - 1)
        hy = (rect.y_max - rect.y_min) / (ny - 1)
        if abs(hx - hy) > 1e-9 * max(hx, hy):
            raise InvalidSpec(f"non-square cells: hx={hx!r}, hy={hy!r}")
        return cls(nx=nx, ny=ny, origin=(rect.x_min, rect.y_min), spacing=hx)

    def xs(self) -> np.ndarray:
        return self.origin[0] + self.spacing * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.origin[1] + self.spacing * np.arange(self.ny)

    def mesh(self):
        return np.meshgrid(self.xs(), self.ys())

    @property
    def extent(self) -> Rect:
        return Rect(self.origin[0], self.origin[1],
                    self.origin[0] + self.spacing * (self.nx - 1),
                    self.origin[1] + self.spacing * (self.ny - 1))

    def nearest_node(self, px, py):
        """Indices (jj, ii) of the node nearest each point (px, py), clamped
        to the grid."""
        ii = _clip(np.rint((px - self.origin[0]) / self.spacing).astype(int), 0, self.nx - 1)
        jj = _clip(np.rint((py - self.origin[1]) / self.spacing).astype(int), 0, self.ny - 1)
        return jj, ii


def reference_grid(n: int) -> GridSpec:
    """The n x n grid on the reference square [-1, 1]^2."""
    return GridSpec(nx=n, ny=n, origin=(-1.0, -1.0), spacing=2.0 / (n - 1))


@dataclass
class ScalarField:
    """Grid function; values[j, i] lives at (xs[i], ys[j])."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ny, self.grid.nx):
            raise InvalidSpec(
                f"field shape {self.values.shape} != grid ({self.grid.ny}, {self.grid.nx})")
        if not np.all(np.isfinite(self.values)):
            raise InvalidSpec("field values must be finite")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


def bilinear(values: np.ndarray, grid: GridSpec, px, py):
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    gx = (px - grid.origin[0]) / grid.spacing
    gy = (py - grid.origin[1]) / grid.spacing
    eps = 1e-9
    if np.any(gx < -eps) or np.any(gx > grid.nx - 1 + eps) \
            or np.any(gy < -eps) or np.any(gy > grid.ny - 1 + eps):
        raise RadiusOutOfRange("interpolation point outside the grid")
    i0 = _clip(np.floor(gx).astype(int), 0, grid.nx - 2)
    j0 = _clip(np.floor(gy).astype(int), 0, grid.ny - 2)
    fx = _clip(gx - i0, 0.0, 1.0)
    fy = _clip(gy - j0, 0.0, 1.0)
    v00 = values[j0, i0]
    v10 = values[j0, i0 + 1]
    v01 = values[j0 + 1, i0]
    v11 = values[j0 + 1, i0 + 1]
    out = (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
           + v01 * (1 - fx) * fy + v11 * fx * fy)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StagnationPoint:
    """Analysis anchor: location X0, rescaling exponent kappa, radius delta."""

    location: tuple[float, float]
    kappa: float
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise InvalidSpec("analysis radius delta must be positive")


def stagnation_point(spec: ProblemSpec) -> StagnationPoint:
    """Build the stagnation point of a spec; delta is half the distance
    from X0 to the domain boundary."""
    loc = spec.stagnation_location
    return StagnationPoint(location=loc, kappa=spec.kappa,
                           delta=spec.domain.distance_to_boundary(loc) / 2.0)


# ---------------------------------------------------------------------------
# Persistence: a JSON header line, then the node values as raw little-endian
# float64, row-major, exactly nx * ny * 8 bytes.  The header's "body" tag
# names that encoding; the values round-trip bit-exactly by construction.

_BODY = "<f8"


def save_field(field: ScalarField, path, problem: dict | None = None) -> None:
    """Write ``field`` as a JSON header line (with ``problem``, a config's
    ``problem:`` mapping, if given) and then its values as raw
    little-endian float64, row-major.

    The body is written straight from the array's buffer: no value is
    formatted and a C-contiguous float64 array is not copied."""
    g = field.grid
    header = {
        "body": _BODY,
        "nx": g.nx,
        "ny": g.ny,
        "origin": [g.origin[0], g.origin[1]],
        "spacing": g.spacing,
    }
    if problem is not None:
        header["problem"] = problem
    values = np.ascontiguousarray(field.values, dtype=_BODY)
    with open(path, "wb") as out:
        out.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        out.write(values.data)


def load_field(path) -> tuple[ScalarField, dict]:
    """Load a field written by ``save_field``; returns (field, header).

    The header must carry the ``"body": "<f8"`` tag and the body must be
    exactly nx * ny * 8 bytes; the body is read straight into the array
    that the field holds."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        if not isinstance(header, dict) or header.get("body") != _BODY:
            raise InvalidSpec(f"header does not name a {_BODY!r} body")
        grid = GridSpec(nx=header["nx"], ny=header["ny"],
                        origin=tuple(header["origin"]),
                        spacing=header["spacing"])
        size = os.fstat(f.fileno()).st_size - f.tell()
        nbytes = grid.nx * grid.ny * 8
        if size != nbytes:
            raise InvalidSpec(f"expected a body of {nbytes} bytes, found {size}")
        values = np.empty((grid.ny, grid.nx), dtype=_BODY)
        if f.readinto(values) != nbytes:
            raise InvalidSpec(f"body shorter than {nbytes} bytes")
    return ScalarField(grid, values), header

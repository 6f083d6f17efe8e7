"""Disk, circle, and finite-difference primitives on uniform grids.

Disk integrals use node quadrature where every node carries the exact area
of the intersection between its h x h cell and the disk, so the rim is
resolved to machine precision and the overall rule is second order on
smooth integrands.  Circle integrals sample the field at
max(64, ceil(2 pi r / h)) equispaced angles with bilinear interpolation and
apply the periodic trapezoid rule.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import TWO_PI, GridSpec, RadiusOutOfRange, bilinear


def grad_central(values: np.ndarray, spacing: float):
    """Gradient by central differences, one-sided on the outermost rows."""
    ux = np.empty_like(values)
    uy = np.empty_like(values)
    h2 = 2.0 * spacing
    ux[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / h2
    ux[:, 0] = (values[:, 1] - values[:, 0]) / spacing
    ux[:, -1] = (values[:, -1] - values[:, -2]) / spacing
    uy[1:-1, :] = (values[2:, :] - values[:-2, :]) / h2
    uy[0, :] = (values[1, :] - values[0, :]) / spacing
    uy[-1, :] = (values[-1, :] - values[-2, :]) / spacing
    return ux, uy


def laplacian5(values: np.ndarray, spacing: float) -> np.ndarray:
    """Five-point Laplacian on interior nodes; boundary rows are zero."""
    lap = np.zeros_like(values)
    lap[1:-1, 1:-1] = (values[1:-1, 2:] + values[1:-1, :-2]
                       + values[2:, 1:-1] + values[:-2, 1:-1]
                       - 4.0 * values[1:-1, 1:-1]) / spacing ** 2
    return lap


def _sqrt_arc_antiderivative(u: np.ndarray, r: float) -> np.ndarray:
    # antiderivative of sqrt(r^2 - t^2), valid for u in [-r, r]
    uc = np.clip(u, -r, r)
    s = np.sqrt(np.maximum(r * r - uc * uc, 0.0))
    return 0.5 * (uc * s + r * r * np.arcsin(np.clip(uc / r, -1.0, 1.0)))


def _left_area(x: np.ndarray, r: float) -> np.ndarray:
    # area of the disk B_r(0) to the left of the vertical line u = x
    return 2.0 * _sqrt_arc_antiderivative(x, r) + 0.5 * math.pi * r * r


def _corner_area(x: np.ndarray, y: np.ndarray, r: float) -> np.ndarray:
    """Area of B_r(0) intersected with the quarter plane {u <= x, v <= y}."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape, dtype=float)

    hi = y >= r
    lo = y <= -r
    mid_pos = (~hi) & (~lo) & (y >= 0)
    mid_neg = (~hi) & (~lo) & (y < 0)

    out[hi] = _left_area(x[hi], r)
    out[lo] = 0.0

    def _mid(xv, yv):
        # y in [0, r): subtract the sliver above the chord, left of x
        s = np.sqrt(np.maximum(r * r - yv * yv, 0.0))
        b = np.minimum(np.clip(xv, -r, r), s)
        a = -s
        width = np.maximum(b - a, 0.0)
        sliver = np.where(
            width > 0,
            _sqrt_arc_antiderivative(b, r) - _sqrt_arc_antiderivative(a, r) - yv * width,
            0.0)
        return _left_area(xv, r) - sliver

    out[mid_pos] = _mid(x[mid_pos], y[mid_pos])
    out[mid_neg] = _left_area(x[mid_neg], r) - _mid(x[mid_neg], -y[mid_neg])
    return out


def cell_disk_overlap(cx: np.ndarray, cy: np.ndarray, half: float, r: float) -> np.ndarray:
    """Exact area of [cx-half, cx+half] x [cy-half, cy+half] inside B_r(0)."""
    return (_corner_area(cx + half, cy + half, r)
            - _corner_area(cx - half, cy + half, r)
            - _corner_area(cx + half, cy - half, r)
            + _corner_area(cx - half, cy - half, r))


class DiskStencil:
    """Node indices and exact cell-overlap weights for one disk.

    ``integrate(f)`` sums f over the disk for any nodewise array f on the
    parent grid.
    """

    def __init__(self, grid: GridSpec, center, r: float):
        if r <= 0:
            raise RadiusOutOfRange(f"radius {r:g} must be positive")
        h = grid.spacing
        cx, cy = center
        xs, ys = grid.xs(), grid.ys()
        i_lo = max(0, int(math.floor((cx - r - h - grid.origin[0]) / h)))
        i_hi = min(grid.nx, int(math.ceil((cx + r + h - grid.origin[0]) / h)) + 1)
        j_lo = max(0, int(math.floor((cy - r - h - grid.origin[1]) / h)))
        j_hi = min(grid.ny, int(math.ceil((cy + r + h - grid.origin[1]) / h)) + 1)
        X = xs[i_lo:i_hi][None, :] - cx
        Y = ys[j_lo:j_hi][:, None] - cy
        dist = np.hypot(X, Y)
        margin = h * math.sqrt(0.5)
        weights = np.zeros(dist.shape, dtype=float)
        inside = dist <= r - margin
        rim = (~inside) & (dist < r + margin)
        weights[inside] = h * h
        if np.any(rim):
            weights[rim] = cell_disk_overlap(
                np.broadcast_to(X, dist.shape)[rim],
                np.broadcast_to(Y, dist.shape)[rim], h / 2.0, r)
        self.box = (slice(j_lo, j_hi), slice(i_lo, i_hi))
        self.weights = weights

    def integrate(self, nodewise: np.ndarray) -> float:
        return float(np.sum(nodewise[self.box] * self.weights))

    @property
    def area(self) -> float:
        return float(self.weights.sum())


def require_circle_inside(grid: GridSpec, center, r: float, factor: float = 1.0) -> None:
    """Raise RadiusOutOfRange unless B_{factor*r}(center) fits in the grid."""
    if r <= 0:
        raise RadiusOutOfRange(f"radius {r:g} must be positive")
    room = grid.extent.distance_to_boundary(center)
    if factor * r > room + 1e-12:
        raise RadiusOutOfRange(
            f"ball of radius {factor * r:g} exceeds grid reach {room:g}")


def circle_integral_u2(values: np.ndarray, grid: GridSpec, center, r: float) -> float:
    """Integral of u^2 over the circle of radius r about ``center``, from
    bilinear samples at max(64, ceil(2 pi r / h)) equispaced angles."""
    require_circle_inside(grid, center, r)
    n = max(64, int(math.ceil(TWO_PI * r / grid.spacing)))
    theta = TWO_PI * np.arange(n) / n
    vals = bilinear(values, grid, center[0] + r * np.cos(theta),
                    center[1] + r * np.sin(theta))
    return float(np.sum(vals * vals) * (r * TWO_PI / n))

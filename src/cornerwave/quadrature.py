"""Disk, circle, and finite-difference primitives on uniform grids.

Disk integrals use node quadrature where every node carries the exact area
of the intersection between its h x h cell and the disk, so the rim is
resolved to machine precision and the overall rule is second order on
smooth integrands.  Circle integrals sample the field at
max(64, ceil(2 pi r / h)) equispaced angles with bilinear interpolation and
apply the periodic trapezoid rule.

Both are batched over many radii about one center: ``disk_stencils``
evaluates the rim cells of every disk in one ``cell_disk_overlap`` call
(one radius per cell, the four cell corners in one ``_corner_area``
call), and ``circle_integrals_u2`` samples every circle in one
``bilinear`` call and sums each circle's own samples.  Each radius gets
the same floats as a batch of that radius alone, so the stencil of one
radius is ``disk_stencils(grid, center, [r])[0]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import TWO_PI, GridSpec, RadiusOutOfRange, _clip, bilinear


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


def _sqrt_arc_antiderivative(u: np.ndarray, r) -> np.ndarray:
    # antiderivative of sqrt(r^2 - t^2), valid for u in [-r, r]
    uc = _clip(u, -r, r)
    s = np.sqrt(np.maximum(r * r - uc * uc, 0.0))
    return 0.5 * (uc * s + r * r * np.arcsin(_clip(uc / r, -1.0, 1.0)))


def _left_area(x: np.ndarray, r) -> np.ndarray:
    # area of the disk B_r(0) to the left of the vertical line u = x
    return 2.0 * _sqrt_arc_antiderivative(x, r) + 0.5 * math.pi * r * r


def _corner_area(x: np.ndarray, y: np.ndarray, r) -> np.ndarray:
    """Area of B_r(0) intersected with the quarter plane {u <= x, v <= y},
    for a scalar radius or one radius per point."""
    x, y, r = np.broadcast_arrays(np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float),
                                  np.asarray(r, dtype=float))
    out = np.empty(x.shape, dtype=float)

    hi = y >= r
    lo = y <= -r
    mid_pos = (~hi) & (~lo) & (y >= 0)
    mid_neg = (~hi) & (~lo) & (y < 0)

    out[hi] = _left_area(x[hi], r[hi])
    out[lo] = 0.0

    def _mid(xv, yv, rv):
        # y in [0, r): subtract the sliver above the chord, left of x
        s = np.sqrt(np.maximum(rv * rv - yv * yv, 0.0))
        b = np.minimum(_clip(xv, -rv, rv), s)
        a = -s
        width = np.maximum(b - a, 0.0)
        sliver = np.where(
            width > 0,
            _sqrt_arc_antiderivative(b, rv) - _sqrt_arc_antiderivative(a, rv)
            - yv * width,
            0.0)
        return _left_area(xv, rv) - sliver

    out[mid_pos] = _mid(x[mid_pos], y[mid_pos], r[mid_pos])
    xn, rn = x[mid_neg], r[mid_neg]
    out[mid_neg] = _left_area(xn, rn) - _mid(xn, -y[mid_neg], rn)
    return out


def cell_disk_overlap(cx: np.ndarray, cy: np.ndarray, half: float, r) -> np.ndarray:
    """Exact area of [cx-half, cx+half] x [cy-half, cy+half] inside B_r(0),
    for a scalar radius or one radius per cell; the four cell corners go
    through one ``_corner_area`` call."""
    cx, cy, r = np.broadcast_arrays(np.asarray(cx, dtype=float),
                                    np.asarray(cy, dtype=float),
                                    np.asarray(r, dtype=float))
    shape = cx.shape
    cx, cy, r = cx.ravel(), cy.ravel(), r.ravel()
    corners = _corner_area(
        np.concatenate((cx + half, cx - half, cx + half, cx - half)),
        np.concatenate((cy + half, cy + half, cy - half, cy - half)),
        np.tile(r, 4)).reshape(4, -1)
    return (corners[0] - corners[1] - corners[2] + corners[3]).reshape(shape)


def _disk_weights(grid: GridSpec, center, radii) -> list:
    """(box, weights) of the disk of each radius about ``center``: h^2 on
    the nodes whose cell lies inside the disk, the exact overlap on the
    rim cells, 0 elsewhere.  The rim cells of all radii share one
    ``cell_disk_overlap`` call."""
    h = grid.spacing
    cx, cy = center
    xs, ys = grid.xs(), grid.ys()
    margin = h * math.sqrt(0.5)
    parts, rim_x, rim_y = [], [], []
    for r in radii:
        if r <= 0:
            raise RadiusOutOfRange(f"radius {r:g} must be positive")
        i_lo = max(0, int(math.floor((cx - r - h - grid.origin[0]) / h)))
        i_hi = min(grid.nx, int(math.ceil((cx + r + h - grid.origin[0]) / h)) + 1)
        j_lo = max(0, int(math.floor((cy - r - h - grid.origin[1]) / h)))
        j_hi = min(grid.ny, int(math.ceil((cy + r + h - grid.origin[1]) / h)) + 1)
        X = xs[i_lo:i_hi][None, :] - cx
        Y = ys[j_lo:j_hi][:, None] - cy
        dist = np.hypot(X, Y)
        inside = dist <= r - margin
        rim = (~inside) & (dist < r + margin)
        rim_x.append(np.broadcast_to(X, dist.shape)[rim])
        rim_y.append(np.broadcast_to(Y, dist.shape)[rim])
        parts.append(((slice(j_lo, j_hi), slice(i_lo, i_hi)),
                      np.where(inside, h * h, 0.0), rim))
    counts = [len(x) for x in rim_x]
    overlap = cell_disk_overlap(np.concatenate(rim_x), np.concatenate(rim_y),
                                h / 2.0, np.repeat(radii, counts))
    for (_, weights, rim), piece in zip(parts, np.split(overlap, np.cumsum(counts)[:-1])):
        weights[rim] = piece
    return [(box, weights) for box, weights, _ in parts]


@dataclass(frozen=True, eq=False)
class DiskStencil:
    """Node indices (a box of the parent grid) and exact cell-overlap
    weights for one disk, as built by ``disk_stencils``.

    ``integrate(f)`` sums f over the disk for any nodewise array f on the
    parent grid.
    """

    box: tuple[slice, slice]
    weights: np.ndarray

    def integrate(self, nodewise: np.ndarray) -> float:
        return float(np.sum(nodewise[self.box] * self.weights))


def disk_stencils(grid: GridSpec, center, radii) -> list[DiskStencil]:
    """The ``DiskStencil`` of each radius about ``center``, their rim cells
    evaluated in one batch."""
    return [DiskStencil(box, weights)
            for box, weights in _disk_weights(grid, center, radii)]


def require_circle_inside(grid: GridSpec, center, r: float, factor: float = 1.0) -> None:
    """Raise RadiusOutOfRange unless B_{factor*r}(center) fits in the grid."""
    if r <= 0:
        raise RadiusOutOfRange(f"radius {r:g} must be positive")
    room = grid.extent.distance_to_boundary(center)
    if factor * r > room + 1e-12:
        raise RadiusOutOfRange(
            f"ball of radius {factor * r:g} exceeds grid reach {room:g}")


def circle_integrals_u2(values: np.ndarray, grid: GridSpec, center,
                        radii) -> np.ndarray:
    """Integral of u^2 over the circle of each radius about ``center``,
    from bilinear samples at max(64, ceil(2 pi r / h)) equispaced angles.
    The samples of all circles go through one ``bilinear`` call, and each
    circle's trapezoid sum runs over its own samples."""
    radii = np.asarray(radii, dtype=float)
    counts = []
    for r in radii:
        require_circle_inside(grid, center, r)
        counts.append(max(64, int(math.ceil(TWO_PI * r / grid.spacing))))
    k = np.concatenate([np.arange(n) for n in counts])
    theta = TWO_PI * k / np.repeat(counts, counts)
    rr = np.repeat(radii, counts)
    vals = bilinear(values, grid, center[0] + rr * np.cos(theta),
                    center[1] + rr * np.sin(theta))
    sums = [np.sum(piece) for piece in np.split(vals * vals, np.cumsum(counts)[:-1])]
    return np.array(sums) * (radii * TWO_PI / np.array(counts))

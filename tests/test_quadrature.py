import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cornerwave as cw
from cornerwave.domain import TWO_PI, bilinear
from cornerwave.quadrature import (cell_disk_overlap, circle_integrals_u2,
                                   disk_stencils, grad_central,
                                   require_circle_inside)
from references import laplacian5


def unit_grid(n=257):
    return cw.GridSpec(nx=n, ny=n, origin=(-1.0, -1.0), spacing=2.0 / (n - 1))


# Scalar references: the per-radius stencil and circle rule, one radius
# and one cell corner per call, as they were before the batched forms.

def _scalar_arc(u, r):
    uc = np.clip(u, -r, r)
    s = np.sqrt(np.maximum(r * r - uc * uc, 0.0))
    return 0.5 * (uc * s + r * r * np.arcsin(np.clip(uc / r, -1.0, 1.0)))


def _scalar_left(x, r):
    return 2.0 * _scalar_arc(x, r) + 0.5 * math.pi * r * r


def _scalar_corner(x, y, r):
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.empty(x.shape, dtype=float)
    hi = y >= r
    lo = y <= -r
    mid_pos = (~hi) & (~lo) & (y >= 0)
    mid_neg = (~hi) & (~lo) & (y < 0)
    out[hi] = _scalar_left(x[hi], r)
    out[lo] = 0.0

    def _mid(xv, yv):
        s = np.sqrt(np.maximum(r * r - yv * yv, 0.0))
        b = np.minimum(np.clip(xv, -r, r), s)
        a = -s
        width = np.maximum(b - a, 0.0)
        sliver = np.where(width > 0,
                          _scalar_arc(b, r) - _scalar_arc(a, r) - yv * width, 0.0)
        return _scalar_left(xv, r) - sliver

    out[mid_pos] = _mid(x[mid_pos], y[mid_pos])
    out[mid_neg] = _scalar_left(x[mid_neg], r) - _mid(x[mid_neg], -y[mid_neg])
    return out


def scalar_disk_stencil(grid, center, r):
    """(box, weights) of one disk, its rim cells one corner at a time."""
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
        cx_, cy_ = np.broadcast_to(X, dist.shape)[rim], np.broadcast_to(Y, dist.shape)[rim]
        half = h / 2.0
        weights[rim] = (_scalar_corner(cx_ + half, cy_ + half, r)
                        - _scalar_corner(cx_ - half, cy_ + half, r)
                        - _scalar_corner(cx_ + half, cy_ - half, r)
                        + _scalar_corner(cx_ - half, cy_ - half, r))
    return (slice(j_lo, j_hi), slice(i_lo, i_hi)), weights


def scalar_circle_integral(values, grid, center, r):
    n = max(64, int(math.ceil(TWO_PI * r / grid.spacing)))
    theta = TWO_PI * np.arange(n) / n
    vals = bilinear(values, grid, center[0] + r * np.cos(theta),
                    center[1] + r * np.sin(theta))
    return float(np.sum(vals * vals) * (r * TWO_PI / n))


class TestCellOverlap:
    @given(cx=st.floats(-1.2, 1.2), cy=st.floats(-1.2, 1.2),
           r=st.floats(0.3, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_against_dense_subsampling(self, cx, cy, r):
        half = 0.02
        exact = float(cell_disk_overlap(np.array([cx]), np.array([cy]), half, r)[0])
        m = 400
        xs = cx - half + (np.arange(m) + 0.5) * (2 * half / m)
        ys = cy - half + (np.arange(m) + 0.5) * (2 * half / m)
        XX, YY = np.meshgrid(xs, ys)
        brute = np.mean(XX ** 2 + YY ** 2 <= r * r) * (2 * half) ** 2
        assert exact == pytest.approx(brute, abs=4 * (2 * half) ** 2 / m)

    def test_full_and_empty_cells(self):
        assert cell_disk_overlap(np.array([0.0]), np.array([0.0]), 0.01, 1.0)[0] \
            == pytest.approx(4e-4, rel=1e-12)
        assert cell_disk_overlap(np.array([5.0]), np.array([0.0]), 0.01, 1.0)[0] == 0.0


class TestDiskStencil:
    @pytest.mark.parametrize("r", [0.1, 1.0 / 3.0, 0.77])
    def test_total_weight_is_disk_area(self, r):
        d = disk_stencils(unit_grid(), (0.05, -0.02), [r])[0]
        assert float(d.weights.sum()) == pytest.approx(math.pi * r * r, abs=1e-12)

    def test_polynomial_integral(self):
        # integral of x^2 over B_r(0) = pi r^4 / 4
        g = unit_grid(513)
        X, Y = g.mesh()
        d = disk_stencils(g, (0.0, 0.0), [0.6])[0]
        exact = math.pi * 0.6 ** 4 / 4
        # midpoint rule: O(h^2) with h = 1/256
        assert d.integrate(X * X) == pytest.approx(exact, rel=5e-5)

    def test_discontinuous_integrand(self):
        # integral of (y_-) over the lower half of B_r: r^3 * 2/3
        g = unit_grid(513)
        _, Y = g.mesh()
        d = disk_stencils(g, (0.0, 0.0), [0.5])[0]
        exact = 2.0 / 3.0 * 0.5 ** 3
        assert d.integrate(np.maximum(-Y, 0.0)) == pytest.approx(exact, rel=1e-5)


class TestBatchedStencils:
    # the grid [-1.3, 0.7] x [-0.7, 1.3] at h = 1/64, radii from below h
    # to past the grid edge
    GRID = cw.GridSpec(nx=129, ny=129, origin=(-1.3, -0.7), spacing=2.0 / 128)
    RADII = [0.004, 0.011, 0.0299, 0.05, 1.0 / 3.0, 0.61, 0.9]

    # a node, a point off the nodes, a point near the left edge and one on
    # the top edge, whose disks the grid clips
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.0123, -0.0371),
                                        (-1.21, 0.55), (0.69, 1.3)])
    def test_equal_to_scalar_reference(self, center):
        batch = disk_stencils(self.GRID, center, self.RADII)
        assert len(batch) == len(self.RADII)
        for r, disk in zip(self.RADII, batch):
            box, weights = scalar_disk_stencil(self.GRID, center, r)
            for d in (disk, disk_stencils(self.GRID, center, [r])[0]):
                assert d.box == box
                assert np.array_equal(d.weights, weights)

    def test_radius_must_be_positive(self):
        with pytest.raises(cw.RadiusOutOfRange):
            disk_stencils(self.GRID, (0.0, 0.0), [0.2, 0.0])

    def test_overlap_takes_one_radius_per_cell(self):
        rng = np.random.default_rng(3)
        cx, cy = rng.uniform(-1.0, 1.0, (2, 500))
        r = rng.uniform(0.2, 1.2, 500)
        per_cell = cell_disk_overlap(cx, cy, 0.02, r)
        for k in range(0, 500, 50):
            assert per_cell[k] == cell_disk_overlap(cx[k:k + 1], cy[k:k + 1],
                                                    0.02, float(r[k]))[0]

    def test_circle_integrals_equal_scalar_reference(self):
        g = self.GRID
        X, Y = g.mesh()
        values = np.sin(3 * X) * Y + X * X
        center = (-0.3123, 0.2871)
        batch = circle_integrals_u2(values, g, center, self.RADII[:-1])
        for r, val in zip(self.RADII[:-1], batch):
            ref = scalar_circle_integral(values, g, center, r)
            assert val == ref
            assert circle_integrals_u2(values, g, center, [r])[0] == ref


class TestCircleIntegral:
    def test_exact_on_polynomial(self):
        # u = x on the circle of radius r: integral of u^2 = pi r^3
        g = unit_grid(257)
        X, _ = g.mesh()
        val, = circle_integrals_u2(X, g, (0.0, 0.0), [0.5])
        assert val == pytest.approx(math.pi * 0.5 ** 3, rel=1e-4)

    def test_out_of_range(self):
        g = unit_grid(64)
        with pytest.raises(cw.RadiusOutOfRange):
            require_circle_inside(g, (0.9, 0.0), 0.5)


class TestStencils:
    def test_gradient_exact_on_linear(self):
        g = unit_grid(64)
        X, Y = g.mesh()
        ux, uy = grad_central(2 * X - 3 * Y, g.spacing)
        assert np.allclose(ux, 2.0) and np.allclose(uy, -3.0)

    def test_laplacian_exact_on_quadratic(self):
        g = unit_grid(64)
        X, Y = g.mesh()
        lap = laplacian5(X * X + Y * Y, g.spacing)
        assert np.allclose(lap[1:-1, 1:-1], 4.0)

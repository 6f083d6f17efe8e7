import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cornerwave as cw
from cornerwave.domain import TWO_PI, bilinear
from cornerwave.quadrature import (_corner_area, cell_disk_overlap,
                                   circle_integrals_u2, disk_stencils,
                                   grad_central, require_circle_inside)
from references import laplacian5


def unit_grid(n=257):
    return cw.GridSpec(nx=n, ny=n, origin=(-1.0, -1.0), spacing=2.0 / (n - 1))


# Scalar references: the per-radius stencil and circle rule, one radius
# and one cell corner per call.

def _scalar_corner(x, y, r):
    """The closed form of ``_corner_area`` at one corner, through the
    same NumPy ufuncs, one abscissa at a time."""
    c = np.sqrt(np.maximum((r - y) * (r + y), 0.0))
    b = np.minimum(np.maximum(x, -c), c)

    def F(t):
        s = np.sqrt(np.maximum((r - t) * (r + t), 0.0))
        return 0.5 * (t * s + r * r * np.arctan2(t, s))

    band = F(b) + F(c)
    if y >= 0:
        return (b + c) * y + (2.0 * F(np.minimum(np.maximum(x, -r), r))
                              + 0.5 * math.pi * r * r - band)
    return (b + c) * y + band


# The four-branch form the closed form replaced, kept as its accuracy
# reference: the left-of-x area, less the sliver above the chord v = y.

def _arc(u, r):
    uc = np.clip(u, -r, r)
    s = np.sqrt(np.maximum(r * r - uc * uc, 0.0))
    return 0.5 * (uc * s + r * r * np.arcsin(np.clip(uc / r, -1.0, 1.0)))


def _left(x, r):
    return 2.0 * _arc(x, r) + 0.5 * math.pi * r * r


def four_branch_corner(x, y, r):
    x, y, r = np.broadcast_arrays(np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float),
                                  np.asarray(r, dtype=float))
    out = np.empty(x.shape, dtype=float)
    hi = y >= r
    lo = y <= -r
    mid_pos = (~hi) & (~lo) & (y >= 0)
    mid_neg = (~hi) & (~lo) & (y < 0)
    out[hi] = _left(x[hi], r[hi])
    out[lo] = 0.0

    def _mid(xv, yv, rv):
        s = np.sqrt(np.maximum(rv * rv - yv * yv, 0.0))
        b = np.minimum(np.clip(xv, -rv, rv), s)
        a = -s
        width = np.maximum(b - a, 0.0)
        sliver = np.where(width > 0,
                          _arc(b, rv) - _arc(a, rv) - yv * width, 0.0)
        return _left(xv, rv) - sliver

    out[mid_pos] = _mid(x[mid_pos], y[mid_pos], r[mid_pos])
    xn, rn = x[mid_neg], r[mid_neg]
    out[mid_neg] = _left(xn, rn) - _mid(xn, -y[mid_neg], rn)
    return out


def exact_corner(x, y, r):
    """The corner area in 120-bit arithmetic from the inputs' exact
    values."""
    with mpmath.workprec(120):
        x, y, r = (mpmath.mpf(float(v)) for v in (x, y, r))

        def F(t):
            return (t * mpmath.sqrt(r * r - t * t) + r * r * mpmath.asin(t / r)) / 2

        c = mpmath.sqrt(max(r * r - y * y, 0))
        b = min(max(x, -c), c)
        band = F(b) + F(c)
        if y >= 0:
            band = 2 * F(min(max(x, -r), r)) + mpmath.pi * r * r / 2 - band
        return float((b + c) * y + band)


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
        corners = [[_scalar_corner(x, y, r) for x, y in zip(cx_ + dx, cy_ + dy)]
                   for dx, dy in ((half, half), (-half, half), (half, -half),
                                  (-half, -half))]
        weights[rim] = (np.array(corners[0]) - np.array(corners[1])
                        - np.array(corners[2]) + np.array(corners[3]))
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


class TestCornerArea:
    # the cell spacing of TestBatchedStencils.GRID
    H = 2.0 / 128

    def test_agrees_with_four_branch_form(self):
        # 10^5 corners where the four-branch form is itself good to about
        # 1e-15 r^2: its arcsin(t / r) arguments stay within 0.995 of +-1
        # (|x| <= 0.95 r or |x| >= r, |y| >= 0.1 r); nearer +-1 it loses up
        # to 1e-10 r^2 and the mpmath cases below pin the closed form there
        rng = np.random.default_rng(11)
        n = 100_000
        r = rng.uniform(1e-3, 2.0, n)
        sign = rng.choice([-1.0, 1.0], (2, n))
        x = sign[0] * r * np.where(rng.random(n) < 0.8, rng.uniform(0.0, 0.95, n),
                                   rng.uniform(1.0, 1.3, n))
        y = sign[1] * r * rng.uniform(0.1, 1.3, n)
        gap = np.abs(_corner_area(x, y, r) - four_branch_corner(x, y, r))
        assert np.max(gap / (r * r)) <= 2e-15

    @pytest.mark.parametrize("r", [1.0, 0.37, 0.9 + 1.0 / 3.0, H, H / 4])
    def test_cancellation_regimes_against_mpmath(self, r):
        # |x| or |y| within 1e-6 r of r (the sliver at y = -0.999999 r is
        # about 1e-9 r^2), y = 0 and y within 1e-6 r of 0, each against
        # the other coordinate in and out of the disk
        near = [1 - 1e-6, -(1 - 1e-6), 1 - 3e-7, 1 + 1e-7, -(1 + 1e-7)]
        rest = [0.0, 1e-6, -1e-6, 0.3, -0.7, 0.999, -0.5, 1.2]
        pairs = [(a, b) for a in near + [0.0, 1e-6, -1e-6] for b in near + rest]
        pairs += [(b, a) for a, b in pairs]
        x = np.array([a * r for a, _ in pairs])
        y = np.array([b * r for _, b in pairs])
        exact = np.array([exact_corner(a, b, r) for a, b in zip(x, y)])
        assert np.max(np.abs(_corner_area(x, y, r) - exact)) <= 8 * np.spacing(r * r)


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
